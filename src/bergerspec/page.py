"""The totally geodesic Berger spheres of the Page metric.

The Page metric on the nontrivial 2-sphere bundle over the 2-sphere
contains a one-parameter family of totally geodesic 3-spheres carrying
Berger metrics f (sigma_1^2 + sigma_2^2) + (C sin^2 r / V) sigma_3^2 for
r in (0, pi).  The coefficient functions depend on a single algebraic
number a; they are loaded from a reviewable plain-text config and checked
against independent anchors (scalar curvature window, the sqrt(C/V) = D/U
identity, the squash-parameter formula) before use.

The shifted first eigenvalue 2 f^{-1} + U^2 D^{-2} sin^{-2} r - 3(1+a^2)
crosses zero twice; between the two roots the slices have Jacobi index 5
(constant mode plus a first eigenspace of multiplicity 4), outside index
1, and exactly at the roots the four first-mode directions are null.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .berger import _check_positive, _Record
from .jacobi import EinsteinAmbient, IndexNullityReport, jacobi_shift
from .slices import DEFAULT_DEPTH, SliceGeometry, _exact_slice, find_root_bisection, slice_index_nullity

_CONFIG_RESOURCE = "data/page_constants.cfg"


class PageConfigError(ValueError):
    """The constants file is missing keys or fails a verification anchor."""


class PageStructureError(RuntimeError):
    """The computed family disagrees structurally with the expected shape."""


class PageConstants(_Record):
    """Coefficient data of the Page Berger-sphere family.

    a is the positive root of a^4 + 4a^3 - 6a^2 + 12a - 3 = 0.  The
    coefficient functions are P(r) = 1 - a^2 cos^2 r and
    Q(r) = 3 - a^2 - a^2(1+a^2) cos^2 r, with V = P/Q, U = sqrt(V),
    f = f_const * P, w = D sin r / U and the squash coordinate
    x = f / w^2 = (f V / D^2) / sin^2 r.
    """

    _fields = ("a", "f_const", "C", "D")

    def __init__(self, a: float, f_const: float, C: float, D: float) -> None:
        self.__dict__.update(a=a, f_const=f_const, C=C, D=D)

    @property
    def a2(self) -> float:
        return self.a * self.a

    @property
    def s(self) -> float:
        """Scalar curvature 12(1 + a^2)."""
        return 12.0 * (1.0 + self.a2)

    @property
    def shift(self) -> float:
        """Jacobi shift s/n of the ambient, 3(1 + a^2)."""
        return jacobi_shift(self._ambient)

    def ambient(self) -> EinsteinAmbient:
        return self._ambient

    @functools.cached_property
    def _ambient(self) -> EinsteinAmbient:  # one per constants object, as `root_count`
        return EinsteinAmbient(n=4, s=self.s, validity="hypersurface", name="Page space")

    def PQ(self, r: float) -> tuple[float, float]:
        """(P(r), Q(r)) from one cos r and one a^2."""
        c = math.cos(r)
        a2 = self.a * self.a
        return 1.0 - a2 * c * c, 3.0 - a2 - a2 * (1.0 + a2) * c * c

    def V(self, r: float) -> float:
        P, Q = self.PQ(r)
        return P / Q

    def U(self, r: float) -> float:
        return math.sqrt(self.V(r))

    def f(self, r: float) -> float:
        return self.f_const * self.PQ(r)[0]

    def w(self, r: float) -> float:
        return self.D * math.sin(r) / self.U(r)

    def _sine(self, r: float) -> float:
        """sin r, or the domain error where r is outside (0, pi) or D^2 sin^2 r underflows to 0."""
        if not 0.0 < r < math.pi:
            raise ValueError(f"slice parameter must lie in (0, pi), got {r!r}")
        s = math.sin(r)
        if self.D * self.D * s * s == 0.0:
            raise ValueError(f"slice parameter r = {r!r} is out of range: D^2 sin^2 r underflows to 0")
        return s

    def x(self, r: float) -> Fraction:
        """Squash coordinate t^{-3} = (f V / D^2) / sin^2 r, exact in the floats f V / D^2 and sin r."""
        return Fraction(*self._f_x(r)[1:])

    def _f_x(self, r: float) -> tuple[float, int, int]:
        """(f(r), P, Q) with x(r) = P/Q in lowest terms, from one `_sine`, one `PQ` and one gcd.

        With f V / D^2 = n/d and sin r = sn/sd, d and sd are powers of 2 and
        x = n 2^e / sn^2.  2^|e| joins the side whose partner is odd (sn^2 if
        e > 0, n if e < 0), so only gcd(n, sn^2) cancels.
        """
        s = self._sine(r)
        P, Q = self.PQ(r)
        f = self.f_const * P
        n, d = (f * (P / Q) / (self.D * self.D)).as_integer_ratio()
        sn, sd = s.as_integer_ratio()
        e, s2 = 2 * sd.bit_length() - d.bit_length() - 1, sn * sn
        g = math.gcd(n, s2)
        return (f, n // g << e, s2 // g) if e >= 0 else (f, n // g, s2 // g << -e)

    def t(self, r: float) -> float:
        """Squash parameter U^{-2/3} (D sin r)^{2/3} f^{-1/3}."""
        return (
            self.U(r) ** (-2.0 / 3.0)
            * (self.D * math.sin(r)) ** (2.0 / 3.0)
            * self.f(r) ** (-1.0 / 3.0)
        )

    @functools.cached_property
    def root_count(self) -> int:
        """Exact number of zeros of page_shifted_lambda1 on (0, pi): 2, 1 or 0.

        With u = cos^2 r, P = 1 - a^2 u, Q = 3 - a^2 - a^2(1+a^2) u and
        S = 1 - u = sin^2 r, the value is g = 2/(f_const P) + P/(Q D^2 S)
        - 3(1+a^2).  If a^2 <= 1/2, f_const > 0 and D != 0, g is strictly
        increasing in u: the first term has derivative 2a^2/(f_const P^2)
        >= 0, and d/du ln(P/(Q S)) = -a^2/P + a^2(1+a^2)/Q + 1/S
        >= 1 - a^2/(1-a^2) + a^2(1+a^2)/Q > 0.  As g -> +inf when u -> 1,
        and u takes each value in (0, 1) at r and pi - r, g has 2, 1 or 0
        zeros as g(pi/2) = 2/f_const + 1/((3 - a^2) D^2) - 3(1 + a^2) is
        < 0, = 0 or > 0.  Both are decided exactly, in Fractions of the
        stored floats.  A failed hypothesis is a PageStructureError naming
        it, which only constants that bypass `validate` can reach.
        """
        a, f, D = self.a, self.f_const, self.D
        for hypothesis, holds in (
            (f"a^2 <= 1/2, got a = {a!r}", abs(a) < math.inf and Fraction(a) ** 2 <= Fraction(1, 2)),
            (f"0 < f_const < inf, got f_const = {f!r}", 0 < f < math.inf),
            (f"0 < |D| < inf, got D = {D!r}", 0 < abs(D) < math.inf),
        ):
            if not holds:
                raise PageStructureError(f"the root count needs {hypothesis}")
        a2, D2 = Fraction(a) ** 2, Fraction(D) ** 2
        g = 2 / Fraction(f) + 1 / ((3 - a2) * D2) - 3 * (1 + a2)
        return 1 + (g < 0) - (g > 0)

    def validate(self) -> None:
        """Check the load-time anchors; raise PageConfigError on failure.

        f_const, C and D must be finite and positive, a must solve the
        quartic to a residual of 1e-12, 12(1+a^2) must lie in [12.95, 12.96]
        and D^2 must equal C.  The last two checks, sqrt(C/V) = D/U and the
        squash formula at three radii, are identities once D^2 = C holds, so
        they test only float rounding.  Nothing checks f_const beyond its
        sign: a wrong f_const loads, and only the roots it moves show it.
        """
        for name, value in (("f_const", self.f_const), ("C", self.C), ("D", self.D)):
            if not 0 < value < math.inf:
                raise PageConfigError(f"{name} = {value!r} is not finite and positive")
        quartic = self.a**4 + 4 * self.a**3 - 6 * self.a**2 + 12 * self.a - 3
        if abs(quartic) > 1e-12:
            raise PageConfigError(
                f"a = {self.a!r} is not a root of the defining quartic (residual {quartic:.3e})"
            )
        if not 12.95 <= self.s <= 12.96:
            raise PageConfigError(f"scalar curvature 12(1+a^2) = {self.s!r} outside [12.95, 12.96]")
        if abs(self.D * self.D - self.C) > 1e-12:
            raise PageConfigError(f"D^2 = {self.D * self.D!r} does not match C = {self.C!r}")
        for r in (math.pi / 4, math.pi / 2, 3 * math.pi / 4):
            lhs = math.sqrt(self.C / self.V(r))
            rhs = self.D / self.U(r)
            if abs(lhs - rhs) > 1e-12:
                raise PageConfigError(
                    f"sqrt(C/V) = {lhs!r} vs D/U = {rhs!r} at r = {r}: identity broken"
                )
            geom_t = (self.w(r) ** 2 / self.f(r)) ** (1.0 / 3.0)
            if abs(self.t(r) - geom_t) > 1e-12 * geom_t:
                raise PageConfigError(
                    f"squash formula t(r) = {self.t(r)!r} disagrees with (w^2/f)^(1/3) = {geom_t!r}"
                )


def _parse_config(text: str) -> dict[str, float]:
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise PageConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, rhs = line.partition("=")
        key = key.strip()
        if key not in PageConstants._fields:
            raise PageConfigError(
                f"line {lineno}: unknown key {key!r}, expected one of {PageConstants._fields}"
            )
        if key in values:
            raise PageConfigError(f"line {lineno}: key {key!r} is set a second time")
        try:
            values[key] = float(rhs.strip())
        except ValueError:
            raise PageConfigError(f"line {lineno}: not a decimal: {rhs.strip()!r}") from None
    return values


def page_constants(path: str | None = None) -> PageConstants:
    """Load the coefficient transcription, verifying its anchors (`validate`).

    A file that cannot be opened or decoded is a PageConfigError naming
    the path.
    """
    if path is None:
        from importlib import resources  # only here: it costs a cold process several ms

        text = resources.files(__package__).joinpath(_CONFIG_RESOURCE).read_text()
    else:
        try:
            with open(path) as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise PageConfigError(f"cannot read constants file {path}: {exc}") from None
    values = _parse_config(text)
    missing = [k for k in ("a", "f_const", "C", "D") if k not in values]
    if missing:
        raise PageConfigError(f"constants file is missing keys: {missing}")
    consts = PageConstants(
        a=values["a"], f_const=values["f_const"], C=values["C"], D=values["D"]
    )
    consts.validate()
    return consts


@functools.cache
def _default_constants() -> PageConstants:
    return page_constants()


def page_slice(r: float, constants: PageConstants | None = None) -> SliceGeometry:
    """The totally geodesic Berger sphere at parameter r in (0, pi)."""
    c = constants or _default_constants()
    return _exact_slice(r, *c._f_x(r), c._ambient)


def page_shifted_lambda1(r: float, constants: PageConstants | None = None) -> float:
    """First-branch shifted eigenvalue 2 f^{-1} + U^2 D^{-2} sin^{-2} r - 3(1+a^2).

    On the region where the squash coordinate x = t^{-3} stays below 6
    (which contains everything between the two zeros) this is the
    smallest nonzero Jacobi eigenvalue of the slice; elsewhere it is the
    continuation of that same branch.  It blows up at both ends of (0, pi),
    is symmetric under r -> pi - r and has `PageConstants.root_count` zeros.
    """
    c = constants or _default_constants()
    s = c._sine(r)
    P, Q = c.PQ(r)
    return 2.0 / (c.f_const * P) + P / Q / (c.D * c.D * s * s) - c.shift


def page_transition_roots(
    tol: float = 1e-6, constants: PageConstants | None = None
) -> tuple[float, float]:
    """The two zeros r1 < r2 = pi - r1 of the shifted first eigenvalue in (0, pi).

    A count (`PageConstants.root_count`, exact and kept with the constants
    object) other than two means the transcription is structurally wrong,
    and is an error on every call.  Otherwise r1 is bisected to width `tol`
    on (0, pi/2), and r2 mirrors it: the family depends on r only through
    cos^2 r.
    """
    _check_positive(tol, "tolerance")
    c = constants or _default_constants()
    if c.root_count != 2:
        raise PageStructureError(
            f"expected exactly 2 zeros of the shifted first eigenvalue, found {c.root_count}"
        )

    a2, f_const, D, shift, cos, sin = c.a2, c.f_const, c.D, c.shift, math.cos, math.sin  # bound once per call
    q2 = a2 * (1.0 + a2)

    def cleared(r: float) -> float:  # the value times f_const P Q D^2 sin^2 r > 0, finite at 0
        k, s = cos(r), sin(r)
        P, Q = 1.0 - a2 * k * k, 3.0 - a2 - q2 * k * k  # `PQ(r)`, inlined: the bisection's hot step
        return f_const * P * P + Q * D * D * s * s * (2.0 - shift * f_const * P)

    r1 = find_root_bisection(cleared, 0.0, math.pi / 2, tol)
    return r1, math.pi - r1


def page_index_nullity(
    r: float,
    depth: int = DEFAULT_DEPTH,
    zero_tolerance: float | None = None,
    constants: PageConstants | None = None,
) -> IndexNullityReport:
    """Strict Jacobi index/nullity of the slice at r (`slice_index_nullity`).

    At a transition root pass a zero_tolerance matched to the root
    certificate (slope times bisection tolerance), since the default
    1e-9-scale tolerance is far below the achievable eigenvalue residual
    there.  A report with null modes notes that strict counting puts them
    in the nullity, not the index.
    """
    return slice_index_nullity(page_slice(r, constants), depth, zero_tolerance)
