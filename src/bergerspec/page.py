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
from dataclasses import dataclass, replace
from importlib import resources

from .berger import _check_positive
from .jacobi import EinsteinAmbient, IndexNullityReport
from .slices import DEFAULT_DEPTH, SliceGeometry, find_root_bisection, slice_index_nullity

_CONFIG_RESOURCE = "data/page_constants.cfg"

ROOT_SCAN_STEP = math.pi / 1024


class PageConfigError(ValueError):
    """The constants file is missing keys or fails a verification anchor."""


class PageStructureError(RuntimeError):
    """The computed family disagrees structurally with the expected shape."""


@dataclass(frozen=True)
class PageConstants:
    """Coefficient data of the Page Berger-sphere family.

    a is the positive root of a^4 + 4a^3 - 6a^2 + 12a - 3 = 0.  The
    coefficient functions are P(r) = 1 - a^2 cos^2 r and
    Q(r) = 3 - a^2 - a^2(1+a^2) cos^2 r, with V = P/Q, U = sqrt(V),
    f = f_const * P and w = D sin r / U.
    """

    a: float
    f_const: float
    C: float
    D: float

    @property
    def a2(self) -> float:
        return self.a * self.a

    @property
    def s(self) -> float:
        """Scalar curvature 12(1 + a^2)."""
        return 12.0 * (1.0 + self.a2)

    @property
    def shift(self) -> float:
        """Jacobi shift s/4 = 3(1 + a^2)."""
        return 3.0 * (1.0 + self.a2)

    def ambient(self) -> EinsteinAmbient:
        return EinsteinAmbient(n=4, s=self.s, validity="hypersurface", name="Page space")

    def PQ(self, r: float) -> tuple[float, float]:
        """(P(r), Q(r)) from one cos r and one a^2."""
        c = math.cos(r)
        a2 = self.a * self.a
        return 1.0 - a2 * c * c, 3.0 - a2 - a2 * (1.0 + a2) * c * c

    def P(self, r: float) -> float:
        return self.PQ(r)[0]

    def Q(self, r: float) -> float:
        return self.PQ(r)[1]

    def V(self, r: float) -> float:
        P, Q = self.PQ(r)
        return P / Q

    def U(self, r: float) -> float:
        return math.sqrt(self.V(r))

    def f(self, r: float) -> float:
        return self.f_const * self.P(r)

    def w(self, r: float) -> float:
        return self.D * math.sin(r) / self.U(r)

    def x(self, r: float) -> float:
        """Squash coordinate t^{-3} = f U^2 / (D^2 sin^2 r)."""
        s = math.sin(r)
        return self.f(r) * self.V(r) / (self.D * self.D * s * s)

    def t(self, r: float) -> float:
        """Squash parameter U^{-2/3} (D sin r)^{2/3} f^{-1/3}."""
        return (
            self.U(r) ** (-2.0 / 3.0)
            * (self.D * math.sin(r)) ** (2.0 / 3.0)
            * self.f(r) ** (-1.0 / 3.0)
        )

    @functools.cached_property
    def root_brackets(self) -> tuple[tuple[float, float], ...]:
        """Grid brackets of the zeros of page_shifted_lambda1, in ascending order.

        The grid is k * ROOT_SCAN_STEP for k = 1..1023.  A grid point where
        the value is exactly zero gives the bracket (r, r); a sign change
        between neighbouring points gives (r_lo, r_hi).  The scan runs on
        first use and is kept with this object, so it is repeated only for
        a new constants object.
        """
        grid = [k * ROOT_SCAN_STEP for k in range(1, 1024)]
        values = [page_shifted_lambda1(r, self) for r in grid]
        brackets: list[tuple[float, float]] = []
        for (r_lo, v_lo), (r_hi, v_hi) in zip(zip(grid, values), zip(grid[1:], values[1:])):
            if v_lo == 0.0:
                brackets.append((r_lo, r_lo))
            elif (v_lo > 0) != (v_hi > 0):
                brackets.append((r_lo, r_hi))
        if values[-1] == 0.0:
            brackets.append((grid[-1], grid[-1]))
        return tuple(brackets)

    def validate(self) -> None:
        """Check every load-time anchor; raise PageConfigError on failure."""
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
        try:
            values[key.strip()] = float(rhs.strip())
        except ValueError:
            raise PageConfigError(f"line {lineno}: not a decimal: {rhs.strip()!r}") from None
    return values


def page_constants(path: str | None = None, strict: bool = True) -> PageConstants:
    """Load the coefficient transcription, verifying its anchors.

    With strict=False the anchor checks are skipped; that mode exists for
    negative-control tests that deliberately corrupt a constant.  A file
    that cannot be opened or decoded is a PageConfigError naming the path.
    """
    if path is None:
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
    if strict:
        consts.validate()
    return consts


@functools.cache
def _default_constants() -> PageConstants:
    return page_constants()


def _check_domain(r: float) -> None:
    if not 0.0 < r < math.pi:
        raise ValueError(f"slice parameter must lie in (0, pi), got {r!r}")


def page_slice(r: float, constants: PageConstants | None = None) -> SliceGeometry:
    """The totally geodesic Berger sphere at parameter r in (0, pi)."""
    _check_domain(r)
    c = constants or _default_constants()
    return SliceGeometry(r=r, f=c.f(r), w=c.w(r), ambient=c.ambient())


def page_shifted_lambda1(r: float, constants: PageConstants | None = None) -> float:
    """First-branch shifted eigenvalue 2 f^{-1} + U^2 D^{-2} sin^{-2} r - 3(1+a^2).

    On the region where the squash coordinate x = t^{-3} stays below 6
    (which contains everything between the two sign changes) this is the
    smallest nonzero Jacobi eigenvalue of the slice; elsewhere it is the
    continuation of that same branch.  It blows up at both ends of (0, pi)
    and crosses zero exactly twice.
    """
    _check_domain(r)
    c = constants or _default_constants()
    P, Q = c.PQ(r)
    s = math.sin(r)
    return 2.0 / (c.f_const * P) + P / Q / (c.D * c.D * s * s) - c.shift


def page_x(r: float, constants: PageConstants | None = None) -> float:
    """Squash coordinate x = t^{-3} of the slice at r."""
    _check_domain(r)
    return (constants or _default_constants()).x(r)


def page_transition_roots(
    tol: float = 1e-6, constants: PageConstants | None = None
) -> tuple[float, float]:
    """The two zeros of the shifted first eigenvalue in (0, pi).

    Scans a fixed grid of step pi/1024 for sign changes and bisects each
    bracket to width `tol`.  The scan does not depend on `tol`: it runs
    once per constants object (`PageConstants.root_brackets`), so the
    packaged constants are scanned once per process, and each call only
    bisects.  Finding any number of roots other than two means the
    coefficient transcription is structurally wrong, and is an error
    rather than a value, on every call.
    """
    _check_positive(tol, "tolerance")
    c = constants or _default_constants()
    brackets = c.root_brackets
    if len(brackets) != 2:
        raise PageStructureError(
            f"expected exactly 2 sign changes of the shifted first eigenvalue, found {len(brackets)}"
        )

    def fn(r: float) -> float:
        return page_shifted_lambda1(r, c)

    r1, r2 = (lo if lo == hi else find_root_bisection(fn, lo, hi, tol) for lo, hi in brackets)
    return r1, r2


def page_index_nullity(
    r: float,
    depth: int = DEFAULT_DEPTH,
    zero_tolerance: float | None = None,
    constants: PageConstants | None = None,
) -> IndexNullityReport:
    """Strict Jacobi index/nullity of the slice at r.

    At a transition root pass a zero_tolerance matched to the root
    certificate (slope times bisection tolerance), since the default
    1e-9-scale tolerance is far below the achievable eigenvalue residual
    there.  When null modes are present the report carries a note that
    strict counting assigns them to the nullity, not the index.
    """
    geom = page_slice(r, constants)
    report = slice_index_nullity(geom, depth, zero_tolerance)
    if report.nullity > 0:
        note = (
            "transition point: strict counting reports the near-zero modes "
            "as nullity, not index"
        )
        report = replace(report, notes=report.notes + (note,))
    return report
