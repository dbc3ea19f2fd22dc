"""Berger-sphere slices of Einstein 4-manifolds.

A slice here is a 3-sphere carrying a left-invariant metric
f (sigma_1^2 + sigma_2^2) + (f / x) sigma_3^2 inside an Einstein ambient,
stored as the float f and the exact squash coordinate x.  Dividing by
the volume factor mu = f t turns it into the unit-volume Berger metric
g_B^t with t = x^{-1/3}, so the slice Laplace spectrum is
t (A + B x) / mu = (A + B x) / f per branch.

The family implemented in this module is the geodesic spheres of the
complex projective plane (f = r^2/(1+r^2), x = 1 + r^2, shift s/n from
`CP2_AMBIENT`); the Page family lives in `page`.  Every family builds a
SliceGeometry, and `slice_spectrum` and `slice_index_nullity` serve them
all.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from fractions import Fraction

from .berger import (  # noqa: F401  (spectrum_with_multiplicity: bench/tracing.py wraps it here)
    SpectrumEntry,
    _as_positive_fraction,
    _check_count,
    _check_positive,
    _known_mode,
    _modes,
    _multiplicity,
    _Record,
    spectrum_with_multiplicity,
    tanno_lambda1,
)
from .jacobi import (  # noqa: F401  (index_nullity, jacobi_spectrum: bench/tracing.py wraps them here)
    EinsteinAmbient,
    IndexNullityReport,
    _count_index_nullity,
    index_nullity,
    jacobi_shift,
    jacobi_spectrum,
)

CP2_AMBIENT = EinsteinAmbient(n=4, s=6.0, validity="hypersurface", name="CP^2")

DEFAULT_DEPTH = 25


class SliceGeometry(_Record):
    """One slice f (sigma_1^2 + sigma_2^2) + (f / x) sigma_3^2 at parameter r, with x = t^{-3} exact."""

    _fields = ("r", "f", "x", "ambient")

    def __init__(self, r: float, f: float, x: Fraction, ambient: EinsteinAmbient) -> None:
        # a Fraction is finite, and its sign is its numerator's
        if not (0 < f < math.inf and x.numerator > 0):
            name, value = ("x", x) if 0 < f < math.inf else ("f", f)
            raise ValueError(
                f"slice parameter r = {r!r} is out of range: "
                f"coefficient {name} = {value!r} is not finite and positive"
            )
        self.__dict__.update(r=r, f=f, x=x, ambient=ambient)

    @property
    def t(self) -> float:
        """Berger squash parameter x^{-1/3} of the unit-volume normalization."""
        n, d = self.x.numerator, self.x.denominator
        k = max(0, (n.bit_length() - d.bit_length()) // 3)  # float(x) may overflow; x / 8^k < 16 cannot
        return math.ldexp((n / (d << 3 * k)) ** (-1.0 / 3.0), -k)

    @property
    def mu(self) -> float:
        """Volume normalization factor f t."""
        return self.f * self.t


def slice_spectrum(geom: SliceGeometry, depth: int = DEFAULT_DEPTH) -> list[SpectrumEntry]:
    """First `depth` distinct Laplace eigenvalues of the slice metric.

    Branch values are grouped exactly in the coordinate A + B x before the
    single division by f, so equal eigenvalues merge with summed
    multiplicities and no floating-point tolerance is involved.  One pass
    reads `_slice_merge`'s modes: a value's first mode opens its entry, with
    value n / Q / f and that mode as source, so the constant eigenvalue has
    source Mode(0, 0), and every mode of the value adds its multiplicity.
    """
    modes, Q, f, _ = _slice_merge(geom, depth, 0.0)
    entries = []
    last = -1
    for n, k, q in modes:
        if n != last:
            last = n
            entry = [n / Q / f, 0, _known_mode(k, q)]
            entries.append(entry)
        entry[1] += _multiplicity((k, q))
    return [SpectrumEntry(*entry) for entry in entries]


def _slice_merge(geom: SliceGeometry, depth: int, shift: float) -> tuple:
    """`_modes(P, Q, depth)` at the slice's x = P/Q, with Q, f and the last shifted value.

    Mode (n, k, q) has value n / Q / f - shift.  The float n / Q of two
    ints is correctly rounded, and so are / f and - shift, so the values
    ascend as the numerators do.  A last value that is not finite (f near
    the float range's bottom) is a domain error naming r: an inf bound
    would pass certification.
    """
    _check_count(depth, "depth")
    Q, f = geom.x.denominator, geom.f
    modes = _modes(geom.x.numerator, Q, depth)
    bound = modes[-1][0] / Q / f - shift
    if not math.isfinite(bound):
        raise ValueError(
            f"slice parameter r = {geom.r!r} is out of range: "
            f"shifted eigenvalue {bound!r} is not finite at depth {depth}"
        )
    return modes, Q, f, bound


def slice_index_nullity(
    geom: SliceGeometry,
    depth: int = DEFAULT_DEPTH,
    zero_tolerance: float | None = None,
) -> IndexNullityReport:
    """Index and nullity of the slice's Jacobi operator, strict counts.

    The report, or the ValueError, is the one index_nullity gives for
    jacobi_spectrum(slice_spectrum(geom, depth), shift), at the cost of
    one integer merge of `depth` distinct values (`_modes`) plus the values
    the report prints, read from its modes: the counted prefix and the next
    mode, the second (n = 0 is the constant mode's alone) and the last, the
    truncation bound.  Only counted modes give a multiplicity, summed per
    value, and null modes give the report the counter's strict-counting
    note.  The modes ascend from the zero eigenvalue, so the values do
    too, and neither is re-checked here.
    """
    shift = jacobi_shift(geom.ambient)
    if zero_tolerance is None:
        zero_tolerance = 1e-9 * max(1.0, abs(shift))
    modes, Q, f, bound = _slice_merge(geom, depth, shift)
    _check_positive(zero_tolerance, "zero_tolerance")
    first = modes[1][0] / Q / f - shift if len(modes) > 1 else None
    report = _count_index_nullity(
        ((n, n / Q / f - shift, (k, q)) for n, k, q in modes), _multiplicity, zero_tolerance, shift,
        parameter=geom.r, truncation_bound=bound, first_shifted=first,
    )
    if bound <= zero_tolerance:
        raise ValueError(
            f"depth {depth} does not reach past the shift {shift}; "
            "increase depth so the index count is certified complete"
        )
    return report


def cp2_slice(r: float) -> SliceGeometry:
    """Geodesic sphere of radius parameter r in the complex projective plane."""
    _check_positive(r, "radius")
    r2 = r * r
    if r2 == 0.0 or r2 == math.inf:
        fault = "underflows to 0" if r2 == 0.0 else "overflows a float"
        raise ValueError(f"slice parameter r = {r!r} is out of range: r^2 {fault}")
    n, d = r.as_integer_ratio()  # x = 1 + r^2 = (n^2 + d^2) / d^2, in lowest terms
    x = Fraction(n * n + d * d, d * d)
    return SliceGeometry(r=r, f=r2 / (1.0 + r2), x=x, ambient=CP2_AMBIENT)


def cp2_lambda1(r: float) -> float:
    """First nonzero Laplace eigenvalue of the geodesic sphere at radius r.

    Computed through the normalization pipeline (Tanno's first eigenvalue
    of g_B^t, unscaled by mu); algebraically this is
    (3 + r^2)(1 + r^2)/r^2 for r <= sqrt(5) and 8(1 + r^2)/r^2 beyond.
    """
    geom = cp2_slice(r)
    t = geom.t  # one cube root: mu = f t
    value = tanno_lambda1(t) / (geom.f * t)
    if value == math.inf:  # about 3 / f: it overflows for r below about 1.3e-154
        raise ValueError(f"radius r = {r!r} is too small: lambda_1 = {value!r} overflows")
    return value


def cp2_lambda1_exact(r_squared: Fraction) -> Fraction:
    """Closed form of cp2_lambda1 as an exact rational in r^2."""
    r2 = _as_positive_fraction(r_squared, "r^2")
    if r2 <= 5:
        return (3 + r2) * (1 + r2) / r2
    return 8 * (1 + r2) / r2


def cp2_index_nullity(r: float, depth: int = DEFAULT_DEPTH) -> IndexNullityReport:
    """Jacobi index and nullity of the geodesic sphere at radius r."""
    return slice_index_nullity(cp2_slice(r), depth)


def find_root_bisection(
    fn: Callable[[float], float], lo: float, hi: float, tol: float
) -> float:
    """Bisection root of fn on [lo, hi] to interval width tol.

    Requires a strict sign change between finite endpoint values.
    """
    _check_positive(tol, "tolerance")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo!r}, {hi!r}]")
    flo, fhi = fn(lo), fn(hi)
    if not (math.isfinite(flo) and math.isfinite(fhi)):
        raise ValueError(f"endpoint values must be finite, got f(lo)={flo!r}, f(hi)={fhi!r}")
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise ValueError(f"no sign change on [{lo!r}, {hi!r}]: f(lo)={flo!r}, f(hi)={fhi!r}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # interval at floating-point resolution
        fmid = fn(mid)
        if not math.isfinite(fmid):
            raise ValueError(f"non-finite value f({mid!r})={fmid!r} during bisection")
        if fmid == 0.0:
            return mid
        if (fmid > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
