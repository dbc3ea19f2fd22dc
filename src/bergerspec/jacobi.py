"""Jacobi operators of totally geodesic submanifolds of Einstein spaces.

For a totally geodesic hypersurface M of an Einstein manifold with scalar
curvature s and dimension n, the second variation of volume is governed by
J = Delta_M - (s/n) I, so the Jacobi spectrum is the Laplace spectrum
shifted down by s/n.  The same holds in higher codimension when the
ambient has constant curvature.  All spectra here use the positive
Laplacian convention, so Jacobi eigenvalues are lambda_k - s/n.

Index and nullity are strict counts: eigenvalues below -tol and within
tol of zero respectively.  Reports carry the witnesses and the largest
value seen, so a truncated spectrum certifies its own completeness
(anything unseen lies above the truncation bound).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable

from .berger import SpectrumEntry, _check_count, _check_positive, _Record

_SUPPORTED_VALIDITY = ("hypersurface", "constant-curvature")


class RicPerpUnsupportedError(ValueError):
    """Normal Ricci curvature is not computed outside the two shift cases."""


class EinsteinAmbient(_Record):
    """An Einstein ambient space, carrying just what the shift needs."""

    _fields = ("n", "s", "validity", "name")

    def __init__(self, n: int, s: float, validity: str, name: str = "") -> None:
        _check_count(n, "ambient dimension")
        try:
            float(n)  # the shift s/n converts n; n is named by its size: its digits may not print
        except OverflowError:
            raise ValueError(f"ambient dimension must convert to a float, got {n.bit_length()} bits") from None
        if not math.isfinite(s):  # a NaN or infinite shift has no sign and no index
            raise ValueError(f"ambient scalar curvature s must be finite, got {s!r}")
        if validity not in _SUPPORTED_VALIDITY + ("general",):
            raise ValueError(
                f"validity must be one of {_SUPPORTED_VALIDITY + ('general',)}, got {validity!r}"
            )
        self.__dict__.update(n=n, s=s, validity=validity, name=name)


def jacobi_shift(ambient: EinsteinAmbient) -> float:
    """The spectral shift s/n of the Jacobi operator.

    Only the hypersurface and constant-curvature cases reduce the normal
    Ricci term to s/n; anything else is refused rather than guessed.
    """
    if ambient.validity not in _SUPPORTED_VALIDITY:
        raise RicPerpUnsupportedError(
            f"Ric_perp unsupported for ambient {ambient.name or ambient.validity!r}: "
            "the s/n shift needs a hypersurface or a constant-curvature ambient"
        )
    return ambient.s / ambient.n


def _check_ascending(values: list[float], what: str) -> None:
    """Refuse `values` unless each is at most the next, so a NaN among two or more fails."""
    if not all(a <= b for a, b in zip(values, values[1:])):
        raise ValueError(f"{what} must be sorted ascending")


def jacobi_spectrum(laplace: list[SpectrumEntry], shift: float) -> list[SpectrumEntry]:
    """Shift a Laplace spectrum down by `shift`, preserving order and sources.

    The values must ascend, each at most the next, and include zero.
    """
    values = [e.value for e in laplace]
    _check_ascending(values, "laplace spectrum")
    if not any(v == 0 for v in values):
        raise ValueError("laplace spectrum must contain the zero eigenvalue")
    return [SpectrumEntry(e.value - shift, e.multiplicity, e.source) for e in laplace]


class IndexNullityReport(_Record):
    """Strict index/nullity counts with their witnesses.

    witnesses lists (eigenvalue, multiplicity, shifted value) for every
    entry counted in the index or the nullity.  truncation_bound is the
    largest shifted value present in the input, certifying that no entry
    below it was missed by truncation.  first_shifted is the second
    entry's shifted value: for distinct eigenvalues starting at zero, as
    slice spectra are, the first nonzero eigenvalue minus the shift (None
    for a one-entry spectrum).
    """

    _fields = (
        "parameter", "index", "nullity", "witnesses",
        "zero_tolerance", "truncation_bound", "notes", "first_shifted",
    )

    def __init__(
        self,
        parameter: float,
        index: int,
        nullity: int,
        witnesses: tuple[tuple[float, int, float], ...],
        zero_tolerance: float,
        truncation_bound: float,
        notes: tuple[str, ...] = (),
        first_shifted: float | None = None,
    ) -> None:
        self.__dict__.update(
            parameter=parameter, index=index, nullity=nullity, witnesses=witnesses,
            zero_tolerance=zero_tolerance, truncation_bound=truncation_bound,
            notes=notes, first_shifted=first_shifted,
        )


def index_nullity(
    jacobi: list[SpectrumEntry],
    zero_tolerance: float,
    *,
    parameter: float = 0.0,
    shift: float = 0.0,
) -> IndexNullityReport:
    """Count negative and zero Jacobi eigenvalues with multiplicity.

    `jacobi` holds the shifted values, ascending; a NaN among two or more
    of them has no place in that order and is refused with it.  The
    optional `shift` is used only to reconstruct the unshifted eigenvalue
    column of the witnesses; pass the ambient's s/n when available.  Null
    modes give the report the strict-counting note.
    """
    values = [e.value for e in jacobi]
    _check_positive(zero_tolerance, "zero_tolerance")
    if not values:
        raise ValueError("empty Jacobi spectrum")
    _check_ascending(values, "Jacobi spectrum")
    return _count_index_nullity(
        zip(range(len(values)), values, jacobi), lambda e: e.multiplicity, zero_tolerance, shift,
        parameter=parameter, truncation_bound=values[-1], first_shifted=values[1] if len(values) > 1 else None,
    )


def _count_index_nullity(
    entries: Iterable[tuple], multiplicity: Callable[..., int], zero_tolerance: float, shift: float, **report
) -> IndexNullityReport:
    """The report on `entries`, triples (key, shifted value, item) whose values ascend.

    The one counting loop of index_nullity and slice_index_nullity; each
    checks its input first and passes the report's other fields.  Adjacent
    entries with one key are one eigenvalue: one witness, multiplicities
    summed.  The count stops at the first value not within zero_tolerance
    from above, so no later entry is read, and `multiplicity(item)` is
    taken only for a counted entry.  Null modes, those just below zero
    included, give the report the note that strict counting makes them
    nullity, not index.
    """
    index = nullity = 0
    witnesses: list[tuple[float, int, float]] = []
    last = None
    for key, shifted, item in entries:
        if not shifted <= zero_tolerance:
            break
        mult = multiplicity(item)
        if shifted < -zero_tolerance:
            index += mult
        else:
            nullity += mult
        if key == last:  # another mode of the last witness's eigenvalue
            mult += witnesses.pop()[1]
        last = key
        witnesses.append((shifted + shift, mult, shifted))
    notes = ("strict counting reports the near-zero modes as nullity, not index",) if nullity else ()
    return IndexNullityReport(
        index=index, nullity=nullity, witnesses=tuple(witnesses), zero_tolerance=zero_tolerance, notes=notes, **report
    )


class InstabilityVerdict(_Record):
    """Outcome of the instability criterion, with its certificate."""

    _fields = ("unstable", "certificate", "note")

    def __init__(self, unstable: bool, certificate: float | None, note: str) -> None:
        self.__dict__.update(unstable=unstable, certificate=certificate, note=note)

    def __bool__(self) -> bool:
        return self.unstable


def is_unstable(ambient: EinsteinAmbient) -> InstabilityVerdict:
    """Instability of a closed totally geodesic slice from positive s.

    The constant function is always a Jacobi eigenfunction with eigenvalue
    -s/n (the zero Laplace eigenvalue has multiplicity one), which is
    negative exactly when s > 0.  For s <= 0 the criterion is silent.
    """
    shift = jacobi_shift(ambient)
    if ambient.s > 0:
        return InstabilityVerdict(
            unstable=True,
            certificate=-shift,
            note="constant function has Jacobi eigenvalue -s/n < 0 (multiplicity 1)",
        )
    return InstabilityVerdict(unstable=False, certificate=None, note="not implied")


def adjunction_genus(C_self: int, c1_dot_C: int) -> int:
    """Genus from the adjunction formula 2g - 2 = [C]^2 - c1.[C]."""
    rhs = C_self - c1_dot_C
    if rhs % 2 != 0:
        raise ValueError(
            f"adjunction parity violated: [C]^2 - c1.[C] = {rhs} must be even"
        )
    g = (rhs + 2) // 2
    if g < 0:
        raise ValueError(f"adjunction gives negative genus {g}")
    return g


_COMPLEX_CURVE_TABLE = {
    "degree-1": (0, 1),
    "degree-2": (0, 4),
    "linear": (0, 1),
}


def complex_curve_index_nullity(case: str) -> tuple[int, int]:
    """Index and nullity of the classical complex-submanifold cases.

    degree-1 and degree-2 are the rational curves in the complex
    projective plane; "linear" is the totally geodesic hyperplane
    CP(n-1) in CP(n).  These counts are recorded results, not re-derived.
    """
    try:
        return _COMPLEX_CURVE_TABLE[case]
    except KeyError:
        raise ValueError(
            f"unknown case {case!r}; expected one of {sorted(_COMPLEX_CURVE_TABLE)}"
        ) from None
