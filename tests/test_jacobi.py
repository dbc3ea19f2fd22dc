import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergerspec.berger import SpectrumEntry, scale_spectrum
from bergerspec.jacobi import (
    EinsteinAmbient,
    RicPerpUnsupportedError,
    adjunction_genus,
    complex_curve_index_nullity,
    index_nullity,
    is_unstable,
    jacobi_shift,
    jacobi_spectrum,
)
from oracles import full_count

CP2 = EinsteinAmbient(n=4, s=6.0, validity="hypersurface", name="CP^2")
PAGE_S = 12.952268
PAGE = EinsteinAmbient(n=4, s=PAGE_S, validity="hypersurface", name="Page")


def test_shift_values():
    assert jacobi_shift(CP2) == 1.5
    assert jacobi_shift(PAGE) == pytest.approx(3.238, abs=1e-3)
    flat = EinsteinAmbient(n=4, s=0.0, validity="hypersurface")
    assert jacobi_shift(flat) == 0.0


def test_shift_rejects_general_ambient():
    amb = EinsteinAmbient(n=5, s=10.0, validity="general", name="generic")
    with pytest.raises(RicPerpUnsupportedError):
        jacobi_shift(amb)


def test_ambient_validation():
    with pytest.raises(ValueError, match=r"^ambient dimension must be a positive integer, got 0$"):
        EinsteinAmbient(n=0, s=1.0, validity="hypersurface")
    with pytest.raises(ValueError):
        EinsteinAmbient(n=4, s=1.0, validity="nonsense")


# 10**5000 has more digits than the default int-to-str limit; 2^1024 - 2^970 is
# the least int that float() rounds past the largest float, 2^1024 - 2^971
@pytest.mark.parametrize("n", [10**400, 10**5000, (1 << 1024) - (1 << 970)], ids=["1e400", "1e5000", "halfway"])
def test_ambient_dimension_past_the_float_range_is_refused(n):
    message = f"ambient dimension must convert to a float, got {n.bit_length()} bits"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        EinsteinAmbient(n, 6.0, "hypersurface")
    big = EinsteinAmbient((1 << 1024) - (1 << 971), 6.0, "hypersurface")
    assert 0 < jacobi_shift(big) < 1e-300
    assert is_unstable(big).certificate == -jacobi_shift(big)


def test_jacobi_spectrum_shift():
    spec = [SpectrumEntry(0.0, 1), SpectrumEntry(3.0, 9)]
    out = jacobi_spectrum(spec, 1.5)
    assert [(e.value, e.multiplicity) for e in out] == [(-1.5, 1), (1.5, 9)]
    # shift zero is the identity
    out = jacobi_spectrum(spec, 0.0)
    assert [e.value for e in out] == [0.0, 3.0]


def test_jacobi_spectrum_validation():
    with pytest.raises(ValueError):
        jacobi_spectrum([SpectrumEntry(3.0, 1), SpectrumEntry(0.0, 1)], 1.0)
    with pytest.raises(ValueError):
        jacobi_spectrum([SpectrumEntry(1.0, 1), SpectrumEntry(2.0, 1)], 1.0)


def test_jacobi_spectrum_refuses_a_nan_among_its_values():
    # each value must be at most the next, so a NaN cannot hide disorder as it can from sorted()
    nan = float("nan")
    for values in ([1.0, nan, 0.0], [0.0, nan, 1.0]):
        with pytest.raises(ValueError, match="^laplace spectrum must be sorted ascending$"):
            jacobi_spectrum([SpectrumEntry(v, 1) for v in values], 1.5)


def test_index_nullity_counting():
    rep = index_nullity([SpectrumEntry(-1.5, 1), SpectrumEntry(6.5, 4)], 1e-9)
    assert (rep.index, rep.nullity) == (1, 0)

    rep = index_nullity(
        [SpectrumEntry(-1.5, 1), SpectrumEntry(0.0, 4), SpectrumEntry(7.0, 3)], 1e-9
    )
    assert (rep.index, rep.nullity) == (1, 4)

    rep = index_nullity([SpectrumEntry(0.0, 1)], 1e-9)
    assert (rep.index, rep.nullity) == (0, 1)


STRICT_NOTE = "strict counting reports the near-zero modes as nullity, not index"


def test_a_report_with_null_modes_carries_the_strict_counting_note():
    assert index_nullity([SpectrumEntry(0.0, 1)], 1e-9).notes == (STRICT_NOTE,)
    # a mode just below zero, within the tolerance, is null too, and noted
    rep = index_nullity([SpectrumEntry(-1.5, 1), SpectrumEntry(-1e-12, 4), SpectrumEntry(7.0, 3)], 1e-9)
    assert (rep.index, rep.nullity, rep.notes) == (1, 4, (STRICT_NOTE,))
    rep = index_nullity([SpectrumEntry(-1.5, 1), SpectrumEntry(6.5, 4)], 1e-9)
    assert (rep.nullity, rep.notes) == (0, ())


def test_index_nullity_report_fields():
    rep = index_nullity(
        [SpectrumEntry(-1.5, 1), SpectrumEntry(6.5, 4)],
        1e-9,
        parameter=1.0,
        shift=1.5,
    )
    assert rep.parameter == 1.0
    assert rep.zero_tolerance == 1e-9
    assert rep.truncation_bound == 6.5
    assert rep.witnesses == ((0.0, 1, -1.5),)
    assert rep.first_shifted == 6.5
    assert index_nullity([SpectrumEntry(-1.5, 1)], 1e-9).first_shifted is None


def test_index_nullity_validation():
    with pytest.raises(ValueError):
        index_nullity([], 1e-9)
    # a NaN tolerance would count nothing, an inf one everything as null
    for tol in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="zero_tolerance"):
            index_nullity([SpectrumEntry(0.0, 1)], tol)
    with pytest.raises(ValueError):
        index_nullity([SpectrumEntry(2.0, 1), SpectrumEntry(-1.0, 1)], 1e-9)


def test_index_nullity_refuses_a_nan_among_its_values():
    # the count stops at the first value above the tolerance, so a NaN that
    # hides an unsorted spectrum from sorted() is refused, not skipped
    nan = float("nan")
    for values in ([-1.0, nan, -0.5], [5.0, nan, -1.0], [nan, 0.0], [0.0, nan]):
        with pytest.raises(ValueError, match="sorted ascending"):
            index_nullity([SpectrumEntry(v, 1) for v in values], 1e-9)
    rep = index_nullity([SpectrumEntry(nan, 3)], 1e-9)  # alone it is in order, and not counted
    assert (rep.index, rep.nullity, rep.witnesses) == (0, 0, ())


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(st.floats(min_value=-4.0, max_value=4.0), min_size=1, max_size=12),
    multiplicities=st.lists(st.integers(min_value=1, max_value=9), min_size=12, max_size=12),
    zero_tolerance=st.floats(min_value=1e-12, max_value=2.0),
    shift=st.floats(min_value=-3.0, max_value=3.0),
)
def test_index_nullity_matches_a_count_over_every_entry(values, multiplicities, zero_tolerance, shift):
    jacobi = [SpectrumEntry(v, m) for v, m in zip(sorted(values), multiplicities)]
    rep = index_nullity(jacobi, zero_tolerance, shift=shift)
    assert repr((rep.index, rep.nullity, rep.witnesses)) == repr(full_count(jacobi, zero_tolerance, shift))


def test_is_unstable():
    verdict = is_unstable(CP2)
    assert verdict and verdict.unstable
    assert verdict.certificate == -1.5

    verdict = is_unstable(PAGE)
    assert verdict.unstable
    assert verdict.certificate == pytest.approx(-PAGE_S / 4)

    quiet = is_unstable(EinsteinAmbient(n=4, s=-4.0, validity="hypersurface"))
    assert not quiet
    assert quiet.certificate is None
    assert quiet.note == "not implied"


def test_adjunction_genus():
    assert adjunction_genus(1, 3) == 0
    assert adjunction_genus(4, 6) == 0
    assert adjunction_genus(9, 9) == 1
    for d in range(1, 7):
        assert adjunction_genus(d * d, 3 * d) == (d - 1) * (d - 2) // 2
    with pytest.raises(ValueError):
        adjunction_genus(1, 2)  # odd right-hand side
    with pytest.raises(ValueError):
        adjunction_genus(0, 6)  # genus would be negative


def test_complex_curve_table():
    assert complex_curve_index_nullity("degree-1") == (0, 1)
    assert complex_curve_index_nullity("degree-2") == (0, 4)
    assert complex_curve_index_nullity("linear") == (0, 1)
    with pytest.raises(ValueError):
        complex_curve_index_nullity("degree-3")


@settings(max_examples=50, deadline=None)
@given(
    s=st.floats(min_value=0.1, max_value=100.0),
    n=st.integers(min_value=2, max_value=8),
    tail=st.lists(st.floats(min_value=0.5, max_value=50.0), min_size=1, max_size=6),
)
def test_positive_scalar_curvature_forces_index(s, n, tail):
    """Any Laplace spectrum containing 0 once gives index >= 1 when s > 0."""
    amb = EinsteinAmbient(n=n, s=s, validity="constant-curvature")
    verdict = is_unstable(amb)
    assert verdict.unstable
    shift = jacobi_shift(amb)
    values = sorted(tail)
    spec = [SpectrumEntry(0.0, 1)] + [SpectrumEntry(shift + v, 2) for v in values]
    rep = index_nullity(jacobi_spectrum(spec, shift), 1e-9)
    assert rep.index >= 1


@settings(max_examples=50, deadline=None)
@given(
    shift=st.floats(min_value=-5.0, max_value=5.0),
    mu=st.sampled_from([0.25, 1.0, 4.0, 10.0]),
    gaps=st.lists(
        st.floats(min_value=0.2, max_value=9.0), min_size=1, max_size=8
    ),
)
def test_counting_is_scale_invariant(shift, mu, gaps):
    """Index/nullity from (S, c) match those from (S/mu, c/mu)."""
    values = [0.0]
    for g in gaps:
        values.append(values[-1] + g)
    # keep every eigenvalue clearly away from the shift so tolerance
    # boundaries cannot flip a count between the two scalings
    if any(abs(v - shift) < 1e-2 for v in values):
        shift += 0.05
        if any(abs(v - shift) < 1e-2 for v in values):
            return
    spec = [SpectrumEntry(v, 1 + (i % 3)) for i, v in enumerate(values)]
    base = index_nullity(jacobi_spectrum(spec, shift), 1e-9)
    scaled = index_nullity(
        jacobi_spectrum(
            [SpectrumEntry(e.value / mu, e.multiplicity, e.source) for e in spec],
            shift / mu,
        ),
        1e-9,
    )
    assert (base.index, base.nullity) == (scaled.index, scaled.nullity)


def test_scale_spectrum_preserves_zero():
    spec = [SpectrumEntry(0.0, 1), SpectrumEntry(2.0, 3)]
    for mu in (0.25, 1.0, 4.0, 10.0):
        out = scale_spectrum(spec, mu)
        assert out[0].value == 0.0
        assert out[1].value == 2.0 / mu
        assert math.isfinite(out[1].value)
