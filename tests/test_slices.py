import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bergerspec import berger, cli, page, slices
from bergerspec.berger import Mode, _modes, _multiplicity, distinct_spectrum_at, tanno_lambda1
from bergerspec.jacobi import EinsteinAmbient, IndexNullityReport, index_nullity, jacobi_shift, jacobi_spectrum
from bergerspec.page import page_constants, page_slice, page_transition_roots
from bergerspec.slices import (
    SliceGeometry,
    cp2_index_nullity,
    cp2_lambda1,
    cp2_lambda1_exact,
    cp2_slice,
    find_root_bisection,
    slice_index_nullity,
    slice_spectrum,
)
from oracles import full_count, mode_multiplicity, synthetic_slice, w2


def test_cp2_slice_at_one():
    g = cp2_slice(1.0)
    assert g.f == pytest.approx(0.5, rel=1e-15)
    assert w2(g) == pytest.approx(0.25, rel=1e-15)
    assert g.mu == pytest.approx(2 ** (-4 / 3), rel=1e-14)
    assert g.t == pytest.approx(2 ** (-1 / 3), rel=1e-14)
    assert g.x == pytest.approx(2.0, rel=1e-14)


def test_cp2_slice_squash_map():
    for r in (0.3, 1.7, 4.0):
        g = cp2_slice(r)
        assert g.x == pytest.approx(1 + r * r, rel=1e-13)
        assert g.t == pytest.approx((1 + r * r) ** (-1 / 3), rel=1e-13)
    # the Tanno branch point sits at r = sqrt(5)
    assert cp2_slice(math.sqrt(5.0)).x == pytest.approx(6.0, rel=1e-13)


def test_cp2_slice_validation():
    with pytest.raises(ValueError):
        cp2_slice(0.0)
    with pytest.raises(ValueError):
        cp2_slice(-1.0)
    with pytest.raises(ValueError):
        cp2_slice(float("nan"))


@pytest.mark.parametrize(
    "r, fault",
    [
        (1e200, "overflows a float"),
        (1.35e154, "overflows a float"),
        (1e-200, "underflows to 0"),
        (1.5e-162, "underflows to 0"),
    ],
)
def test_cp2_radius_whose_square_leaves_the_floats_is_named(r, fault):
    # r * r is tested before f or x is built from it, so no nan or 0.0 coefficient is reported
    message = f"slice parameter r = {r!r} is out of range: r^2 {fault}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cp2_slice(r)
    assert cp2_slice(1.34e154).x > 1 and cp2_slice(1.6e-162).x > 1  # the radii just inside still build


def test_cp2_lambda1_values():
    assert cp2_lambda1(1.0) == pytest.approx(8.0, rel=1e-12)
    assert cp2_lambda1(math.sqrt(5.0)) == pytest.approx(9.6, rel=1e-12)
    assert cp2_lambda1(3.0) == pytest.approx(80.0 / 9.0, rel=1e-12)
    # mu = f t with t = x^{-1/3}: nothing underflows while lambda_1 is a finite float
    for r in (1e-107, 1e-120, 1e-150):
        assert cp2_lambda1(r) == pytest.approx(float(cp2_lambda1_exact(Fraction(r) ** 2)), rel=1e-12)
    with pytest.raises(ValueError, match=r"^radius r = 1e-160 is too small: lambda_1 = inf overflows$"):
        cp2_lambda1(1e-160)


def test_cp2_lambda1_exact_rationals():
    assert cp2_lambda1_exact(Fraction(1)) == 8
    assert cp2_lambda1_exact(Fraction(5)) == Fraction(48, 5)
    assert cp2_lambda1_exact(Fraction(9)) == Fraction(80, 9)
    # both closed forms meet at r^2 = 5
    assert (3 + Fraction(5)) * (1 + Fraction(5)) / 5 == 8 * (1 + Fraction(5)) / 5
    with pytest.raises(ValueError):
        cp2_lambda1_exact(Fraction(0))


@settings(max_examples=200, deadline=None)
@given(u=st.fractions(min_value=Fraction(1, 10**6), max_value=5, max_denominator=10**6))
def test_cp2_lambda1_up_to_the_branch_point_is_u_plus_4_plus_3_over_u(u):
    assert cp2_lambda1_exact(u) == u + 4 + 3 / u


def test_cp2_lambda1_is_least_at_r_squared_root_3():
    # u + 4 + 3/u is least at u = sqrt(3), where it is 4 + 2 sqrt(3)
    grid = [Fraction(k, 1000) for k in range(1000, 3000)]
    least = min(grid, key=cp2_lambda1_exact)
    assert least == Fraction(1732, 1000)
    assert cp2_lambda1_exact(least) < cp2_lambda1_exact(Fraction(2732, 1000))  # not at 1 + sqrt(3)
    assert float(cp2_lambda1_exact(least)) == pytest.approx(4 + 2 * math.sqrt(3), rel=1e-7)


def test_cp2_lambda1_pipeline_identity():
    rng = random.Random(11)
    for _ in range(50):
        r = rng.uniform(1e-3, 10.0)
        g = cp2_slice(r)
        via_pipeline = tanno_lambda1(g.t) / g.mu
        assert cp2_lambda1(r) == via_pipeline
        closed = float(cp2_lambda1_exact(Fraction(r) ** 2))
        assert cp2_lambda1(r) == pytest.approx(closed, rel=1e-12)


def test_cp2_index_nullity():
    for r in (1.0, 100.0, 0.05):
        rep = cp2_index_nullity(r)
        assert (rep.index, rep.nullity) == (1, 0)
        assert rep.parameter == r
    rep = cp2_index_nullity(1.0)
    assert rep.witnesses == ((0.0, 1, -1.5),)
    assert rep.truncation_bound > 0


def test_slice_spectrum_structure():
    g = cp2_slice(1.0)
    entries = slice_spectrum(g, 6)
    assert entries[0].value == 0.0
    assert entries[0].source == Mode(0, 0)
    assert entries[0].multiplicity == 1
    values = [e.value for e in entries]
    assert values == sorted(values)
    # first nonzero should be lambda_1
    assert values[1] == pytest.approx(cp2_lambda1(1.0), rel=1e-12)
    with pytest.raises(ValueError):
        slice_spectrum(g, 0)


def test_slice_geometry_validation():
    amb = cp2_slice(1.0).ambient
    for f, x, bad in (
        (0.0, Fraction(1), "f = 0.0"),
        (float("inf"), Fraction(1), "f = inf"),
        (float("nan"), Fraction(1), "f = nan"),
        (1.0, Fraction(0), "x = Fraction(0, 1)"),
        (1.0, Fraction(-1, 2), "x = Fraction(-1, 2)"),
    ):
        message = f"slice parameter r = 1.0 is out of range: coefficient {bad} is not finite and positive"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SliceGeometry(r=1.0, f=f, x=x, ambient=amb)


def test_cp2_equal_eigenvalues_group_exactly():
    # x = 1 + r^2 is exact, so a value attained by several branches is one
    # entry with the summed multiplicity: at r = 3 (x = 10), 80/3 has 13
    entries = slice_spectrum(cp2_slice(3.0), 25)
    near = [(e.value, e.multiplicity) for e in entries if abs(e.value - 80 / 3) < 1e-9]
    assert near == [(26.666666666666664, 13)]


@settings(max_examples=100, deadline=None)
@given(m=st.integers(min_value=1, max_value=4096), j=st.integers(min_value=0, max_value=8))
@example(m=3, j=1).via("r = 1.5")
@example(m=2, j=0).via("r = 2")
@example(m=3, j=0).via("r = 3")
@example(m=7, j=0).via("r = 7")
def test_cp2_dyadic_radii_group_exactly(m, j):
    r = m / 2**j
    geom = cp2_slice(r)
    entries = slice_spectrum(geom, 25)
    values = [e.value for e in entries]
    assert all(a < b for a, b in zip(values, values[1:]))
    want = [(float(v) / geom.f, sum(map(mode_multiplicity, modes)))
            for v, modes in distinct_spectrum_at(1 + Fraction(r) ** 2, 25)]
    assert [(e.value, e.multiplicity) for e in entries] == want


@settings(max_examples=200, deadline=None)
@given(r=st.floats(min_value=1e-150, max_value=1e150))
def test_cp2_squash_coordinate_is_exact(r):
    assert cp2_slice(r).x == 1 + Fraction(r) ** 2


def test_slice_index_truncation_guard():
    g = cp2_slice(1.0)
    with pytest.raises(ValueError):
        slice_index_nullity(g, 1)  # only the constant mode, bound below shift


def test_report_first_shifted_is_the_first_nonzero_value():
    # the CLI's first_shifted column: same float as a separate depth-2 spectrum
    for geom in (cp2_slice(0.05), cp2_slice(1.0), cp2_slice(300.0), synthetic_slice(0.9)):
        shift = jacobi_shift(geom.ambient)
        for depth in (2, 8, 25):
            rep = slice_index_nullity(geom, depth)
            assert rep.first_shifted == slice_spectrum(geom, 2)[1].value - shift


def _composed_report(geom, depth, zero_tolerance=None):
    """slice_index_nullity as the composition of the public spectrum stages."""
    shift = jacobi_shift(geom.ambient)
    if zero_tolerance is None:
        zero_tolerance = 1e-9 * max(1.0, abs(shift))
    shifted = jacobi_spectrum(slice_spectrum(geom, depth), shift)
    return index_nullity(shifted, zero_tolerance, parameter=geom.r, shift=shift)


def _assert_same_report(geom, depth, zero_tolerance=None):
    """The fast path's report equals the composed one; None when both raise the same ValueError."""
    try:
        want = _composed_report(geom, depth, zero_tolerance)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            slice_index_nullity(geom, depth, zero_tolerance)
        assert str(raised.value) == str(exc)
        return None
    if want.truncation_bound <= want.zero_tolerance:
        with pytest.raises(ValueError, match="does not reach past the shift"):
            slice_index_nullity(geom, depth, zero_tolerance)
        return want
    got = slice_index_nullity(geom, depth, zero_tolerance)
    for name in IndexNullityReport._fields:
        assert getattr(got, name) == getattr(want, name), name
    assert repr(got) == repr(want)  # also tells -0.0 from 0.0
    # both paths stop counting at the first value above the tolerance: check
    # them against a count over every entry
    shift = jacobi_shift(geom.ambient)
    counted = full_count(jacobi_spectrum(slice_spectrum(geom, depth), shift), got.zero_tolerance, shift)
    assert repr((got.index, got.nullity, got.witnesses)) == repr(counted)
    return got


_PAGE = page_constants()
_FAMILIES = {
    "cp2": (st.floats(min_value=-3, max_value=3).map(lambda e: 10.0**e), cp2_slice),
    "page": (
        st.floats(min_value=0, max_value=math.pi, exclude_min=True, exclude_max=True),
        lambda r: page_slice(r, _PAGE),
    ),
    "synthetic": (
        st.floats(min_value=0, max_value=math.pi, exclude_min=True, exclude_max=True),
        synthetic_slice,
    ),
}


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_slice_index_nullity_matches_the_composed_pipeline(family):
    radii, make = _FAMILIES[family]

    @settings(max_examples=150, deadline=None)
    @given(
        r=radii,
        depth=st.integers(min_value=2, max_value=40),
        zero_tolerance=st.one_of(st.none(), st.floats(min_value=1e-12, max_value=1.0)),
    )
    def check(r, depth, zero_tolerance):
        try:
            geom = make(r)
        except ValueError:  # f underflows, or D^2 sin^2 r does, at the very ends of the range
            return
        _assert_same_report(geom, depth, zero_tolerance)

    check()


def _assert_the_pair_is_x_in_lowest_terms(geom):
    assert "x" not in vars(geom)  # no Fraction until x is read
    twin = SliceGeometry(geom.r, geom.f, Fraction(geom.P, geom.Q), geom.ambient)
    assert repr(geom) == repr(twin) and geom == twin and hash(geom) == hash(twin)
    assert math.gcd(geom.P, geom.Q) == 1 and geom.P > 0 and geom.Q > 0
    assert (geom.P, geom.Q) == (geom.x.numerator, geom.x.denominator) == (twin.P, twin.Q)


_EDGES = st.one_of(  # within 1e-9 of an end of (0, pi)
    st.floats(min_value=0, max_value=1e-9, exclude_min=True),
    st.floats(min_value=math.pi - 1e-9, max_value=math.pi, exclude_max=True),
)


@settings(max_examples=200, deadline=None)
@given(r=st.floats(min_value=1e-3, max_value=1e3))
@example(r=1.34e154)
@example(r=1.6e-162)
def test_a_cp2_slice_holds_x_as_its_coprime_pair(r):
    _assert_the_pair_is_x_in_lowest_terms(cp2_slice(r))


@settings(max_examples=200, deadline=None)
@given(r=st.one_of(_FAMILIES["page"][0], _EDGES))
@example(r=1e-9)
@example(r=math.pi - 1e-9)
def test_a_page_slice_holds_x_as_its_coprime_pair(r):
    try:
        geom = page_slice(r, _PAGE)
    except ValueError:  # D^2 sin^2 r underflows at the very ends of the range
        assert r < 1e-150
        return
    _assert_the_pair_is_x_in_lowest_terms(geom)
    P, Q = _PAGE.PQ(r)  # x = (f V / D^2) / sin^2 r, exact in the two floats
    assert geom.x == _PAGE.x(r) == Fraction(geom.f * (P / Q) / (_PAGE.D * _PAGE.D)) / Fraction(math.sin(r)) ** 2


@pytest.mark.parametrize("space, scan", [("cp2", ["0.05", "3", "40"]), ("page", ["0.1", "3.0", "40"])])
def test_an_index_scan_builds_no_fraction_in_the_slice_layers(tmp_path, space, scan):
    class Counted(Fraction):
        made = 0

        def __new__(cls, *args, **kwargs):
            Counted.made += 1
            return super().__new__(cls, *args, **kwargs)

    argv = ["index", space, "--scan", *scan, "--output", str(tmp_path / "rows.csv")]
    assert cli.main(argv) == 0  # the first request loads and certifies the packaged constants
    first = (tmp_path / "rows.csv").read_text()
    with pytest.MonkeyPatch.context() as mp:
        for module in (slices, page):
            mp.setattr(module, "Fraction", Counted)
        assert cli.main(argv) == 0
    assert (tmp_path / "rows.csv").read_text() == first
    assert len([line for line in first.splitlines() if not line.startswith("#")]) == 41  # the header and 40 rows
    assert Counted.made == 0


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_the_merge_gets_the_exact_x(family):
    radii, make = _FAMILIES[family]

    @settings(max_examples=100, deadline=None)
    @given(r=radii, depth=st.integers(min_value=1, max_value=40))
    def check(r, depth):
        try:
            geom = make(r)
        except ValueError:  # f underflows, or D^2 sin^2 r does, at the very ends of the range
            return
        if family == "page":
            assert geom.x == _PAGE.x(r)
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            for module in (berger, slices):  # both paths merge through `_slice_merge`; either module's merge is recorded
                mp.setattr(module, "_modes", lambda P, Q, count: calls.append((P, Q, count)) or _modes(P, Q, count))
            try:
                spectrum = slice_spectrum(geom, depth)
            except ValueError:  # a value overflows: the domain error, tested elsewhere
                return
            try:
                slice_index_nullity(geom, depth)
            except ValueError:  # depth does not reach past the shift
                pass
        assert calls == [(geom.x.numerator, geom.x.denominator, depth)] * 2
        assert [e.value for e in spectrum] == [float(v) / geom.f for v, _ in distinct_spectrum_at(geom.x, depth)]

    check()


@pytest.mark.parametrize("r, depth", [(1.6842790254642973e-162, 2), (8.361683340703491e-154, 12)])
def test_tiny_synthetic_radius_is_the_same_domain_error_on_both_paths(r, depth):
    # f = sin^2 r is subnormal or nearly so, and the depth-th value n / Q / f
    # overflows: both paths name r instead of certifying an inf bound
    geom = synthetic_slice(r)
    message = f"slice parameter r = {r!r} is out of range: shifted eigenvalue inf is not finite"
    with pytest.raises(ValueError, match=f"^{re.escape(message)} at depth {depth}$"):
        slice_spectrum(geom, depth)
    assert _assert_same_report(geom, depth) is None
    assert slice_spectrum(geom, depth - 1)[-1].value < math.inf


def test_the_unit_equator_of_the_round_s4_is_null_in_its_first_eigenspace():
    # the unit round S^3 in the round S^4: shift 12/4 = 3, its first eigenvalue,
    # so the four first modes are null and the report notes the strict count
    geom = synthetic_slice(math.pi / 2)
    rep = slice_index_nullity(geom, 8)
    assert (rep.index, rep.nullity) == (1, 4)
    assert rep.notes == ("strict counting reports the near-zero modes as nullity, not index",)
    assert _assert_same_report(geom, 8) == rep


def test_slice_index_nullity_matches_at_the_page_roots():
    # criterion 7's case: nullity 4 at the float roots, so witnesses are kept
    for r in page_transition_roots(1e-6, _PAGE):
        for depth in (2, 8, 25, 40):
            rep = _assert_same_report(page_slice(r, _PAGE), depth, zero_tolerance=1e-5)
            assert (rep.index, rep.nullity) == (1, 4)
            assert [m for _, m, _ in rep.witnesses] == [1, 4]


# a counted value that two modes attain: (2,0) and (2,2) give 8 at x = 1,
# and (1,1) and (2,0) tie at x = 6; each is one witness, its multiplicities summed
@pytest.mark.parametrize(
    "x, s, witnesses",
    [
        (1, 40.0, ((0.0, 1, -10.0), (3.0, 4, -7.0), (8.0, 9, -2.0))),
        (6, 60.0, ((0.0, 1, -15.0), (8.0, 7, -7.0))),
    ],
)
def test_a_value_that_two_modes_attain_is_one_witness(x, s, witnesses):
    geom = SliceGeometry(r=1.0, f=1.0, x=Fraction(x), ambient=EinsteinAmbient(4, s, "hypersurface"))
    rep = _assert_same_report(geom, 25)
    assert rep.witnesses == witnesses
    assert (rep.index, rep.nullity) == (sum(m for _, m, _ in witnesses), 0)


def test_a_row_sums_and_computes_only_what_its_report_holds():
    # the report holds the first two values, the last and the counted prefix
    # (one mode for cp2, two for Page between its roots); a row computes a
    # value only for a mode it reads, reads none of the other 25 or more
    # modes, and only the counted modes give a multiplicity
    r1, r2 = page_transition_roots(1e-6, _PAGE)
    sums, reads = [], []

    class Modes(list):
        """The merge's modes, recording the position of each one read."""

        def __iter__(self):
            for i, mode in enumerate(list.__iter__(self)):
                reads.append(i)
                yield mode

        def __getitem__(self, i):
            reads.append(i % len(self))
            return list.__getitem__(self, i)

    for geom, counted in ((cp2_slice(1.0), 1), (page_slice((r1 + r2) / 2, _PAGE), 2)):
        sums.clear()
        reads.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(slices, "_multiplicity", lambda mode: sums.append(mode) or _multiplicity(mode))
            mp.setattr(slices, "_modes", lambda P, Q, count: Modes(_modes(P, Q, count)))
            rep = slice_index_nullity(geom, 25)
        assert rep == _assert_same_report(geom, 25)
        assert len(sums) == len(rep.witnesses) == counted
        assert [m for _, m, _ in rep.witnesses] == [_multiplicity(mode) for mode in sums]
        assert len(reads) <= counted + 3  # the counted ones (the first too), the next, the last and the second


def test_slice_index_nullity_rejects_bad_depth_and_tolerance():
    for depth in (0, 2.5, 9.0):
        for stage in (slice_index_nullity, slice_spectrum):
            with pytest.raises(ValueError, match=f"^depth must be a positive integer, got {depth!r}$"):
                stage(cp2_slice(1.0), depth)
    for tol in (-1e-9, float("nan"), float("inf")):  # NaN used to give index 0 here, inf 1
        with pytest.raises(ValueError, match="zero_tolerance"):
            slice_index_nullity(cp2_slice(1.0), 25, tol)


def test_synthetic_slice_round_spectrum():
    # f = sin^2 r, w = sin r is a round 3-sphere of radius sin r, so the
    # spectrum must be k(k+2)/sin^2 r with multiplicity (k+1)^2
    r = 0.9
    g = synthetic_slice(r)
    assert g.x == pytest.approx(1.0, rel=1e-15)
    s2 = math.sin(r) ** 2
    entries = slice_spectrum(g, 5)
    for k, e in enumerate(entries):
        assert e.value == pytest.approx(k * (k + 2) / s2, rel=1e-12)
        assert e.multiplicity == (k + 1) ** 2


def test_synthetic_equator_nullity():
    # at the equator the slice is the unit round 3-sphere in the round
    # 4-sphere: lambda_1 = 3 equals the shift, giving the classical
    # nullity 4 from the rotational Jacobi fields
    rep = slice_index_nullity(synthetic_slice(math.pi / 2), 8)
    assert (rep.index, rep.nullity) == (1, 4)
    shift = jacobi_shift(synthetic_slice(math.pi / 2).ambient)
    assert shift == 3.0


def test_synthetic_slice_domain():
    with pytest.raises(ValueError):
        synthetic_slice(0.0)
    with pytest.raises(ValueError):
        synthetic_slice(math.pi)


def test_bisection_sqrt2():
    root = find_root_bisection(lambda v: v * v - 2.0, 1.0, 2.0, 1e-6)
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-6)


def test_bisection_stops_at_float_resolution():
    # no interval is 1e-300 wide here: the loop ends when the midpoint is an endpoint
    root = find_root_bisection(lambda v: v * v - 2.0, 1.0, 2.0, 1e-300)
    assert abs(root - math.sqrt(2.0)) <= math.ulp(math.sqrt(2.0))


def test_bisection_errors():
    with pytest.raises(ValueError):
        find_root_bisection(lambda v: v * v + 1.0, 0.0, 1.0, 1e-6)
    with pytest.raises(ValueError):
        find_root_bisection(lambda v: v, 1.0, 0.0, 1e-6)
    for tol in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tolerance"):
            find_root_bisection(lambda v: v, 0.0, 1.0, tol)
    with pytest.raises(ValueError):
        find_root_bisection(lambda v: float("nan"), 0.0, 1.0, 1e-6)

    def pole(v):
        return 1.0 / v if v != 0 else float("inf")

    with pytest.raises(ValueError):
        find_root_bisection(pole, -1.0, 1.0, 1e-9)


def test_bisection_endpoint_roots():
    assert find_root_bisection(lambda v: v, 0.0, 1.0, 1e-6) == 0.0
    assert find_root_bisection(lambda v: v - 1.0, 0.0, 1.0, 1e-6) == 1.0
