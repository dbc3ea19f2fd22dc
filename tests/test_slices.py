import math
import random
from fractions import Fraction

import pytest

from bergerspec.berger import tanno_lambda1
from bergerspec.jacobi import jacobi_shift
from bergerspec.slices import (
    SliceGeometry,
    cp2_index_nullity,
    cp2_lambda1,
    cp2_lambda1_exact,
    cp2_slice,
    find_root_bisection,
    slice_index_nullity,
    slice_spectrum,
    synthetic_slice,
)


def test_cp2_slice_at_one():
    g = cp2_slice(1.0)
    assert g.f == pytest.approx(0.5, rel=1e-15)
    assert g.w2 == pytest.approx(0.25, rel=1e-15)
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


def test_cp2_lambda1_values():
    assert cp2_lambda1(1.0) == pytest.approx(8.0, rel=1e-12)
    assert cp2_lambda1(math.sqrt(5.0)) == pytest.approx(9.6, rel=1e-12)
    assert cp2_lambda1(3.0) == pytest.approx(80.0 / 9.0, rel=1e-12)


def test_cp2_lambda1_exact_rationals():
    assert cp2_lambda1_exact(Fraction(1)) == 8
    assert cp2_lambda1_exact(Fraction(5)) == Fraction(48, 5)
    assert cp2_lambda1_exact(Fraction(9)) == Fraction(80, 9)
    # both closed forms meet at r^2 = 5
    assert (3 + Fraction(5)) * (1 + Fraction(5)) / 5 == 8 * (1 + Fraction(5)) / 5
    with pytest.raises(ValueError):
        cp2_lambda1_exact(Fraction(0))


def test_cp2_lambda1_pipeline_identity():
    rng = random.Random(11)
    for _ in range(50):
        r = rng.uniform(1e-3, 10.0)
        g = cp2_slice(r)
        via_pipeline = tanno_lambda1(g.t) / g.mu
        assert cp2_lambda1(r) == pytest.approx(via_pipeline, rel=1e-12)
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
    assert entries[0].source == "constant"
    assert entries[0].multiplicity == 1
    values = [e.value for e in entries]
    assert values == sorted(values)
    # first nonzero should be lambda_1
    assert values[1] == pytest.approx(cp2_lambda1(1.0), rel=1e-12)
    with pytest.raises(ValueError):
        slice_spectrum(g, 0)


def test_slice_geometry_validation():
    amb = cp2_slice(1.0).ambient
    with pytest.raises(ValueError):
        SliceGeometry(r=1.0, f=0.0, w=1.0, ambient=amb)
    with pytest.raises(ValueError):
        SliceGeometry(r=1.0, f=1.0, w=-1.0, ambient=amb)
    with pytest.raises(ValueError):
        SliceGeometry(r=1.0, f=float("inf"), w=1.0, ambient=amb)


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


def test_bisection_errors():
    with pytest.raises(ValueError):
        find_root_bisection(lambda v: v * v + 1.0, 0.0, 1.0, 1e-6)
    with pytest.raises(ValueError):
        find_root_bisection(lambda v: v, 1.0, 0.0, 1e-6)
    with pytest.raises(ValueError):
        find_root_bisection(lambda v: v, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        find_root_bisection(lambda v: float("nan"), 0.0, 1.0, 1e-6)

    def pole(v):
        return 1.0 / v if v != 0 else float("inf")

    with pytest.raises(ValueError):
        find_root_bisection(pole, -1.0, 1.0, 1e-9)


def test_bisection_endpoint_roots():
    assert find_root_bisection(lambda v: v, 0.0, 1.0, 1e-6) == 0.0
    assert find_root_bisection(lambda v: v - 1.0, 0.0, 1.0, 1e-6) == 1.0
