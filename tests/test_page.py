"""Page family: constants loading, anchors, roots, and index profile.

The coefficient transcription is deliberately under heavy cross-checking
here: the loader enforces the cheap identities, and the root positions
pin down f_const, which no load-time identity touches.
"""

import functools
import math
import random
import re
from importlib import resources

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bergerspec.jacobi import jacobi_shift
from bergerspec.page import (
    PageConfigError,
    PageConstants,
    PageStructureError,
    page_constants,
    page_index_nullity,
    page_shifted_lambda1,
    page_slice,
    page_transition_roots,
)
from bergerspec.slices import find_root_bisection
from oracles import w2

R1_PRINTED = 0.7032761573791504
R2_PRINTED = 2.4383171081542976


def _grid(n):
    """The radii k * (pi/n) for k = 1..n-1."""
    step = math.pi / n
    return [k * step for k in range(1, n)]


def _config_with(tmp_path, consts, key, value):
    """Path of a constants file equal to `consts` except for `key` = `value`."""
    values = {k: repr(getattr(consts, k)) for k in ("a", "f_const", "C", "D")}
    values[key] = value
    p = tmp_path / "bad.cfg"
    p.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return str(p)


def _sign_changes(fn, grid):
    values = [fn(r) > 0 for r in grid]
    return sum(lo != hi for lo, hi in zip(values, values[1:]))


@pytest.fixture(scope="module")
def consts():
    return page_constants()


@pytest.fixture(scope="module")
def roots(consts):
    return page_transition_roots(1e-6, consts)


def test_config_loads_and_validates(consts):
    assert 12.95 <= consts.s <= 12.96
    assert consts.shift == pytest.approx(consts.s / 4, rel=1e-15)
    # a solves its quartic
    a = consts.a
    assert abs(a**4 + 4 * a**3 - 6 * a**2 + 12 * a - 3) < 1e-12
    assert abs(consts.D**2 - consts.C) < 1e-12


def test_the_shift_is_the_ambients_s_over_n(consts):
    # 12(1 + a^2) / 4 is the float 3(1 + a^2): dividing by 4 is exact
    assert consts.shift == 3.0 * (1.0 + consts.a * consts.a) == jacobi_shift(consts.ambient())

    @settings(max_examples=300, deadline=None)
    @given(a=st.floats(min_value=math.sqrt(12.95 / 12 - 1), max_value=math.sqrt(12.96 / 12 - 1)))
    def check(a):
        assume(12.95 <= 12.0 * (1.0 + a * a) <= 12.96)
        c = consts.replace(a=a)
        assert c.shift == 3.0 * (1.0 + a * a) == jacobi_shift(c.ambient())

    check()


def test_sqrt_c_over_v_identity(consts):
    rng = random.Random(3)
    for _ in range(50):
        r = rng.uniform(1e-3, math.pi - 1e-3)
        assert math.sqrt(consts.C / consts.V(r)) == pytest.approx(
            consts.D / consts.U(r), abs=1e-12
        )


def test_squash_formula_identity(consts):
    rng = random.Random(4)
    for _ in range(50):
        r = rng.uniform(1e-3, math.pi - 1e-3)
        g = page_slice(r, consts)
        assert consts.t(r) == pytest.approx(g.t, rel=1e-12)
        assert consts.x(r) == pytest.approx(g.x, rel=1e-12)
        assert g.x == pytest.approx(g.t ** -3, rel=1e-12)
        assert g.x == pytest.approx(consts.f(r) / consts.w(r) ** 2, rel=1e-12)


def test_missing_key_rejected(tmp_path):
    p = tmp_path / "broken.cfg"
    p.write_text("a = 0.2817\nC = 0.48\nD = 0.69\n")
    with pytest.raises(PageConfigError):
        page_constants(path=str(p))


def test_junk_line_rejected(tmp_path):
    p = tmp_path / "junk.cfg"
    p.write_text("a 0.2817\n")
    with pytest.raises(PageConfigError):
        page_constants(path=str(p))


def test_non_decimal_rejected(tmp_path):
    p = tmp_path / "nan.cfg"
    p.write_text("a = zero\nf_const = 1\nC = 1\nD = 1\n")
    with pytest.raises(PageConfigError):
        page_constants(path=str(p))


@pytest.mark.parametrize(
    "line, problem",
    [
        ("f_const = 1.25", "key 'f_const' is set a second time"),
        ("bogus_key = 7", "unknown key 'bogus_key'"),
    ],
)
def test_repeated_or_unknown_key_rejected(tmp_path, line, problem):
    text = resources.files("bergerspec").joinpath("data/page_constants.cfg").read_text()
    p = tmp_path / "appended.cfg"
    p.write_text(f"{text}{line}\n")
    with pytest.raises(PageConfigError, match=f"^line {len(text.splitlines()) + 1}: {problem}"):
        page_constants(path=str(p))


def test_d_squared_not_c_rejected(tmp_path, consts):
    message = "D^2 = 0.4822813210435226 does not match C = 0.5"
    with pytest.raises(PageConfigError, match=f"^{re.escape(message)}$"):
        page_constants(path=_config_with(tmp_path, consts, "C", "0.5"))


def test_corrupted_a_rejected_strict(tmp_path, consts):
    p = tmp_path / "bad_a.cfg"
    p.write_text(
        f"a = 0.5\nf_const = {consts.f_const!r}\nC = {consts.C!r}\nD = {consts.D!r}\n"
    )
    with pytest.raises(PageConfigError):
        page_constants(path=str(p))


@pytest.mark.parametrize("key", ["a", "f_const", "C", "D"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_non_finite_or_negative_constant_rejected_strict(tmp_path, consts, key, value):
    # NaN passes every abs(...) > tol anchor, and f_const <= 0 used to crash
    # the squash-formula anchor with a complex power
    with pytest.raises(PageConfigError):
        page_constants(path=_config_with(tmp_path, consts, key, value))


def test_corrupted_constants_move_the_roots(consts):
    # the roots are the anchor that catches a wrong f_const (nothing at
    # load time constrains it); a corrupted value must push at least one
    # root outside the acceptance window
    bad = consts.replace(f_const=1.1)
    r1, r2 = page_transition_roots(1e-6, bad)
    assert abs(r1 - R1_PRINTED) > 1e-3 or abs(r2 - R2_PRINTED) > 1e-3

    bad_a = consts.replace(a=0.5)
    r1, r2 = page_transition_roots(1e-6, bad_a)
    assert abs(r1 - R1_PRINTED) > 1e-3


def test_transition_roots_match_anchors(roots):
    r1, r2 = roots
    assert abs(r1 - R1_PRINTED) <= 1e-3
    assert abs(r2 - R2_PRINTED) <= 1e-3
    assert 0 < r1 < r2 < math.pi


def test_transition_roots_validation(consts):
    for tol in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tolerance"):
            page_transition_roots(tol, consts)


def test_shifted_lambda1_profile(consts, roots):
    r1, r2 = roots
    # blows up at both ends
    assert page_shifted_lambda1(1e-4, consts) > 1e4
    assert page_shifted_lambda1(math.pi - 1e-4, consts) > 1e4
    # midpoint value, fixed by the transcription
    assert page_shifted_lambda1(math.pi / 2, consts) == pytest.approx(
        -1.0106626713204165, abs=1e-9
    )
    # exactly two sign changes across a fine grid
    assert _sign_changes(lambda r: page_shifted_lambda1(r, consts), _grid(1024)) == 2
    # vanishes at the certified roots
    assert abs(page_shifted_lambda1(r1, consts)) < 1e-5
    assert abs(page_shifted_lambda1(r2, consts)) < 1e-5


def _composed_shifted_lambda1(c, r):
    s = math.sin(r)
    return 2.0 / c.f(r) + c.V(r) / (c.D * c.D * s * s) - c.shift


def test_shifted_lambda1_is_bit_identical_to_the_composed_formula(consts):
    rng = random.Random(1024)
    radii = _grid(1024) + [rng.uniform(1e-9, math.pi - 1e-9) for _ in range(2000)]
    for r in radii:
        assert page_shifted_lambda1(r, consts) == _composed_shifted_lambda1(consts, r)
        P, Q = consts.PQ(r)
        c2 = math.cos(r) ** 2
        assert P == pytest.approx(1 - consts.a2 * c2, rel=1e-14)
        assert Q == pytest.approx(3 - consts.a2 - consts.a2 * (1 + consts.a2) * c2, rel=1e-14)


def _grid_scan_roots(c, tol):
    """The root finder the exact count replaced, as an oracle.

    Sign changes of the composed formula on the pi/1024 grid, each bracket
    bisected to width `tol`.
    """
    fn = functools.partial(_composed_shifted_lambda1, c)
    grid = _grid(1024)
    brackets = [(lo, hi) for lo, hi in zip(grid, grid[1:]) if (fn(lo) > 0) != (fn(hi) > 0)]
    return tuple(find_root_bisection(fn, lo, hi, tol) for lo, hi in brackets)


@pytest.mark.parametrize("tol", [10.0**-e for e in range(3, 11)])
def test_transition_roots_match_the_composed_formula(consts, tol):
    want = _grid_scan_roots(consts, tol)
    assert len(want) == 2
    got = page_transition_roots(tol, consts)
    assert all(abs(g - w) <= tol for g, w in zip(got, want))


def test_root_count_runs_once_per_constants_object(monkeypatch):
    from bergerspec import page

    count, bisect = PageConstants.root_count.func, page.find_root_bisection
    counted, bisected = [], []

    def counting(self):
        counted.append(self)
        return count(self)

    def recording(fn, lo, hi, tol):
        bisected.append((lo, hi, tol))
        return bisect(fn, lo, hi, tol)

    def unused(r, constants=None):
        raise AssertionError("the roots need no page_shifted_lambda1 evaluation")

    prop = functools.cached_property(counting)
    prop.__set_name__(PageConstants, "root_count")
    monkeypatch.setattr(PageConstants, "root_count", prop)
    monkeypatch.setattr(page, "find_root_bisection", recording)
    monkeypatch.setattr(page, "page_shifted_lambda1", unused)
    c = page_constants()
    tols = [10.0**-e for e in range(3, 11)]
    for tol in tols:
        r1, r2 = page_transition_roots(tol, c)
        assert r2 == math.pi - r1
    assert len(counted) == 1 and counted[0] is c
    # one bisection per call, on [0, pi/2]
    assert bisected == [(0.0, math.pi / 2, tol) for tol in tols]
    # the count is kept with the object: an equal new one counts again
    fresh = page_constants()
    page_transition_roots(1e-6, fresh)
    assert len(counted) == 2 and counted[1] is fresh


def _method_cleared(c, r):
    """The cleared value page_transition_roots bisects, through the constants' attributes."""
    P, Q = c.PQ(r)
    s = math.sin(r)
    return c.f_const * P * P + Q * c.D * c.D * s * s * (2.0 - c.shift * c.f_const * P)


@pytest.mark.parametrize("f_const", [None, "1.2"])  # the packaged file, and a valid copy with another f_const
def test_transition_roots_are_the_bisection_of_the_method_based_value(tmp_path, consts, f_const):
    c = consts if f_const is None else page_constants(path=_config_with(tmp_path, consts, "f_const", f_const))
    assert c.f_const == (consts.f_const if f_const is None else 1.2)
    for tol in [10.0**-e for e in range(3, 15)]:
        r1 = find_root_bisection(functools.partial(_method_cleared, c), 0.0, math.pi / 2, tol)
        assert page_transition_roots(tol, c) == (r1, math.pi - r1), tol


@pytest.mark.parametrize("f_const", [None, "1.2"])
def test_page_slice_is_the_methods_bit_for_bit(tmp_path, consts, f_const):
    c = consts if f_const is None else page_constants(path=_config_with(tmp_path, consts, "f_const", f_const))
    rng = random.Random(240)
    radii = _grid(128) + [rng.uniform(1e-9, math.pi - 1e-9) for _ in range(120)] + [1e-160, 2.2e-150]
    for r in radii:
        g = page_slice(r, c)
        assert (g.f, g.x, g.ambient) == (c.f(r), c.x(r), c.ambient()), r
    # one ambient per constants object; an equal new object builds its own
    assert c.ambient() is c.ambient() is page_slice(1.0, c).ambient
    fresh = page_constants()
    assert fresh.ambient() == consts.ambient() and fresh.ambient() is not consts.ambient()


@pytest.mark.parametrize("r", [math.inf, -math.inf])
def test_infinite_slice_parameter_is_named(consts, r):
    for fn in (page_slice, lambda r, c: c.x(r)):
        with pytest.raises(ValueError, match=r"^slice parameter must lie in \(0, pi\), got -?inf$"):
            fn(r, consts)


@pytest.fixture(scope="module")
def cleared(consts):
    """The function page_transition_roots bisects, caught on its way in."""
    from bergerspec import page

    caught = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(page, "find_root_bisection", lambda fn, lo, hi, tol: caught.append(fn) or lo)
        page_transition_roots(1e-6, consts)
    return caught[0]


def test_cleared_value_has_the_sign_of_the_shifted_value(consts, cleared):
    rng = random.Random(12)
    radii = _grid(1024) + [rng.uniform(1e-9, math.pi - 1e-9) for _ in range(2000)]
    for r in radii:
        g, h = page_shifted_lambda1(r, consts), cleared(r)
        assert (g > 0, g < 0) == (h > 0, h < 0), r
    # finite and positive at r = 0, where the shifted value blows up
    assert 0 < cleared(0.0) < math.inf


def test_roots_are_mirror_images(consts):
    for tol in [10.0**-e for e in range(1, 17)]:
        r1, r2 = page_transition_roots(tol, consts)
        assert 0 < r1 < math.pi / 2 < r2 < math.pi
        assert abs(r1 + r2 - math.pi) <= 4.5e-16


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(min_value=0.0, max_value=0.7071),
    f_const=st.floats(min_value=0.1, max_value=10.0),
    D=st.floats(min_value=0.1, max_value=5.0),
)
def test_root_count_matches_a_dense_grid(a, f_const, D):
    c = page_constants().replace(a=a, f_const=f_const, D=D)
    # a value within rounding of zero at pi/2 would leave the grid's count to rounding
    assume(abs(page_shifted_lambda1(math.pi / 2, c)) > 1e-9)
    assert c.root_count == _sign_changes(lambda r: page_shifted_lambda1(r, c), _grid(4096))


@pytest.mark.parametrize(
    "key, value, hypothesis",
    [
        ("a", "0.75", "a^2 <= 1/2"),
        ("f_const", "0", "0 < f_const < inf"),
        ("f_const", "-1.5", "0 < f_const < inf"),
        ("f_const", "inf", "0 < f_const < inf"),
        ("D", "0", "0 < |D| < inf"),
    ],
)
def test_root_count_hypotheses(tmp_path, consts, key, value, hypothesis):
    path = _config_with(tmp_path, consts, key, value)
    with pytest.raises(PageConfigError):  # the load-time anchors exclude it
        page_constants(path=path)
    loose = consts.replace(**{key: float(value)})  # what the file holds, unchecked
    with pytest.raises(PageStructureError, match=f"needs {re.escape(hypothesis)}.*got {key} = "):
        page_transition_roots(1e-6, loose)


def test_index_profile_is_symmetric(consts):
    rng = random.Random(6)
    for r in _grid(256) + [rng.uniform(1e-3, math.pi - 1e-3) for _ in range(200)]:
        left, right = (page_index_nullity(x, constants=consts) for x in (r, math.pi - r))
        assert (left.index, left.nullity) == (right.index, right.nullity), r
        assert left.first_shifted == pytest.approx(right.first_shifted, rel=1e-9, abs=1e-9)


def test_corrupted_constants_fail_the_root_count_on_every_call(consts):
    bad = consts.replace(D=0.1)  # the shifted value stays positive: no roots
    for tol in (1e-3, 1e-6, 1e-6, 1e-10):
        with pytest.raises(PageStructureError, match="found 0"):
            page_transition_roots(tol, bad)


def test_shifted_lambda1_domain(consts):
    with pytest.raises(ValueError):
        page_shifted_lambda1(0.0, consts)
    with pytest.raises(ValueError):
        page_shifted_lambda1(math.pi, consts)
    with pytest.raises(ValueError):
        page_shifted_lambda1(-0.5, consts)


def test_squash_coordinate_at_root(consts, roots):
    # the roots sit inside the region where the first branch is governed
    # by the (1,1) mode, so the formula really is the first eigenvalue
    r1, r2 = roots
    assert consts.x(r1) == pytest.approx(2.0707, abs=1e-3)
    assert consts.x(r1) < 6
    assert consts.x(r2) < 6
    assert consts.x(math.pi / 2) < 6


@pytest.mark.parametrize(
    "fn", [pytest.param(lambda r, c: c.x(r), id="page_x"), page_slice, page_shifted_lambda1]
)
@pytest.mark.parametrize("r", [1e-200, 1e-170, 2.2e-162])
def test_underflowing_sine_is_a_domain_error(consts, fn, r):
    # D^2 sin^2 r is 0.0 here (at 2.2e-162 sin^2 r itself is not): every
    # function names r instead of dividing by zero
    message = f"slice parameter r = {r!r} is out of range: D^2 sin^2 r underflows to 0"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fn(r, consts)


def test_slice_geometry(consts):
    g = page_slice(math.pi / 2, consts)
    assert g.f == pytest.approx(consts.f_const, rel=1e-15)  # P(pi/2) = 1
    assert w2(g) == pytest.approx(consts.C * (3 - consts.a2), rel=1e-12)
    tiny = page_slice(1e-160, consts)  # sin^2 r is subnormal, and x > 10^300 is beyond the float range
    assert tiny.x > 10**300
    assert tiny.t == pytest.approx(consts.t(1e-160), rel=1e-13, abs=0)
    assert tiny.mu == pytest.approx(tiny.f * tiny.t, rel=1e-15, abs=0)
    assert w2(tiny) == pytest.approx(consts.w(1e-160) ** 2, rel=1e-3, abs=0)  # w^2 is subnormal too
    with pytest.raises(ValueError):
        page_slice(0.0, consts)
    with pytest.raises(ValueError):
        page_slice(3.15, consts)


def test_index_profile_interior(consts):
    rep = page_index_nullity(math.pi / 2, constants=consts)
    assert (rep.index, rep.nullity) == (5, 0)
    # the index-5 certificate: constant mode plus a multiplicity-4 branch
    mults = sorted(m for _, m, v in rep.witnesses if v < 0)
    assert mults == [1, 4]


def test_index_profile_outside(consts):
    for r in (0.1, 3.0):
        rep = page_index_nullity(r, constants=consts)
        assert (rep.index, rep.nullity) == (1, 0)
        assert rep.notes == ()


def test_nullity_at_certified_roots(consts, roots):
    # zero tolerance matched to the root certificate: the profile slope
    # near the roots is below 6, and bisection stops at width 1e-6
    for r in roots:
        rep = page_index_nullity(r, zero_tolerance=1e-5, constants=consts)
        assert (rep.index, rep.nullity) == (1, 4)
        assert any("strict counting" in note for note in rep.notes)


def test_index_domain(consts):
    with pytest.raises(ValueError):
        page_index_nullity(0.0, constants=consts)
    with pytest.raises(ValueError):
        page_index_nullity(math.pi, constants=consts)


def test_default_constants_are_packaged():
    # calling without explicit constants must work against the shipped file
    r1, _ = page_transition_roots(1e-6)
    assert abs(r1 - R1_PRINTED) <= 1e-3
