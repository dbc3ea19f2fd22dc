"""Page family: constants loading, anchors, roots, and index profile.

The coefficient transcription is deliberately under heavy cross-checking
here: the loader enforces the cheap identities, and the root positions
pin down f_const, which no load-time identity touches.
"""

import math
import random
from dataclasses import replace

import pytest

from bergerspec.page import (
    ROOT_SCAN_STEP,
    PageConfigError,
    PageConstants,
    PageStructureError,
    page_constants,
    page_index_nullity,
    page_shifted_lambda1,
    page_slice,
    page_transition_roots,
    page_x,
)
from bergerspec.slices import find_root_bisection

R1_PRINTED = 0.7032761573791504
R2_PRINTED = 2.4383171081542976


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


def test_corrupted_a_rejected_strict(tmp_path, consts):
    p = tmp_path / "bad_a.cfg"
    p.write_text(
        f"a = 0.5\nf_const = {consts.f_const!r}\nC = {consts.C!r}\nD = {consts.D!r}\n"
    )
    with pytest.raises(PageConfigError):
        page_constants(path=str(p))
    # non-strict loading is allowed, for negative controls like the next test
    loose = page_constants(path=str(p), strict=False)
    assert loose.a == 0.5


def test_corrupted_constants_move_the_roots(consts):
    # the roots are the anchor that catches a wrong f_const (nothing at
    # load time constrains it); a corrupted value must push at least one
    # root outside the acceptance window
    bad = replace(consts, f_const=1.1)
    r1, r2 = page_transition_roots(1e-6, bad)
    assert abs(r1 - R1_PRINTED) > 1e-3 or abs(r2 - R2_PRINTED) > 1e-3

    bad_a = replace(consts, a=0.5)
    r1, r2 = page_transition_roots(1e-6, bad_a)
    assert abs(r1 - R1_PRINTED) > 1e-3


def test_transition_roots_match_anchors(roots):
    r1, r2 = roots
    assert abs(r1 - R1_PRINTED) <= 1e-3
    assert abs(r2 - R2_PRINTED) <= 1e-3
    assert 0 < r1 < r2 < math.pi


def test_root_scan_step():
    assert ROOT_SCAN_STEP == pytest.approx(math.pi / 1024, rel=1e-15)


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
    signs = 0
    prev = page_shifted_lambda1(ROOT_SCAN_STEP, consts)
    for k in range(2, 1024):
        cur = page_shifted_lambda1(k * ROOT_SCAN_STEP, consts)
        if (cur > 0) != (prev > 0):
            signs += 1
        prev = cur
    assert signs == 2
    # vanishes at the certified roots
    assert abs(page_shifted_lambda1(r1, consts)) < 1e-5
    assert abs(page_shifted_lambda1(r2, consts)) < 1e-5


def _composed_shifted_lambda1(c, r):
    s = math.sin(r)
    return 2.0 / c.f(r) + c.V(r) / (c.D * c.D * s * s) - c.shift


def test_shifted_lambda1_is_bit_identical_to_the_composed_formula(consts):
    rng = random.Random(1024)
    radii = [k * ROOT_SCAN_STEP for k in range(1, 1024)]
    radii += [rng.uniform(1e-9, math.pi - 1e-9) for _ in range(2000)]
    for r in radii:
        assert page_shifted_lambda1(r, consts) == _composed_shifted_lambda1(consts, r)
        P, Q = consts.PQ(r)
        assert (consts.P(r), consts.Q(r)) == (P, Q)
        c2 = math.cos(r) ** 2
        assert P == pytest.approx(1 - consts.a2 * c2, rel=1e-14)
        assert Q == pytest.approx(3 - consts.a2 - consts.a2 * (1 + consts.a2) * c2, rel=1e-14)


@pytest.mark.parametrize("tol", [10.0**-e for e in range(3, 11)])
def test_transition_roots_match_the_composed_formula(consts, tol):
    # the same grid scan and bisection, run on the method-composed formula
    def fn(r):
        return _composed_shifted_lambda1(consts, r)

    grid = [k * ROOT_SCAN_STEP for k in range(1, 1024)]
    brackets = [(lo, hi) for lo, hi in zip(grid, grid[1:]) if (fn(lo) > 0) != (fn(hi) > 0)]
    assert len(brackets) == 2
    want = tuple(find_root_bisection(fn, lo, hi, tol) for lo, hi in brackets)
    assert page_transition_roots(tol, consts) == want


def test_root_scan_runs_once_per_constants_object(monkeypatch):
    from bergerspec import page

    evaluate, bisect = page.page_shifted_lambda1, page.find_root_bisection
    scanned, bisected = [], []
    bisecting = [False]

    def counting(r, constants=None):
        if not bisecting[0]:
            scanned.append(r)
        return evaluate(r, constants)

    def recording(fn, lo, hi, tol):
        bisected.append((lo, hi))
        bisecting[0] = True
        try:
            return bisect(fn, lo, hi, tol)
        finally:
            bisecting[0] = False

    monkeypatch.setattr(page, "page_shifted_lambda1", counting)
    monkeypatch.setattr(page, "find_root_bisection", recording)
    c = page_constants()
    tols = [10.0**-e for e in range(3, 11)]
    roots = [page_transition_roots(tol, c) for tol in tols]
    grid = [k * ROOT_SCAN_STEP for k in range(1, 1024)]
    assert scanned == grid

    def fn(r):
        return evaluate(r, c)

    brackets = [(lo, hi) for lo, hi in zip(grid, grid[1:]) if (fn(lo) > 0) != (fn(hi) > 0)]
    assert len(brackets) == 2
    assert bisected == brackets * len(tols)
    for tol, got in zip(tols, roots):
        assert got == tuple(bisect(fn, lo, hi, tol) for lo, hi in brackets)
    # the scan is kept with the object: an equal new one scans again
    page_transition_roots(1e-6, page_constants())
    assert scanned == grid * 2


def test_corrupted_constants_fail_the_root_count_on_every_call(consts):
    bad = replace(consts, D=0.1)  # the shifted value stays positive: no roots
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
    assert page_x(r1, consts) == pytest.approx(2.0707, abs=1e-3)
    assert page_x(r1, consts) < 6
    assert page_x(r2, consts) < 6
    assert page_x(math.pi / 2, consts) < 6


def test_slice_geometry(consts):
    g = page_slice(math.pi / 2, consts)
    assert g.f == pytest.approx(consts.f_const, rel=1e-15)  # P(pi/2) = 1
    assert g.w2 == pytest.approx(consts.C * (3 - consts.a2), rel=1e-12)
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
