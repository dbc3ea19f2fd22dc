"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test is self-contained and named test_criterion_NN_*; conftest.py
turns their outcomes into one summary line per criterion.  Tolerances are
pinned here and must not be loosened: exact means rational equality, and
the float tolerances are written out explicitly.
"""

import math
import random
from fractions import Fraction

import pytest

from bergerspec.berger import (
    alpha_branch,
    beta_branch,
    branch_crossing,
    distinct_spectrum_at,
    epsilon_lambda1,
    eleven_slot_table,
    gamma_branch,
    scale_spectrum,
    slot_value_at,
    tanno_lambda1,
    SpectrumEntry,
)
from bergerspec.jacobi import (
    EinsteinAmbient,
    index_nullity,
    is_unstable,
    jacobi_shift,
    jacobi_spectrum,
    adjunction_genus,
    complex_curve_index_nullity,
)
from bergerspec.page import (
    page_constants,
    page_index_nullity,
    page_slice,
    page_transition_roots,
)
from bergerspec.slices import (
    CP2_AMBIENT,
    cp2_index_nullity,
    cp2_lambda1,
    cp2_lambda1_exact,
    cp2_slice,
    slice_index_nullity,
    slice_spectrum,
)
from bergerspec.spheres import sphere_multiplicity


def test_criterion_01_sphere_table():
    # independent oracle: dim of degree-k harmonics in p+1 variables via
    # the classical closed form (2k+p-1)(k+p-2)! / (k! (p-1)!)
    for p in range(1, 7):
        for k in range(0, 13):
            if k == 0:
                oracle = 1
            else:
                oracle = (
                    (2 * k + p - 1)
                    * math.factorial(k + p - 2)
                    // (math.factorial(k) * math.factorial(p - 1))
                )
            assert sphere_multiplicity(k, p) == oracle
    for k in range(0, 13):
        assert sphere_multiplicity(k, 3) == (k + 1) ** 2


def test_criterion_02_tanno_lambda1():
    rng = random.Random(2025)
    for _ in range(100):
        t = rng.uniform(0.05, 5.0)
        x = 1 / Fraction(t) ** 3
        engine = distinct_spectrum_at(x, 2)[1][0]
        expected = 2 + x if x <= 6 else Fraction(8)
        assert engine == expected  # exact, on the coefficient level
        assert tanno_lambda1(t) == pytest.approx(t * float(engine), rel=1e-12)
    # the branch point is exactly x = 6
    assert branch_crossing(gamma_branch(1), beta_branch(2)) == Fraction(6)


def test_criterion_03_eleven_eigenvalue_list():
    crossings = [
        (gamma_branch(1), beta_branch(2), Fraction(6)),
        (gamma_branch(2), beta_branch(2), Fraction(1)),
        (gamma_branch(3), beta_branch(2), Fraction(2, 9)),
        (gamma_branch(4), alpha_branch(3), Fraction(2, 5)),
        (alpha_branch(3), beta_branch(4), Fraction(10)),
        (gamma_branch(5), alpha_branch(3), Fraction(1, 6)),
        (gamma_branch(6), alpha_branch(3), Fraction(2, 35)),
        (gamma_branch(7), beta_branch(4), Fraction(10, 49)),
        (gamma_branch(8), beta_branch(4), Fraction(1, 8)),
        (gamma_branch(9), beta_branch(4), Fraction(2, 27)),
    ]
    for b1, b2, want in crossings:
        assert branch_crossing(b1, b2) == want  # rational equality

    # containment: on 20 rational samples inside each stated region, the
    # formula's value occurs among the computed distinct values
    for slot in eleven_slot_table():
        for cell in slot:
            hi = cell.lo + 10 if cell.hi is None else cell.hi
            for j in range(1, 21):
                x = cell.lo + (hi - cell.lo) * Fraction(j, 21)
                values = {v for v, _ in distinct_spectrum_at(x, 40)}
                assert cell.branch.value_at(x) in values

    # position of the first curve: smallest nonzero distinct value, at
    # every sample across the domain
    for j in range(1, 41):
        x = Fraction(j, 2)
        assert distinct_spectrum_at(x, 2)[1][0] == slot_value_at(1, x)
    for j in range(1, 40):
        x = Fraction(j, 200)
        assert distinct_spectrum_at(x, 2)[1][0] == slot_value_at(1, x)

    # position of the fourth curve: the constant branch 8 occupies the
    # fourth distinct position throughout the region where the first four
    # curves are separated (up to the first crossing at 2/9); past a
    # crossing the ascending order permutes the curves, so the position
    # check is scoped to where the two orderings provably agree
    for j in range(1, 21):
        x = Fraction(2, 9) * Fraction(j, 21)
        assert distinct_spectrum_at(x, 5)[4][0] == Fraction(8)
    assert slot_value_at(4, Fraction(1, 100)) == Fraction(8)

    # all eleven positions at x = 1/100
    x = Fraction(1, 100)
    values = [v for v, _ in distinct_spectrum_at(x, 12)]
    for j in range(1, 12):
        assert values[j] == slot_value_at(j, x)


def test_criterion_04_epsilon_lambda1():
    rng = random.Random(4)
    samples = [rng.uniform(0.05, 3.0) for _ in range(48)] + [0.2, 3.0]
    boundary = 1 / math.sqrt(6)
    for eps in samples:
        want = 8.0 if eps <= boundary else 2.0 + 1.0 / (eps * eps)
        assert epsilon_lambda1(eps) == pytest.approx(want, rel=1e-12)
        # and the value really is the scaling pipeline's output
        t = eps ** (2 / 3)
        assert epsilon_lambda1(eps) == pytest.approx(tanno_lambda1(t) / t, rel=1e-12)


def test_criterion_05_cp2_theorem():
    floor = 4 + 2 * math.sqrt(3) - 1.5 - 1e-9
    for i in range(10000):
        r = 10 ** (-3 + 6 * i / 9999)
        rep = slice_index_nullity(cp2_slice(r), 8)
        assert (rep.index, rep.nullity) == (1, 0)
        assert cp2_lambda1(r) - 1.5 >= floor
    # exact rational values before any float conversion
    assert cp2_lambda1_exact(Fraction(1)) == Fraction(8)
    assert cp2_lambda1_exact(Fraction(5)) == Fraction(48, 5)
    assert cp2_lambda1(1.0) == pytest.approx(8.0, rel=1e-12)
    assert cp2_lambda1(math.sqrt(5.0)) == pytest.approx(9.6, rel=1e-12)
    # the default-depth entry point agrees
    rep = cp2_index_nullity(1.0)
    assert (rep.index, rep.nullity) == (1, 0)


def test_criterion_06_page_roots():
    r1, r2 = page_transition_roots(1e-6)  # raises if the count is not two
    assert abs(r1 - 0.7032761573791504) <= 1e-3
    assert abs(r2 - 2.4383171081542976) <= 1e-3
    assert 0 < r1 < r2 < math.pi


def test_criterion_07_page_profile():
    consts = page_constants()
    r1, r2 = page_transition_roots(1e-6, consts)
    shift = consts.shift
    for k in range(1, 512):
        r = k * math.pi / 512
        rep = page_index_nullity(r, depth=8, constants=consts)
        expected = 5 if r1 < r < r2 else 1
        assert rep.index == expected, f"index {rep.index} != {expected} at r={r}"
        assert rep.nullity == 0, f"spurious nullity at grid point r={r}"
        # second nonzero shifted eigenvalue stays positive: the index never
        # exceeds 1 + 4
        entries = slice_spectrum(page_slice(r, consts), 3)
        assert entries[2].value - shift > 0
    for r in (r1, r2):
        rep = page_index_nullity(r, zero_tolerance=1e-5, constants=consts)
        assert rep.nullity == 4, f"nullity {rep.nullity} != 4 at certified root {r}"
        assert rep.index == 1


def test_criterion_08_einstein_anchors():
    consts = page_constants()
    assert 12.95 <= 12 * (1 + consts.a**2) <= 12.96
    rng = random.Random(8)
    for _ in range(50):
        r = rng.uniform(1e-3, math.pi - 1e-3)
        lhs = math.sqrt(consts.C / consts.V(r))
        rhs = consts.D / consts.U(r)
        assert abs(lhs - rhs) <= 1e-12


def test_criterion_09_instability():
    rng = random.Random(9)
    ambients = [CP2_AMBIENT, page_constants().ambient()]
    for i in range(100):
        ambients.append(
            EinsteinAmbient(
                n=rng.randint(2, 8),
                s=rng.uniform(0.1, 60.0),
                validity="hypersurface" if i % 2 else "constant-curvature",
            )
        )
    for amb in ambients:
        verdict = is_unstable(amb)
        assert verdict.unstable
        shift = jacobi_shift(amb)
        assert verdict.certificate == pytest.approx(-shift, rel=1e-15)
        # the certificate is realized: any spectrum with 0 (x1) yields index >= 1
        spec = [SpectrumEntry(0.0, 1), SpectrumEntry(shift + 1.0, 4)]
        rep = index_nullity(jacobi_spectrum(spec, shift), 1e-9)
        assert rep.index >= 1
    # and the two concrete families realize it with their true spectra
    assert cp2_index_nullity(1.0).index >= 1
    assert page_index_nullity(1.0).index >= 1


def test_criterion_10_scaling_law():
    rng = random.Random(10)
    for _ in range(30):
        values = [0.0]
        for _ in range(rng.randint(2, 8)):
            values.append(values[-1] + rng.uniform(0.3, 5.0))
        spec = [SpectrumEntry(v, rng.randint(1, 5)) for v in values]
        shift = rng.uniform(-3.0, 3.0)
        if any(abs(v - shift) < 1e-2 for v in values):
            shift += 0.02
        base = index_nullity(jacobi_spectrum(spec, shift), 1e-9)
        for mu in (0.25, 1.0, 4.0, 10.0):
            scaled = scale_spectrum(spec, mu)
            # exact division, entry by entry
            for e, o in zip(scaled, spec):
                assert e.value == o.value / mu
                assert e.multiplicity == o.multiplicity
            rep = index_nullity(jacobi_spectrum(scaled, shift / mu), 1e-9)
            assert (rep.index, rep.nullity) == (base.index, base.nullity)


def test_criterion_11_complex_curves():
    for d, c_self in ((1, 1), (2, 4), (3, 9)):
        assert adjunction_genus(c_self, 3 * d) == (d - 1) * (d - 2) // 2
    assert adjunction_genus(1, 3) == 0
    assert adjunction_genus(4, 6) == 0
    assert adjunction_genus(9, 9) == 1
    assert complex_curve_index_nullity("degree-1") == (0, 1)
    assert complex_curve_index_nullity("degree-2") == (0, 4)
    assert complex_curve_index_nullity("linear") == (0, 1)
