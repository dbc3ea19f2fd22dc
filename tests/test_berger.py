"""Exact-engine tests: modes, branch arithmetic, envelopes, Tanno forms."""

import contextlib
import csv
import heapq
import io
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergerspec import berger
from bergerspec.berger import (
    AffineBranch,
    Mode,
    PiecewiseCell,
    SpectrumEntry,
    _pool,
    alpha_branch,
    beta_branch,
    branch_crossing,
    branch_of,
    distinct_spectrum_at,
    eleven_slot_table,
    epsilon_lambda1,
    gamma_branch,
    kth_distinct_piecewise,
    scale_spectrum,
    slot_value_at,
    spectrum_with_multiplicity,
    tanno_lambda1,
)
from bergerspec.cli import main
from bergerspec.page import page_slice
from bergerspec.slices import cp2_slice
from oracles import (
    enumerate_modes,
    heat_trace_error,
    kernel_dimension,
    laplacian_on_polynomials,
    mode_multiplicity,
    mode_value,
)


def test_mode_validation():
    Mode(0, 0)
    Mode(5, 3)
    with pytest.raises(ValueError):
        Mode(2, 3)  # q > k
    with pytest.raises(ValueError):
        Mode(3, 2)  # parity
    with pytest.raises(ValueError):
        Mode(-1, 1)
    with pytest.raises(ValueError):
        Mode(2, -2)


def test_family_coefficients():
    for n in range(1, 10):
        b = gamma_branch(n)
        assert (b.A, b.B) == (2 * n, n * n)
    for k in range(1, 10, 2):
        b = alpha_branch(k)
        assert (b.A, b.B) == (k * k + 2 * k - 1, 1)
    for l in range(0, 10, 2):
        b = beta_branch(l)
        assert (b.A, b.B) == (l * (l + 2), 0)
    with pytest.raises(ValueError):
        alpha_branch(2)
    with pytest.raises(ValueError):
        beta_branch(3)


def test_mode_value_round_point():
    # at t = 1 every mode gives the round eigenvalue k(k+2)
    for m in enumerate_modes(6):
        assert mode_value(m, 1.0) == pytest.approx(m.k * (m.k + 2))
    with pytest.raises(ValueError):
        mode_value(Mode(1, 1), 0.0)
    with pytest.raises(ValueError):
        mode_value(Mode(1, 1), -2.0)


def test_multiplicity_totals():
    # fixed k must recover the round harmonic dimension (k+1)^2
    for k in range(0, 21):
        total = sum(
            mode_multiplicity(m) for m in enumerate_modes(k) if m.k == k
        )
        assert total == (k + 1) ** 2
    assert mode_multiplicity(Mode(4, 0)) == 5
    assert mode_multiplicity(Mode(4, 2)) == 10


def test_enumerate_modes():
    assert [(m.k, m.q) for m in enumerate_modes(1)] == [(0, 0), (1, 1)]
    assert [(m.k, m.q) for m in enumerate_modes(2)] == [(0, 0), (1, 1), (2, 0), (2, 2)]
    assert len(enumerate_modes(3)) == 6
    with pytest.raises(ValueError):
        enumerate_modes(-1)


def _assert_valid_modes(modes):
    for m in modes:
        assert type(m.k) is int and type(m.q) is int
        assert 0 <= m.q <= m.k and (m.k - m.q) % 2 == 0
        assert m == Mode(m.k, m.q)  # the validating constructor accepts it


@settings(max_examples=100, deadline=None)
@given(
    num=st.integers(min_value=1, max_value=10**6),
    den=st.integers(min_value=1, max_value=10**6),
    count=st.integers(min_value=1, max_value=40),
    k_max=st.integers(min_value=0, max_value=30),
)
def test_generated_modes_are_valid(num, den, count, k_max):
    # both build their modes without re-running Mode's checks
    _assert_valid_modes(m for _, modes in distinct_spectrum_at(Fraction(num, den), count) for m in modes)
    _assert_valid_modes(enumerate_modes(k_max))


def test_distinct_spectrum_round_point():
    got = [(v, m) for v, m, _ in spectrum_with_multiplicity(1, 5)]
    assert got == [(0, 1), (3, 4), (8, 9), (15, 16), (24, 25)]


def test_distinct_spectrum_near_round():
    values = [v for v, _ in distinct_spectrum_at(Fraction(1, 100), 12)]
    assert values == [
        Fraction(0),
        Fraction(201, 100),
        Fraction(101, 25),
        Fraction(609, 100),
        Fraction(8),
        Fraction(204, 25),
        Fraction(41, 4),
        Fraction(309, 25),
        Fraction(1401, 100),
        Fraction(1449, 100),
        Fraction(416, 25),
        Fraction(1881, 100),
    ]


def test_distinct_spectrum_collapse_limit():
    # large x: only the q = 0 tower stays low
    values = [v for v, _ in distinct_spectrum_at(10**6, 5)]
    assert values == [0, 8, 24, 48, 80]


def test_distinct_spectrum_validation():
    with pytest.raises(ValueError):
        distinct_spectrum_at(0, 3)
    with pytest.raises(ValueError):
        distinct_spectrum_at(-1, 3)
    with pytest.raises(ValueError):
        distinct_spectrum_at(1, 0)


@pytest.mark.parametrize(
    "value", [float("inf"), float("nan"), "inf", "1/0"], ids=["inf", "nan", "'inf'", "'1/0'"]
)
@pytest.mark.parametrize(
    "name, call",
    [
        ("x", lambda v: distinct_spectrum_at(v, 3)),
        ("x_max", lambda v: kth_distinct_piecewise(1, v)),
        ("x", lambda v: berger.slot_value_at(1, v)),
    ],
    ids=["distinct_spectrum_at", "kth_distinct_piecewise", "slot_value_at"],
)
def test_non_rational_parameters_are_named(name, call, value):
    # Fraction() raises OverflowError, ValueError or ZeroDivisionError on these
    with pytest.raises(ValueError, match=f"^{name} must be a finite rational, got {value!r}$"):
        call(value)


@pytest.mark.parametrize("count", [2.5, "3", True])  # bool subclasses int
def test_distinct_spectrum_rejects_non_integer_count(count):
    with pytest.raises(ValueError, match="count must be a positive integer"):
        distinct_spectrum_at(2, count)


def _distinct_spectrum_oracle(x: Fraction, v: Fraction) -> list[tuple[Fraction, list[Mode]]]:
    """Every distinct value up to v by full enumeration, modes in scan order.

    A + B x = k(k+2) - q^2 (1 - x) >= 2k + k^2 min(x, 1), which bounds the
    k that can reach v.
    """
    k_max = 0
    while 2 * (k_max + 1) + (k_max + 1) ** 2 * min(x, 1) <= v:
        k_max += 1
    groups: dict[Fraction, list[Mode]] = {}
    for m in enumerate_modes(k_max):
        value = m.A + m.B * x
        if value <= v:
            groups.setdefault(value, []).append(m)
    order = (lambda m: (m.k, m.q)) if x >= 1 else (lambda m: (m.k, -m.q))
    return [(value, sorted(groups[value], key=order)) for value in sorted(groups)]


_SWEEP_X = st.one_of(
    st.fractions(min_value=Fraction(1, 60), max_value=Fraction(59, 60), max_denominator=60),
    st.just(Fraction(1)),
    st.fractions(min_value=Fraction(61, 60), max_value=60, max_denominator=60),
    st.floats(min_value=1e-3, max_value=1e3).map(lambda r: cp2_slice(r).x),
    st.floats(min_value=1e-2, max_value=3.13).map(lambda r: page_slice(r).x),
)


@settings(max_examples=150, deadline=None)
@given(x=_SWEEP_X, count=st.integers(min_value=1, max_value=60))
def test_distinct_spectrum_matches_enumeration(x, count):
    got = distinct_spectrum_at(x, count)
    assert len(got) == count
    assert got == _distinct_spectrum_oracle(x, got[-1][0])


def test_distinct_spectrum_work_is_output_bounded(monkeypatch):
    # every Mode built is a mode returned: no value bound, no second pass
    built = []
    build = berger._known_mode  # the sweep's mode constructor

    def counting_mode(k, q):
        built.append((k, q))
        return build(k, q)

    monkeypatch.setattr(berger, "_known_mode", counting_mode)
    for x, count in ((cp2_slice(1e3).x, 25), (Fraction(1), 200)):
        built.clear()
        got = distinct_spectrum_at(x, count)
        assert len(got) == count
        assert len(built) == sum(len(modes) for _, modes in got)


def _merge_oracle(P: int, Q: int, count: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """The first `count` values n/Q at x = P/Q with their modes, by brute force: [(n, [(k, q), ...]), ...].

    Every mode (k, q) up to a k bound with its exact numerator
    A Q + B P, grouped by numerator and ordered by numerator, then k, then
    q (ascending for P >= Q, descending for P < Q).  The modes (k, k mod 2)
    and (k, k) with k <= 2 count give at least count + 1 distinct numerators,
    so the count-th smallest of them bounds the answer, and
    A Q + B P >= 2kQ + k^2 min(P, Q) bounds the k that can reach it.  (With
    k <= 2 count the even streams alone give count values, which keeps the
    bound tight at large x, where every odd stream starts near P/Q.)
    """

    def num(k: int, q: int) -> int:
        return (k * (k + 2) - q * q) * Q + q * q * P

    bound = sorted({num(k, q) for k in range(2 * count + 1) for q in (k % 2, k)})[count - 1]
    k_max = 0
    while 2 * (k_max + 1) * Q + (k_max + 1) ** 2 * min(P, Q) <= bound:
        k_max += 1
    groups: dict[int, list[tuple[int, int]]] = {}
    for k in range(k_max + 1):
        for q in range(k % 2, k + 1, 2):
            groups.setdefault(num(k, q), []).append((k, q))
    sign = 1 if P >= Q else -1
    return [
        (n, sorted(groups[n], key=lambda m: (m[0], sign * m[1])))
        for n in sorted(groups)[:count]
    ]


def _check_merge(P: int, Q: int, counts) -> None:
    oracle = _merge_oracle(P, Q, max(counts))
    grouped = [(Fraction(n, Q), [Mode(k, q) for k, q in pairs]) for n, pairs in oracle]
    for count in counts:
        assert berger._modes(P, Q, count) == [(n, k, q) for n, pairs in oracle[:count] for k, q in pairs]
        assert distinct_spectrum_at(Fraction(P, Q), count) == grouped[:count]


# x = 1, also as 2/2, 7/7 and 10^6/10^6; x = 1 +- 1/Q; x far from 1 on both sides
@pytest.mark.parametrize(
    "P, Q",
    [(1, 1), (2, 2), (7, 7), (10**6, 10**6)]
    + [(2, 1), (3, 2), (1, 2), (8, 7), (6, 7), (13, 12), (11, 12), (1, 9), (9, 1)],
)
def test_merge_matches_brute_force_grouping(P, Q):
    _check_merge(P, Q, range(1, 121))


@settings(max_examples=80, deadline=None)
@given(P=st.integers(1, 40), Q=st.integers(1, 40), count=st.integers(1, 120))
def test_merge_matches_brute_force_grouping_at_random_x(P, Q, count):
    _check_merge(P, Q, [count])


# the x every index row merges at: a 53-bit float r turned into an exact P/Q
@settings(max_examples=60, deadline=None)
@given(
    x=st.one_of(
        st.floats(min_value=1e-3, max_value=1e3).map(lambda r: cp2_slice(r).x),
        st.floats(min_value=1e-2, max_value=3.13).map(lambda r: page_slice(r).x),
    ),
    count=st.integers(1, 60),
)
def test_merge_matches_brute_force_grouping_at_slice_x(x, count):
    _check_merge(x.numerator, x.denominator, [count])


# the x of cp2 radii past the range above, and of Page radii next to 0 and pi,
# where sin^2 r is small and x is far above 1
@settings(max_examples=60, deadline=None)
@given(
    x=st.one_of(
        st.floats(min_value=1e3, max_value=1e6).map(lambda r: cp2_slice(r).x),
        st.floats(min_value=1e-9, max_value=1e-2).map(lambda r: page_slice(r).x),
        st.floats(min_value=1e-9, max_value=1e-2).map(lambda d: page_slice(math.pi - d).x),
    ),
    count=st.integers(1, 60),
)
def test_merge_matches_brute_force_at_large_slice_x(x, count):
    _check_merge(x.numerator, x.denominator, [count])


class _CountingHeapq:
    """The heap functions `_modes` calls, counting calls and the largest heap seen."""

    def __init__(self):
        self.calls = {"heappush": 0, "heapreplace": 0, "heappop": 0}
        self.largest = 0

    def __getattr__(self, name):
        fn = getattr(heapq, name)

        def counted(heap, *args):
            self.calls[name] += 1
            self.largest = max(self.largest, len(heap) + (name == "heappush"))
            return fn(heap, *args)

        return counted


# r >= 49 puts the first value of column q = 1, 2 + x with x = 1 + r^2, above
# the 25th of column 0, 48 * 50: one column holds the whole depth-25 answer
@pytest.mark.parametrize("r", [49.0, 100.0, 1000.0])
def test_a_one_column_merge_keeps_two_heap_entries(monkeypatch, r):
    x = cp2_slice(r).x
    counting = _CountingHeapq()
    monkeypatch.setattr(berger, "heapq", counting)
    modes = berger._modes(x.numerator, x.denominator, 25)
    assert [(k, q) for _, k, q in modes] == [(k, 0) for k in range(0, 50, 2)]
    assert (counting.calls["heappush"], counting.calls["heappop"], counting.largest) == (1, 0, 2)


# the heap holds one entry per q-column that has returned a mode, plus the
# next column's first mode, so its largest size is the largest q returned + 2
@pytest.mark.parametrize(
    "P, Q, count",
    [(1, 1, 60), (2, 1, 60), (1, 2, 60), (13, 12, 120), (11, 12, 120), (10**6 + 1, 10**6, 50), (1, 9, 40)],
)
def test_merge_heap_holds_one_entry_per_open_column(monkeypatch, P, Q, count):
    counting = _CountingHeapq()
    monkeypatch.setattr(berger, "heapq", counting)
    top = max(q for _, _, q in berger._modes(P, Q, count))
    assert counting.largest == top + 2
    assert counting.calls["heappush"] == top + 1
    assert counting.calls["heappop"] == 0
    monkeypatch.undo()
    _check_merge(P, Q, [count])


# x = 1 +- 1/Q with Q near 2^60: every stream is a run of distinct values, none tied
@settings(max_examples=30, deadline=None)
@given(Q=st.integers(2**60 - 2**20, 2**60 + 2**20), side=st.sampled_from([1, -1]))
def test_merge_matches_brute_force_grouping_next_to_one(Q, side):
    assert len(berger._modes(Q + side, Q, 120)) == 120  # one mode per value
    _check_merge(Q + side, Q, [1, 2, 3, 5, 8, 13, 30, 60, 120])


@settings(max_examples=60, deadline=None)
@given(P=st.integers(1, 40), Q=st.integers(1, 40), c=st.integers(2, 10**6), count=st.integers(1, 120))
def test_merge_of_unreduced_pair_scales_the_reduced_one(P, Q, c, count):
    _check_merge(P, Q, [count])
    want = [(c * n, k, q) for n, k, q in berger._modes(P, Q, count)]
    assert berger._modes(c * P, c * Q, count) == want


@pytest.mark.parametrize("count", [1, 2, 3, 4, 7, 60, 201])
def test_round_columns_are_the_merge_at_one_as_text(count):
    spectrum = spectrum_with_multiplicity(1, count)  # at x = 1 the value is its numerator
    want = (
        [value.numerator for value, _, _ in spectrum],
        [str(modes[0].A) for _, _, modes in spectrum],
        [str(modes[0].B) for _, _, modes in spectrum],
        ["+".join(m.label() for m in modes) for _, _, modes in spectrum],
        [multiplicity for _, multiplicity, _ in spectrum],
    )
    assert berger._round_columns(count) == want


def _check_heat_trace(spectrum, t):
    coarse, fine = heat_trace_error(spectrum, t, 0.02), heat_trace_error(spectrum, t, 0.01)
    assert coarse < 1e-3
    assert 3 < coarse / fine < 5  # the omitted term is O(s^2)


# a generic t, a small rational t and t = 1, where `_round_columns` answers;
# each last value is past 1.5 * 10^5, where e^{-0.01 lambda} is nothing
@pytest.mark.parametrize("t, count", [("4/5", 60_000), ("0.47", 60_000), ("1", 400)])
def test_berger_table_matches_the_heat_trace_expansion(t, count):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["berger", "--t", t, "--count", str(count), "--with-multiplicity", "--precision", "17"]) == 0
    rows = csv.DictReader(l for l in out.getvalue().splitlines() if l and not l.startswith("#"))
    _check_heat_trace([(float(r["value"]), int(r["multiplicity"])) for r in rows], float(Fraction(t)))


def test_spectrum_with_multiplicity_matches_the_heat_trace_expansion():
    t = Fraction(3, 4)  # the 2,000th value t v is past 5,000
    spectrum = spectrum_with_multiplicity(1 / t**3, 2000)
    _check_heat_trace([(float(t * v), m) for v, m, _ in spectrum], float(t))


@pytest.mark.parametrize("t", [Fraction(2), Fraction(1, 2), Fraction(3, 5)])
@pytest.mark.parametrize("k", range(5))
def test_spectrum_with_multiplicity_matches_the_laplacian_on_polynomials(t, k):
    # the degree-k polynomials restrict to S^3 as the harmonics of degree
    # j = k, k - 2, ...: every value of a mode of such a degree is an
    # eigenvalue of the matrix, with the summed multiplicity of those modes
    x = 1 / t**3
    M = laplacian_on_polynomials(t, k)
    found = 0
    for v, _, modes in spectrum_with_multiplicity(x, 100):
        here = [m for m in modes if m.k <= k and (k - m.k) % 2 == 0]
        if not here:
            continue
        assert all(t * (m.A + m.B * x) == t * v for m in modes)
        dim = kernel_dimension(M, t * v)
        assert dim == sum(berger._multiplicity((m.k, m.q)) for m in here), (v, here)
        found += dim
    assert found == len(M) == math.comb(k + 3, 3)


BREAKPOINTS = [
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


def test_branch_crossings_exact():
    for b1, b2, want in BREAKPOINTS:
        assert branch_crossing(b1, b2) == want
        assert branch_crossing(b2, b1) == want


def test_branch_crossing_degenerate_cases():
    # parallel distinct lines never cross
    assert branch_crossing(beta_branch(2), beta_branch(4)) is None
    # crossing at x <= 0 is outside the domain
    assert branch_crossing(gamma_branch(1), gamma_branch(2)) is None
    with pytest.raises(ValueError):
        branch_crossing(gamma_branch(2), gamma_branch(2))


def test_piecewise_first_value():
    cells = kth_distinct_piecewise(1, 20)
    assert [(c.lo, c.hi, c.branch.A, c.branch.B) for c in cells] == [
        (0, 6, 2, 1),
        (6, 20, 8, 0),
    ]


def test_piecewise_second_value():
    cells = kth_distinct_piecewise(2, 20)
    assert [(c.lo, c.hi, c.branch.A, c.branch.B) for c in cells] == [
        (0, 1, 4, 4),
        (1, 6, 8, 0),
        (6, 20, 2, 1),
    ]


def test_piecewise_fourth_value():
    # the constant branch 8 holds position four only until the first
    # crossing at 2/9; past it the curves permute
    cells = kth_distinct_piecewise(4, 20)
    assert (cells[0].lo, cells[0].hi) == (0, Fraction(2, 9))
    assert (cells[0].branch.A, cells[0].branch.B) == (8, 0)
    assert (cells[1].branch.A, cells[1].branch.B) == (6, 9)
    for left, right in zip(cells, cells[1:]):
        assert left.hi == right.lo
        # adjacent cells tie exactly at the breakpoint
        assert left.branch.value_at(left.hi) == right.branch.value_at(left.hi)
    assert cells[-1].hi == 20


def test_piecewise_validation():
    with pytest.raises(ValueError):
        kth_distinct_piecewise(0, 10)
    with pytest.raises(ValueError):
        kth_distinct_piecewise(1, 0)


@pytest.mark.parametrize("i", [2.5, "3", True])
def test_piecewise_rejects_non_integer_position(i):
    with pytest.raises(ValueError, match=f"^position must be a positive integer, got {i!r}$"):
        kth_distinct_piecewise(i, 1)


def _level_value(x, i):
    """The i-th smallest nonzero line value A + B*x, each mode counted once.

    This is the two-sided limit the piecewise cells report: unlike the
    i-th distinct value it does not jump where two branch values collide.
    """
    return [v for v, ms in distinct_spectrum_at(x, i + 1) for _ in ms][1:][i - 1]


_PARTITIONS = {i: kth_distinct_piecewise(i, 12) for i in range(1, 6)}


@settings(max_examples=60, deadline=None)
@given(
    i=st.integers(min_value=1, max_value=5),
    num=st.integers(min_value=1, max_value=240),
    den=st.integers(min_value=1, max_value=20),
)
def test_piecewise_matches_distinct_everywhere(i, num, den):
    x = Fraction(num, den)
    if x > 12:
        x = Fraction(num, 20 * den)
    cell = next(c for c in _PARTITIONS[i] if c.lo < x <= c.hi)
    # exact at every x, breakpoints and crossings inside a cell included
    assert cell.branch.value_at(x) == _level_value(x, i)


def _level_walk(pool, i, x_max):
    """`berger._walk_lines` over the lines of the branches `pool`, each cell carrying its pool branch."""
    cells = berger._walk_lines([(br.A, br.B) for br in pool], i, x_max)
    return None if cells is None else [PiecewiseCell(lo, hi, pool[j]) for lo, hi, j in cells]


def _midpoint_partition(pool, i, x_max):
    """Brute-force oracle: cut at every pairwise crossing, rank each midpoint."""
    cuts = set()
    for a in range(len(pool)):
        for b in range(a + 1, len(pool)):
            x = branch_crossing(pool[a], pool[b])
            if x is not None and x < x_max:
                cuts.add(x)
    edges = [Fraction(0)] + sorted(cuts) + [x_max]
    cells = []
    for lo, hi in zip(edges, edges[1:]):
        mid = (lo + hi) / 2
        values = sorted({br.value_at(mid) for br in pool})
        if len(values) < i:
            return None
        target = values[i - 1]
        winner = next(br for br in pool if br.value_at(mid) == target)
        if cells and (cells[-1].branch.A, cells[-1].branch.B) == (winner.A, winner.B):
            cells[-1] = PiecewiseCell(cells[-1].lo, hi, cells[-1].branch)
        else:
            cells.append(PiecewiseCell(lo, hi, winner))
    return cells


@settings(max_examples=200, deadline=None)
@given(
    # small coefficients make three or more lines meet at one point often
    lines=st.lists(
        st.tuples(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=6)),
        min_size=1,
        max_size=14,
        unique=True,
    ),
    i=st.integers(min_value=1, max_value=15),
    x_max=st.fractions(min_value=Fraction(1, 20), max_value=20, max_denominator=30),
)
def test_level_walk_matches_midpoint_oracle(lines, i, x_max):
    pool = [AffineBranch(a, b) for a, b in lines]
    assert _level_walk(pool, i, x_max) == _midpoint_partition(pool, i, x_max)


def test_level_walk_through_a_triple_point():
    # 1 + 2x, 2 + x and 3 meet at x = 1, value 3; 4 is met at 3/2 and 2
    pool = [AffineBranch(1, 2), AffineBranch(2, 1), AffineBranch(3, 0), AffineBranch(4, 0)]
    want = {
        1: [(0, 1, 1, 2), (1, 3, 3, 0)],
        # the middle line of the pencil keeps its level through the point
        2: [(0, 2, 2, 1), (2, 3, 4, 0)],
        3: [(0, 1, 3, 0), (1, Fraction(3, 2), 1, 2), (Fraction(3, 2), 2, 4, 0), (2, 3, 2, 1)],
        4: [(0, Fraction(3, 2), 4, 0), (Fraction(3, 2), 3, 1, 2)],
    }
    for i, cells in want.items():
        got = _level_walk(pool, i, Fraction(3))
        assert [(c.lo, c.hi, c.branch.A, c.branch.B) for c in got] == cells
        assert got == _midpoint_partition(pool, i, Fraction(3))
    assert _level_walk(pool, 5, Fraction(3)) is None


def test_piecewise_walks_once_over_the_lines_below_top(monkeypatch):
    pools = []
    walk = berger._walk_lines

    def spy(lines, i, x_max):
        pools.append(lines)
        return walk(lines, i, x_max)

    monkeypatch.setattr(berger, "_walk_lines", spy)
    kth_distinct_piecewise(20, 50)
    top = _level_value(50, 20)
    assert len(pools) == 1
    want = [(m.A, m.B) for m in enumerate_modes(int(top)) if 0 < m.A <= top]
    assert sorted(pools[0]) == sorted(want)


@settings(max_examples=60, deadline=None)
@given(
    i=st.integers(min_value=1, max_value=20),
    x_max=st.fractions(min_value=Fraction(1, 1000), max_value=50, max_denominator=1000),
)
def test_piecewise_pool_is_complete(i, x_max):
    # lines with A > top never reach the level, so a strictly larger pool
    # must give the same cells
    bound = 2 * _level_value(x_max, i) + 8
    wider = [branch_of(m) for m in enumerate_modes(int(bound)) if 0 < m.A <= bound]
    assert kth_distinct_piecewise(i, x_max) == _level_walk(wider, i, x_max)


def test_pool_is_the_modes_up_to_top_in_mode_order():
    # enumerate_modes(top // 2) is a prefix of enumerate_modes(1500) for
    # top <= 3000, and A >= 2k, so filtering the one list by 0 < A <= top
    # gives [(m.A, m.B) for m in enumerate_modes(top // 2) if 0 < m.A <= top]
    low = [(m.A, m.B) for m in enumerate_modes(1500) if m.A <= 3000]
    for top in range(3001):
        assert _pool(top) == [line for line in low if 0 < line[0] <= top], top


@settings(max_examples=60, deadline=None)
@given(
    i=st.integers(min_value=1, max_value=12),
    x_max=st.fractions(min_value=0, max_value=1, max_denominator=12).filter(lambda x: x > 0),
)
def test_piecewise_matches_the_midpoint_oracle_over_the_listed_modes(i, x_max):
    # the pool listed from every mode up to top // 2, filtered by exact
    # values: apart from `_pool` and from the walk
    top = _level_value(x_max, i)
    pool = [branch_of(m) for m in enumerate_modes(int(top) // 2) if 0 < m.A <= top]
    assert kth_distinct_piecewise(i, x_max) == _midpoint_partition(pool, i, x_max)


def test_piecewise_index_twenty_to_fifty(capsys):
    # bounded work: cost grows with the number of breakpoints, so a
    # high position over a long interval stays fast enough for a unit test
    assert main(["piecewise", "--index", "20", "--xmax", "50"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l and not l.startswith("#")]
    header, *rows = csv.reader(lines)
    cells = [
        (Fraction(lo), Fraction(hi), AffineBranch(int(a), int(b)))
        for lo, hi, a, b, _ in rows
    ]
    assert header == ["lo", "hi", "A", "B", "mode"]
    assert cells[0][0] == 0 and cells[-1][1] == 50
    for (_, hi, left), (lo, _, right) in zip(cells, cells[1:]):
        assert hi == lo
        assert left.value_at(hi) == right.value_at(hi)
    for lo, hi, branch in cells:
        mid = (lo + hi) / 2
        assert branch.value_at(mid) == _level_value(mid, 20)


def test_slot_table_shape():
    table = eleven_slot_table()
    assert len(table) == 11
    # each slot's internal breakpoints are branch crossings of its cells
    for slot in table:
        for left, right in zip(slot, slot[1:]):
            assert branch_crossing(left.branch, right.branch) == left.hi
    assert slot_value_at(4, Fraction(1, 7)) == 8
    assert slot_value_at(4, 17) == 8
    assert slot_value_at(1, 3) == 5
    assert slot_value_at(1, 10) == 8
    for slot in (0, 12, True, 1.5, 2.0):  # a bool or a float is not a slot, even a whole one
        with pytest.raises(ValueError, match=rf"slot must be in 1\.\.11, got {slot!r}$"):
            slot_value_at(slot, 1)


def _typed_slot_table():
    """The eleven-slot table as it was once typed by hand: the oracle for the derived one."""

    def cell(lo, hi, branch):
        return PiecewiseCell(Fraction(lo), None if hi is None else Fraction(hi), branch)

    g, al, be = gamma_branch, alpha_branch, beta_branch
    return [
        [cell(0, 6, g(1)), cell(6, None, be(2))],
        [cell(0, 1, g(2)), cell(1, None, be(2))],
        [cell(0, Fraction(2, 9), g(3)), cell(Fraction(2, 9), None, be(2))],
        [cell(0, None, be(2))],
        [cell(0, Fraction(2, 5), g(4)), cell(Fraction(2, 5), 10, al(3)), cell(10, None, be(4))],
        [cell(0, Fraction(1, 6), g(5)), cell(Fraction(1, 6), 10, al(3)), cell(10, None, be(4))],
        [cell(0, Fraction(2, 35), g(6)), cell(Fraction(2, 35), 10, al(3)), cell(10, None, be(4))],
        [cell(0, 10, al(3)), cell(10, None, be(4))],
        [cell(0, Fraction(10, 49), g(7)), cell(Fraction(10, 49), None, be(4))],
        [cell(0, Fraction(1, 8), g(8)), cell(Fraction(1, 8), None, be(4))],
        [cell(0, Fraction(2, 27), g(9)), cell(Fraction(2, 27), None, be(4))],
    ]


_TYPED_SLOTS = _typed_slot_table()
_SLOT_BREAKPOINTS = sorted({c.hi for slot in _TYPED_SLOTS for c in slot if c.hi is not None})


def test_slot_table_is_derived_from_the_level_walk():
    assert len(_SLOT_BREAKPOINTS) == 10
    assert repr(eleven_slot_table()) == repr(_TYPED_SLOTS)


@settings(max_examples=150, deadline=None)
@given(
    slot=st.integers(min_value=1, max_value=11),
    x_max=st.one_of(
        st.fractions(min_value=0, max_value=60, max_denominator=1000).filter(lambda x: x > 0),
        st.sampled_from([*_SLOT_BREAKPOINTS, Fraction(20), Fraction(30), Fraction(48)]),
    ),
)
def test_piecewise_slot_rows_match_the_typed_table(slot, x_max):
    # the former rule: keep the cells that start below x_max, clip hi to it
    want = [
        (c.lo, x_max if (c.hi is None or c.hi > x_max) else c.hi, c.branch)
        for c in _TYPED_SLOTS[slot - 1]
        if c.lo < x_max
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["piecewise", "--slot", str(slot), "--xmax", str(x_max)]) == 0
    lines = [l for l in out.getvalue().splitlines() if l and not l.startswith("#")]
    header, *rows = csv.reader(lines)
    assert header == ["lo", "hi", "A", "B", "mode"]
    assert rows == [[str(lo), str(hi), str(br.A), str(br.B), br.label()] for lo, hi, br in want]


@settings(max_examples=150, deadline=None)
@given(
    slot=st.integers(min_value=1, max_value=11),
    x=st.one_of(
        st.fractions(min_value=0, max_value=10**4, max_denominator=1000).filter(lambda x: x > 0),
        st.sampled_from(_SLOT_BREAKPOINTS),
    ),
)
def test_slot_value_at_matches_the_typed_table(slot, x):
    cell = next(c for c in _TYPED_SLOTS[slot - 1] if c.hi is None or x <= c.hi)
    assert slot_value_at(slot, x) == cell.branch.value_at(x)


def test_tanno_lambda1():
    assert tanno_lambda1(1.0) == 3.0
    # collapse regime: 8t from the q = 0 branch
    assert tanno_lambda1(0.25) == 2.0
    t_star = 6 ** (-1 / 3)
    left = tanno_lambda1(t_star * (1 - 1e-12))
    right = tanno_lambda1(t_star * (1 + 1e-12))
    assert left == pytest.approx(right, rel=1e-9)
    assert tanno_lambda1(t_star) == pytest.approx(8 * t_star, rel=1e-12)
    # t^-3 overflows a float here, and x is far past 6
    assert tanno_lambda1(1e-110) == 8 * 1e-110
    with pytest.raises(ValueError):
        tanno_lambda1(0.0)


def test_tanno_matches_engine_coefficient():
    rng = random.Random(7)
    for _ in range(40):
        t = rng.uniform(0.05, 5.0)
        x = 1 / Fraction(t) ** 3
        coeff = distinct_spectrum_at(x, 2)[1][0]
        want = 2 + x if x <= 6 else Fraction(8)
        assert coeff == want
        assert tanno_lambda1(t) == pytest.approx(t * float(coeff), rel=1e-12)


def test_epsilon_lambda1():
    assert epsilon_lambda1(2.0) == pytest.approx(2.25, rel=1e-12)
    assert epsilon_lambda1(0.1) == pytest.approx(8.0, rel=1e-12)
    assert epsilon_lambda1(1.0) == pytest.approx(3.0, rel=1e-12)
    assert epsilon_lambda1(1e-300) == 8.0  # t = 1e-200, past the float range of t^-3
    with pytest.raises(ValueError):
        epsilon_lambda1(0.0)


def test_scale_spectrum():
    entries = [SpectrumEntry(0.0, 1), SpectrumEntry(3.0, 4, Mode(1, 1))]
    scaled = scale_spectrum(entries, 4.0)
    assert [e.value for e in scaled] == [0.0, 0.75]
    assert [e.multiplicity for e in scaled] == [1, 4]
    assert scaled[1].source == Mode(1, 1)
    with pytest.raises(ValueError):
        scale_spectrum(entries, 0.0)
    with pytest.raises(ValueError):
        scale_spectrum(entries, -1.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
@pytest.mark.parametrize(
    "name, call",
    [
        ("squash parameter t", tanno_lambda1),
        ("epsilon", epsilon_lambda1),
        ("squash parameter t", lambda t: mode_value(Mode(1, 1), t)),
        ("scale factor", lambda mu: scale_spectrum([SpectrumEntry(0.0, 1)], mu)),
    ],
)
def test_float_parameters_must_be_finite_and_positive(name, call, value):
    # NaN and inf used to pass a `<= 0` check: tanno_lambda1(nan) gave nan,
    # epsilon_lambda1(inf) nan and scale_spectrum(..., inf) a value 0.0
    with pytest.raises(ValueError, match=f"^{name} must be finite and positive, got {value!r}$"):
        call(value)


def test_spectrum_entry_validation():
    with pytest.raises(ValueError):
        SpectrumEntry(1.0, 0)
    with pytest.raises(ValueError):
        SpectrumEntry(1.0, -3)


def test_branch_of_uniqueness():
    # distinct modes always give distinct (A, B) pairs
    seen = {}
    for m in enumerate_modes(30):
        key = (m.A, m.B)
        assert key not in seen, (m, seen[key])
        seen[key] = m
