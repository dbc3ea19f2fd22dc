"""Exact Laplace spectrum of the unit-volume Berger 3-sphere family.

The family is g_B^t = t^{-1} g_1 + (t^2 - t^{-1}) sigma_3^2 for t > 0,
where g_1 is the unit round metric on the 3-sphere.  Eigenmodes are
labelled by pairs (k, q) with 0 <= q <= k and q = k (mod 2); the mode
eigenvalue is

    t * (k(k+2) - q^2) + t^{-2} * q^2  =  t * (A + B x),

with A = k(k+2) - q^2, B = q^2 and x = t^{-3}.  After division by t every
branch is affine in x with non-negative integer coefficients, so sorting
the spectrum reduces to an exact lower-envelope computation over a family
of lines.  The i-th smallest value as a function of x is the i-th level of
that line arrangement; `kth_distinct_piecewise` walks it from line to line
in integer arithmetic (the k-level walk of Edelsbrunner and Welzl, 1986).
All branch arithmetic below is done with integers or fractions.Fraction;
floating point enters only through the final multiplication by t.

Three one-parameter families of branches recur when the spectrum is
sorted: gamma_n = mode (n, n) with A = 2n, B = n^2; alpha_k = mode (k, 1)
for odd k with A = k^2 + 2k - 1, B = 1; and beta_l = mode (l, 0) for even
l with A = l(l+2), B = 0.
"""

from __future__ import annotations

import heapq
import math
import sys
from collections.abc import Iterable
from fractions import Fraction


class _Record:
    """An immutable record of the fields named in the class's `_fields`.

    It behaves as a frozen dataclass of those fields would: repr
    Name(field=value, ...), == only between instances of one class,
    comparing the field tuples, hash of the field tuple, AttributeError on
    assignment or deletion, and `replace`.  A subclass's __init__ checks
    its arguments and stores them with self.__dict__.update, the one write
    a record allows.  The records are not dataclasses because importing
    `dataclasses` (with `inspect`) costs every cold process about 10 ms.
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        fields = ", ".join([f"{n}={v!r}" for n, v in zip(self._fields, self._values())])
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes: object) -> _Record:
        """A copy with the named fields changed, built and checked by __init__."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))


class Mode(_Record):
    """Eigenmode label (k, q) of the Berger sphere Laplacian."""

    _fields = ("k", "q")

    def __init__(self, k: int, q: int) -> None:
        if type(k) is not int or type(q) is not int:  # a bool is not an index
            raise ValueError(f"mode indices must be integers, got ({k!r}, {q!r})")
        if k < 0 or q < 0 or q > k:
            raise ValueError(f"mode requires 0 <= q <= k, got (k={k}, q={q})")
        if (k - q) % 2 != 0:
            raise ValueError(f"mode requires q = k (mod 2), got (k={k}, q={q})")
        self.__dict__.update(k=k, q=q)

    @property
    def A(self) -> int:
        return self.k * (self.k + 2) - self.q * self.q

    @property
    def B(self) -> int:
        return self.q * self.q

    def label(self) -> str:
        return f"({self.k},{self.q})"


def _known_mode(k: int, q: int) -> Mode:
    """Mode(k, q) for a pair the caller generated valid, without re-checking it."""
    mode = object.__new__(Mode)
    mode.__dict__.update(k=k, q=q)
    return mode


class AffineBranch(_Record):
    """A branch coefficient A + B*x of the spectrum, affine in x = t^{-3}."""

    _fields = ("A", "B", "source")

    def __init__(self, A: int, B: int, source: Mode | None = None) -> None:
        self.__dict__.update(A=A, B=B, source=source)

    def value_at(self, x: int | Fraction | str) -> Fraction:
        return Fraction(self.A) + Fraction(self.B) * Fraction(x)

    def label(self) -> str:
        return self.source.label() if self.source is not None else f"A={self.A},B={self.B}"


class SpectrumEntry(_Record):
    """One eigenvalue with multiplicity and its source: the first mode attaining it, if known."""

    _fields = ("value", "multiplicity", "source")

    def __init__(self, value: float, multiplicity: int, source: Mode | None = None) -> None:
        _check_count(multiplicity, "multiplicity")
        self.__dict__.update(value=value, multiplicity=multiplicity, source=source)


def branch_of(mode: Mode) -> AffineBranch:
    return AffineBranch(mode.A, mode.B, mode)


def gamma_branch(n: int) -> AffineBranch:
    """Branch of mode (n, n): A = 2n, B = n^2."""
    return branch_of(Mode(n, n))


def alpha_branch(k: int) -> AffineBranch:
    """Branch of mode (k, 1) for odd k: A = k^2 + 2k - 1, B = 1."""
    if k % 2 != 1:
        raise ValueError(f"alpha branch requires odd k, got {k}")
    return branch_of(Mode(k, 1))


def beta_branch(l: int) -> AffineBranch:
    """Branch of mode (l, 0) for even l: A = l(l+2), B = 0."""
    if l % 2 != 0:
        raise ValueError(f"beta branch requires even l, got {l}")
    return branch_of(Mode(l, 0))


def _multiplicity(mode: tuple[int, int]) -> int:
    """Multiplicity of the mode (k, q): k+1 for q = 0, else 2(k+1).

    The round-sphere totals fix the rule: at t = 1 the modes of one k sum to the
    harmonic dimension (k+1)^2, and each q > 0 carries the two circle-weight signs.
    """
    k, q = mode
    return k + 1 if q == 0 else 2 * (k + 1)


def _as_positive_fraction(x: int | Fraction | str, name: str) -> Fraction:
    try:
        value = Fraction(x)
    except (ValueError, OverflowError, ZeroDivisionError):  # NaN, inf, "inf", "1/0"
        raise ValueError(f"{name} must be a finite rational, got {x!r}") from None
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {_exact_text(value, name)}")
    return value


def _exact_text(value: Fraction, name: str) -> str:
    """str(value), or a ValueError naming `name` if a term passes the int-to-str digit limit."""
    try:
        return str(value)
    except ValueError:  # the limit is interpreter-wide, so it is not raised here
        digits = sys.get_int_max_str_digits()
        raise ValueError(f"{name} needs more than {digits} digits to print exactly") from None


def _check_positive(value: float, name: str) -> None:
    if not (math.isfinite(value) and value > 0):  # NaN fails both
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _check_count(count: int, name: str = "count") -> None:
    if type(count) is not int or count < 1:  # a bool is not a count
        raise ValueError(f"{name} must be a positive integer, got {count!r}")


def _modes(P: int, Q: int, count: int) -> list[tuple[int, int, int]]:
    """Every mode (n, k, q) of the `count` smallest distinct values n/Q at x = P/Q.

    Ordered by n, then k, then q (one k ties only at x = 1); P/Q need not be in
    lowest terms.  A heap merges, in integers, the q-columns: column q is the
    modes (k, q), k = q, q + 2, ..., whose numerators k(k+2) Q + q^2 (P - Q)
    rise by (4k + 8) Q per step.  Column q + 1 starts above column q and opens
    when column q's first mode leaves, so the heap holds one entry per column
    that has returned a mode, plus one.  A mode costs one sift and is the entry it pops.
    This is the one merge: each caller reads the modes flat, in one pass.
    """
    step, head, rise = 4 * Q, Q + Q + P, P + P  # column q + 1 starts head + q * rise above column q
    heapreplace, heappush = heapq.heapreplace, heapq.heappush
    heap = [(0, 0, 0)]  # (n, k, q), distinct: a tie in (n, k) needs x = 1
    modes: list[tuple[int, int, int]] = []
    append = modes.append
    last = -1  # numerators are non-negative
    while True:
        num, k, q = heap[0]
        if num != last:
            if not count:
                return modes
            count -= 1
            last = num
        append(heapreplace(heap, (num + step * (k + 2), k + 2, q)))
        if k == q:  # column q + 1 opens
            heappush(heap, (num + head + q * rise, q + 1, q + 1))


def _round_columns(count: int) -> tuple[list[int], list[str], list[str], list[str], list[int]]:
    """The `count` values at x = 1 as columns: numerators, A, B, labels, multiplicities.

    At x = 1 value k is k(k+2), attained by the modes (k, q) for
    q = k mod 2, ..., k ascending, as `_modes(1, 1, count)` orders them: so A is
    k(k+2) - (k mod 2), B is k mod 2 and the multiplicity is (k+1)^2.  No
    mode is built: one list of the texts of 0..count-1 serves every label,
    so a label costs one join over a slice of it.
    """
    ks = range(count)
    nums = [k * (k + 2) for k in ks]
    qs = list(map(str, ks))
    return (
        nums,
        [str(m - (k & 1)) for k, m in zip(ks, nums)],
        [qs[k & 1] for k in ks],
        [f"({k}," + f")+({k},".join(qs[k & 1 : k + 1 : 2]) + ")" for k in ks],
        [(k + 1) * (k + 1) for k in ks],
    )


def _spectrum_columns(x: Fraction, count: int) -> tuple:
    """`_round_columns`' columns at x: its closed form at x = 1, else one pass over `_modes`.

    A value's first mode opens its row; a later mode of it extends the label and multiplicity.
    The multiplicities cost one add per mode and always come back; `handle_berger` decides whether to print them.
    """
    if x == 1:
        return _round_columns(count)
    nums, As, Bs, labels, mults = [], [], [], [], []
    last = -1
    for n, k, q in _modes(x.numerator, x.denominator, count):
        m = k + 1 if q == 0 else 2 * k + 2  # `_multiplicity`, inline: no call per mode
        if n != last:
            last = n
            nums.append(n)
            As.append(str(k * (k + 2) - q * q))
            Bs.append(str(q * q))
            labels.append(f"({k},{q})")
            mults.append(m)
        else:
            labels[-1] += f"+({k},{q})"
            mults[-1] += m
    return nums, As, Bs, labels, mults


def distinct_spectrum_at(
    x: int | Fraction | str, count: int
) -> list[tuple[Fraction, list[Mode]]]:
    """The `count` smallest distinct branch values A + B*x, exactly.

    Each value carries every mode attaining it, ordered by k, and at x = 1
    by q ascending.  They come from one integer merge (`_modes`), at one
    heap sift per mode, on a heap of one entry per q-column that has
    returned a mode, plus one; the modes are grouped by numerator as they arrive.
    """
    xf = _as_positive_fraction(x, "x")
    _check_count(count)
    Q = xf.denominator
    groups: dict[int, list[Mode]] = {}
    for n, k, q in _modes(xf.numerator, Q, count):
        groups.setdefault(n, []).append(_known_mode(k, q))
    return [(Fraction(n, Q), modes) for n, modes in groups.items()]


def spectrum_with_multiplicity(
    x: int | Fraction | str, count: int
) -> list[tuple[Fraction, int, list[Mode]]]:
    """Like distinct_spectrum_at, adding the total multiplicity per value."""
    return [
        (value, sum([_multiplicity((m.k, m.q)) for m in modes]), modes)
        for value, modes in distinct_spectrum_at(x, count)
    ]


def branch_crossing(b1: AffineBranch, b2: AffineBranch) -> Fraction | None:
    """The unique x > 0 where the two branch lines meet, or None.

    Parallel distinct lines and crossings at x <= 0 give None; identical
    lines are rejected.
    """
    if (b1.A, b1.B) == (b2.A, b2.B):
        raise ValueError(f"identical branches A={b1.A}, B={b1.B} have no crossing")
    if b1.B == b2.B:
        return None
    x = Fraction(b2.A - b1.A, b1.B - b2.B)
    return x if x > 0 else None


class PiecewiseCell(_Record):
    """One cell (lo, hi] of a piecewise branch assignment; hi is None when unbounded."""

    _fields = ("lo", "hi", "branch")

    def __init__(self, lo: Fraction, hi: Fraction | None, branch: AffineBranch) -> None:
        self.__dict__.update(lo=lo, hi=hi, branch=branch)


def _walk_lines(
    lines: list[tuple[int, int]], i: int, x_max: Fraction
) -> list[tuple[Fraction, Fraction, int]] | None:
    """The i-th level of the distinct lines A + B*x, given as (A, B), on (0, x_max].

    Returns its cells as (lo, hi, j): line j holds the level on (lo, hi].
    None when there are fewer than i lines.  The walk runs in integers.
    """
    if len(lines) < i:
        return None
    # just right of x = 0 the lines rank by (A, B)
    cur = lines.index(sorted(lines)[i - 1])
    N, D = x_max.numerator, x_max.denominator
    p, q = 0, 1  # the walk is at x = p/q
    lo = Fraction(0)
    cells = []
    while True:
        # earliest crossing n/d of the current line in (p/q, x_max); x_max if none
        a, b = lines[cur]
        n, d = N, D
        for A, B in lines:
            if B != b:
                cn, cd = (A - a, b - B) if b > B else (a - A, B - b)
                if cn * q > p * cd and cn * d < n * cd:
                    n, d = cn, cd
        if (n, d) == (N, D):  # a crossing taken lies strictly before x_max
            cells.append((lo, x_max, cur))
            return cells
        # lines below n/d keep their ranks and the lines through it leave
        # in slope order, so position i passes to through[i - 1 - below]
        level = a * d + b * n
        below = 0
        through = []
        for j, (A, B) in enumerate(lines):
            v = A * d + B * n
            if v < level:
                below += 1
            elif v == level:
                through.append((B, j))
        through.sort()
        nxt = through[i - 1 - below][1]
        if nxt != cur:
            hi = Fraction(n, d)
            cells.append((lo, hi, cur))
            lo, cur = hi, nxt
        p, q = n, d


def _level_cells(lines: list[tuple[int, int]], i: int, x_max: Fraction) -> list[PiecewiseCell]:
    """Cells of the i-th level of at least i mode lines (A, B) on (0, x_max], with their modes."""
    cells = _walk_lines(lines, i, x_max)
    assert cells is not None, f"fewer than {i} lines"
    out = []
    for lo, hi, j in cells:
        A, B = lines[j]
        mode = _known_mode(math.isqrt(A + B + 1) - 1, math.isqrt(B))  # A + B = (k+1)^2 - 1, B = q^2
        out.append(PiecewiseCell(lo, hi, AffineBranch(A, B, mode)))
    return out


def _pool(top: int) -> list[tuple[int, int]]:
    """The lines (A, B) of the modes with 0 < A <= top, ordered by k and then by q.

    A = k(k+2) - q^2 >= 2k, so k runs to top // 2, and A = 0 only for the
    mode (0, 0).  For each k, A <= top holds exactly when
    q^2 >= k(k+2) - top, so q runs from the ceiling square root of that
    bound, moved up to the parity of k, to k.  No mode above top is listed.
    """
    pool = []
    for k in range(1, top // 2 + 1):
        s = k * (k + 2)
        first = math.isqrt(s - top - 1) + 1 if s > top else 0
        # a plain loop: no comprehension frame per k
        for q in range(first + ((first ^ k) & 1), k + 1, 2):
            pool.append((s - q * q, q * q))
    return pool


def kth_distinct_piecewise(i: int, x_max: int | Fraction | str) -> list[PiecewiseCell]:
    """Partition of (0, x_max] realizing the i-th smallest distinct value.

    Position i counts nonzero distinct values; the constant mode (0, 0) is
    excluded.  On each open cell interior the stated branch attains the
    i-th distinct value A + B*x; adjacent cells meet at exact rational
    breakpoints.  At a breakpoint where two branch values collide, the
    number of distinct values drops by one for that single x, so the i-th
    distinct value jumps there; the cell branch reports the two-sided
    limit instead.

    The pool of lines is fixed in one pass.  Let top be the i-th nonzero
    line value at x_max = P/Q, n/Q for mode i of one integer merge
    (`_modes`) of i + 1 values.  Every line is nondecreasing in x, so a
    line with A > top lies strictly above the level on (0, x_max].  `_pool`
    lists every line with 0 < A <= n // Q as (A, B) pairs, from one
    `isqrt` bound per k <= top/2: O(pool) integer operations for
    O(top log top) lines, and no record.

    The cells come from the walk along the i-th level of the pool
    (`_walk_lines`, through `_level_cells`): from the current line, jump to
    its earliest crossing, rank the lines there by integer
    cross-multiplication and continue on the line at position i.  A step
    costs O(pool) integer comparisons; there is one per breakpoint, plus
    one per point where three or more lines meet and the level keeps its
    line.  Records are built only for the cells returned.
    """
    _check_count(i, "position")
    xm = _as_positive_fraction(x_max, "x_max")
    Q = xm.denominator
    top = _modes(xm.numerator, Q, i + 1)[i][0] // Q  # mode 0 is the constant mode (0, 0)
    return _level_cells(_pool(top), i, xm)  # the i lines at or below top at x_max are in it


# The lines (A, B) of the twelve curves gamma_1..gamma_9, alpha_3, beta_2 and
# beta_4, ranked just right of x = 0 by (A, B), as _walk_lines ranks lines.
_SLOT_CURVES = sorted(
    (br.A, br.B)
    for br in [*map(gamma_branch, range(1, 10)), alpha_branch(3), beta_branch(2), beta_branch(4)]
)


def _slot_curves(slot: int, name: str) -> list[tuple[int, int]]:
    """The lines of the curves ranked slot..12, whose lower envelope is table slot `slot`."""
    if type(slot) is not int or not 1 <= slot < len(_SLOT_CURVES):  # a bool or a float is not a slot
        raise ValueError(f"{name} must be in 1..{len(_SLOT_CURVES) - 1}, got {slot!r}")
    return _SLOT_CURVES[slot - 1 :]


def _slot_cells(slot: int, x_max: Fraction, name: str = "slot") -> list[PiecewiseCell]:
    """Table slot `slot` on (0, x_max]: the first level of the curves ranked slot..12."""
    return _level_cells(_slot_curves(slot, name), 1, x_max)


def eleven_slot_table() -> list[list[PiecewiseCell]]:
    """The conventional eleven-curve table of the low spectrum.

    Rank the curves gamma_1..gamma_9, alpha_3, beta_2 and beta_4 by (A, B),
    their order just right of x = 0.  Slot j is the lower envelope of the
    curves ranked j..12, walked as the first level of their lines
    (`_level_cells`), so it keeps its curve across a crossing with a curve
    ranked above it: slots differ from distinct-value positions wherever
    two curves have crossed.

    The walk runs to x = max A = 24: two curves with different B cross at
    |dA|/|dB| < max A, so every breakpoint lies before it.  Each slot ends
    on a beta line (B = 0), a constant that is the least of its curves at
    the bound, while every other curve is nondecreasing; so that last cell
    extends to infinity, and its hi is None.
    """
    x_max = Fraction(max(A for A, _ in _SLOT_CURVES))
    table = []
    for j in range(1, len(_SLOT_CURVES)):
        *cells, last = _slot_cells(j, x_max)
        assert last.branch.B == 0, f"slot {j} ends on {last.branch.label()}, not a beta line"
        table.append([*cells, last.replace(hi=None)])
    return table


def slot_value_at(slot: int, x: int | Fraction | str) -> Fraction:
    """Coefficient value of table slot `slot` (1-based) at x: the least of its curves."""
    xf = _as_positive_fraction(x, "x")
    return min(A + B * xf for A, B in _slot_curves(slot, "slot"))


def tanno_lambda1(t: float) -> float:
    """First nonzero eigenvalue of g_B^t.

    Equals t(2 + t^{-3}) while t^{-3} <= 6 (mode (1,1)) and 8t beyond
    (mode (2,0)); the two branches agree at t^{-3} = 6.
    """
    _check_positive(t, "squash parameter t")
    x = t ** -3 if t > 1e-100 else math.inf  # t^-3 overflows a float below about 1e-103
    return t * (2 + x) if x <= 6 else 8 * t


def scale_spectrum(entries: Iterable[SpectrumEntry], mu: float) -> list[SpectrumEntry]:
    """Rescale eigenvalues for a metric scaled by mu: values divide by mu."""
    _check_positive(mu, "scale factor")
    return [e.replace(value=e.value / mu) for e in entries]


def epsilon_lambda1(eps: float) -> float:
    """First nonzero eigenvalue of g_eps = sigma_1^2 + sigma_2^2 + eps^2 sigma_3^2.

    Routed through the identification g_eps = eps^{2/3} g_B^t with
    t = eps^{2/3}, then unscaled by mu = eps^{2/3}: eigenvalues of a
    metric mu*g are those of g divided by mu.  The result equals 8 for
    eps <= 1/sqrt(6) and 2 + 1/eps^2 above.
    """
    _check_positive(eps, "epsilon")
    t = eps ** (2.0 / 3.0)
    return tanno_lambda1(t) / t
