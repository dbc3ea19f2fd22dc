"""Seeded request lists for the three benchmark workloads.

Every workload is a list of strata.  A stratum is a small, fixed set of
candidate requests of similar cost; the seed picks one candidate per
stratum and then shuffles the order.  So every seed sends the same mix of
request shapes (which keeps run-to-run cost steady across seeds) while the
actual parameters differ, and the union of all candidates is a finite
universe whose exact outputs are recorded in reference.json.

The program only ever sees the generated argv lists.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

WORKLOADS = ("piecewise", "index", "spectrum")

# exact breakpoints of the low spectrum: branch crossings of the eleven-slot table
BREAKPOINTS = (Fraction(2, 9), Fraction(6), Fraction(10))


def _rationals_in(lo: Fraction, hi: Fraction, count: int) -> list[Fraction]:
    """The `count` smallest-denominator rationals in (lo, hi], breakpoints excluded."""
    found: list[Fraction] = []
    q = 1
    while len(found) < count:
        p = lo * q // 1 + 1
        while Fraction(p, q) <= hi and len(found) < count:
            x = Fraction(p, q)
            if x.denominator == q and x not in BREAKPOINTS and x not in found:
                found.append(x)
            p += 1
        q += 1
    return sorted(found)


def _piecewise_strata() -> list[list[list[str]]]:
    """One stratum per request: a fixed --index and a narrow window for --xmax.

    The cost of a partition grows strongly with x_max and only weakly with
    i, so the seed only moves x_max within a window a few percent wide and
    every seed costs about the same.  Seven requests of about the same x_max
    sit in the middle of the mix, so the median latency falls among
    requests of one cost whatever the seed picks.
    """
    def req(i: int, lo: Fraction, hi: Fraction) -> list[list[str]]:
        return [["piecewise", "--index", str(i), "--xmax", str(x)] for x in _rationals_in(lo, hi, 4)]

    # the gamma-branch region x < 1, where branches cross most densely
    strata = []
    for j in range(5):  # below the middle: (1/24, 0.1]
        lo = (Fraction(1, 24) * Fraction(5, 4) ** j).limit_denominator(240)
        strata.append(req(8 + j, lo, lo * Fraction(21, 20)))
    for i in range(1, 8):  # the middle: x_max just above 1/8
        strata.append(req(i, Fraction(3, 25), Fraction(63, 500)))
    for j in range(6):  # above the middle: (0.16, 0.33]
        lo = (Fraction(4, 25) * Fraction(8, 7) ** j).limit_denominator(240)
        strata.append(req(7 + j, lo, lo * Fraction(21, 20)))
    # large x only with i = 1 or 2: the cost of (i=12, x=50) alone would dominate a round
    strata.append(req(1, Fraction(44), Fraction(46)))
    strata.append([["piecewise", "--index", "3", "--xmax", "2/9"]])
    strata.append([["piecewise", "--index", "2", "--xmax", x] for x in ("6", "10")])
    for xs in (("1/5", "1/3", "3/7"), ("3/2", "5/2", "7/2"), ("8", "12", "15"), ("20", "30", "48")):
        strata.append([["piecewise", "--slot", str(j), "--xmax", x] for j in range(1, 12) for x in xs])
    return strata


def _fmt(v: float) -> str:
    return f"{v:.4g}"


def _index_strata() -> list[list[list[str]]]:
    """cp2 scans per decade of r in 1e-3..1e3, page scans, single radii, roots.

    Scans keep 40 steps and narrow endpoint choices; single radii come from
    four neighbouring grid points; all eight --roots tolerances run every
    round.  So every seed costs about the same.
    """
    strata = []
    steps = "40"
    # three scans per decade below r = 1, where scans cost about the same,
    # and two above: the tail percentile falls among the cheap decades
    for d in range(-3, 3):
        for _ in range(3 if d < 0 else 2):
            cands = [
                ["index", "cp2", "--scan", _fmt(m1 * 10.0**d), _fmt(m2 * 10.0**d), steps]
                for m1 in (1.0, 1.2, 1.5)
                for m2 in (7.0, 8.5, 9.5)
            ]
            strata.append(cands)
    for los, his in (
        (("0.8", "0.9", "1"), ("2.1", "2.2", "2.3")),
        (("0.1", "0.2", "0.3"), ("2.8", "2.9", "3")),
    ):
        strata.append([["index", "page", "--scan", lo, hi, steps] for lo in los for hi in his])
    cp2_points = [_fmt(10.0 ** (k / 10 - 3)) for k in range(61)]
    page_points = [_fmt(0.05 * k) for k in range(1, 62)]
    for j in range(15):
        # each stratum owns four neighbouring grid points, of about the same cost
        strata.append([["index", "cp2", "--r", r] for r in cp2_points[4 * j:4 * j + 4]])
        strata.append([["index", "page", "--r", r] for r in page_points[4 * j:4 * j + 4]])
    tols = [f"1e-{n}" for n in range(3, 11)]
    for j in range(8):
        strata.append([["index", "page", "--roots", "--tol", t] for t in tols])
    return strata


def _berger(flag: str, value: str, counts: tuple[int, ...]) -> list[list[str]]:
    return [
        ["berger", flag, value, "--count", str(c)] + extra
        for c in counts
        for extra in ([], ["--with-multiplicity"])
    ]


def _spectrum_strata() -> list[list[list[str]]]:
    """Generic decimal t (one mode per value) make up the middle of the mix.

    Twenty of them sit between twelve cheaper requests (sphere, small
    rational t, epsilon) and four dearer ones, so the median latency falls
    among requests of one kind and one count, whatever the seed picks.
    """
    strata = []
    # t = 1 is the round sphere: (k+1)^2 modes per value, the largest output.
    # The counts share one round of the value-bound doubling in
    # distinct_spectrum_at (520 would take one more and twice the time).
    strata.append(_berger("--t", "1", (470, 485, 500)))
    for fig in ("fig1", "fig2", "fig3"):
        strata.append([["plotdata", fig]])
    below = ("0.31", "0.37", "0.43", "0.47", "0.53", "0.59", "0.67", "0.73", "0.79", "0.83", "0.89", "0.97")
    above = ("1.03", "1.13", "1.27", "1.41", "1.57", "1.73", "1.91", "2.19", "2.47", "2.71", "3.07", "3.49")
    for values in (below, above):
        for j in range(10):
            strata.append([r for t in values for r in _berger("--t", t, (1000,))])
    rationals = ("1/2", "2/3", "3/4", "4/5", "5/4", "4/3", "3/2", "2", "1/3", "3", "5/3", "3/5")
    eps = ("0.17", "0.23", "0.29", "0.37", "0.41", "0.53", "0.61", "0.77", "1.3", "1.9")
    for j in range(4):
        strata.append([r for t in rationals for r in _berger("--t", t, (300, 325, 350))])
        strata.append([r for e in eps for r in _berger("--epsilon", e, (500, 550))])
        strata.append([["sphere", "--dim", str(d), "--kmax", str(k)] for d in range(2, 9) for k in (60, 120, 240)])
    return strata


STRATA = {
    "piecewise": _piecewise_strata,
    "index": _index_strata,
    "spectrum": _spectrum_strata,
}


def generate(workload: str, seed: int) -> list[list[str]]:
    """The request list of one round: one candidate per stratum, seeded order.

    No request repeats, and piecewise strata that share an --xmax window
    differ in --index, so every (index, xmax) pair is distinct and no
    in-process cache answers a request a fresh CLI process would have to
    compute.
    """
    rng = random.Random(f"{workload}:{seed}")
    chosen: list[list[str]] = []
    for candidates in STRATA[workload]():
        chosen.append(rng.choice([c for c in candidates if c not in chosen]))
    rng.shuffle(chosen)
    return chosen


def universe(workload: str) -> list[list[str]]:
    """Every request any seed can generate for `workload`."""
    seen: dict[str, list[str]] = {}
    for candidates in STRATA[workload]():
        for c in candidates:
            seen.setdefault(request_key(c), c)
    return list(seen.values())


def request_key(argv: list[str]) -> str:
    return " ".join(argv)


def argv_digest(requests: list[list[str]]) -> str:
    """Short content hash of a request list, printed so runs can prove equal inputs."""
    return hashlib.sha256(json.dumps(requests).encode()).hexdigest()[:16]
