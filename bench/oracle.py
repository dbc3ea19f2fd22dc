"""Output checks for benchmark requests, run outside the timed region.

Each CLI output is checked two ways:

* its exact columns (branch coefficients, breakpoints, mode labels,
  multiplicities, index and nullity) must hash to the digest recorded in
  reference.json for that request at the commit that defined the
  benchmark;
* independent oracles recompute what they can: brute-force mode
  enumeration for spectra and piecewise cells (at the cell midpoint, or
  near it where the midpoint is a branch crossing), closed forms for the first
  shifted eigenvalue, the recorded Page roots for --roots and index rows.

Real columns are compared with REL_TOL (relative, with the same absolute
floor), never digested, so a change in the last float digits of a real
column is not a failure while any change in an exact column is.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from fractions import Fraction
from math import comb

from bergerspec.page import page_constants, page_shifted_lambda1
from bergerspec.slices import cp2_lambda1_exact
from workloads import request_key

REL_TOL = 1e-9

EXACT_COLUMNS = ("n", "lo", "hi", "A", "B", "mode", "multiplicity", "k", "eigenvalue", "index", "nullity")


class CheckFailed(Exception):
    """An output disagrees with the reference or an oracle."""


def parse(text: str) -> tuple[list[str], list[dict[str, str]]]:
    """CSV output without its '#' comment lines: (header, rows)."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    if not lines:
        raise CheckFailed("empty output")
    reader = csv.reader(io.StringIO("\n".join(lines)))
    header = next(reader)
    return header, [dict(zip(header, row, strict=True)) for row in reader]


def exact_digest(text: str) -> str:
    """Hash of the exact columns, in output order."""
    header, rows = parse(text)
    cols = [c for c in header if c in EXACT_COLUMNS]
    payload = "\n".join([",".join(cols)] + [",".join(r[c] for c in cols) for r in rows])
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def request_kind(argv: list[str]) -> str:
    if argv[0] == "piecewise":
        return "piecewise-index" if argv[1] == "--index" else "piecewise-slot"
    if argv[0] == "index":
        return "index-roots" if "--roots" in argv else f"index-{argv[1]}"
    if argv[0] == "plotdata":
        return f"plotdata-{argv[1]}"
    return argv[0]


def has_exact_columns(argv: list[str]) -> bool:
    """Whether the output has exact columns, and so a digest in the reference."""
    kind = request_kind(argv)
    return kind != "index-roots" and not kind.startswith("plotdata")


def _flag(argv: list[str], name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def _close(got: float, want: float, what: str) -> None:
    if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=REL_TOL):
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r}")


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _mode(label: str) -> tuple[int, int]:
    k, q = label.strip("()").split(",")
    return int(k), int(q)


def _branch(k: int, q: int) -> tuple[int, int]:
    return k * (k + 2) - q * q, q * q


# ---------------------------------------------------------------- brute force


def brute_spectrum(x: Fraction, bound: Fraction) -> list[tuple[Fraction, list[tuple[int, int]]]]:
    """Every distinct branch value A + B x <= bound with its modes, ascending.

    Plain enumeration of all modes (k, q) with q = k mod 2, q <= k.  The k
    range comes from A + B x >= 2k + k^2 min(x, 1), which grows with k.
    """
    P, Q = x.numerator, x.denominator
    limit = bound * Q
    groups: dict[int, list[tuple[int, int]]] = {}
    k = 0
    while 2 * k + k * k * min(x, Fraction(1)) <= bound:
        for q in range(k % 2, k + 1, 2):
            num = k * (k + 2) * Q + q * q * (P - Q)
            if num <= limit:
                groups.setdefault(num, []).append((k, q))
        k += 1
    return [(Fraction(n, Q), groups[n]) for n in sorted(groups)]


def _multiplicity(modes: list[tuple[int, int]]) -> int:
    return sum(k + 1 if q == 0 else 2 * (k + 1) for k, q in modes)


# ---------------------------------------------------------------- per kind


def _check_piecewise(argv: list[str], header: list[str], rows: list[dict[str, str]]) -> None:
    _expect(header == ["lo", "hi", "A", "B", "mode"], f"header {header}")
    _expect(bool(rows), "no cells")
    x_max = Fraction(argv[argv.index("--xmax") + 1])
    position = int(argv[2]) if argv[1] == "--index" else None
    prev_hi = Fraction(0)
    prev_line = None
    for row in rows:
        lo, hi = Fraction(row["lo"]), Fraction(row["hi"])
        A, B = int(row["A"]), int(row["B"])
        _expect(lo == prev_hi and lo < hi, f"cell ({lo}, {hi}] does not continue at {prev_hi}")
        _expect(_branch(*_mode(row["mode"])) == (A, B), f"mode {row['mode']} is not A={A}, B={B}")
        _expect((A, B) != prev_line, f"adjacent cells share the line A={A}, B={B}")
        if position is not None:
            x, below = _generic_point(lo, hi, A, B)
            nonzero = [v for v, _ in below if v != 0]
            _expect(
                len(nonzero) == position and nonzero[-1] == A + B * x,
                f"cell ({lo}, {hi}]: A + B x at x = {x} is not distinct value {position}",
            )
        prev_hi, prev_line = hi, (A, B)
    _expect(prev_hi == x_max, f"cells end at {prev_hi}, not at xmax {x_max}")


def _generic_point(lo: Fraction, hi: Fraction, A: int, B: int):
    """An interior point of (lo, hi), the midpoint when it will do, and the spectrum up to the cell.

    Where two branches cross, the count of distinct values drops for that
    single x, and the CLI reports the two-sided limit there.  A midpoint
    can be such a crossing after adjacent cells were merged, so points are
    tried (1/2, 1/3, 2/3, 1/4, ...) until every value at or below the
    cell's has a single mode.
    """
    for den in range(2, 64):
        for num in range(1, den):
            if math.gcd(num, den) == 1:
                x = lo + (hi - lo) * Fraction(num, den)
                below = brute_spectrum(x, A + B * x)
                if all(len(modes) == 1 for _, modes in below):
                    return x, below
    raise CheckFailed(f"no point of ({lo}, {hi}] avoids every branch crossing")


def _check_berger(argv: list[str], header: list[str], rows: list[dict[str, str]]) -> None:
    with_mult = "--with-multiplicity" in argv
    want = ["n", "value", "A", "B", "mode"] + (["multiplicity"] if with_mult else [])
    _expect(header == want, f"header {header}")
    count = int(_flag(argv, "--count"))
    _expect(len(rows) == count, f"{len(rows)} rows, expected {count}")
    t = _flag(argv, "--t")
    if t is not None:
        scale = Fraction(t)
        x = 1 / scale**3
    else:
        scale = Fraction(1)
        x = 1 / Fraction(_flag(argv, "--epsilon")) ** 2
    last = rows[-1]
    bound = int(last["A"]) + int(last["B"]) * x
    spectrum = brute_spectrum(x, bound)
    _expect(len(spectrum) == count, f"brute force found {len(spectrum)} values up to {bound}, expected {count}")
    for n, (row, (value, modes)) in enumerate(zip(rows, spectrum)):
        _expect(int(row["n"]) == n, f"row {n} numbered {row['n']}")
        labels = [_mode(m) for m in row["mode"].split("+")]
        _expect(sorted(labels) == sorted(modes), f"row {n}: modes {row['mode']}, expected {modes}")
        _expect(_branch(*labels[0]) == (int(row["A"]), int(row["B"])), f"row {n}: A, B disagree with {labels[0]}")
        _close(float(row["value"]), float(scale * value), f"row {n} value")
        if with_mult:
            _expect(int(row["multiplicity"]) == _multiplicity(modes), f"row {n}: multiplicity {row['multiplicity']}")


def _check_sphere(argv: list[str], header: list[str], rows: list[dict[str, str]]) -> None:
    _expect(header == ["k", "eigenvalue", "multiplicity"], f"header {header}")
    p, kmax = int(_flag(argv, "--dim")), int(_flag(argv, "--kmax"))
    _expect(len(rows) == kmax + 1, f"{len(rows)} rows, expected {kmax + 1}")
    for k, row in enumerate(rows):
        mult = comb(k + p, p) - (comb(k + p - 2, p) if k + p >= 2 else 0)
        _expect(
            (int(row["k"]), int(row["eigenvalue"]), int(row["multiplicity"])) == (k, k * (k + p - 1), mult),
            f"degree {k}: {row}",
        )


def _scan_radii(argv: list[str]) -> list[float]:
    if "--r" in argv:
        return [float(_flag(argv, "--r"))]
    i = argv.index("--scan")
    rmin, rmax, steps = float(argv[i + 1]), float(argv[i + 2]), int(argv[i + 3])
    step = (rmax - rmin) / (steps - 1)
    return [rmin + k * step for k in range(steps)]


def _check_index(argv: list[str], header: list[str], rows: list[dict[str, str]], ref: dict) -> None:
    _expect(header == ["r", "index", "nullity", "first_shifted", "bound"], f"header {header}")
    radii = _scan_radii(argv)
    _expect(len(rows) == len(radii), f"{len(rows)} rows, expected {len(radii)}")
    family = argv[1]
    if family == "page":
        consts = page_constants()
        r1, r2 = ref["page_roots"]
    for r, row in zip(radii, rows):
        _close(float(row["r"]), r, "radius")
        _expect(float(row["bound"]) > 0, f"r={r}: truncation bound {row['bound']} is not positive")
        if family == "cp2":
            want_index = 1
            first = float(cp2_lambda1_exact(Fraction(r) ** 2)) - 1.5
        else:
            want_index = 5 if r1 < r < r2 else 1
            # the first nonzero branch is (1,1) or (2,0), whichever is lower
            first = min(page_shifted_lambda1(r, consts), 8.0 / consts.f(r) - consts.shift)
        _expect(
            (int(row["index"]), int(row["nullity"])) == (want_index, 0),
            f"r={r}: index/nullity {row['index']}/{row['nullity']}, expected {want_index}/0",
        )
        _close(float(row["first_shifted"]), first, f"r={r} first_shifted")


def _check_roots(argv: list[str], header: list[str], rows: list[dict[str, str]], ref: dict) -> None:
    _expect(header == ["root", "r"], f"header {header}")
    tol = float(_flag(argv, "--tol"))
    _expect([row["root"] for row in rows] == ["r1", "r2"], f"roots {rows}")
    for row, want in zip(rows, ref["page_roots"]):
        got = float(row["r"])
        # bisection leaves the root within tol; 12 printed digits add 5e-12 relative
        _expect(abs(got - want) <= tol + 5e-12 * want, f"{row['root']} = {got} is not within {tol} of {want}")


def _check_fig1(rows: list[dict[str, str]]) -> None:
    _expect(len(rows) == 231, f"{len(rows)} rows, expected 231")
    for k, row in zip(range(10, 241), rows):
        t = Fraction(k, 200)
        x = 1 / t**3
        _close(float(row["t"]), float(t), "t")
        spectrum = brute_spectrum(x, _value_bound(12))
        for j in range(1, 12):
            _close(float(row[f"l{j}"]), float(t * spectrum[j][0]), f"t={t} l{j}")


def _value_bound(count: int) -> Fraction:
    """A value with at least `count` distinct branch values at or below it, for every x.

    The modes (l, 0) with even l have B = 0, so their values l(l+2) do not
    depend on x; l = 0, 2, ..., 2(count-1) gives `count` of them.
    """
    l = 2 * (count - 1)
    return Fraction(l * (l + 2))


def _check_fig2(rows: list[dict[str, str]]) -> None:
    _expect(len(rows) == 596, f"{len(rows)} rows, expected 596")
    for k, row in zip(range(5, 601), rows):
        r = k / 100
        _close(float(row["r"]), r, "r")
        _close(float(row["jacobi_lambda1"]), float(cp2_lambda1_exact(Fraction(r) ** 2)) - 1.5, f"r={r}")


def _check_fig3(rows: list[dict[str, str]]) -> None:
    consts = page_constants()
    _expect(len(rows) == 511, f"{len(rows)} rows, expected 511")
    for k, row in zip(range(1, 512), rows):
        r = k * math.pi / 512
        _close(float(row["r"]), r, "r")
        f, w = consts.f(r), consts.w(r)
        x = Fraction(f) / Fraction(w * w)
        spectrum = brute_spectrum(x, _value_bound(6))
        for j in range(6):
            _close(float(row[f"ev{j + 1}"]), float(spectrum[j][0]) / f - consts.shift, f"r={r} ev{j + 1}")


def check(argv: list[str], code: int, text: str, reference: dict) -> None:
    """Raise CheckFailed unless `text` is a correct output for `argv`."""
    _expect(code == 0, f"exit code {code}")
    header, rows = parse(text)
    kind = request_kind(argv)
    if has_exact_columns(argv):
        want = reference["digests"].get(request_key(argv))
        _expect(want is not None, "request is not in the recorded reference")
        got = exact_digest(text)
        _expect(got == want, f"exact columns hash to {got}, reference {want}")
    if kind.startswith("piecewise"):
        _check_piecewise(argv, header, rows)
    elif kind == "berger":
        _check_berger(argv, header, rows)
    elif kind == "sphere":
        _check_sphere(argv, header, rows)
    elif kind == "index-roots":
        _check_roots(argv, header, rows, reference)
    elif kind.startswith("index"):
        _check_index(argv, header, rows, reference)
    elif kind == "plotdata-fig1":
        _check_fig1(rows)
    elif kind == "plotdata-fig2":
        _check_fig2(rows)
    elif kind == "plotdata-fig3":
        _check_fig3(rows)
    else:
        raise CheckFailed(f"no oracle for {kind}")


def corrupt(text: str) -> str:
    """The negative control: the output with every field of its last row changed.

    Integers and fractions gain one in the numerator, reals move by about
    one percent, mode labels move to another mode and names stay, so each
    oracle above has a column it must reject.
    """
    lines = text.splitlines()
    last = max(i for i, ln in enumerate(lines) if ln and not ln.startswith("#"))
    fields = [_corrupt_cell(c) for c in next(csv.reader([lines[last]]))]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(fields)
    lines[last] = buf.getvalue()
    return "\n".join(lines) + "\n"


def _corrupt_cell(cell: str) -> str:
    if cell.startswith("("):
        k, q = _mode(cell.split("+")[0])
        return f"({k + 2},{q})"
    try:
        frac = Fraction(cell)
    except ValueError:
        return cell
    if "." in cell or "e" in cell:
        return repr(float(cell) * 1.01 + 0.01)
    return str(Fraction(frac.numerator + 1, frac.denominator))
