"""Independent oracles that the tests compare the library against.

None of these is reached by the command line or by the acceptance
criteria, so they live with the tests and not in `bergerspec`.
"""

import argparse
import json
import math
import re
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

from bergerspec.berger import Mode, SpectrumEntry, _check_positive, _known_mode
from bergerspec.jacobi import EinsteinAmbient
from bergerspec.slices import SliceGeometry

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402

ROUND_S4_AMBIENT = EinsteinAmbient(n=4, s=12.0, validity="constant-curvature", name="round S^4")


def enumerate_modes(k_max: int) -> list[Mode]:
    """All valid modes with k <= k_max, including (0, 0)."""
    if k_max < 0:
        raise ValueError(f"k_max must be non-negative, got {k_max!r}")
    return [_known_mode(k, q) for k in range(k_max + 1) for q in range(k % 2, k + 1, 2)]


def mode_value(m: Mode, t: float) -> float:
    """Eigenvalue t*(A + B*t^{-3}) of mode m on g_B^t."""
    _check_positive(t, "squash parameter t")
    return t * (m.A + m.B * t ** -3)


def mode_multiplicity(m: Mode) -> int:
    """Multiplicity k+1 for q = 0, else 2(k+1), written out apart from `_multiplicity`."""
    return m.k + 1 if m.q == 0 else 2 * (m.k + 1)


def heat_trace_error(spectrum, t: float, s: float) -> float:
    """|Z(s) / W(s) - 1| for the heat trace Z(s), the sum of m e^{-lambda s} over (lambda, m) in `spectrum`.

    W(s) = (4 pi s)^{-3/2} 2 pi^2 (1 + (s/6)(8t - 2t^4)) is the short-time
    expansion of Z for g_B^t through its curvature term: volume 2 pi^2 and
    scalar curvature 8t - 2t^4.  What it leaves out is O(s^2) relative, so
    the error falls about 4-fold per halving of s, provided `spectrum`
    reaches far enough that the values it omits add nothing at s.
    """
    z = math.fsum(m * math.exp(-lam * s) for lam, m in spectrum)
    w = (4 * math.pi * s) ** -1.5 * 2 * math.pi**2 * (1 + s / 6 * (8 * t - 2 * t**4))
    return abs(z / w - 1)


# The left-invariant fields p -> p i, p j, p k of S^3 in the quaternions,
# as linear fields on R^4: each term (s, a, b) is s x_a d/dx_b.
_LEFT_FIELDS = (
    ((-1, 1, 0), (1, 0, 1), (1, 3, 2), (-1, 2, 3)),  # X1 = -x1 d0 + x0 d1 + x3 d2 - x2 d3
    ((-1, 2, 0), (-1, 3, 1), (1, 0, 2), (1, 1, 3)),  # X2 = -x2 d0 - x3 d1 + x0 d2 + x1 d3
    ((-1, 3, 0), (1, 2, 1), (-1, 1, 2), (1, 0, 3)),  # X3 = -x3 d0 + x2 d1 - x1 d2 + x0 d3
)


def _apply_field(field, poly: dict) -> dict:
    """The linear vector field applied to a polynomial {exponents: coefficient}."""
    out = {}
    for e, c in poly.items():
        for s, a, b in field:
            if e[b]:
                f = list(e)
                f[b] -= 1
                f[a] += 1
                f = tuple(f)
                out[f] = out.get(f, 0) + s * e[b] * c
    return out


def laplacian_on_polynomials(t: Fraction, k: int) -> list[list[Fraction]]:
    """The Laplacian of g_B^t on the homogeneous polynomials of degree k in R^4, as a matrix.

    g_B^t = a(sigma_1^2 + sigma_2^2) + b sigma_3^2 with a = 1/t and b = t^2
    is left-invariant on the unimodular group S^3, so its Laplacian is
    -(1/a)(X1^2 + X2^2) - (1/b) X3^2 (Milnor, "Curvatures of left invariant
    metrics on Lie groups", 1976): -t(X1^2 + X2^2) - t^-2 X3^2.  The X_i
    are tangent to the spheres and linear, so they keep the degree; the
    matrix acts on the monomial basis, exactly.  Nothing here reads a mode.
    """
    basis = [e for e in product(range(k + 1), repeat=4) if sum(e) == k]
    row = {e: i for i, e in enumerate(basis)}
    weights = (-t, -t, -1 / t**2)
    M = [[Fraction(0)] * len(basis) for _ in basis]
    for col, e in enumerate(basis):
        for field, w in zip(_LEFT_FIELDS, weights):
            for f, c in _apply_field(field, _apply_field(field, {e: 1})).items():
                M[row[f]][col] += w * c
    return M


def kernel_dimension(M: list[list[Fraction]], lam: Fraction) -> int:
    """dim ker (M - lam), by exact Gaussian elimination."""
    rows = [[v - lam if i == j else v for j, v in enumerate(r)] for i, r in enumerate(M)]
    rank = 0
    for col in range(len(rows)):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / top[col]
                rows[i] = [v - f * u for v, u in zip(rows[i], top)]
        rank += 1
    return len(rows) - rank


def full_count(jacobi: list[SpectrumEntry], zero_tolerance: float, shift: float) -> tuple:
    """(index, nullity, witnesses) of a Jacobi spectrum, by a test of every entry with no early exit."""
    index = nullity = 0
    witnesses = []
    for e in jacobi:
        if e.value < -zero_tolerance:
            index += e.multiplicity
        elif abs(e.value) <= zero_tolerance:
            nullity += e.multiplicity
        else:
            continue
        witnesses.append((e.value + shift, e.multiplicity, e.value))
    return index, nullity, tuple(witnesses)


def synthetic_slice(r: float) -> SliceGeometry:
    """Round sphere of latitude r in the round 4-sphere (f = sin^2 r, x = 1).

    This degenerates at r = 0 and pi like the Page family and has a fully
    known spectrum (the round 3-sphere of radius sin r), making it a
    machinery check that is independent of any coefficient transcription.
    """
    if not 0 < r < math.pi:
        raise ValueError(f"latitude must lie in (0, pi), got {r!r}")
    s = math.sin(r)
    return SliceGeometry(r=r, f=s * s, x=Fraction(1), ambient=ROUND_S4_AMBIENT)


def w2(geom: SliceGeometry) -> float:
    """The sigma_3^2 coefficient f / x of a slice."""
    return float(Fraction(geom.f) / geom.x)


def _same(value, text) -> bool:
    """A JSON cell against its CSV text: int as str(v), float as float(text), str as is."""
    if type(value) is int:
        return str(value) == text
    if type(value) is float:
        want = float(text)
        return value == want or (math.isnan(value) and math.isnan(want))
    return type(value) is str and value == text


def json_problem(csv_run: tuple, json_run: tuple) -> str | None:
    """The first way a JSON run (code, stdout, stderr) disagrees with the CSV run, or None."""
    (code, text, _), (json_code, json_text, _) = csv_run, json_run
    if code != json_code:
        return f"exit {code} as CSV, {json_code} as JSON"
    if code != 0:
        return None
    header, rows = oracle.parse(text)
    payload = json.loads(json_text)
    if len(payload) != len(rows):
        return f"{len(rows)} CSV rows, {len(payload)} JSON rows"
    for n, (row, obj) in enumerate(zip(rows, payload)):
        if list(obj) != header:
            return f"row {n}: JSON keys {list(obj)} != CSV header {header}"
        for k, v in obj.items():
            if not _same(v, row[k]):
                return f"row {n} {k}: JSON {v!r} != CSV {row[k]!r}"
    return None


def _fraction(text: str) -> Fraction:
    """An exact rational from "1/2", "0.2" or "1e-3", as an argparse type."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser that takes "-1e-3", "-1/2", "-inf" and "-nan" as values."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(?:\.?\d|inf|nan)", re.IGNORECASE)


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--precision", type=int, default=None, help="significant digits for real columns")
    p.add_argument("--output", "-o", default=None, help="write to this path instead of stdout")


def argparse_parser() -> argparse.ArgumentParser:
    """The argparse parser that read the command line before the option tables did.

    The option tables of `bergerspec.cli` must read every well-formed
    argv to the same namespace, and refuse every argv this refuses.
    """
    parser = _ArgumentParser(prog="bergerspec", description="Exact Berger sphere spectra and Jacobi index profiles")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sphere", help="round p-sphere Laplace spectrum")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    _add_output_flags(p)

    p = sub.add_parser("berger", help="Berger sphere spectrum at fixed t or epsilon")
    p.add_argument("--t", type=_fraction, default=None)
    p.add_argument("--epsilon", type=_fraction, default=None)
    p.add_argument("--count", type=int, default=12)
    p.add_argument("--with-multiplicity", action="store_true")
    _add_output_flags(p)

    p = sub.add_parser("piecewise", help="branch partition of one eigenvalue curve")
    p.add_argument("--index", type=int, default=None, help="position among distinct nonzero values")
    p.add_argument("--slot", type=int, default=None, help="curve number in the eleven-curve table")
    p.add_argument("--xmax", type=_fraction, default="20")
    _add_output_flags(p)

    p = sub.add_parser("index", help="Jacobi index/nullity profiles")
    p.add_argument("space", choices=("cp2", "page"))
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--scan", type=float, nargs=3, metavar=("RMIN", "RMAX", "STEPS"), default=None)
    p.add_argument("--roots", action="store_true", help="print the two page transition roots")
    p.add_argument("--depth", type=int, default=25)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--page-config", default=None, help="alternate constants file")
    _add_output_flags(p)

    p = sub.add_parser("plotdata", help="dense data behind the standard figures")
    p.add_argument("figure", choices=("fig1", "fig2", "fig3"))
    p.add_argument("--page-config", default=None, help="alternate constants file")
    _add_output_flags(p)

    return parser
