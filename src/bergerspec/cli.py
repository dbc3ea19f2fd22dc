"""Command-line interface: spectra, index profiles, and figure data.

Subcommands
    sphere     exact round p-sphere spectrum
    berger     Berger sphere spectrum at a squash parameter t or epsilon
    piecewise  exact branch partition of a distinct-eigenvalue curve
    index      Jacobi index/nullity for the cp2 and page families
    plotdata   dense tables behind the three standard figures

Output is CSV (default) or JSON.  Exact quantities (branch coefficients,
breakpoints) are serialized as integer or "p/q" fraction strings; real
columns honor --precision (default 12 digits, overridable through the
BERGERSPEC_PRECISION environment variable).  CSV comment lines start
with '#'.  Exit status: 0 success, 2 usage or domain error, 3 structural
error (a Page root count other than two), failed write or out of memory.

Each handler returns a table of comments, field names and columns, one
column per field, all of one length, which `emit` checks and writes.  A
handler is the one place where exact values become text: it writes them
as str, so every column holds cells of one type, int, str or float.

`main` can be called many times in one process.  The option tables
(`COMMANDS`) are module constants, read by a small parser of their own.
The packaged Page constants are read and validated once, on the first
request that needs them, and a --page-config file on every request; the
exact root count and the ambient are kept with the constants object.
"""

from __future__ import annotations

import functools
import math
import os
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

from .berger import (  # noqa: F401  (distinct_spectrum_at, eleven_slot_table, spectrum_with_multiplicity: bench/tracing.py wraps them here)
    _as_positive_fraction,
    _check_count,
    _exact_text,
    _modes,
    _Record,
    _slot_cells,
    _spectrum_columns,
    distinct_spectrum_at,
    eleven_slot_table,
    kth_distinct_piecewise,
    spectrum_with_multiplicity,
)
from .jacobi import jacobi_shift
from .page import (
    PageConfigError,
    PageConstants,
    PageStructureError,
    _default_constants,
    page_constants,
    page_index_nullity,
    page_slice,
    page_transition_roots,
)
from .slices import (  # noqa: F401  (slice_spectrum: bench/tracing.py wraps it here)
    CP2_AMBIENT,
    DEFAULT_DEPTH,
    _slice_merge,
    cp2_lambda1,
    cp2_slice,
    slice_index_nullity,
    slice_spectrum,
)
from .spheres import sphere_spectrum

PRECISION_ENV = "BERGERSPEC_PRECISION"
MAX_PRECISION = 30
MAX_DEPTH = 10_000  # bounds --depth, the size of an index row's one merge
_CHUNK = 64  # rows per write in `emit`
# ints of at most this many bits are below 8^640, and 640 is the least digit limit Python allows (if it has one)
_PRINT_BITS = 3 * getattr(sys.int_info, "str_digits_check_threshold", math.inf)


Table = tuple[list[str], list[str], list[list | tuple]]  # comments, fieldnames, columns


def emit(table: Table, fmt: str, precision: int, output: str | None = None) -> None:
    """Write the table as CSV or JSON (`fmt`) to `output`, or stdout if None.

    The table must hold one column per field, all of one length, and each
    column cells of exactly one type: str, written as it is; int, as its
    `str` (`%d`); or float, formatted to --precision significant digits
    (`%.{precision}g`, the text of `format(v, ".{precision}g")`; JSON reads
    each text back with `float`).  Any other shape raises a TypeError
    naming it, and any other column (bool, a subclass or mixed types
    included) one naming the column and its cell types.  An int column
    whose largest or smallest cell has more digits than the interpreter
    writes (`sys.get_int_max_str_digits()`) raises a ValueError naming the
    column and the limit (only a cell of more than `_PRINT_BITS` bits is
    converted to find out).  These checks, and for JSON the float texts,
    come before the output is opened, so a refused table writes no byte.

    Rows are written in chunks of `_CHUNK` rows, so the text held beside
    the table is a few copies of one chunk's, not the whole output.  A CSV
    chunk is one write: its columns' slices, the str ones quoted by
    `_csv_fields`, put through one `%` of the table's row format (each
    column's spec, "%s" for str, joined by ',') repeated once per row, so
    no column's text is built whole; a table of str columns alone, which
    `%` would only copy, joins them into lines instead.  A JSON chunk is
    its rows as dicts, encoded as `json.dumps(..., indent=2)` would by one
    `json.JSONEncoder` per table, less the brackets; the chunks joined
    with ",\n" inside "[\n" ... "\n]\n" are the bytes of one `json.dumps`
    of the whole table, and a table without rows is "[]\n".
    """
    comments, fields, columns = table
    lengths = list(map(len, columns))
    if len(columns) != len(fields) or len(set(lengths)) > 1:
        raise TypeError(
            f"a table needs one column per field, all of one length: "
            f"{len(fields)} fields, columns of lengths {lengths}"
        )
    as_json = fmt == "json"
    cols, strs = [], []  # strs: the positions of str columns, the only cells CSV may quote
    specs = ["%s"] * len(columns)  # each column's % spec: "%s" for str
    for name, col in zip(fields, columns):
        kinds = set(map(type, col))
        kind = kinds.pop() if len(kinds) == 1 else None  # cheaper than `kinds == {str}`
        if kind is str or not col:
            strs.append(len(cols))
        elif kind is int:
            hi, lo = max(col), min(col)  # the longest text is one of the two
            if hi.bit_length() > _PRINT_BITS or lo.bit_length() > _PRINT_BITS:
                try:
                    str(hi), str(lo)
                except ValueError:  # past the interpreter's limit on the digits of an int's text
                    limit = sys.get_int_max_str_digits()
                    raise ValueError(f"column {name!r} holds an int of more than {limit} digits, too long to print") from None
            specs[len(cols)] = "%d"
        elif kind is float:
            specs[len(cols)] = real = f"%.{precision}g"
            if as_json:
                col = list(map(float, map(real.__mod__, col)))
        else:
            raise TypeError(f"column {name!r} holds cells of type {sorted({type(c).__name__ for c in col})}")
        cols.append(col)
    if as_json:
        import json  # only here: CSV requests do not pay for it

        encode = json.JSONEncoder(indent=2).encode  # json.dumps would build one per chunk
    rows = lengths[0] if lengths else 0
    out = sys.stdout if output is None else open(output, "w")
    try:
        if as_json:
            for lo in range(0, rows, _CHUNK):
                chunk = zip(*[col[lo : lo + _CHUNK] for col in cols])
                out.write(",\n" if lo else "[\n")
                out.write(encode([dict(zip(fields, row)) for row in chunk])[2:-2])
            out.write("\n]\n" if rows else "[]\n")
        else:
            alone, width = len(fields) == 1, len(fields)
            if comments:
                out.write("# " + "\n# ".join(comments) + "\n")
            out.write(",".join(_csv_fields(fields, alone)) + "\n")
            line = ",".join(specs) + "\n"  # the row format
            for lo in range(0, rows, _CHUNK):
                part = [col[lo : lo + _CHUNK] for col in cols]
                for j in strs:
                    part[j] = _csv_fields(part[j], alone)
                if len(strs) == width:  # text alone: joins cost less than a `%` of "%s"s
                    out.write("\n".join(map(",".join, zip(*part))) + "\n")
                    continue
                n = len(part[0])
                cells = [None] * (n * width)  # the chunk's cells, row by row
                for j, col in enumerate(part):
                    cells[j::width] = col
                out.write(line * n % tuple(cells))
    finally:
        if out is not sys.stdout:
            out.close()


def _csv_fields(cells: list[str], alone: bool) -> list[str]:
    """The cells as CSV fields of one column: the rule of RFC 4180.

    A cell holding ',', '"', CR or LF is wrapped in '"', with every inner
    '"' doubled, and so is an empty cell that is the whole row (`alone`),
    which would otherwise read as no field.  This is what `csv.writer`
    with lineterminator="\n" writes, except that it leaves a CR bare
    before Python 3.13; no handler writes a CR.  The cells are joined once
    and the join is searched, so a column of numbers, fractions or plain
    words is passed through, and where only ',' occurs (mode labels) just
    the cells holding one are wrapped.
    """
    joined = "".join(cells)
    if '"' in joined or "\r" in joined or "\n" in joined:
        cells = [
            '"' + c.replace('"', '""') + '"' if any(ch in c for ch in ',"\r\n') else c for c in cells
        ]
    elif "," in joined:
        cells = [f'"{c}"' if "," in c else c for c in cells]
    if alone and not all(cells):
        cells = [c or '""' for c in cells]
    return cells


def handle_sphere(args: SimpleNamespace) -> Table:
    """One row per degree 0..--kmax: the cost is proportional to the output."""
    rows = [(e.degree, e.eigenvalue, e.multiplicity) for e in sphere_spectrum(args.dim, args.kmax)]
    comments = [f"spectrum of the round {args.dim}-sphere through degree {args.kmax}"]
    return comments, ["k", "eigenvalue", "multiplicity"], list(zip(*rows))


def handle_berger(args: SimpleNamespace) -> Table:
    """The --count smallest distinct eigenvalues at --t or --epsilon, as columns.

    The columns come from `berger._spectrum_columns` at x = P/Q.  Value n
    is s m / Q for the scale s and its merge numerator m: the true division
    (s.numerator m) / (s.denominator Q) of two ints, correctly rounded.
    """
    if (args.t is None) == (args.epsilon is None):
        raise ValueError("exactly one of --t and --epsilon is required")
    if args.t is not None:
        t = _as_positive_fraction(args.t, "--t")
        x = 1 / t**3
        scale = t  # eigenvalue is t (A + B x)
        text = _exact_text(x, "--t")  # t's terms are cube roots of x's, so t prints too
        comments = [f"Berger sphere spectrum at t = {t} (x = t^-3 = {text})"]
    else:
        eps = _as_positive_fraction(args.epsilon, "--epsilon")
        x = 1 / eps**2
        scale = Fraction(1)  # t (A + B x) / mu with mu = t = eps^(2/3)
        text = _exact_text(x, "--epsilon")  # eps's terms are square roots of x's
        comments = [
            f"spectrum of sigma_1^2 + sigma_2^2 + eps^2 sigma_3^2 at eps = {eps} "
            f"(x = eps^-2 = {text})"
        ]
    _check_count(args.count, "--count")
    nums, *texts, multiplicities = _spectrum_columns(x, args.count)
    fields = ["n", "value", "A", "B", "mode"]
    values = _values(nums, scale.numerator, scale.denominator * x.denominator)
    columns = [list(range(args.count)), values, *texts]
    if args.with_multiplicity:
        fields.append("multiplicity")
        columns.append(multiplicities)
    return comments, fields, columns


def _values(nums: list[int], num: int, den: int) -> list[float]:
    """The floats num * m / den for the numerators m: true divisions of ints, correctly rounded.

    Only a large --t overflows: the first --count values of A + B x stay
    below about 4 count^2 for any x (the q = 0 modes do not depend on x).
    """
    try:
        return [num * m / den for m in nums]
    except OverflowError:
        for n, m in enumerate(nums):  # the first value that overflows, for the message
            try:
                num * m / den
            except OverflowError:
                raise ValueError(f"--t is too large: eigenvalue n = {n} overflows a float") from None
        raise


def handle_piecewise(args: SimpleNamespace) -> Table:
    if (args.index is None) == (args.slot is None):
        raise ValueError("exactly one of --index and --slot is required")
    x_max = _as_positive_fraction(args.xmax, "--xmax")
    xm_text = _exact_text(x_max, "--xmax")  # the cells' lo and hi are then short enough too
    if args.index is not None:
        _check_count(args.index, "--index")
        cells = kth_distinct_piecewise(args.index, x_max)
        comments = [
            f"branch partition of distinct nonzero eigenvalue {args.index} on (0, {xm_text}]",
            "eigenvalue = t (A + B x) on each cell, x = t^-3",
        ]
    else:
        cells = _slot_cells(args.slot, x_max, "--slot")
        comments = [
            f"curve {args.slot} of the eleven-curve table on (0, {xm_text}]",
            "slots keep their branch identity across crossings; they are not",
            "the ascending distinct-value order wherever curves have crossed",
        ]
    rows = [(*map(str, (c.lo, c.hi, c.branch.A, c.branch.B)), c.branch.label()) for c in cells]
    return comments, ["lo", "hi", "A", "B", "mode"], list(zip(*rows))


def _page_setup(args: SimpleNamespace) -> PageConstants:
    return page_constants(path=args.page_config) if args.page_config else _default_constants()


def handle_index(args: SimpleNamespace) -> Table:
    """Index and nullity rows at --r, along --scan, or the page --roots.

    A row is one `slice_index_nullity`.  --depth, positive and at most
    MAX_DEPTH, is checked before any root or row is computed.
    """
    if (args.r is not None) + (args.scan is not None) + args.roots != 1:
        raise ValueError("exactly one of --r, --scan, --roots is required")
    _check_count(args.depth, "--depth")
    if args.depth > MAX_DEPTH:
        raise ValueError(f"--depth must be at most {MAX_DEPTH}, got {args.depth}")
    if args.space == "cp2":
        if args.roots:
            raise ValueError("--roots applies only to the page family")
        comments, upper = [f"cp2 geodesic spheres, Jacobi shift {_ratio_text(jacobi_shift(CP2_AMBIENT))}"], None
        def report(r):
            return slice_index_nullity(cp2_slice(r), args.depth)
    else:
        consts = _page_setup(args)
        r1, r2 = page_transition_roots(args.tol, consts)
        comments = [
            f"page family, Jacobi shift {consts.shift:.12g}",
            f"certified roots (tol {args.tol:g}): r1 = {r1!r}, r2 = {r2!r}",
        ]
        if args.roots:
            return comments, ["root", "r"], [["r1", "r2"], [r1, r2]]
        upper = math.pi
        def report(r):
            return page_index_nullity(r, args.depth, constants=consts)
    radii = [args.r] if args.r is not None else _scan_grid(args.scan, upper)
    rows = [(r, rep.index, rep.nullity, rep.first_shifted, rep.truncation_bound) for r in radii for rep in [report(r)]]
    return comments, ["r", "index", "nullity", "first_shifted", "bound"], list(zip(*rows))


def _ratio_text(value: float) -> str:
    """str(Fraction(value)) of a finite float: "p/q", or "p" when q = 1."""
    p, q = value.as_integer_ratio()
    return f"{p}/{q}" if q > 1 else f"{p}"


def _scan_grid(scan: list[float], upper: float | None = None) -> list[float]:
    """STEPS radii evenly spaced from RMIN > 0 to RMAX < upper, the last exactly RMAX."""
    rmin, rmax, steps = scan
    if not (math.isfinite(rmin) and math.isfinite(rmax)):
        raise ValueError(f"scan range must be finite, got [{rmin}, {rmax}]")
    if not (math.isfinite(steps) and steps >= 2 and steps == int(steps)):
        raise ValueError(f"scan steps must be an integer >= 2, got {steps}")
    n = int(steps)
    if rmin >= rmax:
        raise ValueError(f"scan needs rmin < rmax, got [{rmin}, {rmax}]")
    if upper is not None and not (0 < rmin and rmax < upper):
        raise ValueError(f"scan range must lie in (0, {upper:g}), got [{rmin}, {rmax}]")
    if rmin <= 0:
        raise ValueError(f"scan range must be positive, got rmin = {rmin}")
    step = (rmax - rmin) / (n - 1)
    return [rmin + k * step for k in range(n - 1)] + [rmax]


def handle_plotdata(args: SimpleNamespace) -> Table:
    if args.figure == "fig1":
        comments = [
            "eleven smallest distinct nonzero eigenvalues of g_B^t, ascending at each t",
            "where branches cross (for example the second and third values at x = t^-3 <= 1)",
            "the ascending order differs from following a single branch curve",
        ]
        fields = ["t"] + [f"l{j}" for j in range(1, 12)]
        rows = []
        for k in range(10, 241):  # t = k / 200: x = t^-3 = P / Q unreduced, and t m / Q = k m / (200 Q)
            P, Q = 8_000_000, k**3
            nums = dict.fromkeys([n for n, _, _ in _modes(P, Q, 12)])
            rows.append((k / 200, *_values([*nums][1:], k, 200 * Q)))
        return comments, fields, list(zip(*rows))
    if args.figure == "fig2":
        shift = jacobi_shift(CP2_AMBIENT)
        comments = [f"first Jacobi eigenvalue of the cp2 geodesic spheres: lambda_1(r) - {_ratio_text(shift)}"]
        rows = [(k / 100, cp2_lambda1(k / 100) - shift) for k in range(5, 601)]
        return comments, ["r", "jacobi_lambda1"], list(zip(*rows))
    consts = _page_setup(args)
    r1, r2 = page_transition_roots(1e-6, consts)
    comments = [
        "first six shifted distinct eigenvalues of the page slices",
        f"transition roots: r1 = {r1!r}, r2 = {r2!r}",
    ]
    fields = ["r"] + [f"ev{j}" for j in range(1, 7)]
    rows, shift = [], consts.shift
    for k in range(1, 512):
        r = k * math.pi / 512
        modes, Q, f, _ = _slice_merge(page_slice(r, consts), 6, shift)
        rows.append((r, *[n / Q / f - shift for n in dict.fromkeys([n for n, _, _ in modes])]))
    return comments, fields, list(zip(*rows))


class _Opt(_Record):
    """One entry of an option table: how the words of a flag, or of a positional, are read.

    `nargs` words, 0 for a switch, each read by `type`; a str default is
    read the same way, only when the flag is absent.
    """

    _fields = ("type", "default", "nargs", "choices", "required", "help")

    def __init__(self, type=str, default=None, nargs=1, choices=(), required=False, help="") -> None:
        self.__dict__.update(type=type, default=default, nargs=nargs, choices=choices)
        self.__dict__.update(required=required, help=help)


# One option table per subcommand maps each flag, or the name of its one
# positional (no leading '-'), to its entry.  Fraction reads "1/2", "0.2" and
# "1e-3" exactly; floats would smuggle binary rounding into the exact columns.
_HELP = _Opt(nargs=0, help="print this text and exit (also -h)")
_PAGE_CONFIG = _Opt(help="alternate constants file")
_SHARED = {  # the flags of every subcommand
    "--format": _Opt(default="csv", choices=("csv", "json")),
    "--precision": _Opt(int, help="significant digits for real columns"),
    "--output": _Opt(help="write to this path instead of stdout (also -o)"),
    "--help": _HELP,
}
COMMANDS = {
    "sphere": {"--dim": _Opt(int, required=True), "--kmax": _Opt(int, required=True), **_SHARED},
    "berger": {
        "--t": _Opt(Fraction),
        "--epsilon": _Opt(Fraction),
        "--count": _Opt(int, 12),
        "--with-multiplicity": _Opt(default=False, nargs=0),
        **_SHARED,
    },
    "piecewise": {
        "--index": _Opt(int, help="position among distinct nonzero values"),
        "--slot": _Opt(int, help="curve number in the eleven-curve table"),
        "--xmax": _Opt(Fraction, "20"),
        **_SHARED,
    },
    "index": {
        "space": _Opt(choices=("cp2", "page"), required=True),
        "--r": _Opt(float),
        "--scan": _Opt(float, nargs=3, help="RMIN RMAX STEPS: STEPS radii from RMIN to RMAX"),
        "--roots": _Opt(default=False, nargs=0, help="print the two page transition roots"),
        "--depth": _Opt(int, DEFAULT_DEPTH, help=f"distinct values per row, at most {MAX_DEPTH}"),
        "--tol": _Opt(float, 1e-6),
        "--page-config": _PAGE_CONFIG,
        **_SHARED,
    },
    "plotdata": {
        "figure": _Opt(choices=("fig1", "fig2", "fig3"), required=True),
        "--page-config": _PAGE_CONFIG,
        **_SHARED,
    },
}
_ROOT, _SHORT = {"--help": _HELP}, {"-h": "--help", "-o": "--output"}
_NUMBER = re.compile(r"-(?:\.?\d|inf|nan)", re.IGNORECASE).match  # a value, though it starts with '-'


def _fail(message: str):
    print(f"bergerspec: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _option(table: dict, word: str) -> tuple | None:
    """(flag, text after '=' or None) if `word` is an option, as argparse reads it, else None.

    A flag not in the table is an unknown option; an ambiguous prefix is refused.
    """
    if word[:1] != "-" or len(word) < 2 or word == "--":
        return None
    if word[1] == "-":
        name, eq, text = word.partition("=")
        flags = [name] if name in table else [flag for flag in table if flag.startswith(name)]
        if len(flags) > 1:
            _fail(f"ambiguous option: {word} could match {', '.join(flags)}")
        if flags:
            return flags[0], text if eq else None
    elif _SHORT.get(word[:2]) in table:  # -o, -oTEXT or -o=TEXT
        return _SHORT[word[:2]], word[3:] if word[2:3] == "=" else word[2:] or None
    return None if _NUMBER(word) or " " in word else (word, None)


def _exact_fraction(flag: str, text: str, limit: int) -> Fraction:
    """Fraction(text), refused unbuilt if its decimal exponent passes twice the digit limit.

    A literal that reads has at most `limit` digits on each side of its
    point, so past that exponent a nonzero value, and the x made from it,
    has a term too long to print: the handler would refuse it only after
    expanding it in full (2 s for 1e1000000).  The refusal is the handler's
    line and exit code; a zero mantissa is read as 0.
    """
    head, e, exponent = text.replace("E", "e").rpartition("e")
    try:
        huge = bool(limit and e) and abs(int(exponent)) > 2 * limit
    except ValueError:  # not an exponent, or too long for int(): Fraction refuses it
        huge = False
    if not huge:
        return Fraction(text)
    mantissa = Fraction(head + e + re.sub(r"\d", "0", exponent))  # the same literal at exponent 0
    if mantissa:
        print(f"bergerspec: {flag} needs more than {limit} digits to print exactly", file=sys.stderr)
        raise SystemExit(2)
    return mantissa


def _value(flag: str, opt: _Opt, text: str):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        value = _exact_fraction(flag, text, limit) if opt.type is Fraction else opt.type(text)
    except (ValueError, ZeroDivisionError):
        if limit and sum(map(str.isdecimal, text)) > limit:  # too long to echo
            _fail(f"{flag} needs more than {limit} digits to read exactly")
        _fail(f"argument {flag}: invalid {opt.type.__name__} value: {text!r}")
    if opt.choices and value not in opt.choices:
        _fail(f"argument {flag}: invalid choice: {value!r} (choose from {str(opt.choices)[1:-1]})")
    return value


def _read(command: str, argv: list[str]) -> dict:
    """{dest: value} for every entry of the subcommand's table, given or default.

    Every word is classified before any is read, so an ambiguous prefix is
    refused first; the words after "--" are values, and an option takes
    its values only from words before it.  A repeated option keeps its
    last value.
    """
    table, given, extra, i = COMMANDS[command], {}, [], 0
    k = argv.index("--") if "--" in argv else len(argv)
    words = [(w, _option(table, w)) for w in argv[:k]] + [(w, None) for w in argv[k + 1 :]]
    while i < len(words):
        word, found = words[i]
        i += 1
        # a value is the positional's until it has one, and an unknown word after that
        flag, text = found or (next((f for f in table if f[0] != "-" and f not in given), None), word)
        opt = table.get(flag)
        if opt is None:  # an unknown option, or a value past the positional
            extra.append(word)
        elif opt is _HELP:
            print(_usage(command))
            raise SystemExit(0)
        elif not opt.nargs:
            if text is not None:
                _fail(f"argument {flag}: ignored explicit argument {text!r}")
            given[flag] = True
        else:
            texts = [text] if text is not None else [w for w, f in words[i : min(i + opt.nargs, k)] if f is None]
            if len(texts) != opt.nargs:
                _fail(f"argument {flag}: expected {'one argument' if opt.nargs == 1 else f'{opt.nargs} arguments'}")
            if text is None:
                i += opt.nargs
            values = [_value(flag, opt, t) for t in texts]
            given[flag] = values if opt.nargs > 1 else values[0]
    missing = [flag for flag, opt in table.items() if opt.required and flag not in given]
    if missing:
        _fail(f"the following arguments are required: {', '.join(missing)}")
    if extra:
        _fail(f"unrecognized arguments: {' '.join(extra)}")
    for flag, opt in table.items():
        if flag not in given:
            given[flag] = _value(flag, opt, opt.default) if isinstance(opt.default, str) else opt.default
    return {flag.lstrip("-").replace("-", "_"): value for flag, value in given.items() if flag != "--help"}


def _usage(command: str | None) -> str:
    """The --help text of the root (None) or of a subcommand, from the option tables."""
    if command is None:
        return f"usage: bergerspec {{{','.join(COMMANDS)}}} ...\n\n" + "\n\n".join(__doc__.split("\n\n")[:2])
    lines = [f"usage: bergerspec {command} [options]"]
    for flag, opt in COMMANDS[command].items():
        value = "{" + ",".join(opt.choices) + "}" if opt.choices else flag.lstrip("-").upper() if opt.nargs else ""
        default = f"(default {opt.default})" if opt.default else ""
        notes = (opt.help, default, "(required)" if opt.required else "")
        spelling = value if flag[0] != "-" else f"{flag} {value}"
        lines.append(f"  {spelling:<26} {' '.join(filter(None, notes))}")
    return "\n".join(line.rstrip() for line in lines)


class _Parser:
    """Reads argv by the option tables into the namespace the handlers get, as argparse did.

    --help prints `_usage` and exits 0; a refused argv prints one stderr
    line, "bergerspec: error: ...", and exits 2.
    """

    def parse_args(self, argv: list[str] | None = None) -> SimpleNamespace:
        argv = sys.argv[1:] if argv is None else list(argv)
        # the first value names the subcommand, and the words after it are its own
        i = next((i for i, word in enumerate(argv) if _option(_ROOT, word) is None), len(argv))
        if any(_option(_ROOT, word)[0] == "--help" for word in argv[:i]):
            print(_usage(None))
            raise SystemExit(0)
        if i == len(argv):
            _fail("the following arguments are required: command")
        if argv[i] not in COMMANDS:
            choices = str(tuple(COMMANDS))[1:-1]
            _fail(f"argument command: invalid choice: {argv[i]!r} (choose from {choices})")
        values = _read(argv[i], argv[i + 1 :])
        if i:
            _fail(f"unrecognized arguments: {' '.join(argv[:i])}")
        return SimpleNamespace(command=argv[i], **values)


@functools.cache
def build_parser() -> _Parser:
    """The parser of the option tables: nothing is built, and one parser serves every `main` call."""
    return _Parser()


def _resolve_precision(args: SimpleNamespace) -> int:
    precision = args.precision
    if precision is None:
        env = os.environ.get(PRECISION_ENV)
        if env is not None:
            try:
                precision = int(env)
            except ValueError:
                raise ValueError(f"{PRECISION_ENV} must be an integer, got {env!r}") from None
        else:
            precision = 12
    if not 1 <= precision <= MAX_PRECISION:
        raise ValueError(f"precision must be in 1..{MAX_PRECISION}, got {precision}")
    return precision


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        precision = _resolve_precision(args)
        table = globals()[f"handle_{args.command}"](args)  # looked up per call: a handler rebound on the module runs
        try:
            emit(table, args.format, precision, args.output)
        except OSError as exc:
            where = "stdout" if args.output is None else args.output
            print(f"bergerspec: cannot write {where}: {exc}", file=sys.stderr)
            return 3
    except (PageConfigError, PageStructureError) as exc:
        print(f"bergerspec: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"bergerspec: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # from the handler or from `emit`
        print("bergerspec: out of memory: the table of this request does not fit", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
