"""The berger and plotdata columns against the row building they replaced.

The references below are the handlers' former code: Fraction values,
Mode objects and SpectrumEntry rows from the public spectrum functions.
A table holds one column per field, so its rows are the columns zipped.
Every row must agree with `==`, and so must the emitted CSV and JSON.
Every handler's table holds columns of one cell type each, int, str or
float, and `emit` is checked byte for byte against its former dict-row
loop, whose CSV is `csv.writer`'s, on such tables: from every handler,
of unusual cells, generated, and of as many rows as put a row at each
side of a chunk boundary.  A column of any other type, or of mixed
types, is refused, and so is a table whose columns do not match its
fields in number or length.
"""

import contextlib
import csv
import io
import json
import math
import re
import struct
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bergerspec import cli
from bergerspec.cli import (
    build_parser,
    emit,
    handle_berger,
    handle_plotdata,
)
from bergerspec.berger import distinct_spectrum_at, spectrum_with_multiplicity
from bergerspec.jacobi import jacobi_shift
from bergerspec.page import _default_constants, page_slice
from bergerspec.slices import slice_spectrum


def _mode_label(modes) -> str:
    return "+".join(m.label() for m in modes)


def _reference_berger_rows(args):
    if args.t is not None:
        scale, x = args.t, 1 / args.t**3
    else:
        scale, x = Fraction(1), 1 / args.epsilon**2
    rows = []
    for n, (value, mult, modes) in enumerate(spectrum_with_multiplicity(x, args.count)):
        row = (
            n,
            float(scale * value),
            Fraction(modes[0].A),
            Fraction(modes[0].B),
            _mode_label(modes),
        )
        if args.with_multiplicity:
            row += (mult,)
        rows.append(row)
    return rows


def _exact_as_str(row):
    """The row with its A and B cells as the strings they serialize to."""
    return (*row[:2], str(row[2]), str(row[3]), *row[4:])


def _rows(table):
    """The rows of a table: its columns zipped."""
    return list(zip(*table[2]))


def _columns(rows, width):
    """The columns of `width` fields that hold these rows."""
    return [[row[j] for row in rows] for j in range(width)]


def _emitted(table, fmt, precision):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        emit(table, fmt, precision)
    return buf.getvalue()


def _assert_same_output(table, reference_rows):
    comments, fields, _ = table
    reference = (comments, fields, _columns(reference_rows, len(fields)))
    for fmt in ("csv", "json"):
        for precision in (12, 17):
            assert _emitted(table, fmt, precision) == _emitted(reference, fmt, precision)


_RATIONAL = st.builds(lambda p, q: f"{p}/{q}", st.integers(1, 12), st.integers(1, 12))
_DECIMAL = st.builds(lambda m, d: f"{m}e-{d}", st.integers(1, 9999), st.integers(0, 4))
_PARAM = st.one_of(st.just("1"), _RATIONAL, _DECIMAL)


@settings(max_examples=80, deadline=None)
@given(
    flag=st.sampled_from(["--t", "--epsilon"]),
    param=_PARAM,
    count=st.integers(min_value=1, max_value=300),
    with_multiplicity=st.booleans(),
)
def test_berger_rows_match_the_fraction_pipeline(flag, param, count, with_multiplicity):
    argv = ["berger", flag, param, "--count", str(count)]
    if with_multiplicity:
        argv.append("--with-multiplicity")
    args = build_parser().parse_args(argv)
    table = handle_berger(args)
    reference = _reference_berger_rows(args)
    assert len(table[2]) == len(table[1])
    assert [len(col) for col in table[2]] == [count] * len(table[1])
    assert len(reference) == count
    for row, ref in zip(_rows(table), reference):
        # A and B are exact columns: compared as the strings they serialize to
        assert _exact_as_str(row) == _exact_as_str(ref)
    _assert_same_output(table, list(map(_exact_as_str, reference)))


def test_berger_rows_match_where_many_modes_tie():
    # t = 1 is the round sphere, where value n carries about n/2 modes
    for argv, most in ((["--t", "1"], 60), (["--t", "1/2"], 2), (["--epsilon", "1/2"], 2)):
        args = build_parser().parse_args(["berger", *argv, "--count", "120", "--with-multiplicity"])
        table = handle_berger(args)
        assert max(len(label.split("+")) for label in table[2][4]) == most
        _assert_same_output(table, list(map(_exact_as_str, _reference_berger_rows(args))))


@pytest.mark.parametrize("flag", ["--t", "--epsilon"])
@pytest.mark.parametrize("count", [1, 2, 3, 4, 7, 60, 201])
def test_berger_at_x_one_matches_the_fraction_pipeline(flag, count):
    # x = 1 (t = 1 or epsilon = 1) writes the merge's closed form as text
    for extra in ([], ["--with-multiplicity"]):
        args = build_parser().parse_args(["berger", flag, "1", "--count", str(count), *extra])
        table = handle_berger(args)
        reference = list(map(_exact_as_str, _reference_berger_rows(args)))
        assert [len(col) for col in table[2]] == [count] * len(table[1])
        assert list(map(_exact_as_str, _rows(table))) == reference
        _assert_same_output(table, reference)


def test_plotdata_fig1_rows_match_distinct_spectrum_at():
    table = handle_plotdata(build_parser().parse_args(["plotdata", "fig1"]))
    reference = []
    for k in range(10, 241):
        t = Fraction(k, 200)
        values = [v for v, _ in distinct_spectrum_at(1 / t**3, 12)][1:]
        reference.append((float(t), *[float(t * v) for v in values]))
    assert _rows(table) == reference
    _assert_same_output(table, reference)


def test_plotdata_fig3_rows_match_slice_spectrum():
    table = handle_plotdata(build_parser().parse_args(["plotdata", "fig3"]))
    reference = []
    for k in range(1, 512):
        r = k * math.pi / 512
        geom = page_slice(r, _default_constants())
        shift = jacobi_shift(geom.ambient)
        reference.append((r, *[e.value - shift for e in slice_spectrum(geom, 6)]))
    assert _rows(table) == reference
    _assert_same_output(table, reference)


class _Float(float):
    pass


class _Int(int):
    pass


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("value", [True, False])
def test_emit_rejects_boolean_cells_in_both_formats(fmt, value):
    with pytest.raises(TypeError, match=r"column 'x' holds cells of type \['bool'\]"):
        _emitted(([], ["x"], [[value]]), fmt, 12)


def _former_emit(table, fmt, precision):
    """emit as it was with dict rows: a writerow and a cell call per cell.

    It took the table as rows; the columns are zipped into them here.
    """

    def cell(value):
        if isinstance(value, float):
            return f"{value:.{precision}g}"
        if isinstance(value, bool):
            raise TypeError("boolean cells are not part of any table")
        return str(value)

    def json_cell(value):
        if isinstance(value, Fraction):
            return str(value)
        if isinstance(value, int):
            return value
        if isinstance(value, float):
            return float(f"{value:.{precision}g}")
        return str(value)

    comments, fields, columns = table
    rows = [dict(zip(fields, row, strict=True)) for row in zip(*columns, strict=True)]
    if fmt == "json":
        payload = [{k: json_cell(row[k]) for k in fields} for row in rows]
        return json.dumps(payload, indent=2) + "\n"
    buf = io.StringIO()
    for c in comments:
        buf.write(f"# {c}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        writer.writerow(cell(row[k]) for k in fields)
    return buf.getvalue()


_HANDLER_ARGV = [
    ["sphere", "--dim", "3", "--kmax", "12"],
    ["berger", "--t", "1.41", "--count", "200"],
    ["berger", "--t", "1", "--count", "60", "--with-multiplicity"],
    ["berger", "--epsilon", "1", "--count", "40", "--with-multiplicity"],
    ["berger", "--epsilon", "3/7", "--count", "80", "--with-multiplicity"],
    ["piecewise", "--index", "7", "--xmax", "20"],
    ["piecewise", "--slot", "5"],
    ["index", "cp2", "--scan", "0.05", "3", "40"],
    ["index", "page", "--scan", "0.1", "3", "12"],
    ["index", "page", "--roots"],
    ["plotdata", "fig1"],
    ["plotdata", "fig2"],
    ["plotdata", "fig3"],
]


@pytest.mark.parametrize("argv", _HANDLER_ARGV, ids=" ".join)
def test_every_handler_column_holds_one_of_int_str_float(argv):
    args = build_parser().parse_args(argv)
    _, fields, columns = getattr(cli, f"handle_{args.command}")(args)
    assert len(columns) == len(fields)
    assert columns[0] and all(len(col) == len(columns[0]) for col in columns)
    for name, col in zip(fields, columns):
        kinds = set(map(type, col))
        assert len(kinds) == 1 and kinds <= {int, str, float}, (name, kinds)


@pytest.mark.parametrize("argv", _HANDLER_ARGV, ids=" ".join)
def test_emit_matches_the_former_dict_row_emit(argv):
    args = build_parser().parse_args(argv)
    table = getattr(cli, f"handle_{args.command}")(args)
    for fmt in ("csv", "json"):
        for precision in (12, 17):
            assert _emitted(table, fmt, precision) == _former_emit(table, fmt, precision)


def test_emit_matches_the_former_dict_row_emit_on_unusual_cells():
    fields = ["float", "int", "text"]
    rows = [
        (0.1, -3, "a,b"),
        (1e300, 0, 'say "hi"'),
        (float("inf"), 10**30, "two\nlines"),
        (-0.0, -(2**70), ""),
        (1e-310, 7, "(1,1)"),
        (float("nan"), 0, "None"),
    ]
    table = (["a comment, with a comma"], fields, _columns(rows, len(fields)))
    for fmt in ("csv", "json"):
        for precision in (1, 12, 17):
            assert _emitted(table, fmt, precision) == _former_emit(table, fmt, precision)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("value", [_Float(0.5), _Int(7), Fraction(3, 4), None], ids=repr)
def test_emit_refuses_cells_that_are_not_exactly_int_str_or_float(fmt, value):
    # a handler writes exact values such as Fractions as str itself
    message = f"column 'c' holds cells of type ['{type(value).__name__}']"
    with pytest.raises(TypeError, match=re.escape(message)):
        _emitted(([], ["c"], [[value, value]]), fmt, 12)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_refused_table_leaves_no_output_file(tmp_path, fmt):
    path = tmp_path / "table.out"
    with pytest.raises(TypeError, match="holds cells of type"):
        emit((["c"], ["n", "x"], [[1, 2], [0.5, None]]), fmt, 12, str(path))
    assert not path.exists()


_MALFORMED = [
    (["a", "b"], [(1, 2), (3,)], r"2 fields, columns of lengths \[2, 1\]"),
    (["a", "b"], [[1, 2]], r"2 fields, columns of lengths \[2\]"),
    (["a"], [[1], [2]], r"1 fields, columns of lengths \[1, 1\]"),
    (["a", "b"], [], r"2 fields, columns of lengths \[\]"),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("fields, columns, message", _MALFORMED)
def test_emit_refuses_a_table_of_the_wrong_shape(tmp_path, fmt, fields, columns, message):
    # columns that do not match the fields in number or length would be
    # cut short by zip; the table is refused before the output is opened
    with pytest.raises(TypeError, match=message):
        _emitted((["c"], fields, columns), fmt, 12)
    path = tmp_path / "table.out"
    with pytest.raises(TypeError, match=message):
        emit((["c"], fields, columns), fmt, 12, str(path))
    assert not path.exists()


def test_emit_writes_a_table_without_rows_as_its_header():
    table = (["no rows"], ["a", "b"], [[], []])
    assert _emitted(table, "csv", 12) == "# no rows\na,b\n" == _former_emit(table, "csv", 12)
    assert _emitted(table, "json", 12) == "[]\n" == _former_emit(table, "json", 12)


def _boundary_tables(n_rows):
    """Tables of n_rows rows whose str cells need no quoting in the first
    chunk, hold ',' in every other row of the second and '"' or LF in
    every other row from the third on, so each chunk takes another branch
    of the quoting rule.  Every row carries its number."""
    chunk = cli._CHUNK
    special = ["", "a,b", 'say "hi"', "two\nlines", 'x,"y"']
    mixed = [
        f"w{n}" if n < chunk or n % 2 else f"({n},1)" if n < 2 * chunk else f"{special[n % 5]}{n}"
        for n in range(n_rows)
    ]
    wide = (
        ["a comment, with a comma"],
        ["n", "value", "plain", "label", "mixed"],
        [
            list(range(n_rows)),
            [n / 7 for n in range(n_rows)],
            [f"{n}/3" for n in range(n_rows)],
            [f"({n},{n % 2})+({n},2)" for n in range(n_rows)],
            mixed,
        ],
    )
    # one column: an empty cell is a row of one empty field
    narrow = ([], ["only"], [["" if n % 3 == 0 else cell for n, cell in enumerate(mixed)]])
    return wide, narrow


@pytest.mark.parametrize("n_rows", [0, 1, cli._CHUNK - 1, cli._CHUNK, cli._CHUNK + 1, 2 * cli._CHUNK + 1])
def test_emit_matches_the_former_emit_at_chunk_boundaries(n_rows):
    # csv.writer and one json.dumps are the oracle: a row lost, doubled or
    # left unterminated where one chunk ends and the next begins changes
    # the bytes
    for table in _boundary_tables(n_rows):
        for fmt in ("csv", "json"):
            assert _emitted(table, fmt, 17) == _former_emit(table, fmt, 17)


@pytest.mark.parametrize(
    "fields, columns, text",
    [
        (["only"], [["", "a", ""]], 'only\n""\na\n""\n'),  # a row of one empty field
        ([""], [[]], '""\n'),  # a header of one empty field, and no rows
        (["a", "b"], [["", ""], ["", "x"]], "a,b\n,\n,x\n"),  # empty fields beside others stay bare
        (["a"], [["x,y", "p"]], 'a\n"x,y"\np\n'),
        (["a"], [["x,y", 'q"', "p"]], 'a\n"x,y"\n"q"""\np\n'),
    ],
)
def test_emit_quotes_by_the_csv_writer_rule(fields, columns, text):
    table = ([], fields, columns)
    assert _emitted(table, "csv", 12) == text == _former_emit(table, "csv", 12)


def test_emit_quotes_a_carriage_return():
    # RFC 4180 and csv.writer from Python 3.13 on quote a cell holding CR;
    # before 3.13, csv.writer with lineterminator="\n" leaves it bare.  No
    # handler writes a CR, so only this table tells the two apart
    table = ([], ["a", "b", "c"], [["x\ry", "plain"], ['q"\r', "p"], [1, 2]])
    assert _emitted(table, "csv", 12) == 'a,b,c\n"x\ry","q""\r",1\nplain,p,2\n'
    assert json.loads(_emitted(table, "json", 12))[0] == {"a": "x\ry", "b": 'q"\r', "c": 1}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_rejects_a_boolean_inside_an_int_column(fmt):
    columns = [[1, True, 3], [0.5, 1.5, 2.5]]
    with pytest.raises(TypeError, match=r"column 'n' holds cells of type \['bool', 'int'\]"):
        _emitted(([], ["n", "x"], columns), fmt, 12)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="ints of any length print")
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("sign", [1, -1])
def test_emit_refuses_an_int_past_the_digit_limit_before_the_output_opens(tmp_path, fmt, sign):
    # the cell of most digits is the column's largest or its smallest; one
    # of exactly the limit's digits is written
    limit = sys.get_int_max_str_digits()
    edge = sign * (10**limit - 1)
    assert _emitted(([], ["n"], [[2, edge, 3]]), fmt, 12) == _former_emit(([], ["n"], [[2, edge, 3]]), fmt, 12)
    table = (["c"], ["x", "n"], [[0.5, 1.5, 2.5], [2, sign * 10**limit, 3]])
    path = tmp_path / "table.out"
    message = f"column 'n' holds an int of more than {limit} digits, too long to print"
    with pytest.raises(ValueError, match=message):
        emit(table, fmt, 12, str(path))
    assert not path.exists()


def _float_of_bits(bits: int) -> float:
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


_SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.225073858507201e-308, sys.float_info.max]


@settings(max_examples=150, deadline=None)
@given(
    values=st.lists(
        st.one_of(
            st.floats(),  # ±0.0, ±inf and nan among them
            st.floats(min_value=-2.3e-308, max_value=2.3e-308),  # subnormals
            st.integers(0, 2**64 - 1).map(_float_of_bits),  # any bit pattern
        ),
        min_size=1,
        max_size=cli._CHUNK + 1,
    )
)
@example(values=_SPECIAL_FLOATS)
def test_emit_writes_each_float_as_its_format_at_every_precision(values):
    # each chunk is one % of the row format; a float cell must read as
    # format(v, ".{p}g") at every precision --precision accepts
    table = ([], ["v", "n"], [values, list(range(len(values)))])
    for p in range(1, cli.MAX_PRECISION + 1):
        lines = _emitted(table, "csv", p).splitlines()
        assert lines == ["v,n", *[f"{format(v, f'.{p}g')},{n}" for n, v in enumerate(values)]]


_CELLS = {
    "float": st.floats(),  # inf and nan included
    "sub_float": st.floats().map(_Float),
    "int": st.integers(),
    "sub_int": st.integers().map(_Int),
    "fraction": st.fractions(),
    "none": st.none(),
    "bool": st.booleans(),
    "text": st.text(alphabet='ab ,"\n', max_size=5),
}


@st.composite
def _mixed_tables(draw):
    """A table of 1 to 4 columns, each drawing its cells from one of int,
    str and float, or from 1 to 3 cell kinds of any sort."""
    n_rows = draw(st.integers(0, 6))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            kinds = [draw(st.sampled_from(["float", "int", "text"]))]
        else:
            kinds = draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1, max_size=3, unique=True))
        cell = st.one_of([_CELLS[kind] for kind in kinds])
        columns.append(draw(st.lists(cell, min_size=n_rows, max_size=n_rows)))
    fields = [f"c{j}" for j in range(len(columns))]
    return ["generated"], fields, columns


@settings(max_examples=300, deadline=None)
@given(table=_mixed_tables())
@example(
    table=(
        [],
        ["float", "int", "text"],
        [
            [float("nan"), float("inf"), float("-inf")],
            [7, -2, 10**30],
            ["a,b", 'say "hi"\n', ""],
        ],
    )
)
@example(table=([], ["n", "int_text"], [[1, 2], [7, "a,b"]]))
@example(
    table=(
        [],
        ["float_nan", "float_none", "int_sub", "int_text", "fraction_float"],
        [
            [float("nan"), float("inf"), _Float(float("-inf"))],
            [0.25, None, 1e-310],
            [7, _Int(-2), 10**30],
            [7, "a,b", 'say "hi"\n'],
            [Fraction(1, 3), 2 / 3, Fraction(-5)],
        ],
    )
)
def test_emit_matches_the_former_dict_row_emit_on_mixed_columns(table):
    # where every column holds exactly one of int, str and float, the bytes
    # are the former emit's; any other column is refused in both formats
    _, _, columns = table
    one_type = all(len(set(map(type, col))) <= 1 for col in columns)
    if one_type and {type(cell) for col in columns for cell in col} <= {int, str, float}:
        for fmt in ("csv", "json"):
            for precision in (1, 12, 17):
                assert _emitted(table, fmt, precision) == _former_emit(table, fmt, precision)
    else:
        for fmt in ("csv", "json"):
            with pytest.raises(TypeError, match="holds cells of type"):
                _emitted(table, fmt, 12)
