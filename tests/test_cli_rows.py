"""The single-pass berger and plotdata rows against the row building they replaced.

The references below are the handlers' former code: Fraction values,
Mode objects and SpectrumEntry rows from the public spectrum functions.
Every row must agree with `==`, and so must the emitted CSV and JSON.
"""

import contextlib
import io
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergerspec.cli import (
    OutputRequest,
    _cell,
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
        row = {
            "n": n,
            "value": float(scale * value),
            "A": Fraction(modes[0].A),
            "B": Fraction(modes[0].B),
            "mode": _mode_label(modes),
        }
        if args.with_multiplicity:
            row["multiplicity"] = mult
        rows.append(row)
    return rows


def _emitted(table, fmt, precision):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        emit(table, OutputRequest(format=fmt, precision=precision))
    return buf.getvalue()


def _assert_same_output(table, reference_rows):
    comments, fields, rows = table
    reference = (comments, fields, reference_rows)
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
    assert len(table[2]) == len(reference) == count
    for row, ref in zip(table[2], reference):
        # A and B are exact columns: compared as the strings they serialize to
        assert {**row, "A": str(row["A"]), "B": str(row["B"])} == {
            **ref, "A": str(ref["A"]), "B": str(ref["B"])
        }
    _assert_same_output(table, reference)


def test_berger_rows_match_where_many_modes_tie():
    # t = 1 is the round sphere, where value n carries about n/2 modes
    for argv, most in ((["--t", "1"], 60), (["--t", "1/2"], 2), (["--epsilon", "1/2"], 2)):
        args = build_parser().parse_args(["berger", *argv, "--count", "120", "--with-multiplicity"])
        table = handle_berger(args)
        assert max(len(row["mode"].split("+")) for row in table[2]) == most
        _assert_same_output(table, _reference_berger_rows(args))


def test_plotdata_fig1_rows_match_distinct_spectrum_at():
    table = handle_plotdata(build_parser().parse_args(["plotdata", "fig1"]))
    reference = []
    for k in range(10, 241):
        t = Fraction(k, 200)
        values = [v for v, _ in distinct_spectrum_at(1 / t**3, 12)][1:]
        row = {"t": float(t)}
        for j, v in enumerate(values, start=1):
            row[f"l{j}"] = float(t * v)
        reference.append(row)
    assert table[2] == reference
    _assert_same_output(table, reference)


def test_plotdata_fig3_rows_match_slice_spectrum():
    table = handle_plotdata(build_parser().parse_args(["plotdata", "fig3"]))
    reference = []
    for k in range(1, 512):
        r = k * math.pi / 512
        geom = page_slice(r, _default_constants())
        shift = jacobi_shift(geom.ambient)
        row = {"r": r}
        for j, e in enumerate(slice_spectrum(geom, 6), start=1):
            row[f"ev{j}"] = e.value - shift
        reference.append(row)
    assert table[2] == reference
    _assert_same_output(table, reference)


class _Float(float):
    pass


class _Int(int):
    pass


@pytest.mark.parametrize(
    "value, text",
    [
        (0.1, "0.1"),
        (_Float(2 / 3), "0.666666666667"),
        (7, "7"),
        (_Int(7), "7"),
        (Fraction(3, 4), "3/4"),
        ("(1,1)", "(1,1)"),
        (None, "None"),
    ],
)
def test_cell_formats_exact_types_and_subclasses_alike(value, text):
    assert _cell(value, 12) == text


@pytest.mark.parametrize("value", [True, False])
def test_cell_rejects_booleans(value):
    with pytest.raises(TypeError, match="boolean"):
        _cell(value, 12)
