import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bergerspec import cli
from bergerspec.cli import _scan_grid, build_parser, main
from bergerspec.jacobi import EinsteinAmbient, jacobi_shift
from oracles import json_problem


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def csv_rows(out):
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    parsed = list(csv.reader(lines))
    header = parsed[0]
    return header, [dict(zip(header, row)) for row in parsed[1:]]


def test_sphere_table(capsys):
    code, out, err = run(capsys, "sphere", "--dim", "3", "--kmax", "2")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["k", "eigenvalue", "multiplicity"]
    assert [(r["k"], r["eigenvalue"], r["multiplicity"]) for r in rows] == [
        ("0", "0", "1"),
        ("1", "3", "4"),
        ("2", "8", "9"),
    ]


def test_sphere_usage_error(capsys):
    code, out, err = run(capsys, "sphere", "--dim", "0", "--kmax", "2")
    assert code == 2
    assert err.strip()
    assert len(err.strip().splitlines()) == 1


def test_sphere_json(capsys):
    code, out, _ = run(capsys, "sphere", "--dim", "2", "--kmax", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data == [
        {"k": 0, "eigenvalue": 0, "multiplicity": 1},
        {"k": 1, "eigenvalue": 2, "multiplicity": 3},
    ]


def test_berger_round_values(capsys):
    code, out, _ = run(capsys, "berger", "--t", "1", "--count", "4")
    assert code == 0
    _, rows = csv_rows(out)
    assert [r["value"] for r in rows] == ["0", "3", "8", "15"]
    # exact branch columns
    assert [(r["A"], r["B"]) for r in rows] == [("0", "0"), ("2", "1"), ("8", "0"), ("14", "1")]


def test_berger_epsilon(capsys):
    code, out, _ = run(capsys, "berger", "--epsilon", "2", "--count", "2")
    assert code == 0
    _, rows = csv_rows(out)
    assert float(rows[1]["value"]) == pytest.approx(2.25)


def test_berger_contains_collapsed_branch(capsys):
    code, out, _ = run(capsys, "berger", "--t", "0.5", "--count", "12")
    assert code == 0
    _, rows = csv_rows(out)
    assert any(float(r["value"]) == pytest.approx(4.0) and r["B"] == "0" for r in rows)


def test_berger_param_exclusivity(capsys):
    code, _, err = run(capsys, "berger", "--count", "3")
    assert code == 2
    code, _, err = run(capsys, "berger", "--t", "1", "--epsilon", "1")
    assert code == 2


def test_berger_multiplicity_flag(capsys):
    code, out, _ = run(capsys, "berger", "--t", "1", "--count", "3", "--with-multiplicity")
    assert code == 0
    header, rows = csv_rows(out)
    assert header[-1] == "multiplicity"
    assert [r["multiplicity"] for r in rows] == ["1", "4", "9"]


def test_piecewise_index_one(capsys):
    code, out, _ = run(capsys, "piecewise", "--index", "1", "--xmax", "20")
    assert code == 0
    _, rows = csv_rows(out)
    assert [(r["lo"], r["hi"], r["A"], r["B"]) for r in rows] == [
        ("0", "6", "2", "1"),
        ("6", "20", "8", "0"),
    ]


def test_piecewise_exact_fraction_round_trip(capsys):
    code, out, _ = run(capsys, "piecewise", "--index", "4", "--xmax", "20")
    assert code == 0
    _, rows = csv_rows(out)
    assert Fraction(rows[0]["hi"]) == Fraction(2, 9)
    # every endpoint re-parses exactly and the cells chain
    for left, right in zip(rows, rows[1:]):
        assert Fraction(left["hi"]) == Fraction(right["lo"])


def test_piecewise_slot_four(capsys):
    code, out, _ = run(capsys, "piecewise", "--slot", "4", "--xmax", "20")
    assert code == 0
    _, rows = csv_rows(out)
    assert [(r["lo"], r["hi"], r["A"], r["B"]) for r in rows] == [("0", "20", "8", "0")]


def test_piecewise_usage(capsys):
    assert run(capsys, "piecewise", "--xmax", "5")[0] == 2
    assert run(capsys, "piecewise", "--index", "1", "--slot", "2")[0] == 2
    assert run(capsys, "piecewise", "--index", "1", "--xmax", "0")[0] == 2
    assert run(capsys, "piecewise", "--index", "1", "--xmax", "abc")[0] == 2
    assert run(capsys, "piecewise", "--slot", "20", "--xmax", "5")[0] == 2


@pytest.mark.parametrize(
    "argv, line",
    [
        (["piecewise", "--index", "1", "--xmax", "0"], "--xmax must be positive, got 0"),
        (["piecewise", "--slot", "1", "--xmax", "0"], "--xmax must be positive, got 0"),
        (["berger", "--t", "0"], "--t must be positive, got 0"),
        (["berger", "--epsilon=-1/2"], "--epsilon must be positive, got -1/2"),
        (["piecewise", "--index", "0"], "--index must be a positive integer, got 0"),
        (["piecewise", "--index", "-3", "--xmax", "2"], "--index must be a positive integer, got -3"),
        (["berger", "--t", "1", "--count", "0"], "--count must be a positive integer, got 0"),
        (["berger", "--epsilon", "2", "--count", "-1"], "--count must be a positive integer, got -1"),
    ],
)
def test_nonpositive_exact_flag_is_a_domain_error(capsys, argv, line):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"bergerspec: {line}\n"


def _too_long_to_print():
    """Requests whose exact values pass the int-to-str digit limit L, with the flag each names."""
    L = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not L:
        return []
    return [
        (["berger", "--t", f"1e{L // 3 + 1}", "--count", "3"], "--t"),  # x = t^-3
        (["berger", "--t", f"1e{L}"], "--t"),
        (["berger", "--t", f"-1e{L}"], "--t"),
        (["berger", "--epsilon", f"1e{L // 2 + 1}", "--count", "3"], "--epsilon"),  # x = eps^-2
        (["piecewise", "--index", "2", "--xmax", f"1e{L}"], "--xmax"),
        (["piecewise", "--slot", "1", "--xmax", f"1e-{L}"], "--xmax"),
        (["piecewise", "--index", "1", "--xmax", f"-1e{L}"], "--xmax"),
    ]


@pytest.mark.parametrize("argv, flag", _too_long_to_print())
def test_exact_value_too_long_to_print_names_the_flag(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    limit = sys.get_int_max_str_digits()
    assert err == f"bergerspec: {flag} needs more than {limit} digits to print exactly\n"


_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="this interpreter prints ints of any length")
@pytest.mark.parametrize(
    "argv, flag",
    [
        (["berger", "--t", "1e1000000", "--count", "3"], "--t"),
        (["berger", "--t", "1e-1000000"], "--t"),
        (["berger", "--epsilon", "1e-1000000"], "--epsilon"),
        (["piecewise", "--index", "2", "--xmax", "1e1000000"], "--xmax"),
    ],
)
def test_a_huge_exponent_is_refused_before_the_value_is_expanded(capsys, argv, flag):
    # the line the handler gives once the value is built, which took about
    # 2 s for these literals; past twice the limit no nonzero value prints
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert err == f"bergerspec: {flag} needs more than {_DIGIT_LIMIT} digits to print exactly\n"


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="this interpreter prints ints of any length")
def test_an_exponent_past_the_limit_is_read_when_the_value_prints(capsys):
    # within twice the limit the mantissa's zeros can cancel it: x_max = 10^-400
    literal = "1" + "0" * (_DIGIT_LIMIT - 300) + f"e-{_DIGIT_LIMIT + 100}"
    code, out, err = run(capsys, "piecewise", "--index", "1", "--xmax", literal)
    assert (code, err) == (0, "")
    assert f"on (0, 1/1{'0' * 400}]" in out


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="this interpreter prints ints of any length")
def test_a_zero_mantissa_with_a_huge_exponent_is_zero(capsys):
    for literal in ("0e1000000", "-0.0e-1000000"):
        code, out, err = run(capsys, "berger", "--t", literal)
        assert (code, out, err) == (2, "", "bergerspec: --t must be positive, got 0\n")


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="this interpreter reads ints of any length")
@pytest.mark.parametrize(
    "argv, form",
    [
        *[(argv, form) for argv in (["berger", "--t"], ["berger", "--epsilon"], ["piecewise", "--index", "2", "--xmax"])
          for form in ("{}", "0.{}", "1/{}", "-{}e3")],
        (["berger", "--t", "1", "--count"], "{}"),
        (["berger", "--t", "1", "--count"], "-{}"),
    ],
)
def test_a_literal_past_the_digit_limit_is_one_line_naming_the_flag(capsys, argv, form):
    # a valid literal that only int() refuses to read, as it would refuse to print it
    literal = form.format("1" * (_DIGIT_LIMIT + 700))
    code, out, err = run(capsys, *argv, literal)
    assert (code, out) == (2, "")
    assert err == f"bergerspec: error: {argv[-1]} needs more than {_DIGIT_LIMIT} digits to read exactly\n"


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="this interpreter prints ints of any length")
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_an_int_cell_past_the_digit_limit_is_refused_before_the_first_byte(capsys, tmp_path, fmt):
    # --dim reads, but the multiplicity of degree 2, about dim^2 / 2, has
    # about twice its digits; JSON once wrote "[\n" before refusing it
    argv = ["sphere", "--dim", "9" * (_DIGIT_LIMIT - 300), "--kmax", "2", "--format", fmt]
    line = f"bergerspec: column 'multiplicity' holds an int of more than {_DIGIT_LIMIT} digits, too long to print\n"
    assert run(capsys, *argv) == (2, "", line)
    path = tmp_path / "table.out"
    assert run(capsys, *argv, "--output", str(path)) == (2, "", line)
    assert not path.exists()


@pytest.mark.parametrize("slot", ["0", "12", "-1"])
def test_piecewise_slot_out_of_range_names_the_flag(capsys, slot):
    code, out, err = run(capsys, "piecewise", "--slot", slot)
    assert (code, out) == (2, "")
    assert err == f"bergerspec: --slot must be in 1..11, got {slot}\n"


def test_piecewise_rational_xmax(capsys):
    code, out, _ = run(capsys, "piecewise", "--index", "1", "--xmax", "9/2")
    assert code == 0
    _, rows = csv_rows(out)
    assert rows == [{"lo": "0", "hi": "9/2", "A": "2", "B": "1", "mode": "(1,1)"}]


def test_index_cp2(capsys):
    code, out, _ = run(capsys, "index", "cp2", "--r", "1")
    assert code == 0
    _, rows = csv_rows(out)
    assert rows[0]["index"] == "1"
    assert rows[0]["nullity"] == "0"
    assert float(rows[0]["first_shifted"]) == pytest.approx(6.5)


@pytest.mark.parametrize("space", ["cp2", "page"])
def test_index_scan_builds_one_spectrum_per_row(capsys, monkeypatch, space):
    from bergerspec import berger, slices

    calls = []
    original = berger._modes  # the integer merge behind every spectrum

    def counting(P, Q, count):
        calls.append(count)
        return original(P, Q, count)

    for module in (berger, slices):
        monkeypatch.setattr(module, "_modes", counting)
    code, out, _ = run(capsys, "index", space, "--scan", "0.5", "2.5", "5", "--depth", "9")
    assert code == 0
    assert len(csv_rows(out)[1]) == 5
    assert calls == [9] * 5


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cp2", "--r", "1", "--depth", "10001"], "--depth must be at most 10000, got 10001"),
        (["page", "--roots", "--depth", "10001"], "--depth must be at most 10000, got 10001"),
        (["page", "--scan", "0.5", "2", "3", "--depth", "0"], "--depth must be a positive integer, got 0"),
        (["page", "--roots", "--depth", "-3"], "--depth must be a positive integer, got -3"),
    ],
)
def test_index_depth_is_checked_before_any_root_or_row(capsys, monkeypatch, argv, message):
    from bergerspec import berger, slices

    calls = []
    for module in (berger, slices, cli):
        monkeypatch.setattr(module, "_modes", lambda *args: calls.append(args))
    monkeypatch.setattr(cli, "page_transition_roots", lambda *args: calls.append(args))
    assert run(capsys, "index", *argv) == (2, "", f"bergerspec: {message}\n")
    assert calls == []


def test_index_depth_at_its_bound_runs(capsys):
    assert cli.MAX_DEPTH == 10_000
    assert f"at most {cli.MAX_DEPTH}" in cli._usage("index")
    code, out, _ = run(capsys, "index", "cp2", "--r", "1", "--depth", "10000")
    assert code == 0
    assert (csv_rows(out)[1][0]["index"], csv_rows(out)[1][0]["nullity"]) == ("1", "0")


def test_index_cp2_domain_error(capsys):
    code, _, err = run(capsys, "index", "cp2", "--r", "-1")
    assert code == 2


def test_index_page_roots(capsys):
    code, out, _ = run(capsys, "index", "page", "--roots", "--tol", "1e-6")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["root", "r"]
    r1, r2 = float(rows[0]["r"]), float(rows[1]["r"])
    assert r1 == pytest.approx(0.7032761573791504, abs=1e-3)
    assert r2 == pytest.approx(2.4383171081542976, abs=1e-3)
    assert "certified roots" in out.splitlines()[1]


def test_index_page_scan(capsys):
    code, out, _ = run(capsys, "index", "page", "--scan", "0.3", "2.9", "14", "--depth", "8")
    assert code == 0
    _, rows = csv_rows(out)
    pattern = [r["index"] for r in rows]
    assert pattern[0] == "1" and pattern[-1] == "1"
    assert "5" in pattern
    # indices only ever step between 1 and 5 here
    assert set(pattern) == {"1", "5"}


def test_index_page_scan_reaches_the_float_below_pi(capsys):
    # rmin + 79 * step rounded up to pi itself, which the Page family refuses
    rmax = math.nextafter(math.pi, 0.0)
    code, out, err = run(capsys, "index", "page", "--scan", "0.1", repr(rmax), "80", "--precision", "17")
    assert (code, err) == (0, "")
    _, rows = csv_rows(out)
    assert (len(rows), float(rows[0]["r"]), float(rows[-1]["r"])) == (80, 0.1, rmax)


@settings(max_examples=300, deadline=None)
@given(
    rmin=st.floats(min_value=1e-6, max_value=1e3),
    rmax=st.floats(min_value=1e-6, max_value=1e3),
    steps=st.integers(min_value=2, max_value=400),
)
@example(rmin=0.001, rmax=0.0095, steps=40)  # a benchmark scan that ended at 0.009500000000000001
@example(rmin=0.1, rmax=math.nextafter(math.pi, 0.0), steps=80)
def test_scan_grid_runs_from_rmin_to_rmax_exactly(rmin, rmax, steps):
    assume(rmin < rmax)
    grid = _scan_grid([rmin, rmax, float(steps)])
    assert len(grid) == steps
    assert (grid[0], grid[-1]) == (rmin, rmax)
    assert all(rmin <= r <= rmax for r in grid)


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_index_page_non_finite_tolerance(capsys, tol):
    code, out, err = run(capsys, "index", "page", "--roots", "--tol", tol)
    assert (code, out) == (2, "")
    assert err == f"bergerspec: tolerance must be finite and positive, got {tol}\n"


@pytest.mark.parametrize("steps", ["inf", "nan"])
def test_index_scan_non_finite_steps(capsys, steps):
    code, out, err = run(capsys, "index", "cp2", "--scan", "1", "2", steps)
    assert (code, out) == (2, "")
    assert err == f"bergerspec: scan steps must be an integer >= 2, got {steps}\n"


@pytest.mark.parametrize("space", ["cp2", "page"])
@pytest.mark.parametrize("rmin, rmax", [("1", "inf"), ("nan", "2"), (" -inf", "2")])
def test_index_scan_non_finite_range(capsys, space, rmin, rmax):
    # the error names the scan range, not a radius the grid made from it
    code, out, err = run(capsys, "index", space, "--scan", rmin, rmax, "3")
    assert (code, out) == (2, "")
    assert err == f"bergerspec: scan range must be finite, got [{float(rmin)}, {float(rmax)}]\n"


def test_index_scan_bare_negative_infinity_is_a_usage_error(capsys):
    # a bare "-inf" is a value, not an option, so the range check names it
    code, out, err = run(capsys, "index", "cp2", "--scan", "-inf", "2", "3")
    assert (code, out) == (2, "")
    assert err == "bergerspec: scan range must be finite, got [-inf, 2.0]\n"


_NEGATIVE_VALUES = [
    (["index", "cp2", "--r", "-inf"], "radius must be finite and positive, got -inf"),
    (["index", "cp2", "--r", "-1e-3"], "radius must be finite and positive, got -0.001"),
    (["index", "cp2", "--scan", "-1e-3", "2", "3"], "scan range must be positive, got rmin = -0.001"),
    (["berger", "--t", "-1/2"], "--t must be positive, got -1/2"),
    (["berger", "--t", "-1e-3"], "--t must be positive, got -1/1000"),
    (["piecewise", "--index", "2", "--xmax", "-1/2"], "--xmax must be positive, got -1/2"),
]


@pytest.mark.parametrize(
    "argv, message", _NEGATIVE_VALUES, ids=[" ".join(argv) for argv, _ in _NEGATIVE_VALUES]
)
def test_negative_values_reach_the_domain_checks(capsys, argv, message):
    # argparse's own pattern takes only "-3" and "-0.5" for negative numbers
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"bergerspec: {message}\n"


# every real-valued flag, at the place of "{}", with the words its refusals may name
_REAL_FLAGS = [
    ("berger --t {}", ("--t",)),
    ("berger --epsilon {}", ("--epsilon",)),
    ("piecewise --index 2 --xmax {}", ("--xmax",)),
    ("piecewise --slot 1 --xmax {}", ("--xmax",)),
    *[
        (f"index {space} {flag}", ("radius", "slice parameter", "scan"))
        for space in ("cp2", "page")
        for flag in ("--r {}", "--scan {} 2 3", "--scan 0.5 {} 3")
    ],
    ("index page --roots --tol {}", ("tolerance",)),
    ("index page --r 1 --tol {}", ("tolerance",)),
]
_EDGE_LITERALS = [
    "0", "-0", "5e-324", "1e-320", "1e-300", "1e300", "1e308", "1.7976931348623157e308",
    "nan", "inf", "-inf", "1e400", "1e-400", "7" * 400, "1e1000000",
]


@pytest.mark.parametrize("literal", _EDGE_LITERALS, ids=lambda text: text[:24])
@pytest.mark.parametrize("template, names", _REAL_FLAGS, ids=[template for template, _ in _REAL_FLAGS])
def test_an_edge_of_domain_literal_is_answered_or_refused_in_one_line(capsys, template, names, literal):
    # a refusal names the flag or its parameter, and nothing is a traceback
    code, out, err = run(capsys, *template.format(literal).split())
    if code == 0:
        assert err == ""
    else:
        assert (code, out, err.count("\n")) == (2, "", 1), (template, err)
        assert any(name in err for name in names), (template, err)


def test_a_dash_that_is_no_number_is_still_an_unknown_option(capsys):
    code, out, err = run(capsys, "index", "cp2", "--r", "-x")
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --r: expected one argument\n")


_COMMAND_BASES = {
    "sphere": ["sphere", "--dim", "3", "--kmax", "2"],
    "berger": ["berger"],
    "piecewise": ["piecewise"],
    "index": ["index", "cp2"],
    "plotdata": ["plotdata", "fig1"],
}


@pytest.mark.parametrize("text", ["-3", "-.5", "-1e-3", "-1/2", "-inf", "-NaN"])
def test_negative_numbers_are_values_of_every_option_that_takes_one(capsys, text):
    # each is read as the option's value, then kept or refused by its type or
    # choices; none is taken for an unknown option or a missing value
    options = [(c, f, o) for c, table in cli.COMMANDS.items() for f, o in table.items() if o.nargs and f[0] == "-"]
    assert {f for _, f, _ in options} >= {"--t", "--epsilon", "--xmax", "--r", "--scan", "--tol", "--output"}
    for command, flag, opt in options:
        argv = [*_COMMAND_BASES[command], flag, *[text] * opt.nargs]  # --scan takes three
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            err = capsys.readouterr().err
            assert exc.code == 2, argv
            assert err.startswith(f"bergerspec: error: argument {flag}: invalid "), (argv, err)
            assert f"{text!r}" in err, (argv, err)
        else:
            want = [opt.type(text)] * opt.nargs
            value = getattr(args, flag[2:].replace("-", "_"))
            assert repr(value) == repr(want if opt.nargs > 1 else want[0]), argv


def test_index_mode_exclusivity(capsys):
    assert run(capsys, "index", "cp2")[0] == 2
    assert run(capsys, "index", "cp2", "--r", "1", "--roots")[0] == 2
    assert run(capsys, "index", "cp2", "--scan", "1", "0.5", "4")[0] == 2
    # --roots is a page-family concept
    assert run(capsys, "index", "cp2", "--roots")[0] == 2


def test_index_page_domain(capsys):
    assert run(capsys, "index", "page", "--r", "3.5")[0] == 2
    assert run(capsys, "index", "page", "--scan", "0.5", "3.5", "4")[0] == 2


@pytest.mark.parametrize("space", ["cp2", "page"])
def test_index_zero_radius_counts_as_given(capsys, space):
    # --r 0 is a value, not an absent flag
    code, out, err = run(capsys, "index", space, "--r", "0", "--scan", "1", "2", "3")
    assert (code, out) == (2, "")
    assert "exactly one of --r, --scan, --roots" in err
    code, out, err = run(capsys, "index", space, "--r", "0")
    assert (code, out) == (2, "")
    assert "exactly one of" not in err
    assert "0.0" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["page", "--r", "1e-200"],
        ["page", "--scan", "1e-200", "1", "3"],
        ["cp2", "--r", "1e200"],
        ["cp2", "--r", "1e-200"],
        ["cp2", "--r", "1e-160"],
    ],
)
def test_index_extreme_radius_is_a_domain_error(capsys, argv):
    # r^2, D^2 sin^2 r or a slice value under- or overflows; the error names r, not a coefficient
    code, _, err = run(capsys, "index", *argv)
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert "slice parameter r = " in err
    assert "Traceback" not in err
    assert "coefficient" not in err and "nan" not in err


def test_index_page_corrupt_config(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("a = 0.5\nf_const = 1.3\nC = 0.48\nD = 0.69\n")
    code, _, err = run(
        capsys, "index", "page", "--r", "1", "--page-config", str(cfg)
    )
    assert code == 3
    assert "quartic" in err or "anchor" in err or "match" in err


def test_index_page_config_whose_d_squared_is_not_c(capsys, tmp_path):
    text = resources.files("bergerspec").joinpath("data/page_constants.cfg").read_text()
    cfg = tmp_path / "page.cfg"
    cfg.write_text("".join("C = 0.5\n" if line.startswith("C =") else f"{line}\n" for line in text.splitlines()))
    code, out, err = run(capsys, "index", "page", "--roots", "--page-config", str(cfg))
    assert (code, out) == (3, "")
    assert err == "bergerspec: D^2 = 0.4822813210435226 does not match C = 0.5\n"


@pytest.mark.parametrize("line, key", [("f_const = 1.25", "f_const"), ("bogus_key = 7", "bogus_key")])
def test_index_page_config_with_a_repeated_or_unknown_key(capsys, tmp_path, line, key):
    text = resources.files("bergerspec").joinpath("data/page_constants.cfg").read_text()
    cfg = tmp_path / "page.cfg"
    cfg.write_text(f"{text}{line}\n")
    code, out, err = run(capsys, "index", "page", "--roots", "--page-config", str(cfg))
    assert (code, out) == (3, "")
    assert err.startswith(f"bergerspec: line {len(text.splitlines()) + 1}: ") and err.count("\n") == 1
    assert repr(key) in err


def test_plotdata_fig2_value(capsys):
    code, out, _ = run(capsys, "plotdata", "fig2")
    assert code == 0
    _, rows = csv_rows(out)
    at_one = next(r for r in rows if float(r["r"]) == 1.0)
    assert float(at_one["jacobi_lambda1"]) == pytest.approx(6.5)


def test_the_cp2_shift_in_index_and_fig2_is_the_ambients(capsys, monkeypatch):
    # an ambient of s = 24 (s/n = 6): the comment lines, the rows and fig2 follow it
    from bergerspec import slices
    from bergerspec.jacobi import EinsteinAmbient

    ambient = EinsteinAmbient(4, 24.0, "hypersurface", "CP^2")
    monkeypatch.setattr(slices, "CP2_AMBIENT", ambient)
    monkeypatch.setattr(cli, "CP2_AMBIENT", ambient)
    code, out, _ = run(capsys, "index", "cp2", "--r", "1")
    assert code == 0 and out.startswith("# cp2 geodesic spheres, Jacobi shift 6\n")
    _, rows = csv_rows(out)
    assert (rows[0]["index"], rows[0]["nullity"], rows[0]["first_shifted"]) == ("1", "0", "2")
    code, out, _ = run(capsys, "plotdata", "fig2", "--precision", "17")
    assert code == 0
    assert out.startswith("# first Jacobi eigenvalue of the cp2 geodesic spheres: lambda_1(r) - 6\n")
    _, rows = csv_rows(out)
    assert len(rows) == 596
    for row in rows:
        assert float(row["jacobi_lambda1"]) == slices.cp2_lambda1(float(row["r"])) - 6.0


@pytest.mark.parametrize("s", [1.5, 6.0, -1.5, 0.1, jacobi_shift(EinsteinAmbient(4, 24.0, "hypersurface", "CP^2"))])
def test_the_shift_text_is_the_fraction_of_the_float(s):
    assert cli._ratio_text(s) == str(Fraction(s))


def test_plotdata_fig1_round_column(capsys):
    code, out, _ = run(capsys, "plotdata", "fig1")
    assert code == 0
    header, rows = csv_rows(out)
    assert header[:3] == ["t", "l1", "l2"]
    at_one = next(r for r in rows if float(r["t"]) == 1.0)
    assert float(at_one["l1"]) == pytest.approx(3.0)
    assert float(at_one["l11"]) == pytest.approx(143.0)  # k=11 round eigenvalue


def test_plotdata_fig3_crosses_zero(capsys, tmp_path):
    out_path = tmp_path / "fig3.csv"
    code, _, _ = run(capsys, "plotdata", "fig3", "--output", str(out_path))
    assert code == 0
    header, rows = csv_rows(out_path.read_text())
    assert header[0] == "r" and header[1] == "ev1"
    ev2 = [float(r["ev2"]) for r in rows]
    flips = sum(1 for a, b in zip(ev2, ev2[1:]) if (a > 0) != (b > 0))
    assert flips == 2
    # ev1 is the constant mode, always the negative shift
    assert all(float(r["ev1"]) == pytest.approx(-3.238, abs=1e-3) for r in rows)


def test_output_file_and_json(capsys, tmp_path):
    out_path = tmp_path / "sphere.json"
    code, _, _ = run(
        capsys, "sphere", "--dim", "3", "--kmax", "1", "--format", "json",
        "--output", str(out_path),
    )
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data[1]["eigenvalue"] == 3


def test_unwritable_output(capsys, tmp_path):
    code, _, err = run(
        capsys, "sphere", "--dim", "3", "--kmax", "1",
        "--output", str(tmp_path / "nodir" / "x.csv"),
    )
    assert code == 3
    assert "x.csv" in err


def test_a_failed_write_to_stdout_names_stdout(capsys, monkeypatch):
    class Full(io.TextIOBase):
        def write(self, text):
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(sys, "stdout", Full())
    code = main(["sphere", "--dim", "3", "--kmax", "2"])
    assert (code, capsys.readouterr().err) == (
        3, "bergerspec: cannot write stdout: [Errno 28] No space left on device\n"
    )


@pytest.mark.parametrize("name", ["handle_sphere", "emit"])
def test_a_table_that_does_not_fit_in_memory_is_one_line_and_exit_3(capsys, monkeypatch, name):
    # a stand-in for the MemoryError of a request such as --kmax 100000000000,
    # which is never run here: without a memory cap it takes the machine's memory
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(cli, name, out_of_memory)
    code, out, err = run(capsys, "sphere", "--dim", "2", "--kmax", "3")
    assert (code, out) == (3, "")
    assert err == "bergerspec: out of memory: the table of this request does not fit\n"


def test_precision_flag(capsys):
    code, out, _ = run(capsys, "index", "cp2", "--r", "3", "--precision", "4")
    assert code == 0
    _, rows = csv_rows(out)
    assert rows[0]["first_shifted"] == "7.389"  # 80/9 - 3/2 at 4 digits
    assert run(capsys, "sphere", "--dim", "3", "--kmax", "1", "--precision", "0")[0] == 2
    assert run(capsys, "sphere", "--dim", "3", "--kmax", "1", "--precision", "31")[0] == 2


def test_precision_env(capsys, monkeypatch):
    monkeypatch.setenv("BERGERSPEC_PRECISION", "3")
    code, out, _ = run(capsys, "index", "cp2", "--r", "3")
    assert code == 0
    _, rows = csv_rows(out)
    assert rows[0]["first_shifted"] == "7.39"
    monkeypatch.setenv("BERGERSPEC_PRECISION", "lots")
    assert run(capsys, "index", "cp2", "--r", "3")[0] == 2


def test_unknown_subcommand(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


_REQUESTS = [
    ["sphere", "--dim", "3", "--kmax", "2"],
    ["berger", "--t", "1/2", "--count", "5", "--format", "json"],
    ["index", "cp2", "--r"],  # usage error: --r needs a value
    ["piecewise", "--index", "2", "--xmax", "3"],
    ["index", "page", "--roots"],
    ["frobnicate"],
    ["index", "cp2", "--scan", "0.5", "2", "3", "--depth", "6"],
]


def test_one_parser_serves_every_call(capsys):
    from bergerspec import cli

    fresh = []
    for argv in _REQUESTS:
        cli.build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    cli.build_parser.cache_clear()
    shared = [run(capsys, *argv) for argv in _REQUESTS]
    assert cli.build_parser.cache_info().misses == 1
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 2, 0, 0, 2, 0]


def test_handler_is_looked_up_per_call(capsys, monkeypatch):
    from bergerspec import cli

    assert run(capsys, "sphere", "--dim", "3", "--kmax", "1")[0] == 0
    seen = []

    def stub(args):
        seen.append(args.kmax)
        return [], ["k"], [(args.kmax,)]

    monkeypatch.setattr(cli, "handle_sphere", stub)
    assert run(capsys, "sphere", "--dim", "3", "--kmax", "4")[:2] == (0, "k\n4\n")
    assert seen == [4]


def test_packaged_page_constants_load_once(capsys, monkeypatch, tmp_path):
    from bergerspec import cli, page

    loads = []

    def counting(*args, **kwargs):
        loads.append(kwargs.get("path"))
        return page.page_constants(*args, **kwargs)

    monkeypatch.setattr(cli, "page_constants", counting)
    for _ in range(3):
        assert run(capsys, "index", "page", "--roots")[0] == 0
    assert loads == []
    cfg = tmp_path / "page.cfg"
    cfg.write_text(resources.files("bergerspec").joinpath("data/page_constants.cfg").read_text())
    for _ in range(2):
        assert run(capsys, "index", "page", "--roots", "--page-config", str(cfg))[0] == 0
    assert loads == [str(cfg), str(cfg)]


def test_csv_comment_headers(capsys):
    _, out, _ = run(capsys, "piecewise", "--index", "1", "--xmax", "6")
    assert out.startswith("#")


@pytest.mark.parametrize("argv", [["index", "page", "--r", "1"], ["plotdata", "fig3"]])
@pytest.mark.parametrize("kind", ["missing", "directory", "binary"])
def test_unreadable_page_config_is_rejected(capsys, tmp_path, argv, kind):
    path = tmp_path / "consts.cfg"
    if kind == "directory":
        path.mkdir()
    elif kind == "binary":
        path.write_bytes(b"a = \xff\xfe\n")
    code, out, err = run(capsys, *argv, "--page-config", str(path))
    assert code == 3
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert str(path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--t", "--epsilon"])
@pytest.mark.parametrize("value", ["1/0", "2/0", "0/0"])
def test_berger_zero_denominator_is_a_usage_error(capsys, flag, value):
    code, out, err = run(capsys, "berger", flag, value, "--count", "3")
    assert code == 2
    assert out == ""
    assert f"argument {flag}: invalid Fraction value: '{value}'" in err


def test_berger_value_overflow_is_a_domain_error(capsys):
    code, out, err = run(capsys, "berger", "--t", "1e400", "--count", "3")
    assert code == 2
    assert out == ""
    assert err == "bergerspec: --t is too large: eigenvalue n = 1 overflows a float\n"
    # a late overflow names the first value past the float range
    code, out, err = run(capsys, "berger", "--t", "1e307", "--count", "12")
    assert code == 2
    assert out == ""
    assert err == "bergerspec: --t is too large: eigenvalue n = 11 overflows a float\n"
    # in range, each value is still the float nearest t (A + B t^-3)
    t = Fraction(10) ** 300
    code, out, _ = run(capsys, "berger", "--t", "1e300", "--count", "4", "--precision", "17")
    assert code == 0
    _, rows = csv_rows(out)
    assert [(r["A"], r["B"]) for r in rows] == [("0", "0"), ("2", "1"), ("4", "4"), ("6", "9")]
    for r in rows:
        assert float(r["value"]) == float(t * (int(r["A"]) + int(r["B"]) / t**3))


def _main_output(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _json_agrees_with_csv(argv):
    """The CSV run (code, stdout, stderr) of argv, once its JSON run is found to agree with it."""
    csv_run = _main_output(argv)
    json_run = _main_output([*argv, "--format", "json"])
    assert csv_run[2] == json_run[2]
    problem = json_problem(csv_run, json_run)
    assert problem is None, (argv, problem)
    if csv_run[0] != 0:
        assert csv_run[1] == json_run[1] == ""
    return csv_run


_BERGER_PARAM = st.one_of(
    st.just("1"),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(1, 40), st.integers(1, 40)),
    st.builds(lambda m, d: f"{m}e{d}", st.integers(1, 9999), st.integers(-8, 310)),
)


@settings(max_examples=60, deadline=None)
@given(
    flag=st.sampled_from(["--t", "--epsilon"]),
    param=_BERGER_PARAM,
    count=st.integers(1, 150),
    with_multiplicity=st.booleans(),
)
@example(flag="--t", param="1", count=90, with_multiplicity=True)
@example(flag="--epsilon", param="1", count=33, with_multiplicity=False)
@example(flag="--t", param="1e307", count=12, with_multiplicity=False)
def test_berger_json_agrees_with_csv(flag, param, count, with_multiplicity):
    argv = ["berger", flag, param, "--count", str(count)]
    if with_multiplicity:
        argv.append("--with-multiplicity")
    code, out, _ = _json_agrees_with_csv(argv)
    if code == 0:
        assert len(csv_rows(out)[1]) == count


_CP2_RADIUS = st.one_of(st.floats(1e-3, 1e3), st.floats(1e-200, 1e200))
_PAGE_RADIUS = st.one_of(st.floats(0.01, 3.13), st.floats(1e-9, 4.0))


@st.composite
def _index_argv(draw):
    space = draw(st.sampled_from(["cp2", "page"]))
    radius = _CP2_RADIUS if space == "cp2" else _PAGE_RADIUS
    how = draw(st.sampled_from(["--r", "--scan", "--roots"][: 2 if space == "cp2" else 3]))
    argv = ["index", space, how]
    if how == "--r":
        argv.append(repr(draw(radius)))
    elif how == "--scan":
        rmin, rmax = sorted([draw(radius), draw(radius)])
        argv += [repr(rmin), repr(rmax), str(draw(st.integers(2, 8)))]
    return argv + ["--depth", str(draw(st.integers(1, 40)))]


_PIECEWISE_ARGV = st.builds(
    lambda flag, i, p, q: ["piecewise", flag, str(i), "--xmax", f"{p}/{q}"],
    st.sampled_from(["--index", "--slot"]),
    st.integers(1, 11),
    st.integers(1, 60),
    st.integers(1, 3),
)


@settings(max_examples=60, deadline=None)
@given(
    argv=st.one_of(_index_argv(), _PIECEWISE_ARGV, st.sampled_from([["plotdata", f"fig{k}"] for k in (1, 2, 3)])),
    precision=st.one_of(st.none(), st.integers(1, 30)),
)
@example(argv=["plotdata", "fig3"], precision=17)
@example(argv=["index", "page", "--roots", "--depth", "25"], precision=30)
@example(argv=["index", "cp2", "--r", "1e-160", "--depth", "25"], precision=None)
def test_index_piecewise_and_plotdata_json_agree_with_csv(argv, precision):
    _json_agrees_with_csv(argv if precision is None else [*argv, "--precision", str(precision)])


def _peak_over_output(argv):
    """The tracemalloc peak of a request written to os.devnull, and its output's size."""
    code, out, _ = _main_output(argv)
    assert code == 0
    tracemalloc.start()
    try:
        code = main([*argv, "--output", os.devnull])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak, len(out.encode())


def test_berger_round_sphere_peak_memory_is_bounded_by_its_output():
    # at t = 1 the columns are the output's text and little more: no mode
    # list per value and no row tuples are held, and the text is written
    # in chunks of rows
    peak, csv_bytes = _peak_over_output(["berger", "--t", "1", "--count", "1200"])
    assert peak <= 2 * csv_bytes, (peak, csv_bytes)


def test_berger_round_sphere_json_peak_memory_is_bounded_by_its_output():
    # JSON is dumped a chunk of rows at a time: neither a dict per row of
    # the whole table nor the whole JSON text is held
    peak, json_bytes = _peak_over_output(["berger", "--t", "1", "--count", "1200", "--format", "json"])
    assert peak <= 2 * json_bytes, (peak, json_bytes)


@pytest.mark.parametrize("value", ["1/0", "abc"])
def test_piecewise_bad_xmax_is_a_usage_error(capsys, value):
    code, out, err = run(capsys, "piecewise", "--index", "1", "--xmax", value)
    assert code == 2
    assert out == ""
    assert f"argument --xmax: invalid Fraction value: '{value}'" in err


def test_cold_import_loads_no_module_it_does_not_use():
    # -S skips site hooks, which may import these modules on their own.
    # The library needs nothing outside the standard library, and of the
    # standard library it loads on import only what it uses: records are
    # plain classes, json and importlib.resources are imported by the JSON
    # branch and the config reader, CSV is written without the csv module,
    # annotations are strings, so typing is never needed, and argv is read
    # by the CLI's own option tables, so neither argparse nor its gettext is imported
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import bergerspec.cli; "
        "print(*sorted({m.partition('.')[0] for m in sys.modules}"
        " - set(sys.stdlib_module_names) - {'__main__', 'bergerspec'})); "
        "print(*sorted({'argparse', 'csv', 'dataclasses', 'gettext', 'inspect', 'json', 'importlib.resources',"
        " 'typing'}"
        " & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    outside, unused = proc.stdout.splitlines()
    assert outside == "", f"modules outside the standard library: {outside}"
    assert unused == "", f"standard-library modules loaded but not used on import: {unused}"
