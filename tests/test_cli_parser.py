"""The option tables read every command line as the argparse parser they replaced.

`oracles.argparse_parser` is that parser.  A well-formed argv must give
the same namespace under both; a malformed one must exit 2 under both,
and under `main` as one stderr line with no traceback.  The argv are
built from the oracle's own actions, so a flag the tables lack shows up
as a difference.
"""

import contextlib
import io
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bergerspec.cli import build_parser, main
from oracles import _fraction, argparse_parser

ORACLE = argparse_parser()
SUBPARSERS = ORACLE._subparsers._group_actions[0].choices  # name -> argparse parser


def parse(parser, argv):
    """(exit code, the namespace as {dest: repr(value)} or None, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = parser.parse_args(list(argv))
        except SystemExit as exc:
            return exc.code, None, out.getvalue(), err.getvalue()
    # repr, so that NaN values compare equal
    return 0, {k: repr(v) for k, v in vars(namespace).items()}, out.getvalue(), err.getvalue()


def assert_same_namespace(argv):
    new, old = parse(build_parser(), argv), parse(ORACLE, argv)
    assert new[:2] == old[:2], argv
    assert new[0] == 0, (argv, new[3])


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# -- well-formed argv ---------------------------------------------------------

GOOD_TEXTS = {
    int: st.integers(-40, 40).map(str),
    float: st.one_of(
        st.sampled_from(["-3", "-.5", "-1e-3", "-inf", "-NaN", "nan", "2.5", "1e2", " 7"]),
        st.floats(allow_nan=False, width=32).map(repr),
    ),
    _fraction: st.sampled_from(["1/2", "-1/2", "3", "0.25", "-1e-3", "7/3", "-.5", "1e3"]),
    None: st.sampled_from(["out.csv", "-", "a b", "-1", "x=y", ""]),
}


def _actions(command):
    return [a for a in SUBPARSERS[command]._actions if a.dest != "help"]


def _prefixes(command, flag):
    """The flag's abbreviations that name it alone among the subcommand's options."""
    flags = list(SUBPARSERS[command]._option_string_actions)
    return [flag[:n] for n in range(3, len(flag)) if [f for f in flags if f.startswith(flag[:n])] == [flag]]


@st.composite
def _item(draw, command, action):
    """One action's words: a positional's value, or a spelling of the flag with its values."""
    if not action.option_strings:
        return [draw(st.sampled_from(action.choices))]
    flag = draw(st.sampled_from([*action.option_strings, *_prefixes(command, action.option_strings[0])]))
    if action.nargs == 0:
        return [flag]
    values = st.sampled_from(action.choices) if action.choices else GOOD_TEXTS[action.type]
    texts = [draw(values) for _ in range(action.nargs or 1)]
    if action.nargs is None and draw(st.booleans()):
        if flag == "-o" and texts[0] and draw(st.booleans()):
            return [f"-o{texts[0]}"]
        return [f"{flag}={texts[0]}"]
    return [flag, *texts]


@st.composite
def _items(draw, command):
    """The word groups of a well-formed argv: every required action and a few others, in any order."""
    actions = _actions(command)
    extra = draw(st.lists(st.sampled_from([a for a in actions if a.option_strings]), max_size=6))
    needed = [a for a in actions if a.required]
    return draw(st.permutations([draw(_item(command, a)) for a in needed + extra]))


@st.composite
def well_formed(draw):
    """A random argv that the oracle reads: options in any order and spelling, some repeated."""
    command = draw(st.sampled_from(list(SUBPARSERS)))
    return [command, *[w for item in draw(_items(command)) for w in item]]


@settings(max_examples=300, deadline=None)
@given(argv=well_formed())
def test_well_formed_argv_reads_as_argparse_reads_it(argv):
    assert_same_namespace(argv)


# -- malformed argv -----------------------------------------------------------

BAD_TEXTS = {
    int: ["abc", "1.5", "", "1/0", "0x10", "1e3"],
    float: ["abc", "", "1/0", "1,5", "1/2"],
    _fraction: ["abc", "", "1/0", "0/0", "inf", "nan", "1.2.3", "- 1"],
}


@st.composite
def _corruption(draw, command):
    """Words that make any argv of the subcommand a usage error, wherever they go between items."""
    actions = _actions(command)
    valued = [a for a in actions if a.option_strings and a.nargs != 0]
    kinds = ["missing value", "values after --", "unknown flag", "bad value", "switch with a value", "ambiguous"]
    kind = draw(st.sampled_from(kinds))
    if kind == "missing value":
        action = draw(st.sampled_from(valued))
        return [action.option_strings[0], *["1"] * draw(st.integers(0, (action.nargs or 1) - 1))]
    if kind == "values after --":  # after "--" every word is a value, but none is the flag's
        action = draw(st.sampled_from(valued))
        value = action.choices[0] if action.choices else "1"
        return [action.option_strings[0], "--", *[value] * (action.nargs or 1)]
    if kind == "unknown flag":
        return [draw(st.sampled_from(["--bogus", "-x", "--no-such-flag=3", "-q", "---t", "--dim-x"]))]
    if kind == "switch with a value":
        switches = [a for a in actions if a.nargs == 0] or [None]
        action = draw(st.sampled_from(switches))
        return [f"{action.option_strings[0]}=1"] if action else ["--format=xml"]
    if kind == "ambiguous" and command in ("index", "plotdata"):
        return [draw(st.sampled_from(["--p", "--p=3", "--p=x"]))]
    typed = [a for a in valued if a.type in BAD_TEXTS or a.choices]
    action = draw(st.sampled_from(typed))
    bad = draw(st.sampled_from(BAD_TEXTS.get(action.type, ["xml", "", "CSV"])))
    good = "1" if action.type in BAD_TEXTS else action.choices[0]
    texts = [good] * (action.nargs or 1)
    texts[draw(st.integers(0, len(texts) - 1))] = bad
    return [action.option_strings[0], *texts]


NO_SUBCOMMAND = [[], [""], ["frobnicate"], ["Index", "cp2"], ["--bogus", "sphere"], ["-x"]]


@st.composite
def malformed(draw):
    """A well-formed argv broken between two of its items, or one without a valid subcommand."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(NO_SUBCOMMAND + [["index"], ["sphere", "--kmax", "2"]]))
    command = draw(st.sampled_from(list(SUBPARSERS)))
    items = draw(_items(command))
    items.insert(draw(st.integers(0, len(items))), draw(_corruption(command)))
    return [command, *[w for item in items for w in item]]


AFTER_DASHES = ["sphere", "--dim", "3", "--kmax", "--", "1"]  # the corruption ends the argv


@settings(max_examples=200, deadline=None)
@given(argv=malformed())
@example(argv=AFTER_DASHES)
def test_malformed_argv_is_refused_as_argparse_refuses_it(argv):
    assert parse(ORACLE, argv)[0] == 2, argv
    assert parse(build_parser(), argv)[0] == 2, argv


@settings(max_examples=200, deadline=None)
@given(argv=malformed())
@example(argv=AFTER_DASHES)
def test_malformed_argv_is_one_stderr_line_and_exit_2(argv):
    code, out, err = run_main(argv)
    assert (code, out) == (2, ""), argv
    assert err.startswith("bergerspec: ") and err.count("\n") == 1 and err.endswith("\n"), (argv, err)
    assert "Traceback" not in err


# -- the rules the tables keep, one test each ---------------------------------


def test_options_come_in_any_order_even_before_the_positional():
    for argv in (["index", "--r", "1", "cp2"], ["index", "--depth", "6", "page", "--tol=1e-3", "--r", "2"]):
        assert_same_namespace(argv)
    assert parse(build_parser(), ["index", "--r", "1", "cp2"])[1]["space"] == "'cp2'"


def test_equals_forms_and_unique_prefixes_are_accepted():
    for argv in (
        ["berger", "--t", "1/2", "--count=3"],
        ["berger", "--t=1/2", "--with"],
        ["sphere", "--dim", "3", "--kmax", "2", "--prec", "17"],
        ["piecewise", "--ind", "2", "--xm=9/2", "--form", "json"],
        ["index", "page", "--ro"],
    ):
        assert_same_namespace(argv)
    assert parse(build_parser(), ["berger", "--t", "1", "--count=3"])[1]["count"] == "3"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["index", "cp2", "--p", "3"], "ambiguous option: --p could match --page-config, --precision"),
        (["berger", "--t", "1", "--bogus"], "unrecognized arguments: --bogus"),
        (["berger", "--t", "1", "--roots"], "unrecognized arguments: --roots"),
        (["--foo", "sphere", "--dim", "3", "--kmax", "1"], "unrecognized arguments: --foo"),
        (["--foo", "--bar", "sphere", "--dim", "3", "--kmax", "1"], "unrecognized arguments: --foo --bar"),
    ],
)
def test_an_ambiguous_or_unknown_option_is_refused(argv, message):
    assert parse(ORACLE, argv)[0] == 2
    assert parse(build_parser(), argv) == (2, None, "", f"bergerspec: error: {message}\n")


def test_a_repeated_option_keeps_its_last_value():
    argv = ["berger", "--t", "1/2", "--count", "3", "--t=2", "--co", "5", "--form", "json", "--format", "csv"]
    assert_same_namespace(argv)
    values = parse(build_parser(), argv)[1]
    assert (values["t"], values["count"], values["format"]) == ("Fraction(2, 1)", "5", "'csv'")


@pytest.mark.parametrize("spelling", [["-o", "out.csv"], ["-oout.csv"], ["-o=out.csv"], ["--out", "out.csv"]])
def test_dash_o_is_the_short_form_of_output(spelling):
    argv = ["sphere", "--dim", "3", "--kmax", "1", *spelling]
    assert_same_namespace(argv)
    assert parse(build_parser(), argv)[1]["output"] == "'out.csv'"


def test_scan_takes_three_values():
    argv = ["index", "cp2", "--scan", "-inf", "2", "-1e-3"]
    assert_same_namespace(argv)
    assert parse(build_parser(), argv)[1]["scan"] == "[-inf, 2.0, -0.001]"
    for short in (["--scan", "1", "2"], ["--scan", "1", "2", "--r", "3"], ["--scan=1", "2", "3"]):
        argv = ["index", "cp2", *short]
        assert parse(build_parser(), argv)[3] == "bergerspec: error: argument --scan: expected 3 arguments\n"
        assert parse(ORACLE, argv)[0] == 2


def test_a_str_default_is_read_by_the_type_only_when_the_flag_is_absent():
    namespace = build_parser().parse_args(["piecewise", "--index", "2"])
    assert namespace.xmax == Fraction(20) and type(namespace.xmax) is Fraction
    assert build_parser().parse_args(["piecewise", "--index", "2", "--xmax", "5"]).xmax == Fraction(5)
    assert_same_namespace(["piecewise", "--index", "2"])


@pytest.mark.parametrize("text", ["-3", "-.5", "-1e-3", "-1/2", "-inf", "-NaN", "-Infinity", "-0x"])
def test_a_word_matching_the_negative_number_rule_is_a_value(text):
    # -(?:\.?\d|inf|nan), case-insensitive, at the start of the word
    argv = ["index", "cp2", "--r", text]
    new, old = parse(build_parser(), argv), parse(ORACLE, argv)
    assert new[:2] == old[:2]
    assert "expected one argument" not in new[3]


@pytest.mark.parametrize("text", ["-x", "-.x", "-i", "-e3"])
def test_a_dash_word_outside_the_negative_number_rule_is_an_option(text):
    assert parse(build_parser(), ["index", "cp2", "--r", text])[3] == (
        "bergerspec: error: argument --r: expected one argument\n"
    )
    assert parse(ORACLE, ["index", "cp2", "--r", text])[0] == 2


HELP_ARGV = [["--help"], ["-h"], ["--he"], ["index", "-h"], *[[c, "--help"] for c in SUBPARSERS]]


@pytest.mark.parametrize("argv", HELP_ARGV)
def test_help_prints_a_usage_text_from_the_table_and_exits_0(argv):
    code, namespace, out, err = parse(build_parser(), argv)
    assert (code, namespace, err) == (0, None, "")
    assert out.startswith("usage: bergerspec")
    if argv[0] in SUBPARSERS:
        assert all(f in out for a in _actions(argv[0]) for f in a.option_strings if f != "-o")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["piecewise", "--index", "1", "--xmax", "abc"], "argument --xmax: invalid Fraction value: 'abc'"),
        (["index", "cp2", "--r"], "argument --r: expected one argument"),
        (["sphere", "--dim", "x", "--kmax", "1"], "argument --dim: invalid int value: 'x'"),
        (["index", "cp2", "--tol", "1/0"], "argument --tol: invalid float value: '1/0'"),
        (["sphere", "--dim", "3"], "the following arguments are required: --kmax"),
        (["index"], "the following arguments are required: space"),
        (["index", "cp3"], "argument space: invalid choice: 'cp3' (choose from 'cp2', 'page')"),
        (["sphere", "--dim", "3", "--kmax", "1", "--format", "xml"],
         "argument --format: invalid choice: 'xml' (choose from 'csv', 'json')"),
        (["index", "page", "--roots=yes"], "argument --roots: ignored explicit argument 'yes'"),
        ([], "the following arguments are required: command"),
        (["berger", "--t", "1ex"], "argument --t: invalid Fraction value: '1ex'"),
        (["berger", "--t", "1e+"], "argument --t: invalid Fraction value: '1e+'"),
        (["index", "cp2", "--r", "--", "1"], "argument --r: expected one argument"),
        (["index", "cp2", "--scan", "1", "--", "2", "3"], "argument --scan: expected 3 arguments"),
    ],
)
def test_a_usage_error_is_one_line_in_argparse_words(argv, message):
    assert run_main(argv) == (2, "", f"bergerspec: error: {message}\n")
    assert parse(ORACLE, argv)[0] == 2


def test_building_the_parser_costs_microseconds():
    import time

    build_parser.cache_clear()
    start = time.perf_counter()
    for _ in range(100):
        build_parser.cache_clear()
        build_parser()
    assert (time.perf_counter() - start) / 100 < 1e-4
