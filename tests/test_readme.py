"""README's "Library quick tour" block, run as a doctest, and its CLI examples."""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from bergerspec import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_tour() -> str:
    text = README.read_text()
    section = text.split("## Library quick tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_tour_runs_as_written():
    test = doctest.DocTestParser().get_doctest(_quick_tour(), {}, "README quick tour", str(README), 0)
    runner = doctest.DocTestRunner(optionflags=doctest.NORMALIZE_WHITESPACE)
    runner.run(test)
    result = runner.summarize(verbose=False)
    assert len(test.examples) == 8
    assert (result.failed, result.attempted) == (0, 8)


def _cli_examples() -> list[tuple[str, list[str]]]:
    """Each fenced block that starts with "$ bergerspec": (command, expected output lines)."""
    blocks = re.findall(r"^```\n(\$ bergerspec .*?)^```$", README.read_text(), re.M | re.S)
    return [(block.split("\n", 1)[0], block.splitlines()[1:]) for block in blocks]


def test_readme_shows_four_cli_examples():
    assert len(_cli_examples()) == 4


@pytest.mark.parametrize("command, expected", [pytest.param(c, e, id=c[2:]) for c, e in _cli_examples()])
def test_readme_cli_example_runs_as_written(capsys, monkeypatch, command, expected):
    # a "..." line stands for any run of rows
    monkeypatch.delenv(cli.PRECISION_ENV, raising=False)
    assert cli.main(shlex.split(command)[2:]) == 0
    pattern = "".join(r"(?:.*\n)*" if line == "..." else re.escape(line) + "\n" for line in expected)
    out = capsys.readouterr().out
    assert re.fullmatch(pattern, out), out
