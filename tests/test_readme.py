"""README's "Library quick tour" block, run as a doctest."""

import doctest
from pathlib import Path

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
