"""The public surface: every exported name has a caller outside the tests.

A name stays in `bergerspec.__all__` only while the library itself uses
it, an acceptance criterion imports it, or the benchmark reaches it.
Helpers that only the other tests use belong in `tests/oracles.py`.
"""

import ast
import re
from pathlib import Path

import bergerspec

_PACKAGE = Path(bergerspec.__file__).resolve().parent
_ROOT = Path(__file__).resolve().parents[1]


def _library_references() -> set[str]:
    """Names loaded, and attributes accessed, in the package's modules other than __init__."""
    names = set()
    for path in _PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_exported_name_has_a_caller_outside_the_tests():
    library = _library_references()
    # the acceptance criteria and every benchmark file, as text
    paths = [_ROOT / "tests" / "test_acceptance.py", *(_ROOT / "bench").glob("*.py")]
    texts = [path.read_text() for path in paths]
    unreached = [
        name
        for name in sorted(bergerspec.__all__)
        if name not in library and not any(re.search(rf"\b{name}\b", text) for text in texts)
    ]
    # each of these belongs in tests/oracles.py, or needs a caller
    assert unreached == []


def _unused_imports(path: Path) -> list[str]:
    """The names a module imports and never reads; a name listed in `__all__` is read."""
    tree = ast.parse(path.read_text(), str(path))
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            imported.update((alias.asname or alias.name).partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read)


def test_no_module_imports_a_name_it_does_not_use():
    unused = {path.stem: _unused_imports(path) for path in sorted(_PACKAGE.glob("*.py"))}
    # bench/tracing.py wraps these bindings where they are imported, so they
    # stay until the tracer attributes time without them
    assert {module: names for module, names in unused.items() if names} == {
        "cli": ["distinct_spectrum_at", "eleven_slot_table", "slice_spectrum", "spectrum_with_multiplicity"],
        "slices": ["index_nullity", "jacobi_spectrum", "spectrum_with_multiplicity"],
    }
