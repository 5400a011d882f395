"""Every name a module, test or demo imports is referenced in it, every
function and class the package defines is referenced in it, every
oracle of the reference models is read by the tests, and no line of
them is longer than 79 characters."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# the package ``__init__`` imports names only to re-export them
PACKAGE = [path for path in (ROOT / "src" / "gearboxopt").glob("*.py")
           if path.name != "__init__.py"]
SOURCES = sorted(PACKAGE + list((ROOT / "tests").glob("*.py"))
                 + list((ROOT / "demos").glob("*.py")))
REFERENCE_MODELS = ROOT / "tests" / "reference_models.py"
TESTS = sorted((ROOT / "tests").glob("test_*.py"))


def unused_imports(source: str) -> list[str]:
    """The names bound by import statements and never read elsewhere."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def unreferenced_definitions(sources, readers=()) -> list[str]:
    """The top-level functions and classes of the sources that no name or
    attribute in them or in the readers reads."""
    defined, read = [], set()
    sources = list(sources)
    for source in sources:
        defined += [node.name for node in ast.parse(source).body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    for source in sources + list(readers):
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [name for name in defined if name not in read]


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom math import pi, tau as t\n"
                          "import a.b\nprint(pi, a)\n") == [
        "os (line 1)", "t (line 2)"]


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_no_line_over_79_characters():
    long_lines = [
        f"{path.relative_to(ROOT)}:{number}"
        for path in SOURCES + [ROOT / "src" / "gearboxopt" / "__init__.py"]
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > 79]
    assert long_lines == []


def test_scan_finds_an_unreferenced_definition():
    assert unreferenced_definitions([
        "def f():\n    pass\nclass C:\n    pass\ndef g():\n    return f\n",
        "x = a.C\n"]) == ["g"]
    # a reader's names count as reads, its definitions do not
    assert unreferenced_definitions(
        ["def f():\n    pass\ndef g():\n    pass\n"],
        ["from m import f\ndef h():\n    return f()\n"]) == ["g"]


def test_no_unreferenced_definition_in_the_package():
    # a public name that only the tests, demos or ``__init__`` read is a
    # second copy of something the package computes elsewhere
    assert unreferenced_definitions(
        path.read_text() for path in PACKAGE) == []


def test_every_oracle_is_read_by_a_test():
    # an oracle that no test reads, directly or through another oracle,
    # checks nothing
    assert unreferenced_definitions(
        [REFERENCE_MODELS.read_text()],
        (path.read_text() for path in TESTS)) == []
