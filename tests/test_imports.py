"""Every module of `reachtrack` uses each name it imports, and every
top-level function has a caller outside the tests.

A stand-in for a linter's unused-import rule (F401), which no installed
tool provides: a name that an import binds and the module never reads
fails here. An import on a line marked `# noqa: F401`, and a name that
`__init__.py` re-exports through `__all__`, count as used.

A function that only tests call is dead code with a test. The package and
the benchmark in `perfbench/` are the callers; `perfbench` patches some
functions by name, so a string equal to the name counts as a reference.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "reachtrack"
BENCH = ROOT / "perfbench"

# Functions that only tests call, kept on purpose, with the reason.
TEST_ONLY = {}


def _annotation_names(tree):
    """Names read inside string annotations such as `-> "Pose6"`."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in filter(None, annotations):
        for const in ast.walk(annotation):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                try:
                    parsed = ast.parse(const.value, mode="eval")
                except SyntaxError:
                    continue
                yield from (n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))


def _exported(tree):
    """Strings listed in a module-level `__all__`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            yield from (e.value for e in node.value.elts if isinstance(e, ast.Constant))


def unused_imports(source: str) -> list[str]:
    """Names bound by imports in `source` that it never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= set(_annotation_names(tree)) | set(_exported(tree))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if "# noqa: F401" in lines[alias.lineno - 1]:
                continue
            name = alias.asname or alias.name.split(".")[0]
            if name != "*" and name not in used:
                unused.append(name)
    return unused


def test_checker_finds_unused_and_honours_noqa():
    source = ('from __future__ import annotations\n'
              'import os\nimport sys\nimport json  # noqa: F401\n'
              'from math import (\n    pi,\n    tau,\n)\n'
              'from typing import Any\n'
              '__all__ = ["tau"]\n'
              'def f(x: "Any") -> None:\n    print(sys.argv)\n')
    assert unused_imports(source) == ["os", "pi"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def referenced_names(source: str) -> set[str]:
    """Names that `source` reads, imports or spells as a string."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def uncalled_functions(modules: dict[str, str], callers: list[str]) -> list[str]:
    """`module.function` for each top-level function of `modules` (name ->
    source) that no source in `callers` references."""
    used = set().union(*map(referenced_names, callers))
    return [f"{name}.{node.name}" for name, source in modules.items()
            for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name not in used]


def test_checker_finds_uncalled_functions():
    modules = {"m": "def used():\n    pass\ndef patched():\n    pass\n"
                    "def orphan():\n    return orphan\n"}
    callers = ["from m import used\nused()\n", "patch(m, 'patched')\n"]
    assert uncalled_functions(modules, callers) == ["m.orphan"]


def test_every_function_has_a_caller_outside_tests():
    modules = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    bench = [p.read_text() for p in sorted(BENCH.rglob("*.py"))
             if "tests" not in p.relative_to(BENCH).parts]
    uncalled = uncalled_functions(modules, [*modules.values(), *bench])
    assert sorted(uncalled) == sorted(TEST_ONLY)
