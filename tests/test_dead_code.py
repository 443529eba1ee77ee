"""No dead public surface: every public name in ``src/repro`` has a caller.

The public surface is every public top-level ``def`` and ``class`` in
``src/repro`` and every public method or property of a public top-level
class there.  Two passes check it:

* each name must be referenced somewhere in ``src/``, ``tests/``,
  ``benchmarks/``, ``perfbench/`` or ``examples/``;
* each name must also be referenced outside ``tests/``: the library ships
  only what the system itself calls, and a helper that only a test needs
  (an oracle, say) lives in ``tests/``.

References are resolved with :mod:`ast` -- a name read (``foo(...)``) or an
attribute read (``module.foo``) -- so prose, comments and docstrings never
count, and neither does a read of a function's own local variable that
happens to share the name.  The function's own ``def`` (including recursive
calls in its body), ``__all__`` strings and package ``__init__`` re-exports
do not count either: a name that is only re-exported is still uncalled.

Methods resolve by name alone (``obj.name`` on any object counts), which
errs towards keeping a method.  A name that must ship without a caller -- a
hook a framework calls by name, say -- goes on :data:`ALLOWED` with a
one-line reason naming that caller; "a test calls it" is not one.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
SCANNED = ("src", "tests", "benchmarks", "perfbench", "examples")
#: What the system itself is made of: everything but the tests.
SHIPPED = tuple(top for top in SCANNED if top != "tests")

#: ``module.name`` or ``module.Class.method`` -> one-line reason it ships
#: with no caller outside ``tests/`` (the mechanism that calls it).
ALLOWED: Dict[str, str] = {}


def _python_files(scanned: Tuple[str, ...]) -> Iterator[Path]:
    for top in scanned:
        directory = ROOT / top
        if directory.is_dir():
            yield from sorted(directory.rglob("*.py"))


class _Reads(ast.NodeVisitor):
    """Collect the names a tree reads, skipping reads of function locals."""

    def __init__(self) -> None:
        self.names: Set[str] = set()
        self._locals: List[Set[str]] = []

    def visit_FunctionDef(self, node: ast.AST) -> None:
        bound = {arg.arg for arg in ast.walk(node.args) if isinstance(arg, ast.arg)}
        bound |= {
            child.id
            for child in ast.walk(node)
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store)
        }
        self._locals.append(bound)
        self.generic_visit(node)
        self._locals.pop()

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_Lambda = visit_FunctionDef

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load) and not (
            self._locals and node.id in self._locals[-1]
        ):
            self.names.add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            self.names.add(node.attr)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        # ``from m import f as g`` reads ``f`` under another name.
        self.names.update(alias.name for alias in node.names if alias.asname)


def _referenced_names(tree: ast.Module) -> Set[str]:
    """Names a module reads, minus each top-level function's or class's own
    name read inside its body."""
    names: Set[str] = set()
    for statement in tree.body:
        reads = _Reads()
        reads.visit(statement)
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            reads.names.discard(statement.name)
        names |= reads.names
    return names


def _public_functions() -> List[Tuple[str, str]]:
    """``(owner, name)`` of every public top-level ``def`` and ``class`` in
    ``src/repro`` (owner: its module) and every public method of a public
    top-level class there (owner: ``module.Class``)."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(("repro",) + path.relative_to(SRC).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(statement, (*functions, ast.ClassDef)):
                continue
            if statement.name.startswith("_"):
                continue
            found.append((module, statement.name))
            if isinstance(statement, ast.ClassDef):
                found.extend(
                    (f"{module}.{statement.name}", member.name)
                    for member in statement.body
                    if isinstance(member, functions) and not member.name.startswith("_")
                )
    return found


def _all_references(scanned: Tuple[str, ...]) -> Set[str]:
    names: Set[str] = set()
    for path in _python_files(scanned):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "__init__.py":
            # Re-exports are not callers: skip the package's import lines.
            tree.body = [
                statement
                for statement in tree.body
                if not isinstance(statement, (ast.Import, ast.ImportFrom))
            ]
        names |= _referenced_names(tree)
    return names


def _uncalled(scanned: Tuple[str, ...]) -> List[str]:
    references = _all_references(scanned)
    return [
        f"{owner}.{name}"
        for owner, name in _public_functions()
        if name not in references and f"{owner}.{name}" not in ALLOWED
    ]


def test_every_public_function_has_a_caller():
    dead = _uncalled(SCANNED)
    assert not dead, (
        "public functions, classes and methods with no caller in "
        f"{', '.join(SCANNED)} (delete them, or allow-list with a reason): "
        + ", ".join(dead)
    )


def test_every_public_name_has_a_caller_outside_tests():
    test_only = _uncalled(SHIPPED)
    assert not test_only, (
        "public functions, classes and methods that only tests/ calls "
        "(delete them, or move a test oracle into tests/oracles/): " + ", ".join(test_only)
    )


def test_allow_list_entries_are_live_and_justified():
    functions = {f"{owner}.{name}" for owner, name in _public_functions()}
    for qualified, reason in ALLOWED.items():
        assert qualified in functions, f"{qualified} is allow-listed but not defined"
        assert reason.strip() and "\n" not in reason, f"{qualified} needs a one-line reason"
        assert "test" not in reason.lower(), (
            f"{qualified}: a test is not a caller; name the mechanism that calls it"
        )


def test_guard_resolves_names_not_text():
    """Prose and strings never count as references; reads do."""
    tree = ast.parse(
        '"""percent of the roof"""\n'
        "__all__ = ['percent']\n"
        "def percent(x):\n    return percent(x - 1)\n"
        "def user(fraction):\n    return units.wh_to_mwh(fraction) + helper()\n"
        "class Box:\n    def grown(self):\n        return Box()\n"
    )
    names = _referenced_names(tree)
    assert "percent" not in names and "fraction" not in names and "Box" not in names
    assert {"wh_to_mwh", "helper", "units"} <= names
