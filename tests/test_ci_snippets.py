"""The Python inline in the CI workflow names only what the code defines.

:mod:`test_dead_code` reads ``.py`` files, so a rename or a deletion in
``src/repro`` can leave a stale name in ``.github/workflows/ci.yml``: a
``python - <<'EOF'`` heredoc, a ``python -c "..."`` snippet or a
``python -m module`` call in a step's ``run`` script, which fails only
when that CI step runs.  This test extracts those snippets from the
workflow's raw text, so it needs no YAML parser (dedented, which removes
the YAML block indent, and each shell ``$VAR`` replaced by a placeholder),
parses them with :mod:`ast`,
and checks that every name they take from ``repro`` or ``perfbench``
resolves: ``from repro.x import Name``, ``import repro.x as m`` and the
attributes read or set through such a module (``m.attr``).  No snippet is
executed; only the named modules are imported.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import re
import textwrap
from pathlib import Path
from types import ModuleType
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
#: Packages of this repository whose names a snippet may go stale on.
LOCAL = ("repro", "perfbench")

_HEREDOC = re.compile(
    r"python3?\b[^\n]*\s-\s[^\n]*<<-?\s*'?(\w+)'?[^\n]*\n(.*?)\n[ \t]*\1[ \t]*$",
    re.S | re.M,
)
_DASH_C = re.compile(r"""python3?\s+(?:-u\s+)?-c\s+(?:"((?:[^"\\]|\\.)*)"|'([^']*)')""", re.S)
_DASH_M = re.compile(r"python3?\s+(?:-u\s+)?-m\s+([\w.]+)")
_SHELL_VAR = re.compile(r"\$\{?[A-Za-z_]\w*\}?")


def inline_snippets(script: str) -> List[str]:
    """The Python source of every heredoc and ``-c`` snippet in a script."""
    found = [match.group(2) for match in _HEREDOC.finditer(script)]
    found += [match.group(1) or match.group(2) for match in _DASH_C.finditer(script)]
    return [_SHELL_VAR.sub("PLACEHOLDER", textwrap.dedent(snippet)) for snippet in found]


def _is_local(module: str) -> bool:
    return module.split(".")[0] in LOCAL


def _import_name(module: ModuleType, name: str) -> object:
    if hasattr(module, name):
        return getattr(module, name)
    return importlib.import_module(f"{module.__name__}.{name}")


def unresolved_names(snippet: str) -> List[str]:
    """What a snippet takes from a local package that does not exist."""
    bound: Dict[str, object] = {}
    missing: List[str] = []

    def load(module: str):
        try:
            return importlib.import_module(module)
        except ImportError:
            missing.append(module)
            return None

    tree = ast.parse(snippet)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and _is_local(node.module):
            module = load(node.module)
            for alias in node.names if module is not None else ():
                try:
                    bound[alias.asname or alias.name] = _import_name(module, alias.name)
                except ImportError:
                    missing.append(f"{node.module}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if _is_local(alias.name) and load(alias.name) is not None:
                    # ``import a.b as m`` binds a.b to m; ``import a.b`` binds a.
                    name = alias.name if alias.asname else alias.name.split(".")[0]
                    bound[alias.asname or name] = importlib.import_module(name)

    def resolve(node: ast.AST):
        """The module an expression names, or None when it is not one."""
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute):
            owner = resolve(node.value)
            if isinstance(owner, ModuleType):
                if not hasattr(owner, node.attr):
                    missing.append(f"{owner.__name__}.{node.attr}")
                    return None
                return getattr(owner, node.attr)
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            resolve(node)
    return sorted(set(missing))


def test_workflow_has_inline_python():
    snippets = inline_snippets(WORKFLOW.read_text(encoding="utf-8"))
    # The heredoc report steps and the serve smoke test's -c snippets.
    assert len(snippets) >= 8
    assert any("from repro" in snippet for snippet in snippets)


def test_inline_python_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    workflow = WORKFLOW.read_text(encoding="utf-8")
    stale = []
    for snippet in inline_snippets(workflow):
        stale += unresolved_names(snippet)
    for match in _DASH_M.finditer(workflow):
        module = match.group(1)
        if _is_local(module) and importlib.util.find_spec(module) is None:
            stale.append(module)
    assert not stale, f"{WORKFLOW.relative_to(ROOT)} names what does not exist: {stale}"


def test_checker_flags_a_deleted_name(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    script = textwrap.dedent(
        """\
        PYTHONPATH=src python - <<'EOF'
        from repro.pv.mppt import MPPTModel
        EOF
        PYTHONPATH=src python -c "
        import repro.core.evaluation as evaluation
        from repro.pv import MPPTModel, paper_module_model
        print(evaluation.PlacementEvaluator, evaluation.evaluate_placement_fast, '$REQ_ID')
        "
        """
    )
    heredoc, dash_c = inline_snippets(script)
    assert unresolved_names(heredoc) == ["repro.pv.mppt"]
    assert unresolved_names(dash_c) == [
        "repro.core.evaluation.evaluate_placement_fast",
        "repro.pv.MPPTModel",
    ]
    assert "PLACEHOLDER" in dash_c
