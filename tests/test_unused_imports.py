"""No module of the package imports a name it never uses.

No linter ships with the project, so this parses each module and checks
each imported name against the names the module reads (a dotted name by
its root; annotations are unquoted under `from __future__ import
annotations`) and the entries of `__all__`.  An import line marked
`# noqa: F401` is exempt: it keeps a name where a caller outside the
module finds it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "foldtrack"


def _imported(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """Each name an import binds, with its line, except `__future__` and `noqa: F401` lines."""
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            out[alias.asname or alias.name.split(".")[0]] = node.lineno
    return out


def _used(tree: ast.Module) -> set[str]:
    """Every name the module reads, the entries of `__all__` included."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree, text.splitlines()).items()
              if name not in used}
    assert not unused, f"{path.name}: imported but unused: {unused}"
