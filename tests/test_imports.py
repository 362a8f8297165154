"""Lint: every name a module of atmg imports at module level is used there.

A name counts as used when the module reads it anywhere (an ast.Name) or
exports it through a literal __all__; `from __future__` imports are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import atmg

MODULES = sorted(Path(atmg.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_the_check_sees_an_unused_import():
    source = "from __future__ import annotations\nimport os, sys\nfrom .m import a, b as c\n"
    assert unused_imports(source + "print(sys, c)\n") == ["os", "a"]
    assert unused_imports(source + "__all__ = ['a', 'os']\nprint(sys, c)\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
