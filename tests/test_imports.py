"""Lint: every name a module of atmg imports at module level is used there,
and every private name a module defines at module level is read in atmg.

A name counts as used when the module reads it anywhere (an ast.Name) or
exports it through a literal __all__; `from __future__` imports are exempt.
A private name (one leading underscore) of a module-level function, class or
assignment counts as read when any module of atmg loads it as a name or an
attribute.
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


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """module.name of each private module-level definition that no source reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            dead += [f"{module}.{name}" for name in names
                     if name.startswith("_") and not name.startswith("__") and name not in read]
    return dead


def test_the_check_sees_a_dead_private_name():
    a = "_LIMIT, _unused = 1, 2\nclass _Form:\n    pass\ndef _helper():\n    return _LIMIT\n"
    assert dead_private_names({"a": a}) == ["a._unused", "a._Form", "a._helper"]
    assert dead_private_names({"a": a, "b": "from .a import _helper\nprint(_helper, a._Form)\n"}) == [
        "a._unused"]


def test_every_private_name_is_read():
    assert dead_private_names({path.stem: path.read_text(encoding="utf-8") for path in MODULES}) == []
