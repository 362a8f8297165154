"""Lint: every name a module of atmg imports at module level is used there,
every private name a module defines at module level is read in atmg, no
module but atmg.mdp imports or reads a private name of atmg.mdp, the
imports between atmg's modules form no cycle, and no module but the entry
points __init__ and __main__ imports atmg.cli.

A name counts as used when the module reads it anywhere (an ast.Name) or
exports it through a literal __all__; `from __future__` imports are exempt.
A private name (one leading underscore) of a module-level function, class or
assignment counts as read when any module of atmg loads it as a name or an
attribute.  A private mdp name is imported by `from .mdp import _name` (or
from atmg.mdp) and read as an attribute of a name bound to the mdp module.
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


def private_mdp_names(source: str) -> list[str]:
    """Each private name of atmg.mdp that source imports from it or reads as an attribute of it."""
    tree = ast.parse(source)
    found, aliases = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("mdp", "atmg.mdp"):
            found += [alias.name for alias in node.names]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            aliases |= {alias.asname or alias.name for alias in node.names
                        if alias.name in ("mdp", "atmg.mdp")}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and ast.unparse(node.value) in aliases:
            found.append(node.attr)
    return [name for name in found if name.startswith("_") and not name.startswith("__")]


def test_the_check_sees_a_private_mdp_name():
    source = ("from .mdp import TeamPolicy, _product as p\nfrom . import mdp as m\nimport atmg.mdp\n"
              "print(m._gathered, atmg.mdp._TIE_RTOL, m.__name__, TeamPolicy._memo)\n")
    assert private_mdp_names(source) == ["_product", "_gathered", "_TIE_RTOL"]
    assert private_mdp_names("from .game import _count\nfrom .lp import _MAX_PIVOTS\n") == []


OUTSIDE_MDP = [path for path in MODULES if path.stem != "mdp"]


@pytest.mark.parametrize("path", OUTSIDE_MDP, ids=[path.stem for path in OUTSIDE_MDP])
def test_no_module_but_mdp_reads_its_private_names(path):
    assert private_mdp_names(path.read_text(encoding="utf-8")) == []


def atmg_imports(source: str, modules: set[str]) -> set[str]:
    """The modules of atmg that source imports, relatively or as atmg.<module>.

    A name imported from the package itself (`from . import x`, `from atmg
    import x`) counts as module x when x is one, else as __init__.
    """
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {(alias.name.split(".") + ["__init__"])[1] for alias in node.names
                      if alias.name.split(".")[0] == "atmg"}
        elif isinstance(node, ast.ImportFrom):
            if node.level == 1:
                path = node.module or ""
            elif node.level == 0 and (node.module or "").split(".")[0] == "atmg":
                path = node.module[len("atmg."):]
            else:
                continue
            if path:
                found.add(path.split(".")[0])
            else:
                found |= {alias.name if alias.name in modules else "__init__" for alias in node.names}
    return found


def import_cycle(graph: dict[str, set[str]]) -> list[str]:
    """One cycle of the import graph, its modules in order back to the first; [] if none."""
    done, path = set(), []

    def visit(module: str) -> list[str]:
        if module in path:
            return path[path.index(module):] + [module]
        if module in done:
            return []
        path.append(module)
        for target in sorted(graph.get(module, ())):
            if cycle := visit(target):
                return cycle
        path.pop()
        done.add(module)
        return []

    for module in sorted(graph):
        if cycle := visit(module):
            return cycle
    return []


def cli_importers(graph: dict[str, set[str]]) -> list[str]:
    return sorted(module for module, targets in graph.items()
                  if "cli" in targets and module not in ("__init__", "__main__"))


def test_the_check_sees_an_import_cycle_and_a_cli_import():
    modules = {"__init__", "__main__", "cli", "game", "mdp"}
    sources = {"__init__": "from .cli import solve\n", "__main__": "from .cli import main\n",
               "cli": "from .mdp import TeamPolicy\nimport atmg.game\n",
               "game": "import numpy\n", "mdp": "from . import game\n"}
    graph = {module: atmg_imports(source, modules) for module, source in sources.items()}
    assert graph == {"__init__": {"cli"}, "__main__": {"cli"}, "cli": {"mdp", "game"},
                     "game": set(), "mdp": {"game"}}
    assert import_cycle(graph) == [] and cli_importers(graph) == []
    graph["game"] = atmg_imports("from atmg import __version__\n", modules)
    assert import_cycle(graph) == ["__init__", "cli", "game", "__init__"]
    graph["mdp"] = atmg_imports("from .cli import solve\n", modules)
    assert cli_importers(graph) == ["mdp"]


def module_graph() -> dict[str, set[str]]:
    stems = {path.stem for path in MODULES}
    return {path.stem: atmg_imports(path.read_text(encoding="utf-8"), stems) for path in MODULES}


def test_imports_between_modules_form_no_cycle():
    assert import_cycle(module_graph()) == []


def test_no_module_but_the_entry_points_imports_cli():
    assert cli_importers(module_graph()) == []
