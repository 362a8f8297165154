"""The README's library example, run as written.

The example is the documented use of the top-level `atmg` namespace, so the
test also pins that namespace to exactly the names the example imports.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import atmg

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The first python code block of the README's "Library" section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_example_certifies():
    code = library_example()
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert namespace["report"].epsilon_certified <= 1e-9

    imported = [
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "atmg"
        for alias in node.names
    ]
    assert sorted(atmg.__all__) == sorted(imported)
