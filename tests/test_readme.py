"""The README's library example, run as written, and its CLI commands, parsed.

The example is the documented use of the top-level `atmg` namespace, so the
test also pins that namespace to exactly the names the example imports.
"""

from __future__ import annotations

import ast
import re
import shlex
from pathlib import Path

import pytest

import atmg
from atmg.cli import build_parser

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


def cli_commands() -> list[str]:
    """Every `atmg ...` command of the README's sh blocks, continuation lines joined."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [" ".join(line.split()) for line in lines if line.strip().startswith("atmg ")]


def test_readme_has_cli_commands():
    assert len(cli_commands()) >= 3


@pytest.mark.parametrize("command", cli_commands())
def test_readme_cli_command_parses(command):
    # A usage error exits with SystemExit; a parsed command runs nothing.
    build_parser().parse_args(shlex.split(command)[1:])
