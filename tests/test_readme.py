"""The README's library example, run as written, its CLI commands, parsed,
and the bytes of its grid-world solve, pinned.

The example is the documented use of the top-level `atmg` namespace, so the
test also pins that namespace to exactly the names the example imports.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
import shlex
from pathlib import Path

import pytest

import atmg
import atmg.cli
from atmg.cli import build_parser, main

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


# SHA-256 prefixes of `atmg solve --gridworld 2 --eta 0.1 --iters 2000`'s
# outputs, report.json as sorted JSON without its wall-clock time and its
# file paths.  A change that moves these bits updates them and says why.
SOLVE_DIGESTS = {
    "trace.csv": "bf2d341f783064bb",
    "policies.json": "83089eb68098f375",
    "report.json": "d9341bd7b36ea41d",
}

# The same solve's trace at full precision: trace.csv keeps 12 significant
# digits, so it misses changes below about 1e-12 relative.
TRACE_DIGESTS = {
    "phi": "69bf002969a896a0",
    "frob_norms": "1658d167a97baf71",
    "prox_gaps": "9aecefcfd06911a8",
}

REPORT_KEYS = ["game", "config", "paper_schedules", "normalization", "t_star",
               "prox_gap_measured", "lp_epsilon", "files", "lp_status", "nash_gap",
               "nash_gap_raw_units", "wall_clock_seconds"]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def test_readme_solve_outputs_keep_their_bytes(tmp_path, monkeypatch):
    traces = []
    real_run = atmg.cli.run

    def spy(*args, **kwargs):
        traces.append(real_run(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(atmg.cli, "run", spy)
    out = tmp_path / "grid"
    argv = ["solve", "--gridworld", "2", "--eta", "0.1", "--iters", "2000", "--out", str(out)]
    assert main(argv) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert list(report) == REPORT_KEYS
    del report["wall_clock_seconds"], report["files"]
    digests = {name: digest((out / name).read_bytes()) for name in ("trace.csv", "policies.json")}
    digests["report.json"] = digest(json.dumps(report, sort_keys=True).encode())
    assert digests == SOLVE_DIGESTS

    (trace,) = traces
    assert {
        "phi": digest(trace.phi.tobytes()),
        "frob_norms": digest(trace.frob_norms.tobytes()),
        "prox_gaps": digest(repr(sorted(trace.prox_gaps.items())).encode()),
    } == TRACE_DIGESTS
