"""Span tracer for the benchmark's traced runs.

The tracer wraps every public function of atmg's layer modules and records
one span per call into a layer from outside it: its name, start, end and
parent span.  A call a layer makes to its own functions gets no span, so
it counts towards the self time of the layer's outer call; the pipeline
stages in STAGES are the exception and always get one.  The package
imports functions by name (``from .mdp import adversary_best_response``),
so a function is replaced in every atmg module that holds a reference to
it, not only in the module that defines it; otherwise calls made from
``atmg.ipgmax`` or ``atmg.extension`` would bypass the wrapper.

Spans live in memory until the run ends.  The tracer is not thread-safe:
it keeps one call stack, which is all a single-threaded solve needs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections.abc import Callable
from time import perf_counter

LAYERS = ("game", "mdp", "lp", "ipgmax", "extension", "cli")

# Stages called from inside their own layer that still get a span.
STAGES = frozenset({"ipgmax.select_iterate", "ipgmax.prox_point", "extension.build_lp_adv"})

# A span is [name, start, end, parent index (-1 for a root), attrs or None].
NAME, START, END, PARENT, ATTRS = range(5)


def _run_attrs(trace) -> dict:
    steps = trace.frob_norms[1:]
    moving = [t for t, norm in enumerate(steps, start=1) if norm != 0.0]
    last_move = moving[-1] if moving else 0
    return {
        "iterations": trace.iterations,
        "t_star": trace.t_star,
        "fixed_tail": trace.iterations - last_move,
    }


# Span name -> function of the call's return value; the dict it returns is
# stored with the span, so counts are taken where the work happens.
ANNOTATE = {
    "ipgmax.run": _run_attrs,
    "ipgmax.prox_point": lambda r: {"iterations": r.iterations, "converged": r.converged},
    "extension.build_lp_adv": lambda lp: {"rows": lp.n_rows, "vars": lp.n_vars},
    "game.grid_world": lambda spec: {"transition_bytes": spec.transition.nbytes},
}


class Tracer:
    """Context manager that traces calls into atmg's layer functions."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"atmg.{layer}")
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        for module_name, module in list(sys.modules.items()):
            if module_name != "atmg" and not module_name.startswith("atmg."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._patched.append((module, attr, obj))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        annotate = ANNOTATE.get(name)
        layer = None if name in STAGES else fn.__module__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == layer:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if annotate is not None:
                span[ATTRS] = annotate(result)
            return result

        return traced

    def write(self, path) -> None:
        """Write the spans as JSON: span names once, then one row per span."""
        names = sorted({span[NAME] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        rows = [
            [index[s[NAME]], s[START], s[END], s[PARENT], s[ATTRS]] for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"names": names, "columns": ["name", "start", "end", "parent", "attrs"],
                       "spans": rows}, fh, separators=(",", ":"))


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - c for span, c in zip(spans, child)]


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, total duration and total self time."""
    out: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = out.setdefault(span[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += span[END] - span[START]
        entry["self_s"] += own
    return out


# Per-layer metric name -> unit.  Layers a workload does not reach read 0.
LAYER_UNITS = {
    "mdp.adversary_best_response.calls": "count",
    "mdp.adversary_best_response.self_s": "s",
    "mdp.policy_gradient.calls": "count",
    "mdp.policy_gradient.self_s": "s",
    "mdp.project_product_simplex.calls": "count",
    "mdp.project_product_simplex.self_s": "s",
    "mdp.team_player_best_response.self_s": "s",
    "mdp.value_rho.self_s": "s",
    "ipgmax.loop_s": "s",
    "ipgmax.loop_iters_per_s": "1/s",
    "ipgmax.fixed_tail_share": "ratio",
    "ipgmax.select_iterate_s": "s",
    "ipgmax.prox_point.calls": "count",
    "ipgmax.prox_point.iterations": "count",
    "ipgmax.prox_point.converged_ratio": "ratio",
    "lp.find_feasible_s": "s",
    "lp.rows": "count",
    "lp.vars": "count",
    "extension.build_lp_adv_s": "s",
    "extension.adv_nash_policy.self_s": "s",
    "extension.nash_gap.self_s": "s",
    "game.grid_world_s": "s",
    "game.transition_mb": "MiB",
    "cli.solve.self_s": "s",
    "trace.spans": "count",
}


def layer_metrics(spans: list[list], transition_bytes: int) -> dict[str, float]:
    """Per-layer metrics from the spans of a traced set-up and solve.

    ``transition_bytes`` is the size of the transition tensor of the game
    the workload built itself; a game built by ``game.grid_world`` inside
    the traced call takes precedence.
    """
    stats = summarize(spans)

    def get(name: str, key: str) -> float:
        return stats.get(name, {}).get(key, 0)

    def attrs(name: str) -> list[dict]:
        return [s[ATTRS] for s in spans if s[NAME] == name]

    runs, proxes, lps = attrs("ipgmax.run"), attrs("ipgmax.prox_point"), attrs("extension.build_lp_adv")
    built = [a["transition_bytes"] for a in attrs("game.grid_world")]
    loop_s = get("ipgmax.run", "total_s") - get("ipgmax.select_iterate", "total_s")
    iterations = sum(a["iterations"] for a in runs)
    out = {
        "ipgmax.loop_s": loop_s,
        "ipgmax.loop_iters_per_s": iterations / loop_s if loop_s > 0 else 0.0,
        "ipgmax.fixed_tail_share": sum(a["fixed_tail"] for a in runs) / iterations if iterations else 0.0,
        "ipgmax.select_iterate_s": get("ipgmax.select_iterate", "total_s"),
        "ipgmax.prox_point.iterations": sum(a["iterations"] for a in proxes),
        "ipgmax.prox_point.converged_ratio": (
            sum(a["converged"] for a in proxes) / len(proxes) if proxes else 0.0
        ),
        "lp.find_feasible_s": get("lp.find_feasible", "total_s"),
        "lp.rows": sum(a["rows"] for a in lps),
        "lp.vars": sum(a["vars"] for a in lps),
        "extension.build_lp_adv_s": get("extension.build_lp_adv", "total_s"),
        "game.grid_world_s": get("game.grid_world", "total_s"),
        "game.transition_mb": (max(built) if built else transition_bytes) / 2**20,
        "cli.solve.self_s": sum(v["self_s"] for k, v in stats.items() if k.startswith("cli.")),
        "trace.spans": len(spans),
    }
    for metric in LAYER_UNITS:
        name, _, key = metric.rpartition(".")
        if key in ("calls", "self_s") and metric not in out:
            out[metric] = get(name, key)
    return out
