"""Per-layer spans for the traced benchmark run, recorded from outside netvax.

Each timed public function is rebound, in the namespaces of the modules that
import it (``netvax.harness``, ``netvax.regret``, ``netvax.cli``), to a
wrapper that records a span ``[pass, name, start, end, parent]`` in memory.
Nothing under ``src/`` changes.  Layers are named by the module that defines
the function.  ``netvax.epidemic`` has no call on the hot path and is not
traced.

Calls a module makes to its own functions are not rebound (for example
``build_context`` evaluating the empty allocation through ``welfare_value``),
so that time stays in the caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import time
import types
from collections import Counter

from netvax import cli, graph, harness, objective, regret, solvers

TIMED = {
    graph: ("erdos_renyi",),
    harness: ("draw_instance", "run_experiment", "run_regret_study"),
    objective: ("build_context", "welfare_value", "objective_value"),
    solvers: ("greedy_capacity", "greedy_targeting", "brute_force", "twni",
              "random_assignment"),
    regret: ("empirical_regret", "sample_estimates"),
    cli: ("main",),
}
CALLERS = (harness, regret, cli)

# Rows per Monte Carlo block in iter_random_subsets; member_bytes is the size
# of one dense (rows, N) float64 membership block built from it.
_MC_CHUNK = inspect.signature(solvers.iter_random_subsets).parameters["chunk"].default


def layer_name(module: types.ModuleType, fn: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{fn}"


def timed_names() -> list[str]:
    return [layer_name(module, fn) for module, fns in TIMED.items() for fn in fns]


# Counters derived from a call's arguments and result.  pairs_scanned,
# keys_drawn, key_use_ratio and member_bytes are computed from sizes, not
# measured inside the program.
def _count_graph(args, result):
    n = result.n_units
    return {"graph.pairs_scanned": n * (n - 1) // 2, "graph.edges": result.n_edges}


def _count_compile(args, result):
    return {"objective.spill_nnz": int(result.spill_vals.size)}


def _count_greedy(args, result):
    return {"solvers.greedy_rounds": result.rounds}


def _count_brute(args, result):
    return {"solvers.brute_subsets": result.rounds}


def _count_random(args, result):
    n = args[0].n_units
    return {"solvers.random_draws": result.draws,
            "solvers.keys_drawn": result.draws * n,
            "solvers.keys_used": result.draws * result.capacity,
            "solvers.member_bytes": min(result.draws, _MC_CHUNK) * n * 8}


_COUNTERS = {
    "graph.erdos_renyi": _count_graph,
    "objective.build_context": _count_compile,
    "solvers.greedy_capacity": _count_greedy,
    "solvers.greedy_targeting": _count_greedy,
    "solvers.brute_force": _count_brute,
    "solvers.random_assignment": _count_random,
}
COUNTER_NAMES = ("graph.pairs_scanned", "graph.edges", "objective.spill_nnz",
                 "solvers.greedy_rounds", "solvers.brute_subsets",
                 "solvers.random_draws", "solvers.keys_drawn",
                 "solvers.key_use_ratio", "solvers.member_bytes")


def plain_api() -> types.SimpleNamespace:
    """The timed functions, unwrapped, by bare name."""
    return types.SimpleNamespace(**{fn: getattr(module, fn)
                                    for module, fns in TIMED.items() for fn in fns})


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` bracket each
    traced pass so untraced passes run the original functions."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.member_bytes = 0
        self.pass_id = 0
        self._open: list[int] = []
        self._saved: list[tuple[types.ModuleType, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, count = self.spans, self._open, _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [self.pass_id, name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if count is not None:
                for key, value in count(args, result).items():
                    if key == "solvers.member_bytes":
                        self.member_bytes = max(self.member_bytes, value)
                    else:
                        self.counters[key] += value
            return result
        return traced

    def install(self) -> types.SimpleNamespace:
        """Rebind every timed name and return the wrappers by bare name."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        api = {}
        for module, fns in TIMED.items():
            for fn in fns:
                original = getattr(module, fn)
                wrapper = self._wrap(layer_name(module, fn), original)
                api[fn] = wrapper
                for ns in CALLERS:
                    if getattr(ns, fn, None) is original:
                        self._saved.append((ns, fn, original))
                        setattr(ns, fn, wrapper)
        return types.SimpleNamespace(**api)

    def uninstall(self) -> None:
        for ns, fn, original in reversed(self._saved):
            setattr(ns, fn, original)
        self._saved.clear()

    def summary(self, passes: int) -> dict[str, float]:
        """Per-pass calls, self time and counters over ``passes`` traced passes.

        A span's self time is its duration minus the durations of its direct
        children; spans nest because the benchmark is single-threaded.
        """
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for idx, (_, name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[idx]
        out: dict[str, float] = {}
        for name in timed_names():
            out[f"{name}.calls"] = calls[name] / passes
            out[f"{name}.self_s"] = self_s[name] / passes
        for key in COUNTER_NAMES:
            out[key] = self.counters[key] / passes
        drawn = self.counters["solvers.keys_drawn"]
        out["solvers.key_use_ratio"] = self.counters["solvers.keys_used"] / drawn if drawn else 0.0
        out["solvers.member_bytes"] = float(self.member_bytes)
        return out
