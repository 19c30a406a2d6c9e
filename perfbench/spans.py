"""In-memory span tracer for the proxmax benchmark.

Wrappers are installed around public functions of the proxmax modules, in
every ``proxmax.*`` namespace that bound the name at import time (``prox``,
``cli`` and ``oracle`` import ``eval_f``, ``exp_map`` and friends directly,
so patching the defining module alone would miss their calls).  Each call
records one span -- name, start, end, parent span, op id -- into flat
arrays, so a traced op costs 28 bytes per span.  Self times and counters
are derived from the spans after the run; nothing is written while ops
execute.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from array import array
from collections import Counter

import numpy as np

# module -> public functions that get a span; the span name is "<layer>.<function>"
TRACED = {
    "problems": ("make_problem", "region_samples"),
    "objective": ("estimate_sup_lipschitz", "eval_f", "clarke_subdiff", "min_norm_subgradient"),
    "prox": ("solve", "prox_step", "inner_solve"),
    "manifold": ("exp_map", "log_map", "dist", "transport"),
    "oracle": ("grid_minimize", "geodesic_convexity_test", "usc_sampler", "fd_gradient"),
    "cli": ("run", "verify"),
}


class Tracer:
    """Collects spans from wrapped calls; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self._stack = [-1]
        self.counters: Counter = Counter()
        self.errors: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """Return fn wrapped in a span; after(args, result) may update counters."""
        nid = self._name(name)
        perf = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            parent = self._stack[-1]
            if parent < 0:  # a root span starts the next op
                self.op_id += 1
            self.name_id.append(nid)
            self.parent.append(parent)
            self.op.append(self.op_id)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                self.end[idx] = perf()
                self._stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Patch every proxmax namespace; undone by uninstall()."""
        mods = [m for k, m in sys.modules.items() if k == "proxmax" or k.startswith("proxmax.")]
        after = {
            "clarke_subdiff": self._count_active,
            "min_norm_subgradient": self._count_hull,
        }
        for layer, funcs in TRACED.items():
            home = sys.modules[f"proxmax.{layer}"]
            for fn_name in funcs:
                orig = getattr(home, fn_name)
                wrapped = self.wrap(f"{layer}.{fn_name}", orig, after.get(fn_name))
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, attr, wrapped)
        # branch calls: wrap phi/grad_phi on the problem the CLI builds
        cli = sys.modules["proxmax.cli"]
        build = cli.make_problem
        self._patch(cli, "make_problem", lambda request: self._wrap_branches(build(request)))

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, orig = self._patched.pop()
            setattr(mod, attr, orig)

    def _patch(self, mod, attr: str, value) -> None:
        self._patched.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def _wrap_branches(self, problem):
        obj = problem.objective
        obj = dataclasses.replace(
            obj,
            phi=self.wrap("objective.branch", obj.phi),
            grad_phi=self.wrap("objective.branch_grad", obj.grad_phi),
        )
        return dataclasses.replace(problem, objective=obj)

    def _count_active(self, args, hull) -> None:
        self.counters["active_generators"] += len(hull.generators)
        self.counters["branches_scanned"] += len(args[0].params)

    def _count_hull(self, args, _result) -> None:
        self.counters["hull_size_sum"] += len(args[0].generators)

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict:
        n = len(self.start)
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32, count=n).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64, count=n).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64, count=n).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32, count=n).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32, count=n).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def breakdown(self, op_scale) -> "Breakdown":
        """Derived metrics, each op's span durations multiplied by op_scale[op]."""
        return Breakdown(self.names, self.arrays(), np.asarray(op_scale, dtype=float))


class Breakdown:
    """Per-name call counts, inclusive and self times (ms) derived from spans.

    Times are in reference-speed ms when op_scale holds each op's
    calibration factor (see run.py).
    """

    def __init__(self, names: list[str], a: dict, op_scale: np.ndarray) -> None:
        self.names = names
        nid, parent = a["name_id"], a["parent"]
        dur = (a["end"] - a["start"]) * 1e3 * op_scale[a["op"]]
        n = dur.size
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_ms = dur - child
        k = len(names)
        self.calls = np.bincount(nid, minlength=k)
        self.incl = np.bincount(nid, weights=dur, minlength=k)
        self.self_ms = np.bincount(nid, weights=self_ms, minlength=k)

        layer_of_name = np.array([nm.split(".")[0] for nm in names] or [""])
        layer = layer_of_name[nid]
        outer = ~has_parent
        outer[has_parent] = layer[parent[has_parent]] != layer[has_parent]
        self.layer_ms = {
            lay: float(dur[outer & (layer == lay)].sum()) for lay in set(layer_of_name)
        }

        # clarke_subdiff calls made anywhere below an inner_solve span
        inside = self._is("prox.inner_solve", nid)
        while True:
            grown = inside.copy()
            grown[has_parent] |= inside[parent[has_parent]]
            if np.array_equal(grown, inside):
                break
            inside = grown
        below = inside & ~self._is("prox.inner_solve", nid)
        self.inner_steps = int(np.count_nonzero(below & self._is("objective.clarke_subdiff", nid)))
        self.spans = n

    def _is(self, name: str, nid: np.ndarray) -> np.ndarray:
        if name not in self.names:
            return np.zeros(nid.size, dtype=bool)
        return nid == self.names.index(name)

    def _get(self, table: np.ndarray, name: str) -> float:
        return float(table[self.names.index(name)]) if name in self.names else 0.0

    def calls_of(self, name: str) -> float:
        return self._get(self.calls, name)

    def incl_ms(self, name: str) -> float:
        return self._get(self.incl, name)

    def self_of(self, name: str) -> float:
        return self._get(self.self_ms, name)

    def top_self(self, count: int = 10) -> list[tuple[str, float]]:
        order = np.argsort(-self.self_ms)[:count]
        return [(self.names[i], float(self.self_ms[i])) for i in order]
