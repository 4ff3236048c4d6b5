"""In-memory span tracing of cfplan's public functions.

``Tracer.install`` replaces each traced function with a recording wrapper
under every name a loaded module holds it by (``cfplan.labeling.execute`` as
well as ``cfplan.planner.execute``), so callers that imported the function by
name are traced too.  Each call while the tracer is active records a span
(name, start, end, parent span); counters read the call's arguments and
result.  ``uninstall`` puts the original functions back.  The wrappers pass
arguments and results through untouched, so traced runs compute bitwise the
same results as untraced ones.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

from cfplan.bo import PENALTY


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_execute(counts, args, kwargs, result):
    cfg = _arg(args, kwargs, 2, "cfg")
    replans = len(result.best_agent_history)
    counts["planner.sim_steps"] += result.steps_used + replans * cfg.n_agents * cfg.horizon
    if not result.reached and result.steps_used == cfg.max_steps:
        counts["planner.max_step_runs"] += 1


def _count_currents(counts, args, kwargs, result):
    counts["heuristics.current_rows"] += result.shape[0]


def _count_clearances(counts, args, kwargs, result):
    centers = _arg(args, kwargs, 1, "centers")
    counts["cost.clearance_pairs"] += result.shape[0] * centers.shape[0]


def _count_bo(counts, args, kwargs, result):
    best = np.inf
    for _, y in result.observations:
        counts["bo.evals"] += 1
        counts["bo.penalized_evals"] += y >= PENALTY
        if y < best:
            counts["bo.improving_evals"] += best < np.inf
            best = y


def _count_gp(counts, args, kwargs, result):
    counts["gp.fits"] += 1
    counts["gp.observations"] += result.y.shape[0]


#: (module, function, counter) for every traced function
TARGETS = (
    ("planner", "execute", _count_execute),
    ("planner", "plan_step", None),
    ("planner", "rollout", None),
    ("heuristics", "batch_currents", _count_currents),
    ("cost", "agent_cost", None),
    ("cost", "trajectory_cost", None),
    ("cost", "surface_clearances", _count_clearances),
    ("scene", "subsample", None),
    ("scene", "randomize_scene", None),
    ("labeling", "label_scene", None),
    ("labeling", "scene_surface_cloud", None),
    ("labeling", "write_dataset", None),
    ("labeling", "load_dataset", None),
    ("bo", "bo_minimize", _count_bo),
    ("bo", "acquire", None),
    ("bo", "pareto_non_dominated", None),
    ("gp", "gp_fit", _count_gp),
    ("gp", "gp_predict_batch", None),
    ("inference", "featurize", None),
    ("inference", "knn_predict", None),
    ("io", "load_scene", None),
    ("cli", "main", None),
)

SPAN_NAMES = tuple(f"{module}.{func}" for module, func, _ in TARGETS)

COUNTERS = (
    ("planner.sim_steps", "count"),
    ("planner.us_per_sim_step", "us"),
    ("planner.max_step_runs", "count"),
    ("heuristics.current_rows", "count"),
    ("heuristics.ns_per_row", "ns"),
    ("cost.clearance_pairs", "count"),
    ("bo.evals", "count"),
    ("bo.improving_evals", "count"),
    ("bo.penalized_evals", "count"),
    ("gp.mean_n", "count"),
)


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target under each name a loaded cfplan module holds it by."""
        holders = [m for n, m in list(sys.modules.items()) if n == "cfplan" or n.startswith("cfplan.")]
        for name_id, (module, func, counter) in enumerate(TARGETS):
            original = getattr(importlib.import_module(f"cfplan.{module}"), func)
            wrapper = self._wrap(name_id, original, counter)
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, attr, original))
                        setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def _wrap(self, name_id, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.names)
            self.names.append(name_id)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.starts[idx] = start
                self.ends[idx] = end
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    # -- results ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "span_names": np.array(SPAN_NAMES),
            "name": np.array(self.names, dtype=np.int32),
            "start": np.array(self.starts, dtype=float),
            "end": np.array(self.ends, dtype=float),
            "parent": np.array(self.parents, dtype=np.int64),
        }

    def write(self, path) -> None:
        np.savez(path, **self.arrays())

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-function calls, total and self time, then the work counters.
        Self time is a span's duration minus the durations of its children."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        calls = np.bincount(a["name"], minlength=len(SPAN_NAMES))
        total = np.bincount(a["name"], weights=dur, minlength=len(SPAN_NAMES))
        own = np.bincount(a["name"], weights=dur - child, minlength=len(SPAN_NAMES))
        out: dict[str, tuple[float, str]] = {}
        for i, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = (int(calls[i]), "count")
            out[f"{name}.total_s"] = (float(total[i]), "s")
            out[f"{name}.self_s"] = (float(own[i]), "s")
        c = self.counts
        steps, rows = c["planner.sim_steps"], c["heuristics.current_rows"]
        exec_s = out["planner.execute.total_s"][0]
        rows_s = out["heuristics.batch_currents.total_s"][0]
        derived = {
            "planner.us_per_sim_step": 1e6 * exec_s / steps if steps else 0.0,
            "heuristics.ns_per_row": 1e9 * rows_s / rows if rows else 0.0,
            "gp.mean_n": c["gp.observations"] / c["gp.fits"] if c["gp.fits"] else 0.0,
        }
        for name, unit in COUNTERS:
            value = derived[name] if name in derived else int(c[name])
            out[name] = (value, unit)
        return out
