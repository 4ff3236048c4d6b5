#!/usr/bin/env python3
"""Print digests of planner results on fixed inputs.

Each line names one ``execute`` run and hashes everything it returned
(positions, clearances, ``reached``, ``steps_used``, ``min_clearance``,
``best_agent_history``) together with the run's ``trajectory_cost``; the last
line hashes all runs.  Two checkouts plan bitwise identically on these inputs
exactly when their outputs match, which is how a refactor of the planner or
the cost shows that it changed no result:

    PYTHONPATH=src python3 scripts/plan_digests.py > after.txt

The inputs are the midpoint-obstruction scene with 16 random and 3 fixed
parameter vectors under two planner settings (one whose ``max_steps`` is not a multiple
of ``replan_every``), each with and without an arm Jacobian, and the desk
scenes labeled in ``perfbench/data/desk_train.jsonl`` with their stored gains.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from cfplan import (
    AgentCostWeights,
    PlannerConfig,
    Scene,
    TrajectoryCostWeights,
    default_bounds,
    default_desk_randomizer,
    execute,
    obstruction_scene,
    randomize_scene,
    trajectory_cost,
)

DATASET = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "desk_train.jsonl"
JACOBIAN = np.random.default_rng(1).standard_normal((3, 7))
CONFIGS = {
    "h20r20": dict(horizon=20, replan_every=20, max_steps=600),
    "h30r7": dict(horizon=30, replan_every=7, max_steps=250, master_seed=3),
}


def digest(scene: Scene, p: np.ndarray, cfg: PlannerConfig) -> tuple[str, str]:
    result = execute(scene, p, cfg, AgentCostWeights())
    traj = result.trajectory
    cost = trajectory_cost(traj, scene, TrajectoryCostWeights())
    h = hashlib.sha256()
    h.update(traj.positions.tobytes())
    h.update(traj.clearances.tobytes())
    h.update(
        repr(
            (
                result.reached,
                result.steps_used,
                result.min_clearance,
                result.best_agent_history,
                cost,
            )
        ).encode()
    )
    return f"steps={result.steps_used} reached={result.reached}", h.hexdigest()


def cases():
    scene = obstruction_scene()
    bounds = default_bounds(7)
    rng = np.random.default_rng(0)
    moderate = bounds.high.copy()
    moderate[:-1] = 40.0
    vectors = [rng.uniform(bounds.low, bounds.high) for _ in range(8)]
    vectors += [rng.uniform(bounds.low, moderate) for _ in range(8)]
    # gains shared by all agents (k_p, k_v, k_cf, k_manip, k_r, then r_d)
    # that reach the goal partway through a replanning segment
    for k_p, k_v, k_cf, k_r, r_d in ((10, 5, 0, 0, 0.3), (5, 3, 10, 0.2, 0.25), (15, 6, 100, 0.1, 0.5)):
        vectors.append(np.r_[np.repeat([k_p, k_v, k_cf, 0.0, k_r], 7), r_d].astype(float))
    for i, p in enumerate(vectors):
        for cfg_name, kw in CONFIGS.items():
            for jac_name, jac in (("nojac", None), ("jac", JACOBIAN)):
                name = f"obstruction/p{i:02d}/{cfg_name}/{jac_name}"
                yield name, scene, p, PlannerConfig(jacobian=jac, **kw)
    desk = default_desk_randomizer()
    with open(DATASET, encoding="utf-8") as fh:
        labels = [json.loads(line) for line in fh if line.strip()]
    for k, label in enumerate(labels):
        scene = randomize_scene(desk, label["scene_id"])
        p = np.asarray(label["p_star"], dtype=float)
        jacs = (("nojac", None), ("jac", JACOBIAN)) if k < 2 else (("nojac", None),)
        for jac_name, jac in jacs:
            name = f"desk/{label['scene_id']}/{jac_name}"
            yield name, scene, p, PlannerConfig(jacobian=jac, **CONFIGS["h20r20"])


def main() -> int:
    total = hashlib.sha256()
    for name, scene, p, cfg in cases():
        summary, hexdigest = digest(scene, p, cfg)
        total.update(hexdigest.encode())
        print(f"{name:34s} {summary:26s} {hexdigest[:16]}", flush=True)
    print(f"all {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
