#!/usr/bin/env python3
"""End-to-end demo: tune the obstruction scene once, execute the tuned plan,
and write the trajectory CSV plus an SVG rendering.

Shows the whole loop (scene -> tuner -> executor -> artifacts) at the
smallest interesting scale: one sphere squarely blocking the straight path.
"""

from __future__ import annotations

import argparse
import json
import sys

from cfplan import (
    AgentCostWeights,
    PlannerConfig,
    TrajectoryCostWeights,
    obstruction_scene,
    tune_scene,
)
from cfplan.io import save_params, save_trajectory_csv
from cfplan.plot import save_plan_svg


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0, help="tuner seed")
    ap.add_argument("--init", type=int, default=8)
    ap.add_argument("--iters", type=int, default=24)
    ap.add_argument("--traj", default="demo_traj.csv")
    ap.add_argument("--plot", default="demo_plan.svg")
    ap.add_argument("--params", default=None, help="optional tuned-parameter JSON output")
    args = ap.parse_args()

    scene = obstruction_scene()
    cfg = PlannerConfig(horizon=20, replan_every=20, max_steps=600)
    print("tuning...", file=sys.stderr)
    tuned, result = tune_scene(
        scene,
        cfg,
        AgentCostWeights(),
        TrajectoryCostWeights(),
        n_init=args.init,
        n_iter=args.iters,
        seed=args.seed,
    )
    save_trajectory_csv(result.trajectory, args.traj)
    save_plan_svg(scene, result.trajectory, args.plot)
    if args.params:
        save_params(tuned.best_p, args.params)
    print(
        json.dumps(
            {
                "reached": result.reached,
                "steps_used": result.steps_used,
                "min_clearance": result.min_clearance,
                "best_cost": tuned.best_y,
                "traj": args.traj,
                "plot": args.plot,
            }
        )
    )
    return 0 if result.reached else 1


if __name__ == "__main__":
    raise SystemExit(main())
