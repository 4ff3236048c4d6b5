#!/usr/bin/env python3
"""Tune the planner on the midpoint-obstruction scene over several seeds.

A single sphere sits halfway between start and goal, so the straight-line
reference path collides and only a steered parameterization can reach the
goal with positive clearance.  Each seed gets a fixed tuner budget; the
script prints one line per seed and a final win tally.
"""

from __future__ import annotations

import argparse
import time

from cfplan import (
    AgentCostWeights,
    PlannerConfig,
    TrajectoryCostWeights,
    obstruction_scene,
    tune_scene,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=10, help="number of tuner seeds")
    ap.add_argument("--init", type=int, default=8, help="initial quasi-random evaluations")
    ap.add_argument("--iters", type=int, default=24, help="guided tuner iterations")
    ap.add_argument("--horizon", type=int, default=20)
    ap.add_argument("--replan-every", type=int, default=20)
    ap.add_argument("--max-steps", type=int, default=600)
    args = ap.parse_args()

    scene = obstruction_scene()
    cfg = PlannerConfig(
        horizon=args.horizon,
        replan_every=args.replan_every,
        max_steps=args.max_steps,
    )

    wins = 0
    t0 = time.perf_counter()
    for seed in range(args.seeds):
        t_seed = time.perf_counter()
        tuned, final = tune_scene(
            scene,
            cfg,
            AgentCostWeights(),
            TrajectoryCostWeights(),
            n_init=args.init,
            n_iter=args.iters,
            seed=seed,
        )
        ok = final.reached and final.min_clearance > 0.0
        wins += ok
        print(
            f"seed {seed} ok={ok} best_cost={tuned.best_y:.3f} "
            f"clear={final.min_clearance:.4g} steps={final.steps_used} "
            f"t={time.perf_counter() - t_seed:.1f}s"
        )
    print(f"wins {wins}/{args.seeds}, total {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
