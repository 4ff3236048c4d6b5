#!/usr/bin/env python3
"""Build a labeled gain dataset over randomized desk scenes.

Each scene is randomized from the desk-scale generator, tuned with the
Bayesian optimizer, and stored (point cloud + best parameter vector) only
when the tuned plan reaches the goal.  Writes a JSONL dataset next to a JSON
summary and prints the summary to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from cfplan import (
    AgentCostWeights,
    PlannerConfig,
    TrajectoryCostWeights,
    build_dataset,
    default_desk_randomizer,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scenes", type=int, default=10, help="number of scenes")
    ap.add_argument("--seed", type=int, default=0, help="base scene seed")
    ap.add_argument("--out", default="desk_dataset.jsonl", help="dataset path")
    ap.add_argument("--summary", default=None, help="summary JSON path")
    ap.add_argument("--init", type=int, default=8, help="initial quasi-random evaluations")
    ap.add_argument("--iters", type=int, default=12, help="guided tuner iterations")
    ap.add_argument("--horizon", type=int, default=20)
    ap.add_argument("--replan-every", type=int, default=20)
    ap.add_argument("--max-steps", type=int, default=600)
    args = ap.parse_args()

    cfg = PlannerConfig(
        horizon=args.horizon,
        replan_every=args.replan_every,
        max_steps=args.max_steps,
    )

    def on_scene(idx, total, scene_id, stored):
        print(f"[{idx + 1}/{total}] scene {scene_id}: stored={stored}", file=sys.stderr)

    summary = build_dataset(
        n_scenes=args.scenes,
        seeds=args.seed,
        randomizer=default_desk_randomizer(),
        planner_cfg=cfg,
        agent_weights=AgentCostWeights(),
        traj_weights=TrajectoryCostWeights(),
        out_path=args.out,
        n_init=args.init,
        n_iter=args.iters,
        on_scene=on_scene,
    )
    summary_path = args.summary if args.summary else f"{args.out}.summary.json"
    Path(summary_path).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
