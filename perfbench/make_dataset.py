"""Rebuild the labeled desk dataset that the desk-plan workload infers from.

    python3 perfbench/make_dataset.py

Labels the desk scenes of ``common.TRAIN_SEEDS`` with the program's own
``build_dataset`` (criterion-9 tuner budget, acceptance planner settings) and
writes ``perfbench/data/desk_train.jsonl``.  Takes a few minutes on two cores.
"""

from __future__ import annotations

import json

import common  # noqa: F401  (puts src/ on sys.path)
from cfplan.cost import AgentCostWeights, TrajectoryCostWeights
from cfplan.labeling import build_dataset
from cfplan.params import default_bounds
from cfplan.planner import PlannerConfig
from cfplan.scene import default_desk_randomizer


def main() -> None:
    common.DATASET.parent.mkdir(parents=True, exist_ok=True)
    n_init, n_iter = common.TRAIN_BUDGET
    summary = build_dataset(
        len(common.TRAIN_SEEDS),
        list(common.TRAIN_SEEDS),
        default_desk_randomizer(),
        PlannerConfig(**common.PLANNER),
        AgentCostWeights(),
        TrajectoryCostWeights(),
        common.DATASET,
        bounds=default_bounds(common.PLANNER["n_agents"]),
        n_init=n_init,
        n_iter=n_iter,
    )
    print(json.dumps({k: summary[k] for k in ("n_attempted", "n_succeeded", "wall_time_s")}))


if __name__ == "__main__":
    main()
