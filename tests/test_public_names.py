"""The code that runs is the public API: the planner's hot path goes through
``planner.rollout`` and ``heuristics.batch_currents``, labeling through
``labeling.label_scene``, and every function the benchmark tracer wraps
exists under the name it looks up."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from cfplan import cost, labeling, planner
from cfplan.cost import AgentCostWeights, TrajectoryCostWeights
from cfplan.planner import PlannerConfig
from tests.conftest import make_params, obstruction_scene

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
CFG = PlannerConfig(horizon=10, replan_every=10, max_steps=40)


def record_results(monkeypatch, module, name) -> list:
    """Replace ``module.name`` by a wrapper that records each call's result,
    where a tracer holding the function by that name would see it."""
    original = getattr(module, name)
    results = []

    def wrapper(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(module, name, wrapper)
    return results


def test_execute_runs_public_rollout_and_batch_currents(monkeypatch):
    rollouts = record_results(monkeypatch, planner, "rollout")
    currents = record_results(monkeypatch, planner, "batch_currents")
    # the start lies inside every agent's detection shell, and k_cf > 0
    p = make_params(k_p=10.0, k_v=5.0, k_cf=30.0, k_r=0.5, r_d=0.3)
    result = planner.execute(obstruction_scene(), p, CFG, AgentCostWeights())
    assert len(rollouts) == len(result.best_agent_history) > 0
    assert all(
        pos.shape[0] == clr.shape[0] == vel.shape[0] == CFG.n_agents for pos, clr, vel in rollouts
    )
    assert sum(rows.shape[0] for rows in currents) > 0


def test_costs_scan_through_public_surface_clearances(monkeypatch):
    # the tracer counts clearance pairs on cost.surface_clearances
    scans = record_results(monkeypatch, cost, "surface_clearances")
    scene = obstruction_scene()
    traj = planner.execute(scene, make_params(k_p=10.0, k_v=5.0), CFG, AgentCostWeights()).trajectory
    # the start sample only: replans are scored from their rollouts' clearances
    assert [rows.shape for rows in scans] == [(1,)]
    scans.clear()
    cost.trajectory_cost(traj, scene, TrajectoryCostWeights())
    assert sum(rows.shape[0] for rows in scans) == len(traj) - 1


def test_label_scene_set_runs_public_label_scene(monkeypatch, tmp_path):
    labels = record_results(monkeypatch, labeling, "label_scene")
    summary = labeling.label_scene_set(
        [obstruction_scene(), obstruction_scene(radius=0.1)],
        scene_ids=[0, 1],
        seeds=[0, 1],
        planner_cfg=CFG,
        agent_weights=AgentCostWeights(),
        traj_weights=TrajectoryCostWeights(),
        out_path=tmp_path / "labels.jsonl",
        n_init=2,
        n_iter=0,
    )
    assert len(labels) == summary["n_attempted"] == 2
    assert [reason for _, reason in labels] == [row["reason"] for row in summary["per_scene"]]


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, func, _ in tracing.TARGETS:
        target = getattr(importlib.import_module(f"cfplan.{module}"), func, None)
        assert callable(target), f"perfbench traces cfplan.{module}.{func}, which does not exist"
