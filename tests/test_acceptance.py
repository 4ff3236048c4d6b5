"""End-to-end acceptance checks, one test per numbered criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.  The two expensive stages (obstruction tuning, desk-scale dataset)
run once in module-scoped fixtures and are shared by the criteria that
consume their outputs; those criteria carry the ``slow`` marker, so
``pytest -m "not slow"`` skips both stages.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from cfplan.bo import bo_minimize
from cfplan.cost import (
    AgentCostWeights,
    TrajectoryCostWeights,
    agent_cost,
    trajectory_cost,
)
from cfplan.fields import (
    AgentKinematics,
    GainSet,
    attractive_force,
    circular_field_force,
    repulsive_force,
)
from cfplan.gp import gp_fit, gp_predict_batch, matern52
from cfplan.inference import featurize, knn_predict
from cfplan.labeling import build_dataset, load_dataset, tune_scene
from cfplan.params import BoundsBox, default_bounds
from cfplan.planner import PlannerConfig, Trajectory, execute
from cfplan.scene import (
    PointCloud,
    Scene,
    SphereObstacle,
    WorkspaceBounds,
    default_desk_randomizer,
    min_surface_distance,
    scene_arrays,
)
from scipy.spatial.distance import cdist
from tests.conftest import (
    BENCH_CFG,
    brute_agent_cost,
    brute_trajectory_cost,
    empty_scene,
    make_params,
    obstruction_scene,
    untuned_baseline,
)

AGENT_W = AgentCostWeights()
TRAJ_W = TrajectoryCostWeights()


def rel_close(got, want, tol=1e-12) -> bool:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = max(float(np.linalg.norm(want)), 1.0)
    return float(np.linalg.norm(got - want)) <= tol * scale


# ---------------------------------------------------------------------------
# expensive shared stages


@pytest.fixture(scope="module")
def obstruction_tuning():
    """Criterion 6 workload: 10 tuner seeds on the midpoint-obstruction scene
    with an 8 + 24 = 32 evaluation budget (inside the 56-iteration cap)."""
    scene = obstruction_scene()
    t0 = time.perf_counter()
    runs = []
    for seed in range(10):
        tuned, final = tune_scene(scene, BENCH_CFG, AGENT_W, TRAJ_W, n_init=8, n_iter=24, seed=seed)
        runs.append(
            {
                "seed": seed,
                "p": tuned.best_p,
                "reached": final.reached,
                "min_clearance": final.min_clearance,
            }
        )
    elapsed = time.perf_counter() - t0
    return {"scene": scene, "runs": runs, "elapsed": elapsed}


@pytest.fixture(scope="module")
def desk_dataset(tmp_path_factory):
    """Criterion 9 workload: 10 randomized desk scenes, 8 + 12 = 20 tuner
    evaluations each."""
    out = tmp_path_factory.mktemp("acceptance") / "desk.jsonl"
    bounds = default_bounds()
    t0 = time.perf_counter()
    summary = build_dataset(
        10,
        0,
        default_desk_randomizer(),
        BENCH_CFG,
        AGENT_W,
        TRAJ_W,
        out,
        bounds=bounds,
        n_init=8,
        n_iter=12,
    )
    elapsed = time.perf_counter() - t0
    return {
        "path": out,
        "summary": summary,
        "samples": load_dataset(out),
        "bounds": bounds,
        "elapsed": elapsed,
    }


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_lorentz_perpendicularity():
    rng = np.random.default_rng(0)
    n = 10_000
    t0 = time.perf_counter()
    positions = rng.uniform(-1.0, 1.0, (n, 3))
    velocities = rng.uniform(-1.5, 1.5, (n, 3))
    currents = rng.standard_normal((n, 3))
    currents /= np.linalg.norm(currents, axis=1)[:, None]
    directions = rng.standard_normal((n, 3))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    radii = rng.uniform(0.05, 0.3, n)
    r_d = 0.4
    # place every obstacle inside the detection shell so forces are nonzero
    gaps = rng.uniform(0.0, r_d * 0.99, n)
    worst = 0.0
    for i in range(n):
        center = positions[i] + directions[i] * (radii[i] + gaps[i])
        kin = AgentKinematics(positions[i], velocities[i])
        obstacle = SphereObstacle(center=center, radius=radii[i])
        f = circular_field_force(kin, obstacle, currents[i], k_cf=1.0, r_d=r_d)
        bound = 1e-9 * np.linalg.norm(f) * np.linalg.norm(velocities[i])
        work = abs(float(f @ velocities[i]))
        assert work <= bound + 1e-300
        worst = max(worst, work - bound)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 1: 10000 triples, worst excess {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_shell_locality():
    rng = np.random.default_rng(1)
    n = 10_000
    positions = rng.uniform(-1.0, 1.0, (n, 3))
    velocities = rng.uniform(-1.5, 1.5, (n, 3))
    directions = rng.standard_normal((n, 3))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    radii = rng.uniform(0.05, 0.3, n)
    r_d = rng.uniform(0.05, 0.5, n)
    extra = rng.uniform(1e-9, 1.0, n)
    current = np.array([0.0, 0.0, 1.0])
    for i in range(n):
        center = positions[i] + directions[i] * (radii[i] + r_d[i] + extra[i])
        kin = AgentKinematics(positions[i], velocities[i])
        obstacle = SphereObstacle(center=center, radius=radii[i])
        f_cf = circular_field_force(kin, obstacle, current, k_cf=3.0, r_d=float(r_d[i]))
        f_rep = repulsive_force(kin, obstacle, k_r=2.0, r_d=float(r_d[i]))
        assert not f_cf.any()
        assert not f_rep.any()
    print("criterion 2: 10000 out-of-shell states, all forces exactly zero")


def test_criterion_03_force_oracles():
    # goal attraction at rest
    kin = AgentKinematics(np.zeros(3), np.zeros(3))
    gains = GainSet(k_p=2.0, k_v=1.0, k_cf=0.0, k_manip=0.0, k_r=0.0)
    assert rel_close(attractive_force(kin, (1.0, 0, 0), gains), [2.0, 0.0, 0.0])

    # attraction cancelled by the matched velocity
    kin = AgentKinematics(np.zeros(3), np.array([2.0, 0.0, 0.0]))
    assert rel_close(attractive_force(kin, (1.0, 0, 0), gains), [0.0, 0.0, 0.0])

    # circular field from a unit current along z
    kin = AgentKinematics(np.zeros(3), np.array([1.0, 0.0, 0.0]))
    obstacle = SphereObstacle(center=(0.0, 0.2, 0.0), radius=0.1)
    f = circular_field_force(kin, obstacle, (0.0, 0.0, 1.0), k_cf=1.0, r_d=0.5)
    assert rel_close(f, [0.0, 0.0, 1.0])

    # repulsion magnitude (1/0.2 - 1/0.4) / 0.2^2 = 62.5 away from the surface
    kin = AgentKinematics(np.array([0.5, 0.0, 0.0]), np.zeros(3))
    obstacle = SphereObstacle(center=(0.0, 0.0, 0.0), radius=0.3)
    f = repulsive_force(kin, obstacle, k_r=1.0, r_d=0.4)
    assert rel_close(f, [62.5, 0.0, 0.0])
    print("criterion 3: tabulated force oracles matched to 1e-12")


def test_criterion_04_cost_oracle_equivalence():
    rng = np.random.default_rng(2)
    for trial in range(100):
        scene = Scene(
            obstacles=tuple(
                SphereObstacle(center=rng.uniform(-1, 1, 3), radius=float(rng.uniform(0.05, 0.3)))
                for _ in range(int(rng.integers(1, 5)))
            ),
            start=(5.0, 5.0, 5.0),
            goal=rng.uniform(-1, 1, 3),
            workspace=WorkspaceBounds(min=(-2, -2, -2), max=(2, 2, 2)),
        )
        pos = rng.uniform(-2.5, 2.5, (10, 3))
        traj = Trajectory(np.arange(10) * 0.01, pos, np.zeros(10))
        aw = AgentCostWeights(*rng.uniform(0.1, 5.0, 4))
        tw = TrajectoryCostWeights(*rng.uniform(0.1, 5.0, 4))
        a_got, a_want = agent_cost(traj, scene, aw), brute_agent_cost(traj, scene, aw)
        t_got, t_want = trajectory_cost(traj, scene, tw), brute_trajectory_cost(traj, scene, tw)
        assert a_got == pytest.approx(a_want, rel=1e-12), f"trial {trial}"
        assert t_got == pytest.approx(t_want, rel=1e-12), f"trial {trial}"
    print("criterion 4: both costs match brute force on 100 trajectories to 1e-12")


def test_criterion_05_empty_scene_convergence():
    cfg = PlannerConfig(horizon=10, replan_every=20, max_steps=2000, goal_tolerance=0.03)
    p = make_params(k_p=10.0, k_v=5.0)
    rng = np.random.default_rng(3)
    goals = [np.array([0.3, 0.2, 0.6])]
    for _ in range(2):
        g = rng.standard_normal(3)
        goals.append(g / np.linalg.norm(g) * float(rng.uniform(0.3, 1.0)))
    t0 = time.perf_counter()
    for goal in goals:
        assert float(np.linalg.norm(goal)) <= 1.0
        result = execute(empty_scene(goal=tuple(goal)), p, cfg, AGENT_W)
        assert result.reached
        assert result.steps_used <= 2000
        final = result.trajectory.positions[-1]
        assert float(np.linalg.norm(final - goal)) <= 0.03
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 5: {len(goals)} goals reached within tolerance in {elapsed:.2f}s")


@pytest.mark.slow
def test_criterion_06_obstruction_benchmark(obstruction_tuning):
    scene = obstruction_tuning["scene"]
    centers, radii = scene_arrays(scene)
    # the straight-line reference path collides
    line = scene.start + np.linspace(0.0, 1.0, 400)[:, None] * (scene.goal - scene.start)
    line_clearance = min(min_surface_distance(p, centers, radii) for p in line)
    assert line_clearance <= 0.0

    runs = obstruction_tuning["runs"]
    wins = sum(r["reached"] and r["min_clearance"] > 0.0 for r in runs)
    assert wins >= 8, [(r["seed"], r["reached"], r["min_clearance"]) for r in runs]
    assert obstruction_tuning["elapsed"] < 300.0
    print(
        f"criterion 6: {wins}/10 seeds reached with positive clearance "
        f"in {obstruction_tuning['elapsed']:.1f}s"
    )


def branin(x: np.ndarray) -> float:
    a, b, c = 1.0, 5.1 / (4.0 * math.pi**2), 5.0 / math.pi
    r, s, t = 6.0, 10.0, 1.0 / (8.0 * math.pi)
    return float(
        a * (x[1] - b * x[0] ** 2 + c * x[0] - r) ** 2 + s * (1.0 - t) * math.cos(x[0]) + s
    )


def test_criterion_07_bo_sanity():
    t0 = time.perf_counter()
    bounds = BoundsBox(low=[-5.0, 0.0], high=[10.0, 15.0])
    xs = np.linspace(-5.0, 10.0, 300)
    ys = np.linspace(0.0, 15.0, 300)
    grid_min = min(branin(np.array([x, y])) for x in xs for y in ys)

    wins = 0
    for seed in range(10):
        result = bo_minimize(branin, bounds, n_init=8, n_iter=48, seed=seed)
        wins += result.best_y - grid_min <= 0.5
    assert wins >= 9

    quad = bo_minimize(
        lambda x: float((x[0] - 0.3) ** 2),
        BoundsBox(low=[-2.0], high=[2.0]),
        n_init=8,
        n_iter=48,
        seed=0,
    )
    assert abs(quad.best_p[0] - 0.3) <= 0.05
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"criterion 7: branin {wins}/10 within 0.5, quad at {quad.best_p[0]:.3f}, {elapsed:.1f}s")


def test_criterion_08_gp_dense_oracle():
    for seed in range(3):
        rng = np.random.default_rng(seed)
        d = 2 + seed % 2
        x = rng.uniform(-1.0, 2.0, (20, d))
        y = np.sin(2.0 * x[:, 0]) + 0.25 * x[:, -1] ** 2
        model = gp_fit(list(zip(x, y)))

        query = rng.uniform(-1.0, 2.0, (40, d))
        mean, std = gp_predict_batch(model, query)

        qn = (query - model.x_lo) / model.x_width
        k_train = model.signal_var * matern52(cdist(model.xn, model.xn), model.length_scale)
        k_train[np.diag_indices_from(k_train)] += model.noise_var
        k_cross = model.signal_var * matern52(cdist(qn, model.xn), model.length_scale)
        k_inv = np.linalg.inv(k_train)
        mean_ref = model.y_mean + model.y_scale * (k_cross @ k_inv @ model.y)
        var_ref = model.signal_var - np.einsum("ij,jk,ik->i", k_cross, k_inv, k_cross)
        std_ref = model.y_scale * np.sqrt(np.maximum(var_ref, 0.0))

        assert float(np.abs(mean - mean_ref).max()) <= 1e-8
        assert float(np.abs(std - std_ref).max()) <= 1e-8
    print("criterion 8: posterior mean/std match dense direct solve to 1e-8")


@pytest.mark.slow
def test_criterion_09_labeling_pipeline(desk_dataset):
    summary = desk_dataset["summary"]
    samples = desk_dataset["samples"]
    bounds = desk_dataset["bounds"]

    assert summary["n_attempted"] == 10
    assert summary["n_succeeded"] == len(samples) >= 1
    rows = {row["scene_id"]: row for row in summary["per_scene"]}
    for sample in samples:
        assert rows[sample.scene_id]["reason"] is None  # reached, no collision
        assert sample.points.shape == (2500, 3)
        assert sample.p_star.shape == (36,)
        assert bounds.contains(sample.p_star, atol=1e-9)
        assert np.isfinite(sample.best_cost)

    # file schema: one JSON object per line with exactly the four keys
    with open(desk_dataset["path"], "r", encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            assert set(record) == {"scene_id", "points", "p_star", "best_cost"}
            assert len(record["points"]) == 2500
            assert len(record["p_star"]) == 36

    assert desk_dataset["elapsed"] < 900.0
    print(
        f"criterion 9: {summary['n_succeeded']}/10 scenes stored "
        f"in {desk_dataset['elapsed']:.1f}s"
    )


@pytest.mark.slow
def test_criterion_10_inference_consistency(desk_dataset):
    samples = desk_dataset["samples"]
    bounds = desk_dataset["bounds"]
    workspace = default_desk_randomizer().workspace

    # leave-in: querying a stored cloud returns its own label verbatim
    for sample in samples:
        query = featurize(PointCloud(sample.points), workspace)
        got = knn_predict(query, samples, workspace, k=3)
        assert np.array_equal(got, sample.p_star)

    # arbitrary queries stay inside the bounds box
    rng = np.random.default_rng(4)
    for _ in range(20):
        pts = rng.uniform(workspace.min, workspace.max, size=(int(rng.integers(1, 400)), 3))
        query = featurize(PointCloud(pts), workspace)
        got = knn_predict(query, samples, workspace, k=3)
        assert bounds.contains(got, atol=1e-9)
    print(f"criterion 10: leave-in exact on {len(samples)} samples, 20 queries in bounds")


@pytest.mark.slow
def test_criterion_11_default_gain_failure(obstruction_tuning):
    scene = obstruction_tuning["scene"]

    untuned = execute(scene, untuned_baseline(), BENCH_CFG, AGENT_W)
    assert (not untuned.reached) or untuned.min_clearance <= 0.0

    winners = [r for r in obstruction_tuning["runs"] if r["reached"] and r["min_clearance"] > 0.0]
    assert winners
    tuned = execute(scene, winners[0]["p"], BENCH_CFG, AGENT_W)
    assert tuned.reached
    assert tuned.min_clearance > 0.0
    print(
        f"criterion 11: untuned clearance {untuned.min_clearance:.3f} "
        f"vs tuned {tuned.min_clearance:.3f}"
    )
