#!/usr/bin/env python3
"""Print digests of planner results on fixed inputs.

Each line names one ``execute`` run and hashes everything it returned
(positions, clearances, ``reached``, ``steps_used``, ``min_clearance``,
``best_agent_history``) together with the run's ``trajectory_cost``; the last
line hashes all runs.  Each line also prints, outside the hash, how many
replanning segments a random-heuristic agent won (``random=``).  Two checkouts
plan bitwise identically on these inputs exactly when their outputs match,
which is how a refactor of the planner or the cost shows that it changed no
result:

    PYTHONPATH=src python3 scripts/plan_digests.py > after.txt

The inputs are the midpoint-obstruction scene with 16 random and 3 fixed
parameter vectors under two planner settings (one whose ``max_steps`` is not a multiple
of ``replan_every``), each with and without an arm Jacobian, and the desk
scenes labeled in ``perfbench/data/desk_train.jsonl`` with their stored gains.

The ``default/`` lines run the first two stored desk labels at
``PlannerConfig()`` (horizon 50, replan_every 5, max_steps 2,000), the
settings ``cfplan plan`` uses without ``--config``, where a rollout travels
far enough that one neighbour list per rollout would cover most of the scene.

The ``clouds`` line before ``all`` hashes the surface clouds of those desk
scenes, drawn as they were stored, and of two unseen desk scenes, drawn as
``cfplan plan --infer`` draws them.  The ``tuning`` line hashes every
observation and the best value of ``bo_minimize`` runs on three cheap
objectives over a 2-D box (the multimodal six-hump camel, a flat one whose
ties shrink the trust region to its floor and give the GP constant data, and
one that raises on half the box and so scores ``PENALTY``), plus one short
``tune_scene`` of the obstruction scene.  The ``scenes`` line hashes the
centers, radii and goal of ``randomize_scene`` on desk seeds 0-39 and on the
two unseen desk scenes, and the ``nn`` line hashes ``Scene.nn_centers`` on
the same scenes.  The ``subsample`` line hashes farthest-point subsamples of
clouds full of distance ties: a permuted lattice, that lattice twice over,
40 points a hundred times over, points on a line, tight clusters, a cloud
with half its points coincident, 20k Gaussian points, and the raw surface
cloud of an unseen desk scene.  The ``currents`` line hashes the lockstep
kernel's pieces on adversarial inputs: ``batch_currents`` for committees that
mix every heuristic, where some agents have several rows, some none, and
random agents sit with no rows between agents that have some, with rows whose
obstacle offset or defining cross product is degenerate, with and without
nearest-neighbour centers; ``planner._forces`` for committees in which all,
some or none of the agents circle or repel, on a one-sphere and a clustered
scene, with agents outside every shell, inside a sphere and at a center; and
``planner._euler_step`` on rows below, at and above the speed cap.  The
``scene-io`` line hashes the ``save_scene`` text of the ``scenes`` line's
desk scenes and the centers and radii that ``load_scene`` reads back from
it.  The ``random-rows`` line hashes every rollout of the first two stored
desk labels at ``PlannerConfig()`` with 20 steps and the detection radius at
its upper bound, where each random agent reads tens of thousands of rows a
rollout, far past the first block of its table.  These eight lines and the
``default/`` ones stay out of ``all`` so that ``all`` compares with
checkouts that print none of them.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

from cfplan import (
    AgentCostWeights,
    PointCloud,
    BoResult,
    BoundsBox,
    Committee,
    HeuristicKind,
    PlannerConfig,
    RandomRows,
    Scene,
    SphereObstacle,
    TrajectoryCostWeights,
    WorkspaceBounds,
    agent_heuristic,
    default_bounds,
    default_desk_randomizer,
    bo_minimize,
    execute,
    obstruction_scene,
    randomize_scene,
    scene_surface_cloud,
    subsample,
    trajectory_cost,
    tune_scene,
)
from cfplan import planner
from cfplan.io import load_scene, save_scene
from cfplan.heuristics import _committee_layout, batch_currents
from cfplan.vec3 import norms

DATASET = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "desk_train.jsonl"
JACOBIAN = np.random.default_rng(1).standard_normal((3, 7))
CONFIGS = {
    "h20r20": dict(horizon=20, replan_every=20, max_steps=600),
    "h30r7": dict(horizon=30, replan_every=7, max_steps=250, master_seed=3),
}
QUERY_SCENES = (3, 3173392)  # desk seeds no label uses
CAMEL_BOX = BoundsBox(low=[-3.0, -2.0], high=[3.0, 2.0])


def stored_labels() -> list[dict]:
    with open(DATASET, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


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
    random_won = sum(
        agent_heuristic(a) is HeuristicKind.RANDOM for _, a in result.best_agent_history
    )
    summary = f"steps={result.steps_used} reached={result.reached} random={random_won}"
    return summary, h.hexdigest()


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
    for k, label in enumerate(stored_labels()):
        scene = randomize_scene(desk, label["scene_id"])
        p = np.asarray(label["p_star"], dtype=float)
        jacs = (("nojac", None), ("jac", JACOBIAN)) if k < 2 else (("nojac", None),)
        for jac_name, jac in jacs:
            name = f"desk/{label['scene_id']}/{jac_name}"
            yield name, scene, p, PlannerConfig(jacobian=jac, **CONFIGS["h20r20"])


def default_cases():
    desk = default_desk_randomizer()
    for label in stored_labels()[:2]:
        scene = randomize_scene(desk, label["scene_id"])
        p = np.asarray(label["p_star"], dtype=float)
        yield f"default/{label['scene_id']}/nojac", scene, p, PlannerConfig()


def random_rows_digest() -> str:
    """Every rollout of the plans the module docstring's ``random-rows``
    line describes, and each plan's digest."""
    desk = default_desk_randomizer()
    h = hashlib.sha256()
    original = planner.rollout

    def hashed(*args):
        out = original(*args)
        for a in out:
            h.update(a.tobytes())
        return out

    with mock.patch.object(planner, "rollout", hashed):
        for label in stored_labels()[:2]:
            p = np.asarray(label["p_star"], dtype=float).copy()
            p[-1] = default_bounds(7).high[-1]
            scene = randomize_scene(desk, label["scene_id"])
            h.update(digest(scene, p, PlannerConfig(max_steps=20))[1].encode())
    return h.hexdigest()


def clouds_digest() -> str:
    desk = default_desk_randomizer()
    draws = [(label["scene_id"], label["scene_id"]) for label in stored_labels()]
    draws += [(scene_id, 0) for scene_id in QUERY_SCENES]
    h = hashlib.sha256()
    for scene_id, seed in draws:
        h.update(scene_surface_cloud(randomize_scene(desk, scene_id), seed=seed).points.tobytes())
    return h.hexdigest()


def scenes_digest() -> str:
    desk = default_desk_randomizer()
    h = hashlib.sha256()
    for scene_id in (*range(40), *QUERY_SCENES):
        scene = randomize_scene(desk, scene_id)
        for a in (scene.centers, scene.radii, scene.goal):
            h.update(a.tobytes())
    return h.hexdigest()


def scene_io_digest() -> str:
    desk = default_desk_randomizer()
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scene.json"
        for scene_id in (*range(40), *QUERY_SCENES):
            save_scene(randomize_scene(desk, scene_id), path)
            h.update(path.read_bytes())
            back = load_scene(path)
            for a in (back.centers, back.radii):
                h.update(a.tobytes())
    return h.hexdigest()


def nn_digest() -> str:
    desk = default_desk_randomizer()
    h = hashlib.sha256()
    for scene_id in (*range(40), *QUERY_SCENES):
        h.update(randomize_scene(desk, scene_id).nn_centers.tobytes())
    return h.hexdigest()


def raw_surface_cloud(scene: Scene) -> PointCloud:
    """``scene_surface_cloud``'s draw before it is subsampled."""
    with mock.patch("cfplan.labeling.subsample", lambda cloud, n_points: cloud):
        return scene_surface_cloud(scene)


def subsample_cases():
    rng = np.random.default_rng(7)
    grid = np.stack(np.meshgrid(*[np.arange(12.0)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    lattice = rng.permutation(grid)
    for k in (300, 1000, len(lattice) - 1):
        yield lattice, k
    yield rng.permutation(np.vstack([lattice, lattice])), 1000
    yield rng.permutation(np.repeat(rng.uniform(-1.0, 1.0, size=(40, 3)), 100, axis=0)), 600
    yield np.outer(rng.uniform(-1.0, 1.0, size=3000), [0.3, -0.7, 0.2]) + 0.1, 500
    centres = rng.uniform(-1.0, 1.0, size=(8, 3))
    yield np.repeat(centres, 400, axis=0) + rng.normal(scale=1e-3, size=(3200, 3)), 700
    spread = rng.uniform(-1.0, 1.0, size=(1500, 3))
    yield rng.permutation(np.vstack([spread, np.tile(spread[:1], (1500, 1))])), 800
    yield rng.standard_normal((20000, 3)), 2500
    yield raw_surface_cloud(randomize_scene(default_desk_randomizer(), QUERY_SCENES[0])).points, 600


def subsample_digest() -> str:
    h = hashlib.sha256()
    for points, k in subsample_cases():
        h.update(subsample(PointCloud(points), k).points.tobytes())
    return h.hexdigest()


K = HeuristicKind
#: every heuristic, random agents between others and twice the mixed kinds
MIXED_KINDS = (
    K.RANDOM, K.VELOCITY, K.PATH_LENGTH, K.RANDOM, K.GOAL_VECTOR, K.OBSTACLE_DISTANCE,
    K.PATH_LENGTH_OBSTACLE_DISTANCE, K.RANDOM, K.PATH_LENGTH, K.PATH_LENGTH_OBSTACLE_DISTANCE,
)


def currents_cases():
    """(kinds, agent, x, v, offsets, goal, nn) inputs of ``batch_currents``."""
    rng = np.random.default_rng(15)
    goal = np.array([0.6, 0.1, 0.5])
    committees = [tuple(agent_heuristic(i) for i in range(1, 8)), MIXED_KINDS]
    committees += [(kind,) for kind in HeuristicKind]
    for kinds in committees:
        a = len(kinds)
        patterns = [np.ones(a, dtype=int), rng.integers(0, 4, size=a), rng.integers(0, 4, size=a)]
        if a == len(MIXED_KINDS):
            patterns.append(np.array([0, 2, 3, 0, 1, 2, 3, 0, 1, 2]))  # random agents without rows
        for counts in patterns:
            agent = np.repeat(np.arange(a), counts)
            m = agent.shape[0]
            x = rng.uniform(-1.0, 1.0, (a, 3))
            v = rng.uniform(-1.0, 1.0, (a, 3))
            v[rng.random(a) < 0.3] = 0.0  # velocity currents fall back to d x e_z
            offsets = rng.uniform(-0.3, 0.3, (m, 3))
            if m:
                k = rng.integers(0, m, size=3)
                offsets[k[0]] = 0.0  # the agent sits at the center
                offsets[k[1]] = (0.0, 0.0, -0.2)  # d = e_z: with v = 0, d x e_x
                v[agent[k[1]]] = 0.0
                offsets[k[2]] = -0.5 * v[agent[k[2]]]  # v parallel to d
            for nn in (None, rng.uniform(-1.0, 1.0, (m, 3))):
                if nn is not None and m:
                    nn[rng.integers(0, m)] = x[agent[0]]  # neighbour offset of zero
                yield kinds, agent, x, v, offsets, goal, nn


def forces_cases():
    """(x, v, scene, p, cfg) inputs of ``planner._forces``."""
    rng = np.random.default_rng(16)
    crowd = Scene(
        obstacles=[
            SphereObstacle(c, 0.04)
            for c in [(0.0, 0.12, 0.5), (0.1, -0.1, 0.5), (-0.12, 0.0, 0.55),
                      (0.05, 0.0, 0.68), (0.2, 0.1, 0.45), (-0.05, -0.15, 0.35)]
        ],
        start=(0.0, 0.0, 0.5),
        goal=(0.6, 0.1, 0.5),
        workspace=WorkspaceBounds((-1.0, -1.0, 0.0), (1.0, 1.0, 1.0)),
    )
    on = np.linspace(1.0, 7.0, 7)
    some, other = on * (np.arange(7) % 2), on * (np.arange(7) % 3 != 0)
    off = np.zeros(7)
    gain_sets = [(k_cf, k_r) for k_cf in (on, some, off) for k_r in (on, some, other, off)]
    for scene in (obstruction_scene(), crowd):
        for k_cf, k_r in gain_sets:
            p = np.r_[np.linspace(5.0, 20.0, 7), np.linspace(2.0, 8.0, 7), k_cf * 10.0,
                      np.linspace(0.5, 3.0, 7), k_r * 0.05, 0.3]
            x = scene.start + rng.uniform(-0.15, 0.15, (7, 3))
            x[0] += 2.0  # outside every shell
            x[1] = scene.centers[0] + (0.01, 0.0, 0.0)  # inside a sphere
            x[2] = scene.centers[-1]  # at a center
            v = rng.uniform(-0.6, 0.6, (7, 3))
            v[3] = 0.0
            for jacobian in (None, JACOBIAN):
                yield x, v, scene, p, PlannerConfig(master_seed=2, jacobian=jacobian)


def currents_digest() -> str:
    h = hashlib.sha256()
    for kinds, agent, x, v, offsets, goal, nn in currents_cases():
        normals = [np.zeros((0, 3))] + [
            np.random.default_rng(a).standard_normal((np.count_nonzero(agent == a), 3))
            for a, k in enumerate(kinds)
            if k is K.RANDOM
        ]
        rows = batch_currents(
            _committee_layout(kinds), agent, x, v, offsets, norms(offsets), goal, nn,
            np.concatenate(normals),
        )
        h.update(rows.tobytes())
    for x, v, scene, p, cfg in forces_cases():
        com = Committee.of(p, cfg)
        offsets = x[:, None, :] - scene.centers
        dist = norms(offsets)
        surf = dist - scene.radii
        force = planner._forces(
            x, v, offsets, dist, surf, scene.goal, scene.nn_centers, com,
            RandomRows(com).reader(), cfg.manip_direction,
        )
        h.update(force.tobytes())
    rng = np.random.default_rng(17)
    for scale in (0.1, 1.0, 100.0):
        x, v = rng.standard_normal((2, 7, 3))
        force = scale * rng.standard_normal((7, 3))
        force[0] = (1e300, 0.0, 0.0)  # its squared speed overflows to inf
        force[1] = (np.nan, 0.0, 0.0)  # a NaN speed is never capped
        with np.errstate(over="ignore", invalid="ignore"):
            for a in planner._euler_step(x, v, force, 1.0, 0.01, 1.0):
                h.update(a.tobytes())
    return h.hexdigest()


def six_hump_camel(x: np.ndarray) -> float:
    """Six local minima, two of them global (about -1.0316)."""
    a, b = float(x[0]), float(x[1])
    return (4.0 - 2.1 * a * a + a**4 / 3.0) * a * a + a * b + (4.0 * b * b - 4.0) * b * b


def flat(x: np.ndarray) -> float:
    return 1.0


def camel_left_half(x: np.ndarray) -> float:
    if x[0] > 0.0:
        raise RuntimeError("right half of the box fails")
    return six_hump_camel(x)


def hash_bo(h, result: BoResult) -> None:
    for x, y in result.observations:
        h.update(x.tobytes())
        h.update(np.float64(y).tobytes())
    h.update(result.best_p.tobytes())
    h.update(np.float64(result.best_y).tobytes())


def tuning_digest() -> str:
    h = hashlib.sha256()
    for seed in range(3):
        hash_bo(h, bo_minimize(six_hump_camel, CAMEL_BOX, 8, 48, seed))
    for objective in (flat, camel_left_half):
        hash_bo(h, bo_minimize(objective, CAMEL_BOX, 8, 48, 0))
    tuned, final = tune_scene(
        obstruction_scene(),
        PlannerConfig(**CONFIGS["h20r20"]),
        AgentCostWeights(),
        TrajectoryCostWeights(),
        n_init=4,
        n_iter=4,
        seed=0,
    )
    hash_bo(h, tuned)
    h.update(final.trajectory.positions.tobytes())
    return h.hexdigest()


def main() -> int:
    total = hashlib.sha256()
    for name, scene, p, cfg in cases():
        summary, hexdigest = digest(scene, p, cfg)
        total.update(hexdigest.encode())
        print(f"{name:34s} {summary:35s} {hexdigest[:16]}", flush=True)
    for name, scene, p, cfg in default_cases():
        summary, hexdigest = digest(scene, p, cfg)
        print(f"{name:34s} {summary:35s} {hexdigest[:16]}", flush=True)
    print(f"clouds {clouds_digest()}")
    print(f"tuning {tuning_digest()}")
    print(f"scenes {scenes_digest()}")
    print(f"nn {nn_digest()}")
    print(f"subsample {subsample_digest()}")
    print(f"currents {currents_digest()}")
    print(f"scene-io {scene_io_digest()}")
    print(f"random-rows {random_rows_digest()}")
    print(f"all {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
