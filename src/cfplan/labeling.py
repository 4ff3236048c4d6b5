"""Dataset generation: tune gains per scene and store (point cloud, gains)
pairs for the nearest-neighbor gain predictor.

Each labeled sample couples a fixed-size surface point cloud of the scene
with the best parameter vector the tuner found and the cost it achieved.
Scenes whose tuned plan still fails to reach the goal, or reaches it only by
driving through a sphere, are skipped rather than stored, so the dataset only
teaches configurations that worked.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from .bo import BoResult, bo_minimize
from .cost import AgentCostWeights, TrajectoryCostWeights, trajectory_cost
from .io import naming
from .params import BoundsBox, agent_count, default_bounds, validate_params
from .planner import PlannerConfig, PlanResult, execute
from .scene import (
    PointCloud,
    Scene,
    SceneRandomizerConfig,
    integer,
    json_array,
    randomize_scene,
    subsample,
)

CLOUD_SIZE = 2500
SURFACE_DENSITY = 400.0  # sample points per square meter of sphere surface


@dataclass(frozen=True)
class LabeledSample:
    scene_id: int
    points: np.ndarray  # (CLOUD_SIZE, 3)
    p_star: np.ndarray  # flat parameter vector
    best_cost: float


def scene_surface_cloud(
    scene: Scene, n_points: int = CLOUD_SIZE, seed: int = 0
) -> PointCloud:
    """Uniform samples of the obstacle sphere surfaces, farthest-point
    subsampled to exactly ``n_points`` (fewer only when the scene is empty).

    The raw draw allocates points per sphere proportional to its area at
    roughly SURFACE_DENSITY per square meter, with a floor that guarantees at
    least ``n_points`` raw samples overall.  One normal draw, filled row by
    row, gives each sphere the directions of one draw per sphere in order.
    """
    integer("n_points", n_points, 1)
    if scene.radii.size == 0:
        return PointCloud(np.zeros((0, 3)))
    rng = np.random.default_rng(seed)
    areas = 4.0 * np.pi * scene.radii**2
    base = SURFACE_DENSITY * areas
    total = base.sum()
    if total < n_points:
        base *= 1.05 * n_points / total
    counts = np.ceil(base).astype(int)
    raw = rng.standard_normal((int(counts.sum()), 3))
    norms = np.maximum(np.linalg.norm(raw, axis=1), 1e-12)
    centers = np.repeat(scene.centers, counts, axis=0)
    radii = np.repeat(scene.radii, counts)
    cloud = PointCloud(centers + radii[:, None] * raw / norms[:, None])
    return subsample(cloud, n_points)


def tune_scene(
    scene: Scene,
    planner_cfg: PlannerConfig,
    agent_weights: AgentCostWeights,
    traj_weights: TrajectoryCostWeights,
    bounds: BoundsBox | None = None,
    *,
    n_init: int,
    n_iter: int,
    seed: int = 0,
) -> tuple[BoResult, PlanResult]:
    """Minimize the trajectory cost of ``execute`` on one scene over the
    parameter vector, then execute the best vector found.

    Returns the tuner's result and the final plan.
    """
    bounds = bounds if bounds is not None else default_bounds(planner_cfg.n_agents)

    def objective(p: np.ndarray) -> float:
        result = execute(scene, p, planner_cfg, agent_weights)
        return trajectory_cost(result.trajectory, scene, traj_weights)

    tuned = bo_minimize(objective, bounds, n_init, n_iter, seed)
    return tuned, execute(scene, tuned.best_p, planner_cfg, agent_weights)


def rejection(final: PlanResult) -> str | None:
    """Why a tuned plan cannot become a label: ``"unreached"`` when it stops
    short of the goal, ``"collides"`` when it touches or enters a sphere
    (min clearance <= 0; the executor clamps penetration and carries on, so
    such a plan can still reach the goal); None for a plan worth storing."""
    if not final.reached:
        return "unreached"
    if final.min_clearance <= 0.0:
        return "collides"
    return None


def label_scene(
    scene: Scene,
    scene_id: int,
    planner_cfg: PlannerConfig,
    agent_weights: AgentCostWeights,
    traj_weights: TrajectoryCostWeights,
    bounds: BoundsBox | None = None,
    *,
    n_init: int,
    n_iter: int,
    seed: int = 0,
) -> tuple[LabeledSample | None, str | None]:
    """Tune the parameter vector for one scene and package the result.

    Returns the sample and None, or None and the reason (see ``rejection``)
    when even the tuned parameters fail to reach the goal or collide on the
    way.
    """
    tuned, final = tune_scene(
        scene, planner_cfg, agent_weights, traj_weights, bounds,
        n_init=n_init, n_iter=n_iter, seed=seed,
    )
    reason = rejection(final)
    if reason is not None:
        return None, reason
    cloud = scene_surface_cloud(scene, seed=seed)
    sample = LabeledSample(
        scene_id=scene_id,
        points=cloud.points,
        p_star=np.asarray(tuned.best_p, dtype=float),
        best_cost=float(tuned.best_y),
    )
    return sample, None


def expand_seeds(n_scenes: int, seeds) -> list[int]:
    """One base seed (int) expands to base..base+n-1; a sequence must hold
    exactly ``n_scenes`` entries."""
    if isinstance(seeds, (int, np.integer)):
        return [int(seeds) + i for i in range(n_scenes)]
    out = [int(s) for s in seeds]
    if len(out) != n_scenes:
        raise ValueError(f"expected {n_scenes} seeds, got {len(out)}")
    return out


def label_scene_set(
    scenes,
    scene_ids,
    seeds,
    planner_cfg: PlannerConfig,
    agent_weights: AgentCostWeights,
    traj_weights: TrajectoryCostWeights,
    out_path,
    bounds: BoundsBox | None = None,
    *,
    n_init: int,
    n_iter: int,
    on_scene=None,
) -> dict:
    """Label every scene in ``scenes``, write the successes to ``out_path``
    as JSON lines, and return a summary dict.  ``scene_ids`` and ``seeds``
    give each scene's stored id and tuner seed; a length mismatch among the
    three raises ValueError before any tuning.

    Each scene's result depends only on its own inputs (scene, id, seed
    and the shared settings), so an ordered pool of workers would write the
    same file as this sequential loop.  ``on_scene`` is an optional
    callback (index, n_scenes, scene_id, stored) for progress reporting.
    Each ``per_scene`` row says whether the tuned plan reached the goal
    and, in ``reason``, why it was not stored (None when it was; see
    ``rejection``)."""
    scenes, scene_ids, seeds = list(scenes), list(scene_ids), list(seeds)
    if not len(scenes) == len(scene_ids) == len(seeds):
        raise ValueError(
            f"{len(scenes)} scenes, {len(scene_ids)} scene ids and {len(seeds)} seeds"
        )
    t0 = time.perf_counter()
    samples = []
    per_scene = []
    for idx, (scene, scene_id, seed) in enumerate(zip(scenes, scene_ids, seeds)):
        t_scene = time.perf_counter()
        sample, reason = label_scene(
            scene, scene_id, planner_cfg, agent_weights, traj_weights, bounds,
            n_init=n_init, n_iter=n_iter, seed=seed,
        )
        if sample is not None:
            samples.append(sample)
        per_scene.append(
            {
                "scene_id": scene_id,
                "seed": seed,
                "reached": reason != "unreached",
                "reason": reason,
                "wall_time_s": time.perf_counter() - t_scene,
            }
        )
        if on_scene is not None:
            on_scene(idx, len(scenes), scene_id, sample is not None)
    write_dataset(samples, out_path)
    return {
        "n_attempted": len(scenes),
        "n_succeeded": len(samples),
        "seeds": seeds,
        "wall_time_s": time.perf_counter() - t0,
        "per_scene": per_scene,
    }


def build_dataset(
    n_scenes: int,
    seeds,
    randomizer: SceneRandomizerConfig,
    planner_cfg: PlannerConfig,
    agent_weights: AgentCostWeights,
    traj_weights: TrajectoryCostWeights,
    out_path,
    bounds: BoundsBox | None = None,
    *,
    n_init: int,
    n_iter: int,
    on_scene=None,
) -> dict:
    """Randomize ``n_scenes`` scenes (one per seed, see ``expand_seeds``),
    label each, write the successes to ``out_path`` as JSON lines (replacing
    any earlier contents), and return a summary dict."""
    if n_scenes < 1:
        raise ValueError("n_scenes must be >= 1")
    seed_list = expand_seeds(n_scenes, seeds)
    scenes = [randomize_scene(randomizer, seed) for seed in seed_list]
    return label_scene_set(
        scenes,
        scene_ids=seed_list,
        seeds=seed_list,
        planner_cfg=planner_cfg,
        agent_weights=agent_weights,
        traj_weights=traj_weights,
        out_path=out_path,
        bounds=bounds,
        n_init=n_init,
        n_iter=n_iter,
        on_scene=on_scene,
    )


def sample_to_dict(sample: LabeledSample) -> dict:
    return {
        "scene_id": int(sample.scene_id),
        "points": np.asarray(sample.points, dtype=float).tolist(),
        "p_star": np.asarray(sample.p_star, dtype=float).tolist(),
        "best_cost": float(sample.best_cost),
    }


def sample_from_dict(d: dict) -> LabeledSample:
    return LabeledSample(
        points=json_array("points", d["points"], (-1, 3)),
        p_star=json_array("p_star", d["p_star"], (-1,)),
        best_cost=float(json_array("best_cost", d["best_cost"], ())),
        scene_id=integer("scene_id", d["scene_id"]),
    )


def write_dataset(samples, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sample in samples:
            fh.write(json.dumps(sample_to_dict(sample)) + "\n")


def load_dataset(path) -> list[LabeledSample]:
    """Read a JSONL dataset.  Raises ValueError naming ``path:line`` for a
    malformed record, a ``p_star`` whose length is not ``5 n + 1`` for some
    n >= 1 agents or differs from the first record's, or one that
    ``validate_params`` refuses."""
    samples = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            with naming(f"{path}:{line_no}: bad dataset record"):
                sample = sample_from_dict(json.loads(line))
            with naming(f"{path}:{line_no}: p_star"):
                dim = sample.p_star.size
                n_agents = agent_count(dim)
                if samples and dim != samples[0].p_star.size:
                    raise ValueError(f"{dim} entries, the first {samples[0].p_star.size}")
                validate_params(sample.p_star, n_agents)
            samples.append(sample)
    return samples
