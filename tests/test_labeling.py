"""Dataset construction: surface clouds, per-scene tuning, JSONL round-trips,
and end-to-end determinism on a miniature randomizer."""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

from cfplan import labeling
from cfplan.cost import AgentCostWeights, TrajectoryCostWeights
from cfplan.labeling import (
    CLOUD_SIZE,
    SURFACE_DENSITY,
    LabeledSample,
    build_dataset,
    expand_seeds,
    label_scene,
    label_scene_set,
    load_dataset,
    rejection,
    sample_from_dict,
    sample_to_dict,
    scene_surface_cloud,
    tune_scene,
    write_dataset,
)
from cfplan.params import BoundsBox
from cfplan.planner import PlannerConfig
from cfplan.scene import (
    PointCloud,
    Scene,
    SceneRandomizerConfig,
    SphereObstacle,
    WorkspaceBounds,
    default_desk_randomizer,
    min_surface_distance,
    obstruction_scene,
    randomize_scene,
    scene_arrays,
    subsample,
)
from tests.conftest import easy_scene, empty_scene, narrow_bounds

STORED_DATASET = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "desk_train.jsonl"

AGENT_W = AgentCostWeights()
TRAJ_W = TrajectoryCostWeights()
CHEAP_CFG = PlannerConfig(horizon=10, replan_every=10, max_steps=150)


def blind_bounds(n_agents: int = 7) -> BoundsBox:
    """Attraction-only gains as in ``narrow_bounds``, with a detection radius
    of at most RHO_MIN: inside a sphere the clamped repulsion cancels and the
    circular field is negligible, so every plan drives straight ahead."""
    box = narrow_bounds(n_agents)
    low, high = box.low.copy(), box.high.copy()
    low[-1], high[-1] = 0.0, 1e-6
    return BoundsBox(low, high)


def cloud_reference(scene: Scene, n_points: int, seed: int):
    """The per-sphere loop ``scene_surface_cloud`` replaces by one draw:
    each obstacle draws its own directions, in obstacle order."""
    rng = np.random.default_rng(seed)
    radii = np.array([o.radius for o in scene.obstacles])
    base = SURFACE_DENSITY * 4.0 * np.pi * radii**2
    total = base.sum()
    if total < n_points:
        base *= 1.05 * n_points / total
    chunks = []
    for obstacle, count in zip(scene.obstacles, np.ceil(base).astype(int)):
        raw = rng.standard_normal((int(count), 3))
        norms = np.maximum(np.linalg.norm(raw, axis=1), 1e-12)
        chunks.append(obstacle.center + obstacle.radius * raw / norms[:, None])
    return subsample(PointCloud(np.vstack(chunks)), n_points)


def mixed_radii_scene(seed: int, n: int, r_low: float, r_high: float) -> Scene:
    rng = np.random.default_rng(seed)
    return Scene(
        obstacles=tuple(
            SphereObstacle(center=c, radius=r)
            for c, r in zip(rng.uniform(-3.0, 3.0, size=(n, 3)), rng.uniform(r_low, r_high, size=n))
        ),
        start=(0.0, 0.0, 9.0),
        goal=(0.0, 0.0, -9.0),
        workspace=WorkspaceBounds(min=(-10, -10, -10), max=(10, 10, 10)),
    )


class TestSurfaceCloud:
    # (n spheres, radius range, n_points): the first two draw fewer raw
    # samples than n_points and take the floor, the last two do not
    @pytest.mark.parametrize(
        "n, r_low, r_high, n_points, floored",
        [
            (8, 0.01, 0.08, 500, True),
            (3, 0.02, 0.3, 2500, True),
            (6, 0.2, 0.6, 200, False),
            (12, 0.05, 0.4, 300, False),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_per_sphere_reference(self, n, r_low, r_high, n_points, floored, seed):
        scene = mixed_radii_scene(seed, n, r_low, r_high)
        assert len(set(scene.radii)) == n
        total = (SURFACE_DENSITY * 4.0 * np.pi * scene.radii**2).sum()
        assert (total < n_points) == floored
        cloud = scene_surface_cloud(scene, n_points=n_points, seed=seed)
        assert np.array_equal(cloud.points, cloud_reference(scene, n_points, seed).points)

    def test_exact_count(self):
        cloud = scene_surface_cloud(easy_scene(), n_points=300)
        assert cloud.points.shape == (300, 3)

    def test_default_count(self):
        cloud = scene_surface_cloud(easy_scene())
        assert cloud.points.shape == (CLOUD_SIZE, 3)

    def test_points_on_surfaces(self):
        scene = Scene(
            obstacles=(
                SphereObstacle(center=(0.3, 0.0, 0.5), radius=0.1),
                SphereObstacle(center=(-0.3, 0.2, 0.4), radius=0.07),
            ),
            start=(0.0, -0.8, 0.5),
            goal=(0.0, 0.8, 0.5),
            workspace=WorkspaceBounds(min=(-1, -1, 0), max=(1, 1, 1)),
        )
        cloud = scene_surface_cloud(scene, n_points=200)
        centers, radii = scene_arrays(scene)
        for p in cloud.points:
            assert abs(min_surface_distance(p, centers, radii)) <= 1e-9

    def test_every_obstacle_represented(self):
        scene = Scene(
            obstacles=(
                SphereObstacle(center=(0.3, 0.0, 0.5), radius=0.1),
                SphereObstacle(center=(-0.3, 0.2, 0.4), radius=0.07),
            ),
            start=(0.0, -0.8, 0.5),
            goal=(0.0, 0.8, 0.5),
            workspace=WorkspaceBounds(min=(-1, -1, 0), max=(1, 1, 1)),
        )
        cloud = scene_surface_cloud(scene, n_points=200)
        d0 = np.linalg.norm(cloud.points - np.array([0.3, 0.0, 0.5]), axis=1)
        d1 = np.linalg.norm(cloud.points - np.array([-0.3, 0.2, 0.4]), axis=1)
        assert np.any(np.abs(d0 - 0.1) <= 1e-9)
        assert np.any(np.abs(d1 - 0.07) <= 1e-9)

    def test_empty_scene_zero_points(self):
        cloud = scene_surface_cloud(empty_scene(), n_points=100)
        assert cloud.points.shape == (0, 3)

    @pytest.mark.parametrize("bad", [0, -5, 2.5, 300.0, True, "300"])
    @pytest.mark.parametrize("scene", [easy_scene(), empty_scene()], ids=["easy", "empty"])
    def test_rejects_malformed_n_points(self, scene, bad):
        with pytest.raises(ValueError, match="n_points"):
            scene_surface_cloud(scene, n_points=bad)

    def test_stored_dataset_clouds_reproduce(self):
        # query clouds and stored clouds must come from the same sampler
        desk = default_desk_randomizer()
        samples = load_dataset(STORED_DATASET)
        assert len(samples) == 6
        for s in samples:
            cloud = scene_surface_cloud(randomize_scene(desk, s.scene_id), seed=s.scene_id)
            assert np.array_equal(cloud.points, s.points), s.scene_id

    def test_deterministic_in_seed(self):
        a = scene_surface_cloud(easy_scene(), n_points=150, seed=4)
        b = scene_surface_cloud(easy_scene(), n_points=150, seed=4)
        c = scene_surface_cloud(easy_scene(), n_points=150, seed=5)
        assert np.array_equal(a.points, b.points)
        assert not np.array_equal(a.points, c.points)


class TestExpandSeeds:
    def test_int_base(self):
        assert expand_seeds(4, 10) == [10, 11, 12, 13]

    def test_sequence_passthrough(self):
        assert expand_seeds(3, [5, 9, 2]) == [5, 9, 2]

    def test_wrong_length_raises(self):
        with pytest.raises(ValueError):
            expand_seeds(3, [1, 2])


class TestSerialization:
    def sample(self) -> LabeledSample:
        rng = np.random.default_rng(0)
        return LabeledSample(
            scene_id=7,
            points=rng.uniform(-1, 1, (20, 3)),
            p_star=rng.uniform(0, 10, 36),
            best_cost=1.25,
        )

    def test_dict_has_exactly_four_keys(self):
        d = sample_to_dict(self.sample())
        assert set(d) == {"scene_id", "points", "p_star", "best_cost"}

    def test_roundtrip(self):
        s = self.sample()
        back = sample_from_dict(sample_to_dict(s))
        assert back.scene_id == 7
        assert back.best_cost == 1.25
        assert np.array_equal(back.points, s.points)
        assert np.array_equal(back.p_star, s.p_star)

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "data.jsonl"
        samples = [self.sample(), self.sample()]
        write_dataset(samples, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2
        assert all(set(json.loads(l)) == {"scene_id", "points", "p_star", "best_cost"} for l in lines)
        back = load_dataset(path)
        assert len(back) == 2
        assert np.array_equal(back[0].points, samples[0].points)

    def test_load_rejects_missing_key(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        record = sample_to_dict(self.sample())
        del record["p_star"]
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ValueError, match="bad dataset record"):
            load_dataset(path)

    def test_load_rejects_malformed_points(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        record = sample_to_dict(self.sample())
        record["points"] = [[0.0, 1.0]]  # not (n, 3)
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ValueError):
            load_dataset(path)

    @pytest.mark.parametrize("length", [0, 1, 5, 35, 37])
    def test_load_rejects_bad_p_star_length(self, tmp_path, length):
        path = tmp_path / "bad.jsonl"
        good = sample_to_dict(self.sample())
        bad = dict(good, p_star=[1.0] * length)
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(ValueError, match=f"bad.jsonl:2: p_star: {length} entries, not 5 n"):
            load_dataset(path)

    def test_load_rejects_mixed_agent_counts(self, tmp_path):
        # 36 entries (7 agents), then a valid 11 (2 agents) on line 3
        path = tmp_path / "mixed.jsonl"
        good = sample_to_dict(self.sample())
        other = dict(good, p_star=[1.0] * 11)
        path.write_text("\n".join(json.dumps(r) for r in (good, good, other)) + "\n")
        with pytest.raises(ValueError, match="mixed.jsonl:3: p_star: 11 entries, the first 36"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("scene_id", 3.7, "scene_id must be an integer"),
            ("scene_id", True, "scene_id must be an integer"),
            ("best_cost", "1.25", "best_cost must hold only numbers"),
            ("p_star", ["1.0"] * 36, "p_star must hold only numbers"),
            ("points", [[0.0, 1.0, "2.0"]], "points must hold only numbers"),
            ("points", [[0.0, False, 2.0]], "points must hold only numbers"),
            ("p_star", [[1.0] * 36], "p_star must be a float array of shape (n,), got (1, 36)"),
        ],
    )
    def test_load_rejects_non_numbers(self, tmp_path, key, value, message):
        path = tmp_path / "bad.jsonl"
        good = sample_to_dict(self.sample())
        path.write_text(json.dumps(good) + "\n" + json.dumps(dict(good, **{key: value})) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"bad.jsonl:2: bad dataset record: {message}")):
            load_dataset(path)

    @pytest.mark.parametrize(
        "key, literal",
        [
            ("p_star", "NaN"),
            ("points", "Infinity"),
            ("points", "-Infinity"),
            ("best_cost", "1e999"),
            ("best_cost", "NaN"),
        ],
    )
    def test_load_rejects_non_finite_numbers(self, tmp_path, key, literal):
        # json reads NaN, Infinity and 1e999 as floats; the first 7777.0
        # (no other entry has four integer digits) becomes the literal
        path = tmp_path / "bad.jsonl"
        good = sample_to_dict(self.sample())
        marked = {"p_star": [7777.0] * 36, "points": [[1.0, 7777.0, 2.0]], "best_cost": 7777.0}
        bad = json.dumps(dict(good, **{key: marked[key]})).replace("7777.0", literal, 1)
        path.write_text(json.dumps(good) + "\n" + bad + "\n")
        message = f"bad.jsonl:2: bad dataset record: {key} must hold only finite numbers"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_dataset(path)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("best_cost", 10**400, "bad dataset record: best_cost does not convert to a float array"),
            ("points", [[0.0, 10**400, 1.0]], "bad dataset record: points does not convert"),
            ("p_star", [-5.0] * 36, "p_star: gains must be non-negative"),
            ("p_star", [1.0] * 35 + [-0.1], "p_star: detection radius must be non-negative"),
        ],
        ids=["best_cost-big-integer", "points-big-integer", "negative-gains", "negative-r_d"],
    )
    def test_load_rejects_integers_beyond_floats_and_invalid_params(
        self, tmp_path, key, value, message
    ):
        path = tmp_path / "bad.jsonl"
        good = sample_to_dict(self.sample())
        path.write_text(json.dumps(good) + "\n" + json.dumps(dict(good, **{key: value})) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"bad.jsonl:2: {message}")):
            load_dataset(path)

    def test_load_stored_benchmark_dataset(self):
        samples = load_dataset(STORED_DATASET)
        assert len(samples) == 6
        assert all(s.p_star.shape == (36,) for s in samples)

    def test_load_skips_blank_lines(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(json.dumps(sample_to_dict(self.sample())) + "\n\n")
        assert len(load_dataset(path)) == 1


class TestLabelScene:
    def test_success_packages_sample(self):
        sample, reason = label_scene(
            easy_scene(),
            scene_id=42,
            planner_cfg=CHEAP_CFG,
            agent_weights=AGENT_W,
            traj_weights=TRAJ_W,
            bounds=narrow_bounds(),
            n_init=2,
            n_iter=0,
            seed=1,
        )
        assert sample is not None
        assert sample.scene_id == 42
        assert sample.points.shape == (CLOUD_SIZE, 3)
        assert sample.p_star.shape == (36,)
        assert narrow_bounds().contains(sample.p_star, atol=1e-9)
        assert np.isfinite(sample.best_cost)
        assert reason is None

    def test_unreachable_returns_none(self):
        # too few steps to cover the start-goal distance at the speed cap
        cfg = PlannerConfig(horizon=10, replan_every=10, max_steps=20)
        sample, reason = label_scene(
            easy_scene(),
            scene_id=0,
            planner_cfg=cfg,
            agent_weights=AGENT_W,
            traj_weights=TRAJ_W,
            bounds=narrow_bounds(),
            n_init=2,
            n_iter=0,
            seed=1,
        )
        assert (sample, reason) == (None, "unreached")

    def test_colliding_plan_returns_none(self):
        # the straight line to the goal runs through the obstruction sphere:
        # the plan reaches the goal but must not be stored
        scene = obstruction_scene()
        _, final = tune_scene(
            scene, CHEAP_CFG, AGENT_W, TRAJ_W, blind_bounds(), n_init=2, n_iter=0, seed=1
        )
        assert final.reached and final.min_clearance < 0.0
        assert rejection(final) == "collides"
        sample, reason = label_scene(
            scene,
            scene_id=0,
            planner_cfg=CHEAP_CFG,
            agent_weights=AGENT_W,
            traj_weights=TRAJ_W,
            bounds=blind_bounds(),
            n_init=2,
            n_iter=0,
            seed=1,
        )
        assert (sample, reason) == (None, "collides")


class TestLabelSceneSet:
    def test_summary_schema(self, tmp_path):
        out = tmp_path / "set.jsonl"
        scenes = [easy_scene(), easy_scene()]
        summary = label_scene_set(
            scenes,
            scene_ids=[3, 4],
            seeds=[3, 4],
            planner_cfg=CHEAP_CFG,
            agent_weights=AGENT_W,
            traj_weights=TRAJ_W,
            out_path=out,
            bounds=narrow_bounds(),
            n_init=2,
            n_iter=0,
        )
        assert summary["n_attempted"] == 2
        assert summary["n_succeeded"] == 2
        assert summary["seeds"] == [3, 4]
        assert summary["wall_time_s"] > 0.0
        assert [row["scene_id"] for row in summary["per_scene"]] == [3, 4]
        assert all(row["reached"] for row in summary["per_scene"])
        assert [row["reason"] for row in summary["per_scene"]] == [None, None]
        assert len(load_dataset(out)) == 2

    def test_second_run_replaces_the_file(self, tmp_path):
        out = tmp_path / "set.jsonl"
        for ids in ([3, 4], [5]):
            label_scene_set(
                [easy_scene() for _ in ids],
                scene_ids=ids,
                seeds=ids,
                planner_cfg=CHEAP_CFG,
                agent_weights=AGENT_W,
                traj_weights=TRAJ_W,
                out_path=out,
                bounds=narrow_bounds(),
                n_init=2,
                n_iter=0,
            )
        assert [s.scene_id for s in load_dataset(out)] == [5]

    def test_colliding_scene_rejected_with_reason(self, tmp_path):
        out = tmp_path / "set.jsonl"
        summary = label_scene_set(
            [easy_scene(), obstruction_scene()],
            scene_ids=[0, 1],
            seeds=[1, 1],
            planner_cfg=CHEAP_CFG,
            agent_weights=AGENT_W,
            traj_weights=TRAJ_W,
            out_path=out,
            bounds=blind_bounds(),
            n_init=2,
            n_iter=0,
        )
        rows = summary["per_scene"]
        assert [(row["reached"], row["reason"]) for row in rows] == [
            (True, None),
            (True, "collides"),
        ]
        assert summary["n_succeeded"] == 1
        assert [s.scene_id for s in load_dataset(out)] == [0]

    def test_failures_not_written(self, tmp_path):
        out = tmp_path / "set.jsonl"
        cfg = PlannerConfig(horizon=10, replan_every=10, max_steps=20)
        summary = label_scene_set(
            [easy_scene()],
            scene_ids=[0],
            seeds=[0],
            planner_cfg=cfg,
            agent_weights=AGENT_W,
            traj_weights=TRAJ_W,
            out_path=out,
            bounds=narrow_bounds(),
            n_init=2,
            n_iter=0,
        )
        assert summary["n_succeeded"] == 0
        assert summary["per_scene"][0]["reason"] == "unreached"
        assert not summary["per_scene"][0]["reached"]
        assert load_dataset(out) == []

    def test_progress_callback(self, tmp_path):
        calls = []
        label_scene_set(
            [easy_scene()],
            scene_ids=[9],
            seeds=[9],
            planner_cfg=CHEAP_CFG,
            agent_weights=AGENT_W,
            traj_weights=TRAJ_W,
            out_path=tmp_path / "cb.jsonl",
            bounds=narrow_bounds(),
            n_init=2,
            n_iter=0,
            on_scene=lambda *a: calls.append(a),
        )
        assert calls == [(0, 1, 9, True)]

    @pytest.mark.parametrize("scene_ids, seeds", [([0], [1, 2, 3]), ([0], [1, 2]), ([0, 1], [1])])
    def test_length_mismatch_rejected_before_tuning(self, tmp_path, monkeypatch, scene_ids, seeds):
        tuned = []
        monkeypatch.setattr(labeling, "tune_scene", lambda *a, **k: tuned.append(a))
        out = tmp_path / "mismatch.jsonl"
        with pytest.raises(ValueError, match="2 scenes"):
            label_scene_set(
                [easy_scene(), easy_scene()],
                scene_ids=scene_ids,
                seeds=seeds,
                planner_cfg=CHEAP_CFG,
                agent_weights=AGENT_W,
                traj_weights=TRAJ_W,
                out_path=out,
                n_init=2,
                n_iter=0,
            )
        assert tuned == [] and not out.exists()

    def test_generator_inputs_are_read_once(self, tmp_path):
        summary = label_scene_set(
            (s for s in [easy_scene(), easy_scene()]),
            scene_ids=iter([3, 4]),
            seeds=(s for s in (5, 6)),
            planner_cfg=CHEAP_CFG,
            agent_weights=AGENT_W,
            traj_weights=TRAJ_W,
            out_path=tmp_path / "gen.jsonl",
            bounds=narrow_bounds(),
            n_init=2,
            n_iter=0,
        )
        assert summary["n_attempted"] == 2
        assert summary["seeds"] == [5, 6]
        assert [(row["scene_id"], row["seed"]) for row in summary["per_scene"]] == [(3, 5), (4, 6)]


def mini_randomizer() -> SceneRandomizerConfig:
    return SceneRandomizerConfig(
        workspace=WorkspaceBounds(min=(-0.5, -0.5, 0.0), max=(0.5, 0.5, 1.0)),
        start=(-0.3, 0.0, 0.5),
        goal_region=WorkspaceBounds(min=(0.2, -0.1, 0.4), max=(0.35, 0.1, 0.6)),
        min_count=1,
        max_count=2,
        sphere_radius_range=(0.02, 0.04),
        cuboid_half_range=(0.02, 0.04),
        cylinder_radius_range=(0.02, 0.03),
        cylinder_half_length_range=(0.03, 0.05),
        min_clearance=0.05,
        voxel_radius=0.05,
    )


class TestBuildDataset:
    def test_deterministic_bytes(self, tmp_path):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        summaries = []
        for path in paths:
            summaries.append(
                build_dataset(
                    2,
                    7,
                    mini_randomizer(),
                    CHEAP_CFG,
                    AGENT_W,
                    TRAJ_W,
                    path,
                    bounds=narrow_bounds(),
                    n_init=2,
                    n_iter=1,
                )
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert summaries[0]["seeds"] == [7, 8] == summaries[1]["seeds"]
        assert summaries[0]["n_attempted"] == 2

    def test_scene_ids_are_seeds(self, tmp_path):
        out = tmp_path / "ids.jsonl"
        build_dataset(
            2, 30, mini_randomizer(), CHEAP_CFG, AGENT_W, TRAJ_W, out,
            bounds=narrow_bounds(), n_init=2, n_iter=0,
        )
        ids = [s.scene_id for s in load_dataset(out)]
        assert set(ids).issubset({30, 31})

    def test_rejects_zero_scenes(self, tmp_path):
        with pytest.raises(ValueError):
            build_dataset(
                0, 0, mini_randomizer(), CHEAP_CFG, AGENT_W, TRAJ_W,
                tmp_path / "x.jsonl", n_init=2, n_iter=0,
            )
