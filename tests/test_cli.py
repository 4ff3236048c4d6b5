"""Command line behavior, run in-process: JSON-only stdout, exit codes, and
file side effects."""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np
import pytest

from cfplan import cli, io
from cfplan.cli import main
from cfplan.labeling import LabeledSample, load_dataset, scene_surface_cloud, write_dataset
from cfplan.params import param_dim
from cfplan.scene import default_desk_randomizer, randomize_scene
from tests.conftest import easy_scene, make_params, narrow_bounds, untuned_baseline

STORED_DATASET = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "desk_train.jsonl"


def bounds_json(box) -> dict:
    return {"low": box.low.tolist(), "high": box.high.tolist()}


@pytest.fixture
def cheap_config(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(
        json.dumps(
            {
                "planner": {"horizon": 10, "replan_every": 10, "max_steps": 150},
                "tuner": {"n_init": 2, "n_iter": 0},
                "bounds": bounds_json(narrow_bounds()),
                "randomizer": {
                    "workspace": {"min": [-0.5, -0.5, 0.0], "max": [0.5, 0.5, 1.0]},
                    "start": [-0.3, 0.0, 0.5],
                    "goal_region": {"min": [0.2, -0.1, 0.4], "max": [0.35, 0.1, 0.6]},
                    "fixed_shapes": [],
                    "min_count": 1,
                    "max_count": 2,
                    "sphere_radius_range": [0.02, 0.04],
                    "cuboid_half_range": [0.02, 0.04],
                    "cylinder_radius_range": [0.02, 0.03],
                    "cylinder_half_length_range": [0.03, 0.05],
                    "min_clearance": 0.05,
                },
            }
        )
    )
    return str(path)


def make_dataset(tmp_path) -> str:
    """Four labels for seven agents."""
    rng = np.random.default_rng(0)
    samples = [
        LabeledSample(
            scene_id=i,
            points=rng.uniform(-0.4, 0.4, (50, 3)),
            p_star=make_params(k_p=10.0 + i, k_v=5.0, r_d=0.3),
            best_cost=float(i),
        )
        for i in range(4)
    ]
    path = tmp_path / "d.jsonl"
    write_dataset(samples, path)
    return str(path)


def write_config(tmp_path, base: str, **sections) -> str:
    """The config at ``base`` with the given sections merged in, written
    next to it under another name."""
    config = json.loads(Path(base).read_text(encoding="utf-8"))
    for section, values in sections.items():
        config.setdefault(section, {}).update(values)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(config))
    return str(path)


def five_agent_config(tmp_path, cheap_config) -> str:
    return write_config(
        tmp_path, cheap_config, planner={"n_agents": 5}, bounds=bounds_json(narrow_bounds(5))
    )


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenScenes:
    def test_writes_named_files(self, tmp_path, capsys, cheap_config):
        out = tmp_path / "scenes"
        code, stdout, _ = run_cli(
            capsys, "gen-scenes", "--count", "2", "--seed", "5",
            "--out", str(out), "--config", cheap_config,
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload == {
            "count": 2,
            "seed": 5,
            "files": ["scene_5_0.json", "scene_5_1.json"],
        }
        for name in payload["files"]:
            scene = io.load_scene(out / name)
            assert scene.obstacles

    def test_names_sort_in_the_order_drawn(self, tmp_path, capsys, cheap_config):
        # label visits a directory's scenes in sorted order and gives the
        # i-th stored id i and tuner seed --seed + i
        out = tmp_path / "scenes"
        code, stdout, _ = run_cli(
            capsys, "gen-scenes", "--count", "12", "--out", str(out), "--config", cheap_config,
        )
        assert code == 0
        files = json.loads(stdout)["files"]
        assert files[0] == "scene_0_00.json" and files[-1] == "scene_0_11.json"
        assert sorted(path.name for path in out.glob("*.json")) == files

    def test_deterministic(self, tmp_path, capsys, cheap_config):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run_cli(
                capsys, "gen-scenes", "--count", "1", "--seed", "3",
                "--out", str(out), "--config", cheap_config,
            )
        assert (a / "scene_3_0.json").read_bytes() == (b / "scene_3_0.json").read_bytes()

    def test_zero_count(self, tmp_path, capsys, cheap_config):
        code, stdout, _ = run_cli(
            capsys, "gen-scenes", "--count", "0",
            "--out", str(tmp_path / "s"), "--config", cheap_config,
        )
        assert code == 0
        assert json.loads(stdout)["files"] == []

    @pytest.mark.parametrize(
        "key, value, named",
        [
            ("min_count", "2", "min_count"),
            ("max_count", 3.0, "max_count"),
            ("max_rejections", True, "max_rejections"),
            ("voxel_radius", float("nan"), "voxel_radius"),
            ("min_clearance", float("inf"), "min_clearance"),
            ("sphere_radius_range", [0.02, float("nan")], "sphere_radius_range"),
            ("cuboid_half_range", 0.03, "cuboid_half_range"),
            (
                "fixed_shapes",
                [{"kind": "sphere", "center": [0.0, 0.3, 0.5], "radius": float("nan")}],
                "sphere radius",
            ),
            (
                "fixed_shapes",
                [
                    {
                        "kind": "cylinder",
                        "center": [0.0, 0.3, 0.5],
                        "axis": [0.0, 0.0, 1.0],
                        "radius": 0.04,
                        "half_length": float("inf"),
                    }
                ],
                "cylinder half_length",
            ),
            ("fixed_shapes", [{"kind": "sphere", "center": [0.0, 0.3, 0.5]}], "'radius'"),
            ("fixed_shapes", ["x"], "fixed_shapes"),
            (
                "fixed_shapes",
                [{"kind": "sphere", "center": [0.0, 0.3, 0.5], "radius": 0.04, "axis": [0, 0, 1]}],
                "'axis'",
            ),
        ],
    )
    def test_malformed_randomizer_is_usage_error(
        self, tmp_path, capsys, cheap_config, key, value, named
    ):
        config = json.loads(open(cheap_config, encoding="utf-8").read())
        config["randomizer"][key] = value
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps(config))  # NaN and Infinity, as Python's json reads them
        code, stdout, stderr = run_cli(
            capsys, "gen-scenes", "--count", "1",
            "--out", str(tmp_path / "s"), "--config", str(config_path),
        )
        assert code == 2
        assert stdout == ""
        assert "error:" in stderr and named in stderr
        assert not (tmp_path / "s").exists()

    def test_negative_count_is_usage_error(self, tmp_path, capsys, cheap_config):
        code, stdout, stderr = run_cli(
            capsys, "gen-scenes", "--count", "-1",
            "--out", str(tmp_path / "s"), "--config", cheap_config,
        )
        assert code == 2
        assert stdout == ""
        assert "error:" in stderr


class TestLabel:
    def test_labels_directory(self, tmp_path, capsys, cheap_config):
        scene_dir = tmp_path / "scenes"
        scene_dir.mkdir()
        io.save_scene(easy_scene(), scene_dir / "a.json")
        io.save_scene(easy_scene(), scene_dir / "b.json")
        out = tmp_path / "data.jsonl"
        code, stdout, stderr = run_cli(
            capsys, "label", "--scenes", str(scene_dir), "--out", str(out),
            "--config", cheap_config,
        )
        assert code == 0
        summary = json.loads(stdout)
        assert summary["n_attempted"] == 2
        assert summary["n_succeeded"] == 2
        assert [row["file"] for row in summary["per_scene"]] == ["a.json", "b.json"]
        assert len(load_dataset(out)) == 2
        sidecar = json.loads((tmp_path / "data.jsonl.summary.json").read_text())
        assert sidecar["n_attempted"] == 2
        assert "[1/2]" in stderr  # progress goes to stderr, not stdout

    def test_summary_path_flag(self, tmp_path, capsys, cheap_config):
        scene_dir = tmp_path / "scenes"
        scene_dir.mkdir()
        io.save_scene(easy_scene(), scene_dir / "a.json")
        summary_path = tmp_path / "custom_summary.json"
        code, _, _ = run_cli(
            capsys, "label", "--scenes", str(scene_dir),
            "--out", str(tmp_path / "d.jsonl"),
            "--summary", str(summary_path), "--config", cheap_config,
        )
        assert code == 0
        assert summary_path.exists()

    @pytest.mark.parametrize(
        "sections, message",
        [
            ({"tuner": {"n_init": 1}}, "n_init >= 2"),
            ({"tuner": {"n_iter": -1}}, "n_init >= 2"),
            # cheap_config's bounds hold 36 entries, for seven agents
            ({"planner": {"n_agents": 5}}, "bounds hold 36 entries, but 5 agents need 26"),
        ],
        ids=["n_init-1", "n_iter--1", "n_agents-5"],
    )
    def test_bad_config_fails_before_any_scene_loads(
        self, tmp_path, capsys, cheap_config, monkeypatch, sections, message
    ):
        scene_dir = tmp_path / "scenes"
        scene_dir.mkdir()
        io.save_scene(easy_scene(), scene_dir / "a.json")
        io.save_scene(easy_scene(), scene_dir / "b.json")
        loaded = []
        original = io.load_scene
        monkeypatch.setattr(io, "load_scene", lambda path: loaded.append(path) or original(path))
        code, stdout, stderr = run_cli(
            capsys, "label", "--scenes", str(scene_dir), "--out", str(tmp_path / "d.jsonl"),
            "--config", write_config(tmp_path, cheap_config, **sections),
        )
        assert code == 2
        assert stdout == "" and message in stderr
        assert loaded == []
        assert not (tmp_path / "d.jsonl").exists()

    def test_empty_directory_fails(self, tmp_path, capsys, cheap_config):
        scene_dir = tmp_path / "scenes"
        scene_dir.mkdir()
        code, stdout, stderr = run_cli(
            capsys, "label", "--scenes", str(scene_dir),
            "--out", str(tmp_path / "d.jsonl"), "--config", cheap_config,
        )
        assert code == 2
        assert "no scene files" in stderr


class TestPlan:
    def test_reached_with_params(self, tmp_path, capsys, cheap_config):
        scene_path = tmp_path / "scene.json"
        io.save_scene(easy_scene(), scene_path)
        params_path = tmp_path / "p.json"
        io.save_params(untuned_baseline(), params_path)
        traj_path = tmp_path / "traj.csv"
        svg_path = tmp_path / "plan.svg"
        code, stdout, _ = run_cli(
            capsys, "plan", "--scene", str(scene_path), "--params", str(params_path),
            "--traj", str(traj_path), "--plot", str(svg_path), "--config", cheap_config,
        )
        assert code == 0
        payload = json.loads(stdout)
        assert set(payload) == {
            "reached", "steps_used", "min_clearance", "cost", "best_agent_history",
        }
        assert payload["reached"] is True
        assert payload["steps_used"] > 0
        assert payload["cost"] >= 0.0
        traj = io.load_trajectory_csv(traj_path)
        assert len(traj) == payload["steps_used"] + 1
        assert svg_path.read_text().lstrip().startswith("<svg")

    def test_not_reached_exits_one(self, tmp_path, capsys, cheap_config):
        scene_path = tmp_path / "scene.json"
        io.save_scene(easy_scene(), scene_path)
        params_path = tmp_path / "p.json"
        io.save_params(make_params(), params_path)  # all zeros: no motion
        code, stdout, _ = run_cli(
            capsys, "plan", "--scene", str(scene_path), "--params", str(params_path),
            "--config", cheap_config,
        )
        assert code == 1
        assert json.loads(stdout)["reached"] is False

    def test_infer_source(self, tmp_path, capsys, cheap_config):
        scene = easy_scene()
        scene_path = tmp_path / "scene.json"
        io.save_scene(scene, scene_path)
        cloud = scene_surface_cloud(scene, seed=3)
        dataset = tmp_path / "d.jsonl"
        write_dataset(
            [
                LabeledSample(
                    scene_id=0, points=cloud.points,
                    p_star=untuned_baseline(), best_cost=1.0,
                )
            ],
            dataset,
        )
        code, stdout, _ = run_cli(
            capsys, "plan", "--scene", str(scene_path), "--infer", str(dataset),
            "--config", cheap_config,
        )
        assert code == 0
        assert json.loads(stdout)["reached"] is True

    def test_infer_rejects_labels_for_other_agents(self, tmp_path, capsys, cheap_config):
        scene_path = tmp_path / "scene.json"
        io.save_scene(easy_scene(), scene_path)
        code, stdout, stderr = run_cli(
            capsys, "plan", "--scene", str(scene_path), "--infer", make_dataset(tmp_path),
            "--config", five_agent_config(tmp_path, cheap_config),
        )
        assert code == 2
        assert stdout == ""
        assert "labels are for 7 agents, the config plans for 5" in stderr

    def test_infer_then_params_equals_plan_infer(self, tmp_path, capsys):
        # both commands take one inference step: ``infer`` on the scene's
        # cloud, then ``plan --params``, is ``plan --infer`` byte for byte
        scene_path = tmp_path / "scene.json"
        io.save_scene(randomize_scene(default_desk_randomizer(), 2_000_019), scene_path)
        scene = io.load_scene(scene_path)
        workspace = default_desk_randomizer().workspace
        assert np.array_equal(scene.workspace.min, workspace.min)
        assert np.array_equal(scene.workspace.max, workspace.max)
        cloud_path = tmp_path / "cloud.csv"
        io.save_cloud_csv(scene_surface_cloud(scene, seed=0), cloud_path)
        config_path = tmp_path / "run.json"
        config_path.write_text(
            json.dumps({"planner": {"horizon": 20, "replan_every": 20, "max_steps": 600}})
        )
        config = ("--config", str(config_path))
        params_path = tmp_path / "p.json"
        code, _, _ = run_cli(
            capsys, "infer", "--cloud", str(cloud_path), "--dataset", str(STORED_DATASET),
            "--out", str(params_path), *config,
        )
        assert code == 0
        runs = []
        for source in (("--params", str(params_path)), ("--infer", str(STORED_DATASET))):
            traj_path = tmp_path / f"traj{len(runs)}.csv"
            code, stdout, _ = run_cli(
                capsys, "plan", "--scene", str(scene_path), *source,
                "--traj", str(traj_path), *config,
            )
            runs.append((code, stdout, traj_path.read_bytes()))
        assert runs[0] == runs[1]

    def test_params_and_infer_conflict(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "plan", "--scene", "s.json",
                    "--params", "p.json", "--infer", "d.jsonl",
                ]
            )
        assert exc.value.code == 2

    def test_missing_scene_file(self, tmp_path, capsys, cheap_config):
        params_path = tmp_path / "p.json"
        io.save_params(untuned_baseline(), params_path)
        code, stdout, stderr = run_cli(
            capsys, "plan", "--scene", str(tmp_path / "nope.json"),
            "--params", str(params_path), "--config", cheap_config,
        )
        assert code == 2
        assert stdout == ""
        assert "error:" in stderr

    def test_wrong_param_length(self, tmp_path, capsys, cheap_config):
        scene_path = tmp_path / "scene.json"
        io.save_scene(easy_scene(), scene_path)
        params_path = tmp_path / "p.json"
        io.save_params(np.zeros(5), params_path)
        code, _, stderr = run_cli(
            capsys, "plan", "--scene", str(scene_path), "--params", str(params_path),
            "--config", cheap_config,
        )
        assert code == 2
        assert "expected" in stderr

    def test_non_number_params_are_usage_error(self, tmp_path, capsys, cheap_config):
        scene_path = tmp_path / "scene.json"
        io.save_scene(easy_scene(), scene_path)
        params_path = tmp_path / "p.json"
        params_path.write_text(json.dumps(["10"] + [1.0] * (param_dim(7) - 2) + [True]))
        code, stdout, stderr = run_cli(
            capsys, "plan", "--scene", str(scene_path), "--params", str(params_path),
            "--config", cheap_config,
        )
        assert code == 2
        assert stdout == ""
        assert "parameters must hold only numbers" in stderr

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("planner", "horizon", 10.5),
            ("planner", "horizon", "50"),
            ("planner", "n_agents", 7.0),
            ("planner", "replan_every", True),
            ("planner", "max_steps", 150.0),
            ("planner", "master_seed", "3"),
            ("planner", "dt", "0.01"),
            ("planner", "dt", float("nan")),
            ("planner", "dt", float("inf")),
            ("planner", "mass", float("inf")),
            ("planner", "v_max", float("inf")),
            ("planner", "goal_tolerance", float("inf")),
            ("planner", "mass", float("-inf")),
            ("planner", "v_max", True),
            ("planner", "goal_tolerance", None),
            ("planner", "jacobian", [[float("nan")] * 3] * 3),
            ("planner", "jacobian", [["1.5", True, 0], [0, 1, 0], [0, 0, 1]]),
            ("tuner", "n_init", 8.7),
            ("tuner", "n_iter", "0"),
            ("tuner", "n_init", 1),
            ("tuner", "n_iter", -3),
            (None, "knn_k", 2.5),
            (None, "knn_k", 0),
            ("agent_weights", "obstacle", "0.5"),
            ("agent_weights", "workspace", float("inf")),
            ("trajectory_weights", "clearance", True),
            ("trajectory_weights", "smoothness", float("nan")),
        ],
    )
    def test_malformed_config_is_usage_error(self, tmp_path, capsys, section, key, value):
        scene_path = tmp_path / "scene.json"
        io.save_scene(easy_scene(), scene_path)
        params_path = tmp_path / "p.json"
        io.save_params(untuned_baseline(), params_path)
        config = {"planner": {"horizon": 10, "replan_every": 10, "max_steps": 150}}
        if section is None:
            config[key] = value
        else:
            config.setdefault(section, {})[key] = value
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps(config))
        code, stdout, stderr = run_cli(
            capsys, "plan", "--scene", str(scene_path), "--params", str(params_path),
            "--config", str(config_path),
        )
        assert code == 2
        assert stdout == ""
        assert "error:" in stderr and key in stderr


class TestInfer:
    def test_prints_param_array(self, tmp_path, capsys, cheap_config):
        dataset = make_dataset(tmp_path)
        cloud_path = tmp_path / "cloud.csv"
        rng = np.random.default_rng(1)
        io.save_cloud_csv(
            io.PointCloud(rng.uniform(-0.4, 0.4, (50, 3))), cloud_path
        )
        code, stdout, _ = run_cli(
            capsys, "infer", "--cloud", str(cloud_path), "--dataset", dataset,
            "--config", cheap_config,
        )
        assert code == 0
        p = json.loads(stdout)
        assert len(p) == 36
        assert all(np.isfinite(p))
        # every label's k_p and r_d lie above the config's bounds: the blend is clipped
        assert narrow_bounds().contains(p)

    def test_k_comes_from_config(self, tmp_path, capsys):
        # the default bounds clip no label: k = 1 returns the nearest label,
        # k = 4 blends all four
        dataset = make_dataset(tmp_path)
        labels = [s.p_star.tolist() for s in load_dataset(dataset)]
        cloud_path = tmp_path / "cloud.csv"
        rng = np.random.default_rng(1)
        io.save_cloud_csv(io.PointCloud(rng.uniform(-0.4, 0.4, (50, 3))), cloud_path)
        config_path = tmp_path / "run.json"
        got = []
        for k in (1, 4):
            config_path.write_text(json.dumps({"knn_k": k}))
            code, stdout, _ = run_cli(
                capsys, "infer", "--cloud", str(cloud_path), "--dataset", dataset,
                "--config", str(config_path),
            )
            assert code == 0
            got.append(json.loads(stdout))
        assert got[0] in labels and got[1] not in labels

    def test_out_flag_saves_same_vector(self, tmp_path, capsys, cheap_config):
        dataset = make_dataset(tmp_path)
        cloud_path = tmp_path / "cloud.csv"
        rng = np.random.default_rng(2)
        io.save_cloud_csv(
            io.PointCloud(rng.uniform(-0.4, 0.4, (50, 3))), cloud_path
        )
        out_path = tmp_path / "p.json"
        code, stdout, _ = run_cli(
            capsys, "infer", "--cloud", str(cloud_path), "--dataset", dataset,
            "--out", str(out_path), "--config", cheap_config,
        )
        assert code == 0
        assert np.allclose(io.load_params(out_path), json.loads(stdout))

    @pytest.mark.parametrize("key", ["p_star", "points"])
    def test_non_finite_dataset_is_usage_error(self, tmp_path, capsys, cheap_config, key):
        # NaN in a stored label would otherwise reach stdout as non-JSON NaN
        dataset = Path(make_dataset(tmp_path))
        records = [json.loads(line) for line in dataset.read_text().splitlines()]
        records[1][key][0] = [float("nan")] * 3 if key == "points" else float("inf")
        dataset.write_text("".join(json.dumps(r) + "\n" for r in records))
        cloud_path = tmp_path / "cloud.csv"
        rng = np.random.default_rng(1)
        io.save_cloud_csv(io.PointCloud(rng.uniform(-0.4, 0.4, (50, 3))), cloud_path)
        code, stdout, stderr = run_cli(
            capsys, "infer", "--cloud", str(cloud_path), "--dataset", str(dataset),
            "--config", cheap_config,
        )
        assert code == 2
        assert stdout == ""
        assert f"d.jsonl:2: bad dataset record: {key} must hold only finite numbers" in stderr

    def test_rejects_labels_for_other_agents(self, tmp_path, capsys, cheap_config):
        cloud_path = tmp_path / "cloud.csv"
        io.save_cloud_csv(io.PointCloud(np.zeros((2, 3))), cloud_path)
        code, stdout, stderr = run_cli(
            capsys, "infer", "--cloud", str(cloud_path), "--dataset", make_dataset(tmp_path),
            "--config", five_agent_config(tmp_path, cheap_config),
        )
        assert code == 2
        assert stdout == ""
        assert "labels are for 7 agents, the config plans for 5" in stderr

    def test_empty_dataset(self, tmp_path, capsys, cheap_config):
        dataset = tmp_path / "empty.jsonl"
        dataset.write_text("")
        cloud_path = tmp_path / "cloud.csv"
        io.save_cloud_csv(io.PointCloud(np.zeros((2, 3))), cloud_path)
        code, _, stderr = run_cli(
            capsys, "infer", "--cloud", str(cloud_path), "--dataset", str(dataset),
            "--config", cheap_config,
        )
        assert code == 2
        assert "error:" in stderr


#: a JSON integer beyond the range of a float
BIG = 10**400


def edit_record(**fields):
    return lambda text: json.dumps(dict(json.loads(text.splitlines()[0]), **fields)) + "\n"


def edit_config(**sections):
    def edit(text):
        config = json.loads(text)
        for section, values in sections.items():
            config.setdefault(section, {}).update(values)
        return json.dumps(config)

    return edit


def edit_obstacle(**fields):
    def edit(text):
        scene = json.loads(text)
        scene["obstacles"][0].update(fields)
        return json.dumps(scene)

    return edit


class TestMalformedFiles:
    """A malformed input file is a usage error whose message starts with
    the file's path: exit 2, never a traceback or the exit code of a plan
    that did not reach the goal."""

    COMMANDS = {
        "plan": ("plan", "--scene", "scene.json", "--params", "p.json", "--config", "run.json"),
        "plan-infer": ("plan", "--scene", "scene.json", "--infer", "d.jsonl", "--config", "run.json"),
        "infer": ("infer", "--cloud", "cloud.csv", "--dataset", "d.jsonl", "--config", "run.json"),
        "gen-scenes": ("gen-scenes", "--count", "1", "--out", "scenes", "--config", "run.json"),
    }

    @staticmethod
    def write_inputs(tmp_path) -> None:
        scene = easy_scene()
        io.save_scene(scene, tmp_path / "scene.json")
        io.save_params(untuned_baseline(), tmp_path / "p.json")
        cloud = scene_surface_cloud(scene, n_points=50)
        write_dataset([LabeledSample(0, cloud.points, untuned_baseline(), 1.0)], tmp_path / "d.jsonl")
        io.save_cloud_csv(cloud, tmp_path / "cloud.csv")
        planner = {"horizon": 10, "replan_every": 10, "max_steps": 150}
        (tmp_path / "run.json").write_text(json.dumps({"planner": planner}))

    @pytest.mark.parametrize(
        "name, edit, command, message",
        [
            ("p.json", lambda text: f"[{BIG}]", "plan", "parameters does not convert"),
            ("p.json", lambda text: "[1, [2, 3]]", "plan", "parameters does not convert"),
            ("p.json", lambda text: "[1.0, 2.0]", "plan", "expected 36 parameters, got 2"),
            ("d.jsonl", edit_record(best_cost=BIG), "plan-infer",
             ":1: bad dataset record: best_cost does not convert"),
            ("d.jsonl", edit_record(p_star=[-5.0] * 36), "plan-infer",
             ":1: p_star: gains must be non-negative"),
            ("run.json", edit_config(planner={"dt": BIG}), "plan", "dt must be a finite real"),
            ("run.json", edit_config(planner={"dt": BIG}), "gen-scenes", "dt must be a finite real"),
            ("run.json", edit_config(bounds={"gain_high": BIG}), "gen-scenes", "bounds: int too large"),
            ("run.json", edit_config(planner={"dt": -1}), "plan", "dt must be positive"),
            ("run.json", edit_config(bounds={"r_d_range": [-0.5, 1.0]}), "gen-scenes",
             "bounds must not reach below 0"),
            ("run.json", edit_config(bounds={"low": [0.0] * 36}), "plan", "missing key 'high'"),
            ("scene.json", edit_obstacle(radius=BIG), "plan", "malformed scene record"),
            ("cloud.csv", lambda text: text + "nan,0.0,0.0\n", "infer",
             "rows must hold only finite numbers"),
        ],
        ids=[
            "params-big", "params-ragged", "params-short", "dataset-big-cost",
            "dataset-negative-gains",
            "config-big-dt-plan", "config-big-dt-gen-scenes", "config-big-gain-high",
            "config-negative-dt", "config-negative-low", "config-bounds-without-high",
            "scene-big-radius", "cloud-nan",
        ],
    )
    def test_usage_error_names_the_file(self, tmp_path, capsys, monkeypatch, name, edit, command,
                                        message):
        self.write_inputs(tmp_path)
        path = tmp_path / name
        path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        code, stdout, stderr = run_cli(capsys, *self.COMMANDS[command])
        assert code == 2
        assert stdout == ""
        assert stderr.startswith(f"error: {name}") and message in stderr
        assert not (tmp_path / "scenes").exists()


class TestParser:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_options_of_each_subcommand(self):
        # every other setting of a run, knn_k and the tuner budget included,
        # comes from the run config
        (sub,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        options = {
            name: [o for a in parser._actions for o in a.option_strings if o not in ("-h", "--help")]
            for name, parser in sub.choices.items()
        }
        assert options == {
            "gen-scenes": ["--count", "--seed", "--out", "--config"],
            "label": ["--scenes", "--out", "--seed", "--summary", "--config"],
            "plan": ["--scene", "--params", "--infer", "--traj", "--plot", "--config"],
            "infer": ["--cloud", "--dataset", "--out", "--config"],
        }
