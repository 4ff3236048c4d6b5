"""File formats: scene JSON, cloud and trajectory CSV, params JSON, and
16-bit PGM depth images with their JSON sidecars."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from cfplan.io import (
    check_json_numbers,
    json_array,
    load_cloud_csv,
    load_depth_image,
    load_params,
    load_scene,
    load_trajectory_csv,
    save_cloud_csv,
    save_depth_image,
    save_params,
    save_scene,
    save_trajectory_csv,
    scene_from_dict,
    scene_to_dict,
)
from cfplan.planner import Trajectory
from cfplan.scene import (
    DepthImage,
    PointCloud,
    Scene,
    SphereObstacle,
    WorkspaceBounds,
    default_desk_randomizer,
    obstruction_scene,
    randomize_scene,
)


def demo_scene() -> Scene:
    return Scene(
        obstacles=(
            SphereObstacle(center=(0.1, 0.2, 0.3), radius=0.05),
            SphereObstacle(center=(-0.2, 0.0, 0.6), radius=0.08),
        ),
        start=(-0.4, 0.0, 0.5),
        goal=(0.4, 0.1, 0.5),
        workspace=WorkspaceBounds(min=(-1, -1, 0), max=(1, 1, 1)),
    )


class TestCheckJsonNumbers:
    @pytest.mark.parametrize(
        "value",
        [
            1.5,
            [],
            [1, 2.5],
            [[1, 2], [3.0]],
            [{"c": [1, 2, 3], "r": 0.5}, {"c": [4, 5, 6], "r": 1}],
            [1, [2, 3], [[4]]],
            {"a": [{"b": [1.0, {"c": 2}]}], "d": 3},
        ],
    )
    def test_accepts_numbers_at_any_depth(self, value):
        check_json_numbers("v", value)

    @pytest.mark.parametrize("bad", [True, None, "1", False])
    @pytest.mark.parametrize(
        "shape",
        [
            lambda x: x,
            lambda x: [1.0, x],
            lambda x: [[1.0], [2.0, x]],
            lambda x: [{"c": [1, 2, 3], "r": 0.5}, {"c": [4, 5, x], "r": 1}],
            lambda x: [{"c": [1, 2, 3], "r": 0.5}, {"c": [4, 5, 6], "r": x}],
            lambda x: [{"c": [1, 2, 3], "r": 0.5}, {"c": [4, 5, 6], "r": 1, "id": x}],
            lambda x: [1, [2, 3], [[4, x]]],
            lambda x: [1, [2, 3], {"a": x}],
            lambda x: {"a": [{"b": [1.0, {"c": x}]}]},
        ],
    )
    def test_names_a_non_number_at_any_depth(self, shape, bad):
        with pytest.raises(ValueError, match=re.escape(f"v must hold only numbers, got {bad!r}")):
            check_json_numbers("v", shape(bad))


class TestJsonArray:
    @pytest.mark.parametrize(
        "value, shape",
        [([], (-1,)), ([1, 2.5], (-1,)), ([[1, 2, 3]], (-1, 3)), (7, ()), (np.eye(3), (3, -1))],
    )
    def test_accepts_numbers_of_the_shape(self, value, shape):
        arr = json_array("v", value, shape)
        assert arr.dtype == float and np.array_equal(arr, np.asarray(value, dtype=float))

    @pytest.mark.parametrize("shape", [(-1, 3), (-1, 2, 4), (-1, -1)])
    def test_empty_list_with_free_leading_length(self, shape):
        arr = json_array("v", [], shape)
        assert arr.dtype == float and arr.shape == (0, *(max(m, 0) for m in shape[1:]))

    @pytest.mark.parametrize(
        "value, shape, message",
        [
            ([1, "2"], (-1,), "v must hold only numbers, got '2'"),
            ([1, [2, 3]], (-1,), "v does not convert to a float array: setting an array element"),
            ([[1, 2], [3]], (-1, 2), "v does not convert to a float array"),
            ([1, 10**400], (-1,), "v does not convert to a float array: int too large"),
            ([[1, 2]], (-1,), "v must be a float array of shape (n,), got (1, 2)"),
            ([1, 2], (3,), "v must be a float array of shape (3,), got (2,)"),
            ([[1, 2]], (3, -1), "v must be a float array of shape (3, n), got (1, 2)"),
            ([1, float("nan")], (-1,), "v must hold only finite numbers"),
            (np.array([[0.0, np.inf]]), (-1, 2), "v must hold only finite numbers"),
            ([], (3,), "v must be a float array of shape (3,), got (0,)"),
            ([], (3, -1), "v must be a float array of shape (3, n), got (0,)"),
        ],
    )
    def test_rejects_by_name(self, value, shape, message):
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            json_array("v", value, shape)


class TestSceneJson:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "scene.json"
        scene = demo_scene()
        save_scene(scene, path)
        back = load_scene(path)
        assert len(back.obstacles) == 2
        assert np.array_equal(back.start, scene.start)
        assert np.array_equal(back.goal, scene.goal)
        assert back.obstacles[1].radius == 0.08
        assert np.array_equal(back.workspace.min, scene.workspace.min)

    def test_dict_roundtrip_exact(self):
        scene = demo_scene()
        back = scene_from_dict(scene_to_dict(scene))
        assert np.array_equal(back.obstacles[0].center, scene.obstacles[0].center)

    def test_load_rejects_invalid_scene(self, tmp_path):
        path = tmp_path / "bad.json"
        d = scene_to_dict(demo_scene())
        d["start"] = [5.0, 5.0, 5.0]  # outside the workspace
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError):
            load_scene(path)

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all{")
        with pytest.raises(ValueError, match=str(path)):
            load_scene(path)

    @pytest.mark.parametrize(
        "field, value, where",
        [
            ("radius", True, "obstacles"),
            ("center", ["0.1", 0.2, 0.3], "obstacles"),
            ("start", [-0.4, "0", 0.5], "start"),
            ("goal", [0.4, 0.1, None], "goal"),
        ],
    )
    def test_load_rejects_non_numbers(self, tmp_path, field, value, where):
        path = tmp_path / "bad.json"
        d = scene_to_dict(demo_scene())
        if field in ("radius", "center"):
            d["obstacles"][0][field] = value
        else:
            d[field] = value
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError, match=re.escape(f"{path}: {where} must hold only numbers")):
            load_scene(path)


class TestSceneArraysJson:
    @pytest.mark.parametrize("seed", [0, 2, 3173392])
    def test_desk_text_and_arrays_round_trip_exactly(self, tmp_path, seed):
        scene = randomize_scene(default_desk_randomizer(), seed)
        path = tmp_path / "scene.json"
        save_scene(scene, path)
        text = path.read_text(encoding="utf-8")
        # the text of a writer that goes one obstacle object at a time
        by_objects = dict(
            scene_to_dict(scene),
            obstacles=[{"center": o.center.tolist(), "radius": o.radius} for o in scene.obstacles],
        )
        assert text == json.dumps(by_objects, indent=2) + "\n"
        back = load_scene(path)
        for a, b in ((back.centers, scene.centers), (back.radii, scene.radii)):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        save_scene(back, path)
        assert path.read_text(encoding="utf-8") == text

    @pytest.mark.parametrize("which", ["obstruction", "empty", "exponents"])
    def test_text_is_the_json_layout(self, tmp_path, which):
        # the directly formatted text is json.dumps(..., indent=2) byte for
        # byte, on one sphere, none, and floats whose repr needs an exponent
        ws = WorkspaceBounds((-1e-17, -2.0, -0.0), (1.5e16, 2.0, 3.0))
        scene = {
            "obstruction": obstruction_scene,
            "empty": lambda: Scene([], (0.1, 0.2, 0.3), (0.4, 0.5, 0.6), ws),
            "exponents": lambda: Scene(
                [SphereObstacle((1e-17, -0.0, 2.5e-300), 1e-5), SphereObstacle((7e15, 1.0, 1.0), 0.5)],
                (0.5, -1.0, 1e-8),
                (1.0, 1.0, 3.0),
                ws,
            ),
        }[which]()
        path = tmp_path / "scene.json"
        save_scene(scene, path)
        assert path.read_text(encoding="utf-8") == json.dumps(scene_to_dict(scene), indent=2) + "\n"
        assert load_scene(path).centers.tobytes() == scene.centers.tobytes()

    @pytest.mark.parametrize(
        "obstacle",
        [
            {"center": [0.1, 0.2, 0.3], "radius": 0.05, "id": 7},  # an extra number
            {"center": [1, 1, 1], "radius": 1},  # integers
        ],
    )
    def test_other_obstacle_forms_still_load(self, obstacle):
        d = scene_to_dict(demo_scene())
        d["obstacles"][0] = obstacle
        scene = scene_from_dict(d)
        assert np.array_equal(scene.centers[0], np.asarray(obstacle["center"], dtype=float))
        assert scene.radii.tolist() == [float(obstacle["radius"]), 0.08]

    @pytest.mark.parametrize(
        "obstacle, match",
        [
            ({"center": [0.1, float("nan"), 0.3], "radius": 0.05}, "obstacle 1 needs a finite center"),
            ({"center": [0.1, 0.2, 0.3], "radius": 0.0}, "obstacle 1 needs .* positive finite radius"),
            ({"center": [0.1, 0.2, 0.3], "radius": float("inf")}, "obstacle 1 needs"),
            ({"center": [0.1, 0.2], "radius": 0.05}, "inhomogeneous"),
            ({"center": [[0.1, 0.2, 0.3]], "radius": 0.05}, "inhomogeneous"),
            ({"center": [0.1, 0.2, 0.3]}, "malformed scene record"),
            ({"centre": [0.1, 0.2, 0.3], "radius": 0.05}, "malformed scene record"),
            ([0.1, 0.2, 0.3, 0.05], "malformed scene record"),
            ({"center": [0.1, 0.2, 0.3], "radius": [0.05]}, "inhomogeneous"),
            ({"center": [0.1, 0.2, 0.3], "radius": {"r": 0.05}}, "malformed scene record"),
            ({"center": [0.1, 0.2, 0.3], "radius": 10**400}, "malformed scene record"),
            ({"center": [0.1, 0.2, 0.3], "radius": 0.05, "id": "cup"}, "obstacles must hold only numbers"),
        ],
    )
    def test_rejects_bad_obstacles(self, tmp_path, obstacle, match):
        d = scene_to_dict(demo_scene())
        d["obstacles"][1] = obstacle
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError, match=match):
            load_scene(path)

    def test_all_obstacles_of_one_shape_are_checked_as_arrays(self):
        # every center nested one level, or every center of two numbers
        d = scene_to_dict(demo_scene())
        for o in d["obstacles"]:
            o["center"] = [o["center"]]
        assert scene_from_dict(d).centers.tolist() == demo_scene().centers.tolist()
        for o in d["obstacles"]:
            o["center"] = o["center"][0][:2]
        with pytest.raises(ValueError):
            scene_from_dict(d)


class TestCloudCsv:
    def test_roundtrip_exact(self, tmp_path):
        path = tmp_path / "cloud.csv"
        pts = np.array([[0.1, -0.25, 1e-17], [1 / 3, 2 / 7, -5.0]])
        save_cloud_csv(PointCloud(pts), path)
        back = load_cloud_csv(path)
        # repr round-trips doubles exactly
        assert np.array_equal(back.points, pts)

    def test_header(self, tmp_path):
        path = tmp_path / "cloud.csv"
        save_cloud_csv(PointCloud(np.zeros((1, 3))), path)
        assert path.read_text().splitlines()[0] == "x,y,z"

    def test_empty_cloud(self, tmp_path):
        path = tmp_path / "cloud.csv"
        save_cloud_csv(PointCloud(np.zeros((0, 3))), path)
        assert load_cloud_csv(path).points.shape == (0, 3)

    def test_rejects_bad_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,z\n1.0,2.0\n")
        with pytest.raises(ValueError):
            load_cloud_csv(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("nan,0.0,0.0", "rows must hold only finite numbers"),
            ("1.0,inf,0.0", "rows must hold only finite numbers"),
            ("1.0,2.0", "rows does not convert to a float array"),
            ("1.0,2.0,3.0,4.0", "rows"),
            ("1.0,two,3.0", "could not convert string to float"),
        ],
    )
    def test_rejection_names_the_file(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"x,y,z\n0.5,0.5,0.5\n{row}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_cloud_csv(path)

    def test_text_is_each_float_repr(self, tmp_path):
        path = tmp_path / "cloud.csv"
        pts = np.array([[-0.0, 1e-300, 0.1 + 0.2], [1.0, -2.5, 1e16]])
        save_cloud_csv(PointCloud(pts), path)
        assert path.read_text(encoding="utf-8") == (
            "x,y,z\n-0.0,1e-300,0.30000000000000004\n1.0,-2.5,1e+16\n"
        )


class TestTrajectoryCsv:
    def test_roundtrip_exact(self, tmp_path):
        path = tmp_path / "traj.csv"
        traj = Trajectory(
            times=[0.0, 0.01, 0.02],
            positions=np.array([[0, 0, 0], [0.1, 0.2, 0.3], [1 / 3, 0.4, 0.5]]),
            clearances=[1e9, 0.5, -0.001],
        )
        save_trajectory_csv(traj, path)
        back = load_trajectory_csv(path)
        assert np.array_equal(back.times, traj.times)
        assert np.array_equal(back.positions, traj.positions)
        assert np.array_equal(back.clearances, traj.clearances)

    def test_header(self, tmp_path):
        path = tmp_path / "traj.csv"
        traj = Trajectory([0.0], np.zeros((1, 3)), [0.0])
        save_trajectory_csv(traj, path)
        assert path.read_text().splitlines()[0] == "t,x,y,z,clearance"

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("t,x,y,z,clearance\n")
        with pytest.raises(ValueError):
            load_trajectory_csv(path)

    @pytest.mark.parametrize("row", ["0.01,nan,0.0,0.0,0.5", "0.01,0.0,0.0,0.0,-inf"])
    def test_rejects_non_finite_rows(self, tmp_path, row):
        path = tmp_path / "traj.csv"
        path.write_text(f"t,x,y,z,clearance\n0.0,0.0,0.0,0.0,0.5\n{row}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: rows must hold only finite numbers")):
            load_trajectory_csv(path)

    def test_text_is_each_float_repr(self, tmp_path):
        path = tmp_path / "traj.csv"
        traj = Trajectory(
            times=[0.0, 0.1 + 0.2],
            positions=[[-0.0, 1e-300, 0.1 + 0.2], [1.0, 2.0, 3.0]],
            clearances=[1e9, -0.0],
        )
        save_trajectory_csv(traj, path)
        assert path.read_text(encoding="utf-8") == (
            "t,x,y,z,clearance\n"
            "0.0,-0.0,1e-300,0.30000000000000004,1000000000.0\n"
            "0.30000000000000004,1.0,2.0,3.0,-0.0\n"
        )


class TestParamsJson:
    def test_roundtrip_exact(self, tmp_path):
        path = tmp_path / "params.json"
        p = np.array([0.0, 1.5, 200.0, 1 / 3, 0.05])
        save_params(p, path)
        assert np.array_equal(load_params(path), p)

    def test_format_is_flat_array(self, tmp_path):
        path = tmp_path / "params.json"
        save_params(np.array([1.0, 2.0]), path)
        assert json.loads(path.read_text()) == [1.0, 2.0]

    def test_rejects_nested(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text("[[1.0, 2.0]]")
        with pytest.raises(ValueError):
            load_params(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text("oops")
        with pytest.raises(ValueError):
            load_params(path)

    @pytest.mark.parametrize("bad", ['"10"', "true", "null"])
    def test_rejects_non_numbers(self, tmp_path, bad):
        path = tmp_path / "params.json"
        path.write_text(f"[1.0, {bad}, 2.0]")
        with pytest.raises(ValueError, match=re.escape(f"{path}: parameters must hold only numbers")):
            load_params(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[1, [2, 3]]", "parameters does not convert to a float array"),
            ("[1.0, 1" + "0" * 399 + "]", "parameters does not convert to a float array"),
            ("[[1.0, 2.0]]", "parameters must be a float array of shape (n,)"),
            ("[1.0, NaN]", "parameters must hold only finite numbers"),
        ],
        ids=["ragged", "big-integer", "nested", "nan"],
    )
    def test_rejection_names_the_file(self, tmp_path, text, message):
        path = tmp_path / "params.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_params(path)


class TestDepthPgm:
    def image(self) -> DepthImage:
        depths = np.zeros((3, 4))
        depths[1, 2] = 1.234
        depths[0, 0] = 0.001
        depths[2, 3] = 65.535
        return DepthImage(
            depths=depths,
            fx=500.0,
            fy=510.0,
            cx=2.0,
            cy=1.5,
            rotation=np.eye(3),
            translation=(0.1, 0.2, 0.3),
        )

    def test_roundtrip_millimeter_exact(self, tmp_path):
        path = tmp_path / "depth.pgm"
        img = self.image()
        save_depth_image(img, path)
        back = load_depth_image(path)
        assert back.depths.shape == (3, 4)
        # depths quantized to millimeters round-trip exactly
        assert np.array_equal(back.depths, img.depths)
        assert back.fx == 500.0 and back.fy == 510.0
        assert np.array_equal(back.rotation, np.eye(3))
        assert np.array_equal(back.translation, [0.1, 0.2, 0.3])

    def test_file_is_binary_p5(self, tmp_path):
        path = tmp_path / "depth.pgm"
        save_depth_image(self.image(), path)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n4 3\n65535\n")
        assert len(blob) == len(b"P5\n4 3\n65535\n") + 2 * 12

    def test_little_endian_payload(self, tmp_path):
        path = tmp_path / "depth.pgm"
        save_depth_image(self.image(), path)
        blob = path.read_bytes()
        header = len(b"P5\n4 3\n65535\n")
        mm = np.frombuffer(blob[header:], dtype="<u2").reshape(3, 4)
        assert mm[1, 2] == 1234
        assert mm[0, 0] == 1
        assert mm[2, 3] == 65535

    def test_header_comments_tolerated(self, tmp_path):
        path = tmp_path / "depth.pgm"
        save_depth_image(self.image(), path)
        blob = path.read_bytes()
        header = len(b"P5\n4 3\n65535\n")
        commented = b"P5\n# camera 3\n4 3\n# maxval next\n65535\n" + blob[header:]
        path.write_bytes(commented)
        back = load_depth_image(path)
        assert back.depths[1, 2] == pytest.approx(1.234)

    def test_sidecar_override(self, tmp_path):
        path = tmp_path / "depth.pgm"
        save_depth_image(self.image(), path)
        other = tmp_path / "other.json"
        meta = json.loads((tmp_path / "depth.json").read_text())
        meta["fx"] = 999.0
        other.write_text(json.dumps(meta))
        back = load_depth_image(path, sidecar_path=other)
        assert back.fx == 999.0

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "depth.pgm"
        save_depth_image(self.image(), path)
        blob = path.read_bytes()
        path.write_bytes(b"P2" + blob[2:])
        with pytest.raises(ValueError, match="P5"):
            load_depth_image(path)

    def test_rejects_truncated_payload(self, tmp_path):
        path = tmp_path / "depth.pgm"
        save_depth_image(self.image(), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        with pytest.raises(ValueError):
            load_depth_image(path)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("rotation", [[1, 0, 0], [0, float("nan"), 0], [0, 0, 1]], "rotation must hold only"),
            ("rotation", [1, 0, 0, 0, 1, 0, 0, 0, 1], "rotation must be a float array of shape"),
            ("translation", [0, 0, float("inf")], "translation must hold only finite numbers"),
            ("fx", float("nan"), "fx must hold only finite numbers"),
            ("cx", 10**400, "cx does not convert to a float array"),
        ],
        ids=["rotation-nan", "rotation-flat", "translation-inf", "fx-nan", "cx-big-integer"],
    )
    def test_rejects_sidecar_arrays_by_name(self, tmp_path, key, value, message):
        path = tmp_path / "depth.pgm"
        save_depth_image(self.image(), path)
        meta = json.loads((tmp_path / "depth.json").read_text())
        meta[key] = value
        (tmp_path / "depth.json").write_text(json.dumps(meta))  # NaN and Infinity, as json reads them
        sidecar = tmp_path / "depth.json"
        with pytest.raises(ValueError, match=re.escape(f"{sidecar}: bad depth sidecar: {message}")):
            load_depth_image(path)

    @pytest.mark.parametrize("key, value", [("fx", "500"), ("cy", True), ("translation", [0, 0, "1"])])
    def test_rejects_non_numbers_in_sidecar(self, tmp_path, key, value):
        path = tmp_path / "depth.pgm"
        save_depth_image(self.image(), path)
        meta = json.loads((tmp_path / "depth.json").read_text())
        meta[key] = value
        (tmp_path / "depth.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=f"sidecar: {key} must hold only numbers"):
            load_depth_image(path)

    def test_rejects_bad_sidecar(self, tmp_path):
        path = tmp_path / "depth.pgm"
        save_depth_image(self.image(), path)
        (tmp_path / "depth.json").write_text('{"fx": 1.0}')
        with pytest.raises(ValueError, match="sidecar"):
            load_depth_image(path)
