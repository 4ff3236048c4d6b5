"""Scene geometry: signed distances, depth back-projection, voxel lattices,
primitive decomposition, and the desk randomizer."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfplan import scene as scene_mod
from cfplan.labeling import scene_surface_cloud
from cfplan.scene import (
    FPS_BATCH,
    Cuboid,
    Cylinder,
    DepthImage,
    PlacementFailure,
    PointCloud,
    Scene,
    SceneRandomizerConfig,
    SphereObstacle,
    SphereShape,
    WorkspaceBounds,
    decompose_primitive,
    default_desk_randomizer,
    depth_to_cloud,
    min_surface_distance,
    randomize_scene,
    sample_scene_shapes,
    scene_arrays,
    signed_distance,
    subsample,
    validate_scene,
    voxel_edge,
    voxelize_point_cloud,
)
from cfplan.vec3 import norms

IDENTITY_CAM = dict(
    fx=500.0, fy=500.0, cx=320.0, cy=240.0, rotation=np.eye(3), translation=(0, 0, 0)
)


class TestSignedDistance:
    def test_sphere(self):
        s = SphereShape(center=(0, 0, 0), radius=0.5)
        pts = np.array([[1.0, 0, 0], [0.5, 0, 0], [0.1, 0, 0]])
        assert np.allclose(signed_distance(s, pts), [0.5, 0.0, -0.4], atol=1e-12)

    def test_cuboid_face_edge_inside(self):
        c = Cuboid(center=(0, 0, 0), half_extents=(1.0, 1.0, 1.0))
        pts = np.array(
            [
                [2.0, 0.0, 0.0],   # face: 1 outside
                [2.0, 2.0, 0.0],   # edge: sqrt(2) outside
                [0.5, 0.0, 0.0],   # inside: 0.5 to the nearest face
                [1.0, 1.0, 1.0],   # corner contact
            ]
        )
        expected = [1.0, math.sqrt(2.0), -0.5, 0.0]
        assert np.allclose(signed_distance(c, pts), expected, atol=1e-12)

    def test_cylinder_side_cap_inside(self):
        cyl = Cylinder(center=(0, 0, 0), axis=(0, 0, 1), radius=0.5, half_length=1.0)
        pts = np.array(
            [
                [1.5, 0.0, 0.0],   # radially 1 outside
                [0.0, 0.0, 2.0],   # axially 1 outside
                [1.5, 0.0, 2.0],   # rim corner: sqrt(2) outside
                [0.0, 0.0, 0.0],   # inside: 0.5 to the wall
            ]
        )
        expected = [1.0, 1.0, math.sqrt(2.0), -0.5]
        assert np.allclose(signed_distance(cyl, pts), expected, atol=1e-12)

    def test_tilted_cylinder(self):
        cyl = Cylinder(center=(0, 0, 0), axis=(1, 0, 0), radius=0.2, half_length=0.5)
        d = signed_distance(cyl, np.array([[0.0, 0.7, 0.0]]))
        assert np.allclose(d, [0.5], atol=1e-12)

    @given(
        x=st.floats(-2, 2), y=st.floats(-2, 2), z=st.floats(-2, 2),
    )
    def test_lipschitz_vs_surface(self, x, y, z):
        # |sdf| never exceeds the true distance to any surface point sample
        c = Cuboid(center=(0.1, -0.2, 0.3), half_extents=(0.4, 0.3, 0.5))
        p = np.array([[x, y, z]])
        d = float(signed_distance(c, p)[0])
        corner = np.array([0.1 + 0.4, -0.2 + 0.3, 0.3 + 0.5])
        assert abs(d) <= np.linalg.norm(p[0] - corner) + 1e-9


class TestMinSurfaceDistance:
    def test_empty_is_infinite(self):
        assert min_surface_distance(
            (0, 0, 0), np.zeros((0, 3)), np.zeros(0)
        ) == math.inf

    def test_nearest_wins(self):
        centers = np.array([[1.0, 0, 0], [0, 2.0, 0]])
        radii = np.array([0.25, 1.5])
        assert min_surface_distance((0, 0, 0), centers, radii) == pytest.approx(0.5)

    def test_negative_when_inside(self):
        centers = np.array([[0.0, 0, 0]])
        radii = np.array([1.0])
        assert min_surface_distance((0.25, 0, 0), centers, radii) == pytest.approx(-0.75)


def nn_reference(centers: np.ndarray) -> np.ndarray:
    """The chunked O(n^2) search behind ``Scene.nearest_other_centers``:
    every center's squared distance to every other, lowest index on ties."""
    n = centers.shape[0]
    chunk = 64  # bounds the (chunk, n, 3) difference block
    nearest = np.empty(n, dtype=np.int64)
    for s in range(0, n, chunk):
        block = centers[s : s + chunk]
        d2 = ((block[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        rows = np.arange(block.shape[0])
        d2[rows, s + rows] = np.inf
        nearest[s : s + chunk] = d2.argmin(axis=1)
    return centers[nearest]


def all_nearest(scene: Scene) -> np.ndarray | None:
    """``Scene.nearest_other_centers`` of every obstacle, in index order."""
    return scene.nearest_other_centers(np.arange(scene.radii.size))


def spheres_scene(centers, radii) -> Scene:
    return Scene(
        obstacles=[SphereObstacle(c, r) for c, r in zip(centers, radii)],
        start=(9.0, 9.0, 9.0),
        goal=(9.5, 9.0, 9.0),
        workspace=WorkspaceBounds(min=(-10, -10, -10), max=(10, 10, 10)),
    )


class TestSceneArrays:
    @pytest.mark.parametrize("seed", [0, 3173392])
    def test_desk_nn_centers_match_reference(self, seed):
        scene = randomize_scene(default_desk_randomizer(), seed)
        assert np.array_equal(all_nearest(scene), nn_reference(scene.centers))

    def test_nn_centers_with_coincident_centers(self):
        centers = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 0, 0], [0.5, 0, 0], [1.0, 0, 0]])
        scene = spheres_scene(centers, [0.1] * 5)
        assert np.array_equal(all_nearest(scene), nn_reference(centers))

    def test_nn_centers_match_brute_force_with_ties(self):
        # lattice spacing 0.25 makes the squared distances exact, so most
        # spheres have several equally near neighbours; the lowest index wins
        cells = np.stack(
            np.meshgrid(np.arange(3), np.arange(3), np.arange(2), indexing="ij"), axis=-1
        )
        centers = 0.25 * cells.reshape(-1, 3)
        scene = Scene(
            obstacles=[SphereObstacle(c, 0.1) for c in centers],
            start=(2.0, 2.0, 2.0),
            goal=(2.5, 2.0, 2.0),
            workspace=WorkspaceBounds(min=(-1, -1, -1), max=(3, 3, 3)),
        )
        want = []
        for i, c in enumerate(centers):
            best_j, best_d2 = -1, math.inf
            for j, other in enumerate(centers):
                d2 = float(((c - other) ** 2).sum())
                if j != i and d2 < best_d2:
                    best_j, best_d2 = j, d2
            want.append(centers[best_j])
        assert np.array_equal(all_nearest(scene), np.array(want))

    @pytest.mark.parametrize("case", ["9 coincident", "17 coincident", "12 equidistant", "n < NN_K"])
    def test_nn_centers_with_tie_sets_wider_than_the_first_query(self, case):
        # tie sets of 9, 17 and 12 centers, and a scene of four: the lowest
        # score, then the lowest index, wins
        rng = np.random.default_rng(4)
        far = 0.25 * rng.integers(-8, 8, size=(10, 3)) + 4.0
        if case.endswith("coincident"):
            copies = int(case.split()[0])
            centers = np.vstack([np.tile([0.5, 0.25, 0.0], (copies, 1)), [[0.5, 0.75, 0.0]], far])
        elif case == "12 equidistant":
            # a cuboctahedron's center and vertices: every vertex is as far
            # from the center as from its four neighbouring vertices
            signs = [(a, b) for a in (-1.0, 1.0) for b in (-1.0, 1.0)]
            vertices = [np.roll((a, b, 0.0), shift) for a, b in signs for shift in range(3)]
            centers = np.vstack([np.zeros((1, 3)), 0.25 * np.array(vertices), far])
        else:
            centers = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [-0.5, 0.0, 0.0], [0.0, 0.5, 0.0]])
        centers = rng.permutation(centers)
        scene = spheres_scene(centers, [0.01] * len(centers))
        assert all_nearest(scene).tobytes() == nn_reference(centers).tobytes()

    def test_arrays_are_shared_and_read_only(self):
        scene = Scene(
            obstacles=(SphereObstacle(center=(0, 0, 0.5), radius=0.3),),
            start=(0.5, 0.5, 0.5),
            goal=(-0.5, 0.5, 0.5),
            workspace=WorkspaceBounds(min=(-1, -1, 0), max=(1, 1, 1)),
        )
        centers, radii = scene_arrays(scene)
        assert centers is scene.centers and radii is scene.radii
        assert scene.nearest_other_centers([0]) is None
        with pytest.raises(ValueError):
            centers[0, 0] = 1.0

    def test_from_arrays_copies_and_matches_the_object_constructor(self):
        desk = randomize_scene(default_desk_randomizer(), 0)
        centers, radii = np.array(desk.centers), np.array(desk.radii)
        scene = Scene.from_arrays(centers, radii, desk.start, desk.goal, desk.workspace)
        centers[0] = 9.0  # the scene holds its own copy
        by_objects = Scene(desk.obstacles, desk.start, desk.goal, desk.workspace)
        for a in (scene, by_objects):
            assert a.centers.tobytes() == desk.centers.tobytes()
            assert a.radii.tobytes() == desk.radii.tobytes()
            assert not a.centers.flags.writeable and not a.radii.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            scene.centers = centers

    def test_obstacles_are_built_on_access(self):
        scene = spheres_scene([(0.1, 0.2, 0.3), (0.4, 0.5, 0.6)], [0.05, 0.08])
        first, again = scene.obstacles, scene.obstacles
        assert first[1] is not again[1] and "obstacles" not in vars(scene)
        assert [o.center.tolist() for o in first] == scene.centers.tolist()
        assert [o.radius for o in first] == [0.05, 0.08]
        assert spheres_scene([], []).obstacles == ()

    @pytest.mark.parametrize(
        "centers, radii, match",
        [
            (np.zeros((2, 3)), np.full(3, 0.1), "must be"),
            (np.zeros(3), np.full(1, 0.1), "must be"),
            ([[0.0, 0.0, 0.0], [0.0, np.nan, 0.0]], [0.1, 0.1], "obstacle 1"),
            ([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], [0.1, 0.0], "obstacle 1"),
            ([[0.0, 0.0, 0.0]], [np.inf], "obstacle 0"),
            ([[0.0, 0.0, 0.0]], [-0.1], "obstacle 0"),
        ],
    )
    def test_from_arrays_rejects_bad_spheres(self, centers, radii, match):
        ws = WorkspaceBounds(min=(-1, -1, -1), max=(1, 1, 1))
        with pytest.raises(ValueError, match=match):
            Scene.from_arrays(centers, radii, (0.5, 0.5, 0.5), (-0.5, 0.5, 0.5), ws)

    def test_desk_scenes_build_no_sphere_objects(self, monkeypatch, tmp_path):
        from cfplan.io import load_scene, save_scene

        def refuse(self):
            raise AssertionError("a SphereObstacle was built")

        monkeypatch.setattr(SphereObstacle, "__post_init__", refuse)
        with pytest.raises(AssertionError):
            SphereObstacle((0.0, 0.0, 0.0), 0.1)
        for seed in (0, 2):  # seed 2 draws a collapsed small sphere
            scene = randomize_scene(default_desk_randomizer(), seed)
            save_scene(scene, tmp_path / "scene.json")
            back = load_scene(tmp_path / "scene.json")
            again = Scene.from_arrays(back.centers, back.radii, back.start, back.goal, back.workspace)
            assert again.centers.tobytes() == scene.centers.tobytes()


@st.composite
def neighbour_cases(draw):
    """A scene, rows, a travel budget and a reach.  Lattice centers at a
    spacing of 0.25 give exact distance ties; some rows sit exactly on
    centers, and the rows may start far apart."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    if draw(st.booleans()):
        cells = rng.choice(6**3, size=min(n, 6**3), replace=False)
        centers = 0.25 * np.stack(np.unravel_index(cells, (6, 6, 6)), axis=1).astype(float)
    else:
        centers = rng.uniform(0.0, 1.5, size=(n, 3))
    radii = rng.choice([0.05, 0.1, 0.2], size=centers.shape[0])
    if draw(st.booleans()):
        radii = np.full(centers.shape[0], 0.1)
    k = draw(st.integers(1, 4))
    rows = rng.uniform(-0.2, 1.7, size=(k, 3))
    on_center = rng.random(k) < 0.4
    rows[on_center] = centers[rng.integers(0, centers.shape[0], size=on_center.sum())]
    travel = draw(st.sampled_from([0.0, 0.01, 0.1, 0.5]))
    reach = draw(st.sampled_from([-math.inf, 0.0, 0.05, 0.3]))
    return spheres_scene(centers, radii), rows, travel, reach, rng


def assert_lists_every_needed(scene, rows, travel, reach, rng) -> None:
    """``scene.neighbour_list(rows, travel, reach)`` is ascending and holds,
    for points up to ``travel`` from every row (the rows included), every
    obstacle attaining a point's least surface distance and every obstacle
    whose surface lies within ``reach`` of a point: a brute-force scan."""
    near = scene.neighbour_list(rows, travel, reach)
    assert np.all(np.diff(near) > 0)
    listed = np.zeros(scene.radii.shape[0], dtype=bool)
    listed[near] = True
    step = rng.standard_normal((rows.shape[0], 30, 3))
    step *= travel * rng.random((rows.shape[0], 30, 1)) / norms(step)[..., None]
    points = np.concatenate([rows, (rows[:, None, :] + step).reshape(-1, 3)])
    surf = norms(points[:, None, :] - scene.centers) - scene.radii
    assert np.all(listed[(surf == surf.min(axis=1, keepdims=True)).any(axis=0)])
    assert np.all(listed[(surf <= reach).any(axis=0)])


class TestNeighbourList:
    @given(neighbour_cases())
    @settings(max_examples=150)
    def test_list_holds_every_minimizer_and_shell_pair(self, case):
        assert_lists_every_needed(*case)

    def test_larger_sphere_behind_the_nearest_center(self):
        # the nearest center (1.0 m) belongs to a small sphere; the large one
        # farther out (1.3 m) has the nearest surface
        scene = spheres_scene([(1.0, 0, 0), (0, 1.3, 0), (0, 0, 3.0)], [0.05, 0.5, 0.5])
        assert scene.neighbour_list(np.zeros((1, 3)), 0.0).tolist() == [0, 1]

    def test_minimizer_one_ulp_beyond_the_rounded_bound(self):
        # both spheres attain the least surface distance (0.654...), but
        # the second center lies one ulp beyond d_nn + (r_max - r_min) as
        # rounded: without the slack the list drops it
        a, b = 0.7241326847726234, 0.8241326847726235
        scene = spheres_scene([(a, 0, 0), (-b, 0, 0), (0, 0, 5.0)], [0.07, 0.17, 0.1])
        assert b == np.nextafter(a + (0.17 - 0.07), 1.0)
        surf = norms(-scene.centers) - scene.radii
        assert surf[0] == surf[1] < surf[2]
        assert scene.neighbour_list(np.zeros((1, 3)), 0.0).tolist() == [0, 1]

    def test_row_equidistant_from_lattice_centers(self):
        # a row at the same distance from several lattice centers: the
        # surface distances the planner takes round unlike the list's center
        # distances, and the list must still hold every tied minimizer
        cells = np.stack(np.meshgrid(*[np.arange(4)] * 3, indexing="ij"), axis=-1)
        centers = 0.07 * cells.reshape(-1, 3) + 0.7
        scene = spheres_scene(centers, [0.05] * len(centers))
        x0 = (centers[17] + centers[52]) / 2.0
        surf = norms(x0 - scene.centers) - scene.radii
        want = np.nonzero(surf == surf.min())[0]
        assert set(want) <= set(scene.neighbour_list(x0[None], 0.0).tolist())

    def test_one_sphere(self):
        scene = spheres_scene([(0.0, 0.0, 0.0)], [0.1])
        assert scene.neighbour_list(np.array([[5.0, 0, 0]]), 0.0).tolist() == [0]

    def test_empty_scene(self):
        scene = spheres_scene([], [])
        assert scene.neighbour_list(np.zeros((2, 3)), 1.0, 0.3).size == 0

    def test_desk_list_is_short(self):
        # a 20-step rollout at 1 m/s lists a small share of a desk scene
        scene = randomize_scene(default_desk_randomizer(), 0)
        near = scene.neighbour_list(scene.start[None], 0.2, 0.3)
        assert 0 < near.size < scene.radii.shape[0] // 4


class TestDepthToCloud:
    def test_principal_point(self):
        depths = np.zeros((480, 640))
        depths[240, 320] = 1.0
        cloud = depth_to_cloud(DepthImage(depths=depths, **IDENTITY_CAM))
        assert cloud.points.shape == (1, 3)
        assert np.allclose(cloud.points[0], [0.0, 0.0, 1.0], atol=1e-12)

    def test_off_axis_pixel(self):
        depths = np.zeros((480, 840))
        depths[240, 820] = 2.0
        cloud = depth_to_cloud(DepthImage(depths=depths, **IDENTITY_CAM))
        assert np.allclose(cloud.points[0], [2.0, 0.0, 2.0], atol=1e-12)

    def test_invalid_pixels_dropped(self):
        depths = np.zeros((4, 4))
        depths[1, 1] = -0.5
        depths[2, 2] = 0.8
        cloud = depth_to_cloud(DepthImage(depths=depths, **IDENTITY_CAM))
        assert cloud.points.shape == (1, 3)

    def test_extrinsics_applied(self):
        depths = np.zeros((480, 640))
        depths[240, 320] = 1.0
        # rotate camera z onto base x, then shift
        rot = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        img = DepthImage(
            depths=depths, fx=500.0, fy=500.0, cx=320.0, cy=240.0,
            rotation=rot, translation=(0.1, 0.2, 0.3),
        )
        assert np.allclose(depth_to_cloud(img).points[0], [1.1, 0.2, 0.3], atol=1e-12)


def fps_reference(cloud: PointCloud, n_points: int) -> PointCloud:
    """The brute-force loop ``subsample`` prunes: every pick recomputes the
    distance of every point to it."""
    pts = cloud.points
    n = pts.shape[0]
    if n <= n_points:
        return PointCloud(pts.copy())
    centroid = pts.mean(axis=0)
    first = int(np.argmin(np.linalg.norm(pts - centroid, axis=1)))
    chosen = np.empty(n_points, dtype=int)
    chosen[0] = first
    dist = np.linalg.norm(pts - pts[first], axis=1)
    for i in range(1, n_points):
        nxt = int(np.argmax(dist))
        chosen[i] = nxt
        np.minimum(dist, np.linalg.norm(pts - pts[nxt], axis=1), out=dist)
    return PointCloud(pts[chosen])


def _fps_clouds() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(11)
    grid = np.stack(np.meshgrid(*[np.arange(6.0)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    return {
        "uniform": rng.uniform(-1.0, 1.0, size=(400, 3)),
        # exact distance ties everywhere, in an order where the lowest index
        # is not the first lattice point
        "lattice": rng.permutation(grid),
        # the same lattice at a spacing that rounds, so ties become near-ties
        "lattice_scaled": rng.permutation(grid) * 0.1 + 0.3,
        # 20 distinct points four times over: r reaches 0 after 20 picks
        "duplicates": rng.permutation(np.repeat(rng.uniform(-1.0, 1.0, size=(20, 3)), 4, axis=0)),
        "collinear": np.outer(rng.uniform(-1.0, 1.0, size=300), [0.3, -0.7, 0.2]) + 0.1,
    }


FPS_CLOUDS = _fps_clouds()


def _batch_clouds() -> dict[str, tuple[np.ndarray, tuple[int, ...]]]:
    """Clouds larger than FPS_BATCH, each with the sizes it is subsampled to."""
    rng = np.random.default_rng(12)
    grid = np.stack(np.meshgrid(*[np.arange(12.0)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    lattice = rng.permutation(grid)
    return {
        # exact ties at tau
        "lattice12": (lattice, (300, 1000, len(lattice) - 1)),
        # every distance at least twice: the top values tie, so tau falls to
        # the largest value below the maximum
        "lattice12_twice": (rng.permutation(np.vstack([lattice, lattice])), (300, 1000)),
        # 40 distinct points a hundred times over: r reaches 0 after 40 picks
        "copies": (
            rng.permutation(np.repeat(rng.uniform(-1.0, 1.0, size=(40, 3)), 100, axis=0)),
            (600,),
        ),
        "gaussian": (rng.standard_normal((20000, 3)), (2500,)),
    }


BATCH_CLOUDS = _batch_clouds()


class TestSubsample:
    @pytest.mark.parametrize("name", sorted(FPS_CLOUDS))
    @pytest.mark.parametrize("which", ["1", "2", "third", "n-1", "n"])
    def test_matches_brute_force_reference(self, name, which):
        cloud = PointCloud(FPS_CLOUDS[name])
        n = len(cloud)
        k = {"1": 1, "2": 2, "third": n // 3, "n-1": n - 1, "n": n}[which]
        assert np.array_equal(subsample(cloud, k).points, fps_reference(cloud, k).points)

    @settings(max_examples=40, deadline=None)
    @given(
        cells=st.lists(st.tuples(*[st.integers(0, 3)] * 3), min_size=2, max_size=60),
        scale=st.sampled_from([1.0, 0.1, 1e-3]),
        frac=st.floats(0.0, 1.0),
    )
    def test_small_integer_clouds_match_reference(self, cells, scale, frac):
        # coordinates on a 4^3 lattice: exact ties and duplicated points
        cloud = PointCloud(np.array(cells, dtype=float) * scale)
        k = 1 + int(frac * (len(cloud) - 1))
        assert np.array_equal(subsample(cloud, k).points, fps_reference(cloud, k).points)

    @pytest.mark.parametrize(
        "name, k", [(name, k) for name, (_, ks) in BATCH_CLOUDS.items() for k in ks]
    )
    def test_batches_match_brute_force_reference(self, name, k):
        cloud = PointCloud(BATCH_CLOUDS[name][0])
        assert len(cloud) > FPS_BATCH
        assert np.array_equal(subsample(cloud, k).points, fps_reference(cloud, k).points)

    def test_desk_cloud_matches_reference(self, monkeypatch):
        # the surface cloud's raw draw of an unseen desk scene, not subsampled
        monkeypatch.setattr("cfplan.labeling.subsample", lambda cloud, n_points: cloud)
        cloud = scene_surface_cloud(randomize_scene(default_desk_randomizer(), 3))
        assert np.array_equal(subsample(cloud, 600).points, fps_reference(cloud, 600).points)

    def test_batches_make_several_picks(self, monkeypatch):
        # the picks after the whole-cloud passes come in far fewer batches,
        # one ball query each, than picks
        batches = []
        ball_pairs = scene_mod._ball_pairs

        def spy(grid, points, radius):
            batches.append(len(points))
            return ball_pairs(grid, points, radius)

        monkeypatch.setattr(scene_mod, "_ball_pairs", spy)
        subsample(PointCloud(BATCH_CLOUDS["gaussian"][0]), 2500)
        assert max(batches) > 1
        assert len(batches) < sum(batches) / 10

    def test_starts_nearest_centroid(self):
        pts = np.array([[0.0, 0, 0], [10.0, 0, 0], [5.2, 0, 0], [4.0, 0, 0]])
        out = subsample(PointCloud(pts), 2)
        # centroid x=4.8, nearest is 5.2; farthest from it is 0.0
        assert np.allclose(out.points[0], [5.2, 0, 0])
        assert np.allclose(out.points[1], [0.0, 0, 0])

    def test_small_cloud_passthrough(self):
        pts = np.array([[1.0, 2, 3], [4.0, 5, 6]])
        out = subsample(PointCloud(pts), 10)
        assert np.array_equal(out.points, pts)

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1, 1, size=(300, 3))
        a = subsample(PointCloud(pts), 40)
        b = subsample(PointCloud(pts), 40)
        assert np.array_equal(a.points, b.points)

    def test_spread_beats_random_pick(self):
        # FPS of a segment must span almost its full extent
        pts = np.stack([np.linspace(0, 1, 500), np.zeros(500), np.zeros(500)], axis=1)
        out = subsample(PointCloud(pts), 20)
        assert out.points[:, 0].max() - out.points[:, 0].min() > 0.9

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            subsample(PointCloud(np.zeros((3, 3))), 0)

    @pytest.mark.parametrize("bad", [-1, 2.5, 2.0, True, False, "2", None, np.float64(2.0)])
    def test_rejects_malformed_n_points(self, bad):
        with pytest.raises(ValueError, match="n_points"):
            subsample(PointCloud(np.arange(30.0).reshape(10, 3)), bad)

    def test_accepts_numpy_integer(self):
        cloud = PointCloud(np.arange(30.0).reshape(10, 3))
        assert np.array_equal(subsample(cloud, np.int64(4)).points, subsample(cloud, 4).points)


def _stress_clouds() -> dict[str, np.ndarray]:
    """Clouds at the edges of the cell grid's arithmetic, each large enough
    for batched picks."""
    rng = np.random.default_rng(23)
    tight = rng.normal(0.0, 1e-3, size=(2, 1000, 3))
    return {
        # coordinates near 1e6 m, where a metre holds 2^32 steps of rounding
        "offset 1e6": rng.standard_normal((3000, 3)) * 0.2 + 1e6,
        # 1e4 m wide: the cell edge follows the extent, so keys stay small
        "two clusters 1e4 apart": np.vstack([tight[0], tight[1] + (1e4, -5e3, 2e3)]),
        "coincident": np.full((2000, 3), 0.3),
        # 400 points 8 times over, far out: tau reaches 0 after 400 picks
        "copies near 1e6": rng.permutation(np.repeat(rng.uniform(-1.0, 1.0, (400, 3)), 8, axis=0)) + 1e6,
    }


STRESS_CLOUDS = _stress_clouds()


class TestCellGrid:
    @pytest.mark.parametrize("name", sorted(STRESS_CLOUDS))
    def test_subsample_matches_reference(self, name):
        cloud = PointCloud(STRESS_CLOUDS[name])
        for k in (300, 700):
            assert np.array_equal(subsample(cloud, k).points, fps_reference(cloud, k).points)

    def test_subsample_with_every_point_in_one_cell(self, monkeypatch):
        dims = []
        ball_pairs = scene_mod._ball_pairs

        def spy(grid, points, radius):
            dims.append(grid.dims)
            return ball_pairs(grid, points, radius)

        monkeypatch.setattr(scene_mod, "_ball_pairs", spy)
        monkeypatch.setattr(scene_mod, "CELL_SHARE", 1e9)
        cloud = PointCloud(np.random.default_rng(24).standard_normal((3000, 3)))
        assert np.array_equal(subsample(cloud, 600).points, fps_reference(cloud, 600).points)
        assert dims and all(d == [1, 1, 1] for d in dims)

    @pytest.mark.parametrize("share", [0.0, 1e-4, 0.02, 0.3, 5.0])
    @pytest.mark.parametrize("name", [*sorted(STRESS_CLOUDS), "lattice12"])
    def test_ball_pairs_list_every_point_of_each_ball_once(self, name, share):
        pts = STRESS_CLOUDS[name] if name in STRESS_CLOUDS else BATCH_CLOUDS[name][0]
        # widened as subsample widens tau, so that the radius is positive
        radius = scene_mod._slack(share * float((pts.max(axis=0) - pts.min(axis=0)).max()))
        grid = scene_mod._CellGrid(pts, radius)
        picks = pts[::97]
        owner, index = scene_mod._ball_pairs(grid, picks, radius)
        listed = set(zip(owner.tolist(), index.tolist()))
        assert len(listed) == owner.size
        d = norms(picks[:, None, :] - pts[None, :, :])
        assert set(zip(*(d <= radius).nonzero())) <= listed
        # trimmed to the ball: a listed point's column lies within the
        # radius of its row in xy, and its z cell overlaps the ball's span
        # there, so it is at most a cell diagonal farther out
        reach = radius + grid.pad + math.sqrt(3.0) * grid.edge
        assert np.all(d[owner, index] <= reach * (1 + 1e-9))

    @pytest.mark.parametrize("name", sorted(STRESS_CLOUDS))
    def test_nearest_others_match_reference(self, name):
        centers = STRESS_CLOUDS[name][::7]
        scene = spheres_scene(centers, np.full(len(centers), 0.01))
        assert all_nearest(scene).tobytes() == nn_reference(centers).tobytes()

    @pytest.mark.parametrize("name", [*sorted(STRESS_CLOUDS), "desk"])
    def test_neighbour_list_from_a_center_and_from_far_away(self, name):
        if name == "desk":
            scene = randomize_scene(default_desk_randomizer(), 5)
        else:
            centers = STRESS_CLOUDS[name][::7]
            scene = spheres_scene(centers, np.full(len(centers), 0.01))
        rng = np.random.default_rng(25)
        far = scene.centers.max(axis=0) + 1e3
        for rows in (scene.centers[[11]], scene.centers[[3, 11]], far[None], np.vstack([far, -far])):
            for travel, reach in ((0.0, -math.inf), (0.05, 0.1), (2.0, 0.3)):
                assert_lists_every_needed(scene, rows, travel, reach, rng)


class TestVoxelLattice:
    def test_edge_circumscribes_cell(self):
        r = 0.03
        e = voxel_edge(r)
        assert e == pytest.approx(2.0 * r / math.sqrt(3.0))
        # cell corner sits exactly on the sphere
        assert math.sqrt(3.0) * (e / 2.0) == pytest.approx(r)

    def test_single_point_cell_center(self):
        r = 0.03
        e = voxel_edge(r)
        out = voxelize_point_cloud(PointCloud(np.array([[0.01, 0.01, 0.01]])), r)
        assert len(out) == 1
        assert np.allclose(out[0].center, [e / 2, e / 2, e / 2], atol=1e-12)
        assert out[0].radius == r

    def test_points_in_same_cell_merge(self):
        r = 0.05
        e = voxel_edge(r)
        pts = np.array([[0.1 * e, 0.1 * e, 0.1 * e], [0.9 * e, 0.9 * e, 0.9 * e]])
        assert len(voxelize_point_cloud(PointCloud(pts), r)) == 1

    def test_empty_cloud(self):
        assert voxelize_point_cloud(PointCloud(np.zeros((0, 3))), 0.05) == []

    @settings(max_examples=25)
    @given(seed=st.integers(0, 10_000))
    def test_every_point_covered(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-0.4, 0.4, size=(60, 3))
        r = 0.05
        spheres = voxelize_point_cloud(PointCloud(pts), r)
        centers = np.stack([s.center for s in spheres])
        d = np.linalg.norm(pts[:, None, :] - centers[None, :, :], axis=2).min(axis=1)
        assert np.all(d <= r + 1e-12)


class TestDecompose:
    def test_small_sphere_collapses(self):
        out = decompose_primitive(SphereShape(center=(0.2, 0.3, 0.4), radius=0.02), 0.05)
        assert len(out) == 1
        assert np.allclose(out[0].center, [0.2, 0.3, 0.4])
        assert out[0].radius == 0.05

    def test_centers_near_surface(self):
        shape = Cuboid(center=(0, 0, 0.5), half_extents=(0.2, 0.15, 0.1))
        r = 0.05
        out = decompose_primitive(shape, r)
        assert out
        centers = np.stack([s.center for s in out])
        assert np.all(signed_distance(shape, centers) <= r + 1e-12)

    def test_covers_shape_surface(self):
        # every surface point must be inside at least one covering sphere
        shape = Cylinder(center=(0.1, 0.0, 0.3), axis=(0, 0, 1), radius=0.06, half_length=0.12)
        r = 0.05
        out = decompose_primitive(shape, r)
        centers = np.stack([s.center for s in out])
        rng = np.random.default_rng(1)
        theta = rng.uniform(0, 2 * math.pi, size=200)
        z = rng.uniform(-0.12, 0.12, size=200)
        surface = np.stack(
            [0.1 + 0.06 * np.cos(theta), 0.06 * np.sin(theta), 0.3 + z], axis=1
        )
        d = np.linalg.norm(surface[:, None, :] - centers[None, :, :], axis=2).min(axis=1)
        assert np.all(d <= r + 1e-9)

    def test_lattice_alignment(self):
        r = 0.05
        e = voxel_edge(r)
        out = decompose_primitive(SphereShape(center=(0.3, 0.3, 0.3), radius=0.12), r)
        centers = np.stack([s.center for s in out])
        frac = centers / e - np.floor(centers / e)
        assert np.allclose(frac, 0.5, atol=1e-9)


def randomize_reference(cfg: SceneRandomizerConfig, seed: int) -> Scene:
    """The object round trip ``randomize_scene`` replaces: decompose every
    primitive to spheres, tag the collapsed small spheres, floor the lattice
    centers back to their cells and build one sphere per distinct cell."""
    goal, floating = sample_scene_shapes(cfg, seed)
    r = cfg.voxel_radius
    edge = voxel_edge(r)
    lattice, loose = [], []
    for shape in (*cfg.fixed_shapes, *floating):
        small = isinstance(shape, SphereShape) and shape.radius <= r
        (loose if small else lattice).extend(decompose_primitive(shape, r))
    if lattice:
        cells = np.floor(np.stack([o.center for o in lattice]) / edge).astype(np.int64)
        centers = (np.unique(cells, axis=0) + 0.5) * edge
        lattice = [SphereObstacle(c, r) for c in centers]
    return Scene(tuple(lattice + loose), cfg.start, goal, cfg.workspace)


def lone_shape_randomizer() -> SceneRandomizerConfig:
    """One floating primitive and no furniture: a seed that draws a small
    sphere makes a scene with no lattice cell at all."""
    return SceneRandomizerConfig(
        workspace=WorkspaceBounds((-0.85, -0.85, 0.0), (0.85, 0.85, 1.1)),
        start=(-0.45, -0.35, 0.35),
        goal_region=WorkspaceBounds((0.20, -0.30, 0.30), (0.60, 0.40, 0.75)),
        min_count=1,
        max_count=1,
        sphere_radius_range=(0.02, 0.05),
    )


def assert_same_scene(a: Scene, b: Scene) -> None:
    assert np.array_equal(a.centers, b.centers)
    assert np.array_equal(a.radii, b.radii)
    assert np.array_equal(a.goal, b.goal)


class TestRandomizer:
    # seeds 2, 3, 12, 13 and 21 draw one or two collapsed small spheres
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 12, 13, 21, 2500001, 3173392])
    def test_desk_matches_reference(self, seed):
        cfg = default_desk_randomizer()
        _, floating = sample_scene_shapes(cfg, seed)
        small = sum(isinstance(s, SphereShape) and s.radius <= cfg.voxel_radius for s in floating)
        assert (small > 0) == (seed in (2, 3, 12, 13, 21))
        assert_same_scene(randomize_scene(cfg, seed), randomize_reference(cfg, seed))

    def test_lone_shape_matches_reference(self):
        cfg = lone_shape_randomizer()
        kinds = set()
        for seed in range(12):
            scene = randomize_scene(cfg, seed)
            assert_same_scene(scene, randomize_reference(cfg, seed))
            kinds.add("lattice" if len(scene.obstacles) > 1 else "collapsed")
        assert kinds == {"collapsed", "lattice"}

    def test_deterministic(self):
        cfg = default_desk_randomizer()
        a = randomize_scene(cfg, seed=3)
        b = randomize_scene(cfg, seed=3)
        assert len(a.obstacles) == len(b.obstacles)
        ca, _ = scene_arrays(a)
        cb, _ = scene_arrays(b)
        assert np.array_equal(ca, cb)
        assert np.array_equal(a.goal, b.goal)

    def test_seed_changes_scene(self):
        cfg = default_desk_randomizer()
        a = randomize_scene(cfg, seed=3)
        b = randomize_scene(cfg, seed=4)
        assert not np.array_equal(a.goal, b.goal)

    def test_floating_count_in_range(self):
        cfg = default_desk_randomizer()
        for seed in range(6):
            _, floating = sample_scene_shapes(cfg, seed)
            assert cfg.min_count <= len(floating) <= cfg.max_count

    def test_goal_inside_region(self):
        cfg = default_desk_randomizer()
        for seed in range(6):
            scene = randomize_scene(cfg, seed)
            assert cfg.goal_region.contains(scene.goal)

    @pytest.mark.parametrize("seed", range(5))
    def test_clearance_holds_after_decomposition(self, seed):
        cfg = default_desk_randomizer()
        scene = randomize_scene(cfg, seed)
        centers, radii = scene_arrays(scene)
        for point in (scene.start, scene.goal):
            assert min_surface_distance(point, centers, radii) >= cfg.min_clearance - 1e-9

    def test_impossible_placement_raises(self):
        ws = WorkspaceBounds(min=(0, 0, 0), max=(0.2, 0.2, 0.2))
        cfg = SceneRandomizerConfig(
            workspace=ws,
            start=(0.1, 0.1, 0.1),
            goal_region=WorkspaceBounds(min=(0.09, 0.09, 0.09), max=(0.11, 0.11, 0.11)),
            max_rejections=30,
        )
        with pytest.raises(PlacementFailure):
            randomize_scene(cfg, seed=0)

    def test_validates(self):
        scene = randomize_scene(default_desk_randomizer(), seed=1)
        validate_scene(scene)  # must not raise


class TestValidation:
    def test_rejects_start_inside_obstacle(self):
        scene = Scene(
            obstacles=(SphereObstacle(center=(0, 0, 0.5), radius=0.3),),
            start=(0, 0, 0.5),
            goal=(0.5, 0.5, 0.5),
            workspace=WorkspaceBounds(min=(-1, -1, 0), max=(1, 1, 1)),
        )
        with pytest.raises(ValueError):
            validate_scene(scene)

    def test_rejects_start_outside_workspace(self):
        scene = Scene(
            obstacles=(),
            start=(5, 0, 0.5),
            goal=(0.5, 0.5, 0.5),
            workspace=WorkspaceBounds(min=(-1, -1, 0), max=(1, 1, 1)),
        )
        with pytest.raises(ValueError):
            validate_scene(scene)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            SphereObstacle(center=(0, 0, 0), radius=0.0)

    def test_obstacle_has_slots_and_stays_frozen(self):
        # slots keep each obstacle object small
        obstacle = SphereObstacle(center=(0, 0, 0), radius=0.1)
        assert not hasattr(obstacle, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            obstacle.radius = 0.2

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), True, "0.1", 0.0, -0.1])
    def test_primitive_sizes_finite_and_positive(self, bad):
        with pytest.raises(ValueError, match="sphere radius"):
            SphereShape(center=(0, 0, 0), radius=bad)
        with pytest.raises(ValueError, match="cylinder radius"):
            Cylinder(center=(0, 0, 0), axis=(0, 0, 1), radius=bad, half_length=0.1)
        with pytest.raises(ValueError, match="half_length"):
            Cylinder(center=(0, 0, 0), axis=(0, 0, 1), radius=0.1, half_length=bad)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("min_count", 2.0),
            ("max_count", "8"),
            ("max_rejections", False),
            ("min_clearance", float("nan")),
            ("voxel_radius", float("inf")),
            ("voxel_radius", "0.05"),
            ("cylinder_radius_range", (0.03, float("inf"))),
            ("cylinder_half_length_range", (0.1,)),
            ("sphere_radius_range", None),
        ],
    )
    def test_randomizer_rejects_malformed_settings(self, key, value):
        cfg = default_desk_randomizer()
        with pytest.raises(ValueError, match=key):
            dataclasses.replace(cfg, **{key: value})

    def test_randomizer_ranges_become_float_pairs(self):
        cfg = dataclasses.replace(default_desk_randomizer(), sphere_radius_range=[1, 2])
        assert cfg.sphere_radius_range == (1.0, 2.0)
