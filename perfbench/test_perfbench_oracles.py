"""Small tests of the benchmark's oracles: hand-computed cases first, then
agreement with the program on random inputs.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import numpy as np
import pytest

import oracles
from cfplan.cost import TrajectoryCostWeights, trajectory_cost
from cfplan.inference import featurize, knn_predict
from cfplan.labeling import LabeledSample
from cfplan.planner import Trajectory
from cfplan.scene import PointCloud, Scene, SphereObstacle, WorkspaceBounds

CENTERS = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
RADII = np.array([1.0, 0.5])


def test_brute_clearances_by_hand():
    pts = np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [1.75, 0.0, 0.0]])
    got = oracles.brute_clearances(pts, CENTERS, RADII)
    assert got.tolist() == [1.0, -1.0, 0.5, 0.75]
    assert oracles.brute_clearances(pts, np.zeros((0, 3)), np.zeros(0)).tolist() == [np.inf] * 4


def test_on_sphere_surfaces_by_hand():
    pts = np.array([[1.0, 0.0, 0.0], [3.0, 0.5, 0.0], [0.0, 0.0, 0.999], [2.0, 0.0, 0.0]])
    assert oracles.on_sphere_surfaces(pts, CENTERS, RADII).tolist() == [True, True, False, False]


def test_trajectory_cost_by_hand():
    # three unit steps along x, then one step up: T = 4 samples after x_0
    x = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0], [3, 1, 0]], dtype=float)
    goal = np.array([3.0, 1.0, 2.0])
    # length 4, goal miss 2, interior x_2, x_3: second differences 0 and
    # (-1, 1, 0), whose squares sum to 2 and are divided by T - 1 = 3
    want = 0.3 * 4.0 + 10.0 * 2.0 + 0.01 * (0.0 + 2.0) / 3
    assert oracles.trajectory_cost(x, goal, np.zeros((0, 3)), np.zeros(0)) == pytest.approx(want, rel=1e-15)
    with_sphere = oracles.trajectory_cost(x, goal, np.array([[3.0, 3.0, 0.0]]), np.array([1.0]))
    mean_inv = np.mean([1 / (np.hypot(2, 3) - 1), 1 / (np.hypot(1, 3) - 1), 0.5, 1.0])
    assert with_sphere == pytest.approx(want + 0.03 * mean_inv, rel=1e-14)


def test_trajectory_cost_matches_program():
    # a jerky path, so that the smoothness term weighs in the comparison
    x = np.random.default_rng(0).uniform(-0.5, 0.5, (40, 3)) + [0.0, 0.0, 0.5]
    scene = Scene(
        obstacles=(SphereObstacle((0.3, 0.2, 0.1), 0.05), SphereObstacle((-0.2, 0.1, 0.6), 0.1)),
        start=x[0],
        goal=(0.1, 0.1, 0.4),
        workspace=WorkspaceBounds((-2, -2, -2), (2, 2, 2)),
    )
    traj = Trajectory(np.arange(x.shape[0]) * 0.01, x, np.zeros(x.shape[0]))
    got = trajectory_cost(traj, scene, TrajectoryCostWeights())
    centers = np.array([o.center for o in scene.obstacles])
    radii = np.array([o.radius for o in scene.obstacles])
    want = oracles.trajectory_cost(x, scene.goal, centers, radii)
    assert abs(got - want) <= 1e-12 * want


def test_descriptor_by_hand():
    pts = np.array([[0.01, 0.01, 0.01], [0.99, 0.99, 0.99], [5.0, -5.0, 0.5]])
    d = oracles.descriptor(pts, (0, 0, 0), (1, 1, 1))
    hist = d[:512].reshape(8, 8, 8)
    assert hist[0, 0, 0] == hist[7, 7, 7] == hist[7, 0, 4] == pytest.approx(1 / 3)
    assert hist.sum() == pytest.approx(1.0)
    assert d[512:515] == pytest.approx(pts.mean(axis=0))
    assert d[515:] == pytest.approx([4.99, 5.99, 0.98])


def test_descriptor_matches_featurize():
    ws = WorkspaceBounds((-0.85, -0.85, 0.0), (0.85, 0.85, 1.1))
    pts = np.random.default_rng(1).uniform(-1.0, 1.2, (2500, 3))
    got = featurize(PointCloud(pts), ws).vector()
    assert np.allclose(got, oracles.descriptor(pts, ws.min, ws.max), rtol=0.0, atol=1e-12)


def test_idw_knn_by_hand():
    vectors = [np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 3.0])]
    labels = [np.array([1.0]), np.array([2.0]), np.array([4.0])]
    assert oracles.idw_knn(np.array([1.0, 0.0]), vectors, labels, 3).tolist() == [2.0]
    w = np.array([1 / (1 + oracles.IDW_EPS), 1 / (2 + oracles.IDW_EPS)])
    got = oracles.idw_knn(np.array([-1.0, 0.0]), vectors, labels, 2)
    assert got == pytest.approx((w @ [1.0, 2.0]) / w.sum(), rel=1e-15)


def test_idw_knn_matches_knn_predict():
    rng = np.random.default_rng(2)
    ws = WorkspaceBounds((0, 0, 0), (1, 1, 1))
    samples = [
        LabeledSample(i, rng.uniform(0, 1, (50, 3)), rng.uniform(0, 5, 36), 1.0) for i in range(6)
    ]
    query = rng.uniform(0, 1, (80, 3))
    vectors = [oracles.descriptor(s.points, ws.min, ws.max) for s in samples]
    want = oracles.idw_knn(oracles.descriptor(query, ws.min, ws.max), vectors, [s.p_star for s in samples], 3)
    got = knn_predict(featurize(PointCloud(query), ws), samples, ws, k=3)
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)
