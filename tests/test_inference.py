"""Descriptor featurization and nearest-neighbor gain prediction."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from cfplan.inference import (
    GRID,
    EmptyDatasetError,
    SceneDescriptor,
    descriptor_rows,
    featurize,
    knn_predict,
)
from cfplan import inference
from cfplan.labeling import LabeledSample, load_dataset
from cfplan.scene import PointCloud, WorkspaceBounds, default_desk_randomizer

DESK_DATASET = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "desk_train.jsonl"

WS = WorkspaceBounds(min=(0, 0, 0), max=(80, 80, 80))


def sample_of(points, p_star, scene_id=0) -> LabeledSample:
    return LabeledSample(
        scene_id=scene_id,
        points=np.asarray(points, dtype=float),
        p_star=np.asarray(p_star, dtype=float),
        best_cost=0.0,
    )


class TestFeaturize:
    def test_vector_length(self):
        d = featurize(PointCloud(np.array([[1.0, 2.0, 3.0]])), WS)
        assert d.vector().shape == (GRID**3 + 6,)

    def test_empty_cloud_is_zero(self):
        d = featurize(PointCloud(np.zeros((0, 3))), WS)
        assert not d.vector().any()

    def test_single_point_cell(self):
        # cell edge is 10; the point lands in cell (0, 1, 2)
        d = featurize(PointCloud(np.array([[5.0, 15.0, 25.0]])), WS)
        flat = (0 * GRID + 1) * GRID + 2
        expected = np.zeros(GRID**3)
        expected[flat] = 1.0
        assert np.array_equal(d.histogram, expected)
        assert np.array_equal(d.centroid, [5.0, 15.0, 25.0])
        assert np.array_equal(d.extent, [0.0, 0.0, 0.0])

    def test_histogram_is_fraction(self):
        pts = np.array([[5.0, 5.0, 5.0]] * 3 + [[75.0, 75.0, 75.0]])
        d = featurize(PointCloud(pts), WS)
        assert d.histogram.sum() == pytest.approx(1.0)
        assert d.histogram[0] == pytest.approx(0.75)

    def test_uniform_grid_uniform_histogram(self):
        # 2 points per cell along each axis -> every cell holds 8/4096 of the mass
        centers = (np.arange(2 * GRID) + 0.5) * (80.0 / (2 * GRID))
        xs, ys, zs = np.meshgrid(centers, centers, centers, indexing="ij")
        pts = np.stack([xs.ravel(), ys.ravel(), zs.ravel()], axis=1)
        d = featurize(PointCloud(pts), WS)
        assert np.allclose(d.histogram, 1.0 / GRID**3, atol=1e-15)

    def test_outside_points_clip_to_boundary_cells(self):
        pts = np.array([[-5.0, 40.0, 40.0], [95.0, 40.0, 40.0]])
        d = featurize(PointCloud(pts), WS)
        assert d.histogram.sum() == pytest.approx(1.0)
        lo_cell = (0 * GRID + 4) * GRID + 4
        hi_cell = (7 * GRID + 4) * GRID + 4
        assert d.histogram[lo_cell] == 0.5
        assert d.histogram[hi_cell] == 0.5

    def test_extent(self):
        pts = np.array([[1.0, 0.0, 5.0], [4.0, 2.0, 5.0]])
        d = featurize(PointCloud(pts), WS)
        assert np.array_equal(d.extent, [3.0, 2.0, 0.0])


class TestDescriptorRows:
    def test_stored_desk_clouds_match_featurize_bitwise(self):
        ws = default_desk_randomizer().workspace
        clouds = [s.points for s in load_dataset(DESK_DATASET)]
        want = np.stack([featurize(PointCloud(c), ws).vector() for c in clouds])
        assert descriptor_rows(clouds, ws).tobytes() == want.tobytes()

    @pytest.mark.parametrize("chunk", [1, 2, inference.DESCRIPTOR_CHUNK])
    def test_mixed_sizes_match_featurize_bitwise(self, monkeypatch, chunk):
        # empty clouds, single points, clouds of one size apart and points
        # outside the box, in no particular order; 70 clouds of 5 points
        # span three passes of the default chunk
        rng = np.random.default_rng(4)
        sizes = (7, 0, 1, 300, 7, 0, 2, 300, 7) + (5,) * 70
        clouds = [rng.uniform(-20.0, 100.0, (m, 3)) for m in sizes]
        monkeypatch.setattr(inference, "DESCRIPTOR_CHUNK", chunk)
        want = np.stack([featurize(PointCloud(c), WS).vector() for c in clouds])
        assert descriptor_rows(clouds, WS).tobytes() == want.tobytes()
        assert descriptor_rows([], WS).shape == (0, GRID**3 + 6)

    def test_knn_predict_featurizes_no_stored_sample(self, monkeypatch):
        rng = np.random.default_rng(5)
        data = [sample_of(rng.uniform(0, 80, (30, 3)), rng.uniform(0, 200, 36)) for _ in range(6)]
        q = featurize(PointCloud(rng.uniform(0, 80, (30, 3))), WS)
        want = knn_predict(q, data, WS, k=3)
        vectors = np.stack([featurize(PointCloud(s.points), WS).vector() for s in data])
        d = np.linalg.norm(vectors - q.vector(), axis=1)
        order = np.argsort(d, kind="stable")[:3]
        w = 1.0 / (d[order] + 1e-9)
        assert want.tobytes() == ((w / w.sum()) @ np.stack([data[i].p_star for i in order])).tobytes()

        def refuse(*args):
            raise AssertionError("featurize called")

        monkeypatch.setattr(inference, "featurize", refuse)
        assert knn_predict(q, data, WS, k=3).tobytes() == want.tobytes()


class TestKnnPredict:
    def test_exact_match_short_circuits(self):
        p0, p1 = np.full(36, 1.0), np.full(36, 9.0)
        data = [
            sample_of([[1.0, 1.0, 1.0]], p0),
            sample_of([[50.0, 50.0, 50.0]], p1),
        ]
        q = featurize(PointCloud(np.array([[1.0, 1.0, 1.0]])), WS)
        assert np.array_equal(knn_predict(q, data, WS, k=3), p0)

    def test_exact_tie_takes_lowest_index(self):
        p0, p1 = np.full(36, 1.0), np.full(36, 9.0)
        cloud = [[1.0, 1.0, 1.0]]
        data = [sample_of(cloud, p0), sample_of(cloud, p1)]
        q = featurize(PointCloud(np.array(cloud)), WS)
        assert np.array_equal(knn_predict(q, data, WS, k=3), p0)

    def test_inverse_distance_weights(self):
        # all three single-point clouds share histogram cell (0,0,0), so the
        # descriptor distance reduces to the centroid distance: 1 vs 3
        p1, p2 = np.full(36, 4.0), np.full(36, 8.0)
        data = [sample_of([[2.0, 1.0, 1.0]], p1), sample_of([[4.0, 1.0, 1.0]], p2)]
        q = featurize(PointCloud(np.array([[1.0, 1.0, 1.0]])), WS)
        got = knn_predict(q, data, WS, k=2)
        assert np.allclose(got, 0.75 * p1 + 0.25 * p2, atol=1e-6)

    def test_k_clamped_to_dataset(self):
        p1, p2 = np.full(36, 4.0), np.full(36, 8.0)
        data = [sample_of([[2.0, 1.0, 1.0]], p1), sample_of([[4.0, 1.0, 1.0]], p2)]
        q = featurize(PointCloud(np.array([[1.0, 1.0, 1.0]])), WS)
        assert np.allclose(
            knn_predict(q, data, WS, k=50), knn_predict(q, data, WS, k=2), atol=0.0
        )

    def test_k_one_returns_nearest_label(self):
        p1, p2 = np.full(36, 4.0), np.full(36, 8.0)
        data = [sample_of([[2.0, 1.0, 1.0]], p1), sample_of([[4.0, 1.0, 1.0]], p2)]
        q = featurize(PointCloud(np.array([[1.0, 1.0, 1.0]])), WS)
        assert np.allclose(knn_predict(q, data, WS, k=1), p1, atol=0.0)

    def test_prediction_is_convex_combination(self):
        rng = np.random.default_rng(0)
        data = [
            sample_of(rng.uniform(0, 80, (30, 3)), rng.uniform(0, 200, 36))
            for _ in range(6)
        ]
        q = featurize(PointCloud(rng.uniform(0, 80, (30, 3))), WS)
        got = knn_predict(q, data, WS, k=3)
        stacked = np.stack([s.p_star for s in data])
        assert np.all(got >= stacked.min(axis=0) - 1e-9)
        assert np.all(got <= stacked.max(axis=0) + 1e-9)

    def test_empty_dataset_raises(self):
        q = featurize(PointCloud(np.zeros((0, 3))), WS)
        with pytest.raises(EmptyDatasetError):
            knn_predict(q, [], WS, k=3)

    def test_bad_k_raises(self):
        data = [sample_of([[1.0, 1.0, 1.0]], np.zeros(36))]
        q = featurize(PointCloud(np.zeros((0, 3))), WS)
        with pytest.raises(ValueError):
            knn_predict(q, data, WS, k=0)

    def test_descriptor_vector_order(self):
        d = SceneDescriptor(
            histogram=np.arange(GRID**3, dtype=float),
            centroid=np.array([1.0, 2.0, 3.0]),
            extent=np.array([4.0, 5.0, 6.0]),
        )
        v = d.vector()
        assert np.array_equal(v[-6:], [1, 2, 3, 4, 5, 6])
