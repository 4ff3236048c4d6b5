"""Gain prediction for unseen scenes by nearest neighbors over a compact
point-cloud descriptor.

The descriptor is an 8x8x8 occupancy histogram over the workspace box
(fractions, so clouds of different sizes compare), concatenated with the
cloud centroid and its axis-aligned extent: 512 + 3 + 3 = 518 numbers.
Points outside the workspace are clipped into the boundary cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .labeling import LabeledSample
from .scene import PointCloud, WorkspaceBounds

GRID = 8
DESCRIPTOR_CHUNK = 32  # clouds per descriptor_rows pass: bounds its (clouds, m, 3) temporaries


class EmptyDatasetError(ValueError):
    """Raised when a prediction is requested against an empty dataset."""


@dataclass(frozen=True)
class SceneDescriptor:
    histogram: np.ndarray  # (GRID**3,) cell fractions
    centroid: np.ndarray  # (3,)
    extent: np.ndarray  # (3,)

    def vector(self) -> np.ndarray:
        return np.concatenate([self.histogram, self.centroid, self.extent])


def featurize(cloud: PointCloud, workspace: WorkspaceBounds) -> SceneDescriptor:
    v = descriptor_rows([cloud.points], workspace)[0]
    return SceneDescriptor(v[: GRID**3], v[GRID**3 : GRID**3 + 3], v[GRID**3 + 3 :])


def descriptor_rows(clouds: list[np.ndarray], workspace: WorkspaceBounds) -> np.ndarray:
    """The descriptor vector of every (m, 3) cloud, as rows of an
    (N, GRID**3 + 6) array; an empty cloud's row is zero.  Clouds of one
    size share a vectorised pass, DESCRIPTOR_CHUNK clouds at a time."""
    out = np.zeros((len(clouds), GRID**3 + 6))
    sizes = np.array([c.shape[0] for c in clouds], dtype=int)
    for m in np.unique(sizes[sizes > 0]):
        same = np.flatnonzero(sizes == m)
        for s in range(0, same.size, DESCRIPTOR_CHUNK):
            rows = same[s : s + DESCRIPTOR_CHUNK]
            pts = np.stack([clouds[i] for i in rows])  # (b, m, 3)
            rel = (pts - workspace.min) / workspace.widths
            cells = np.clip((rel * GRID).astype(int), 0, GRID - 1)
            flat = (cells[..., 0] * GRID + cells[..., 1]) * GRID + cells[..., 2]
            flat += GRID**3 * np.arange(rows.size)[:, None]
            counts = np.bincount(flat.ravel(), minlength=rows.size * GRID**3)
            hist = counts.reshape(rows.size, GRID**3).astype(float) / m
            out[rows] = np.concatenate(
                [hist, pts.mean(axis=1), pts.max(axis=1) - pts.min(axis=1)], axis=1
            )
    return out


def knn_predict(
    query: SceneDescriptor,
    dataset: list[LabeledSample],
    workspace: WorkspaceBounds,
    k: int,
) -> np.ndarray:
    """Inverse-distance-weighted average of the k nearest stored parameter
    vectors in descriptor space.

    ``k`` is clamped to the dataset size; distance ties resolve toward lower
    dataset indices, and an exact descriptor match (distance zero) returns
    that sample's parameters outright (lowest index among exact matches).
    """
    if not dataset:
        raise EmptyDatasetError("cannot predict from an empty dataset")
    if k < 1:
        raise ValueError("k must be >= 1")
    qv = query.vector()
    vectors = descriptor_rows([PointCloud(s.points).points for s in dataset], workspace)
    dists = np.linalg.norm(vectors - qv, axis=1)
    exact = np.flatnonzero(dists == 0.0)
    if exact.size:
        return np.asarray(dataset[int(exact[0])].p_star, dtype=float).copy()
    k = min(k, len(dataset))
    order = np.argsort(dists, kind="stable")[:k]
    weights = 1.0 / (dists[order] + 1e-9)
    weights /= weights.sum()
    labels = np.stack([np.asarray(dataset[int(i)].p_star, dtype=float) for i in order])
    return weights @ labels
