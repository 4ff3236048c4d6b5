"""Reference computations the benchmark checks the program against.

Each function is written from the documented definition with plain NumPy,
without importing ``cfplan``, so a fault in the program cannot hide in its
own oracle.  They favour clarity over speed; inputs are chunked only to keep
memory bounded on desk-size scenes.
"""

from __future__ import annotations

import numpy as np

D_CLAMP = 1e-6  # distances enter 1/d terms clamped here (cost module docs)
GRID = 8  # occupancy histogram cells per axis (inference module docs)
IDW_EPS = 1e-9  # inverse-distance weights are 1 / (d + IDW_EPS)

_CHUNK = 128


def sphere_distances(points, centers, radii):
    """Yield (row slice, |points chunk| x |spheres| surface distances)."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    centers = np.asarray(centers, dtype=float).reshape(-1, 3)
    radii = np.asarray(radii, dtype=float).ravel()
    for s in range(0, points.shape[0], _CHUNK):
        block = points[s : s + _CHUNK]
        diff = block[:, None, :] - centers[None, :, :]
        yield slice(s, s + block.shape[0]), np.sqrt((diff * diff).sum(axis=2)) - radii


def brute_clearances(points, centers, radii) -> np.ndarray:
    """Minimum surface distance from each point to any sphere (+inf without
    spheres), by scanning every sphere."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    out = np.full(points.shape[0], np.inf)
    if len(radii) == 0:
        return out
    for rows, dist in sphere_distances(points, centers, radii):
        out[rows] = dist.min(axis=1)
    return out


def on_sphere_surfaces(points, centers, radii, tol: float = 1e-9) -> np.ndarray:
    """Boolean per point: lies within ``tol`` of some sphere's surface."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    out = np.zeros(points.shape[0], dtype=bool)
    if len(radii) == 0:
        return out
    for rows, dist in sphere_distances(points, centers, radii):
        out[rows] = (np.abs(dist) <= tol).any(axis=1)
    return out


def trajectory_cost(
    positions,
    goal,
    centers,
    radii,
    *,
    clearance: float = 0.03,
    path_length: float = 0.3,
    smoothness: float = 0.01,
    goal_deviation: float = 10.0,
) -> float:
    """Executed-trajectory cost as documented on ``cfplan.cost.trajectory_cost``.

    With samples x_0..x_T: the mean of 1/max(d, D_CLAMP) over x_1..x_T (d the
    clearance; the term vanishes without obstacles), the total path length,
    the squared second differences at the interior samples x_2..x_(T-1)
    (zero for T < 3), and the final distance to the goal, each weighted.

    The docstring calls the smoothness term a mean over the T - 2 interior
    samples, but the program divides their sum by T - 1.  This oracle follows
    the program, so that the 1e-9 check holds on every plan; the difference
    reaches 4e-9 of the cost on some desk plans.
    """
    x = np.asarray(positions, dtype=float).reshape(-1, 3)
    steps = x.shape[0] - 1
    seg = x[1:] - x[:-1]
    cost = path_length * float(np.sqrt((seg * seg).sum(axis=1)).sum())
    end = x[-1] - np.asarray(goal, dtype=float)
    cost += goal_deviation * float(np.sqrt(end @ end))
    if len(radii) > 0 and steps >= 1:
        d = np.maximum(brute_clearances(x[1:], centers, radii), D_CLAMP)
        cost += clearance * float(np.mean(1.0 / d))
    if steps >= 3:
        i = np.arange(2, steps)  # interior samples x_2..x_(T-1)
        second = x[i + 1] - 2.0 * x[i] + x[i - 1]
        cost += smoothness * float((second * second).sum()) / (steps - 1)
    return cost


def descriptor(points, ws_min, ws_max) -> np.ndarray:
    """518-number scene descriptor: the 8x8x8 occupancy fractions of the
    workspace box (points outside are clipped onto it), then the centroid and
    the axis-aligned extent of the cloud."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if pts.shape[0] == 0:
        return np.zeros(GRID**3 + 6)
    lo = np.asarray(ws_min, dtype=float)
    hi = np.asarray(ws_max, dtype=float)
    edges = [np.linspace(lo[a], hi[a], GRID + 1) for a in range(3)]
    counts, _ = np.histogramdd(np.clip(pts, lo, hi), bins=edges)
    return np.concatenate(
        [counts.ravel() / pts.shape[0], pts.mean(axis=0), pts.max(axis=0) - pts.min(axis=0)]
    )


def idw_knn(query, vectors, labels, k: int) -> np.ndarray:
    """Inverse-distance-weighted mean of the labels of the ``k`` nearest
    vectors (Euclidean; ties keep the lower index).  An exact match returns
    its label unchanged."""
    q = np.asarray(query, dtype=float)
    dists = [float(np.sqrt(((np.asarray(v, dtype=float) - q) ** 2).sum())) for v in vectors]
    for i, d in enumerate(dists):
        if d == 0.0:
            return np.asarray(labels[i], dtype=float).copy()
    order = sorted(range(len(dists)), key=lambda i: (dists[i], i))[: min(k, len(dists))]
    w = np.array([1.0 / (dists[i] + IDW_EPS) for i in order])
    rows = np.stack([np.asarray(labels[i], dtype=float) for i in order])
    return (w / w.sum()) @ rows
