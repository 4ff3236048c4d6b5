"""Scene model: spherical obstacles, primitive shapes, point clouds, and
randomized desk-scale environments.

Everything downstream (force fields, rollouts, cost terms) consumes spheres
only, so this module also owns the conversions that turn primitives, point
clouds and depth images into sphere sets.  All conversions share one cubic
lattice whose edge ``2*r/sqrt(3)`` makes a sphere of radius ``r`` circumscribe
a cell, so occupied cells are covered without gaps; a randomized scene merges
the cells of all its primitives before it builds one sphere per cell.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Union

import numpy as np

Vec3 = np.ndarray  # shape (3,), float64

_SQRT3 = math.sqrt(3.0)

# farthest-point subsampling: candidates per batch of exact picks, and the
# share of the cloud below which a pick's ball no longer updates every point
FPS_BATCH = 256
WHOLE_SHARE = 32

# the cell grid of the batches' ball queries: its cell edge per ball radius
# when it is built, the share of that radius below which it is built again
# with finer cells, and its most cells per point.  On desk clouds (about 35k
# points, 2,500 picks, radii 0.42 -> 0.054 m) this builds two grids; edges
# of 1/3 or 1/5 of the radius, a new grid every halving of it, or 4 or 8
# cells a point were each a few percent slower
CELL_SHARE = 0.25
REGRID = 0.3
CELLS_PER_POINT = 2

#: (rows, centers) entries per block of the nearest-other pass
NN_BLOCK = 1 << 16


def as_vec3(value) -> Vec3:
    v = np.asarray(value, dtype=float)
    if v.shape != (3,):  # a no-op reshape would add a second array object per vector
        v = v.reshape(3)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"non-finite 3-vector: {value!r}")
    return v


def finite_real(name: str, value) -> float:
    """``value`` as a float when it is a finite real number; ValueError for
    anything else, bools and integers too large for a float included."""
    try:
        if isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except OverflowError:
        pass
    raise ValueError(f"{name} must be a finite real number, got {value!r}")


def check_json_numbers(name: str, value) -> None:
    """Raise ValueError unless every leaf of ``value``, through nested lists
    and objects, is a number."""
    items = [value]
    while items:
        item = items.pop()
        if isinstance(item, dict):
            items.extend(item.values())
        elif isinstance(item, list):
            types = set(map(type, item))
            if types <= {int, float}:  # all plain numbers
                continue
            if types == {dict}:  # objects, such as obstacles: check their values at once
                items.append(list(chain.from_iterable(map(dict.values, item))))
            elif types == {list}:  # rows, such as a point cloud's: check their entries at once
                items.append(list(chain.from_iterable(item)))
            elif types <= {int, float, list}:  # numbers and rows: check the rows' entries at once
                items.append(list(chain.from_iterable(x for x in item if type(x) is list)))
            else:
                items.extend(item)
        elif isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ValueError(f"{name} must hold only numbers, got {item!r}")


def json_array(name: str, value, shape: tuple[int, ...]) -> np.ndarray:
    """``value`` as a float array of ``shape``, where -1 stands for any
    length: every leaf a number (``check_json_numbers``; an ndarray is taken
    as numbers), nested lists of equal length, every entry finite.  An empty
    list is a length-0 array when the leading length is free, such as the
    (0, 3) cloud of a scene without obstacles.  Anything else, ragged lists
    and integers too large for a float included, raises a ValueError that
    names ``name``."""
    if not isinstance(value, np.ndarray):
        check_json_numbers(name, value)
    try:
        arr = np.asarray(value, dtype=float)
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{name} does not convert to a float array: {exc}") from None
    if arr.shape == (0,) and shape[:1] == (-1,):
        arr = arr.reshape(0, *(max(m, 0) for m in shape[1:]))
    if arr.ndim != len(shape) or any(n not in (-1, m) for n, m in zip(shape, arr.shape)):
        want = str(shape).replace("-1", "n")
        raise ValueError(f"{name} must be a float array of shape {want}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must hold only finite numbers")
    return arr


def integer(name: str, value, low: int | None = None) -> int:
    """``value`` as an int when it is an integer of at least ``low``;
    ValueError for anything else, bools and integral floats included
    (``int()`` would truncate 8.7 to 8)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")
    return int(value)


def voxel_edge(voxel_radius: float) -> float:
    """Lattice edge length for which a sphere of ``voxel_radius`` circumscribes a cell."""
    if voxel_radius <= 0.0:
        raise ValueError("voxel_radius must be positive")
    return 2.0 * voxel_radius / _SQRT3


@dataclass(frozen=True, slots=True)
class SphereObstacle:
    """A single spherical obstacle with its artificial-current bookkeeping left
    to the planner; this type is pure geometry."""

    center: Vec3
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vec3(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError("obstacle radius must be positive and finite")

    def surface_distance(self, point) -> float:
        """Signed distance from ``point`` to the sphere surface (negative inside)."""
        return float(np.linalg.norm(as_vec3(point) - self.center)) - self.radius


@dataclass(frozen=True)
class Cuboid:
    center: Vec3
    half_extents: Vec3

    def __post_init__(self):
        object.__setattr__(self, "center", as_vec3(self.center))
        object.__setattr__(self, "half_extents", as_vec3(self.half_extents))
        if np.any(self.half_extents <= 0.0):
            raise ValueError("cuboid half_extents must be positive")


@dataclass(frozen=True)
class SphereShape:
    center: Vec3
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vec3(self.center))
        object.__setattr__(self, "radius", finite_real("sphere radius", self.radius))
        if self.radius <= 0.0:
            raise ValueError("sphere radius must be positive")


@dataclass(frozen=True)
class Cylinder:
    center: Vec3
    axis: Vec3  # unit vector
    radius: float
    half_length: float

    def __post_init__(self):
        axis = as_vec3(self.axis)
        n = np.linalg.norm(axis)
        if abs(n - 1.0) > 1e-9:
            raise ValueError("cylinder axis must be a unit vector")
        object.__setattr__(self, "center", as_vec3(self.center))
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "radius", finite_real("cylinder radius", self.radius))
        object.__setattr__(
            self, "half_length", finite_real("cylinder half_length", self.half_length)
        )
        if self.radius <= 0.0 or self.half_length <= 0.0:
            raise ValueError("cylinder radius and half_length must be positive")


PrimitiveShape = Union[Cuboid, SphereShape, Cylinder]


@dataclass(frozen=True)
class WorkspaceBounds:
    min: Vec3
    max: Vec3

    def __post_init__(self):
        object.__setattr__(self, "min", as_vec3(self.min))
        object.__setattr__(self, "max", as_vec3(self.max))
        if np.any(self.min >= self.max):
            raise ValueError("workspace min must be strictly below max per axis")

    def contains(self, point) -> bool:
        p = as_vec3(point)
        return bool(np.all(p >= self.min) and np.all(p <= self.max))

    @property
    def widths(self) -> Vec3:
        return self.max - self.min


@dataclass(frozen=True)
class PointCloud:
    points: np.ndarray  # (n, 3)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, 3)
        if not np.all(np.isfinite(pts)):
            raise ValueError("point cloud contains non-finite coordinates")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class DepthImage:
    """Row-major depth map in meters (0 marks invalid pixels) plus pinhole
    intrinsics and the camera-to-base rigid transform."""

    depths: np.ndarray  # (height, width)
    fx: float
    fy: float
    cx: float
    cy: float
    rotation: np.ndarray  # (3, 3), camera-to-base
    translation: Vec3

    def __post_init__(self):
        d = np.asarray(self.depths, dtype=float)
        if d.ndim != 2:
            raise ValueError("depths must be a 2-D array")
        r = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        object.__setattr__(self, "depths", d)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", as_vec3(self.translation))

    @property
    def height(self) -> int:
        return self.depths.shape[0]

    @property
    def width(self) -> int:
        return self.depths.shape[1]


@dataclass(frozen=True, init=False, eq=False)
class Scene:
    """Spherical obstacles as arrays, start, goal and workspace box.

    ``centers`` (n, 3) and ``radii`` (n,) are the scene's own float arrays,
    read-only since every caller shares them, and checked in bulk: every
    center finite, every radius positive and finite.  Build a scene from
    arrays with ``Scene.from_arrays``; ``Scene(obstacles, start, goal,
    workspace)`` takes ``SphereObstacle`` objects, converts them once and
    keeps only the arrays.  ``obstacles`` builds the objects anew on every
    access.  The centers' column layout and extent are computed on first
    use, and each obstacle's nearest other the first time it is asked for;
    all are kept with the instance.  Scenes compare by identity.
    """

    centers: np.ndarray
    radii: np.ndarray
    start: Vec3
    goal: Vec3
    workspace: WorkspaceBounds

    def __init__(self, obstacles, start, goal, workspace: WorkspaceBounds):
        obstacles = tuple(obstacles)
        self._set(
            np.array([o.center for o in obstacles], dtype=float).reshape(-1, 3),
            np.array([o.radius for o in obstacles], dtype=float),
            start,
            goal,
            workspace,
        )

    @classmethod
    def from_arrays(cls, centers, radii, start, goal, workspace: WorkspaceBounds) -> Scene:
        """A scene of the spheres ``centers[i]``, ``radii[i]``; the arrays
        are copied."""
        scene = object.__new__(cls)
        scene._set(centers, radii, start, goal, workspace)
        return scene

    def _set(self, centers, radii, start, goal, workspace) -> None:
        centers = np.array(centers, dtype=float)
        radii = np.array(radii, dtype=float)
        if radii.ndim != 1 or centers.shape != (radii.shape[0], 3):
            raise ValueError(
                f"centers must be (n, 3) and radii (n,), got {centers.shape} and {radii.shape}"
            )
        bad = ~(np.isfinite(centers).all(axis=1) & (radii > 0.0) & (radii < math.inf))
        if bad.any():
            i = int(bad.argmax())
            raise ValueError(
                f"obstacle {i} needs a finite center and a positive finite radius, "
                f"got {centers[i].tolist()} and {float(radii[i])!r}"
            )
        for name, value in (
            ("centers", _read_only(centers)),
            ("radii", _read_only(radii)),
            ("start", as_vec3(start)),
            ("goal", as_vec3(goal)),
            ("workspace", workspace),
        ):
            object.__setattr__(self, name, value)

    @property
    def obstacles(self) -> tuple[SphereObstacle, ...]:
        """The obstacles as ``SphereObstacle`` objects, built on every access."""
        return tuple(SphereObstacle(c, r) for c, r in zip(self.centers, self.radii.tolist()))

    @cached_property
    def _columns(self) -> np.ndarray:
        """``centers`` as a (3, n) array, one row per axis."""
        return _read_only(np.ascontiguousarray(self.centers.T))

    @cached_property
    def _nearest(self) -> np.ndarray:
        """Index of each obstacle's nearest other obstacle, -1 until asked for."""
        return np.full(self.radii.shape[0], -1, dtype=np.intp)

    def nearest_other_centers(self, obstacles) -> np.ndarray | None:
        """Center of the nearest other obstacle of each obstacle that the
        indices ``obstacles`` name, (k, 3); None for fewer than two
        obstacles.  The lowest score ``((a - b) ** 2).sum()``, then the
        lowest index, wins.

        An obstacle's answer takes one pass over every center the first
        time it is asked for and is kept: a plan asks only for the
        obstacles that enter an agent's shell, a few dozen on desk scenes.
        """
        if self.radii.shape[0] < 2:
            return None
        nearest = self._nearest
        best = nearest.take(obstacles)
        if (best < 0).any():
            new = np.unique(np.asarray(obstacles)[best < 0])
            nearest[new] = _nearest_others(self._columns, new)
            best = nearest.take(obstacles)
        return self.centers.take(best, axis=0)

    @cached_property
    def _extent(self) -> tuple[np.ndarray, float, float, float]:
        """Midpoint and radius of a ball holding every obstacle center, and
        the smallest and largest obstacle radius."""
        c = self.centers
        mid = (c.min(axis=0) + c.max(axis=0)) / 2.0
        spread = float(np.sqrt(((c - mid) ** 2).sum(axis=1)).max())
        return mid, spread, float(self.radii.min()), float(self.radii.max())

    def neighbour_list(self, rows, travel: float, reach: float = -math.inf) -> np.ndarray:
        """Indices, ascending, of every obstacle that points within
        ``travel`` of any of the (k, 3) ``rows`` can touch: each obstacle
        whose surface comes within ``reach`` of such a point, and each one
        attaining such a point's minimum surface distance.

        The ball is centred on ``x0``, the midpoint of the rows' bounding
        box; the bound holds for any ``x0``, and this one keeps it small
        for rows spread apart.  Every such point lies within ``t = travel +
        max |rows - x0|`` of ``x0``.  A surface within ``reach`` of it has
        its center within ``reach + r_max + t`` of ``x0``.  The obstacle
        whose center is nearest ``x0``, at ``d_nn``, has its surface within
        ``d_nn + t - r_min`` of the point, so every minimizer's center lies
        within ``d_nn + 2t + (r_max - r_min)`` of ``x0``.  One pass over
        the centers' columns gives every center's distance from ``x0``,
        hence ``d_nn`` and the ball over the larger of the two radii.

        When that ball must hold every center (always for one obstacle), the
        list is every index and no distance is taken: all centers lie
        within ``c`` of their midpoint, at ``g`` from ``x0``, so within
        ``g + c`` of ``x0`` and no nearer than ``g - c``.
        """
        n = self.radii.shape[0]
        if n == 0:
            return np.empty(0, dtype=np.intp)
        rows = np.asarray(rows, dtype=float).reshape(-1, 3)
        x0 = (rows.min(axis=0) + rows.max(axis=0)) / 2.0
        mid, c, r_min, r_max = self._extent
        if 2.0 * travel + (r_max - r_min) >= 2.0 * c or (
            reach + r_max + travel >= math.dist(x0, mid) + c
        ):
            return np.arange(n)
        t = travel + float(np.sqrt(((rows - x0) ** 2).sum(axis=1)).max())
        d = _distances(self._columns, x0[:, None])
        radius = max(reach + r_max + t, float(d.min()) + 2.0 * t + (r_max - r_min))
        return np.flatnonzero(d <= _slack(radius))


def _nearest_others(cols: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Index of the nearest other center of each center that ``rows``
    names, given the centers' (3, n) columns: the lowest score ``((a - b)
    ** 2).sum()``, then the lowest index.  Blocks of rows score every
    center at once, ``NN_BLOCK`` entries at a time."""
    n = cols.shape[1]
    best = np.empty(rows.shape[0], dtype=np.intp)
    step = max(1, NN_BLOCK // n)
    for s in range(0, rows.shape[0], step):
        block = rows[s : s + step]
        sq = cols[:, None, :] - cols[:, block, None]
        sq *= sq
        score = (sq[0] + sq[1]) + sq[2]
        score[np.arange(block.shape[0]), block] = math.inf
        best[s : s + step] = score.argmin(axis=1)
    return best


def _slack(radius):
    """``radius`` widened to cover the rounding of the distances it is
    compared with, which may differ from the distances it bounds in the
    last bits."""
    return radius * (1 + 1e-9) + 1e-12


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def scene_arrays(scene: Scene) -> tuple[np.ndarray, np.ndarray]:
    """Obstacle geometry as (centers (n,3), radii (n,)) arrays."""
    return scene.centers, scene.radii


def min_surface_distance(point, centers: np.ndarray, radii: np.ndarray) -> float:
    """Smallest signed distance from ``point`` to any sphere surface; +inf if none."""
    if centers.shape[0] == 0:
        return math.inf
    d = np.linalg.norm(np.asarray(point, dtype=float) - centers, axis=1) - radii
    return float(d.min())


def validate_scene(scene: Scene) -> None:
    """Raise ValueError unless start and goal are strictly outside every obstacle
    and inside the workspace box."""
    for name, p in (("start", scene.start), ("goal", scene.goal)):
        if not scene.workspace.contains(p):
            raise ValueError(f"{name} lies outside the workspace")
        if min_surface_distance(p, scene.centers, scene.radii) <= 0.0:
            raise ValueError(f"{name} lies inside or on an obstacle")


def obstruction_scene(radius: float = 0.15) -> Scene:
    """The midpoint-obstruction benchmark: one sphere centered on the middle
    of a 0.8 m start-goal segment, so the straight line collides and only a
    steered plan reaches the goal with positive clearance."""
    start = np.array([-0.4, 0.0, 0.5])
    goal = np.array([0.4, 0.0, 0.5])
    return Scene.from_arrays(
        ((start + goal) / 2.0)[None],
        [radius],
        start=start,
        goal=goal,
        workspace=WorkspaceBounds((-1.2, -1.2, -0.2), (1.2, 1.2, 1.2)),
    )


# ---------------------------------------------------------------------------
# signed distance fields


def signed_distance(shape: PrimitiveShape, points: np.ndarray) -> np.ndarray:
    """Exact signed distance from each row of ``points`` to the shape surface."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if isinstance(shape, SphereShape):
        return np.linalg.norm(pts - shape.center, axis=1) - shape.radius
    if isinstance(shape, Cuboid):
        q = np.abs(pts - shape.center) - shape.half_extents
        outside = np.linalg.norm(np.maximum(q, 0.0), axis=1)
        inside = np.minimum(q.max(axis=1), 0.0)
        return outside + inside
    if isinstance(shape, Cylinder):
        rel = pts - shape.center
        z = rel @ shape.axis
        radial = np.linalg.norm(rel - z[:, None] * shape.axis, axis=1)
        dr = radial - shape.radius
        dz = np.abs(z) - shape.half_length
        outside = np.sqrt(np.maximum(dr, 0.0) ** 2 + np.maximum(dz, 0.0) ** 2)
        inside = np.minimum(np.maximum(dr, dz), 0.0)
        return outside + inside
    raise TypeError(f"unknown primitive shape: {type(shape).__name__}")


# ---------------------------------------------------------------------------
# point cloud pipeline


def depth_to_cloud(image: DepthImage) -> PointCloud:
    """Back-project valid depth pixels through the pinhole model, then apply the
    camera-to-base transform.  Pixels with depth <= 0 are dropped."""
    h, w = image.depths.shape
    v, u = np.mgrid[0:h, 0:w]
    d = image.depths
    valid = d > 0.0
    d = d[valid]
    u = u[valid].astype(float)
    v = v[valid].astype(float)
    cam = np.stack(
        [(u - image.cx) * d / image.fx, (v - image.cy) * d / image.fy, d], axis=1
    )
    base = cam @ image.rotation.T + image.translation
    return PointCloud(base)


def subsample(cloud: PointCloud, n_points: int) -> PointCloud:
    """Farthest-point subsample down to ``n_points``.

    Starts from the point nearest the cloud centroid and greedily adds the
    point farthest from the selected set; index order breaks ties, so the
    result is deterministic.  The picks are exactly those of the one-pick
    loop that updates every point's distance ``dist`` after each pick, made
    in batches:

    - While a pick's ball (the points within ``r = dist[pick]`` of it) holds
      at least 1/WHOLE_SHARE of the cloud, one pass updates every point.
    - Then each batch takes as candidates the points above ``tau``, the
      (FPS_BATCH + 1)-th largest ``dist`` (or, when the top values tie, the
      largest value below the maximum, or -inf).  It picks the farthest
      candidate (the lowest index on ties) and updates only the candidates,
      while that candidate is farther than ``tau``: every other point is at
      most ``tau`` away, and distances only fall, so it is the global pick.
    - No other point is farther than ``tau``, so only picks within ``tau``
      of it can bring it closer: one batched ball query of the batch's picks
      on a ``_CellGrid`` updates the rest.  Its pairs need only hold every
      point within ``tau`` of a pick, since the update takes exact minima.
      The grid is built with cells a ``CELL_SHARE`` of the radius wide and
      built again with finer cells once ``tau`` falls below ``REGRID`` of
      the radius it was built for, so a pick reads few cells.
    """
    integer("n_points", n_points, 1)
    pts = cloud.points
    n = pts.shape[0]
    if n <= n_points:
        return PointCloud(pts.copy())
    cols = np.ascontiguousarray(pts.T)
    centroid = pts.mean(axis=0)
    first = int(np.argmin(np.linalg.norm(pts - centroid, axis=1)))
    chosen = [first]
    dist = _distances(cols, cols[:, first, None])
    while len(chosen) < n_points:
        nxt = int(dist.argmax())
        chosen.append(nxt)
        d = _distances(cols, cols[:, nxt, None])
        in_ball = np.count_nonzero(d <= dist[nxt])
        np.minimum(dist, d, out=dist)
        if WHOLE_SHARE * in_ball < n:
            break
    grid = None
    rest = n - FPS_BATCH  # points that a full batch leaves out of its candidates
    while len(chosen) < n_points:
        tau = np.partition(dist, rest - 1)[rest - 1] if rest > 0 else -math.inf
        cand = np.flatnonzero(dist > tau)
        if cand.size == 0:  # the top FPS_BATCH + 1 values tie
            below = dist[dist < tau]
            tau = below.max() if below.size else -math.inf
            cand = np.flatnonzero(dist > tau)
        cd = dist[cand]
        cand_cols = cols[:, cand]
        start = len(chosen)
        while len(chosen) < n_points:
            j = int(cd.argmax())
            if not cd[j] > tau:
                break
            chosen.append(cand[j])
            np.minimum(cd, _distances(cand_cols, cand_cols[:, j, None]), out=cd)
        picks = chosen[start:]
        dist[cand] = cd
        if cand.size < n:
            radius = _slack(tau)
            if grid is None or radius < REGRID * grid.radius:
                grid = _CellGrid(pts, radius)
            owner, index = _ball_pairs(grid, pts[picks], radius)
            pick_cols = cols[:, picks]
            d = _distances(cols.take(index, axis=1), pick_cols.take(owner, axis=1))
            np.minimum.at(dist, index, d)
    return PointCloud(pts[chosen])


def _distances(cols: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Distances between the columns of (3, m) ``cols`` and of ``p``, (3, m)
    or (3, 1), rounded exactly as ``np.linalg.norm(axis=1)`` rounds the
    distances of the same rows."""
    sq = cols - p
    sq *= sq
    return np.sqrt((sq[0] + sq[1]) + sq[2])


class _CellGrid:
    """The points of a cloud sorted by cubic cell, x-major, for the ball
    queries of ``_ball_pairs``: each column of cells (fixed x and y cell)
    lists its points by z cell, so any z-run of its cells is one slice of
    ``order``.

    Cells are ``CELL_SHARE * radius`` wide (``radius`` padded to cover
    rounding), so a query of up to ``radius`` spans at most 11 columns
    along x and along y.  They are wider where the cloud's extent would
    need more than ``CELLS_PER_POINT`` cells a point; that bound also keeps
    every cell key far inside int64.  Coordinates are taken from the
    cloud's lowest corner, so a cloud far from the origin keeps the
    precision of its own extent.
    """

    def __init__(self, pts: np.ndarray, radius: float):
        # covers the rounding of coordinates, cell bounds and ball extents
        self.pad = 1e-12 * float(np.abs(pts).max())
        self.low = pts.min(axis=0)
        rel = pts - self.low
        extent = rel.max(axis=0).tolist()
        most = CELLS_PER_POINT * pts.shape[0]
        edge = max(CELL_SHARE * (radius + self.pad), max(extent) / most)
        while math.prod(int(e / edge) + 1 for e in extent) > most:
            edge *= 1.25
        self.dims = [int(e / edge) + 1 for e in extent]
        cell = np.floor(rel / edge).astype(np.intp)
        key = (cell[:, 0] * self.dims[1] + cell[:, 1]) * self.dims[2] + cell[:, 2]
        self.order = key.argsort()
        cells = math.prod(self.dims)
        self.starts = np.zeros(cells + 1, dtype=np.intp)  # key k holds order[starts[k]:starts[k + 1]]
        np.cumsum(np.bincount(key, minlength=cells), out=self.starts[1:])
        self.edge, self.radius = edge, radius


def _ball_pairs(grid: _CellGrid, points: np.ndarray, radius) -> tuple[np.ndarray, np.ndarray]:
    """One batched ball query, flattened: cloud point ``index[k]`` lies in
    a z-run of cells that the ball of ``radius`` around row ``owner[k]`` of
    ``points`` reaches.  The runs are trimmed to the ball: a column whose xy
    rectangle lies farther than ``radius`` from the row is skipped, and any
    other keeps the z cells that the ball spans at the rectangle's nearest
    xy point.  Every point within ``radius`` of a row is paired with it
    once; so are some points up to a cell diagonal farther out."""
    e, (nx, ny, nz) = grid.edge, grid.dims
    r = radius + grid.pad
    rel = points - grid.low
    k = int(r / e) + 1
    # x and y cell indices of the columns around each row, (P, 2, 2k + 1)
    xy = np.floor(rel[:, :2] / e).astype(np.intp)[:, :, None] + np.arange(-k, k + 1)
    below = xy * e - rel[:, :2, None]  # from each row up to a column's low face
    gap = np.maximum(np.maximum(below, -e - below), 0.0)
    gap *= gap
    gap[(xy < 0) | (xy >= np.array([[nx], [ny]]))] = math.inf
    h2 = (r * r - gap[:, 0, :, None]) - gap[:, 1, None, :]
    owner, i, j = np.nonzero(h2 >= 0.0)
    hz = np.sqrt(h2[owner, i, j])
    z = rel[owner, 2]
    base = (xy[owner, 0, i] * ny + xy[owner, 1, j]) * nz
    start = grid.starts.take(base + np.maximum(np.floor((z - hz) / e), 0.0).astype(np.intp))
    stop = grid.starts.take(base + np.minimum(np.floor((z + hz) / e), nz - 1).astype(np.intp) + 1)
    size = stop - start
    end = size.cumsum()  # not empty: each row's own column is in its ball
    pos = np.arange(end[-1]) + np.repeat(start - (end - size), size)
    return np.repeat(owner, size), grid.order.take(pos)


def _cell_centers(cells: np.ndarray, edge: float) -> np.ndarray:
    return (cells + 0.5) * edge


def _cells_to_spheres(cells: np.ndarray, voxel_radius: float) -> list[SphereObstacle]:
    centers = _cell_centers(cells, voxel_edge(voxel_radius))
    return [SphereObstacle(c, voxel_radius) for c in centers]


def voxelize_point_cloud(cloud: PointCloud, voxel_radius: float) -> list[SphereObstacle]:
    """Mark every lattice cell containing at least one point and return one
    circumscribing sphere per occupied cell."""
    cells = np.floor(cloud.points / voxel_edge(voxel_radius)).astype(np.int64)
    return _cells_to_spheres(np.unique(cells, axis=0), voxel_radius)


def _collapses(shape: PrimitiveShape, voxel_radius: float) -> bool:
    """The small-sphere rule of ``decompose_primitive``."""
    return isinstance(shape, SphereShape) and shape.radius <= voxel_radius


def _lattice_cells(shape: PrimitiveShape, voxel_radius: float) -> np.ndarray:
    """Integer lattice cells, (k, 3), whose centers lie within
    ``voxel_radius`` of the shape (signed distance <= voxel_radius)."""
    edge = voxel_edge(voxel_radius)
    lo, hi = _shape_aabb(shape)
    lo = lo - voxel_radius - edge
    hi = hi + voxel_radius + edge
    ranges = [
        np.arange(math.floor(lo[k] / edge), math.floor(hi[k] / edge) + 1)
        for k in range(3)
    ]
    ii, jj, kk = np.meshgrid(*ranges, indexing="ij")
    cells = np.stack([ii.ravel(), jj.ravel(), kk.ravel()], axis=1)
    keep = signed_distance(shape, _cell_centers(cells, edge)) <= voxel_radius
    return cells[keep]


def decompose_primitive(shape: PrimitiveShape, voxel_radius: float) -> list[SphereObstacle]:
    """Cover a primitive with lattice spheres: keep every cell whose center is
    within ``voxel_radius`` of the shape (signed distance <= voxel_radius).

    A sphere no larger than the voxel radius collapses to a single obstacle at
    its own center instead of a lattice stairstep.
    """
    if _collapses(shape, voxel_radius):
        return [SphereObstacle(shape.center, voxel_radius)]
    return _cells_to_spheres(_lattice_cells(shape, voxel_radius), voxel_radius)


def _shape_aabb(shape: PrimitiveShape) -> tuple[Vec3, Vec3]:
    if isinstance(shape, Cuboid):
        return shape.center - shape.half_extents, shape.center + shape.half_extents
    if isinstance(shape, SphereShape):
        r = shape.radius
        return shape.center - r, shape.center + r
    if isinstance(shape, Cylinder):
        reach = shape.half_length * np.abs(shape.axis) + shape.radius * np.sqrt(
            np.maximum(1.0 - shape.axis**2, 0.0)
        )
        return shape.center - reach, shape.center + reach
    raise TypeError(f"unknown primitive shape: {type(shape).__name__}")


# ---------------------------------------------------------------------------
# randomized scenes


class PlacementFailure(RuntimeError):
    """Raised when rejection sampling cannot place the goal or an obstacle."""


@dataclass(frozen=True)
class SceneRandomizerConfig:
    """Desk-scale scene generator settings.

    ``fixed_shapes`` model the furniture that is present in every scene;
    floating primitives are drawn uniformly inside the workspace and rejected
    while they sit closer than ``min_clearance + 2 * voxel_radius`` to the
    start or goal, which keeps every decomposed sphere surface at least
    ``min_clearance`` away from both.
    """

    workspace: WorkspaceBounds
    start: Vec3
    goal_region: WorkspaceBounds
    fixed_shapes: tuple[PrimitiveShape, ...] = ()
    min_count: int = 5
    max_count: int = 10
    sphere_radius_range: tuple[float, float] = (0.04, 0.10)
    cuboid_half_range: tuple[float, float] = (0.04, 0.10)
    cylinder_radius_range: tuple[float, float] = (0.03, 0.07)
    cylinder_half_length_range: tuple[float, float] = (0.08, 0.18)
    min_clearance: float = 0.12
    max_rejections: int = 200
    voxel_radius: float = 0.05

    def __post_init__(self):
        object.__setattr__(self, "start", as_vec3(self.start))
        object.__setattr__(self, "fixed_shapes", tuple(self.fixed_shapes))
        for name, low in (("min_count", 1), ("max_count", 1), ("max_rejections", 0)):
            integer(name, getattr(self, name), low)
        for name in (
            "sphere_radius_range",
            "cuboid_half_range",
            "cylinder_radius_range",
            "cylinder_half_length_range",
        ):
            pair = getattr(self, name)
            if not isinstance(pair, (tuple, list)) or len(pair) != 2:
                raise ValueError(f"{name} must be a pair of numbers, got {pair!r}")
            low, high = (finite_real(name, v) for v in pair)
            if not 0.0 < low <= high:
                raise ValueError(f"{name} must hold 0 < low <= high, got {pair!r}")
            object.__setattr__(self, name, (low, high))
        if finite_real("min_clearance", self.min_clearance) < 0.0:
            raise ValueError(f"min_clearance must be non-negative, got {self.min_clearance!r}")
        if finite_real("voxel_radius", self.voxel_radius) <= 0.0:
            raise ValueError(f"voxel_radius must be positive, got {self.voxel_radius!r}")
        if self.min_count > self.max_count:
            raise ValueError("need 0 < min_count <= max_count")


def default_desk_randomizer() -> SceneRandomizerConfig:
    """Tabletop workspace with a desk slab, a back wall and a corner pillar."""
    return SceneRandomizerConfig(
        workspace=WorkspaceBounds((-0.85, -0.85, 0.0), (0.85, 0.85, 1.1)),
        start=(-0.45, -0.35, 0.35),
        goal_region=WorkspaceBounds((0.20, -0.30, 0.30), (0.60, 0.40, 0.75)),
        fixed_shapes=(
            Cuboid(center=(0.15, 0.0, 0.02), half_extents=(0.50, 0.50, 0.02)),
            Cuboid(center=(0.0, 0.80, 0.45), half_extents=(0.60, 0.04, 0.45)),
            Cuboid(center=(-0.70, 0.60, 0.55), half_extents=(0.07, 0.07, 0.55)),
        ),
    )


def _clear_of_shapes(point: Vec3, shapes, margin: float) -> bool:
    for shape in shapes:
        if float(signed_distance(shape, point[None, :])[0]) < margin:
            return False
    return True


def _draw_shape(rng: np.random.Generator, cfg: SceneRandomizerConfig) -> PrimitiveShape:
    kind = int(rng.integers(0, 3))
    center = rng.uniform(cfg.workspace.min, cfg.workspace.max)
    if kind == 0:
        return SphereShape(center, float(rng.uniform(*cfg.sphere_radius_range)))
    if kind == 1:
        half = rng.uniform(cfg.cuboid_half_range[0], cfg.cuboid_half_range[1], size=3)
        return Cuboid(center, half)
    axis = rng.standard_normal(3)
    norm = np.linalg.norm(axis)
    axis = axis / norm if norm > 1e-12 else np.array([0.0, 0.0, 1.0])
    return Cylinder(
        center,
        axis,
        float(rng.uniform(*cfg.cylinder_radius_range)),
        float(rng.uniform(*cfg.cylinder_half_length_range)),
    )


def sample_scene_shapes(
    cfg: SceneRandomizerConfig, seed: int
) -> tuple[Vec3, tuple[PrimitiveShape, ...]]:
    """Draw the goal and the floating primitives for one scene, before any
    sphere decomposition.  Deterministic in ``seed``.

    Raises PlacementFailure after ``max_rejections`` consecutive rejected
    draws (of either the goal or a floating primitive).
    """
    rng = np.random.default_rng(seed)
    margin = cfg.min_clearance + 2.0 * cfg.voxel_radius

    if not _clear_of_shapes(cfg.start, cfg.fixed_shapes, margin):
        raise PlacementFailure("configured start is too close to fixed shapes")

    goal = None
    rejects = 0
    while goal is None:
        cand = rng.uniform(cfg.goal_region.min, cfg.goal_region.max)
        if cfg.workspace.contains(cand) and _clear_of_shapes(cand, cfg.fixed_shapes, margin):
            goal = cand
        else:
            rejects += 1
            if rejects > cfg.max_rejections:
                raise PlacementFailure("could not place a goal clear of fixed shapes")

    count = int(rng.integers(cfg.min_count, cfg.max_count + 1))
    floating: list[PrimitiveShape] = []
    rejects = 0
    while len(floating) < count:
        shape = _draw_shape(rng, cfg)
        if _clear_of_shapes(cfg.start, (shape,), margin) and _clear_of_shapes(
            goal, (shape,), margin
        ):
            floating.append(shape)
            rejects = 0
        else:
            rejects += 1
            if rejects > cfg.max_rejections:
                raise PlacementFailure(
                    f"gave up after {rejects} consecutive rejected placements"
                )
    return goal, tuple(floating)


def randomize_scene(cfg: SceneRandomizerConfig, seed: int) -> Scene:
    """Draw a goal and 5-10 floating primitives, decompose everything to
    spheres, and return a validated scene.  Deterministic in ``seed``.
    Obstacles are one sphere per distinct lattice cell, in cell order, then
    the collapsed small spheres in primitive order."""
    goal, floating = sample_scene_shapes(cfg, seed)
    r = cfg.voxel_radius
    shapes = (*cfg.fixed_shapes, *floating)
    cells = [_lattice_cells(s, r) for s in shapes if not _collapses(s, r)]
    cells = np.concatenate([np.empty((0, 3), dtype=np.int64), *cells])
    collapsed = [s.center for s in shapes if _collapses(s, r)]
    centers = np.concatenate(
        [_cell_centers(np.unique(cells, axis=0), voxel_edge(r)), np.reshape(collapsed, (-1, 3))]
    )
    scene = Scene.from_arrays(centers, np.full(centers.shape[0], r), cfg.start, goal, cfg.workspace)
    validate_scene(scene)
    return scene
