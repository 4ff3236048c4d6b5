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
from scipy.spatial import cKDTree

Vec3 = np.ndarray  # shape (3,), float64

_SQRT3 = math.sqrt(3.0)

# farthest-point subsampling: candidates per batch of exact picks, the share
# of the cloud below which a pick's ball no longer updates every point, and
# the leaf size of the tree of the batches' ball queries.  On desk clouds
# leaves of 64 points cut the ball queries' time by a sixth against the
# default of 16; 128 was no faster.  Compacting the nodes made the tree a
# quarter slower to build and no query faster
FPS_BATCH = 256
WHOLE_SHARE = 32
FPS_LEAF = 64

#: neighbours of each center that ``Scene.nn_centers`` asks the tree for first
NN_K = 8


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
    as numbers), nested lists of equal length, every entry finite.  Anything
    else, ragged lists and integers too large for a float included, raises a
    ValueError that names ``name``."""
    if not isinstance(value, np.ndarray):
        check_json_numbers(name, value)
    try:
        arr = np.asarray(value, dtype=float)
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{name} does not convert to a float array: {exc}") from None
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
    access.  The k-d tree and the other derived arrays are computed on first
    use and kept with the instance.  Scenes compare by identity.
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
    def tree(self) -> cKDTree:
        """k-d tree over ``centers``."""
        return cKDTree(self.centers)

    @cached_property
    def nn_centers(self) -> np.ndarray | None:
        """Center of each obstacle's nearest other obstacle, (n, 3); None for
        fewer than two obstacles.  Distance ties go to the lowest index.

        One k-d tree query of every center's ``NN_K`` nearest (see
        ``_nearest_others``) scores its candidates with ``((a - b) **
        2).sum()``; the lowest score, then the lowest index, wins.
        """
        centers = self.centers
        n = centers.shape[0]
        if n < 2:
            return None
        return _read_only(centers[_nearest_others(self.tree, centers, np.arange(n), NN_K)])

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
        within ``d_nn + 2t + (r_max - r_min)`` of ``x0``.  One ball query
        over the larger of the two radii keeps them all.

        When that ball must hold every center (always for one obstacle), the
        list is every index and the tree is not queried: all centers lie
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
        d_nn = float(self.tree.query(x0)[0])
        radius = max(reach + r_max + t, d_nn + 2.0 * t + (r_max - r_min))
        ball = self.tree.query_ball_point(x0, _slack(radius), return_sorted=True)
        return np.array(ball, dtype=np.intp)


def _nearest_others(tree: cKDTree, centers: np.ndarray, rows: np.ndarray, k: int) -> np.ndarray:
    """Index of the nearest other center of each center ``rows`` names:
    the lowest score ``((a - b) ** 2).sum()``, then the lowest index.

    The candidates are the tree's ``k`` nearest that lie within the
    second-nearest distance ``d_nn`` (the first is the center itself or a
    coincident one), widened by ``_slack`` to cover the tree's rounding.  A
    row whose last neighbour still lies within that bound may have more such
    centers, so it is asked again for twice as many."""
    n = centers.shape[0]
    k = min(k, n)
    x = centers[rows]
    d, j = tree.query(x, k=k)
    bound = _slack(d[:, 1])[:, None]
    d2 = ((x[:, None, :] - centers[j]) ** 2).sum(axis=2)
    d2[(j == rows[:, None]) | (d > bound)] = math.inf
    best = np.where(d2 == d2.min(axis=1, keepdims=True), j, n).min(axis=1)
    if k < n:
        more = (d[:, -1] <= bound[:, 0]).nonzero()[0]
        if more.size:
            best[more] = _nearest_others(tree, centers, rows[more], 2 * k)
    return best


def _slack(radius):
    """``radius`` widened to cover the tree's own rounding of distances."""
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
      updates the rest.  Its tree has leaves of ``FPS_LEAF`` points, since
      the query's cost is the tree walk, not the lists it returns.
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
    if len(chosen) < n_points:
        tree = cKDTree(pts, leafsize=FPS_LEAF, balanced_tree=False, compact_nodes=False)
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
            owner, index = _ball_pairs(tree, pts[picks], _slack(tau))
            np.minimum.at(dist, index, _distances(cols[:, index], cols[:, picks][:, owner]))
    return PointCloud(pts[chosen])


def _distances(cols: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Distances between the columns of (3, m) ``cols`` and of ``p``, (3, m)
    or (3, 1), rounded exactly as ``np.linalg.norm(axis=1)`` rounds the
    distances of the same rows."""
    sq = cols - p
    sq *= sq
    return np.sqrt((sq[0] + sq[1]) + sq[2])


def _ball_pairs(tree: cKDTree, points: np.ndarray, radius) -> tuple[np.ndarray, np.ndarray]:
    """One batched ball query, flattened: tree point ``index[k]`` lies within
    ``radius`` of row ``owner[k]`` of ``points``, in no particular order."""
    balls = tree.query_ball_point(points, radius, return_sorted=False)
    owner = np.repeat(np.arange(len(balls)), [len(b) for b in balls])
    index = np.fromiter(chain.from_iterable(balls), dtype=np.intp, count=owner.size)
    return owner, index


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
