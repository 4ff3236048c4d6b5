"""Scene model: spherical obstacles, primitive shapes, point clouds, and
randomized desk-scale environments.

Everything downstream (force fields, rollouts, cost terms) consumes spheres
only, so this module also owns the conversions that turn primitives, point
clouds and depth images into sphere sets.  All conversions share one cubic
lattice whose edge ``2*r/sqrt(3)`` makes a sphere of radius ``r`` circumscribe
a cell, so occupied cells are covered without gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

Vec3 = np.ndarray  # shape (3,), float64

_SQRT3 = math.sqrt(3.0)


def as_vec3(value) -> Vec3:
    v = np.asarray(value, dtype=float).reshape(3)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"non-finite 3-vector: {value!r}")
    return v


def voxel_edge(voxel_radius: float) -> float:
    """Lattice edge length for which a sphere of ``voxel_radius`` circumscribes a cell."""
    if voxel_radius <= 0.0:
        raise ValueError("voxel_radius must be positive")
    return 2.0 * voxel_radius / _SQRT3


@dataclass(frozen=True)
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
        object.__setattr__(self, "radius", float(self.radius))
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
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "half_length", float(self.half_length))
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

    def contains(self, point, margin: float = 0.0) -> bool:
        p = as_vec3(point)
        return bool(np.all(p >= self.min + margin) and np.all(p <= self.max - margin))

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


@dataclass(frozen=True)
class Scene:
    """Spherical obstacles, start, goal and workspace box.

    The obstacle arrays the planner and the costs scan are computed on first
    use and kept with the instance (read-only, since every caller shares
    them).
    """

    obstacles: tuple[SphereObstacle, ...]
    start: Vec3
    goal: Vec3
    workspace: WorkspaceBounds

    def __post_init__(self):
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        object.__setattr__(self, "start", as_vec3(self.start))
        object.__setattr__(self, "goal", as_vec3(self.goal))

    @cached_property
    def centers(self) -> np.ndarray:
        """Obstacle centers, (n, 3)."""
        centers = np.array([o.center for o in self.obstacles], dtype=float)
        return _read_only(centers.reshape(-1, 3))

    @cached_property
    def radii(self) -> np.ndarray:
        """Obstacle radii, (n,)."""
        return _read_only(np.array([o.radius for o in self.obstacles], dtype=float))

    @cached_property
    def nn_centers(self) -> np.ndarray | None:
        """Center of each obstacle's nearest other obstacle, (n, 3); None for
        fewer than two obstacles.  Distance ties go to the lowest index."""
        centers = self.centers
        n = centers.shape[0]
        if n < 2:
            return None
        chunk = 512  # bounds the (chunk, n) distance block
        nearest = np.empty(n, dtype=np.int64)
        for s in range(0, n, chunk):
            block = centers[s : s + chunk]
            d2 = ((block[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            rows = np.arange(block.shape[0])
            d2[rows, s + rows] = np.inf
            nearest[s : s + chunk] = d2.argmin(axis=1)
        return _read_only(centers[nearest])


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
    return Scene(
        obstacles=[SphereObstacle(center=(start + goal) / 2.0, radius=radius)],
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
    result is deterministic.
    """
    pts = cloud.points
    n = pts.shape[0]
    if n_points <= 0:
        raise ValueError("n_points must be positive")
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


def _cells_to_spheres(cells: np.ndarray, edge: float, voxel_radius: float) -> list[SphereObstacle]:
    centers = (cells + 0.5) * edge
    return [SphereObstacle(c, voxel_radius) for c in centers]


def _dedupe_cells(cells: np.ndarray) -> np.ndarray:
    if cells.shape[0] == 0:
        return cells
    return np.unique(cells, axis=0)


def voxelize_point_cloud(cloud: PointCloud, voxel_radius: float) -> list[SphereObstacle]:
    """Mark every lattice cell containing at least one point and return one
    circumscribing sphere per occupied cell."""
    edge = voxel_edge(voxel_radius)
    if len(cloud) == 0:
        return []
    cells = np.floor(cloud.points / edge).astype(np.int64)
    return _cells_to_spheres(_dedupe_cells(cells), edge, voxel_radius)


def decompose_primitive(shape: PrimitiveShape, voxel_radius: float) -> list[SphereObstacle]:
    """Cover a primitive with lattice spheres: keep every cell whose center is
    within ``voxel_radius`` of the shape (signed distance <= voxel_radius).

    A sphere no larger than the voxel radius collapses to a single obstacle at
    its own center instead of a lattice stairstep.
    """
    if isinstance(shape, SphereShape) and shape.radius <= voxel_radius:
        return [SphereObstacle(shape.center, voxel_radius)]
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
    centers = (cells + 0.5) * edge
    keep = signed_distance(shape, centers) <= voxel_radius
    return _cells_to_spheres(cells[keep], edge, voxel_radius)


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
        if not (0 < self.min_count <= self.max_count):
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
    spheres, and return a validated scene.  Deterministic in ``seed``."""
    goal, floating = sample_scene_shapes(cfg, seed)
    edge = voxel_edge(cfg.voxel_radius)
    all_cells = []
    for shape in (*cfg.fixed_shapes, *floating):
        for obs in decompose_primitive(shape, cfg.voxel_radius):
            if isinstance(shape, SphereShape) and shape.radius <= cfg.voxel_radius:
                # the small-sphere shortcut is off-lattice; keep it verbatim
                all_cells.append(("sphere", obs))
            else:
                all_cells.append(("cell", obs))
    lattice = [o for tag, o in all_cells if tag == "cell"]
    loose = [o for tag, o in all_cells if tag == "sphere"]
    if lattice:
        cells = np.floor(np.stack([o.center for o in lattice]) / edge).astype(np.int64)
        lattice = _cells_to_spheres(_dedupe_cells(cells), edge, cfg.voxel_radius)
    scene = Scene(
        obstacles=tuple(lattice + loose),
        start=cfg.start,
        goal=goal,
        workspace=cfg.workspace,
    )
    validate_scene(scene)
    return scene
