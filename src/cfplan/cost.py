"""Cost functions.

``agent_cost`` ranks candidate rollouts during replanning; ``trajectory_cost``
scores a full executed trajectory and is the objective the tuner minimizes.
Both recompute obstacle distances from the scene rather than trusting the
clearance values stored on the trajectory, so they also score trajectories
that were produced elsewhere.  ``agent_cost`` needs only the closest approach,
so it scans just the obstacles of ``Scene.neighbour_list`` for the rollout's
samples, which include one attaining each sample's minimum.

Distances to obstacles are surface distances (negative inside a sphere) and
are clamped at 1e-6 before entering any 1/d term, so collisions produce large
finite costs instead of overflow.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .scene import Scene, WorkspaceBounds, finite_real

D_CLAMP = 1e-6
CLEARANCE_CHUNK = 64  # rows per surface_clearances block: bounds its (rows, n, 3) temporary


def _check_weights(weights) -> None:
    for field in fields(weights):
        finite_real(f"{type(weights).__name__}.{field.name}", getattr(weights, field.name))


@dataclass(frozen=True)
class AgentCostWeights:
    path_length: float = 1.0
    goal_distance: float = 5.0
    obstacle: float = 0.5
    workspace: float = 10.0

    def __post_init__(self):
        _check_weights(self)


@dataclass(frozen=True)
class TrajectoryCostWeights:
    clearance: float = 0.03
    path_length: float = 0.3
    smoothness: float = 0.01
    goal_deviation: float = 10.0

    def __post_init__(self):
        _check_weights(self)


def surface_clearances(
    positions: np.ndarray, centers: np.ndarray, radii: np.ndarray
) -> np.ndarray:
    """Per-row minimum surface distance to any sphere; empty scenes yield +inf."""
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    s = positions.shape[0]
    if centers.shape[0] == 0:
        return np.full(s, np.inf)
    out = np.empty(s)
    for i in range(0, s, CLEARANCE_CHUNK):
        block = positions[i : i + CLEARANCE_CHUNK]
        d = np.linalg.norm(block[:, None, :] - centers[None, :, :], axis=2) - radii
        out[i : i + CLEARANCE_CHUNK] = d.min(axis=1)
    return out


def workspace_violation(positions: np.ndarray, workspace: WorkspaceBounds) -> float:
    """Sum of squared per-axis box violations over all rows."""
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    below = np.maximum(workspace.min - positions, 0.0)
    above = np.maximum(positions - workspace.max, 0.0)
    return float((below**2).sum() + (above**2).sum())


def _path_length(positions: np.ndarray) -> float:
    if positions.shape[0] < 2:
        return 0.0
    return float(np.linalg.norm(np.diff(positions, axis=0), axis=1).sum())


def agent_cost(traj, scene: Scene, weights: AgentCostWeights) -> float:
    """Rollout score: path length + final distance to ``scene.goal`` + an
    inverse-clearance penalty + squared workspace violations.

    The clearance and workspace terms skip the first sample (the shared start
    state of all candidate rollouts).  The clearance term uses the single
    closest approach over all later samples and obstacles and vanishes when
    the scene has no obstacles.
    """
    pos = traj.positions
    c = weights.path_length * _path_length(pos)
    c += weights.goal_distance * float(np.linalg.norm(scene.goal - pos[-1]))
    if scene.radii.shape[0] > 0 and pos.shape[0] >= 2:
        near = scene.neighbour_list(pos[1:], 0.0)
        centers, radii = scene.centers.take(near, axis=0), scene.radii.take(near)
        d_min = float(surface_clearances(pos[1:], centers, radii).min())
        c += weights.obstacle / max(d_min, D_CLAMP)
    if pos.shape[0] >= 2:
        c += weights.workspace * workspace_violation(pos[1:], scene.workspace)
    return float(c)


def trajectory_cost(traj, scene: Scene, weights: TrajectoryCostWeights) -> float:
    """Executed-trajectory score used as the tuning objective.

    With samples x_0..x_T the terms are the mean inverse clearance over
    x_1..x_T, the total path length, the squared second differences at the
    interior samples x_2..x_(T-1) summed and divided by T - 1 (zero for fewer
    than three steps), and the final distance to ``scene.goal``.
    """
    pos = traj.positions
    centers, radii = scene.centers, scene.radii
    steps = pos.shape[0] - 1
    c = weights.path_length * _path_length(pos)
    c += weights.goal_deviation * float(np.linalg.norm(pos[-1] - scene.goal))
    if centers.shape[0] > 0 and steps >= 1:
        d = np.maximum(surface_clearances(pos[1:], centers, radii), D_CLAMP)
        c += weights.clearance * float((1.0 / d).mean())
    if steps >= 3:
        second = pos[2:] - 2.0 * pos[1:-1] + pos[:-2]  # rows at samples 1..T-1
        interior = second[1:]  # drop the kink at the very first step
        c += weights.smoothness * float((interior**2).sum()) / (steps - 1)
    return float(c)
