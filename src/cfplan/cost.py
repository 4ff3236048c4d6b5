"""Cost functions.

``agent_costs`` ranks a replan's candidate rollouts, all in one call, from
the per-sample clearances the rollouts recorded; ``agent_cost`` scores one
trajectory and ``trajectory_cost`` scores a full executed trajectory, the
objective the tuner minimizes.  Those two recompute obstacle distances from
the scene rather than trusting the clearance values stored on the
trajectory, so they also score trajectories that were produced elsewhere.
They take them from ``scene_clearances``, which splits the samples into
blocks of ``LIST_BLOCK`` rows and runs the brute ``surface_clearances`` scan
of each block over just the obstacles of its own ``Scene.neighbour_list``;
those include one attaining each sample's minimum, so the result is bitwise
that of a scan over the whole scene.

Distances to obstacles are surface distances (negative inside a sphere) and
are clamped at 1e-6 before entering any 1/d term, so collisions produce large
finite costs instead of overflow.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .scene import Scene, WorkspaceBounds, finite_real
from .vec3 import dots, norms

D_CLAMP = 1e-6
CLEARANCE_CHUNK = 64  # rows per surface_clearances block: bounds its (rows, n, 3) temporary
#: rows per neighbour list in ``scene_clearances``.  On desk plans 16 was the
#: fastest of 8, 16, 32 and 64; whole-scene scans are faster in 64-row chunks.
LIST_BLOCK = 16


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


def scene_clearances(rows: np.ndarray, scene: Scene) -> np.ndarray:
    """Bitwise ``surface_clearances(rows, scene.centers, scene.radii)``: each
    block of ``LIST_BLOCK`` rows scans only the obstacles of its own
    ``Scene.neighbour_list``, which holds one attaining each row's minimum.
    Once a list holds every obstacle (always for one), the block and all
    later rows are scanned in one call."""
    rows = np.asarray(rows, dtype=float).reshape(-1, 3)
    out = np.empty(rows.shape[0])
    for i in range(0, rows.shape[0], LIST_BLOCK):
        block = rows[i : i + LIST_BLOCK]
        near = scene.neighbour_list(block, 0.0)
        if near.shape[0] == scene.radii.shape[0]:
            out[i:] = surface_clearances(rows[i:], scene.centers, scene.radii)
            break
        out[i : i + LIST_BLOCK] = surface_clearances(
            block, scene.centers.take(near, axis=0), scene.radii.take(near)
        )
    return out


def workspace_violation(positions: np.ndarray, workspace: WorkspaceBounds) -> float:
    """Sum of squared per-axis box violations over all rows."""
    positions = np.asarray(positions, dtype=float).reshape(1, -1, 3)
    return float(_violations(positions, workspace)[0])


def _violations(stacks: np.ndarray, workspace: WorkspaceBounds) -> np.ndarray:
    """``workspace_violation`` of each (s, 3) stack of (A, s, 3) rows."""
    below = np.maximum(workspace.min - stacks, 0.0)
    above = np.maximum(stacks - workspace.max, 0.0)
    return (below**2).sum(axis=(1, 2)) + (above**2).sum(axis=(1, 2))


def _path_lengths(stacks: np.ndarray) -> np.ndarray:
    """Path length of each (s, 3) stack of (A, s, 3) samples."""
    return norms(np.diff(stacks, axis=1)).sum(axis=1)


def agent_costs(
    positions: np.ndarray, clearances: np.ndarray, scene: Scene, weights: AgentCostWeights
) -> np.ndarray:
    """Rollout scores of the (A, s, 3) sample stacks ``positions``, whose
    (A, s) ``clearances`` are each sample's surface distance to the nearest
    obstacle, (A,): path length + final distance to ``scene.goal`` + an
    inverse-clearance penalty + squared workspace violations.

    The clearance and workspace terms skip the first sample (the shared start
    state of all candidate rollouts).  The clearance term uses the single
    closest approach over all later samples and vanishes when the scene has
    no obstacles.  Each score is bitwise the one its rollout gets alone.
    """
    pos, clr = np.asarray(positions, dtype=float), np.asarray(clearances, dtype=float)
    if pos.ndim != 3 or pos.shape[1] == 0 or pos.shape[2] != 3:
        raise ValueError(f"positions must have shape (A, s >= 1, 3), got {pos.shape}")
    if clr.shape != pos.shape[:2]:
        raise ValueError(f"clearances must have shape {pos.shape[:2]}, got {clr.shape}")
    gap = scene.goal - pos[:, -1]
    c = weights.path_length * _path_lengths(pos)
    c = c + weights.goal_distance * np.sqrt(dots(gap, gap))
    if pos.shape[1] >= 2:
        later = pos[:, 1:]
        if scene.radii.shape[0] > 0:
            d_min = np.minimum.reduce(clr[:, 1:], axis=1)
            c = c + weights.obstacle / np.maximum(d_min, D_CLAMP)
        c = c + weights.workspace * _violations(later, scene.workspace)
    return c


def agent_cost(traj, scene: Scene, weights: AgentCostWeights) -> float:
    """``agent_costs`` of one trajectory, its clearances scanned from the scene."""
    clr = scene_clearances(traj.positions, scene)
    return float(agent_costs(traj.positions[None], clr[None], scene, weights)[0])


def trajectory_cost(traj, scene: Scene, weights: TrajectoryCostWeights) -> float:
    """Executed-trajectory score used as the tuning objective.

    With samples x_0..x_T the terms are the mean inverse clearance over
    x_1..x_T, the total path length, the squared second differences at the
    interior samples x_2..x_(T-1) summed and divided by T - 1 (zero for fewer
    than three steps), and the final distance to ``scene.goal``.
    """
    pos = traj.positions
    steps = pos.shape[0] - 1
    c = weights.path_length * float(_path_lengths(pos[None])[0])
    c += weights.goal_deviation * float(np.linalg.norm(pos[-1] - scene.goal))
    if scene.radii.shape[0] > 0 and steps >= 1:
        d = np.maximum(scene_clearances(pos[1:], scene), D_CLAMP)
        c += weights.clearance * float((1.0 / d).mean())
    if steps >= 3:
        second = pos[2:] - 2.0 * pos[1:-1] + pos[:-2]  # rows at samples 1..T-1
        interior = second[1:]  # drop the kink at the very first step
        c += weights.smoothness * float((interior**2).sum()) / (steps - 1)
    return float(c)
