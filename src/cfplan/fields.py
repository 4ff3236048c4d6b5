"""Force components that steer a point agent.

The circular-field term treats each obstacle like a current-carrying wire:
with an artificial current ``c`` the agent feels a Lorentz-style force

    F = v x (k_cf * c x v) = k_cf * (c * |v|^2 - v * (v . c))

which is perpendicular to the velocity and therefore does no work; it bends
the path around the obstacle without braking it.  Obstacles only act inside a
detection shell: the force is zero whenever the distance from the agent to
the obstacle *surface* exceeds ``r_d``.

Goal attraction is a damped pull toward the goal, written in the cancelled
form ``-k_v * v + k_p * (goal - x)`` so that it stays defined at
``k_v = 0``.  Repulsion uses the classic inverse-distance barrier, again gated
on surface distance.  A manipulability term pulls along the most poorly
actuated direction of an optional arm Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scene import SphereObstacle, Vec3, as_vec3

#: surface distances below this are clamped before entering 1/rho barriers
RHO_MIN = 1e-6


class OverlapError(ValueError):
    """Raised when a repulsion query starts inside (or on) an obstacle."""


@dataclass(frozen=True)
class AgentKinematics:
    position: Vec3
    velocity: Vec3

    def __post_init__(self):
        object.__setattr__(self, "position", as_vec3(self.position))
        object.__setattr__(self, "velocity", as_vec3(self.velocity))


@dataclass(frozen=True)
class GainSet:
    """Per-agent steering gains."""

    k_p: float = 0.0
    k_v: float = 0.0
    k_cf: float = 0.0
    k_manip: float = 0.0
    k_r: float = 0.0


def attractive_force(kin: AgentKinematics, goal, gains: GainSet) -> np.ndarray:
    """Damped goal attraction: ``-k_v * v + k_p * (goal - x)``."""
    goal = as_vec3(goal)
    return -gains.k_v * kin.velocity + gains.k_p * (goal - kin.position)


def circular_field_force(
    kin: AgentKinematics, obstacle: SphereObstacle, current, k_cf: float, r_d: float
) -> np.ndarray:
    """Lorentz-style force ``k_cf * (c |v|^2 - v (v . c))`` for one obstacle.

    Returns exactly zero when the agent is farther than ``r_d`` from the
    obstacle surface.
    """
    if obstacle.surface_distance(kin.position) > r_d:
        return np.zeros(3)
    c = as_vec3(current)
    v = kin.velocity
    return k_cf * (c * float(v @ v) - v * float(v @ c))


def repulsive_force(
    kin: AgentKinematics, obstacle: SphereObstacle, k_r: float, r_d: float
) -> np.ndarray:
    """Inverse-distance barrier ``k_r (1/rho - 1/r_d) / rho^2`` pushing away
    from the closest surface point; zero outside the detection shell.

    Raises OverlapError when the agent is inside or on the obstacle, because
    the barrier direction is undefined there.
    """
    rho = obstacle.surface_distance(kin.position)
    if rho > r_d:
        return np.zeros(3)
    if rho <= 0.0:
        raise OverlapError(
            f"agent at {kin.position} overlaps obstacle at {obstacle.center}"
        )
    away = kin.position - obstacle.center
    away = away / np.linalg.norm(away)
    return k_r * (1.0 / rho - 1.0 / r_d) * (1.0 / rho**2) * away


def manipulability_force(jacobian: np.ndarray, gains: GainSet) -> np.ndarray:
    """Pull of magnitude ``k_manip`` along the translational
    direction the arm actuates worst.

    That direction is the left singular vector of the smallest singular value
    of the 3 x n Jacobian.  Ties within 1e-9 of the minimum resolve to the
    smallest index of the descending SVD order, and the vector sign is fixed
    by making its first component with magnitude above 1e-12 positive.
    """
    j = np.asarray(jacobian, dtype=float)
    if j.ndim != 2 or j.shape[0] != 3:
        raise ValueError("jacobian must have shape (3, n)")
    u, s, _ = np.linalg.svd(j)
    idx = int(np.argmax(s <= s[-1] + 1e-9))  # s is descending
    w = u[:, idx].copy()
    for comp in w:
        if abs(comp) > 1e-12:
            if comp < 0.0:
                w = -w
            break
    return gains.k_manip * w


def steering_force(
    kin: AgentKinematics,
    goal,
    obstacles,
    currents,
    gains: GainSet,
    r_d: float,
    jacobian: np.ndarray | None = None,
) -> np.ndarray:
    """Sum of all force components for one agent state.

    ``currents`` must align with ``obstacles``; each gain enters exactly once,
    inside its component.
    """
    f = attractive_force(kin, goal, gains)
    for obstacle, current in zip(obstacles, currents, strict=True):
        f += circular_field_force(kin, obstacle, current, gains.k_cf, r_d)
        f += repulsive_force(kin, obstacle, gains.k_r, r_d)
    if jacobian is not None:
        f += manipulability_force(jacobian, gains)
    return f
