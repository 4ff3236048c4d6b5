"""Artificial-current heuristics.

Each predictive agent assigns every obstacle a unit "current" vector; the
circular field then bends the trajectory around the obstacle in the plane
normal to that current.  Agents 1-5 use the named deterministic heuristics
below, agents 6 and up draw random currents from their own seeded stream.

All heuristics share one degenerate-case fallback: whenever a defining cross
product has norm below 1e-9, the current becomes ``normalize(d x e_z)`` (or
``normalize(d x e_x)`` if that is degenerate too), with ``d`` the unit vector
from the agent to the obstacle center.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .fields import AgentKinematics
from .scene import SphereObstacle, as_vec3
from .vec3 import cross, dots, norms

_EPS = 1e-9
_EZ = np.array([0.0, 0.0, 1.0])
_EX = np.array([1.0, 0.0, 0.0])


class HeuristicKind(Enum):
    VELOCITY = "velocity"
    PATH_LENGTH = "path_length"
    GOAL_VECTOR = "goal_vector"
    OBSTACLE_DISTANCE = "obstacle_distance"
    PATH_LENGTH_OBSTACLE_DISTANCE = "path_length_obstacle_distance"
    RANDOM = "random"


def agent_heuristic(agent_id: int) -> HeuristicKind:
    """Heuristic assignment by 1-based agent id: five deterministic agents,
    then random ones."""
    order = (
        HeuristicKind.VELOCITY,
        HeuristicKind.PATH_LENGTH,
        HeuristicKind.GOAL_VECTOR,
        HeuristicKind.OBSTACLE_DISTANCE,
        HeuristicKind.PATH_LENGTH_OBSTACLE_DISTANCE,
    )
    if agent_id < 1:
        raise ValueError("agent ids are 1-based")
    if agent_id <= len(order):
        return order[agent_id - 1]
    return HeuristicKind.RANDOM


_NO_ROWS = np.zeros(0, dtype=np.intp)


def _scale_rows(rows: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``rows / n`` row by row, and the indices of rows whose ``n`` is at most
    _EPS (those are left unscaled)."""
    if n[n.argmin()] > _EPS:  # argmin stops at a NaN, which fails the test
        return rows / n[:, None], _NO_ROWS
    return rows / np.where(n > _EPS, n, 1.0)[:, None], (n <= _EPS).nonzero()[0]


def _with_fallback(raw: np.ndarray, dhat: np.ndarray) -> np.ndarray:
    unit, bad = _scale_rows(raw, norms(raw))
    if bad.size:
        alt = cross(dhat[bad], _EZ)
        alt, worse = _scale_rows(alt, norms(alt))
        if worse.size:
            last = cross(dhat[bad[worse]], _EX)
            alt[worse] = _scale_rows(last, norms(last))[0]
        unit[bad] = alt
    return unit


# per-agent switches, one column each: w is the neighbour offset, the
# current flips toward the goal, the current is the combined kind's
_NEIGHBOUR_W, _FLIP, _COMBINED = range(3)


def _committee_layout(kinds: tuple[HeuristicKind, ...]):
    """What ``batch_currents`` needs to know of a committee's heuristics: the
    (A, 1) mask of agents whose w is the goal offset (an obstacle-distance
    agent's is, until its neighbour switch overwrites it), the (A, 3)
    switches and the (A,) mask of the random agents, None when there are
    none."""
    K = HeuristicKind

    def agents(*on):
        return np.array([k in on for k in kinds], dtype=bool)[:, None]

    random = agents(K.RANDOM)[:, 0]
    return (
        agents(K.GOAL_VECTOR, K.OBSTACLE_DISTANCE),
        np.hstack((
            agents(K.OBSTACLE_DISTANCE),
            agents(K.PATH_LENGTH, K.PATH_LENGTH_OBSTACLE_DISTANCE),
            agents(K.PATH_LENGTH_OBSTACLE_DISTANCE),
        )),
        random if random.any() else None,
    )


def batch_currents(
    layout: tuple,
    agent: np.ndarray,
    positions: np.ndarray,
    velocities: np.ndarray,
    offsets: np.ndarray,
    distances: np.ndarray,
    goal: np.ndarray,
    nn_centers: np.ndarray | None,
    normals: np.ndarray,
) -> np.ndarray:
    """Unit current of every (agent, obstacle) pair of a committee.

    ``layout`` is ``_committee_layout(kinds)`` of the committee's heuristics
    (``Committee.layout``): agent ``a`` has heuristic ``kinds[a]`` and state
    ``positions[a]``, ``velocities[a]``.  Pair ``k`` couples agent ``agent[k]``
    (non-decreasing) with an obstacle whose center lies at
    ``positions[agent[k]] - offsets[k]``, at distance ``distances[k]`` (the
    norm of ``offsets[k]``); that obstacle's nearest other obstacle is
    centered at ``nn_centers[k]`` (None when the scene has fewer than two
    obstacles).

    Each pair dispatches on its agent's kind, and every row rounds alone:
    it depends only on its own pair and its agent's state, so it is bitwise
    the row of a call for that agent alone.  The pairs of random agents take
    their raw currents from ``normals``, one row per such pair in pair
    order: standard normals, each agent's from its own stream in row order,
    as one-obstacle calls would draw them one after another.
    """
    m = agent.shape[0]
    if m == 0:
        return np.zeros((0, 3))
    goal_w, switches, random = layout
    switches = switches.take(agent, axis=0)
    # d = (center - x) / |center - x|, unscaled when the norm is tiny;
    # 0 - (x - center) rounds like center - x, signed zeros included
    dhat = _scale_rows(0.0 - offsets, distances)[0]

    # each deterministic kind crosses d with w: the velocity, the goal
    # offset, or the offset from the obstacle's nearest neighbour (the goal
    # offset again when there is none).  The combined kind needs both a
    # velocity and an obstacle-distance current, so its second vector rides
    # along in extra rows m, m + 1, ...
    to_goal = goal - positions
    w = np.where(goal_w, to_goal, velocities).take(agent, axis=0)
    if nn_centers is not None:
        neighbour = positions.take(agent, axis=0) - nn_centers
        w = np.where(switches[:, _NEIGHBOUR_W, None], neighbour, w)
    both = switches[:, _COMBINED].nonzero()[0]
    d = dhat
    if both.size:
        if nn_centers is None:
            second = to_goal.take(agent.take(both), axis=0)
        else:
            second = neighbour.take(both, axis=0)
        d = np.concatenate((dhat, dhat.take(both, axis=0)))
        w = np.concatenate((w, second))
    raw = cross(d, w)
    if random is not None:
        raw[:m][random.take(agent)] = normals
    unit = _with_fallback(raw, d)

    path = switches[:, _FLIP].nonzero()[0]
    if path.size:
        owner = agent.take(path)
        unit[path] = _flip_toward_goal(
            unit.take(path, axis=0),
            velocities.take(owner, axis=0),
            to_goal.take(owner, axis=0),
        )
    if both.size:
        unit[both] = _with_fallback(unit.take(both, axis=0) + unit[m:], dhat.take(both, axis=0))
    return unit[:m]


def _flip_toward_goal(c, v, gap):
    # keep the velocity-heuristic current, but flip its sign if the opposite
    # rotation produces a force better aligned with the goal direction:
    # score = (c |v|^2 - v (v . c)) . (goal - x), with v and gap = goal - x
    # given per row.  Each row rounds alone, with the dot products of
    # ``compute_current`` (``dots``).  Flips c in place.
    force = c * dots(v, v)[:, None] - v * dots(c, v)[:, None]
    return np.negative(c, out=c, where=(dots(force, gap) < 0.0)[:, None])


def _unit(raw: np.ndarray, d: np.ndarray) -> np.ndarray:
    # normalize raw; below _EPS fall back to d x e_z, then to d x e_x
    for vec in (raw, np.cross(d, _EZ), np.cross(d, _EX)):
        n = float(norms(vec))
        if n > _EPS:
            return vec / n
    return vec


def compute_current(
    kind: HeuristicKind,
    kin: AgentKinematics,
    obstacle: SphereObstacle,
    goal,
    others: tuple[SphereObstacle, ...] = (),
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Unit current for a single obstacle: the scalar reference that
    ``batch_currents`` vectorizes, written one heuristic at a time.

    ``others`` lists the remaining obstacles (used by the obstacle-distance
    heuristics to find the nearest neighbor of ``obstacle``; the first of
    equally near ones wins).  ``rng`` is required for random heuristics.
    """
    goal = as_vec3(goal)
    x, v = kin.position, kin.velocity
    if kind is HeuristicKind.RANDOM and rng is None:
        raise ValueError("random heuristics need an rng")
    d = obstacle.center - x
    n = float(norms(d))
    if n > _EPS:
        d = d / n

    def path_length():
        c = _unit(np.cross(d, v), d)
        force = c * float(v @ v) - v * float(v @ c)
        return -c if float(force @ (goal - x)) < 0.0 else c

    def obstacle_distance():
        if not others:
            return _unit(np.cross(d, goal - x), d)
        centers = np.stack([o.center for o in others])
        nn = centers[int(np.argmin(np.linalg.norm(centers - obstacle.center, axis=1)))]
        return _unit(np.cross(d, x - nn), d)

    if kind is HeuristicKind.RANDOM:
        return _unit(rng.standard_normal(3), d)
    if kind is HeuristicKind.VELOCITY:
        return _unit(np.cross(d, v), d)
    if kind is HeuristicKind.GOAL_VECTOR:
        return _unit(np.cross(d, goal - x), d)
    if kind is HeuristicKind.PATH_LENGTH:
        return path_length()
    if kind is HeuristicKind.OBSTACLE_DISTANCE:
        return obstacle_distance()
    if kind is HeuristicKind.PATH_LENGTH_OBSTACLE_DISTANCE:
        return _unit(path_length() + obstacle_distance(), d)
    raise ValueError(f"unknown heuristic kind: {kind}")
