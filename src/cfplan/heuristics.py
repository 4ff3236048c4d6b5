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

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

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


@dataclass(frozen=True)
class CurrentHeuristic:
    kind: HeuristicKind
    stream: int = 0  # distinguishes independent random heuristics


def agent_heuristic(agent_id: int) -> CurrentHeuristic:
    """Heuristic assignment by 1-based agent id: five deterministic agents,
    then independent random streams."""
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
        return CurrentHeuristic(order[agent_id - 1])
    return CurrentHeuristic(HeuristicKind.RANDOM, stream=agent_id - len(order))


def _normalize_rows(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows scaled to unit norm, and the indices of rows with a norm of at
    most _EPS (those are left unscaled)."""
    n = norms(m)
    return m / np.where(n > _EPS, n, 1.0)[:, None], (n <= _EPS).nonzero()[0]


def _with_fallback(raw: np.ndarray, dhat: np.ndarray) -> np.ndarray:
    unit, bad = _normalize_rows(raw)
    if bad.size:
        alt, worse = _normalize_rows(cross(dhat[bad], _EZ))
        if worse.size:
            alt[worse] = _normalize_rows(cross(dhat[bad[worse]], _EX))[0]
        unit[bad] = alt
    return unit


_VELOCITY, _PATH, _GOAL, _OBSTACLE, _BOTH, _RANDOM = range(len(HeuristicKind))


@lru_cache(maxsize=64)
def _kind_codes(kinds: tuple[HeuristicKind, ...]) -> np.ndarray:
    """Each agent's kind as its position in HeuristicKind (read-only)."""
    codes = np.array([list(HeuristicKind).index(k) for k in kinds])
    codes.flags.writeable = False
    return codes


def pair_currents(
    kinds: tuple[HeuristicKind, ...],
    agent: np.ndarray,
    positions: np.ndarray,
    velocities: np.ndarray,
    offsets: np.ndarray,
    distances: np.ndarray,
    goal: np.ndarray,
    nn_centers: np.ndarray | None,
    rngs,
) -> np.ndarray:
    """Unit current of every (agent, obstacle) pair of a committee.

    Agent ``a`` has heuristic ``kinds[a]``, state ``positions[a]``,
    ``velocities[a]`` and generator ``rngs[a]`` (read for random kinds only).
    Pair ``k`` couples agent ``agent[k]`` (non-decreasing) with an obstacle
    whose center lies at ``positions[agent[k]] - offsets[k]``, at distance
    ``distances[k]`` (the norm of ``offsets[k]``); that obstacle's nearest
    other obstacle is centered at ``nn_centers[k]`` (None when the scene has
    fewer than two obstacles).

    Each pair dispatches on its agent's kind, and every row rounds exactly
    as a call for that agent alone would.  A random agent draws its rows from
    its own generator in one call, in row order, so they match repeated
    single-obstacle calls on the same generator state.
    """
    m = agent.shape[0]
    if m == 0:
        return np.zeros((0, 3))
    codes = _kind_codes(kinds)
    kind = codes.take(agent)
    # d = (center - x) / |center - x|, unscaled when the norm is tiny;
    # 0 - (x - center) rounds like center - x, signed zeros included
    dhat = (0.0 - offsets) / np.where(distances > _EPS, distances, 1.0)[:, None]

    # each deterministic kind crosses d with w: the velocity, the goal
    # offset, or the offset from the obstacle's nearest neighbour (the goal
    # offset again when there is none).  The combined kind needs both a
    # velocity and an obstacle-distance current, so its second vector rides
    # along in extra rows m, m + 1, ...
    to_goal = goal - positions
    pair_to_goal = to_goal.take(agent, axis=0)
    if nn_centers is None:
        neighbour = pair_to_goal
    else:
        neighbour = positions.take(agent, axis=0) - nn_centers
    w = np.where((kind == _GOAL)[:, None], pair_to_goal, velocities.take(agent, axis=0))
    w = np.where((kind == _OBSTACLE)[:, None], neighbour, w)
    both = (kind == _BOTH).nonzero()[0]
    d = dhat
    if both.size:
        d = np.concatenate((dhat, dhat.take(both, axis=0)))
        w = np.concatenate((w, neighbour.take(both, axis=0)))
    raw = cross(d, w)
    for a in (codes == _RANDOM).nonzero()[0]:
        s, e = np.searchsorted(agent, (a, a + 1)).tolist()
        if e > s:
            raw[s:e] = rngs[a].standard_normal((e - s, 3))
    unit = _with_fallback(raw, d)

    path = ((kind == _PATH) | (kind == _BOTH)).nonzero()[0]
    if path.size:
        owner = agent.take(path)
        unit[path] = _flip_toward_goal(
            unit.take(path, axis=0),
            velocities.take(owner, axis=0),
            to_goal.take(owner, axis=0),
            owner,
        )
    if both.size:
        unit[both] = _with_fallback(unit.take(both, axis=0) + unit[m:], dhat.take(both, axis=0))
    return unit[:m]


def _flip_toward_goal(c, v, gap, agent):
    # keep the velocity-heuristic current, but flip its sign if the opposite
    # rotation produces a force better aligned with the goal direction:
    # score = (c |v|^2 - v (v . c)) . (goal - x), with v and gap = goal - x
    # given per row.  A one-row matrix product is a BLAS dot, which ``dots``
    # reproduces for all rows at once; an agent with several rows needs its
    # own matrix-vector product, which rounds differently.
    groups = (np.flatnonzero(agent == a) for a in set(agent.tolist()))
    several = [rows for rows in groups if rows.size > 1]
    cv = dots(c, v)
    for rows in several:
        cv[rows] = c[rows] @ v[rows[0]]
    force = c * dots(v, v)[:, None] - v * cv[:, None]
    score = dots(force, gap)
    for rows in several:
        score[rows] = force[rows] @ gap[rows[0]]
    return np.where(score[:, None] < 0.0, -c, c)


def batch_currents(
    heuristic: CurrentHeuristic,
    position: np.ndarray,
    velocity: np.ndarray,
    centers: np.ndarray,
    goal: np.ndarray,
    nn_centers: np.ndarray | None,
    rng: np.random.Generator,
) -> np.ndarray:
    """Unit current per obstacle for one agent, vectorized over the rows of
    ``centers``; ``pair_currents`` for a committee of one.

    ``nn_centers`` carries, per obstacle, the center of its nearest other
    obstacle (None when the scene has fewer than two obstacles).  Random
    currents consume ``rng`` in row order, so a batched call matches repeated
    single-obstacle calls on the same generator state.
    """
    position = np.asarray(position, dtype=float)
    offsets = position - centers
    return pair_currents(
        (heuristic.kind,),
        np.zeros(centers.shape[0], dtype=np.intp),
        position[None, :],
        np.asarray(velocity, dtype=float)[None, :],
        offsets,
        norms(offsets),
        goal,
        nn_centers,
        (rng,),
    )


def _unit(raw: np.ndarray, d: np.ndarray) -> np.ndarray:
    # normalize raw; below _EPS fall back to d x e_z, then to d x e_x
    for vec in (raw, np.cross(d, _EZ), np.cross(d, _EX)):
        n = float(np.linalg.norm(vec))
        if n > _EPS:
            return vec / n
    return vec


def compute_current(
    heuristic: CurrentHeuristic,
    kin: AgentKinematics,
    obstacle: SphereObstacle,
    goal,
    others: tuple[SphereObstacle, ...] = (),
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Unit current for a single obstacle: the scalar reference that
    ``pair_currents`` vectorizes, written one heuristic at a time.

    ``others`` lists the remaining obstacles (used by the obstacle-distance
    heuristics to find the nearest neighbor of ``obstacle``; the first of
    equally near ones wins).  ``rng`` is required for random heuristics.
    """
    goal = as_vec3(goal)
    x, v, kind = kin.position, kin.velocity, heuristic.kind
    if kind is HeuristicKind.RANDOM and rng is None:
        raise ValueError("random heuristics need an rng")
    d = obstacle.center - x
    n = float(np.linalg.norm(d))
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
