"""Shared fixtures: the midpoint-obstruction scene (``cfplan.obstruction_scene``,
re-exported here), canonical parameter vectors, bounds and scenes, a cheap
planner configuration for benchmark-style tests, and brute-force cost oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from cfplan import (
    GainSet,
    PlannerConfig,
    Scene,
    SphereObstacle,
    WorkspaceBounds,
    obstruction_scene,
)
from cfplan.cost import D_CLAMP
from cfplan.params import BoundsBox, join_params, param_dim

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

N_AGENTS = 7

# wall-time knobs for benchmark-style runs; physics gates stay at defaults
BENCH_CFG = PlannerConfig(horizon=20, replan_every=20, max_steps=600)


def make_params(
    n_agents: int = N_AGENTS,
    k_p: float = 0.0,
    k_v: float = 0.0,
    k_cf: float = 0.0,
    k_manip: float = 0.0,
    k_r: float = 0.0,
    r_d: float = 0.0,
) -> np.ndarray:
    """Flat parameter vector with every agent sharing the same gains."""
    gains = GainSet(k_p=k_p, k_v=k_v, k_cf=k_cf, k_manip=k_manip, k_r=k_r)
    return join_params([gains] * n_agents, r_d)


def untuned_baseline(n_agents: int = N_AGENTS) -> np.ndarray:
    """Plain PD pull with an active detection shell but no avoidance gains;
    drives straight through whatever blocks the line to the goal."""
    return make_params(n_agents, k_p=10.0, k_v=5.0, r_d=0.3)


def narrow_bounds(n_agents: int = N_AGENTS) -> BoundsBox:
    """A box so tight that any draw is a good attraction-only controller."""
    d = param_dim(n_agents)
    low = np.zeros(d)
    high = np.full(d, 1e-6)
    low[:n_agents], high[:n_agents] = 9.9, 10.1            # k_p
    low[n_agents : 2 * n_agents] = 4.9                      # k_v
    high[n_agents : 2 * n_agents] = 5.1
    low[-1], high[-1] = 0.05, 0.0501                        # r_d
    return BoundsBox(low, high)


def empty_scene(goal=(0.3, 0.2, 0.6)) -> Scene:
    return Scene(
        obstacles=(),
        start=np.zeros(3),
        goal=np.asarray(goal, dtype=float),
        workspace=WorkspaceBounds((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0)),
    )


def easy_scene() -> Scene:
    return Scene(
        obstacles=(SphereObstacle(center=(0.0, 0.8, 0.5), radius=0.05),),
        start=(0.0, 0.0, 0.5),
        goal=(0.5, 0.0, 0.5),
        workspace=WorkspaceBounds(min=(-1, -1, 0), max=(1, 1, 1)),
    )


def brute_agent_cost(traj, scene, w) -> float:
    pos = traj.positions
    total = 0.0
    for a, b in zip(pos[:-1], pos[1:]):
        total += w.path_length * math.dist(a, b)
    total += w.goal_distance * math.dist(pos[-1], scene.goal)
    obstacles = scene.obstacles
    if obstacles and pos.shape[0] >= 2:
        d_min = min(math.dist(x, o.center) - o.radius for x in pos[1:] for o in obstacles)
        total += w.obstacle / max(d_min, D_CLAMP)
    for x in pos[1:]:
        for k in range(3):
            total += w.workspace * max(scene.workspace.min[k] - x[k], 0.0) ** 2
            total += w.workspace * max(x[k] - scene.workspace.max[k], 0.0) ** 2
    return total


def brute_trajectory_cost(traj, scene, w) -> float:
    pos = traj.positions
    steps = pos.shape[0] - 1
    total = w.goal_deviation * math.dist(pos[-1], scene.goal)
    for a, b in zip(pos[:-1], pos[1:]):
        total += w.path_length * math.dist(a, b)
    obstacles = scene.obstacles
    if obstacles and steps >= 1:
        inv = [
            1.0 / max(min(math.dist(x, o.center) - o.radius for o in obstacles), D_CLAMP)
            for x in pos[1:]
        ]
        total += w.clearance * sum(inv) / steps
    if steps >= 3:
        acc = 0.0
        for t in range(2, steps):
            second = pos[t + 1] - 2.0 * pos[t] + pos[t - 1]
            acc += float(second @ second)
        total += w.smoothness * acc / (steps - 1)
    return total


@pytest.fixture
def obstruction():
    return obstruction_scene()


@pytest.fixture
def empty():
    return empty_scene()
