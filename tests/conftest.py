"""Shared fixtures: the midpoint-obstruction scene (``cfplan.obstruction_scene``,
re-exported here), canonical parameter vectors, and a cheap planner
configuration for benchmark-style tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from cfplan import PlannerConfig, Scene, WorkspaceBounds, obstruction_scene
from cfplan.params import param_dim

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
    p = np.zeros(param_dim(n_agents))
    for block, value in enumerate((k_p, k_v, k_cf, k_manip, k_r)):
        p[block * n_agents : (block + 1) * n_agents] = value
    p[-1] = r_d
    return p


def untuned_baseline(n_agents: int = N_AGENTS) -> np.ndarray:
    """Plain PD pull with an active detection shell but no avoidance gains;
    drives straight through whatever blocks the line to the goal."""
    return make_params(n_agents, k_p=10.0, k_v=5.0, r_d=0.3)


def empty_scene(goal=(0.3, 0.2, 0.6)) -> Scene:
    return Scene(
        obstacles=(),
        start=np.zeros(3),
        goal=np.asarray(goal, dtype=float),
        workspace=WorkspaceBounds((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0)),
    )


@pytest.fixture
def obstruction():
    return obstruction_scene()


@pytest.fixture
def empty():
    return empty_scene()
