"""Predictive multi-agent planner.

A small committee of virtual agents shares the robot state.  Every agent
carries its own gains and current heuristic; at each replanning step all of
them simulate a short rollout from the current state, the cheapest rollout
(by ``agent_cost``) wins, and the executor advances with the winner's force
field until the next replan.  Integration is semi-implicit Euler with a hard
speed cap.

Random-heuristic agents reseed their generator from
``(master_seed, agent_id)`` on every rollout, so a rollout is a pure function
of its inputs and two rollouts from the same state are bitwise identical.
The executor keeps a separate stream for the random currents it consumes
while following a winning random agent.

Force evaluation is vectorized over obstacles.  It matches the scalar
force/heuristic functions to floating-point roundoff; where the scalar
repulsion raises on overlap, the executor instead clamps the surface distance
at ``RHO_MIN`` so that a penetrating state produces a huge finite escape
force rather than an exception mid-rollout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cost import AgentCostWeights, agent_cost
from .fields import RHO_MIN, AgentKinematics, GainSet, manipulability_force
from .heuristics import CurrentHeuristic, agent_heuristic, batch_currents
from .params import agent_gains, detection_radius, validate_params
from .scene import Scene, as_vec3

#: per-sample clearance recorded when the scene has no obstacles
EMPTY_CLEARANCE = 1e9

_SEED_MASK = (1 << 63) - 1
_EXEC_STREAM = 0x45584543


@dataclass(frozen=True)
class PlannerConfig:
    n_agents: int = 7
    horizon: int = 50  # rollout length in integration steps
    dt: float = 0.01
    mass: float = 1.0
    replan_every: int = 5
    v_max: float = 1.0
    max_steps: int = 2000
    goal_tolerance: float = 0.03
    master_seed: int = 0
    jacobian: np.ndarray | None = None  # 3 x n arm Jacobian, None disables the pull

    def __post_init__(self):
        if self.n_agents < 1 or self.horizon < 1 or self.replan_every < 1:
            raise ValueError("n_agents, horizon and replan_every must be >= 1")
        if min(self.dt, self.mass, self.v_max, self.goal_tolerance) <= 0.0:
            raise ValueError("dt, mass, v_max and goal_tolerance must be positive")
        if self.max_steps < 0:
            raise ValueError("max_steps must be non-negative")
        if self.jacobian is not None:
            j = np.asarray(self.jacobian, dtype=float)
            if j.ndim != 2 or j.shape[0] != 3:
                raise ValueError("jacobian must have shape (3, n)")
            object.__setattr__(self, "jacobian", j)

    @cached_property
    def manip_direction(self) -> np.ndarray | None:
        """Unit manipulability pull of ``jacobian``; None without one."""
        if self.jacobian is None:
            return None
        return manipulability_force(self.jacobian, GainSet(k_manip=1.0))


@dataclass(frozen=True)
class Trajectory:
    """Sampled path: times (s,), positions (s, 3) and per-sample clearance
    (min surface distance over obstacles, EMPTY_CLEARANCE without any)."""

    times: np.ndarray
    positions: np.ndarray
    clearances: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float).ravel()
        p = np.asarray(self.positions, dtype=float).reshape(-1, 3)
        c = np.asarray(self.clearances, dtype=float).ravel()
        if not (t.shape[0] == p.shape[0] == c.shape[0]):
            raise ValueError("times, positions and clearances must align")
        if t.shape[0] == 0:
            raise ValueError("a trajectory needs at least one sample")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "positions", p)
        object.__setattr__(self, "clearances", c)

    def __len__(self) -> int:
        return self.times.shape[0]


@dataclass
class Agent:
    id: int  # 1-based
    heuristic: CurrentHeuristic
    gains: GainSet
    r_d: float
    state: AgentKinematics


@dataclass(frozen=True)
class PlanResult:
    trajectory: Trajectory
    reached: bool
    steps_used: int
    min_clearance: float
    best_agent_history: tuple[tuple[int, int], ...]  # (step, agent id) per replan


def _euler_step(x, v, force, mass: float, dt: float, v_max: float):
    v = v + (dt / mass) * force
    speed = math.sqrt(float(v @ v))
    if speed > v_max:
        v = v * (v_max / speed)
    return x + dt * v, v


def integrate_step(
    kin: AgentKinematics, force, mass: float, dt: float, v_max: float
) -> AgentKinematics:
    """One semi-implicit Euler step: update velocity from the force, cap its
    norm at v_max, then advance the position with the new velocity."""
    x, v = _euler_step(kin.position, kin.velocity, as_vec3(force), mass, dt, v_max)
    return AgentKinematics(x, v)


def _steering(
    x: np.ndarray,
    v: np.ndarray,
    surf: np.ndarray,
    scene: Scene,
    agent: Agent,
    rng: np.random.Generator,
    manip_pull: np.ndarray | None,
) -> np.ndarray:
    g = agent.gains
    f = g.vel_scale * g.k_p * (scene.goal - x) - g.k_v * v
    if surf.shape[0] > 0 and (g.k_cf != 0.0 or g.k_r != 0.0):
        mask = surf <= agent.r_d
        if np.any(mask):
            idx = np.flatnonzero(mask)
            sub = scene.centers[idx]
            if g.k_cf != 0.0:
                nn = scene.nn_centers
                nn = nn[idx] if nn is not None else None
                currents = batch_currents(agent.heuristic, x, v, sub, scene.goal, nn, rng)
                cs = currents.sum(axis=0)
                f += g.k_cf * (float(v @ v) * cs - v * float(v @ cs))
            if g.k_r != 0.0:
                rho = np.maximum(surf[idx], RHO_MIN)
                diff = x - sub
                dist = np.maximum(np.linalg.norm(diff, axis=1), 1e-12)
                mag = g.k_r * (1.0 / rho - 1.0 / max(agent.r_d, RHO_MIN)) / rho**2
                f += ((diff / dist[:, None]) * mag[:, None]).sum(axis=0)
    if manip_pull is not None:
        f = f + g.k_manip * g.manip_scale * manip_pull
    return f


def _simulate(
    x: np.ndarray,
    v: np.ndarray,
    n_steps: int,
    scene: Scene,
    agent: Agent,
    cfg: PlannerConfig,
    rng: np.random.Generator,
    stop_within: float | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Roll ``n_steps`` of the given agent's field from (x, v), or fewer when
    ``stop_within`` is set and a step ends that close to the goal.

    Returns positions (k+1, 3) and per-sample clearances from the start
    sample on, and the final velocity.
    """
    pos = np.empty((n_steps + 1, 3))
    clr = np.empty(n_steps + 1)
    centers, radii = scene.centers, scene.radii
    pull = cfg.manip_direction
    surf = np.linalg.norm(x - centers, axis=1) - radii
    pos[0] = x
    clr[0] = surf.min() if radii.shape[0] else EMPTY_CLEARANCE
    for i in range(1, n_steps + 1):
        force = _steering(x, v, surf, scene, agent, rng, pull)
        x, v = _euler_step(x, v, force, cfg.mass, cfg.dt, cfg.v_max)
        surf = np.linalg.norm(x - centers, axis=1) - radii
        pos[i] = x
        clr[i] = surf.min() if radii.shape[0] else EMPTY_CLEARANCE
        if stop_within is not None and np.linalg.norm(scene.goal - x) <= stop_within:
            return pos[: i + 1], clr[: i + 1], v
    return pos, clr, v


def make_agents(p: np.ndarray, cfg: PlannerConfig, state: AgentKinematics | None = None) -> list[Agent]:
    """Agents 1..n_agents with gains sliced out of the flat parameter vector."""
    p = validate_params(p, cfg.n_agents)
    if state is None:
        state = AgentKinematics(np.zeros(3), np.zeros(3))
    r_d = detection_radius(p)
    return [
        Agent(
            id=i + 1,
            heuristic=agent_heuristic(i + 1),
            gains=agent_gains(p, i, cfg.n_agents),
            r_d=r_d,
            state=state,
        )
        for i in range(cfg.n_agents)
    ]


def _rollout_rng(cfg: PlannerConfig, agent_id: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([cfg.master_seed & _SEED_MASK, agent_id])
    )


def rollout(agent: Agent, scene: Scene, cfg: PlannerConfig) -> Trajectory:
    """Simulate ``cfg.horizon`` steps of this agent's field from its state."""
    rng = _rollout_rng(cfg, agent.id)
    pos, clr, _ = _simulate(
        agent.state.position, agent.state.velocity, cfg.horizon, scene, agent, cfg, rng
    )
    times = np.arange(cfg.horizon + 1) * cfg.dt
    return Trajectory(times, pos, clr)


def plan_step(
    agents: list[Agent],
    scene: Scene,
    cfg: PlannerConfig,
    weights: AgentCostWeights,
) -> int:
    """Roll out every agent from its current state and return the id of the
    one with the lowest agent_cost (ties go to the lowest id)."""
    costs = [agent_cost(rollout(a, scene, cfg), scene, weights) for a in agents]
    return agents[int(np.argmin(costs))].id


def execute(
    scene: Scene, p: np.ndarray, cfg: PlannerConfig, weights: AgentCostWeights
) -> PlanResult:
    """Plan from scene start to goal, replanning every ``cfg.replan_every``
    steps, until the goal tolerance is met or ``cfg.max_steps`` run out.

    Deterministic: the result is a pure function of (scene, p, cfg, weights).
    """
    agents = make_agents(p, cfg)
    exec_rng = np.random.default_rng(
        np.random.SeedSequence([cfg.master_seed & _SEED_MASK, _EXEC_STREAM])
    )

    x = scene.start
    v = np.zeros(3)
    # zero steps yield just the start sample
    pos, clr, _ = _simulate(x, v, 0, scene, agents[0], cfg, exec_rng)
    positions, clearances = [pos], [clr]
    history: list[tuple[int, int]] = []
    reached = bool(np.linalg.norm(scene.goal - x) <= cfg.goal_tolerance)
    steps_used = 0
    while not reached and steps_used < cfg.max_steps:
        kin = AgentKinematics(x, v)
        for a in agents:
            a.state = kin
        best_id = plan_step(agents, scene, cfg, weights)
        history.append((steps_used, best_id))
        n = min(cfg.replan_every, cfg.max_steps - steps_used)
        pos, clr, v = _simulate(
            x, v, n, scene, agents[best_id - 1], cfg, exec_rng, cfg.goal_tolerance
        )
        positions.append(pos[1:])
        clearances.append(clr[1:])
        x = pos[-1]
        steps_used += pos.shape[0] - 1
        reached = bool(np.linalg.norm(scene.goal - x) <= cfg.goal_tolerance)

    clr = np.concatenate(clearances)
    traj = Trajectory(np.arange(steps_used + 1) * cfg.dt, np.concatenate(positions), clr)
    return PlanResult(
        trajectory=traj,
        reached=reached,
        steps_used=steps_used,
        min_clearance=float(clr.min()),
        best_agent_history=tuple(history),
    )
