"""Predictive multi-agent planner.

A small committee of virtual agents shares the robot state.  Every agent
carries its own gains and current heuristic; at each replanning step all of
them simulate a short rollout from the current state, the cheapest rollout
(by ``agent_cost``) wins, and the executor advances with the winner's force
field until the next replan.  Integration is semi-implicit Euler with a hard
speed cap.

One lockstep kernel, ``_simulate``, does all simulation.  It advances an
(A, 3) state for every agent at once: per step one (A, n) surface-distance
pass, one shell mask whose (agent, obstacle) pairs feed one currents pass
(``heuristics.pair_currents``, dispatching on each pair's heuristic), and
per-agent sums of the obstacle forces.  ``plan_step`` runs it with the whole
committee; the executor's committed segment and ``rollout`` run it with
A = 1.  Every agent's result is bitwise the one it would get alone: the
kernel keeps each rounding step of the per-agent computation (see
``cfplan.vec3``).

Random-heuristic agents reseed their generator from
``(master_seed, agent_id)`` on every rollout, so a rollout is a pure function
of its inputs and two rollouts from the same state are bitwise identical.
The executor keeps a separate stream for the random currents it consumes
while following a winning random agent.

The kernel matches the scalar force/heuristic functions
(``fields.steering_force``, ``heuristics.compute_current``) to
floating-point roundoff; where the scalar repulsion raises on overlap, the
kernel instead clamps the surface distance at ``RHO_MIN`` so that a
penetrating state produces a huge finite escape force rather than an
exception mid-rollout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cost import AgentCostWeights, agent_cost
from .fields import RHO_MIN, AgentKinematics, GainSet, manipulability_force
from .heuristics import CurrentHeuristic, HeuristicKind, agent_heuristic, pair_currents
from .params import agent_gains, detection_radius, validate_params
from .scene import Scene, as_vec3
from .vec3 import dots, norms

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
    """Advance (k, 3) positions and velocities by one step each."""
    v = v + (dt / mass) * force
    speed = np.sqrt(dots(v, v))
    fast = (speed > v_max).nonzero()[0]
    if fast.size:
        v[fast] *= (v_max / speed[fast])[:, None]
    return x + dt * v, v


def integrate_step(
    kin: AgentKinematics, force, mass: float, dt: float, v_max: float
) -> AgentKinematics:
    """One semi-implicit Euler step: update velocity from the force, cap its
    norm at v_max, then advance the position with the new velocity."""
    x, v = _euler_step(
        kin.position[None], kin.velocity[None], as_vec3(force)[None], mass, dt, v_max
    )
    return AgentKinematics(x[0], v[0])


@dataclass(frozen=True)
class _Committee:
    """The agents simulated together: gains as (A,) arrays, or (A, 1)
    columns where they scale (A, 3) rows."""

    kinds: tuple[HeuristicKind, ...]
    pull: np.ndarray  # (A, 1) vel_scale * k_p
    k_v: np.ndarray  # (A, 1)
    k_cf: np.ndarray  # (A, 1)
    manip: np.ndarray  # (A, 1) k_manip * manip_scale
    reach: np.ndarray  # (A, 1) r_d, or -inf when no obstacle force is on
    circling: np.ndarray  # (A,) k_cf != 0
    repelling: np.ndarray  # (A,) k_r != 0
    k_r: np.ndarray  # (A,)
    inv_r_d: np.ndarray  # (A,) 1 / max(r_d, RHO_MIN)

    @classmethod
    def of(cls, agents: list[Agent]) -> _Committee:
        def col(values):
            return np.array(values, dtype=float)[:, None]

        g = [a.gains for a in agents]
        k_cf = np.array([x.k_cf for x in g])
        k_r = np.array([x.k_r for x in g])
        r_d = np.array([a.r_d for a in agents])
        return cls(
            kinds=tuple(a.heuristic.kind for a in agents),
            pull=col([x.vel_scale * x.k_p for x in g]),
            k_v=col([x.k_v for x in g]),
            k_cf=k_cf[:, None],
            manip=col([x.k_manip * x.manip_scale for x in g]),
            reach=np.where((k_cf != 0.0) | (k_r != 0.0), r_d, -np.inf)[:, None],
            circling=k_cf != 0.0,
            repelling=k_r != 0.0,
            k_r=k_r,
            inv_r_d=np.array([1.0 / max(a.r_d, RHO_MIN) for a in agents]),
        )


def _agent_sums(n_agents: int, agent: np.ndarray, rows: np.ndarray):
    """Per-agent sums of ``rows``, each starting from zero and adding its
    rows in order as ``rows.sum(axis=0)`` does, and an (A, 1) mask of the
    agents that had any row."""
    total = np.zeros((n_agents, 3))
    np.add.at(total, agent, rows)
    has = np.zeros((n_agents, 1), dtype=bool)
    has[agent] = True
    return total, has


def _subset(idx, agent, keep):
    """The pairs whose agent is flagged in ``keep``."""
    sel = keep.take(agent).nonzero()[0]
    if sel.size == agent.size:
        return idx, agent
    return idx.take(sel), agent.take(sel)


def _forces(x, v, offsets, dist, surf, scene: Scene, com: _Committee, rngs, manip_pull):
    """Steering force on every agent of the committee, (A, 3).

    ``offsets`` (A, n, 3) holds x - center per obstacle, ``dist`` (A, n)
    its norms and ``surf`` the surface distances.  An obstacle acts on an
    agent when its surface lies within the agent's detection shell: one mask
    over ``surf`` yields the (agent, obstacle) pairs as flat indices, agent
    by agent with obstacle index ascending.
    """
    f = com.pull * (scene.goal - x) - com.k_v * v
    n_agents, n = surf.shape
    idx = (surf <= com.reach).ravel().nonzero()[0]
    if idx.size:
        agent = idx // n
        flat = offsets.reshape(-1, 3)
        ci, ca = _subset(idx, agent, com.circling)
        if ci.size:
            nn = scene.nn_centers
            currents = pair_currents(
                com.kinds, ca, x, v, flat.take(ci, axis=0), dist.take(ci), scene.goal,
                None if nn is None else nn.take(ci % n, axis=0), rngs,
            )
            cs, has = _agent_sums(n_agents, ca, currents)
            term = com.k_cf * (dots(v, v)[:, None] * cs - v * dots(v, cs)[:, None])
            f = np.where(has, f + term, f)
        ri, ra = _subset(idx, agent, com.repelling)
        if ri.size:
            rho = np.maximum(surf.take(ri), RHO_MIN)
            d = np.maximum(dist.take(ri), 1e-12)
            mag = com.k_r.take(ra) * (1.0 / rho - com.inv_r_d.take(ra)) / rho**2
            push, has = _agent_sums(
                n_agents, ra, (flat.take(ri, axis=0) / d[:, None]) * mag[:, None]
            )
            f = np.where(has, f + push, f)
    if manip_pull is not None:
        f = f + com.manip * manip_pull
    return f


def _simulate(
    x: np.ndarray,
    v: np.ndarray,
    n_steps: int,
    scene: Scene,
    com: _Committee,
    cfg: PlannerConfig,
    rngs,
    stop_within: float | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Roll ``n_steps`` of every committee agent's own field in lockstep
    from the (A, 3) states (x, v), agent ``a`` drawing random currents from
    ``rngs[a]``.  With ``stop_within`` set (single-agent runs) stop early
    once a step ends that close to the goal.

    Returns positions (A, k+1, 3) and per-sample clearances (A, k+1) from the
    start sample on, and the final (A, 3) velocities.
    """
    pos = np.empty((x.shape[0], n_steps + 1, 3))
    clr = np.empty((x.shape[0], n_steps + 1))
    centers, radii = scene.centers, scene.radii
    pull = cfg.manip_direction
    i = 0
    while True:
        offsets = x[:, None, :] - centers
        dist = norms(offsets)
        surf = dist - radii
        pos[:, i] = x
        clr[:, i] = np.minimum.reduce(surf, axis=1) if radii.shape[0] else EMPTY_CLEARANCE
        if i == n_steps:
            return pos, clr, v
        if stop_within is not None and i > 0:
            gap = scene.goal - x[0]
            if math.sqrt(float(gap @ gap)) <= stop_within:
                return pos[:, : i + 1], clr[:, : i + 1], v
        force = _forces(x, v, offsets, dist, surf, scene, com, rngs, pull)
        x, v = _euler_step(x, v, force, cfg.mass, cfg.dt, cfg.v_max)
        i += 1


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


def _rollout_rng(cfg: PlannerConfig, agent: Agent) -> np.random.Generator | None:
    """The agent's own random stream; None for deterministic heuristics."""
    if agent.heuristic.kind is not HeuristicKind.RANDOM:
        return None
    return np.random.default_rng(
        np.random.SeedSequence([cfg.master_seed & _SEED_MASK, agent.id])
    )


def _rollouts(agents: list[Agent], scene: Scene, cfg: PlannerConfig) -> list[Trajectory]:
    """Simulate ``cfg.horizon`` steps of every agent's field from its state,
    all agents in lockstep."""
    x = np.stack([a.state.position for a in agents])
    v = np.stack([a.state.velocity for a in agents])
    rngs = [_rollout_rng(cfg, a) for a in agents]
    pos, clr, _ = _simulate(x, v, cfg.horizon, scene, _Committee.of(agents), cfg, rngs)
    times = np.arange(cfg.horizon + 1) * cfg.dt
    return [Trajectory(times, pos[k], clr[k]) for k in range(len(agents))]


def rollout(agent: Agent, scene: Scene, cfg: PlannerConfig) -> Trajectory:
    """Simulate ``cfg.horizon`` steps of this agent's field from its state."""
    return _rollouts([agent], scene, cfg)[0]


def plan_step(
    agents: list[Agent],
    scene: Scene,
    cfg: PlannerConfig,
    weights: AgentCostWeights,
) -> int:
    """Roll out every agent from its current state and return the id of the
    one with the lowest agent_cost (ties go to the lowest id)."""
    costs = [agent_cost(traj, scene, weights) for traj in _rollouts(agents, scene, cfg)]
    return agents[int(np.argmin(costs))].id


def execute(
    scene: Scene, p: np.ndarray, cfg: PlannerConfig, weights: AgentCostWeights
) -> PlanResult:
    """Plan from scene start to goal, replanning every ``cfg.replan_every``
    steps, until the goal tolerance is met or ``cfg.max_steps`` run out.

    Deterministic: the result is a pure function of (scene, p, cfg, weights).
    """
    agents = make_agents(p, cfg)
    solo = [_Committee.of([a]) for a in agents]
    exec_rngs = [
        np.random.default_rng(
            np.random.SeedSequence([cfg.master_seed & _SEED_MASK, _EXEC_STREAM])
        )
    ]

    x = scene.start[None]
    v = np.zeros((1, 3))
    # zero steps yield just the start sample
    pos, clr, _ = _simulate(x, v, 0, scene, solo[0], cfg, exec_rngs)
    positions, clearances = [pos[0]], [clr[0]]
    history: list[tuple[int, int]] = []
    reached = bool(np.linalg.norm(scene.goal - x[0]) <= cfg.goal_tolerance)
    steps_used = 0
    while not reached and steps_used < cfg.max_steps:
        kin = AgentKinematics(x[0], v[0])
        for a in agents:
            a.state = kin
        best_id = plan_step(agents, scene, cfg, weights)
        history.append((steps_used, best_id))
        n = min(cfg.replan_every, cfg.max_steps - steps_used)
        pos, clr, v = _simulate(
            x, v, n, scene, solo[best_id - 1], cfg, exec_rngs, cfg.goal_tolerance
        )
        positions.append(pos[0, 1:])
        clearances.append(clr[0, 1:])
        x = pos[:, -1]
        steps_used += pos.shape[1] - 1
        reached = bool(np.linalg.norm(scene.goal - x[0]) <= cfg.goal_tolerance)

    clr = np.concatenate(clearances)
    traj = Trajectory(np.arange(steps_used + 1) * cfg.dt, np.concatenate(positions), clr)
    return PlanResult(
        trajectory=traj,
        reached=reached,
        steps_used=steps_used,
        min_clearance=float(clr.min()),
        best_agent_history=tuple(history),
    )
