"""Predictive multi-agent planner.

A small committee of virtual agents shares the robot state.  Every agent
carries its own gains and current heuristic; at each replanning step all of
them simulate a short rollout from the current state, one
``cost.agent_costs`` call scores every rollout from the clearances the
rollout recorded, the cheapest wins, and the
robot follows the winning rollout itself until the next replan: the
committed segment is that rollout's first ``replan_every`` steps, cut short
at the first sample within the goal tolerance.  Integration is
semi-implicit Euler with a hard speed cap.

One lockstep kernel, ``rollout``, does all simulation.  It advances an
(A, 3) state for every agent of a ``Committee`` (which ``execute`` builds
once per plan from the parameter vector) at once and returns (A, k+1, 3)
positions and velocities and (A, k+1) clearances: per step one (A, m)
surface-distance pass, one shell mask whose (agent, obstacle) pairs, their
offsets and distances taken once, each get a current
(``heuristics.batch_currents``, dispatching on each pair's heuristic) and a
repulsive push, and one per-agent sum of both; an agent's ``k_cf`` and
``k_r`` zero the terms it does not use, and one without pairs adds zero
sums.  Each row of the step rounds alone: it depends only on its own inputs
and its agent's sums, with the rounding of the per-agent computation (see
``cfplan.vec3``).  So every agent's result is bitwise the one it would get
alone, but for the sign of a zero force component of an agent without pairs
among agents with some.

The m obstacles are a Verlet neighbour list, refreshed every
``REFRESH_STEPS`` steps from the agents' current rows.  The speed cap bounds
how far any agent moves between refreshes (``REFRESH_STEPS - 1`` steps of
``v_max * dt``), so each k-d tree ball query (``Scene.neighbour_list``) finds
every obstacle whose surface can come within an agent's detection radius and
every obstacle that can be nearest to a sample until the next one; the dense
pass then runs over those alone.  A list that already holds every obstacle is
kept for the rest of the call.  Lists keep their ascending scene order, so
pairs, sums and random draws follow the same order as a pass over the whole
scene, and results are bitwise the same.

Random-heuristic agents read their currents from a ``RandomRows`` table:
the standard normals of the stream of ``(master_seed, agent_id)``, drawn once
per ``execute`` and extended from the same generator when a rollout needs
more rows.  Every rollout reads each table from its first row, so a rollout
is a pure function of its inputs and two rollouts from the same state are
bitwise identical.

The kernel matches the scalar force/heuristic functions
(``fields.steering_force``, ``heuristics.compute_current``) to
floating-point roundoff; where the scalar repulsion raises on overlap, the
kernel instead clamps the surface distance at ``RHO_MIN`` so that a
penetrating state produces a huge finite escape force rather than an
exception mid-rollout.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cost import AgentCostWeights, agent_costs, scene_clearances
from .fields import RHO_MIN, GainSet, manipulability_force
from .heuristics import HeuristicKind, _committee_layout, agent_heuristic, batch_currents
from .params import detection_radius, split_params, validate_params
from .scene import Scene, finite_real, integer, json_array
from .vec3 import dots, norms

#: per-sample clearance recorded when the scene has no obstacles
EMPTY_CLEARANCE = 1e9

#: samples scanned per neighbour list in ``rollout``.  On desk scenes 3
#: matched 5 at horizon 20 and beat it at horizon 50; 2, 4, 7 and 10 were slower
REFRESH_STEPS = 3

#: rows of standard normals each random agent's table starts with; a rollout
#: that reads past the end at least doubles it.  Random agents read at most
#: 20 rows per rollout in the benchmark's workloads
ROW_BLOCK = 64

_SEED_MASK = (1 << 63) - 1
_NO_NORMALS = np.zeros((0, 3))


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
        for name, low in (("n_agents", 1), ("horizon", 1), ("replan_every", 1), ("max_steps", 0)):
            integer(name, getattr(self, name), low)
        integer("master_seed", self.master_seed)
        for name in ("dt", "mass", "v_max", "goal_tolerance"):
            if finite_real(name, getattr(self, name)) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.jacobian is not None:
            object.__setattr__(self, "jacobian", json_array("jacobian", self.jacobian, (3, -1)))

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
    if not speed[speed.argmax()] <= v_max:  # argmax stops at a NaN: then scan all rows
        fast = (speed > v_max).nonzero()[0]
        v[fast] *= (v_max / speed[fast])[:, None]
    return x + dt * v, v


@dataclass(frozen=True)
class Committee:
    """The planner's agents 1..A: their heuristics, and their gains as (A,)
    arrays, or (A, 1) columns where they scale (A, 3) rows.  The detection
    radius is shared.  A committee holds no random state: ``RandomRows``
    keeps its random agents' streams."""

    ids: tuple[int, ...]  # 1-based
    kinds: tuple[HeuristicKind, ...]
    k_p: np.ndarray  # (A, 1)
    k_v: np.ndarray  # (A, 1)
    k_cf: np.ndarray  # (A, 1)
    k_manip: np.ndarray  # (A, 1)
    reach: np.ndarray  # (A, 1) r_d, or -inf when no obstacle force is on
    k_r: np.ndarray  # (A,)
    inv_r_d: float  # 1 / max(r_d, RHO_MIN)
    seed: int  # master seed of the random streams, masked to 63 bits

    @classmethod
    def of(cls, p: np.ndarray, cfg: PlannerConfig) -> Committee:
        """Agents 1..cfg.n_agents with gains sliced out of the flat vector."""
        p = validate_params(p, cfg.n_agents).copy()
        g = split_params(p, cfg.n_agents)
        r_d = detection_radius(p)
        ids = tuple(range(1, cfg.n_agents + 1))
        on = (g["k_cf"] != 0.0) | (g["k_r"] != 0.0)
        return cls(
            ids=ids,
            kinds=tuple(agent_heuristic(i) for i in ids),
            k_p=g["k_p"][:, None],
            k_v=g["k_v"][:, None],
            k_cf=g["k_cf"][:, None],
            k_manip=g["k_manip"][:, None],
            reach=np.where(on, r_d, -np.inf)[:, None],
            k_r=g["k_r"],
            inv_r_d=1.0 / max(r_d, RHO_MIN),
            seed=cfg.master_seed & _SEED_MASK,
        )

    @cached_property
    def layout(self) -> tuple:
        """The heuristics' layout that ``batch_currents`` reads."""
        return _committee_layout(self.kinds)


class RandomRows:
    """The raw currents of a committee's random agents: the agent of id
    ``i`` reads the standard normals of ``default_rng(SeedSequence([seed,
    i]))``, three to a row, from its first row on every rollout.

    Each agent's table is drawn once, ``ROW_BLOCK`` rows long, and extended
    from the same generator when a rollout reads past its end; drawing in
    pieces gives bitwise the values of one draw.  ``execute`` makes one per
    plan and its rollouts share it."""

    def __init__(self, com: Committee):
        agents = [a for a, kind in enumerate(com.kinds) if kind is HeuristicKind.RANDOM]
        self._edges = np.array([(a, a + 1) for a in agents], dtype=np.intp).ravel()
        self._rngs = [
            np.random.default_rng(np.random.SeedSequence([com.seed, com.ids[a]])) for a in agents
        ]
        self._tables = [r.standard_normal((ROW_BLOCK, 3)) for r in self._rngs]

    def rows(self, k: int, stop: int) -> np.ndarray:
        """The first ``stop`` rows of the table of the k-th random agent."""
        table = self._tables[k]
        if stop > table.shape[0]:
            more = max(stop, 2 * table.shape[0]) - table.shape[0]
            table = self._tables[k] = np.concatenate(
                (table, self._rngs[k].standard_normal((more, 3)))
            )
        return table[:stop]

    def reader(self) -> Callable[[np.ndarray], np.ndarray]:
        """A reader for one rollout.  Given the agent index of each pair,
        non-decreasing, it returns one row per pair of a random agent, in
        pair order: each agent's next rows, from its first row on."""
        used = [0] * len(self._tables)

        def read(agent: np.ndarray) -> np.ndarray:
            if not used:
                return _NO_NORMALS
            edges = agent.searchsorted(self._edges).tolist()
            parts = []
            for k, (s, e) in enumerate(zip(edges[::2], edges[1::2])):
                if e > s:
                    start = used[k]
                    used[k] += e - s
                    parts.append(self.rows(k, used[k])[start:])
            if len(parts) == 1:
                return parts[0]
            return np.concatenate(parts) if parts else _NO_NORMALS

        return read


def _forces(x, v, offsets, dist, surf, goal, nn, com: Committee, read, manip_pull):
    """Steering force on every agent of the committee, (A, 3).

    ``offsets`` (A, n, 3) holds x - center per listed obstacle, ``dist``
    (A, n) its norms, ``surf`` the surface distances and ``nn`` (n, 3) the
    center of each one's nearest other obstacle (None without one).
    ``read`` is a ``RandomRows.reader`` of the committee.  An
    obstacle acts on an agent when its surface lies within the agent's
    detection shell: one mask over ``surf`` yields the (agent, obstacle)
    pairs as flat indices, agent by agent with obstacle index ascending.
    """
    f = com.k_p * (goal - x) - com.k_v * v
    n_agents, n = surf.shape
    idx = (surf <= com.reach).ravel().nonzero()[0]
    if idx.size:
        # every pair gets a current and a push; k_cf and k_r zero the terms
        # of agents that do not circle or repel
        agent = idx // n
        off, d = offsets.reshape(-1, 3).take(idx, axis=0), dist.take(idx)
        currents = batch_currents(
            com.layout, agent, x, v, off, d, goal,
            None if nn is None else nn.take(idx % n, axis=0), read(agent),
        )
        rho = np.maximum(surf.take(idx), RHO_MIN)
        mag = com.k_r.take(agent) * (1.0 / rho - com.inv_r_d) / rho**2
        push = (off / np.maximum(d, 1e-12)[:, None]) * mag[:, None]
        # one per-agent sum over [current | push] columns: each column starts
        # from zero and adds its rows in order, as rows.sum(axis=0) does.  An
        # agent without pairs adds zero sums, as steering_force adds the zero
        # terms of obstacles outside the shell
        sums = np.zeros((n_agents, 6))
        np.add.at(sums, agent, np.concatenate((currents, push), axis=1))
        f = f + _circling(v, sums[:, :3], com) + sums[:, 3:]
    if manip_pull is not None:
        f = f + com.k_manip * manip_pull
    return f


def _circling(v, cs, com: Committee):
    """The circular-field force of the per-agent current sums ``cs``."""
    return com.k_cf * (dots(v, v)[:, None] * cs - v * dots(v, cs)[:, None])


def rollout(
    com: Committee,
    x: np.ndarray,
    v: np.ndarray,
    scene: Scene,
    cfg: PlannerConfig,
    normals: RandomRows | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Roll k = ``max(cfg.horizon, cfg.replan_every)`` steps of every
    committee agent's own field in lockstep from its row of the (A, 3)
    states (x, v), so that each rollout covers a committed segment.
    Random agents read ``normals``, the committee's table (a new one when
    None), from its first rows; ``cfg`` must carry the committee's master
    seed.

    Returns positions (A, k+1, 3), per-sample clearances (A, k+1) and
    velocities (A, k+1, 3), from the start sample on, sample j at time
    j * cfg.dt.

    Every ``REFRESH_STEPS`` steps one ``scene.neighbour_list`` query from
    the current rows lists the obstacles that can enter a shell or attain a
    clearance at that sample and the ``REFRESH_STEPS - 1`` after it, within
    which no agent moves farther than ``REFRESH_STEPS - 1`` steps of
    ``v_max * dt``; those steps scan just them.
    """
    if x.shape != (len(com.ids), 3) or v.shape != x.shape:
        raise ValueError(f"x and v must have shape ({len(com.ids)}, 3)")
    if cfg.master_seed & _SEED_MASK != com.seed:
        raise ValueError(
            f"committee streams are of master seed {com.seed}, not {cfg.master_seed}"
        )
    n_steps = max(cfg.horizon, cfg.replan_every)
    read = (RandomRows(com) if normals is None else normals).reader()
    pos = np.empty((x.shape[0], n_steps + 1, 3))
    vel = np.empty_like(pos)
    clr = np.empty((x.shape[0], n_steps + 1))
    reach = float(com.reach.max())
    n_all = scene.radii.shape[0]
    near = None
    pull = cfg.manip_direction
    i = 0
    while True:
        if i % REFRESH_STEPS == 0 and (near is None or near.shape[0] < n_all):
            # this list serves samples i .. i + REFRESH_STEPS - 1
            travel = min(REFRESH_STEPS - 1, n_steps - i) * cfg.v_max * cfg.dt
            near = scene.neighbour_list(x, travel, reach)
            centers, radii = scene.centers.take(near, axis=0), scene.radii.take(near)
            nn = scene.nn_centers
            if nn is not None:
                nn = nn.take(near, axis=0)
        offsets = x[:, None, :] - centers
        dist = norms(offsets)
        surf = dist - radii
        pos[:, i] = x
        vel[:, i] = v
        clr[:, i] = np.minimum.reduce(surf, axis=1) if radii.shape[0] else EMPTY_CLEARANCE
        if i == n_steps:
            return pos, clr, vel
        force = _forces(x, v, offsets, dist, surf, scene.goal, nn, com, read, pull)
        x, v = _euler_step(x, v, force, cfg.mass, cfg.dt, cfg.v_max)
        i += 1


def plan_step(
    com: Committee,
    x: np.ndarray,
    v: np.ndarray,
    scene: Scene,
    cfg: PlannerConfig,
    weights: AgentCostWeights,
    normals: RandomRows | None = None,
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Roll out every agent from the shared state (x, v), each (3,), score
    all rollouts with one ``agent_costs`` call on their own clearances and
    return the cheapest (ties go to the lowest id): its id and its rollout's
    positions (k+1, 3), clearances (k+1,) and velocities (k+1, 3).
    ``normals`` is passed to ``rollout``."""
    n = len(com.ids)
    xs, vs = np.repeat(x[None], n, axis=0), np.repeat(v[None], n, axis=0)
    pos, clr, vel = rollout(com, xs, vs, scene, cfg, normals)
    best = int(np.argmin(agent_costs(pos, clr, scene, weights)))
    return com.ids[best], pos[best], clr[best], vel[best]


def execute(
    scene: Scene, p: np.ndarray, cfg: PlannerConfig, weights: AgentCostWeights
) -> PlanResult:
    """Plan from scene start to goal, replanning every ``cfg.replan_every``
    steps, until the goal tolerance is met or ``cfg.max_steps`` run out.
    The robot follows each replan's winning rollout for ``replan_every``
    steps, or up to its first later sample within the goal tolerance.

    Deterministic: the result is a pure function of (scene, p, cfg, weights).
    """
    com = Committee.of(p, cfg)
    normals = RandomRows(com)
    x = scene.start
    v = np.zeros(3)
    if scene.radii.shape[0]:
        start_clearance = scene_clearances(x[None], scene)
    else:
        start_clearance = np.array([EMPTY_CLEARANCE])
    positions, clearances = [x[None]], [start_clearance]
    history: list[tuple[int, int]] = []
    reached = bool(np.linalg.norm(scene.goal - x) <= cfg.goal_tolerance)
    steps_used = 0
    while not reached and steps_used < cfg.max_steps:
        best_id, pos, clr, vel = plan_step(com, x, v, scene, cfg, weights, normals)
        history.append((steps_used, best_id))
        n = min(cfg.replan_every, cfg.max_steps - steps_used)
        gap = scene.goal - pos[1 : n + 1]
        within = (np.sqrt(dots(gap, gap)) <= cfg.goal_tolerance).nonzero()[0]
        if within.size:
            n = int(within[0]) + 1
        positions.append(pos[1 : n + 1])
        clearances.append(clr[1 : n + 1])
        x, v = pos[n], vel[n]
        steps_used += n
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
