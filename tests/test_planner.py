"""Planner integration, rollouts, agent selection, and closed-loop execution."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from cfplan import planner
from cfplan.cost import AgentCostWeights, agent_cost, agent_costs
from cfplan.fields import AgentKinematics, steering_force
from cfplan.heuristics import HeuristicKind, agent_heuristic, compute_current
from cfplan.params import agent_gains, detection_radius
from cfplan.planner import (
    EMPTY_CLEARANCE,
    ROW_BLOCK,
    Committee,
    PlannerConfig,
    RandomRows,
    Trajectory,
    execute,
    plan_step,
    rollout,
)
from cfplan.scene import (
    Scene,
    SphereObstacle,
    WorkspaceBounds,
    default_desk_randomizer,
    min_surface_distance,
    randomize_scene,
    scene_arrays,
)
from cfplan.vec3 import norms
from tests.conftest import BENCH_CFG, make_params, obstruction_scene, untuned_baseline

WEIGHTS = AgentCostWeights()


def euler_step(x, v, force, mass: float, dt: float, v_max: float):
    """One ``planner._euler_step`` of a single (3,) state."""
    rows = (np.array([row], dtype=float) for row in (x, v, force))
    x, v = planner._euler_step(*rows, mass, dt, v_max)
    return x[0], v[0]


def member(com: Committee, k: int) -> Committee:
    """Agent ``k`` of ``com`` as a one-agent committee."""
    return dataclasses.replace(
        com,
        **{f.name: getattr(com, f.name)[k : k + 1]
           for f in dataclasses.fields(com) if f.name not in ("inv_r_d", "seed")},
    )


def alone(com: Committee, k: int, scene: Scene, cfg: PlannerConfig, x=None, v=None):
    """Agent ``k``'s rollout on its own from (x[k], v[k]), or from rest at
    the scene start."""
    x = scene.start[None] if x is None else x[k : k + 1]
    v = np.zeros((1, 3)) if v is None else v[k : k + 1]
    pos, clr, _ = rollout(member(com, k), x, v, scene, cfg)
    return Trajectory(np.arange(pos.shape[1]) * cfg.dt, pos[0], clr[0])


class TestIntegrateStep:
    def test_semi_implicit_order(self):
        x, v = euler_step(np.zeros(3), np.zeros(3), (10.0, 0, 0), mass=1.0, dt=0.01, v_max=1.0)
        assert np.allclose(v, [0.1, 0, 0], atol=1e-15)
        # position moves with the NEW velocity
        assert np.allclose(x, [0.001, 0, 0], atol=1e-15)

    def test_mass_scales_acceleration(self):
        _, v = euler_step(np.zeros(3), np.zeros(3), (10.0, 0, 0), mass=2.0, dt=0.01, v_max=1.0)
        assert np.allclose(v, [0.05, 0, 0], atol=1e-15)

    def test_speed_cap(self):
        _, v = euler_step(np.zeros(3), (0.0, 0.9, 0.0), (500.0, 0, 0), mass=1.0, dt=0.01, v_max=1.0)
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_cap_preserves_direction(self):
        _, v = euler_step(np.zeros(3), np.zeros(3), (300.0, 400.0, 0), mass=1.0, dt=1.0, v_max=1.0)
        assert np.allclose(v, [0.6, 0.8, 0.0], atol=1e-12)

    def test_caps_each_row_past_a_nan_row(self):
        # rows below, at and above the cap in one step; a NaN row, first
        # here, leaves the others to their own caps
        v = np.array([[np.nan, 0.0, 0.0], [0.3, 0.4, 0.0], [3.0, 4.0, 0.0], [0.0, 1.0, 0.0]])
        x, v_new = planner._euler_step(np.zeros((4, 3)), v, np.zeros((4, 3)), 1.0, 0.1, 1.0)
        assert np.isnan(v_new[0, 0])
        assert np.array_equal(v_new[[1, 3]], v[[1, 3]])
        assert np.allclose(v_new[2], [0.6, 0.8, 0.0], rtol=0.0, atol=1e-15)
        assert np.array_equal(x[1:], 0.1 * v_new[1:])

    def test_zero_force_coasts(self):
        x, _ = euler_step((1.0, 0, 0), (0.5, 0, 0), (0, 0, 0), mass=1.0, dt=0.1, v_max=1.0)
        assert np.allclose(x, [1.05, 0, 0], atol=1e-15)


class TestTrajectory:
    def test_rejects_misaligned(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.1]), np.zeros((3, 3)), np.zeros(3))

    def test_rejects_nonincreasing_times(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.0]), np.zeros((2, 3)), np.zeros(2))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Trajectory(np.zeros(0), np.zeros((0, 3)), np.zeros(0))


class TestCommittee:
    def test_ids_and_gains(self):
        cfg = PlannerConfig()
        p = make_params(k_p=2.0, k_v=1.0, r_d=0.4)
        com = Committee.of(p, cfg)
        assert com.ids == (1, 2, 3, 4, 5, 6, 7)
        assert com.kinds == tuple(agent_heuristic(i) for i in com.ids)
        assert np.all(com.k_p == 2.0) and com.inv_r_d == 1.0 / 0.4

    def test_rejects_bad_vector(self):
        with pytest.raises(ValueError):
            Committee.of(np.zeros(10), PlannerConfig())

    def test_owns_its_gains(self):
        p = make_params(k_p=2.0, k_cf=3.0, k_r=1.0, r_d=0.4)
        com = Committee.of(p, PlannerConfig())
        p[:] = 9.0
        assert np.all(com.k_p == 2.0) and np.all(com.k_r == 1.0)

    def test_layout_is_built_once_per_committee(self):
        com = Committee.of(make_params(k_p=2.0, r_d=0.4), PlannerConfig())
        assert com.layout is com.layout
        for k in range(len(com.ids)):
            one = member(com, k)  # a replaced committee builds its own
            assert np.array_equal(one.layout[1], com.layout[1][k : k + 1])
            assert (one.layout[2] is None) == (com.kinds[k] is not HeuristicKind.RANDOM)

    def test_random_streams_are_fresh_per_call(self):
        # every reader starts each stream over: whatever earlier readers
        # read, the rows, past the table's first block included and in
        # pieces of any size, are bitwise those of a generator seeded anew
        # from (master_seed, id)
        for master_seed in (3, -1):
            cfg = PlannerConfig(master_seed=master_seed)
            com = Committee.of(make_params(), cfg)
            random = [a for a, k in enumerate(com.kinds) if k is HeuristicKind.RANDOM]
            assert random == [5, 6]
            table = RandomRows(com)
            seed = master_seed & ((1 << 63) - 1)
            n = 5 * ROW_BLOCK + 7
            want = [
                np.random.default_rng(np.random.SeedSequence([seed, com.ids[a]]))
                .standard_normal((n, 3))
                for a in random
            ]
            for pieces in ([n], [1, ROW_BLOCK, 0, 3 * ROW_BLOCK, ROW_BLOCK + 6], [n]):
                read, got = table.reader(), [[], []]
                for size in pieces:
                    counts = np.r_[np.ones(5, dtype=int), size, size // 2]
                    rows = read(np.repeat(np.arange(7), counts))
                    got[0].append(rows[:size])
                    got[1].append(rows[size:])
                assert np.concatenate(got[0]).tobytes() == want[0].tobytes()
                assert np.concatenate(got[1]).tobytes() == want[1][: n // 2].tobytes()

    def test_streams_belong_to_one_master_seed(self):
        # a rollout rejects a config whose master seed is not its
        # committee's; the same 63 bits are the same seed and streams
        scene = obstruction_scene()
        cfg = PlannerConfig(horizon=5, master_seed=3)
        com = Committee.of(make_params(), cfg)
        x, v = np.repeat(scene.start[None], 7, axis=0), np.zeros((7, 3))
        with pytest.raises(ValueError, match="master seed 3"):
            rollout(com, x, v, scene, dataclasses.replace(cfg, master_seed=7))
        wide = dataclasses.replace(cfg, master_seed=3 + (1 << 63))
        rollout(com, x, v, scene, wide)
        agent = np.repeat(np.arange(7), 9)
        same = RandomRows(Committee.of(make_params(), wide)).reader()(agent)
        assert same.tobytes() == RandomRows(com).reader()(agent).tobytes()


class TestRollout:
    def test_shape_and_times(self):
        scene = obstruction_scene()
        cfg = PlannerConfig(horizon=20)
        traj = alone(Committee.of(untuned_baseline(), cfg), 0, scene, cfg)
        assert len(traj) == 21
        assert np.allclose(np.diff(traj.times), cfg.dt)
        assert np.allclose(traj.positions[0], scene.start)

    def test_rejects_states_of_another_size(self):
        scene = obstruction_scene()
        cfg = PlannerConfig(horizon=5)
        com = Committee.of(untuned_baseline(), cfg)
        with pytest.raises(ValueError):
            rollout(com, scene.start[None], np.zeros((1, 3)), scene, cfg)

    def test_read_only_state_is_left_unchanged(self):
        # the caller's arrays are the rollout's start state, never its workspace
        scene = obstruction_scene()
        start = scene.start.copy()
        cfg = PlannerConfig(horizon=10, master_seed=2)
        com = Committee.of(LOCKSTEP_P, cfg)
        x, v = spread_states(cfg.n_agents, scene.start, seed=1)
        for a in (x, v):
            a.flags.writeable = False
        x0, v0 = x.copy(), v.copy()
        pos, _, _ = rollout(com, x, v, scene, cfg)
        assert np.array_equal(pos[:, 0], x0)
        x1, v1 = scene.start, np.zeros(3)
        x1.flags.writeable = v1.flags.writeable = False
        plan_step(com, x1, v1, scene, cfg, WEIGHTS)
        assert np.array_equal(x, x0) and np.array_equal(v, v0)
        assert np.array_equal(scene.start, start) and not v1.any()

    def test_clearances_match_scene(self):
        scene = obstruction_scene()
        cfg = PlannerConfig(horizon=15)
        traj = alone(Committee.of(untuned_baseline(), cfg), 2, scene, cfg)
        centers, radii = scene_arrays(scene)
        for k in range(len(traj)):
            expected = min_surface_distance(traj.positions[k], centers, radii)
            assert traj.clearances[k] == pytest.approx(expected, abs=1e-12)

    def test_random_agent_rollout_is_pure(self):
        # repeated rollouts of a stochastic agent must be bit-identical
        scene = obstruction_scene()
        cfg = PlannerConfig(horizon=25, master_seed=5)
        p = make_params(k_p=8.0, k_v=4.0, k_cf=30.0, k_r=0.5, r_d=0.3)
        com = Committee.of(p, cfg)
        a = alone(com, 5, scene, cfg)  # id 6: first RANDOM heuristic
        alone(com, 6, scene, cfg)  # interleaved other agent
        b = alone(com, 5, scene, cfg)
        assert np.array_equal(a.positions, b.positions)

    def test_rollouts_from_one_state_are_bitwise_equal(self, monkeypatch):
        # rollouts sharing one table read each random agent's rows from the
        # first on, so a rollout repeats that of a committee built anew,
        # after another rollout has grown the table past its first block
        scene = clutter_scene()
        cfg = PlannerConfig(horizon=25, master_seed=4)
        com = Committee.of(LOCKSTEP_P, cfg)
        x, v = spread_states(cfg.n_agents, scene.start, seed=2)
        table = RandomRows(com)
        stops = []
        original = RandomRows.rows

        def spied(self, k, stop):
            stops.append(stop)
            return original(self, k, stop)

        monkeypatch.setattr(RandomRows, "rows", spied)
        first = rollout(com, x, v, scene, cfg, table)
        rollout(com, x + 0.01, -v, scene, cfg, table)  # reads the streams differently
        assert max(stops) > ROW_BLOCK
        again = rollout(com, x, v, scene, cfg, table)
        anew = rollout(Committee.of(LOCKSTEP_P, cfg), x, v, scene, cfg)
        for a, b, c in zip(first, again, anew):  # positions, clearances, velocities
            assert a.tobytes() == b.tobytes() == c.tobytes()
        other = dataclasses.replace(cfg, master_seed=5)
        reseeded = rollout(Committee.of(LOCKSTEP_P, other), x, v, scene, other)
        assert reseeded[0].tobytes() != first[0].tobytes()  # the streams steer

    def test_master_seed_changes_random_agent(self):
        scene = obstruction_scene()
        p = make_params(k_p=8.0, k_v=4.0, k_cf=30.0, k_r=0.5, r_d=0.3)
        trajs = []
        for seed in (0, 1):
            cfg = PlannerConfig(horizon=25, master_seed=seed)
            trajs.append(alone(Committee.of(p, cfg), 5, scene, cfg))
        assert not np.array_equal(trajs[0].positions, trajs[1].positions)

    def test_speed_cap_limits_step_length(self):
        scene = obstruction_scene()
        cfg = PlannerConfig(horizon=30, v_max=0.7)
        p = make_params(k_p=150.0, k_v=0.0, r_d=0.0)
        traj = alone(Committee.of(p, cfg), 0, scene, cfg)
        steps = np.linalg.norm(np.diff(traj.positions, axis=0), axis=1)
        assert np.all(steps <= cfg.v_max * cfg.dt + 1e-12)


class TestPlanStep:
    def test_all_zero_gains_tie_to_agent_one(self):
        scene = obstruction_scene()
        cfg = PlannerConfig(horizon=10)
        com = Committee.of(make_params(), cfg)
        assert plan_step(com, scene.start, np.zeros(3), scene, cfg, WEIGHTS)[0] == 1

    def test_returns_argmin_agent(self):
        # the rollouts' own clearances score each one bitwise as agent_cost,
        # which scans the scene, scores it alone
        desk = randomize_scene(default_desk_randomizer(), 0)
        for scene, cfg in (
            (obstruction_scene(), PlannerConfig(horizon=10)),
            (desk, BENCH_CFG),
            (desk, PlannerConfig()),
        ):
            com = Committee.of(untuned_baseline(), cfg)
            chosen = plan_step(com, scene.start, np.zeros(3), scene, cfg, WEIGHTS)[0]
            x, v = np.repeat(scene.start[None], cfg.n_agents, 0), np.zeros((cfg.n_agents, 3))
            pos, clr, _ = rollout(com, x, v, scene, cfg)
            scored = agent_costs(pos, clr, scene, WEIGHTS)
            times = np.arange(pos.shape[1]) * cfg.dt
            costs = {
                i: agent_cost(Trajectory(times, pos[k], clr[k]), scene, WEIGHTS)
                for k, i in enumerate(com.ids)
            }
            for k, i in enumerate(com.ids):
                assert scored[k].tobytes() == np.float64(costs[i]).tobytes()
            assert costs[chosen] == min(costs.values())


def spread_states(n: int, around, seed: int, spread: float = 0.15):
    """(n, 3) positions and velocities of agents at different states around
    a point, so that they see different numbers of obstacles in their shells."""
    rng = np.random.default_rng(seed)
    rows = [
        (np.asarray(around) + rng.uniform(-spread, spread, 3), rng.uniform(-0.6, 0.6, 3))
        for _ in range(n)
    ]
    x, v = (np.array(column) for column in zip(*rows))
    return x, v


def clutter_scene() -> Scene:
    """Six spheres around the start, close enough to each other that every
    one has a nearest neighbour inside a 0.3 m shell."""
    centers = [(0.0, 0.12, 0.5), (0.1, -0.1, 0.5), (-0.12, 0.0, 0.55),
               (0.05, 0.0, 0.68), (0.2, 0.1, 0.45), (-0.05, -0.15, 0.35)]
    return Scene(
        obstacles=[SphereObstacle(c, 0.04) for c in centers],
        start=(0.0, 0.0, 0.5),
        goal=(0.6, 0.1, 0.5),
        workspace=WorkspaceBounds((-1.0, -1.0, 0.0), (1.0, 1.0, 1.0)),
    )


JACOBIAN = np.random.default_rng(1).standard_normal((3, 7))
# gains per agent (k_p, k_v, k_cf, k_manip, k_r) differ, so that every force
# term and every heuristic, random ones included, is in play
LOCKSTEP_P = np.r_[
    np.linspace(5.0, 20.0, 7), np.linspace(2.0, 8.0, 7), np.linspace(10.0, 80.0, 7),
    np.linspace(0.5, 3.0, 7), np.linspace(0.05, 0.4, 7), 0.3,
]
CFG_JAC = PlannerConfig(master_seed=4, jacobian=JACOBIAN)


def with_gains(k_cf, k_r) -> np.ndarray:
    p = LOCKSTEP_P.copy()
    p[14:21] *= k_cf
    p[28:35] *= k_r
    return p


ODD, THIRD = np.arange(7) % 2, (np.arange(7) % 3 != 0).astype(float)
# which agents circle (k_cf != 0) and repel (k_r != 0): every one, the same
# few, some of either, disjoint sets, and one kind of force only
GAIN_PATTERNS = {
    "all": LOCKSTEP_P,
    "same_some": with_gains(ODD, ODD),
    "some_circle": with_gains(ODD, 1.0),
    "some_repel": with_gains(1.0, THIRD),
    "disjoint": with_gains(ODD, 1.0 - ODD),
    "overlapping": with_gains(ODD, THIRD),
    "circle_only": with_gains(1.0, 0.0),
    "repel_only": with_gains(0.0, 1.0),
}


class TestLockstep:
    @pytest.mark.parametrize("which", ["obstruction", "clutter", "desk"])
    def test_committee_equals_single_agent_rollouts(self, which):
        # one lockstep rollout of seven agents equals seven one-agent
        # rollouts bit for bit, random streams and arm pull included
        scene = {
            "obstruction": obstruction_scene,
            "clutter": clutter_scene,
            "desk": lambda: randomize_scene(default_desk_randomizer(), 0),
        }[which]()
        cfg = PlannerConfig(horizon=25, master_seed=4, jacobian=JACOBIAN)
        com = Committee.of(LOCKSTEP_P, cfg)
        x, v = spread_states(cfg.n_agents, scene.start, seed=2)
        pos, clr, vel = rollout(com, x, v, scene, cfg)
        assert pos.shape[0] == clr.shape[0] == vel.shape[0] == 7
        for k in range(7):
            solo = alone(com, k, scene, cfg, x, v)
            assert np.array_equal(pos[k], solo.positions)
            assert np.array_equal(clr[k], solo.clearances)

    @pytest.mark.parametrize("gains", GAIN_PATTERNS)
    def test_gain_patterns_equal_single_agent_rollouts(self, gains):
        # each agent's rollout is its A = 1 rollout byte for byte
        scene = clutter_scene()
        cfg = PlannerConfig(horizon=15, master_seed=4, jacobian=JACOBIAN)
        com = Committee.of(GAIN_PATTERNS[gains], cfg)
        x, v = spread_states(cfg.n_agents, scene.start, seed=2)
        pos, clr, vel = rollout(com, x, v, scene, cfg)
        for k in range(cfg.n_agents):
            solo = alone(com, k, scene, cfg, x, v)
            assert pos[k].tobytes() == solo.positions.tobytes()
            assert clr[k].tobytes() == solo.clearances.tobytes()

    def test_far_apart_agents_equal_single_agent_rollouts(self):
        # agents spread over a desk scene share one neighbour list, widened by
        # their spread, and each still gets its own A = 1 rollout byte for byte
        scene = randomize_scene(default_desk_randomizer(), 0)
        cfg = PlannerConfig(horizon=20, master_seed=4, jacobian=JACOBIAN)
        com = Committee.of(LOCKSTEP_P, cfg)
        x, v = spread_states(cfg.n_agents, (0.0, 0.0, 0.55), seed=5, spread=0.5)
        budget = (cfg.horizon * cfg.v_max * cfg.dt, detection_radius(LOCKSTEP_P))
        shared = scene.neighbour_list(x, *budget).size
        assert all(scene.neighbour_list(row[None], *budget).size < shared for row in x)
        pos, clr, _ = rollout(com, x, v, scene, cfg)
        for k in range(cfg.n_agents):
            solo = alone(com, k, scene, cfg, x, v)
            assert pos[k].tobytes() == solo.positions.tobytes()
            assert clr[k].tobytes() == solo.clearances.tobytes()

    def test_agent_without_pairs_adds_zero_sums(self):
        # agent 3 sits far outside every shell while the others circle and
        # repel: its force is its attraction and damping plus exact zeros,
        # as steering_force adds the zero terms of obstacles outside the
        # shell.  With k_p = 0 and no z velocity that turns a -0.0 into 0.0
        scene = clutter_scene()
        p = LOCKSTEP_P.copy()
        p[3] = 0.0
        com = Committee.of(p, CFG_JAC)
        x, v = spread_states(7, scene.start, seed=3)
        x[3], v[3] = (0.9, -0.9, 0.9), (0.2, -0.1, 0.0)
        offsets = x[:, None, :] - scene.centers
        dist = norms(offsets)
        surf = dist - scene.radii
        pairs = (surf <= detection_radius(p)).sum(axis=1)
        assert pairs[3] == 0 and np.all(np.delete(pairs, 3) > 0)
        force = planner._forces(
            x, v, offsets, dist, surf, scene.goal, scene.nearest_other_centers,
            com, RandomRows(com).reader(), None,
        )
        attract = com.k_p[3] * (scene.goal - x[3]) - com.k_v[3] * v[3]
        assert np.signbit(attract[2])
        assert force[3].tobytes() == (attract + 0.0 + 0.0).tobytes()
        oracle = steering_force(
            AgentKinematics(x[3], v[3]), scene.goal, scene.obstacles,
            [np.zeros(3)] * len(scene.obstacles), agent_gains(p, 3, 7), detection_radius(p),
        )
        assert force[3].tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("which", ["obstruction", "clutter"])
    def test_forces_match_scalar_oracle(self, which):
        assert_forces_match_scalar_oracle(which, LOCKSTEP_P)

    @pytest.mark.parametrize("gains", [name for name in GAIN_PATTERNS if name != "all"])
    @pytest.mark.parametrize("which", ["obstruction", "clutter"])
    def test_gain_pattern_forces_match_scalar_oracle(self, which, gains):
        assert_forces_match_scalar_oracle(which, GAIN_PATTERNS[gains])


def assert_forces_match_scalar_oracle(which: str, p: np.ndarray) -> None:
    """One lockstep force evaluation against fields.steering_force with
    currents from heuristics.compute_current, agent by agent."""
    n = CFG_JAC.n_agents
    if which == "obstruction":
        # 0.3 m from the sphere center, 0.15 m from its surface
        scene = obstruction_scene()
        x, v = spread_states(n, scene.start + (0.1, 0, 0), 3, 0.08)
    else:
        scene = clutter_scene()
        x, v = spread_states(n, scene.start, seed=3)
    cfg = CFG_JAC
    com = Committee.of(p, cfg)
    r_d = detection_radius(p)
    offsets = x[:, None, :] - scene.centers
    dist = norms(offsets)
    surf = dist - scene.radii
    assert surf.min() > 0.0  # the scalar repulsion rejects overlaps
    assert np.all(np.any(surf <= r_d, axis=1))  # every agent steers
    force = planner._forces(
        x, v, offsets, dist, surf, scene.goal, scene.nearest_other_centers,
        com, RandomRows(com).reader(), cfg.manip_direction,
    )
    obstacles = scene.obstacles
    for k, (i, kind) in enumerate(zip(com.ids, com.kinds)):
        rng = np.random.default_rng(np.random.SeedSequence([com.seed, i]))
        state = AgentKinematics(x[k], v[k])
        currents = [
            compute_current(
                kind, state, o, scene.goal,
                others=obstacles[:i] + obstacles[i + 1 :], rng=rng,
            )
            if o.surface_distance(state.position) <= r_d
            else np.zeros(3)
            for i, o in enumerate(obstacles)
        ]
        gains = agent_gains(p, k, n)
        want = steering_force(state, scene.goal, obstacles, currents, gains, r_d, JACOBIAN)
        scale = max(float(np.linalg.norm(want)), 1.0)
        assert np.linalg.norm(force[k] - want) <= 1e-12 * scale, kind


def every_obstacle(scene, rows, travel, reach=-np.inf):
    return np.arange(scene.radii.shape[0])


class TestSpreadAgentLists:
    """``Scene.neighbour_list`` for agents spread around a point of a desk
    scene, with the travel and reach of a rollout refresh."""

    CASES = [((0.0, 0.0, 0.55), 0.2), ((0.0, 0.0, 0.55), 0.25), (None, 0.2), (None, 0.05)]

    @pytest.mark.parametrize("around, spread", CASES)
    @pytest.mark.parametrize("seed", [5, 6])
    def test_lists_hold_the_brute_force_set(self, around, spread, seed):
        scene = randomize_scene(default_desk_randomizer(), 0)
        x, _ = spread_states(7, scene.start if around is None else around, seed, spread)
        travel, reach = 0.04, 0.3
        listed = np.zeros(scene.radii.size, dtype=bool)
        listed[scene.neighbour_list(x, travel, reach)] = True
        # every sphere whose surface comes within reach of a point within
        # travel of a row
        gap = norms(x[:, None, :] - scene.centers)
        assert listed[(np.maximum(gap - travel, 0.0) - scene.radii <= reach).any(axis=0)].all()
        # every sphere nearest to such a point
        rng = np.random.default_rng(seed)
        step = rng.standard_normal((7, 40, 3))
        step *= travel * rng.random((7, 40, 1)) / norms(step)[..., None]
        points = np.concatenate([x, (x[:, None, :] + step).reshape(-1, 3)])
        surf = norms(points[:, None, :] - scene.centers) - scene.radii
        assert listed[(surf == surf.min(axis=1, keepdims=True)).any(axis=0)].all()

    def test_spread_agents_list_fewer_spheres(self):
        # a ball centred on the first row listed 2,448 and 1,953 of the 2,669
        # spheres here; centred on the rows' bounding box it lists 1,672 and 605
        scene = randomize_scene(default_desk_randomizer(), 0)
        sizes = []
        for around in ((0.0, 0.0, 0.55), scene.start):
            x, _ = spread_states(7, around, seed=5, spread=0.2)
            sizes.append(scene.neighbour_list(x, 0.04, 0.3).size)
        assert scene.radii.size == 2669
        assert sizes[0] < 1800 and sizes[1] < 700


class TestRefreshedLists:
    @pytest.mark.parametrize(
        "horizon, around, spread", [(50, None, 0.15), (20, (0.0, 0.0, 0.55), 0.2)]
    )
    def test_equals_whole_scene_rollout(self, monkeypatch, horizon, around, spread):
        # lists refreshed every REFRESH_STEPS steps from the current rows give
        # byte for byte the rollout of a pass over every sphere of the scene
        scene = randomize_scene(default_desk_randomizer(), 0)
        cfg = PlannerConfig(horizon=horizon, master_seed=4, jacobian=JACOBIAN)
        com = Committee.of(LOCKSTEP_P, cfg)
        x, v = spread_states(
            cfg.n_agents, scene.start if around is None else around, seed=5, spread=spread
        )
        sizes = []
        listed = Scene.neighbour_list

        def recording(scene, *args):
            near = listed(scene, *args)
            sizes.append(near.size)
            return near

        monkeypatch.setattr(Scene, "neighbour_list", recording)
        got = rollout(com, x, v, scene, cfg)
        assert len(sizes) == horizon // planner.REFRESH_STEPS + 1
        assert max(sizes) < scene.radii.shape[0]
        monkeypatch.setattr(Scene, "neighbour_list", every_obstacle)
        want = rollout(com, x, v, scene, cfg)
        for got_rows, want_rows in zip(got, want):  # positions, clearances, velocities
            assert got_rows.tobytes() == want_rows.tobytes()

    def test_full_speed_toward_a_row_of_spheres(self, monkeypatch):
        # one agent runs at v_max toward a row of small spheres just off its
        # line, so a sphere enters its shell at the last sample each list
        # serves and turns it a little: a list sized one step short misses it
        row = [SphereObstacle((c, 0.02, 0.0), 0.01) for c in np.arange(0.55, 1.5, 0.003)]
        scene = Scene(
            obstacles=row,
            start=(0.0, 0.0, 0.0),
            goal=(10.0, 0.0, 0.0),
            workspace=WorkspaceBounds((-1.0, -1.0, -1.0), (11.0, 1.0, 1.0)),
        )
        cfg = PlannerConfig(n_agents=1, horizon=50)
        com = Committee.of(make_params(1, k_p=1000.0, k_r=1e-3, r_d=0.3), cfg)
        x, v = scene.start[None], np.array([[cfg.v_max, 0.0, 0.0]])
        pos, clr, vel = rollout(com, x, v, scene, cfg)
        assert np.allclose(norms(vel[0]), cfg.v_max, rtol=1e-12, atol=0.0)
        monkeypatch.setattr(Scene, "neighbour_list", every_obstacle)
        want_pos, want_clr, want_vel = rollout(com, x, v, scene, cfg)
        assert vel.tobytes() == want_vel.tobytes()
        assert pos.tobytes() == want_pos.tobytes()
        assert clr.tobytes() == want_clr.tobytes()

    def test_execute_equals_whole_scene_execute(self, monkeypatch):
        # a default-settings plan, start clearance and every replan included
        scene = randomize_scene(default_desk_randomizer(), 0)
        cfg = PlannerConfig(max_steps=60, master_seed=4, jacobian=JACOBIAN)
        got = execute(scene, LOCKSTEP_P, cfg, WEIGHTS)
        monkeypatch.setattr(Scene, "neighbour_list", every_obstacle)
        want = execute(scene, LOCKSTEP_P, cfg, WEIGHTS)
        assert got.trajectory.positions.tobytes() == want.trajectory.positions.tobytes()
        assert got.trajectory.clearances.tobytes() == want.trajectory.clearances.tobytes()
        assert got.best_agent_history == want.best_agent_history


class TestExecute:
    def test_zero_params_stay_put(self):
        scene = obstruction_scene()
        cfg = PlannerConfig(horizon=10, replan_every=10, max_steps=40)
        result = execute(scene, make_params(), cfg, WEIGHTS)
        assert not result.reached
        assert result.steps_used == 40
        assert np.allclose(result.trajectory.positions[-1], scene.start)

    def test_deterministic(self):
        scene = obstruction_scene()
        a = execute(scene, untuned_baseline(), BENCH_CFG, WEIGHTS)
        b = execute(scene, untuned_baseline(), BENCH_CFG, WEIGHTS)
        assert np.array_equal(a.trajectory.positions, b.trajectory.positions)
        assert a.best_agent_history == b.best_agent_history

    def test_reaches_easy_goal(self):
        from tests.conftest import empty_scene

        scene = empty_scene(goal=(0.3, 0.2, 0.6))
        cfg = PlannerConfig(horizon=10, replan_every=20, max_steps=2000)
        result = execute(scene, make_params(k_p=10.0, k_v=5.0), cfg, WEIGHTS)
        assert result.reached
        final = result.trajectory.positions[-1]
        assert np.linalg.norm(final - scene.goal) <= cfg.goal_tolerance
        assert result.min_clearance == EMPTY_CLEARANCE
        assert np.all(result.trajectory.clearances == EMPTY_CLEARANCE)  # start included

    def test_replan_cadence(self):
        scene = obstruction_scene()
        cfg = PlannerConfig(horizon=10, replan_every=15, max_steps=45)
        result = execute(scene, make_params(), cfg, WEIGHTS)
        assert [step for step, _ in result.best_agent_history] == [0, 15, 30]
        assert all(1 <= a <= cfg.n_agents for _, a in result.best_agent_history)

    def test_short_last_segment(self):
        # max_steps is not a multiple of replan_every: the last segment runs
        # the remaining 10 steps
        scene = obstruction_scene()
        cfg = PlannerConfig(horizon=10, replan_every=15, max_steps=40)
        result = execute(scene, untuned_baseline(), cfg, WEIGHTS)
        assert [step for step, _ in result.best_agent_history] == [0, 15, 30]
        assert not result.reached
        assert result.steps_used == 40
        assert len(result.trajectory) == 41

    def test_min_clearance_matches_trajectory(self):
        scene = obstruction_scene()
        result = execute(scene, untuned_baseline(), BENCH_CFG, WEIGHTS)
        assert result.min_clearance == pytest.approx(
            float(result.trajectory.clearances.min())
        )

    def test_trajectory_trimmed_to_steps(self):
        scene = obstruction_scene()
        cfg = PlannerConfig(horizon=10, replan_every=10, max_steps=30)
        result = execute(scene, make_params(), cfg, WEIGHTS)
        assert len(result.trajectory) == result.steps_used + 1

    def test_builds_one_committee_per_plan(self, monkeypatch):
        built, tables = [], []
        original = planner.Committee.of

        def counting(p, cfg):
            built.append(original(p, cfg))
            return built[-1]

        class CountedRows(RandomRows):
            def __init__(self, com):
                super().__init__(com)
                tables.append(com)

        monkeypatch.setattr(planner.Committee, "of", counting)
        monkeypatch.setattr(planner, "RandomRows", CountedRows)
        result = execute(obstruction_scene(), untuned_baseline(), BENCH_CFG, WEIGHTS)
        assert len(result.best_agent_history) > 1
        assert len(built) == 1 and tables == built

    def test_start_at_goal_short_circuits(self):
        from tests.conftest import empty_scene

        scene = empty_scene(goal=(0.0, 0.0, 0.0))
        cfg = PlannerConfig(horizon=10, max_steps=100)
        result = execute(scene, make_params(), cfg, WEIGHTS)
        assert result.reached
        assert result.steps_used == 0
        assert len(result.trajectory) == 1


def recorded_execute(monkeypatch, scene, p, cfg):
    """``execute`` with each replan's start state (x, v) and ``plan_step``
    result recorded, in order."""
    steps = []
    original = planner.plan_step

    def wrapper(com, x, v, *args):
        steps.append(((x, v), *original(com, x, v, *args)))
        return steps[-1][1:]

    monkeypatch.setattr(planner, "plan_step", wrapper)
    return execute(scene, p, cfg, WEIGHTS), steps


def assert_segments_are_rollout_prefixes(result, steps, dt):
    """Each committed segment, start sample included, is byte for byte the
    start of the rollout that won its replan, and the next replan starts from
    that rollout's state at the cut."""
    assert [won for _, won in result.best_agent_history] == [won for _, won, *_ in steps]
    bounds = [step for step, _ in result.best_agent_history] + [result.steps_used]
    traj = result.trajectory
    for k, ((_, _, pos, clr, vel), a, b) in enumerate(zip(steps, bounds, bounds[1:])):
        n = b - a
        assert pos.shape[0] == clr.shape[0] == vel.shape[0] > n
        assert traj.positions[a : b + 1].tobytes() == pos[: n + 1].tobytes()
        assert traj.clearances[a : b + 1].tobytes() == clr[: n + 1].tobytes()
        # semi-implicit Euler moves each sample by dt times the next velocity
        assert np.allclose(np.diff(pos, axis=0), dt * vel[1:], rtol=0, atol=1e-12)
        if k + 1 < len(steps):
            x, v = steps[k + 1][0]
            assert x.tobytes() == pos[n].tobytes()
            assert v.tobytes() == vel[n].tobytes()


class TestCommittedSegment:
    def test_random_winners_commit_their_rollout(self, monkeypatch):
        cfg = PlannerConfig(horizon=20, replan_every=5, max_steps=200, master_seed=4)
        result, steps = recorded_execute(monkeypatch, clutter_scene(), LOCKSTEP_P, cfg)
        won = [agent_heuristic(a) for _, a in result.best_agent_history]
        assert HeuristicKind.RANDOM in won
        assert_segments_are_rollout_prefixes(result, steps, cfg.dt)

    def test_replan_longer_than_horizon(self, monkeypatch):
        # every rollout runs replan_every steps, so it covers its segment
        cfg = PlannerConfig(horizon=10, replan_every=15, max_steps=300, master_seed=4)
        result, steps = recorded_execute(monkeypatch, clutter_scene(), LOCKSTEP_P, cfg)
        assert len(steps) > 1
        assert all(pos.shape[0] == cfg.replan_every + 1 for _, _, pos, _, _ in steps)
        assert_segments_are_rollout_prefixes(result, steps, cfg.dt)

    def test_goal_mid_segment_stops_at_first_sample_within_tolerance(self, monkeypatch):
        from tests.conftest import empty_scene

        scene = empty_scene(goal=(0.3, 0.2, 0.6))
        cfg = PlannerConfig(horizon=10, replan_every=20, max_steps=2000)
        result, steps = recorded_execute(monkeypatch, scene, make_params(k_p=10.0, k_v=5.0), cfg)
        assert result.reached
        last_replan = result.best_agent_history[-1][0]
        assert 0 < result.steps_used - last_replan < cfg.replan_every
        gaps = np.linalg.norm(steps[-1][2] - scene.goal, axis=1)
        assert gaps[result.steps_used - last_replan] <= cfg.goal_tolerance
        assert np.all(gaps[1 : result.steps_used - last_replan] > cfg.goal_tolerance)
        assert len(result.trajectory) == result.steps_used + 1
        assert_segments_are_rollout_prefixes(result, steps, cfg.dt)


class TestConfigValidation:
    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            PlannerConfig(horizon=0)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            PlannerConfig(dt=0.0)

    def test_rejects_bad_replan(self):
        with pytest.raises(ValueError):
            PlannerConfig(replan_every=0)

    def test_rejects_bad_jacobian_shape(self):
        with pytest.raises(ValueError):
            PlannerConfig(jacobian=np.zeros((2, 4)))
