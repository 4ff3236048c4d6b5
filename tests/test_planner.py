"""Planner integration, rollouts, agent selection, and closed-loop execution."""

from __future__ import annotations

import numpy as np
import pytest

from cfplan import planner
from cfplan.cost import AgentCostWeights, agent_cost
from cfplan.fields import AgentKinematics, steering_force
from cfplan.heuristics import compute_current
from cfplan.planner import (
    EMPTY_CLEARANCE,
    PlannerConfig,
    Trajectory,
    execute,
    integrate_step,
    make_agents,
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


class TestIntegrateStep:
    def test_semi_implicit_order(self):
        kin = AgentKinematics(np.zeros(3), np.zeros(3))
        out = integrate_step(kin, (10.0, 0, 0), mass=1.0, dt=0.01, v_max=1.0)
        assert np.allclose(out.velocity, [0.1, 0, 0], atol=1e-15)
        # position moves with the NEW velocity
        assert np.allclose(out.position, [0.001, 0, 0], atol=1e-15)

    def test_mass_scales_acceleration(self):
        kin = AgentKinematics(np.zeros(3), np.zeros(3))
        out = integrate_step(kin, (10.0, 0, 0), mass=2.0, dt=0.01, v_max=1.0)
        assert np.allclose(out.velocity, [0.05, 0, 0], atol=1e-15)

    def test_speed_cap(self):
        kin = AgentKinematics(np.zeros(3), np.array([0.0, 0.9, 0.0]))
        out = integrate_step(kin, (500.0, 0, 0), mass=1.0, dt=0.01, v_max=1.0)
        assert np.linalg.norm(out.velocity) == pytest.approx(1.0)

    def test_cap_preserves_direction(self):
        kin = AgentKinematics(np.zeros(3), np.zeros(3))
        out = integrate_step(kin, (300.0, 400.0, 0), mass=1.0, dt=1.0, v_max=1.0)
        assert np.allclose(out.velocity, [0.6, 0.8, 0.0], atol=1e-12)

    def test_zero_force_coasts(self):
        kin = AgentKinematics(np.array([1.0, 0, 0]), np.array([0.5, 0, 0]))
        out = integrate_step(kin, (0, 0, 0), mass=1.0, dt=0.1, v_max=1.0)
        assert np.allclose(out.position, [1.05, 0, 0], atol=1e-15)


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


class TestMakeAgents:
    def test_ids_and_gains(self):
        cfg = PlannerConfig()
        p = make_params(k_p=2.0, k_v=1.0, r_d=0.4)
        agents = make_agents(p, cfg)
        assert [a.id for a in agents] == [1, 2, 3, 4, 5, 6, 7]
        assert all(a.gains.k_p == 2.0 and a.r_d == 0.4 for a in agents)

    def test_rejects_bad_vector(self):
        with pytest.raises(ValueError):
            make_agents(np.zeros(10), PlannerConfig())


class TestRollout:
    def test_shape_and_times(self):
        scene = obstruction_scene()
        cfg = PlannerConfig(horizon=20)
        agent = make_agents(untuned_baseline(), cfg)[0]
        agent.state = AgentKinematics(scene.start, np.zeros(3))
        traj = rollout(agent, scene, cfg)
        assert len(traj) == 21
        assert np.allclose(np.diff(traj.times), cfg.dt)
        assert np.allclose(traj.positions[0], scene.start)

    def test_clearances_match_scene(self):
        scene = obstruction_scene()
        cfg = PlannerConfig(horizon=15)
        agent = make_agents(untuned_baseline(), cfg)[2]
        agent.state = AgentKinematics(scene.start, np.zeros(3))
        traj = rollout(agent, scene, cfg)
        centers, radii = scene_arrays(scene)
        for k in range(len(traj)):
            expected = min_surface_distance(traj.positions[k], centers, radii)
            assert traj.clearances[k] == pytest.approx(expected, abs=1e-12)

    def test_random_agent_rollout_is_pure(self):
        # repeated rollouts of a stochastic agent must be bit-identical
        scene = obstruction_scene()
        cfg = PlannerConfig(horizon=25, master_seed=5)
        p = make_params(k_p=8.0, k_v=4.0, k_cf=30.0, k_r=0.5, r_d=0.3)
        agent = make_agents(p, cfg)[5]  # id 6: first RANDOM heuristic
        agent.state = AgentKinematics(scene.start, np.zeros(3))
        a = rollout(agent, scene, cfg)
        _ = rollout(make_agents(p, cfg)[6], scene, cfg)  # interleaved other agent
        b = rollout(agent, scene, cfg)
        assert np.array_equal(a.positions, b.positions)

    def test_master_seed_changes_random_agent(self):
        scene = obstruction_scene()
        p = make_params(k_p=8.0, k_v=4.0, k_cf=30.0, k_r=0.5, r_d=0.3)
        trajs = []
        for seed in (0, 1):
            cfg = PlannerConfig(horizon=25, master_seed=seed)
            agent = make_agents(p, cfg)[5]
            agent.state = AgentKinematics(scene.start, np.zeros(3))
            trajs.append(rollout(agent, scene, cfg))
        assert not np.array_equal(trajs[0].positions, trajs[1].positions)

    def test_speed_cap_limits_step_length(self):
        scene = obstruction_scene()
        cfg = PlannerConfig(horizon=30, v_max=0.7)
        p = make_params(k_p=150.0, k_v=0.0, r_d=0.0)
        agent = make_agents(p, cfg)[0]
        agent.state = AgentKinematics(scene.start, np.zeros(3))
        traj = rollout(agent, scene, cfg)
        steps = np.linalg.norm(np.diff(traj.positions, axis=0), axis=1)
        assert np.all(steps <= cfg.v_max * cfg.dt + 1e-12)


class TestPlanStep:
    def test_all_zero_gains_tie_to_agent_one(self):
        scene = obstruction_scene()
        cfg = PlannerConfig(horizon=10)
        agents = make_agents(make_params(), cfg)
        kin = AgentKinematics(scene.start, np.zeros(3))
        for a in agents:
            a.state = kin
        assert plan_step(agents, scene, cfg, WEIGHTS) == 1

    def test_returns_argmin_agent(self):
        scene = obstruction_scene()
        cfg = PlannerConfig(horizon=10)
        agents = make_agents(untuned_baseline(), cfg)
        kin = AgentKinematics(scene.start, np.zeros(3))
        for a in agents:
            a.state = kin
        chosen = plan_step(agents, scene, cfg, WEIGHTS)
        costs = {
            a.id: agent_cost(rollout(a, scene, cfg), scene, WEIGHTS) for a in agents
        }
        assert costs[chosen] == min(costs.values())


def spread_agents(p: np.ndarray, cfg: PlannerConfig, around, seed: int, spread: float = 0.15):
    """Committee agents at different states around a point, so that they see
    different numbers of obstacles in their shells."""
    rng = np.random.default_rng(seed)
    agents = make_agents(p, cfg)
    for a in agents:
        a.state = AgentKinematics(
            np.asarray(around) + rng.uniform(-spread, spread, 3), rng.uniform(-0.6, 0.6, 3)
        )
    return agents


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
        agents = spread_agents(LOCKSTEP_P, cfg, scene.start, seed=2)
        together = planner._rollouts(agents, scene, cfg)
        assert len(together) == 7
        for agent, traj in zip(agents, together):
            alone = rollout(agent, scene, cfg)
            assert np.array_equal(traj.positions, alone.positions)
            assert np.array_equal(traj.clearances, alone.clearances)

    @pytest.mark.parametrize("which", ["obstruction", "clutter"])
    def test_forces_match_scalar_oracle(self, which):
        # one lockstep force evaluation against fields.steering_force with
        # currents from heuristics.compute_current, agent by agent
        if which == "obstruction":
            # 0.3 m from the sphere center, 0.15 m from its surface
            scene = obstruction_scene()
            agents = spread_agents(LOCKSTEP_P, CFG_JAC, scene.start + (0.1, 0, 0), 3, 0.08)
        else:
            scene = clutter_scene()
            agents = spread_agents(LOCKSTEP_P, CFG_JAC, scene.start, seed=3)
        cfg = CFG_JAC
        x = np.stack([a.state.position for a in agents])
        v = np.stack([a.state.velocity for a in agents])
        offsets = x[:, None, :] - scene.centers
        dist = norms(offsets)
        surf = dist - scene.radii
        assert surf.min() > 0.0  # the scalar repulsion rejects overlaps
        assert np.all(np.any(surf <= agents[0].r_d, axis=1))  # every agent steers
        rngs = [planner._rollout_rng(cfg, a) for a in agents]
        force = planner._forces(
            x, v, offsets, dist, surf, scene, planner._Committee.of(agents), rngs,
            cfg.manip_direction,
        )
        obstacles = scene.obstacles
        for k, a in enumerate(agents):
            rng = planner._rollout_rng(cfg, a)
            currents = [
                compute_current(
                    a.heuristic, a.state, o, scene.goal,
                    others=obstacles[:i] + obstacles[i + 1 :], rng=rng,
                )
                if o.surface_distance(a.state.position) <= a.r_d
                else np.zeros(3)
                for i, o in enumerate(obstacles)
            ]
            want = steering_force(
                a.state, scene.goal, obstacles, currents, a.gains, a.r_d, JACOBIAN
            )
            scale = max(float(np.linalg.norm(want)), 1.0)
            assert np.linalg.norm(force[k] - want) <= 1e-12 * scale, a.heuristic


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

    def test_start_at_goal_short_circuits(self):
        from tests.conftest import empty_scene

        scene = empty_scene(goal=(0.0, 0.0, 0.0))
        cfg = PlannerConfig(horizon=10, max_steps=100)
        result = execute(scene, make_params(), cfg, WEIGHTS)
        assert result.reached
        assert result.steps_used == 0
        assert len(result.trajectory) == 1


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
