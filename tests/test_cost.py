"""Cost oracles: every term pinned by a hand-computed value, plus agreement
with brute-force reimplementations on random trajectories."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from cfplan import cost
from cfplan.cost import (
    D_CLAMP,
    LIST_BLOCK,
    AgentCostWeights,
    TrajectoryCostWeights,
    agent_cost,
    scene_clearances,
    surface_clearances,
    trajectory_cost,
    workspace_violation,
)
from cfplan.planner import Trajectory, execute
from cfplan.scene import (
    Scene,
    SphereObstacle,
    WorkspaceBounds,
    default_desk_randomizer,
    randomize_scene,
)
from tests.conftest import (
    BENCH_CFG,
    brute_agent_cost,
    brute_trajectory_cost,
    empty_scene,
    obstruction_scene,
    untuned_baseline,
)

WS = WorkspaceBounds(min=(-2, -2, -2), max=(2, 2, 2))


def traj_of(positions) -> Trajectory:
    pos = np.asarray(positions, dtype=float)
    n = pos.shape[0]
    return Trajectory(np.arange(n) * 0.01, pos, np.zeros(n))


def scene_of(goal, obstacles=(), workspace=WS) -> Scene:
    return Scene(obstacles=tuple(obstacles), start=(9.0, 9.0, 9.0), goal=goal, workspace=workspace)


class TestSurfaceClearances:
    def test_values(self):
        centers = np.array([[1.0, 0, 0], [0, 0, 3.0]])
        radii = np.array([0.5, 1.0])
        d = surface_clearances(np.array([[0.0, 0, 0], [0, 0, 2.5]]), centers, radii)
        assert np.allclose(d, [0.5, -0.5], atol=1e-12)

    def test_empty_scene_is_inf(self):
        d = surface_clearances(np.zeros((3, 3)), np.zeros((0, 3)), np.zeros(0))
        assert np.all(np.isinf(d))

    def test_chunking_invisible(self):
        # 700 rows span 11 blocks of CLEARANCE_CHUNK = 64, the last one partial
        rng = np.random.default_rng(0)
        pos = rng.uniform(-1, 1, (700, 3))
        centers = rng.uniform(-1, 1, (5, 3))
        radii = rng.uniform(0.05, 0.2, 5)
        one_shot = (np.linalg.norm(pos[:, None] - centers, axis=2) - radii).min(axis=1)
        assert np.array_equal(surface_clearances(pos, centers, radii), one_shot)


def desk_path(scene: Scene, n: int) -> np.ndarray:
    """``n`` samples winding from the scene's start to the center of the
    sphere nearest its goal, in free space first and then into that sphere."""
    end = scene.centers[scene.tree.query(scene.goal)[1]]
    s = np.linspace(0.0, 1.0, n)[:, None]
    wiggle = 0.05 * (1.0 - s) * np.c_[np.sin(40 * s), np.cos(40 * s), np.sin(25 * s)]
    return scene.start + s * (end - scene.start) + wiggle


class TestSceneClearances:
    def test_desk_path_equals_whole_scene_scan(self):
        # 613 rows: 38 full blocks of LIST_BLOCK and a partial one,
        # each listing a small part of the scene
        scene = randomize_scene(default_desk_randomizer(), 0)
        rows = desk_path(scene, 613)
        assert rows.shape[0] % LIST_BLOCK
        assert scene.neighbour_list(rows[:LIST_BLOCK], 0.0).size < scene.radii.size // 4
        got = scene_clearances(rows, scene)
        want = surface_clearances(rows, scene.centers, scene.radii)
        assert (got < 0.0).any() and (got > 0.0).any()
        assert got.tobytes() == want.tobytes()

    def test_block_listing_the_whole_scene(self):
        # a block of rows scattered over the desk lists every sphere, so it
        # and the path after it are scanned against the whole scene
        scene = randomize_scene(default_desk_randomizer(), 0)
        scattered = np.random.default_rng(0).uniform(-0.8, 1.0, (LIST_BLOCK, 3))
        assert scene.neighbour_list(scattered, 0.0).size == scene.radii.size
        rows = np.concatenate([desk_path(scene, 40), scattered, desk_path(scene, 40)])
        want = surface_clearances(rows, scene.centers, scene.radii)
        assert scene_clearances(rows, scene).tobytes() == want.tobytes()

    def test_one_sphere(self):
        scene = obstruction_scene()
        rows = np.random.default_rng(0).uniform(-1, 1, (40, 3))
        want = surface_clearances(rows, scene.centers, scene.radii)
        assert scene_clearances(rows, scene).tobytes() == want.tobytes()

    def test_empty_scene_is_inf(self):
        got = scene_clearances(np.zeros((20, 3)), empty_scene())
        assert got.shape == (20,) and np.all(got == np.inf)


class TestWorkspaceViolation:
    def test_inside_is_zero(self):
        assert workspace_violation(np.zeros((4, 3)), WS) == 0.0

    def test_squared_overshoot(self):
        pos = np.array([[2.1, 0, 0], [0, -2.3, 0]])
        assert workspace_violation(pos, WS) == pytest.approx(0.01 + 0.09, abs=1e-12)

    def test_multi_axis_sum(self):
        pos = np.array([[2.1, 2.2, 0]])
        assert workspace_violation(pos, WS) == pytest.approx(0.01 + 0.04, abs=1e-12)


class TestAgentCost:
    def test_stationary_at_goal_obstacle_term_only(self):
        goal = np.zeros(3)
        obstacle = SphereObstacle(center=(1.0, 0, 0), radius=0.5)
        scene = scene_of(goal, [obstacle])
        traj = traj_of([goal, goal, goal])
        # d_min = 0.5, so the only term is w_od / 0.5
        w = AgentCostWeights()
        assert agent_cost(traj, scene, w) == pytest.approx(w.obstacle / 0.5, abs=1e-12)

    def test_path_and_goal_terms(self):
        scene = scene_of((1.0, 0, 0))
        traj = traj_of([[0, 0, 0], [0.25, 0, 0], [0.5, 0, 0]])
        w = AgentCostWeights(path_length=2.0, goal_distance=3.0, obstacle=0.0, workspace=0.0)
        assert agent_cost(traj, scene, w) == pytest.approx(2.0 * 0.5 + 3.0 * 0.5, abs=1e-12)

    def test_obstacle_term_skips_first_sample(self):
        # the start touches the obstacle; every later sample is 0.5 away
        obstacle = SphereObstacle(center=(0.0, 0, 0), radius=0.5)
        scene = scene_of((2.0, 0, 0), [obstacle])
        traj = traj_of([[0.5, 0, 0], [1.0, 0, 0], [1.0, 0, 0]])
        w = AgentCostWeights(path_length=0.0, goal_distance=0.0, obstacle=1.0, workspace=0.0)
        assert agent_cost(traj, scene, w) == pytest.approx(1.0 / 0.5, abs=1e-12)

    def test_collision_is_clamped(self):
        obstacle = SphereObstacle(center=(0.0, 0, 0), radius=0.5)
        scene = scene_of((0.0, 0, 0), [obstacle])
        traj = traj_of([[2.0, 0, 0], [0.0, 0, 0]])  # second sample at the center
        w = AgentCostWeights(path_length=0.0, goal_distance=0.0, obstacle=1.0, workspace=0.0)
        assert agent_cost(traj, scene, w) == pytest.approx(1.0 / D_CLAMP)

    def test_workspace_term(self):
        scene = scene_of((0.0, 0, 0))
        traj = traj_of([[0, 0, 0], [2.1, 0, 0], [2.1, 0, 0]])
        w = AgentCostWeights(path_length=0.0, goal_distance=0.0, obstacle=0.0, workspace=10.0)
        assert agent_cost(traj, scene, w) == pytest.approx(10.0 * 0.02, abs=1e-12)

    def test_no_obstacles_drops_term(self):
        scene = scene_of((0.0, 0, 0))
        traj = traj_of([[0, 0, 0], [0, 0, 0.0 + 1e-12]])
        w = AgentCostWeights(path_length=0.0, goal_distance=0.0, obstacle=5.0, workspace=0.0)
        assert agent_cost(traj, scene, w) == 0.0


class TestTrajectoryCost:
    def test_two_sample_oracle(self):
        # start (0,0,0) -> (1,0,0); obstacle at (0.5, 1, 0) r=0.1; goal at the endpoint
        obstacle = SphereObstacle(center=(0.5, 1.0, 0.0), radius=0.1)
        scene = scene_of((1.0, 0, 0), [obstacle])
        traj = traj_of([[0, 0, 0], [1.0, 0, 0]])
        d1 = math.sqrt(0.25 + 1.0) - 0.1
        w = TrajectoryCostWeights(clearance=1.0, path_length=1.0, smoothness=1.0, goal_deviation=1.0)
        expected = 1.0 / d1 + 1.0  # T=1: no smoothness, zero goal deviation
        assert trajectory_cost(traj, scene, w) == pytest.approx(expected, abs=1e-12)

    def test_clearance_is_mean_over_tail(self):
        obstacle = SphereObstacle(center=(0.0, 0, 0), radius=0.5)
        scene = scene_of((9.0, 9, 9), [obstacle])
        traj = traj_of([[1.0, 0, 0], [1.5, 0, 0], [2.5, 0, 0]])
        w = TrajectoryCostWeights(clearance=1.0, path_length=0.0, smoothness=0.0, goal_deviation=0.0)
        expected = (1.0 / 1.0 + 1.0 / 2.0) / 2.0
        assert trajectory_cost(traj, scene, w) == pytest.approx(expected, abs=1e-12)

    def test_smoothness_drops_first_kink(self):
        # velocity jumps at sample 1 (rest -> moving) and at sample 2 (stop)
        pos = [[0, 0, 0], [0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [2.0, 0, 0]]
        scene = scene_of((2.0, 0, 0))
        w = TrajectoryCostWeights(clearance=0.0, path_length=0.0, smoothness=1.0, goal_deviation=0.0)
        # second differences at samples 1..3: (1,0,0), (0,0,0), (-1,0,0); drop the first
        expected = (0.0 + 1.0) / (4 - 1)
        assert trajectory_cost(traj_of(pos), scene, w) == pytest.approx(expected, abs=1e-12)

    def test_smoothness_zero_for_short(self):
        scene = scene_of((1.0, 0, 0))
        w = TrajectoryCostWeights(clearance=0.0, path_length=0.0, smoothness=1.0, goal_deviation=0.0)
        assert trajectory_cost(traj_of([[0, 0, 0], [0.3, 0, 0], [0.9, 0, 0]]), scene, w) == 0.0

    def test_goal_deviation(self):
        scene = scene_of((1.0, 1.0, 0))
        traj = traj_of([[0, 0, 0], [1.0, 0, 0]])
        w = TrajectoryCostWeights(clearance=0.0, path_length=0.0, smoothness=0.0, goal_deviation=2.0)
        assert trajectory_cost(traj, scene, w) == pytest.approx(2.0, abs=1e-12)

    def test_default_weights(self):
        w = TrajectoryCostWeights()
        assert (w.clearance, w.path_length, w.smoothness, w.goal_deviation) == (
            0.03,
            0.3,
            0.01,
            10.0,
        )


class TestWeights:
    @pytest.mark.parametrize("cls", [AgentCostWeights, TrajectoryCostWeights])
    @pytest.mark.parametrize("value", ["0.5", True, None, float("nan"), float("inf")])
    def test_rejects_non_finite_reals(self, cls, value):
        name = dataclasses.fields(cls)[1].name
        with pytest.raises(ValueError, match=f"{cls.__name__}.{name} must be a finite real"):
            cls(**{name: value})

    def test_integers_accepted(self):
        assert AgentCostWeights(obstacle=2).obstacle == 2
        assert TrajectoryCostWeights(clearance=0).clearance == 0


class TestBruteForceAgreement:
    @pytest.mark.parametrize("seed", range(8))
    def test_agent_cost(self, seed):
        rng = np.random.default_rng(seed)
        scene = scene_of(
            rng.uniform(-1, 1, 3),
            [SphereObstacle(center=rng.uniform(-1, 1, 3), radius=0.2) for _ in range(3)],
        )
        traj = traj_of(rng.uniform(-2.2, 2.2, (10, 3)))
        w = AgentCostWeights(*rng.uniform(0.1, 5.0, 4))
        got = agent_cost(traj, scene, w)
        want = brute_agent_cost(traj, scene, w)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("which", ["planned", "winding"])
    def test_dense_desk(self, which):
        # a desk plan of the untuned baseline and a path through spheres,
        # each scored against every sphere of a ~2.7k-sphere scene
        scene = randomize_scene(default_desk_randomizer(), 0)
        if which == "planned":
            traj = execute(scene, untuned_baseline(), BENCH_CFG, AgentCostWeights()).trajectory
        else:
            traj = traj_of(desk_path(scene, 75))
        assert len(traj) > 2 * LIST_BLOCK
        aw, tw = AgentCostWeights(), TrajectoryCostWeights()
        want = brute_agent_cost(traj, scene, aw)
        assert agent_cost(traj, scene, aw) == pytest.approx(want, rel=1e-12)
        want = brute_trajectory_cost(traj, scene, tw)
        assert trajectory_cost(traj, scene, tw) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_trajectory_cost(self, seed):
        rng = np.random.default_rng(seed)
        scene = scene_of(
            rng.uniform(-1, 1, 3),
            [SphereObstacle(center=rng.uniform(-1, 1, 3), radius=0.2) for _ in range(3)],
        )
        traj = traj_of(rng.uniform(-2.2, 2.2, (10, 3)))
        w = TrajectoryCostWeights(*rng.uniform(0.1, 5.0, 4))
        got = trajectory_cost(traj, scene, w)
        want = brute_trajectory_cost(traj, scene, w)
        assert got == pytest.approx(want, rel=1e-12)


def one_rollout_cost(pos, scene, w) -> float:
    """``agent_cost`` of one rollout as numpy rounds it scored alone, with a
    scan of every obstacle."""
    c = w.path_length * (
        float(np.linalg.norm(np.diff(pos, axis=0), axis=1).sum()) if pos.shape[0] >= 2 else 0.0
    )
    c += w.goal_distance * float(np.linalg.norm(scene.goal - pos[-1]))
    if scene.radii.shape[0] > 0 and pos.shape[0] >= 2:
        d_min = float(surface_clearances(pos[1:], scene.centers, scene.radii).min())
        c += w.obstacle / max(d_min, D_CLAMP)
    if pos.shape[0] >= 2:
        below = np.maximum(scene.workspace.min - pos[1:], 0.0)
        above = np.maximum(pos[1:] - scene.workspace.max, 0.0)
        c += w.workspace * float((below**2).sum() + (above**2).sum())
    return c


def rollout_stack(seed: int, start, n_agents: int, samples: int, step: float) -> np.ndarray:
    """(n_agents, samples, 3) random walks from a shared start."""
    rng = np.random.default_rng(seed)
    steps = rng.normal(scale=step, size=(n_agents, samples - 1, 3))
    walk = np.concatenate((np.zeros((n_agents, 1, 3)), np.cumsum(steps, axis=1)), axis=1)
    return np.asarray(start, dtype=float) + walk


class TestAgentCosts:
    @pytest.mark.parametrize(
        "which, samples",
        [
            ("obstruction", 21),
            ("obstruction", 1),
            ("obstruction", 2),
            ("empty", 21),
            ("empty", 1),
            ("outside", 21),
            ("desk", 51),
        ],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_bitwise_per_rollout(self, which, samples, seed):
        # one call over a stack scores each rollout bitwise as it scores alone
        if which == "desk":
            scene = randomize_scene(default_desk_randomizer(), seed)
        elif which == "empty":
            scene = empty_scene()
        else:
            scene = obstruction_scene()
        step = 0.4 if which == "outside" else 0.01  # "outside" leaves the workspace
        pos = rollout_stack(seed, scene.start, 7, samples, step)
        w = AgentCostWeights(*np.random.default_rng(seed).uniform(0.1, 5.0, 4))
        clr = surface_clearances(pos, scene.centers, scene.radii).reshape(pos.shape[:2])
        got = cost.agent_costs(pos, clr, scene, w)
        assert got.shape == (7,)
        for k in range(7):
            want = one_rollout_cost(pos[k], scene, w)
            assert got[k].tobytes() == np.float64(want).tobytes()
            assert agent_cost(traj_of(pos[k]), scene, w) == want
        if which == "outside" and samples > 1:
            assert all(workspace_violation(p[1:], scene.workspace) > 0.0 for p in pos)

    @pytest.mark.parametrize("shape", [(7, 0, 3), (7, 3), (2, 5, 2)])
    def test_rejects_other_shapes(self, shape):
        with pytest.raises(ValueError, match="positions must have shape"):
            cost.agent_costs(
                np.zeros(shape), np.zeros(shape[:2]), obstruction_scene(), AgentCostWeights()
            )

    @pytest.mark.parametrize("shape", [(7,), (7, 4), (6, 5), (7, 5, 1)])
    def test_rejects_clearances_of_another_shape(self, shape):
        with pytest.raises(ValueError, match="clearances must have shape"):
            cost.agent_costs(
                np.zeros((7, 5, 3)), np.zeros(shape), obstruction_scene(), AgentCostWeights()
            )
