"""Current-heuristic oracles: assignment order, unit norms, fallbacks, and
batch/scalar agreement."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cfplan.fields import AgentKinematics
from cfplan.heuristics import (
    HeuristicKind,
    agent_heuristic,
    batch_currents,
    compute_current,
)
from cfplan.scene import SphereObstacle
from cfplan.vec3 import norms

GOAL = np.array([1.0, 0.5, 0.0])


def kin(position, velocity) -> AgentKinematics:
    return AgentKinematics(position=position, velocity=velocity)


def current_for(kind, position, velocity, center, goal=GOAL, others=(), rng=None):
    return compute_current(
        kind,
        kin(position, velocity),
        SphereObstacle(center=center, radius=0.05),
        goal,
        others=tuple(SphereObstacle(center=c, radius=0.05) for c in others),
        rng=rng,
    )


def one_agent_currents(kind, position, velocity, centers, goal, nn_centers, rng):
    """``batch_currents`` for a committee of one agent facing every row of
    ``centers``."""
    position = np.asarray(position, dtype=float)
    offsets = position - centers
    return batch_currents(
        (kind,),
        np.zeros(centers.shape[0], dtype=np.intp),
        position[None, :],
        np.asarray(velocity, dtype=float)[None, :],
        offsets,
        norms(offsets),
        goal,
        nn_centers,
        (rng,),
    )


class TestAssignment:
    def test_deterministic_order(self):
        kinds = [agent_heuristic(i) for i in range(1, 6)]
        assert kinds == [
            HeuristicKind.VELOCITY,
            HeuristicKind.PATH_LENGTH,
            HeuristicKind.GOAL_VECTOR,
            HeuristicKind.OBSTACLE_DISTANCE,
            HeuristicKind.PATH_LENGTH_OBSTACLE_DISTANCE,
        ]

    def test_random_streams(self):
        assert [agent_heuristic(i) for i in (6, 7, 9)] == [HeuristicKind.RANDOM] * 3

    def test_ids_are_one_based(self):
        with pytest.raises(ValueError):
            agent_heuristic(0)


class TestVelocity:
    def test_oracle(self):
        # obstacle straight above in y, moving along x: current = d x v = -e_z
        c = current_for(HeuristicKind.VELOCITY, (0, 0, 0), (1, 0, 0), (0, 1, 0))
        assert np.allclose(c, [0.0, 0.0, -1.0], atol=1e-12)

    def test_zero_velocity_falls_back_to_ez_cross(self):
        c = current_for(HeuristicKind.VELOCITY, (0, 0, 0), (0, 0, 0), (0, 1, 0))
        assert np.allclose(c, np.array([1.0, 0.0, 0.0]), atol=1e-12)

    def test_double_degenerate_falls_back_to_ex_cross(self):
        # obstacle along e_z and zero velocity: d x e_z = 0, use d x e_x
        c = current_for(HeuristicKind.VELOCITY, (0, 0, 0), (0, 0, 0), (0, 0, 1))
        assert np.allclose(c, [0.0, 1.0, 0.0], atol=1e-12)

    def test_velocity_parallel_to_d_falls_back(self):
        c = current_for(HeuristicKind.VELOCITY, (0, 0, 0), (0, 2, 0), (0, 1, 0))
        assert np.allclose(c, [1.0, 0.0, 0.0], atol=1e-12)


class TestGoalVector:
    def test_oracle(self):
        # d = e_y, goal - x = e_x: current = e_y x e_x = -e_z
        c = current_for(HeuristicKind.GOAL_VECTOR, (0, 0, 0), (0, 0, 0), (0, 1, 0), goal=(1, 0, 0))
        assert np.allclose(c, [0.0, 0.0, -1.0], atol=1e-12)

    def test_goal_parallel_to_d_falls_back(self):
        c = current_for(HeuristicKind.GOAL_VECTOR, (0, 0, 0), (0, 0, 0), (0, 1, 0), goal=(0, 3, 0))
        assert np.allclose(c, [1.0, 0.0, 0.0], atol=1e-12)


class TestPathLength:
    def test_flips_to_align_with_goal(self):
        position = np.zeros(3)
        velocity = np.array([1.0, 0.0, 0.0])
        center = np.array([0.0, 1.0, 0.0])
        goal = np.array([1.0, 0.0, 0.0])
        c = current_for(HeuristicKind.PATH_LENGTH, position, velocity, center, goal=goal)
        force = c * float(velocity @ velocity) - velocity * float(velocity @ c)
        flipped = -c * float(velocity @ velocity) - velocity * float(velocity @ -c)
        assert float(force @ (goal - position)) >= float(flipped @ (goal - position))

    def test_tie_keeps_positive_branch(self):
        # force aligned score is zero both ways when goal is along the velocity
        position = np.zeros(3)
        velocity = np.array([1.0, 0.0, 0.0])
        center = np.array([0.0, 1.0, 0.0])
        base = current_for(HeuristicKind.VELOCITY, position, velocity, center)
        c = current_for(HeuristicKind.PATH_LENGTH, position, velocity, center, goal=(2, 0, 0))
        assert np.allclose(c, base, atol=1e-12)

    @given(
        vx=st.floats(-2, 2), vy=st.floats(-2, 2), vz=st.floats(-2, 2),
        gx=st.floats(-2, 2), gy=st.floats(-2, 2), gz=st.floats(-2, 2),
    )
    def test_never_worse_than_velocity_current(self, vx, vy, vz, gx, gy, gz):
        position = np.zeros(3)
        velocity = np.array([vx, vy, vz])
        goal = np.array([gx, gy, gz])
        center = np.array([0.3, 1.0, -0.2])
        base = current_for(HeuristicKind.VELOCITY, position, velocity, center, goal=goal)
        chosen = current_for(HeuristicKind.PATH_LENGTH, position, velocity, center, goal=goal)

        def aligned(c):
            force = c * float(velocity @ velocity) - velocity * float(velocity @ c)
            return float(force @ (goal - position))

        assert aligned(chosen) >= aligned(base) - 1e-9
        assert aligned(chosen) >= aligned(-base) - 1e-9


class TestObstacleDistance:
    def test_uses_nearest_other_center(self):
        # obstacle at e_y, nearest other at e_y + e_x: current = d x (x_o - nn)
        c = current_for(
            HeuristicKind.OBSTACLE_DISTANCE,
            (0, 0, 0),
            (0, 0, 0),
            (0, 1, 0),
            others=[(1.0, 1.0, 0.0), (5.0, 5.0, 5.0)],
        )
        # d = e_y, position - nn = -(1,1,0): e_y x -(1,1,0) = (0,0,1)... sign check below
        expected = np.cross([0, 1, 0], np.array([0.0, 0.0, 0.0]) - np.array([1.0, 1.0, 0.0]))
        expected = expected / np.linalg.norm(expected)
        assert np.allclose(c, expected, atol=1e-12)

    def test_single_obstacle_falls_back_to_goal_vector(self):
        a = current_for(HeuristicKind.OBSTACLE_DISTANCE, (0, 0, 0), (0, 0, 0), (0, 1, 0))
        b = current_for(HeuristicKind.GOAL_VECTOR, (0, 0, 0), (0, 0, 0), (0, 1, 0))
        assert np.allclose(a, b, atol=1e-12)

    def test_nearest_tie_takes_lower_index(self):
        c_tie = current_for(
            HeuristicKind.OBSTACLE_DISTANCE,
            (0, 0, 0),
            (0, 0, 0),
            (0, 1, 0),
            others=[(1.0, 1.0, 0.0), (-1.0, 1.0, 0.0)],  # equidistant from the obstacle
        )
        c_first = current_for(
            HeuristicKind.OBSTACLE_DISTANCE,
            (0, 0, 0),
            (0, 0, 0),
            (0, 1, 0),
            others=[(1.0, 1.0, 0.0)],
        )
        assert np.allclose(c_tie, c_first, atol=1e-12)


class TestCombined:
    def test_normalized_sum(self):
        position, velocity = np.zeros(3), np.array([1.0, 0.0, 0.0])
        center = np.array([0.0, 1.0, 0.0])
        others = [(0.5, 1.0, 0.8)]
        a = current_for(HeuristicKind.PATH_LENGTH, position, velocity, center)
        b = current_for(HeuristicKind.OBSTACLE_DISTANCE, position, velocity, center, others=others)
        c = current_for(
            HeuristicKind.PATH_LENGTH_OBSTACLE_DISTANCE, position, velocity, center, others=others
        )
        expected = (a + b) / np.linalg.norm(a + b)
        assert np.allclose(c, expected, atol=1e-12)


class TestRandom:
    def test_requires_rng(self):
        with pytest.raises(ValueError):
            current_for(HeuristicKind.RANDOM, (0, 0, 0), (0, 0, 0), (0, 1, 0))

    def test_reproducible(self):
        a = current_for(
            HeuristicKind.RANDOM, (0, 0, 0), (0, 0, 0), (0, 1, 0), rng=np.random.default_rng(7)
        )
        b = current_for(
            HeuristicKind.RANDOM, (0, 0, 0), (0, 0, 0), (0, 1, 0), rng=np.random.default_rng(7)
        )
        assert np.array_equal(a, b)

    def test_batch_matches_scalar_sequence(self):
        # one batched call must consume the generator exactly like m scalar calls
        centers = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        h = HeuristicKind.RANDOM
        batch = one_agent_currents(
            h, np.zeros(3), np.zeros(3), centers, GOAL, None, np.random.default_rng(3)
        )
        rng = np.random.default_rng(3)
        rows = [
            compute_current(
                h,
                kin((0, 0, 0), (0, 0, 0)),
                SphereObstacle(center=c, radius=0.05),
                GOAL,
                rng=rng,
            )
            for c in centers
        ]
        assert np.allclose(batch, np.stack(rows), atol=0.0)


class TestBatchAgreement:
    @pytest.mark.parametrize(
        "kind",
        [
            HeuristicKind.VELOCITY,
            HeuristicKind.PATH_LENGTH,
            HeuristicKind.GOAL_VECTOR,
            HeuristicKind.OBSTACLE_DISTANCE,
            HeuristicKind.PATH_LENGTH_OBSTACLE_DISTANCE,
        ],
    )
    def test_batch_equals_scalar(self, kind):
        rng = np.random.default_rng(11)
        centers = rng.uniform(-1, 1, size=(5, 3))
        position = rng.uniform(-1, 1, size=3)
        velocity = rng.uniform(-1, 1, size=3)
        nn = np.zeros_like(centers)
        obstacles = [SphereObstacle(center=c, radius=0.05) for c in centers]
        for i, c in enumerate(centers):
            rest = np.delete(centers, i, axis=0)
            nn[i] = rest[np.argmin(np.linalg.norm(rest - c, axis=1))]
        batch = one_agent_currents(
            kind, position, velocity, centers, GOAL, nn, np.random.default_rng(0)
        )
        for i, obstacle in enumerate(obstacles):
            single = compute_current(
                kind,
                kin(position, velocity),
                obstacle,
                GOAL,
                others=tuple(o for j, o in enumerate(obstacles) if j != i),
            )
            assert np.allclose(batch[i], single, atol=1e-12)

    def test_empty_batch(self):
        out = one_agent_currents(
            HeuristicKind.VELOCITY,
            np.zeros(3),
            np.zeros(3),
            np.zeros((0, 3)),
            GOAL,
            None,
            np.random.default_rng(0),
        )
        assert out.shape == (0, 3)


@given(
    px=st.floats(-3, 3), py=st.floats(-3, 3), pz=st.floats(-3, 3),
    vx=st.floats(-3, 3), vy=st.floats(-3, 3), vz=st.floats(-3, 3),
    kind=st.sampled_from(list(HeuristicKind)),
)
def test_currents_are_unit_norm(px, py, pz, vx, vy, vz, kind):
    c = current_for(
        kind,
        (px, py, pz),
        (vx, vy, vz),
        (0.4, 1.0, -0.3),
        others=[(1.0, 1.0, 1.0)],
        rng=np.random.default_rng(5),
    )
    assert abs(float(np.linalg.norm(c)) - 1.0) <= 1e-9
