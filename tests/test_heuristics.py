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
    _committee_layout,
    _flip_toward_goal,
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


def normals(kinds, agent, rngs) -> np.ndarray:
    """The rows ``batch_currents`` takes for the pairs of random agents, in
    pair order: each random agent's drawn from its own generator."""
    rows = [
        rngs[a].standard_normal((np.count_nonzero(agent == a), 3))
        for a, kind in enumerate(kinds)
        if kind is HeuristicKind.RANDOM
    ]
    return np.concatenate([np.zeros((0, 3)), *rows])


def one_agent_currents(kind, position, velocity, centers, goal, nn_centers, rng):
    """``batch_currents`` for a committee of one agent facing every row of
    ``centers``, a random agent drawing from ``rng``."""
    position = np.asarray(position, dtype=float)
    offsets = position - centers
    agent = np.zeros(centers.shape[0], dtype=np.intp)
    return batch_currents(
        _committee_layout((kind,)),
        agent,
        position[None, :],
        np.asarray(velocity, dtype=float)[None, :],
        offsets,
        norms(offsets),
        goal,
        nn_centers,
        normals((kind,), agent, (rng,)),
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
            assert np.array_equal(batch[i], single)

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


K = HeuristicKind
# every heuristic; random agents with and without rows, one with no rows
# between agents that have some, and agents with several rows
MIXED_KINDS = (
    K.RANDOM, K.VELOCITY, K.PATH_LENGTH, K.RANDOM, K.GOAL_VECTOR, K.OBSTACLE_DISTANCE,
    K.PATH_LENGTH_OBSTACLE_DISTANCE, K.RANDOM, K.PATH_LENGTH, K.PATH_LENGTH_OBSTACLE_DISTANCE,
    K.OBSTACLE_DISTANCE, K.VELOCITY,
)
MIXED_ROWS = (2, 3, 3, 0, 2, 0, 3, 1, 1, 2, 3, 2)


def mixed_committee(seed: int, with_nn: bool):
    """Arguments of ``batch_currents`` for ``MIXED_KINDS`` with degenerate
    rows inside multi-row agents: an offset of zero (no d), a zero velocity
    (d x v = 0), d along e_z with a zero velocity (d x e_z = 0 too), a
    velocity parallel to d, and a nearest neighbour at the agent itself."""
    rng = np.random.default_rng(seed)
    a = len(MIXED_KINDS)
    agent = np.repeat(np.arange(a), MIXED_ROWS)
    x = rng.uniform(-1.0, 1.0, (a, 3))
    v = rng.uniform(-1.0, 1.0, (a, 3))
    offsets = rng.uniform(-0.3, 0.3, (agent.size, 3))
    first = np.searchsorted(agent, np.arange(a))
    offsets[first[2] + 1] = 0.0  # path agent: no d on its second row
    offsets[first[6]] = 0.0  # combined agent: no d on its first row
    v[11] = 0.0  # velocity agent: d x v = 0 on every row ...
    offsets[first[11] + 1] = (0.0, 0.0, -0.2)  # ... and d x e_z = 0 on one
    offsets[first[1] + 2] = -0.5 * v[1]  # velocity parallel to d
    nn = None
    if with_nn:
        nn = rng.uniform(-1.0, 1.0, (agent.size, 3))
        nn[first[10] + 1] = x[10]  # obstacle agent: neighbour offset of zero
    # the offsets of the centers x - offsets that compute_current is given,
    # so that it and batch_currents start from the same numbers
    offsets = x.take(agent, axis=0) - (x.take(agent, axis=0) - offsets)
    return agent, x, v, offsets, nn


def committee_rngs(kinds, seed):
    return [np.random.default_rng([seed, a]) if k is K.RANDOM else None for a, k in enumerate(kinds)]


def committee_normals(kinds, agent, seed):
    return normals(kinds, agent, committee_rngs(kinds, seed))


class TestMixedCommittee:
    @pytest.mark.parametrize("with_nn", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_rows_equal_one_agent_calls(self, seed, with_nn):
        # each agent's rows, random draws included, are bitwise its own call's
        agent, x, v, offsets, nn = mixed_committee(seed, with_nn)
        rows = batch_currents(
            _committee_layout(MIXED_KINDS), agent, x, v, offsets, norms(offsets), GOAL, nn,
            committee_normals(MIXED_KINDS, agent, seed),
        )
        solo_rngs = committee_rngs(MIXED_KINDS, seed)
        for a, kind in enumerate(MIXED_KINDS):
            mine = agent == a
            solo_agent = np.zeros(mine.sum(), dtype=np.intp)
            solo = batch_currents(
                _committee_layout((kind,)), solo_agent, x[a : a + 1], v[a : a + 1],
                offsets[mine], norms(offsets[mine]), GOAL, None if nn is None else nn[mine],
                normals((kind,), solo_agent, (solo_rngs[a],)),
            )
            assert rows[mine].tobytes() == solo.tobytes(), kind

    @pytest.mark.parametrize("with_nn", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_rows_match_compute_current(self, seed, with_nn):
        agent, x, v, offsets, nn = mixed_committee(seed, with_nn)
        rows = batch_currents(
            _committee_layout(MIXED_KINDS), agent, x, v, offsets, norms(offsets), GOAL, nn,
            committee_normals(MIXED_KINDS, agent, seed),
        )
        assert np.isfinite(rows).all()
        rngs = committee_rngs(MIXED_KINDS, seed)
        for k, a in enumerate(agent):
            others = () if nn is None else (SphereObstacle(center=nn[k], radius=0.05),)
            want = compute_current(
                MIXED_KINDS[a],
                kin(x[a], v[a]),
                SphereObstacle(center=x[a] - offsets[k], radius=0.05),
                GOAL,
                others=others,
                rng=rngs[a],
            )
            assert np.array_equal(rows[k], want), (k, MIXED_KINDS[a])

    def test_degenerate_rows_fall_back(self):
        # no d gives a zero current; d x v = 0 falls back to d x e_z, and
        # then to d x e_x, while the other rows of the batch stay unit
        agent, x, v, offsets, _ = mixed_committee(0, False)
        rows = batch_currents(
            _committee_layout(MIXED_KINDS), agent, x, v, offsets, norms(offsets), GOAL, None,
            committee_normals(MIXED_KINDS, agent, 0),
        )
        first = np.searchsorted(agent, np.arange(len(MIXED_KINDS)))
        still = np.zeros(agent.size, dtype=bool)
        still[[first[2] + 1, first[6]]] = True
        assert not rows[still].any()
        assert np.allclose(norms(rows[~still]), 1.0, rtol=0.0, atol=1e-12)
        d = -offsets[first[11]] / np.linalg.norm(offsets[first[11]])
        ez = np.cross(d, [0.0, 0.0, 1.0])
        assert np.allclose(rows[first[11]], ez / np.linalg.norm(ez), atol=1e-15)
        assert np.array_equal(rows[first[11] + 1], [0.0, 1.0, 0.0])  # e_z x e_x

    def test_each_call_reads_its_own_kinds(self):
        # the same pairs under another committee get that committee's currents
        agent, x, v, offsets, nn = mixed_committee(1, True)
        other = tuple(reversed(MIXED_KINDS))
        got = [
            batch_currents(
                _committee_layout(k), agent, x, v, offsets, norms(offsets), GOAL, nn,
                committee_normals(k, agent, 1),
            )
            for k in (MIXED_KINDS, other)
        ]
        assert got[1].tobytes() != got[0].tobytes()
        rngs = committee_rngs(other, 1)
        for k, a in enumerate(agent):
            want = compute_current(
                other[a], kin(x[a], v[a]), SphereObstacle(center=x[a] - offsets[k], radius=0.05),
                GOAL, others=(SphereObstacle(center=nn[k], radius=0.05),), rng=rngs[a],
            )
            assert np.array_equal(got[1][k], want)


def test_each_row_flips_by_its_own_products():
    # a velocity in the plane of one row's d and goal offset makes that
    # row's current, and so its force, almost normal to the goal offset:
    # its score lies within roundoff of zero, where a matrix-vector product
    # over an agent's rows and per-row dot products can disagree on the
    # sign.  Every row takes compute_current's path-length decision, and
    # splitting an agent's rows among agents of its state changes no byte
    rng = np.random.default_rng(5)
    groupings = (np.array([0, 0, 0, 1, 2, 2]), np.array([0, 0, 1, 2, 3, 3]), np.arange(6))
    owner = groupings[0]
    near_zero = 0
    for _ in range(200):
        x = rng.uniform(-1.0, 1.0, (3, 3))
        centers = x.take(owner, axis=0) + rng.uniform(-0.3, 0.3, (6, 3))
        v = np.empty((3, 3))
        for a in range(3):
            row = rng.choice((owner == a).nonzero()[0])
            v[a] = rng.standard_normal(2) @ (centers[row] - x[a], GOAL - x[a])
        xs, vs = x.take(owner, axis=0), v.take(owner, axis=0)
        c = np.stack([current_for(K.VELOCITY, *row) for row in zip(xs, vs, centers)])
        want = np.stack([current_for(K.PATH_LENGTH, *row) for row in zip(xs, vs, centers)])
        gap = GOAL - xs
        vv, vc = (np.einsum("ij,ij->i", vs, b)[:, None] for b in (vs, c))
        force = c * vv - vs * vc
        near_zero += np.count_nonzero(np.abs(np.einsum("ij,ij->i", force, gap)) < 1e-14)
        assert _flip_toward_goal(c.copy(), vs, gap).tobytes() == want.tobytes()
        for agent in groupings:
            first = np.searchsorted(agent, np.arange(agent[-1] + 1))
            got = batch_currents(
                _committee_layout((K.PATH_LENGTH,) * first.size), agent, xs[first], vs[first],
                xs - centers, norms(xs - centers), GOAL, None, np.zeros((0, 3)),
            )
            assert got.tobytes() == want.tobytes()
    assert near_zero > 0
