"""Force-component oracles and the perpendicularity/shell properties."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cfplan.fields import (
    AgentKinematics,
    GainSet,
    OverlapError,
    attractive_force,
    circular_field_force,
    manipulability_force,
    repulsive_force,
    steering_force,
)
from cfplan.scene import SphereObstacle

REL = 1e-12
EPS = np.finfo(float).eps


def rel_close(actual, expected, rel=REL):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    scale = max(float(np.linalg.norm(expected)), 1.0)
    return float(np.linalg.norm(actual - expected)) <= rel * scale


finite_vec = st.lists(
    st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False), min_size=3, max_size=3
)


class TestAttractive:
    def test_zero_at_goal_at_rest(self):
        kin = AgentKinematics(position=(1.0, 2.0, 3.0), velocity=(0.0, 0.0, 0.0))
        f = attractive_force(kin, (1.0, 2.0, 3.0), GainSet(k_p=5.0, k_v=2.0))
        assert np.all(f == 0.0)

    def test_pull_from_rest(self):
        kin = AgentKinematics(position=(0.0, 0.0, 0.0), velocity=(0.0, 0.0, 0.0))
        f = attractive_force(kin, (1.0, 0.0, 0.0), GainSet(k_p=2.0, k_v=1.0))
        assert rel_close(f, [2.0, 0.0, 0.0])

    def test_damping_cancels_pull(self):
        # moving at exactly k_p/k_v times the goal offset zeroes the force
        kin = AgentKinematics(position=(0.0, 0.0, 0.0), velocity=(2.0, 0.0, 0.0))
        f = attractive_force(kin, (1.0, 0.0, 0.0), GainSet(k_p=2.0, k_v=1.0))
        assert rel_close(f, [0.0, 0.0, 0.0])

    def test_defined_at_zero_damping(self):
        kin = AgentKinematics(position=(0.0, 0.0, 0.0), velocity=(5.0, 0.0, 0.0))
        f = attractive_force(kin, (1.0, 0.0, 0.0), GainSet(k_p=3.0, k_v=0.0))
        assert rel_close(f, [3.0, 0.0, 0.0])

    def test_vel_scale_factors_the_pull(self):
        kin = AgentKinematics(position=(0.0, 0.0, 0.0), velocity=(0.0, 0.0, 0.0))
        g = GainSet(k_p=2.0, k_v=1.0, vel_scale=0.5)
        assert rel_close(attractive_force(kin, (1.0, 0.0, 0.0), g), [1.0, 0.0, 0.0])


class TestCircularField:
    OBS = SphereObstacle(center=(0.0, 0.1, 0.0), radius=0.05)

    def test_zero_velocity_gives_zero(self):
        kin = AgentKinematics(position=(0.0, 0.0, 0.0), velocity=(0.0, 0.0, 0.0))
        f = circular_field_force(kin, self.OBS, (0.0, 0.0, 1.0), k_cf=3.0, r_d=0.4)
        assert np.all(f == 0.0)

    def test_outside_shell_exactly_zero(self):
        kin = AgentKinematics(position=(5.0, 0.0, 0.0), velocity=(1.0, 0.0, 0.0))
        f = circular_field_force(kin, self.OBS, (0.0, 0.0, 1.0), k_cf=3.0, r_d=0.4)
        assert np.all(f == 0.0)

    def test_unit_case(self):
        kin = AgentKinematics(position=(0.0, 0.0, 0.0), velocity=(1.0, 0.0, 0.0))
        f = circular_field_force(kin, self.OBS, (0.0, 0.0, 1.0), k_cf=1.0, r_d=0.4)
        assert rel_close(f, [0.0, 0.0, 1.0])

    def test_no_work_on_general_case(self):
        kin = AgentKinematics(position=(0.0, 0.0, 0.0), velocity=(0.3, -1.2, 0.7))
        f = circular_field_force(kin, self.OBS, (0.4, 0.2, -0.89), k_cf=7.0, r_d=0.4)
        assert abs(float(f @ kin.velocity)) <= 1e-9 * np.linalg.norm(f) * np.linalg.norm(
            kin.velocity
        )

    @given(v=finite_vec, c=finite_vec)
    @example(v=[0.0, 1.0, 1.0648812206510672e-08], c=[0.0, 3.0, 0.0])
    def test_perpendicular_to_velocity(self, v, c):
        kin = AgentKinematics(position=(0.0, 0.0, 0.0), velocity=v)
        k_cf = 2.5
        f = circular_field_force(kin, self.OBS, c, k_cf=k_cf, r_d=1.0)
        speed = np.linalg.norm(kin.velocity)
        # roundoff of k_cf (c |v|^2 - v (v . c)) . v grows with k_cf |c| |v|^3
        # (about 6 eps to first order), not with |f| |v|: f nearly vanishes
        # when c is almost parallel to v
        bound = 1e-9 * np.linalg.norm(f) * speed + 8 * EPS * k_cf * np.linalg.norm(c) * speed**3
        assert abs(float(f @ kin.velocity)) <= max(bound, 1e-15)


class TestRepulsive:
    def test_zero_at_shell_boundary(self):
        obs = SphereObstacle(center=(0.0, 0.0, 0.0), radius=0.1)
        kin = AgentKinematics(position=(0.5, 0.0, 0.0), velocity=(0.0, 0.0, 0.0))
        # surface distance exactly r_d: the barrier factor vanishes
        f = repulsive_force(kin, obs, k_r=1.0, r_d=0.4)
        assert np.all(f == 0.0)

    def test_outside_shell_exactly_zero(self):
        obs = SphereObstacle(center=(0.0, 0.0, 0.0), radius=0.1)
        kin = AgentKinematics(position=(1.0, 0.0, 0.0), velocity=(0.0, 0.0, 0.0))
        assert np.all(repulsive_force(kin, obs, k_r=1.0, r_d=0.4) == 0.0)

    def test_magnitude_inside_shell(self):
        obs = SphereObstacle(center=(0.0, 0.0, 0.0), radius=0.1)
        kin = AgentKinematics(position=(0.3, 0.0, 0.0), velocity=(0.0, 0.0, 0.0))
        f = repulsive_force(kin, obs, k_r=1.0, r_d=0.4)
        # rho = 0.2: (1/0.2 - 1/0.4) / 0.2^2 = 62.5, pointing away
        assert rel_close(f, [62.5, 0.0, 0.0])

    def test_overlap_raises(self):
        obs = SphereObstacle(center=(0.0, 0.0, 0.0), radius=0.5)
        kin = AgentKinematics(position=(0.1, 0.0, 0.0), velocity=(0.0, 0.0, 0.0))
        with pytest.raises(OverlapError):
            repulsive_force(kin, obs, k_r=1.0, r_d=0.4)

    def test_surface_contact_raises(self):
        obs = SphereObstacle(center=(0.0, 0.0, 0.0), radius=0.5)
        kin = AgentKinematics(position=(0.5, 0.0, 0.0), velocity=(0.0, 0.0, 0.0))
        with pytest.raises(OverlapError):
            repulsive_force(kin, obs, k_r=1.0, r_d=0.6)

    def test_points_away_from_center(self):
        obs = SphereObstacle(center=(1.0, -1.0, 0.5), radius=0.1)
        pos = np.array([1.2, -0.8, 0.4])
        kin = AgentKinematics(position=pos, velocity=(0.0, 0.0, 0.0))
        f = repulsive_force(kin, obs, k_r=2.0, r_d=1.0)
        away = (pos - obs.center) / np.linalg.norm(pos - obs.center)
        assert float(f @ away) > 0.0
        assert rel_close(np.cross(f, away), [0.0, 0.0, 0.0], rel=1e-9)


class TestManipulability:
    def test_zero_gain(self):
        f = manipulability_force(np.eye(3), GainSet(k_manip=0.0))
        assert np.all(f == 0.0)

    def test_weakest_direction(self):
        j = np.diag([2.0, 1.0, 0.5])
        f = manipulability_force(j, GainSet(k_manip=1.0))
        assert rel_close(f, [0.0, 0.0, 1.0])

    def test_degenerate_ties_give_unit_vector(self):
        f = manipulability_force(np.eye(3), GainSet(k_manip=1.0))
        assert abs(np.linalg.norm(f) - 1.0) <= 1e-12
        # sign convention: first sizable component is positive
        nz = f[np.abs(f) > 1e-12]
        assert nz[0] > 0.0

    def test_scaling(self):
        j = np.diag([2.0, 1.0, 0.5])
        f = manipulability_force(j, GainSet(k_manip=3.0, manip_scale=0.5))
        assert rel_close(f, [0.0, 0.0, 1.5])

    def test_wide_jacobian(self):
        j = np.array([[1.0, 0.0, 0.0, 0.5], [0.0, 2.0, 0.0, 0.0], [0.0, 0.0, 3.0, 0.0]])
        f = manipulability_force(j, GainSet(k_manip=1.0))
        assert abs(np.linalg.norm(f) - 1.0) <= 1e-12

    def test_bad_shape_raises(self):
        with pytest.raises(ValueError):
            manipulability_force(np.ones((2, 3)), GainSet(k_manip=1.0))


class TestSteering:
    def test_is_sum_of_components(self):
        obs = SphereObstacle(center=(0.0, 0.2, 0.0), radius=0.05)
        kin = AgentKinematics(position=(0.0, 0.0, 0.0), velocity=(0.4, 0.0, 0.1))
        goal = np.array([1.0, 0.0, 0.0])
        current = np.array([0.0, 0.0, 1.0])
        gains = GainSet(k_p=2.0, k_v=0.5, k_cf=3.0, k_r=0.7, k_manip=1.3)
        jac = np.diag([2.0, 1.0, 0.5])
        total = steering_force(kin, goal, [obs], [current], gains, r_d=0.5, jacobian=jac)
        expected = (
            attractive_force(kin, goal, gains)
            + circular_field_force(kin, obs, current, gains.k_cf, 0.5)
            + repulsive_force(kin, obs, gains.k_r, 0.5)
            + manipulability_force(jac, gains)
        )
        assert rel_close(total, expected)

    def test_each_gain_enters_once(self):
        # doubling k_p moves the total by exactly one extra attraction pull
        obs = SphereObstacle(center=(0.0, 0.2, 0.0), radius=0.05)
        kin = AgentKinematics(position=(0.0, 0.0, 0.0), velocity=(0.4, 0.0, 0.1))
        goal = np.array([1.0, 0.0, 0.0])
        current = np.array([0.0, 0.0, 1.0])
        g1 = GainSet(k_p=2.0, k_v=0.5, k_cf=3.0, k_r=0.7)
        g2 = GainSet(k_p=4.0, k_v=0.5, k_cf=3.0, k_r=0.7)
        f1 = steering_force(kin, goal, [obs], [current], g1, r_d=0.5)
        f2 = steering_force(kin, goal, [obs], [current], g2, r_d=0.5)
        assert rel_close(f2 - f1, 2.0 * (goal - kin.position))

    def test_mismatched_currents_raise(self):
        obs = SphereObstacle(center=(0.0, 0.2, 0.0), radius=0.05)
        kin = AgentKinematics(position=(0.0, 0.0, 0.0), velocity=(0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            steering_force(kin, (1, 0, 0), [obs], [], GainSet(), r_d=0.5)


@given(
    pos=finite_vec,
    v=finite_vec,
    c=finite_vec,
    radius=st.floats(0.01, 1.0),
    extra=st.floats(1e-6, 5.0),
)
def test_shell_locality_property(pos, v, c, radius, extra):
    """Any state strictly outside the detection shell feels no obstacle force."""
    pos = np.asarray(pos, dtype=float)
    r_d = 0.3
    direction = pos / np.linalg.norm(pos) if np.linalg.norm(pos) > 1e-9 else np.array([1.0, 0.0, 0.0])
    center = pos - direction * (radius + r_d + extra)
    obs = SphereObstacle(center=center, radius=radius)
    kin = AgentKinematics(position=pos, velocity=v)
    assert np.all(circular_field_force(kin, obs, c, k_cf=4.0, r_d=r_d) == 0.0)
    assert np.all(repulsive_force(kin, obs, k_r=4.0, r_d=r_d) == 0.0)
