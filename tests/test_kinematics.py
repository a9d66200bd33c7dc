import math

import numpy as np
import pytest

from projlearn.kinematics import PlanarArm, end_pose, jacobian, joint_positions, wrap_angle

ARM3 = PlanarArm((0.1, 0.1, 0.1))


def fk_oracle(lengths, q):
    # independent term-by-term summation, plain python floats
    x = y = acc = 0.0
    for l, qi in zip(lengths, q):
        acc += qi
        x += l * math.cos(acc)
        y += l * math.sin(acc)
    return x, y, acc


class TestForwardKinematics:
    """end_pose, the end-effector pose (x, y, theta)."""

    def test_straight_arm_along_x(self):
        x, y, theta = end_pose(ARM3, np.zeros(3))
        assert x == pytest.approx(0.3)
        assert y == pytest.approx(0.0, abs=1e-15)
        assert theta == pytest.approx(0.0, abs=1e-15)

    def test_quarter_turn(self):
        x, y, theta = end_pose(ARM3, np.array([np.pi / 2, 0.0, 0.0]))
        assert x == pytest.approx(0.0, abs=1e-15)
        assert y == pytest.approx(0.3)
        assert theta == pytest.approx(np.pi / 2)

    def test_matches_summation_oracle(self):
        q = np.array([0.1, 0.2, 0.3])
        np.testing.assert_allclose(end_pose(ARM3, q), fk_oracle(ARM3.link_lengths, q),
                                   rtol=0.0, atol=1e-14)

    def test_periodic_in_each_joint(self):
        rng = np.random.default_rng(3)
        q = rng.uniform(-np.pi, np.pi, 3)
        base = end_pose(ARM3, q)
        for j in range(3):
            shifted = q.copy()
            shifted[j] += 2.0 * np.pi
            np.testing.assert_allclose(end_pose(ARM3, shifted)[:2], base[:2],
                                       rtol=0.0, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            end_pose(ARM3, np.zeros(4))

    def test_joint_positions_chain(self):
        pts = joint_positions(ARM3, np.zeros(3))
        assert pts.shape == (4, 2)
        assert np.allclose(pts[:, 0], [0.0, 0.1, 0.2, 0.3])
        assert np.allclose(pts[:, 1], 0.0)

    def test_stacked_pose_matches_single_states(self):
        arm = PlanarArm((0.3, 0.2, 0.1))
        Q = np.random.default_rng(9).uniform(-np.pi, np.pi, size=(4, 5, 3))
        pts = joint_positions(arm, Q)
        pose = end_pose(arm, Q)
        assert pts.shape == (4, 5, 4, 2) and pose.shape == (4, 5, 3)
        for idx in np.ndindex(4, 5):
            assert np.array_equal(pts[idx], joint_positions(arm, Q[idx]))
            assert np.array_equal(pose[idx], end_pose(arm, Q[idx]))
            x, y, theta = fk_oracle(arm.link_lengths, Q[idx])
            np.testing.assert_allclose(pose[idx], [x, y, wrap_angle(theta)], rtol=0.0, atol=1e-14)


class TestTaskPose:
    """The orientation end_pose reports is wrapped to (-pi, pi]."""

    def test_theta_normalized(self):
        one_link = PlanarArm((1.0,))
        assert end_pose(one_link, np.array([3.0 * np.pi]))[2] == pytest.approx(np.pi)
        assert end_pose(one_link, np.array([-np.pi]))[2] == pytest.approx(np.pi)

    def test_wrap_angle_range(self):
        for a in np.linspace(-20.0, 20.0, 401):
            w = wrap_angle(a)
            assert -np.pi < w <= np.pi
            assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-12)
            assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-12)


class TestJacobian:
    def test_zero_posture_rows(self):
        J = jacobian(ARM3, np.zeros(3))
        assert np.allclose(J[0], [0.0, 0.0, 0.0])
        assert np.allclose(J[1], [0.3, 0.2, 0.1])
        assert np.allclose(J[2], [1.0, 1.0, 1.0])

    def test_theta_row_always_ones(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            J = jacobian(ARM3, rng.uniform(-np.pi, np.pi, 3))
            assert np.array_equal(J[2], np.ones(3))

    def test_finite_difference_oracle(self):
        # central differences of end_pose, h = 1e-6
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(10):
            q = rng.uniform(-np.pi, np.pi, 3)
            J = jacobian(ARM3, q)
            fd = np.empty((3, 3))
            for j in range(3):
                qp, qm = q.copy(), q.copy()
                qp[j] += h
                qm[j] -= h
                pp, pm = end_pose(ARM3, qp), end_pose(ARM3, qm)
                fd[:2, j] = (pp[:2] - pm[:2]) / (2 * h)
                fd[2, j] = wrap_angle(pp[2] - pm[2]) / (2 * h)
            assert np.max(np.abs(J - fd)) < 1e-6


    def test_batched_matches_per_row_calls(self):
        # the broadcasting path against the single-state reference it replaces
        arm = PlanarArm((0.3, 0.2, 0.1))
        Q = np.random.default_rng(8).uniform(-np.pi, np.pi, size=(4, 5, 3))
        J = jacobian(arm, Q)
        assert J.shape == (4, 5, 3, 3)
        for idx in np.ndindex(4, 5):
            np.testing.assert_allclose(J[idx], jacobian(arm, Q[idx]), rtol=0.0, atol=1e-15)

    def test_batched_rejects_bad_states(self):
        with pytest.raises(ValueError):
            jacobian(ARM3, np.zeros((5, 2)))
        Q = np.zeros((5, 3))
        Q[3, 1] = np.nan
        with pytest.raises(ValueError):
            jacobian(ARM3, Q)


class TestPlanarArm:
    def test_rejects_nonpositive_links(self):
        with pytest.raises(ValueError):
            PlanarArm((0.1, 0.0))
        with pytest.raises(ValueError):
            PlanarArm(())

    def test_joint_count(self):
        assert PlanarArm((1.0, 2.0)).n == 2
