import math

import numpy as np
import pytest

from projlearn.kinematics import (PlanarArm, end_pose, jacobian, joint_positions,
                                  pose_and_jacobian, wrap_angle)

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

    def test_angle_inside_the_range_comes_back_unchanged(self):
        # the modulo alone turned -1e-20 into 0.0 and -5.488052710500568e-06
        # into -5.4880527109446575e-06
        a = np.concatenate([[-1e-20, -5.488052710500568e-06, -0.0, 1e-300],
                            np.random.default_rng(8).uniform(-np.pi, np.pi, 2000)])
        assert same_bits(wrap_angle(a), a)
        for x in a:
            assert same_bits(wrap_angle(float(x)), x), x


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


def same_bits(a, b):
    # equal values and equal signs of zero
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestOneStatePath:
    """One state, (n,) or a stack of one (1, n), takes a scalar path; it must give the
    bits of the batched call."""

    @staticmethod
    def states(n, seed):
        # several turns per joint, and states whose angle sum is exactly +-pi
        Q = np.random.default_rng(seed).uniform(-6.0 * np.pi, 6.0 * np.pi, size=(200, n))
        edge = np.zeros((5, n))
        edge[0, 0], edge[1, -1] = np.pi, -np.pi
        # the same sums from two joints when n > 1
        edge[2, -2:], edge[3, -2:] = np.pi / 2, -np.pi / 2
        edge[4] = -0.0
        return np.concatenate([Q, edge])

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 9])
    @pytest.mark.parametrize("fn", [jacobian, end_pose])
    def test_single_state_equals_batched_row(self, fn, n):
        arm = PlanarArm(tuple(np.random.default_rng(n).uniform(0.05, 1.5, n)))
        Q = self.states(n, seed=60 + n)
        stacked = fn(arm, Q)
        for i, q in enumerate(Q):
            assert same_bits(fn(arm, q), stacked[i]), (i, q)

    @pytest.mark.parametrize("n", [3, 7])
    @pytest.mark.parametrize("fn", [jacobian, end_pose])
    def test_stack_of_one_equals_single_state_and_batched_row(self, fn, n):
        arm = PlanarArm(tuple(np.random.default_rng(10 + n).uniform(0.05, 1.5, n)))
        Q = self.states(n, seed=80 + n)
        stacked = fn(arm, Q)
        for i, q in enumerate(Q):
            one = fn(arm, Q[i:i + 1])
            assert one.shape == (1,) + stacked.shape[1:]
            assert same_bits(one[0], fn(arm, q)), (i, q)
            assert same_bits(one[0], stacked[i]), (i, q)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 9])
    def test_sum_of_plus_or_minus_pi_wraps_to_plus_pi(self, n):
        arm = PlanarArm((0.2,) * n)
        edge = [q for q in self.states(n, seed=0)[-5:] if abs(np.sum(q)) == np.pi]
        assert len(edge) == (2 if n == 1 else 4)
        for q in edge:
            assert end_pose(arm, q)[2] == np.pi

    def test_wrap_angle_of_a_float_equals_the_array_call(self):
        a = np.concatenate([np.random.default_rng(7).uniform(-40.0, 40.0, 2000),
                            np.pi * np.arange(-6, 7), [-0.0]])
        for x, w in zip(a, wrap_angle(a)):
            assert same_bits(wrap_angle(x), w), x

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 9])
    def test_pose_and_jacobian_equal_the_separate_calls(self, n):
        # one pass of link terms serves both; a single state and a stack of
        # one take the batched path here and the scalar path in end_pose and
        # jacobian
        arm = PlanarArm(tuple(np.random.default_rng(n).uniform(0.05, 1.5, n)))
        Q = self.states(n, seed=60 + n)
        pose, J = pose_and_jacobian(arm, Q)
        assert same_bits(pose, end_pose(arm, Q)) and same_bits(J, jacobian(arm, Q))
        for i, q in enumerate(Q):
            for one in (q, Q[i:i + 1]):
                pose, J = pose_and_jacobian(arm, one)
                assert pose.shape == one.shape[:-1] + (3,) and J.shape == one.shape[:-1] + (3, n)
                assert same_bits(pose, end_pose(arm, one)), (i, q)
                assert same_bits(J, jacobian(arm, one)), (i, q)

    def test_wrap_angle_array_equals_the_three_call_formula(self):
        # the array branch sends only |theta| >= pi through the modulo; the
        # formula it replaced ran np.mod and two np.where over every entry
        def three_calls(theta):
            wrapped = np.mod(theta, 2.0 * np.pi)
            wrapped = np.where(wrapped > np.pi, wrapped - 2.0 * np.pi, wrapped)
            return np.where(np.abs(theta) < np.pi, theta, wrapped)

        edges = np.concatenate([np.pi * np.arange(-9, 10), [-0.0, np.nan, -np.nan]])
        edges = np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)])
        cases = [edges, edges.reshape(3, -1), np.random.default_rng(8).uniform(-40, 40, 500),
                 np.random.default_rng(9).uniform(-3.0, 3.0, 50), np.array(-np.pi),
                 np.array(-0.0)]
        for theta in cases:
            got, ref = wrap_angle(theta), three_calls(theta)
            assert isinstance(got, np.ndarray) and got.shape == ref.shape
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))

    @pytest.mark.parametrize("fn", [jacobian, end_pose])
    def test_single_state_rejects_bad_input(self, fn):
        for one in (lambda q: q, lambda q: q[None]):  # (n,) and a stack of one (1, n)
            with pytest.raises(ValueError):
                fn(ARM3, one(np.zeros(2)))
            with pytest.raises(ValueError):
                fn(ARM3, one(np.array([0.1, np.nan, 0.2])))
            with pytest.raises(ValueError):
                fn(ARM3, one(np.array([0.1, np.inf, 0.2])))


class TestPlanarArm:
    def test_rejects_nonpositive_links(self):
        with pytest.raises(ValueError):
            PlanarArm((0.1, 0.0))
        with pytest.raises(ValueError):
            PlanarArm(())

    def test_joint_count(self):
        assert PlanarArm((1.0, 2.0)).n == 2
