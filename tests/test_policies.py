import math

import numpy as np
import pytest

from projlearn.kinematics import PlanarArm, end_pose
from projlearn.policies import (LimitCyclePolicy, LinearPolicy, PointAttractor,
                                SinusoidalPolicy, TaskPointAttractor, policy_from_config,
                                policy_values)


class TestLinearPolicy:
    L = [[2.0, 4.0, 0.0], [1.0, 3.0, -1.0]]

    def test_origin(self):
        pi = LinearPolicy(L=self.L)
        assert np.allclose(pi(np.zeros(2)), [0.0, 1.0])

    def test_hand_computed(self):
        pi = LinearPolicy(L=self.L)
        x = np.array([0.5, -1.0])
        # -(2*0.5 + 4*(-1) + 0), -(1*0.5 + 3*(-1) - 1)
        assert np.allclose(pi(x), [3.0, 3.5])


class TestLimitCyclePolicy:
    def test_origin_is_fixed(self):
        assert np.allclose(LimitCyclePolicy()(np.zeros(2)), 0.0)

    def test_on_cycle_velocity_is_tangential(self):
        pi = LimitCyclePolicy()
        r = math.sqrt(0.75)
        for phi in np.linspace(0.0, 2 * np.pi, 9):
            x = np.array([r * math.cos(phi), r * math.sin(phi)])
            u = pi(x)
            assert abs(float(x @ u)) < 1e-12          # radial part vanishes
            assert np.linalg.norm(u) == pytest.approx(r * 1.0, abs=1e-12)

    def test_euler_rollout_converges_to_cycle(self):
        pi = LimitCyclePolicy()
        x = np.array([0.2, 0.1])
        target = math.sqrt(0.75)
        for step in range(2000):
            x = x + 0.02 * pi(x)
            if abs(np.linalg.norm(x) - target) < 1e-3:
                break
        assert abs(np.linalg.norm(x) - target) < 1e-3

    def test_inside_flows_out_outside_flows_in(self):
        pi = LimitCyclePolicy()
        inner = np.array([0.3, 0.0])
        outer = np.array([2.0, 0.0])
        assert float(inner @ pi(inner)) > 0.0
        assert float(outer @ pi(outer)) < 0.0


class TestSinusoidalPolicy:
    def test_origin(self):
        assert np.allclose(SinusoidalPolicy()(np.zeros(2)), 0.0, atol=1e-15)

    def test_hand_computed(self):
        pi = SinusoidalPolicy()
        u = pi(np.array([0.5, 0.0]))
        # z1 = pi/2, z2 = pi/2
        assert np.allclose(u, [0.0, -1.0], atol=1e-15)
        u = pi(np.array([0.0, -0.5]))
        # z1 = 0, z2 = 0
        assert np.allclose(u, [1.0, 0.0], atol=1e-15)


class TestPointAttractor:
    def test_fixed_point(self):
        target = np.array([0.1, -0.2, 0.3])
        assert np.allclose(PointAttractor(target=target, beta=2.0)(target), 0.0)

    def test_distance_decreases_along_flow(self):
        pi = PointAttractor(target=np.array([1.0, 1.0]), beta=1.5)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(size=2) * 3.0
            err = x - pi.target
            assert float(err @ pi(x)) <= -1.5 * float(err @ err) + 1e-12


class TestTaskPointAttractor:
    arm = PlanarArm((0.1, 0.1, 0.1))

    def test_zero_at_target_pose(self):
        q = np.array([0.4, -0.3, 0.9])
        target = end_pose(self.arm, q)
        pi = TaskPointAttractor(arm=self.arm, target=target, gain=3.0)
        assert np.allclose(pi(q), 0.0, atol=1e-14)

    def test_orientation_error_wraps(self):
        q = np.array([-np.pi + 0.1, 0.0, 0.0])
        pose = end_pose(self.arm, q)
        target = pose.copy()
        target[2] = np.pi - 0.1
        pi = TaskPointAttractor(arm=self.arm, target=target, gain=1.0)
        # going the short way round: -0.2, not 2*pi - 0.2
        assert pi(q)[2] == pytest.approx(-0.2, abs=1e-12)

    def test_gain_scales_linearly(self):
        q = np.array([0.2, 0.2, 0.2])
        target = np.array([0.15, 0.1, 0.5])
        one = TaskPointAttractor(arm=self.arm, target=target, gain=1.0)(q)
        three = TaskPointAttractor(arm=self.arm, target=target, gain=3.0)(q)
        assert np.allclose(three, 3.0 * one)

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            TaskPointAttractor(arm=self.arm, target=np.zeros(2))

    def test_one_state_equals_the_batched_row(self):
        # one state, (3,) or a stack of one (1, 3), wraps its orientation
        # error through wrap_angle's float branch; that must give the bits of
        # the array branch the stack takes, errors of +-pi and beyond included
        rng = np.random.default_rng(5)
        Q = np.concatenate([rng.uniform(-2.0 * np.pi, 2.0 * np.pi, (300, 3)), np.zeros((4, 3))])
        targets = rng.uniform(-4.0 * np.pi, 4.0 * np.pi, (len(Q), 3))
        targets[-4:, 2] = [np.pi, -np.pi, 3.0 * np.pi, -0.0]
        stacked = TaskPointAttractor(arm=self.arm, target=targets, gain=1.5)(Q)
        for i, q in enumerate(Q):
            for one, target in ((q, targets[i]), (Q[i:i + 1], targets[i:i + 1])):
                got = TaskPointAttractor(arm=self.arm, target=target, gain=1.5)(one)
                assert got.shape == target.shape
                assert np.array_equal(got.reshape(3).view(np.int64), stacked[i].view(np.int64)), i
        pose = end_pose(self.arm, Q)
        task = TaskPointAttractor(arm=self.arm, target=targets, gain=1.5)
        assert np.array_equal(task.at_pose(pose), stacked)


class TestPolicyFromConfig:
    def test_toy_policies(self):
        pi = policy_from_config({"type": "linear"})
        assert isinstance(pi, LinearPolicy)
        assert np.array_equal(pi.L, [[2.0, 4.0, 0.0], [1.0, 3.0, -1.0]])
        assert isinstance(policy_from_config({"type": "limit_cycle"}), LimitCyclePolicy)
        assert isinstance(policy_from_config({"type": "sinusoidal"}), SinusoidalPolicy)

    def test_point_attractor_degrees(self):
        pi = policy_from_config({"type": "point_attractor",
                                 "target_deg": [10.0, -10.0, 10.0], "beta": 1.0})
        assert np.allclose(pi.target, np.deg2rad([10.0, -10.0, 10.0]))

    def test_unknown_type(self):
        for kind in ("spline", "zero"):
            with pytest.raises(ValueError):
                policy_from_config({"type": kind, "dim": 3})


@pytest.mark.parametrize("policy, n", [
    (LinearPolicy(L=[[2.0, 4.0, 0.0], [1.0, 3.0, -1.0]]), 2),
    (LimitCyclePolicy(), 2),
    (SinusoidalPolicy(), 2),
    (PointAttractor(target=[0.3, -0.2], beta=2.0), 2),
    (TaskPointAttractor(arm=PlanarArm((0.4, 0.3, 0.2)), target=np.array([0.3, 0.4, 0.5]),
                        gain=2.0), 3),
], ids=["linear", "limit_cycle", "sinusoidal", "point_attractor", "task_attractor"])
def test_stacked_call_matches_per_row_calls(policy, n):
    X = np.random.default_rng(0).uniform(-1.5, 1.5, size=(40, n))
    X[0] = 0.0  # the limit cycle's fixed point
    stacked = policy_values(policy, X)
    rows = np.array([policy(x) for x in X])
    assert stacked.shape == rows.shape == (40, rows.shape[1])
    assert np.allclose(stacked, rows, rtol=1e-14, atol=1e-15)


def test_policy_values_rejects_non_broadcasting_callable():
    X = np.zeros((5, 2))
    with pytest.raises(ValueError, match="broadcast"):
        policy_values(lambda x: np.array([x[0], x[1]]), X)


def test_policy_values_stacks_rows():
    X = np.array([[0.0, 0.0], [0.5, 0.0]])
    U = policy_values(SinusoidalPolicy(), X)
    assert U.shape == (2, 2)
    assert np.allclose(U[1], [0.0, -1.0], atol=1e-15)
