import numpy as np
import pytest

from projlearn.constraints import SelectionConstraint, diagonal_selection, null_projector
from projlearn.kinematics import PlanarArm, jacobian
from projlearn.policies import PointAttractor, ZeroPolicy
from projlearn.retarget import (AttractorSource, ClearanceReport, ObstacleRegion,
                                ReplaySource, RetargetPlan, check_obstacle_clearance,
                                estimate_components, estimate_task_policy,
                                reproduce_trajectory, retarget_step,
                                segment_rect_distance)
from projlearn.simulator import (RankCollapseError, Trajectory, generate_arm_dataset)

ARM = PlanarArm((0.1, 0.1, 0.1))


def true_model(arm=ARM, pattern=(1, 1, 0)):
    return SelectionConstraint(lam=diagonal_selection(pattern),
                               feature=lambda q: jacobian(arm, q))


def demo_dataset(seed=0, pattern=(1, 1, 0), points=40):
    return generate_arm_dataset(ARM, diagonal_selection(pattern),
                                PointAttractor(target=np.deg2rad([10.0, -10.0, 10.0])),
                                n_trajectories=1, points_per_traj=points,
                                dt=0.02, seed=seed)


class TestEstimateComponents:
    def test_true_model_recovers_stored_split(self):
        ds = demo_dataset(seed=1)
        w_hat, v_hat = estimate_components(ds, true_model())
        assert np.max(np.abs(w_hat - ds.stack("w"))) < 1e-12
        assert np.max(np.abs(v_hat - ds.stack("v"))) < 1e-12

    def test_parts_always_rebuild_actions(self):
        # holds for any candidate model, right or wrong
        ds = demo_dataset(seed=2)
        wrong = true_model(pattern=(0, 1, 1))
        w_hat, v_hat = estimate_components(ds, wrong)
        assert np.max(np.abs(w_hat + v_hat - ds.stack("u"))) < 1e-14

    def test_prior_array_form(self):
        ds = demo_dataset(seed=3)
        w_a, _ = estimate_components(ds, true_model(), prior_pi=ds.stack("pi"))
        w_b, _ = estimate_components(ds, true_model())
        assert np.array_equal(w_a, w_b)


class TestEstimateTaskPolicy:
    def test_recovers_recorded_rates(self):
        ds = demo_dataset(seed=4)
        traj = ds.trajectories[0]
        B = estimate_task_policy(true_model(), traj.x, traj.u)
        assert np.max(np.abs(B - traj.b)) < 1e-12

    def test_task_part_invariant_under_row_remixing(self):
        # the same constraint expressed in remixed rows yields the same A^+ b
        ds = demo_dataset(seed=5)
        traj = ds.trajectories[0]
        c, s = np.cos(0.8), np.sin(0.8)
        R = np.array([[c, -s], [s, c]])
        base = true_model()
        mixed = SelectionConstraint(lam=R @ diagonal_selection((1, 1, 0)),
                                    feature=lambda q: jacobian(ARM, q))
        for i in range(0, traj.n_samples, 9):
            pa = null_projector(base.A_at(traj.x[i]))
            pb = null_projector(mixed.A_at(traj.x[i]))
            va = pa.A_pinv @ (pa.A @ traj.u[i])
            vb = pb.A_pinv @ (pb.A @ traj.u[i])
            assert np.max(np.abs(va - vb)) < 1e-10

    def test_sample_count_mismatch(self):
        with pytest.raises(ValueError):
            estimate_task_policy(true_model(), np.zeros((3, 3)), np.zeros((4, 3)))


class TestRetargetStep:
    def test_parts_stay_orthogonal(self):
        ds = demo_dataset(seed=6)
        traj = ds.trajectories[0]
        plan = RetargetPlan(constraint=true_model(),
                            task_source=ReplaySource(traj.b),
                            pi_robot=PointAttractor(target=np.deg2rad([40.0, 0.0, -30.0])),
                            demonstrator=ARM)
        rng = np.random.default_rng(7)
        for step in range(0, traj.n_samples, 8):
            x = traj.x[step] + rng.normal(0.0, 0.05, size=3)
            u = retarget_step(plan, x, step)
            proj = plan.projector_at(x)
            v = proj.A_pinv @ (proj.A @ u)
            w = u - v
            assert abs(float(v @ w)) < 1e-12

    def test_task_trace_ignores_the_null_policy(self):
        # two very different secondary policies, same constraint rates
        ds = demo_dataset(seed=8)
        traj = ds.trajectories[0]
        x0 = traj.x[0]
        kwargs = dict(constraint=true_model(), task_source=ReplaySource(traj.b),
                      demonstrator=ARM)
        quiet = RetargetPlan(pi_robot=ZeroPolicy(dim=3), **kwargs)
        eager = RetargetPlan(pi_robot=PointAttractor(
            target=np.deg2rad([120.0, -60.0, 90.0]), beta=2.0), **kwargs)
        ta = reproduce_trajectory(quiet, x0, dt=0.02, duration=0.8)
        tb = reproduce_trajectory(eager, x0, dt=0.02, duration=0.8)
        assert np.max(np.abs(ta.b - traj.b[:40])) < 1e-8
        assert np.max(np.abs(tb.b - traj.b[:40])) < 1e-8
        assert not np.allclose(ta.x, tb.x)

    def test_true_plan_reproduces_demonstration(self):
        ds = demo_dataset(seed=9, points=60)
        traj = ds.trajectories[0]
        plan = RetargetPlan(constraint=true_model(),
                            task_source=ReplaySource(traj.b),
                            pi_robot=PointAttractor(target=np.deg2rad([10.0, -10.0, 10.0])),
                            demonstrator=ARM)
        out = reproduce_trajectory(plan, traj.x[0], dt=traj.dt,
                                   duration=traj.n_samples * traj.dt)
        assert np.max(np.abs(out.x - traj.x)) < 1e-6

    def test_rank_collapse_raises_with_step(self):
        plan = RetargetPlan(constraint=true_model(),
                            task_source=ReplaySource(np.zeros((5, 2))),
                            pi_robot=ZeroPolicy(dim=3),
                            demonstrator=ARM)
        with pytest.raises(RankCollapseError) as err:
            retarget_step(plan, np.zeros(3), step=4)
        assert err.value.step == 4

    def test_rank_test_ignores_length_units(self):
        # a well-conditioned state stays valid when the links shrink to 1e-6 m,
        # and a collapse reports the real sigma ratio, not a manipulability
        tiny = PlanarArm(tuple(1e-5 * l for l in ARM.link_lengths))
        plan = RetargetPlan(constraint=true_model(arm=tiny),
                            task_source=ReplaySource(np.zeros((5, 2))),
                            pi_robot=ZeroPolicy(dim=3), demonstrator=tiny)
        x = np.array([0.1, 1.6, 0.1])
        s = np.linalg.svd(plan.projector_at(x).A, compute_uv=False)
        assert s[-1] / s[0] > 0.2
        assert np.all(np.isfinite(retarget_step(plan, x, step=2)))
        with pytest.raises(RankCollapseError) as err:
            retarget_step(plan, np.zeros(3), step=3)
        s = np.linalg.svd(plan.projector_at(np.zeros(3)).A, compute_uv=False)
        assert err.value.sigma_ratio == pytest.approx(s[-1] / s[0], abs=1e-15)

    def test_plan_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            RetargetPlan(constraint="not a model", task_source=None,
                         pi_robot=ZeroPolicy(dim=3), demonstrator=ARM)
        with pytest.raises(ValueError):
            RetargetPlan(constraint=true_model(), task_source=None,
                         pi_robot=ZeroPolicy(dim=3), demonstrator=ARM,
                         row_correspondence=(0, 0, 1))


class TestCrossEmbodiment:
    SEVEN = PlanarArm((0.1, 0.05, 0.05, 0.05, 0.05, 0.05, 0.1))

    def make_plan(self, b_samples):
        return RetargetPlan(constraint=true_model(),
                            task_source=ReplaySource(b_samples),
                            pi_robot=PointAttractor(target=np.deg2rad([-10.0] * 7)),
                            demonstrator=ARM, imitator=self.SEVEN,
                            row_correspondence=(0, 1, 2))

    def test_execution_model_uses_imitator_jacobian(self):
        plan = self.make_plan(np.zeros((3, 2)))
        q = np.deg2rad([0.0, 90.0, -90.0, 85.0, 90.0, -1.0, -81.5])
        A = plan.execution_model.A_at(q)
        assert A.shape == (2, 7)
        expected = diagonal_selection((1, 1, 0)) @ jacobian(self.SEVEN, q)
        assert np.max(np.abs(A - expected)) < 1e-12

    def test_step_runs_and_respects_rates(self):
        ds = demo_dataset(seed=10)
        traj = ds.trajectories[0]
        plan = self.make_plan(traj.b)
        q = np.deg2rad([0.0, 90.0, -90.0, 85.0, 90.0, -1.0, -81.5])
        u = retarget_step(plan, q, step=0)
        assert u.shape == (7,)
        assert np.max(np.abs(plan.execution_model.A_at(q) @ u - traj.b[0])) < 1e-10


class TestAttractorSource:
    def test_zero_rate_at_target(self):
        from projlearn.kinematics import forward_kinematics

        q = np.deg2rad([20.0, 40.0, -10.0])
        target = forward_kinematics(ARM, q).as_array()
        plan = RetargetPlan(constraint=true_model(),
                            task_source=AttractorSource(target=target, gain=2.0),
                            pi_robot=ZeroPolicy(dim=3), demonstrator=ARM)
        assert np.max(np.abs(plan.task_source.rate(plan, q, 0))) < 1e-12

    def test_requires_full_pose(self):
        with pytest.raises(ValueError):
            AttractorSource(target=np.zeros(2))


class TestReplaySource:
    def test_clamps_to_ends(self):
        src = ReplaySource(np.array([[1.0], [2.0], [3.0]]))
        assert src.rate(None, None, -5)[0] == 1.0
        assert src.rate(None, None, 0)[0] == 1.0
        assert src.rate(None, None, 99)[0] == 3.0


def point_rect_distance(p, region):
    dx = max(region.x_min - p[0], 0.0, p[0] - region.x_max)
    dy = max(region.y_min - p[1], 0.0, p[1] - region.y_max)
    return float(np.hypot(dx, dy))


class TestObstacleGeometry:
    region = ObstacleRegion(x_min=-0.5, x_max=0.5, y_min=1.0, y_max=2.0)

    def sampling_oracle(self, p, q, n=1000):
        ts = np.linspace(0.0, 1.0, n)
        pts = p[None, :] + ts[:, None] * (q - p)[None, :]
        inside = [self.region.contains(pt) for pt in pts]
        if any(inside):
            return 0.0
        return min(point_rect_distance(pt, self.region) for pt in pts)

    def test_matches_dense_sampling(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            p = rng.uniform(-2.0, 2.0, size=2)
            q = rng.uniform(-1.0, 3.0, size=2)
            exact = segment_rect_distance(p, q, self.region)
            approx = self.sampling_oracle(p, q)
            # sampled oracle overestimates by at most the sampling pitch
            assert exact <= approx + 1e-12
            assert approx - exact < 2e-3 + 1e-9

    def test_crossing_segment_touches(self):
        assert segment_rect_distance(np.array([-1.0, 1.5]),
                                     np.array([1.0, 1.5]), self.region) == 0.0

    def test_endpoint_inside_touches(self):
        assert segment_rect_distance(np.array([0.0, 1.5]),
                                     np.array([3.0, 1.5]), self.region) == 0.0

    def test_known_offset(self):
        d = segment_rect_distance(np.array([-2.0, 0.0]), np.array([2.0, 0.0]), self.region)
        assert d == pytest.approx(1.0)

    def test_zero_area_rejected(self):
        with pytest.raises(ValueError):
            ObstacleRegion(x_min=0.0, x_max=0.0, y_min=0.0, y_max=1.0)


class TestClearanceReport:
    def test_flags_first_violating_link(self):
        region = ObstacleRegion(x_min=0.12, x_max=0.18, y_min=-0.02, y_max=0.02)
        # second state folds the arm straight out along x, so link 2 enters
        X = np.array([[np.pi / 2, 0.0, 0.0], [0.0, 0.0, 0.0]])
        traj = Trajectory(dt=0.1, x=X, u=np.zeros_like(X))
        report = check_obstacle_clearance(traj, ARM, region)
        assert not report.clear
        assert report.first_violation == (1, 1)
        assert report.min_distance == 0.0

    def test_clear_run_reports_distance(self):
        region = ObstacleRegion(x_min=1.0, x_max=2.0, y_min=1.0, y_max=2.0)
        X = np.array([[np.pi / 2, 0.0, 0.0]])
        traj = Trajectory(dt=0.1, x=X, u=np.zeros_like(X))
        report = check_obstacle_clearance(traj, ARM, region)
        assert report.clear and report.first_violation is None
        # tip sits at (0, 0.3); nearest rectangle corner is (1, 1)
        assert report.min_distance == pytest.approx(float(np.hypot(1.0, 0.7)), rel=1e-6)
