from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from projlearn.constraints import SelectionConstraint, diagonal_selection, null_projector
from projlearn.experiments import resolve
from projlearn.kinematics import PlanarArm, jacobian, joint_positions
from projlearn.policies import PointAttractor, TaskPointAttractor
from projlearn.retarget import (AttractorSource, ClearanceReport, ObstacleRegion,
                                ReplaySource, RetargetPlan, _step, check_obstacle_clearance,
                                estimate_components, estimate_task_policy,
                                reproduce_trajectory, segment_rect_distance)
from projlearn.simulator import (RankCollapseError, Trajectory, generate_arm_dataset,
                                 simulate_trajectory)
from test_learning import zero_prior

ARM = PlanarArm((0.1, 0.1, 0.1))
TARGET_RANGES = resolve({}, "three-link")["target_ranges"]


def true_model(arm=ARM, pattern=(1, 1, 0)):
    return SelectionConstraint(lam=diagonal_selection(pattern),
                               feature=lambda q: jacobian(arm, q))


def demo_dataset(seed=0, pattern=(1, 1, 0), points=40):
    return generate_arm_dataset(ARM, diagonal_selection(pattern),
                                PointAttractor(target=np.deg2rad([10.0, -10.0, 10.0])),
                                n_trajectories=1, points_per_traj=points,
                                dt=0.02, seed=seed, target_cfg=TARGET_RANGES)


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
            u = _step(plan, x, step)[0]
            proj = null_projector(plan.execution_model.A_at(x))
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
        quiet = RetargetPlan(pi_robot=zero_prior, **kwargs)
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
                            pi_robot=zero_prior,
                            demonstrator=ARM)
        with pytest.raises(RankCollapseError) as err:
            _step(plan, np.zeros(3), 4)
        assert err.value.step == 4

    def test_rank_test_ignores_length_units(self):
        # a well-conditioned state stays valid when the links shrink to 1e-6 m,
        # and a collapse reports the real sigma ratio, not a manipulability
        tiny = PlanarArm(tuple(1e-5 * l for l in ARM.link_lengths))
        plan = RetargetPlan(constraint=true_model(arm=tiny),
                            task_source=ReplaySource(np.zeros((5, 2))),
                            pi_robot=zero_prior, demonstrator=tiny)
        x = np.array([0.1, 1.6, 0.1])
        s = np.linalg.svd(plan.execution_model.A_at(x), compute_uv=False)
        assert s[-1] / s[0] > 0.2
        assert np.all(np.isfinite(_step(plan, x, 2)[0]))
        with pytest.raises(RankCollapseError) as err:
            _step(plan, np.zeros(3), 3)
        s = np.linalg.svd(plan.execution_model.A_at(np.zeros(3)), compute_uv=False)
        assert err.value.sigma_ratio == pytest.approx(s[-1] / s[0], abs=1e-15)

    def test_plan_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            RetargetPlan(constraint="not a model", task_source=None,
                         pi_robot=zero_prior, demonstrator=ARM)
        with pytest.raises(ValueError):
            RetargetPlan(constraint=true_model(), task_source=None,
                         pi_robot=zero_prior, demonstrator=ARM,
                         row_correspondence=(0, 0, 1))

    def test_plan_is_frozen(self):
        # the executing arm and model are derived at construction; a later
        # assignment would leave them on the old arm
        plan = RetargetPlan(constraint=true_model(), task_source=None, pi_robot=zero_prior,
                            demonstrator=ARM)
        with pytest.raises(FrozenInstanceError):
            plan.imitator = TestCrossEmbodiment.SEVEN
        assert plan.arm is ARM and plan.execution_model is plan.constraint


class TestCrossEmbodiment:
    SEVEN = PlanarArm((0.1, 0.05, 0.05, 0.05, 0.05, 0.05, 0.1))

    def make_plan(self, b_samples):
        return RetargetPlan(constraint=true_model(),
                            task_source=ReplaySource(b_samples),
                            pi_robot=PointAttractor(target=np.deg2rad([-10.0] * 7)),
                            demonstrator=ARM, imitator=self.SEVEN,
                            row_correspondence=(0, 1, 2))

    @pytest.mark.parametrize("rows", [(0, 1), (0, 1, 5), (0, 1, -1)],
                             ids=["too_few", "past_theta", "negative"])
    def test_unrunnable_row_correspondence_rejected(self, rows):
        # one imitator Jacobian row (0, 1 or 2) per learned feature row, checked
        # at construction: (0, 1) used to fail in the first step's matmul and
        # (0, 1, 5) with an IndexError
        with pytest.raises(ValueError, match="row_correspondence"):
            RetargetPlan(constraint=true_model(), task_source=ReplaySource(np.zeros((3, 2))),
                         pi_robot=zero_prior, demonstrator=ARM, imitator=self.SEVEN,
                         row_correspondence=rows)

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
        u = _step(plan, q, 0)[0]
        assert u.shape == (7,)
        assert np.max(np.abs(plan.execution_model.A_at(q) @ u - traj.b[0])) < 1e-10


class TestReplayLoop:
    """reproduce_trajectory against a rollout of one _step call per step."""

    SEVEN = TestCrossEmbodiment.SEVEN

    def reference(self, plan, x0, dt, steps):
        x = np.asarray(x0, dtype=float)
        X, U, B = [], [], []
        for t in range(steps):
            u = _step(plan, x, t)[0]
            X.append(x)
            U.append(u)
            B.append(plan.execution_model.A_at(x) @ u)
            x = x + dt * u
        return np.array(X), np.array(U), np.array(B)

    def check(self, plan, x0, dt=0.02, duration=1.0):
        out = reproduce_trajectory(plan, x0, dt, duration)
        X, U, B = self.reference(plan, x0, dt, out.n_samples)
        assert out.n_samples == int(round(duration / dt))
        assert np.array_equal(out.x, X)
        assert np.array_equal(out.u, U)
        # B[t] is A_at(x_t) @ u_t, with x_t the rollout's own state
        assert np.array_equal(out.b, B)

    def test_same_arm_replay(self):
        traj = demo_dataset(seed=12, points=50).trajectories[0]
        plan = RetargetPlan(constraint=true_model(), task_source=ReplaySource(traj.b),
                            pi_robot=PointAttractor(target=np.deg2rad([40.0, 0.0, -30.0])),
                            demonstrator=ARM)
        self.check(plan, traj.x[0])

    def test_imitator_attractor(self):
        plan = RetargetPlan(constraint=true_model(),
                            task_source=AttractorSource(target=np.array([-0.09, 0.04, 0.0])),
                            pi_robot=PointAttractor(target=np.deg2rad([-10.0] * 7)),
                            demonstrator=ARM, imitator=self.SEVEN)
        self.check(plan, np.deg2rad([0.0, 90.0, -90.0, 85.0, 90.0, -1.0, -81.5]))

    def test_step_count_follows_the_data_rollouts(self):
        # An empty replay would pass any clearance check, so a duration
        # below half a step must fail the way simulate_trajectory does.
        target = np.array([-0.09, 0.04, 0.0])
        pi = PointAttractor(target=np.deg2rad([40.0, 0.0, -30.0]))
        plan = RetargetPlan(constraint=true_model(), task_source=AttractorSource(target=target),
                            pi_robot=pi, demonstrator=ARM)
        x0 = np.deg2rad([8.67, 94.18, -2.32])
        demo = lambda duration: simulate_trajectory(
            ARM, true_model(), TaskPointAttractor(arm=ARM, target=target), pi, x0, 0.02, duration)
        replay = lambda duration: reproduce_trajectory(plan, x0, 0.02, duration)
        for rollout in (demo, replay):
            with pytest.raises(ValueError, match="duration shorter than one step"):
                rollout(0.009)
        for duration in (0.011, 0.05, 0.8):
            assert replay(duration).n_samples == demo(duration).n_samples


class TestReplayAgainstSvdReference:
    """reproduce_trajectory (split_action per step) against a null_projector loop."""

    @staticmethod
    def reference(plan, x0, dt, steps):
        x = np.asarray(x0, dtype=float)
        X, U, B = [], [], []
        for t in range(steps):
            proj = null_projector(plan.execution_model.A_at(x))
            u = proj.A_pinv @ plan.task_source.rate(plan, x, t) + proj.N @ plan.pi_robot(x)
            X.append(x)
            U.append(u)
            B.append(proj.A @ u)
            x = x + dt * u
        return np.array(X), np.array(U), np.array(B)

    def check(self, plan, x0, dt=0.02, duration=2.0):
        out = reproduce_trajectory(plan, x0, dt, duration)
        for name, ref in zip(("x", "u", "b"), self.reference(plan, x0, dt, out.n_samples)):
            np.testing.assert_allclose(getattr(out, name), ref, rtol=0.0, atol=1e-9,
                                       err_msg=name)

    def test_same_arm_replay(self):
        traj = demo_dataset(seed=13, points=100).trajectories[0]
        plan = RetargetPlan(constraint=true_model(pattern=(0, 1, 1)),
                            task_source=ReplaySource(traj.b),
                            pi_robot=PointAttractor(target=np.deg2rad([40.0, 0.0, -30.0])),
                            demonstrator=ARM)
        self.check(plan, traj.x[0])

    def test_obstacle_attractor(self):
        # the shipped avoidance policy: a fast null-space transient
        plan = RetargetPlan(constraint=true_model(),
                            task_source=AttractorSource(target=np.array([-0.0912, 0.0389, 0.0])),
                            pi_robot=PointAttractor(target=np.deg2rad([-320.0, 100.0, 50.0]),
                                                    beta=5.0),
                            demonstrator=ARM)
        self.check(plan, np.deg2rad([8.67, 94.18, -2.32]), duration=4.0)

    def test_imitator_attractor(self):
        plan = RetargetPlan(constraint=true_model(pattern=(1, 0, 0)),
                            task_source=AttractorSource(target=np.array([-0.09, 0.04, 0.0])),
                            pi_robot=PointAttractor(target=np.deg2rad([-10.0] * 7)),
                            demonstrator=ARM, imitator=TestCrossEmbodiment.SEVEN)
        self.check(plan, np.deg2rad([0.0, 90.0, -90.0, 85.0, 90.0, -1.0, -81.5]))


class TestAttractorSource:
    def test_zero_rate_at_target(self):
        from projlearn.kinematics import end_pose

        q = np.deg2rad([20.0, 40.0, -10.0])
        target = end_pose(ARM, q)
        plan = RetargetPlan(constraint=true_model(),
                            task_source=AttractorSource(target=target, gain=2.0),
                            pi_robot=zero_prior, demonstrator=ARM)
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


def inside(region, p) -> bool:
    return region.x_min <= p[0] <= region.x_max and region.y_min <= p[1] <= region.y_max


def point_rect_distance(p, region):
    dx = max(region.x_min - p[0], 0.0, p[0] - region.x_max)
    dy = max(region.y_min - p[1], 0.0, p[1] - region.y_max)
    return float(np.hypot(dx, dy))


class TestObstacleGeometry:
    region = ObstacleRegion(x_min=-0.5, x_max=0.5, y_min=1.0, y_max=2.0)

    def sampling_oracle(self, p, q, n=1000):
        ts = np.linspace(0.0, 1.0, n)
        pts = p[None, :] + ts[:, None] * (q - p)[None, :]
        if any(inside(self.region, pt) for pt in pts):
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


# --- scalar reference for the batched clearance kernel --------------------------------
# The loop form the batched segment_rect_distance / check_obstacle_clearance
# replaced. The fast path must match it exactly, not to a tolerance.

def ref_segment_point_distance(p, q, pt) -> float:
    d = q - p
    denom = float(d @ d)
    t = 0.0 if denom == 0.0 else float(np.clip((pt - p) @ d / denom, 0.0, 1.0))
    return float(np.linalg.norm(p + t * d - pt))


def ref_segments_intersect(p1, q1, p2, q2) -> bool:
    def orient(a, b, c):
        val = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return 0 if abs(val) < 1e-15 else (1 if val > 0 else -1)

    def on_segment(a, b, c):
        return (min(a[0], b[0]) - 1e-15 <= c[0] <= max(a[0], b[0]) + 1e-15 and
                min(a[1], b[1]) - 1e-15 <= c[1] <= max(a[1], b[1]) + 1e-15)

    o1, o2 = orient(p1, q1, p2), orient(p1, q1, q2)
    o3, o4 = orient(p2, q2, p1), orient(p2, q2, q1)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and on_segment(p1, q1, p2):
        return True
    if o2 == 0 and on_segment(p1, q1, q2):
        return True
    if o3 == 0 and on_segment(p2, q2, p1):
        return True
    return bool(o4 == 0 and on_segment(p2, q2, q1))


def ref_segment_segment_distance(p1, q1, p2, q2) -> float:
    if ref_segments_intersect(p1, q1, p2, q2):
        return 0.0
    return min(ref_segment_point_distance(p1, q1, p2), ref_segment_point_distance(p1, q1, q2),
               ref_segment_point_distance(p2, q2, p1), ref_segment_point_distance(p2, q2, q1))


def ref_segment_rect_distance(p, q, region) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if inside(region, p) or inside(region, q):
        return 0.0
    corners = region.corners
    dist = np.inf
    for i in range(4):
        a, b = corners[i], corners[(i + 1) % 4]
        dist = min(dist, ref_segment_segment_distance(p, q, a, b))
        if dist == 0.0:
            break
    return float(dist)


def ref_check_obstacle_clearance(traj, arm, region):
    first = None
    min_dist = np.inf
    for t in range(traj.n_samples):
        pts = joint_positions(arm, traj.x[t])
        for link in range(arm.n):
            d = ref_segment_rect_distance(pts[link], pts[link + 1], region)
            min_dist = min(min_dist, d)
            if d <= 0.0 and first is None:
                first = (t, link)
    return ClearanceReport(clear=first is None, first_violation=first,
                           min_distance=float(min_dist))


class TestBatchedClearanceMatchesReference:
    region = ObstacleRegion(x_min=-0.5, x_max=0.5, y_min=1.0, y_max=2.0)

    def special_segments(self):
        r = self.region
        c = r.corners
        segs = [
            (c[0], c[0]), (c[2], c[2]),                        # degenerate, on a corner
            (np.array([3.0, 0.0]), np.array([3.0, 0.0])),      # degenerate, outside
            (np.array([0.0, 1.5]), np.array([0.0, 1.5])),      # degenerate, inside
            (np.array([-2.0, 1.0]), np.array([-1.0, 1.0])),    # collinear with bottom edge, apart
            (np.array([-2.0, 1.0]), np.array([-0.5, 1.0])),    # collinear, reaching a corner
            (np.array([-1.0, 1.0]), np.array([1.0, 1.0])),     # collinear, covering the edge
            (np.array([0.5, -1.0]), np.array([0.5, 0.5])),     # collinear with right edge, apart
            (np.array([-1.0, 0.5]), np.array([0.0, 1.0])),     # endpoint on an edge
            (np.array([0.5, 2.5]), np.array([0.5, 3.5])),      # endpoint beyond a corner
            (np.array([-1.0, 0.5]), np.array([0.0, 1.5])),     # crosses into the interior
            (np.array([-1.0, 1.5]), np.array([-0.5, 2.0])),    # touches the top-left corner
            (np.array([-1.0, 2.5]), np.array([0.0, 1.5])),     # cuts the top-left corner
            (np.array([1.0, 0.5]), np.array([-0.5, 1.0 - 1e-16])),  # grazes a corner within 1e-15
            (np.array([-0.25, 1.25]), np.array([0.25, 1.75])),  # fully inside
            (np.array([-2.0, 3.0]), np.array([2.0, 3.0])),     # parallel above
        ]
        return segs

    def random_segments(self, n=400, seed=21):
        rng = np.random.default_rng(seed)
        P = rng.uniform(-2.0, 2.0, size=(n, 2)) + np.array([0.0, 1.5])
        Q = P + rng.normal(0.0, 0.8, size=(n, 2))
        return list(zip(P, Q))

    def test_single_segments_match_exactly(self):
        for p, q in self.special_segments() + self.random_segments():
            fast = segment_rect_distance(p, q, self.region)
            assert isinstance(fast, np.float64) and fast.shape == ()
            assert fast == ref_segment_rect_distance(p, q, self.region), (p, q)

    def test_stacked_segments_match_exactly(self):
        segs = self.special_segments() + self.random_segments(seed=22)
        P = np.array([s[0] for s in segs])
        Q = np.array([s[1] for s in segs])
        d = segment_rect_distance(P, Q, self.region)
        assert d.shape == (len(segs),)
        assert np.array_equal(d, [ref_segment_rect_distance(p, q, self.region) for p, q in segs])
        d2 = segment_rect_distance(P.reshape(-1, 4, 2)[:4], Q.reshape(-1, 4, 2)[:4], self.region)
        assert np.array_equal(d2, d[:16].reshape(4, 4))

    def test_tolerance_boundaries_match_exactly(self):
        # Points exactly 1e-15 off an edge line or beyond an edge end: the
        # orientation and on-segment tests sit on their tolerance here.
        region = ObstacleRegion(x_min=0.0, x_max=1.0, y_min=-1.0, y_max=0.0)
        segs = [(np.array([0.5, 1e-15]), np.array([0.5, 1.0])),
                (np.array([-1e-15, 0.0]), np.array([-1e-15, 1.0])),
                (np.array([1.0 + 1e-15, 0.0]), np.array([1.0 + 1e-15, 1.0]))]
        d = [segment_rect_distance(p, q, region) for p, q in segs]
        assert d == [ref_segment_rect_distance(p, q, region) for p, q in segs]
        assert d == [1e-15, 0.0, 0.0]

    def test_special_cases_cover_touch_and_apart(self):
        d = [segment_rect_distance(p, q, self.region) for p, q in self.special_segments()]
        assert sum(x == 0.0 for x in d) >= 8
        assert sum(x > 0.0 for x in d) >= 4

    @staticmethod
    def grown(region, margin):
        """The region with every side moved out by margin: a safety margin is a larger region."""
        return ObstacleRegion(x_min=region.x_min - margin, x_max=region.x_max + margin,
                              y_min=region.y_min - margin, y_max=region.y_max + margin)

    @pytest.mark.parametrize("margin", [0.0, 0.02])
    def test_arm_trajectories_match_exactly(self, margin):
        rng = np.random.default_rng(23)
        regions = [self.grown(r, margin) for r in (
            ObstacleRegion(x_min=-0.085, x_max=-0.055, y_min=0.085, y_max=0.115),
            ObstacleRegion(x_min=0.05, x_max=0.12, y_min=-0.03, y_max=0.04),
            ObstacleRegion(x_min=-0.3, x_max=0.3, y_min=0.25, y_max=0.4))]
        seven = PlanarArm((0.1, 0.05, 0.05, 0.05, 0.05, 0.05, 0.1))
        outcomes = set()
        for arm in (ARM, seven):
            for _ in range(5):
                steps = int(rng.integers(1, 60))
                q0 = rng.uniform(-np.pi, np.pi, size=arm.n)
                X = q0 + np.cumsum(rng.normal(0.0, 0.05, size=(steps, arm.n)), axis=0)
                traj = Trajectory(dt=0.02, x=X, u=np.zeros_like(X))
                for region in regions:
                    fast = check_obstacle_clearance(traj, arm, region)
                    ref = ref_check_obstacle_clearance(traj, arm, region)
                    assert fast == ref
                    outcomes.add(fast.clear)
        assert outcomes == {True, False}

    def test_demonstration_matches_exactly(self):
        region = ObstacleRegion(x_min=-0.085, x_max=-0.055, y_min=0.085, y_max=0.115)
        traj = demo_dataset(seed=24, points=200).trajectories[0]
        for margin in (0.0, 0.01):
            grown = self.grown(region, margin)
            assert check_obstacle_clearance(traj, ARM, grown) == \
                ref_check_obstacle_clearance(traj, ARM, grown)

    def test_empty_trajectory_is_clear(self):
        traj = Trajectory(dt=0.1, x=np.zeros((0, 3)), u=np.zeros((0, 3)))
        report = check_obstacle_clearance(traj, ARM, self.region)
        assert report == ClearanceReport(clear=True, first_violation=None, min_distance=np.inf)
