from dataclasses import fields

import numpy as np
import pytest

from projlearn.constraints import (SelectionConstraint, build_constraint_rows,
                                   diagonal_selection, null_projector)
from projlearn import simulator
from projlearn.cli import write_outputs
from projlearn.experiments import resolve
from projlearn.kinematics import PlanarArm, jacobian
from projlearn.policies import LimitCyclePolicy, PointAttractor, TaskPointAttractor
from projlearn.simulator import (Dataset, NoiseSpec, RankCollapseError, Trajectory,
                                 action_std, add_noise, generate_arm_dataset,
                                 generate_toy_dataset, simulate_trajectory, split_dataset)

ARM = PlanarArm((0.1, 0.1, 0.1))
TARGET_RANGES = resolve({}, "three-link")["target_ranges"]


# The per-trajectory draws that generate_arm_dataset's single draw call replaces:
# a start, then a target, one trajectory at a time.
def sample_arm_start(rng) -> np.ndarray:
    lo = np.deg2rad([r[0] for r in simulator.THREE_LINK_START_RANGES_DEG])
    hi = np.deg2rad([r[1] for r in simulator.THREE_LINK_START_RANGES_DEG])
    return rng.uniform(lo, hi)


def sample_task_target(rng, x_range, y_range, theta_range_deg) -> np.ndarray:
    return np.array([
        rng.uniform(*x_range),
        rng.uniform(*y_range),
        rng.uniform(np.deg2rad(theta_range_deg[0]), np.deg2rad(theta_range_deg[1])),
    ])


def make_arm_dataset(seed=0, n_traj=3, points=40, lam_pattern=(1, 1, 0)):
    return generate_arm_dataset(ARM, diagonal_selection(lam_pattern),
                                PointAttractor(target=np.deg2rad([10.0, -10.0, 10.0])),
                                n_trajectories=n_traj, points_per_traj=points,
                                dt=0.02, seed=seed, target_cfg=TARGET_RANGES)


def assert_keeps_fields(got, want, rows=slice(None), changed=()):
    """got has want's dt and every array want has, in rows `rows`, bar the changed ones."""
    for f in fields(Trajectory):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "dt":
            assert a == b
        elif b is None:
            assert a is None, f.name
        elif f.name in changed:
            assert a.shape == b[rows].shape and not np.array_equal(a, b[rows]), f.name
        else:
            assert np.array_equal(a, b[rows]), f.name


def partial_trajectory(n=6):
    """A trajectory with dt != 1 that lacks v, w and b."""
    rng = np.random.default_rng(3)
    return Trajectory(dt=0.05, x=rng.normal(size=(n, 3)), u=rng.normal(size=(n, 3)),
                      pi=rng.normal(size=(n, 3)))


class TestDecompositionIdentities:
    def test_toy_split_is_orthogonal(self):
        ds = generate_toy_dataset(200, seed=1, null_policy=LimitCyclePolicy())
        traj = ds.trajectories[0]
        A = build_constraint_rows(np.array(ds.meta["constraint"]["theta_rad"]), 1, 2)
        assert np.max(np.abs(traj.u - traj.v - traj.w)) < 1e-14
        assert np.max(np.abs(traj.u @ A[0] - traj.b[:, 0])) < 1e-10
        dots = np.sum(traj.v * traj.w, axis=1)
        assert np.max(np.abs(dots)) < 1e-10
        # removing the null part leaves a vector the null part cannot see
        assert np.max(np.abs(np.sum(traj.w * (traj.u - traj.w), axis=1))) < 1e-10

    def test_arm_split_is_orthogonal(self):
        ds = make_arm_dataset(seed=2)
        model = SelectionConstraint(lam=diagonal_selection((1, 1, 0)),
                                    feature=lambda q: jacobian(ARM, q))
        for traj in ds.trajectories:
            for i in range(0, traj.n_samples, 7):
                A = model.A_at(traj.x[i])
                assert np.max(np.abs(A @ traj.u[i] - traj.b[i])) < 1e-10
                assert abs(float(traj.v[i] @ traj.w[i])) < 1e-10

    def test_euler_update_matches_states(self):
        ds = make_arm_dataset(seed=3, n_traj=1)
        traj = ds.trajectories[0]
        stepped = traj.x[:-1] + traj.dt * traj.u[:-1]
        assert np.max(np.abs(stepped - traj.x[1:])) < 1e-12


class TestDeterminism:
    def test_toy_repeats_bitwise(self):
        a = generate_toy_dataset(50, seed=7, null_policy=LimitCyclePolicy())
        b = generate_toy_dataset(50, seed=7, null_policy=LimitCyclePolicy())
        assert np.array_equal(a.trajectories[0].u, b.trajectories[0].u)
        assert a.meta["constraint"] == b.meta["constraint"]

    def test_arm_repeats_bitwise(self):
        a = make_arm_dataset(seed=11)
        b = make_arm_dataset(seed=11)
        for ta, tb in zip(a.trajectories, b.trajectories):
            assert np.array_equal(ta.x, tb.x)
            assert np.array_equal(ta.u, tb.u)

    def test_seeds_differ(self):
        a = generate_toy_dataset(50, seed=1, null_policy=LimitCyclePolicy())
        b = generate_toy_dataset(50, seed=2, null_policy=LimitCyclePolicy())
        assert not np.array_equal(a.trajectories[0].x, b.trajectories[0].x)


class TestNoise:
    def test_action_noise_variance(self):
        ds = generate_toy_dataset(20000, seed=5, null_policy=LimitCyclePolicy())
        eps = 0.1
        noisy = add_noise(ds, NoiseSpec(epsilon=eps), seed=6)
        delta = noisy.trajectories[0].u - ds.trajectories[0].u
        expected = eps * action_std(ds) ** 2
        measured = np.var(delta, axis=0)
        assert np.max(np.abs(measured / expected - 1.0)) < 0.2

    def test_prior_noise_leaves_actions_alone(self):
        ds = generate_toy_dataset(500, seed=8, null_policy=LimitCyclePolicy())
        noisy = add_noise(ds, NoiseSpec(epsilon=0.04, target="prior_policy"), seed=9)
        assert np.array_equal(noisy.trajectories[0].u, ds.trajectories[0].u)
        assert not np.array_equal(noisy.trajectories[0].pi, ds.trajectories[0].pi)
        # and keeps dt and every other array, of a full and of a partial trajectory
        for ds in (make_arm_dataset(seed=9, n_traj=2, points=8),
                   Dataset(trajectories=[partial_trajectory()])):
            noisy = add_noise(ds, NoiseSpec(epsilon=0.04, target="prior_policy"), seed=9)
            for got, want in zip(noisy.trajectories, ds.trajectories):
                assert_keeps_fields(got, want, changed=("pi",))

    def test_zero_epsilon_is_identity(self):
        ds = generate_toy_dataset(100, seed=10, null_policy=LimitCyclePolicy())
        noisy = add_noise(ds, NoiseSpec(epsilon=0.0), seed=11)
        assert np.array_equal(noisy.trajectories[0].u, ds.trajectories[0].u)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            NoiseSpec(epsilon=-0.1)
        with pytest.raises(ValueError):
            NoiseSpec(epsilon=0.1, target="states")

    def test_original_untouched(self):
        ds = generate_toy_dataset(100, seed=12, null_policy=LimitCyclePolicy())
        before = ds.trajectories[0].u.copy()
        noisy = add_noise(ds, NoiseSpec(epsilon=0.5), seed=13)
        assert np.array_equal(ds.trajectories[0].u, before)
        assert_keeps_fields(noisy.trajectories[0], ds.trajectories[0], changed=("u",))
        for ds_more in (make_arm_dataset(seed=13, n_traj=2, points=8),
                        Dataset(trajectories=[partial_trajectory()])):
            noisy_more = add_noise(ds_more, NoiseSpec(epsilon=0.5), seed=13)
            for got, want in zip(noisy_more.trajectories, ds_more.trajectories):
                assert_keeps_fields(got, want, changed=("u",))
        # the meta holds the drawn constraint alone, and noising copies it
        assert list(ds.meta) == ["constraint"]
        assert noisy.meta == ds.meta and noisy.meta is not ds.meta


class TestSimulateTrajectory:
    model = SelectionConstraint(lam=diagonal_selection((1, 1, 0)),
                                feature=lambda q: jacobian(ARM, q))

    def test_sample_count_matches_rate(self):
        task = TaskPointAttractor(arm=ARM, target=np.array([0.0, 0.02, 0.0]))
        traj = simulate_trajectory(ARM, self.model, task,
                                   PointAttractor(target=np.zeros(3)),
                                   q0=np.deg2rad([5.0, 95.0, 5.0]), dt=0.02, duration=2.0)
        assert traj.n_samples == 100
        assert traj.dt == 0.02

    def test_rank_collapse_reports_step(self):
        # straight arm: the x row of the Jacobian vanishes
        task = TaskPointAttractor(arm=ARM, target=np.array([0.0, 0.02, 0.0]))
        with pytest.raises(RankCollapseError) as err:
            simulate_trajectory(ARM, self.model, task, PointAttractor(target=np.zeros(3)),
                                q0=np.zeros(3), dt=0.02, duration=1.0)
        assert err.value.step == 0
        assert err.value.sigma_ratio < 1e-10

    def test_rejects_bad_timing(self):
        task = TaskPointAttractor(arm=ARM, target=np.array([0.0, 0.02, 0.0]))
        with pytest.raises(ValueError):
            simulate_trajectory(ARM, self.model, task, PointAttractor(target=np.zeros(3)),
                                q0=np.zeros(3), dt=-0.02, duration=1.0)


def constraint_terms(constraint, task_rates):
    """_rollout's terms for a constraint and a map from states to full task-space rates."""
    return lambda Q: (constraint.A_stack(Q), constraint.select_rates(task_rates(Q)))


class TestLockstepRollout:
    def test_matches_per_trajectory_rollouts(self):
        # generate_arm_dataset draws every start and target in one call and
        # steps every trajectory at once; each one must equal, bit for bit, a
        # separate simulate_trajectory from the start and target the
        # per-trajectory draw loop gives
        lam = diagonal_selection((1, 0, 1))
        pi = PointAttractor(target=np.deg2rad([10.0, -10.0, 10.0]))
        target_cfg = {"x_range": (-0.05, 0.05), "y_range": (0.0, 0.1),
                      "theta_range_deg": (0.0, 180.0)}
        ds = generate_arm_dataset(ARM, lam, pi, n_trajectories=6, points_per_traj=30,
                                  dt=0.02, seed=(4, 2), target_cfg=target_cfg)
        rng = np.random.default_rng((4, 2))
        model = SelectionConstraint(lam=lam, feature=lambda q: jacobian(ARM, q))
        for traj in ds.trajectories:
            q0 = sample_arm_start(rng)
            task = TaskPointAttractor(arm=ARM, target=sample_task_target(rng, **target_cfg))
            ref = simulate_trajectory(ARM, model, task, pi, q0, dt=0.02, duration=30 * 0.02)
            for name in ("x", "u", "v", "w", "b", "pi"):
                np.testing.assert_array_equal(getattr(traj, name), getattr(ref, name),
                                              err_msg=name)

    def test_one_draw_call_gives_the_per_trajectory_stream(self):
        # with lam = I the first sample shows the start (x) and the whole
        # target error (b), so both draws are compared for many seeds
        lam = np.eye(3)
        pi = PointAttractor(target=np.deg2rad([10.0, -10.0, 10.0]))
        for seed in range(100):
            ds = generate_arm_dataset(ARM, lam, pi, n_trajectories=4, points_per_traj=1,
                                      dt=0.02, seed=seed, target_cfg=TARGET_RANGES)
            rng = np.random.default_rng(seed)
            for traj in ds.trajectories:
                q0 = sample_arm_start(rng)
                task = TaskPointAttractor(arm=ARM, target=sample_task_target(rng, **TARGET_RANGES))
                assert np.array_equal(traj.x[0], q0), seed
                assert np.array_equal(traj.b[0], task(q0)), seed

    def test_matches_per_step_projector_near_singularity(self):
        # rows (1, 0, 0) and (1, q_3, 0): trajectory 0 sits at a
        # sigma_min/sigma_max near 1e-9, inside the rank tolerance
        def feature(q):
            q = np.asarray(q, dtype=float)
            Phi = np.zeros(q.shape[:-1] + (2, 3))
            Phi[..., :, 0] = 1.0
            Phi[..., 1, 1] = q[..., 2]
            return Phi

        model = SelectionConstraint(lam=np.eye(2), feature=feature)
        pi = PointAttractor(target=np.array([0.3, -0.4, 3e-9]))
        Q0 = np.array([[0.0, 0.0, 2e-9], [0.1, 0.2, 0.5]])
        rates = np.array([0.3, -0.2])
        trajs = simulator._rollout(constraint_terms(model, lambda Q: np.tile(rates, (len(Q), 1))),
                                   pi, Q0, 0.02, 4)
        for traj, q in zip(trajs, Q0):
            for t in range(4):
                proj = null_projector(model.A_at(q))
                v = proj.A_pinv @ rates
                w = proj.N @ pi(q)
                np.testing.assert_allclose(traj.x[t], q, rtol=1e-9, atol=1e-12)
                np.testing.assert_allclose(traj.v[t], v, rtol=1e-9, atol=1e-12)
                np.testing.assert_allclose(traj.w[t], w, rtol=1e-9, atol=1e-12)
                q = q + 0.02 * (v + w)
        assert null_projector(model.A_at(Q0[0])).sigma_ratio < 1e-8

    def test_rank_collapse_in_any_trajectory_raises(self):
        # the straight start of trajectory 1 kills the x row at step 0
        model = SelectionConstraint(lam=diagonal_selection((1, 1, 0)),
                                    feature=lambda q: jacobian(ARM, q))
        task = TaskPointAttractor(arm=ARM, target=np.zeros((2, 3)))
        with pytest.raises(RankCollapseError) as err:
            simulator._rollout(constraint_terms(model, task), PointAttractor(target=np.zeros(3)),
                               np.array([[0.1, 1.6, 0.1], [0.0, 0.0, 0.0]]), 0.02, 5)
        assert err.value.step == 0
        assert err.value.sigma_ratio < 1e-10


def svd_rollout(constraint, task_rates, null_policy, Q0, dt, steps):
    """The lockstep rollout with one null_projector SVD per step, the slow reference."""
    Q = np.array(Q0, dtype=float)
    X, U, V, W = [], [], [], []
    for t in range(steps):
        proj = null_projector(constraint.A_stack(Q))
        ratio = float(np.min(proj.sigma_ratio))
        if ratio < simulator.RANK_TOL:
            raise RankCollapseError(t, ratio)
        v = np.einsum("sjk,sk->sj", proj.A_pinv, constraint.select_rates(task_rates(Q)))
        w = np.einsum("sij,sj->si", proj.N, null_policy(Q))
        X.append(Q)
        V.append(v)
        W.append(w)
        U.append(v + w)
        Q = Q + dt * U[-1]
    return [np.swapaxes(np.array(a), 0, 1) for a in (X, U, V, W)]


class TestRolloutAgainstSvdReference:
    """simulator._rollout (split_action per step) against per-step null_projector."""

    @pytest.mark.parametrize("pattern", [(1, 0, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1)])
    def test_random_three_link_states(self, pattern):
        rng = np.random.default_rng(sum(pattern) * 10 + pattern[0])
        model = SelectionConstraint(lam=diagonal_selection(pattern),
                                    feature=lambda q: jacobian(ARM, q))
        task = TaskPointAttractor(arm=ARM, target=np.array([[0.0, 0.15, 0.3]] * 8), gain=2.0)
        pi = PointAttractor(target=np.deg2rad([10.0, -10.0, 10.0]))
        Q0 = rng.uniform(-np.pi, np.pi, size=(8, 3))
        trajs = simulator._rollout(constraint_terms(model, task), pi, Q0, 0.02, 40)
        for name, ref in zip(("x", "u", "v", "w"), svd_rollout(model, task, pi, Q0, 0.02, 40)):
            got = np.array([getattr(t, name) for t in trajs])
            np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-9, err_msg=name)

    @staticmethod
    def decaying_row_model(parallel: bool):
        # rows (1, 0, 0) and (1, q_3, 0), or (0, q_3^2, 0): the pi attractor
        # halves q_3 every step, so sigma_min/sigma_max falls through RANK_TOL
        # after a few steps. Near-parallel rows collapse on the SVD path,
        # orthogonal rows of unequal norm on the Gram closed form.
        def feature(q):
            q = np.asarray(q, dtype=float)
            Phi = np.zeros(q.shape[:-1] + (2, 3))
            Phi[..., 0, 0] = 1.0
            Phi[..., 1, 0] = 1.0 if parallel else 0.0
            Phi[..., 1, 1] = q[..., 2] if parallel else q[..., 2] ** 2
            return Phi
        return SelectionConstraint(lam=np.eye(2), feature=feature)

    @pytest.mark.parametrize("parallel", [False, True])
    def test_rank_collapse_at_the_same_step_and_ratio(self, parallel):
        model = self.decaying_row_model(parallel)
        pi = PointAttractor(target=np.zeros(3), beta=25.0)
        Q0 = np.array([[0.2, 0.1, 0.3], [0.0, 0.0, 0.05]])
        rates = lambda Q: np.tile([0.3, -0.2], (len(Q), 1))
        with pytest.raises(RankCollapseError) as ref:
            svd_rollout(model, rates, pi, Q0, 0.02, 60)
        with pytest.raises(RankCollapseError) as got:
            simulator._rollout(constraint_terms(model, rates), pi, Q0, 0.02, 60)
        assert ref.value.step > 3
        assert got.value.step == ref.value.step
        assert got.value.sigma_ratio == pytest.approx(ref.value.sigma_ratio, rel=1e-6)


class TestSplitDataset:
    def test_single_trajectory_splits_samples(self):
        ds = generate_toy_dataset(100, seed=14, null_policy=LimitCyclePolicy())
        train, test = split_dataset(ds, 60)
        assert train.n_samples == 60 and test.n_samples == 40
        joined = np.vstack([train.trajectories[0].x, test.trajectories[0].x])
        assert np.array_equal(joined, ds.trajectories[0].x)
        assert_keeps_fields(train.trajectories[0], ds.trajectories[0], slice(0, 60))
        assert_keeps_fields(test.trajectories[0], ds.trajectories[0], slice(60, 100))
        # Trajectory.slice keeps dt and every array of an arm trajectory, and
        # leaves absent arrays absent
        for traj in (make_arm_dataset(seed=14, n_traj=1, points=10).trajectories[0],
                     partial_trajectory()):
            assert_keeps_fields(traj.slice(2, 5), traj, slice(2, 5))

    def test_multi_trajectory_splits_whole_rollouts(self):
        ds = make_arm_dataset(seed=15, n_traj=4, points=10)
        train, test = split_dataset(ds, 2)
        assert len(train.trajectories) == 2 and len(test.trajectories) == 2
        assert np.array_equal(train.trajectories[0].x, ds.trajectories[0].x)

    def test_out_of_range(self):
        ds = generate_toy_dataset(10, seed=16, null_policy=LimitCyclePolicy())
        with pytest.raises(ValueError):
            split_dataset(ds, 10)


def save_trajectory_csv(traj, out_dir):
    """The CSV the CLI writes for a run whose one trajectory is traj."""
    write_outputs({"report": {}, "rows": [], "trajectories": {"traj": traj}}, out_dir, False)
    return out_dir / "trajectories" / "traj.csv"


class TestSerialisation:
    def test_csv_header_layout(self, tmp_path):
        ds = make_arm_dataset(seed=17, n_traj=1, points=5)
        path = save_trajectory_csv(ds.trajectories[0], tmp_path)
        header = path.read_text().splitlines()[0].split(",")
        assert header[:7] == ["t", "x1", "x2", "x3", "u1", "u2", "u3"]
        assert header[7:13] == ["v1", "v2", "v3", "w1", "w2", "w3"]
        assert header[13:15] == ["b1", "b2"]
        assert header[15:] == ["pi1", "pi2", "pi3"]

    def test_trajectory_round_trip_is_exact(self, tmp_path):
        ds = make_arm_dataset(seed=18, n_traj=1, points=12)
        orig = ds.trajectories[0]
        path = save_trajectory_csv(orig, tmp_path)
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(back[:, 0], np.arange(orig.n_samples) * orig.dt)
        expected = np.hstack([orig.x, orig.u, orig.v, orig.w, orig.b, orig.pi])
        assert np.array_equal(back[:, 1:], expected)


class TestContainers:
    def test_trajectory_validates_shapes(self):
        with pytest.raises(ValueError):
            Trajectory(dt=1.0, x=np.zeros((3, 2)), u=np.zeros((4, 2)))
        with pytest.raises(ValueError):
            Trajectory(dt=0.0, x=np.zeros((3, 2)), u=np.zeros((3, 2)))
        with pytest.raises(ValueError):
            Trajectory(dt=1.0, x=np.zeros((3, 2)), u=np.zeros((3, 2)), w=np.zeros((2, 2)))

    def test_stack_concatenates(self):
        ds = make_arm_dataset(seed=21, n_traj=2, points=6)
        assert ds.stack("x").shape == (12, 3)
        assert ds.n_samples == 12

    def test_stack_requires_field(self):
        traj = Trajectory(dt=1.0, x=np.zeros((3, 2)), u=np.zeros((3, 2)))
        with pytest.raises(ValueError):
            Dataset(trajectories=[traj]).stack("w")
