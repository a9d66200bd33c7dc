import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from projlearn.constraints import (SelectionConstraint, SphericalConstraint,
                                   build_constraint_rows, constraint_angles,
                                   diagonal_selection, null_projector, pseudo_inverse,
                                   spherical_param_count)
from projlearn import learning
from projlearn.experiments import THREE_LINK_CASES, resolve, run_ingest_learn
from projlearn.kinematics import PlanarArm, jacobian
from projlearn.learning import (OptimizerConfig, baseline_objective, baseline_separate_nullspace,
                                learn_constraint, learn_selection_matrix, optimize)
from projlearn.metrics import consistency_objective, eval_learned_constraint, nmse_w
from projlearn.policies import LimitCyclePolicy, LinearPolicy, PointAttractor, SinusoidalPolicy
from projlearn.simulator import (Dataset, NoiseSpec, Trajectory, add_noise,
                                 generate_arm_dataset, generate_toy_dataset, split_dataset)

REPO = Path(__file__).resolve().parent.parent
ARM = PlanarArm((0.1, 0.1, 0.1))
TARGET_RANGES = resolve({}, "three-link")["target_ranges"]
TOY_OPT = OptimizerConfig(restarts=8, max_iters=600, objective_tol=1e-13,
                          param_tol=1e-11, seed=0)
ARM_OPT = OptimizerConfig(restarts=6, max_iters=800, objective_tol=1e-12,
                          param_tol=1e-10, seed=0)


def restart_search(objective, dim: int, opt: OptimizerConfig):
    """opt.restarts simplex searches from screened random angles: the slow reference.

    It calls optimize and _screened_sampler through the module, so a patch
    of either (the benchmark's tracer, say) sees the search.
    """
    sampler = learning._screened_sampler(objective, dim)
    return learning.optimize(objective, sampler(np.random.default_rng(opt.seed)), opt,
                             sampler=sampler)


def zero_prior(x):
    """A secondary policy that is zero everywhere, for any state dimension."""
    return np.zeros_like(np.asarray(x, dtype=float))


def toy(seed, n_points=150):
    return generate_toy_dataset(n_points, seed=seed, null_policy=LimitCyclePolicy())


def toy_theta(ds) -> float:
    """The constraint angle a toy dataset was drawn with."""
    return ds.meta["constraint"]["theta_rad"][0]


def arm_dataset(seed, lam_pattern=(1, 1, 0), n_traj=2, points=30):
    return generate_arm_dataset(ARM, diagonal_selection(lam_pattern),
                                PointAttractor(target=np.deg2rad([10.0, -10.0, 10.0])),
                                n_trajectories=n_traj, points_per_traj=points,
                                dt=0.02, seed=seed, target_cfg=TARGET_RANGES)


def action_norm_sum(ds):
    return float(np.sum(np.linalg.norm(ds.stack("u"), axis=1)))


def loop_objective(model, ds):
    # literal transcription of the score, one sample at a time
    X, U, PI = ds.stack("x"), ds.stack("u"), ds.stack("pi")
    total = 0.0
    for i in range(X.shape[0]):
        N = model.projector_at(X[i]).N
        total += abs(float(PI[i] @ N @ (U[i] - PI[i])))
    return total


class TestConsistencyObjective:
    def test_zero_at_toy_truth(self):
        ds = toy(seed=0)
        true = SphericalConstraint(theta=tuple(ds.meta["constraint"]["theta_rad"]),
                                   k=1, n=2)
        assert consistency_objective(true, ds) <= 1e-10 * action_norm_sum(ds)

    def test_zero_at_arm_truth(self):
        ds = arm_dataset(seed=1)
        true = SelectionConstraint(lam=diagonal_selection((1, 1, 0)),
                                   feature=lambda q: jacobian(ARM, q))
        assert consistency_objective(true, ds) <= 1e-10 * action_norm_sum(ds)

    def test_positive_away_from_truth(self):
        ds = toy(seed=2)
        off = SphericalConstraint(theta=(toy_theta(ds) + np.deg2rad(30.0),), k=1, n=2)
        assert consistency_objective(off, ds) > 1e-2

    def test_matches_loop_oracle_spherical(self):
        ds = toy(seed=3)
        cand = SphericalConstraint(theta=(toy_theta(ds) - 0.7,), k=1, n=2)
        fast = consistency_objective(cand, ds)
        assert fast == pytest.approx(loop_objective(cand, ds), rel=1e-12)

    def test_matches_loop_oracle_selection(self):
        ds = arm_dataset(seed=4)
        lam = build_constraint_rows(np.array([0.5, -0.2, 0.9]), 2, 3)
        cand = SelectionConstraint(lam=lam, feature=lambda q: jacobian(ARM, q))
        fast = consistency_objective(cand, ds)
        assert fast == pytest.approx(loop_objective(cand, ds), rel=1e-10)

    def test_zero_prior_zeroes_every_candidate(self):
        ds = generate_toy_dataset(50, seed=6, null_policy=zero_prior)
        for theta in (0.1, 0.9, 2.2):
            cand = SphericalConstraint(theta=(theta,), k=1, n=2)
            assert consistency_objective(cand, ds) == 0.0


def angle_gap_mod_pi(a, b) -> float:
    d = abs(a - b) % np.pi
    return min(d, np.pi - d)


class TestLearnToyConstraint:
    def test_matches_grid_oracle(self):
        # brute-force scan is the reference answer; the learner must agree
        for seed in range(10):
            ds = toy(seed=seed, n_points=150)
            grid = np.deg2rad(np.arange(0.0, 180.0, 0.1))
            vals = [consistency_objective(SphericalConstraint(theta=(g,), k=1, n=2), ds)
                    for g in grid]
            oracle = grid[int(np.argmin(vals))]
            learned = learn_constraint(ds, k=1)
            got = learned.model.theta[0]
            assert angle_gap_mod_pi(got, oracle) < np.deg2rad(0.5), seed

    def test_projector_recovery_25_points(self):
        ds = toy(seed=42, n_points=25)
        learned = learn_constraint(ds, k=1)
        A = build_constraint_rows(np.array(ds.meta["constraint"]["theta_rad"]), 1, 2)
        N_true = null_projector(A).N
        N_hat = learned.model.projector_at(None).N
        assert np.linalg.norm(N_hat - N_true) <= 1e-4

    def test_explicit_prior_policy_object(self):
        ds = toy(seed=7)
        pi = LimitCyclePolicy()
        learned = learn_constraint(ds, prior_pi=pi, k=1)
        assert learned.objective_value <= 1e-8 * action_norm_sum(ds)

    def test_degenerate_prior_is_flagged(self):
        ds = generate_toy_dataset(60, seed=8, null_policy=zero_prior)
        with pytest.warns(UserWarning):
            learned = learn_constraint(ds, k=1)
        assert learned.diagnostics["degenerate_prior_fraction"] > 0.5
        assert learned.objective_value == 0.0


class TestLearnArmConstraint:
    def test_lambda_representation_recovers_projector(self):
        ds = arm_dataset(seed=10)
        learned = learn_constraint(ds, k=2, representation="lambda",
                                   feature_fn=lambda q: jacobian(ARM, q))
        assert learned.objective_value <= 1e-8 * action_norm_sum(ds)
        lam_true = diagonal_selection((1, 1, 0))
        for q in ds.stack("x")[::17]:
            N_true = null_projector(lam_true @ jacobian(ARM, q)).N
            N_hat = learned.model.projector_at(q).N
            assert np.max(np.abs(N_hat - N_true)) < 1e-5

    def test_lambda_needs_feature(self):
        with pytest.raises(ValueError):
            learn_constraint(arm_dataset(seed=11), k=2, representation="lambda")

    def test_non_broadcasting_feature_rejected(self):
        # indexing rows of a stacked Jacobian picks samples, not task rows
        ds = arm_dataset(seed=11)
        rows = [0, 1]
        feature = lambda q: jacobian(ARM, q)[rows, :]
        with pytest.raises(ValueError, match="broadcast"):
            learn_constraint(ds, k=1, representation="lambda", feature_fn=feature)
        with pytest.raises(ValueError, match="broadcast"):
            learn_selection_matrix(ds, ds.stack("w"), feature, k=1)

    @pytest.mark.parametrize("representation,k", [("spherical", 0), ("spherical", -1),
                                                  ("spherical", 3), ("lambda", 0),
                                                  ("lambda", 4)])
    def test_k_out_of_range_rejected_before_the_start(self, monkeypatch, representation, k):
        monkeypatch.setattr(learning, "_row_space_start",
                            lambda *a: pytest.fail("k was not checked before the start"))
        ds = toy(seed=12) if representation == "spherical" else arm_dataset(seed=12)
        feature = None if representation == "spherical" else lambda q: jacobian(ARM, q)
        with pytest.raises(ValueError, match="1 <= k <= n"):
            learn_constraint(ds, k=k, representation=representation, feature_fn=feature)

    def test_spherical_rejects_a_feature(self):
        # a constant matrix has no feature; ignoring one would learn the wrong model
        feature = lambda q: np.zeros(np.shape(q)[:-1] + (5, 2))
        with pytest.raises(ValueError, match="feature_fn"):
            learn_constraint(toy(seed=12), k=1, representation="spherical", feature_fn=feature)

    def test_unknown_representation(self):
        with pytest.raises(ValueError):
            learn_constraint(toy(seed=12), k=1, representation="fourier")


TOY_PRIORS = {"linear": LinearPolicy(L=[[2.0, 4.0, 0.0], [1.0, 3.0, -1.0]]),
              "limit_cycle": LimitCyclePolicy(), "sinusoidal": SinusoidalPolicy()}
ACTION_NOISE = NoiseSpec(epsilon=0.1, target="actions")


def identity_stack(S, n):
    return np.broadcast_to(np.eye(n), (S, n, n))


def constant_dataset(seed, k, n, noisy, n_points=150):
    """Synthetic data from a random constant constraint, optionally with action noise.

    The noise is 0.3 times each action coordinate's spread.
    """
    rng = np.random.default_rng((seed, k, n))
    A = build_constraint_rows(rng.uniform(-3.0, 3.0, spherical_param_count(k, n)), k, n)
    X = rng.uniform(-1.0, 1.0, size=(n_points, n))
    PI = X @ rng.normal(size=(n, n)).T + 0.3
    U = rng.normal(size=(n_points, k)) @ A + PI @ (np.eye(n) - A.T @ A)
    if noisy:
        U = U + 0.3 * np.std(U, axis=0) * rng.normal(size=U.shape)
    return Dataset(trajectories=[Trajectory(dt=1.0, x=X, u=U, pi=PI)])


class TestLiftedStart:
    """The closed-form start: the top eigenvectors of the row-space scatter of d = u - pi.

    The slow reference is the screened-restart search of the L1 score. On
    clean data the start, returned as it is, must score no worse than it. On
    noisy data a "lambda" learn's least-squares fit, and a constant learn's
    start, must leave no larger residuals N d than the search's answer does.
    """

    @staticmethod
    def assert_no_worse(new, ref):
        assert new <= ref * (1.0 + 1e-6) + 1e-12, (new, ref)

    def assert_constant_matches_search(self, ds, k, noisy):
        X, PI = ds.stack("x"), ds.stack("pi")
        D, Phi = ds.stack("u") - PI, identity_stack(len(X), X.shape[1])
        n = X.shape[1]
        rows = lambda theta: build_constraint_rows(theta, k, n)
        # With orthonormal rows N = I - A^T A, so the search can score
        # pi.d - (A pi).(A d) directly; its answer is rescored with _l1_score.
        pd = np.einsum("si,si->s", PI, D)

        def objective(theta):
            A = rows(theta)
            return float(np.abs(pd - np.einsum("sk,sk->s", PI @ A.T, D @ A.T)).sum())
        searched = restart_search(objective, spherical_param_count(k, n), TOY_OPT)
        A_ref = rows(searched.params)
        learned = learn_constraint(ds, k=k)
        A = learned.model.matrix
        assert learned.diagnostics["learner_path"] == "closed_form"
        if noisy:
            assert residual(A, Phi, D) <= residual(A_ref, Phi, D) * (1.0 + 1e-9)
            # for a constant constraint the least-squares optimum is the top-k PCA of d
            top = np.linalg.eigh(D.T @ D)[1][:, -k:]
            assert np.max(np.abs(A.T @ A - top @ top.T)) < 1e-8
        else:
            self.assert_no_worse(learned.objective_value,
                                 learning._l1_score(PI, D, A_ref @ Phi))

    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("prior", sorted(TOY_PRIORS))
    def test_toy_matches_restart_search(self, prior, noisy):
        for seed in range(3):
            ds = generate_toy_dataset(150, seed=(seed, 31), null_policy=TOY_PRIORS[prior])
            if noisy:
                ds = add_noise(ds, ACTION_NOISE, (seed, 32))
            self.assert_constant_matches_search(ds, 1, noisy)

    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 6) for k in range(1, n)])
    def test_constant_matches_restart_search(self, n, k, noisy):
        self.assert_constant_matches_search(constant_dataset(33, k, n, noisy), k, noisy)

    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("seed", [21, 25])
    @pytest.mark.parametrize("pattern", [(0, 1, 0), (1, 1, 0)])
    def test_arm_matches_restart_search(self, pattern, seed, noisy):
        k = sum(pattern)
        ds = arm_dataset(seed=seed, lam_pattern=pattern)
        if noisy:
            ds = add_noise(ds, ACTION_NOISE, (seed, 22))
        X, PI = ds.stack("x"), ds.stack("pi")
        D, Phi = ds.stack("u") - PI, jacobian(ARM, X)
        rows = lambda theta: build_constraint_rows(theta, k, 3)
        searched = restart_search(
            lambda theta: learning._l1_score(PI, D, rows(theta) @ Phi),
            spherical_param_count(k, 3), ARM_OPT)
        learned = learn_constraint(ds, k=k, representation="lambda",
                                   feature_fn=lambda q: jacobian(ARM, q))
        if noisy:
            # the learner fits the squared residuals N d, not the L1 score, and
            # must fit them at least as well as the search's answer does
            assert learned.diagnostics["learner_path"] == "least_squares"
            assert residual(learned.model.lam, Phi, D) <= residual(rows(searched.params), Phi, D)
        else:
            assert learned.diagnostics["learner_path"] == "closed_form"
            self.assert_no_worse(learned.objective_value, searched.value)

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 6) for k in range(1, n)])
    def test_constant_closed_form_needs_no_polish(self, n, k):
        # Ky Fan: the top-k eigenvectors of D^T D minimise sum |N d|^2 over
        # constant k-row constraints, so the LM fit from them finds nothing lower
        for seed in range(5):
            ds = constant_dataset(seed, k, n, noisy=True)
            PI = ds.stack("pi")
            D, Phi = ds.stack("u") - PI, identity_stack(ds.n_samples, n)
            basis, _ = learning._row_space_start(D, Phi)
            polished, _ = learning._fit_row_span(
                Phi, lambda A: learning.null_space_apply(A, D), basis, k)
            closed = learn_constraint(ds, k=k).model.matrix
            assert residual(closed, Phi, D) <= residual(polished, Phi, D) * (1.0 + 1e-12), seed

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_start_is_exact_on_clean_constant_data(self, k):
        rng = np.random.default_rng(k)
        for n in range(k + 1, 6):
            A = build_constraint_rows(rng.uniform(-3.0, 3.0, spherical_param_count(k, n)), k, n)
            X = rng.uniform(-1.0, 1.0, size=(60, n))
            PI = X @ rng.normal(size=(n, n)).T + 0.3
            U = rng.normal(size=(60, k)) @ A + PI @ (np.eye(n) - A.T @ A)
            basis, spectrum = learning._row_space_start(U - PI, identity_stack(60, n))
            A0 = basis[:, :k].T
            assert np.max(np.abs(A0.T @ A0 - A.T @ A)) < 1e-12, n
            assert np.all(np.diff(spectrum) <= 0.0)
            assert spectrum[k] < 1e-12 * spectrum[k - 1], n

    def test_diagnostics_report_the_start(self):
        ds = arm_dataset(seed=23)
        learned = learn_constraint(ds, k=2, representation="lambda",
                                   feature_fn=lambda q: jacobian(ARM, q))
        diag = learned.diagnostics
        spectrum = diag["spectrum"]
        assert len(spectrum) == 3 and spectrum == sorted(spectrum, reverse=True)
        assert spectrum[2] < 1e-12 * spectrum[1]
        assert learned.objective_value == diag["start_score"] <= 1e-8 * action_norm_sum(ds)

    def test_middle_k_takes_closed_form(self):
        # p = 4 features with k = 2 rows: neither k = 1 nor k = p - 1
        rng = np.random.default_rng(24)
        A = build_constraint_rows(rng.uniform(-3.0, 3.0, 5), 2, 4)
        X = rng.uniform(-1.0, 1.0, size=(80, 4))
        PI = X @ rng.normal(size=(4, 4)).T
        U = rng.normal(size=(80, 2)) @ A + PI @ (np.eye(4) - A.T @ A)
        ds = Dataset(trajectories=[Trajectory(dt=1.0, x=X, u=U, pi=PI)])
        identity = lambda x: np.broadcast_to(np.eye(4), (len(x), 4, 4))
        learned = learn_constraint(ds, k=2, representation="lambda", feature_fn=identity)
        assert learned.diagnostics["learner_path"] == "closed_form"
        assert learned.diagnostics["objective_evals"] == 1
        assert learned.objective_value <= 1e-8 * action_norm_sum(ds)
        lam = learned.model.lam
        assert np.max(np.abs(lam.T @ lam - A.T @ A)) < 1e-12

    def test_singular_feature_sample_is_left_out(self):
        # a straight-arm state zeroes the Jacobian's x row: its Gram matrix is
        # exactly singular, so that sample drops out of the scatter
        ds = arm_dataset(seed=4, lam_pattern=(0, 1, 0), n_traj=1, points=10)
        X = ds.stack("x")
        X[3] = 0.0
        D = ds.stack("u") - ds.stack("pi")
        Phi = jacobian(ARM, X)
        assert np.linalg.det(Phi[3] @ Phi[3].T) == 0.0
        basis, spectrum = learning._row_space_start(D, Phi)
        keep = np.arange(len(X)) != 3
        assert np.array_equal(spectrum, learning._row_space_start(D[keep], Phi[keep])[1])
        assert np.all(np.isfinite(basis))

    def test_feature_without_full_row_rank_is_rejected(self):
        ds = arm_dataset(seed=5, n_traj=1, points=10)
        flat = lambda q: np.broadcast_to(np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]),
                                         (len(q), 2, 3))
        with pytest.raises(ValueError, match="full row rank"):
            learn_constraint(ds, k=1, representation="lambda", feature_fn=flat)


def residual(lam, Phi, D) -> float:
    """sum_n |N(x_n) d_n|^2, the criterion of the least-squares fit."""
    return float(np.sum(learning.null_space_apply(lam @ Phi, D) ** 2))


class TestLeastSquaresFit:
    @pytest.mark.parametrize("case", list(THREE_LINK_CASES))
    def test_no_worse_than_truth(self, case):
        pattern = THREE_LINK_CASES[case]
        ds = add_noise(arm_dataset(seed=45, lam_pattern=pattern, n_traj=4), ACTION_NOISE, 46)
        X, PI = ds.stack("x"), ds.stack("pi")
        D, Phi = ds.stack("u") - PI, jacobian(ARM, X)
        learned = learn_constraint(ds, k=sum(pattern), representation="lambda",
                                   feature_fn=lambda q: jacobian(ARM, q))
        assert learned.diagnostics["learner_path"] == "least_squares"
        truth = residual(diagonal_selection(pattern), Phi, D)
        assert residual(learned.model.lam, Phi, D) <= truth * (1.0 + 1e-9)


def polished_from_start(ds, k, representation, opt):
    """One simplex polish of the L1 score from the closed-form start."""
    X, U, PI = ds.stack("x"), ds.stack("u"), ds.stack("pi")
    D, n = U - PI, X.shape[1]
    Phi = identity_stack(len(X), n) if representation == "spherical" else jacobian(ARM, X)
    p = Phi.shape[1]
    rows = lambda theta: build_constraint_rows(theta, k, p)
    objective = lambda theta: learning._l1_score(PI, D, rows(theta) @ Phi)
    start = constraint_angles(learning._row_space_start(D, Phi)[0][:, :k].T)
    theta = optimize(objective, start, replace(opt, restarts=1)).params
    if representation == "spherical":
        return SphericalConstraint(theta=tuple(np.mod(theta, 2.0 * np.pi)), k=k, n=n)
    return SelectionConstraint(lam=rows(theta), feature=lambda q: jacobian(ARM, q))


class TestExactFitSkip:
    """Clean learns return the closed-form start with no polish, and lose nothing by it."""

    @staticmethod
    def assert_matches_polish(ds, n_train, k, representation, opt):
        train, test = split_dataset(ds, n_train)
        feature = None if representation == "spherical" else lambda q: jacobian(ARM, q)
        learned = learn_constraint(train, k=k, representation=representation, feature_fn=feature)
        assert learned.diagnostics["learner_path"] == "closed_form"
        assert learned.diagnostics["objective_evals"] == 1
        assert learned.objective_value == learned.diagnostics["start_score"]
        polished = polished_from_start(train, k, representation, opt)
        # Rounding level: w to about 1e-12 relative. On these small training
        # sets the xy start reads 2.1e-25 where its polish reads 5.6e-26.
        assert eval_learned_constraint(learned.model, test)["e_w"] <= 1e-24
        assert eval_learned_constraint(polished, test)["e_w"] <= 1e-24
        X, PI = test.stack("x"), test.stack("pi")
        w_skip = learning.null_space_apply(learned.model.A_stack(X), PI)
        w_polish = learning.null_space_apply(polished.A_stack(X), PI)
        assert nmse_w(w_polish, w_skip, np.std(test.stack("u"), axis=0)) <= 1e-24

    @pytest.mark.parametrize("prior", sorted(TOY_PRIORS))
    def test_toy(self, prior):
        for seed in range(3):
            ds = generate_toy_dataset(300, seed=(seed, 41), null_policy=TOY_PRIORS[prior])
            self.assert_matches_polish(ds, 150, 1, "spherical", TOY_OPT)

    @pytest.mark.parametrize("pattern", [(1, 0, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1)])
    def test_arm(self, pattern):
        ds = arm_dataset(seed=42, lam_pattern=pattern, n_traj=6, points=30)
        self.assert_matches_polish(ds, 3, sum(pattern), "lambda", ARM_OPT)

    def test_noisy_data_still_searches(self, monkeypatch):
        # every evaluation is counted: the score's, the start's own included,
        # and the least-squares fit's residual evaluations
        calls = []
        score, fit = learning._l1_score, learning.least_squares

        def counting_fit(*args, **kwargs):
            res = fit(*args, **kwargs)
            calls.extend([1] * res.nfev)
            return res
        monkeypatch.setattr(learning, "_l1_score", lambda *a: calls.append(1) or score(*a))
        monkeypatch.setattr(learning, "least_squares", counting_fit)
        ds = add_noise(arm_dataset(seed=43, lam_pattern=(0, 1, 0)), ACTION_NOISE, 44)
        learned = learn_constraint(ds, k=1, representation="lambda",
                                   feature_fn=lambda q: jacobian(ARM, q))
        assert learned.diagnostics["learner_path"] == "least_squares"
        assert learned.diagnostics["objective_evals"] == len(calls) > 2

    def test_spherical_learn_never_calls_least_squares(self, monkeypatch):
        # noisy constant data too: the closed form is the answer, scored once
        calls = []
        score = learning._l1_score
        monkeypatch.setattr(learning, "_l1_score", lambda *a: calls.append(1) or score(*a))
        monkeypatch.setattr(learning, "least_squares",
                            lambda *a, **kw: pytest.fail("a spherical learn ran least_squares"))
        for ds, k in ((add_noise(toy(seed=43), ACTION_NOISE, 44), 1),
                      (constant_dataset(43, 2, 4, noisy=True), 2)):
            calls.clear()
            learned = learn_constraint(ds, k=k)
            diag = learned.diagnostics
            assert (diag["learner_path"], diag["objective_evals"], len(calls)) == \
                ("closed_form", 1, 1)
            assert learned.objective_value == diag["start_score"]


class TestLearnSelectionMatrix:
    CASES = {"x": (1, 0, 0), "y": (0, 1, 0), "theta": (0, 0, 1),
             "xy": (1, 1, 0), "xtheta": (1, 0, 1), "ytheta": (0, 1, 1)}

    def test_continuous_fit_recovers_every_case(self):
        # with the true w the fit's rows span the true selection's
        for name, pattern in self.CASES.items():
            ds = arm_dataset(seed=13, lam_pattern=pattern, n_traj=1, points=25)
            lam, val = learn_selection_matrix(ds, ds.stack("w"),
                                              lambda q: jacobian(ARM, q), k=sum(pattern))
            lam_true = diagonal_selection(pattern)
            assert np.max(np.abs(lam.T @ lam - lam_true.T @ lam_true)) < 1e-12, name
            assert val < 1e-16 * ds.n_samples, name

    def test_continuous_mode_matches_projector(self):
        ds = arm_dataset(seed=14, lam_pattern=(0, 1, 1))
        lam, val = learn_selection_matrix(ds, ds.stack("w"),
                                          lambda q: jacobian(ARM, q), k=2)
        assert val < 1e-10
        lam_true = diagonal_selection((0, 1, 1))
        for q in ds.stack("x")[::23]:
            N_true = null_projector(lam_true @ jacobian(ARM, q)).N
            N_hat = null_projector(lam @ jacobian(ARM, q)).N
            assert np.max(np.abs(N_hat - N_true)) < 1e-4

    @pytest.mark.parametrize("case", list(THREE_LINK_CASES))
    def test_continuous_matches_restart_search(self, case):
        # the slow reference searches the same objective over spherical angles,
        # fed the true w and the baseline's estimate of it
        pattern = THREE_LINK_CASES[case]
        k = sum(pattern)
        for seed in range(3):
            ds = arm_dataset(seed=(seed, 51), lam_pattern=pattern, n_traj=1, points=40)
            Phi = jacobian(ARM, ds.stack("x"))
            for W in (ds.stack("w"), baseline_separate_nullspace(ds, 0).w_hat):
                lam, val = learn_selection_matrix(ds, W, lambda q: jacobian(ARM, q), k=k)
                assert np.allclose(lam @ lam.T, np.eye(k), atol=1e-12)

                def energy(theta):
                    A = build_constraint_rows(theta, k, 3) @ Phi
                    inside = np.einsum("sjk,sk->sj", pseudo_inverse(A),
                                       np.einsum("skj,sj->sk", A, W))
                    return float(np.sum(inside ** 2))
                searched = restart_search(energy, spherical_param_count(k, 3), ARM_OPT)
                assert val <= searched.value * (1.0 + 1e-6) + 1e-12 * float(np.sum(W * W)), \
                    (case, seed, val, searched.value)

    def test_k_out_of_range_rejected(self):
        ds = arm_dataset(seed=15, n_traj=1, points=10)
        for k in (0, 4):
            with pytest.raises(ValueError, match="1 <= k <= n"):
                learn_selection_matrix(ds, ds.stack("w"), lambda q: jacobian(ARM, q), k=k)

    def test_zero_w_rejected(self):
        ds = arm_dataset(seed=15, n_traj=1, points=10)
        with pytest.raises(ValueError):
            learn_selection_matrix(ds, np.zeros((10, 3)),
                                   lambda q: jacobian(ARM, q), k=2)

    def test_row_count_mismatch(self):
        ds = arm_dataset(seed=16, n_traj=1, points=10)
        with pytest.raises(ValueError):
            learn_selection_matrix(ds, np.ones((4, 3)),
                                   lambda q: jacobian(ARM, q), k=2)


def leading_entries(lam) -> np.ndarray:
    """Each row's largest-magnitude entry, the first one on a tie."""
    lam = np.asarray(lam, dtype=float)
    return lam[np.arange(len(lam)), np.argmax(np.abs(lam), axis=1)]


class TestRowSign:
    """A learned row leaves the learner with its largest-magnitude entry positive,
    so a rounding-level change to the data cannot flip it."""

    def test_ingest_learn_rows(self, monkeypatch):
        # with the sign LAPACK picks, the first row read [-0.980..., 0.197..., -0.0]
        monkeypatch.chdir(REPO)
        lam = run_ingest_learn(json.loads((REPO / "configs" / "ingest_learn.json").read_text()))[
            "report"]["lam"]
        assert np.all(leading_entries(lam) > 0.0), lam

    @pytest.mark.parametrize("case", list(THREE_LINK_CASES))
    def test_learn_selection_matrix_rows(self, case):
        pattern = THREE_LINK_CASES[case]
        for seed in range(3):
            ds = arm_dataset(seed=(seed, 52), lam_pattern=pattern, n_traj=1, points=40)
            for W in (ds.stack("w"), baseline_separate_nullspace(ds, 0).w_hat):
                lam, _ = learn_selection_matrix(ds, W, lambda q: jacobian(ARM, q),
                                                k=sum(pattern))
                assert np.all(leading_entries(lam) > 0.0), (case, seed, lam)

    def test_a_tie_makes_the_first_entry_positive(self):
        rows = np.array([[-0.5, 0.5, 0.0], [0.0, -0.6, 0.6], [0.0, -0.0, -1.0]])
        assert np.array_equal(learning._signed(rows),
                              [[0.5, -0.5, -0.0], [0.0, 0.6, -0.6], [-0.0, 0.0, 1.0]])


def pure_nullspace_dataset(seed, n_points=80):
    """States with u = N pi exactly: no task-space part at all."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(n_points, 2))
    A = build_constraint_rows(np.array([0.6]), 1, 2)
    N = np.eye(2) - A.T @ A
    PI = np.array([LimitCyclePolicy()(x) for x in X])
    W = PI @ N.T
    traj = Trajectory(dt=1.0, x=X, u=W, v=np.zeros_like(W), w=W,
                      b=np.zeros((n_points, 1)), pi=PI)
    return Dataset(trajectories=[traj], meta={"system": "toy"})


class TestBaselineSeparation:
    def test_objective_zero_at_true_w(self):
        ds = arm_dataset(seed=17, n_traj=1, points=40)
        assert baseline_objective(ds.stack("w"), ds.stack("u")) < 1e-12

    def test_pure_nullspace_data_is_reproduced(self):
        # when u = w everywhere the separation can only return the actions
        ds = pure_nullspace_dataset(seed=18)
        res = baseline_separate_nullspace(ds, 0)
        U = ds.stack("u")
        assert float(np.max(np.linalg.norm(res.w_hat - U, axis=1))) < 1e-6

    def test_best_iterate_is_kept(self):
        ds = toy(seed=19, n_points=60)
        res = baseline_separate_nullspace(ds, 1)
        assert baseline_objective(res.w_hat, ds.stack("u")) == pytest.approx(
            min(res.objective_history), rel=1e-12)

    def test_predict_matches_the_fit_at_every_training_state(self):
        # predict is the baseline's prior in the compare-baseline replay; at a
        # training state it is that state's row of w_hat, up to the matmul's
        # rounding (one row against the whole stack)
        ds = arm_dataset(seed=24, lam_pattern=(1, 1, 0), n_traj=1, points=100)
        res = baseline_separate_nullspace(ds, 0)
        tol = 1e-9 * float(np.max(np.abs(res.w_hat)))
        for x, w in zip(ds.stack("x"), res.w_hat):
            assert res.predict(x).shape == w.shape
            assert np.max(np.abs(res.predict(x) - w)) <= tol

    def test_needs_two_samples(self):
        ds = pure_nullspace_dataset(seed=20, n_points=1)
        with pytest.raises(ValueError):
            baseline_separate_nullspace(ds, 0)


class TestMedian:
    """learning._median against np.median, the reference it replaces, bit for bit."""

    @staticmethod
    def bits(x):
        return np.float64(x).tobytes()

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 7, 10, 101, 1000])
    def test_equals_np_median(self, size):
        rng = np.random.default_rng(size)
        for i in range(200):
            v = rng.normal(size=size) * 10.0 ** rng.integers(-300, 300)
            if i % 4 == 1:  # ties: a few distinct values, signed zeros among them
                v = rng.choice([-0.0, 0.0, 1.5, -2.25, 1e-300], size=size)
            elif i % 4 == 2:
                v[rng.integers(size)] = np.nan
            elif i % 4 == 3:
                v = np.abs(v)  # norms and distances, the callers' inputs
            assert self.bits(learning._median(v)) == self.bits(float(np.median(v))), (size, i)


class TestOptimize:
    def test_quadratic_bowl(self):
        target = np.array([1.3, -0.4, 0.8])
        res = optimize(lambda p: float(np.sum((p - target) ** 2)),
                       np.zeros(3), OptimizerConfig(restarts=3, max_iters=2000,
                                                    objective_tol=1e-16,
                                                    param_tol=1e-12, seed=0),
                       sampler=lambda r: r.normal(0.0, 1.0, size=3))
        assert np.max(np.abs(res.params - target)) < 1e-6
        assert res.value < 1e-8

    def test_multimodal_lands_in_global_basin(self):
        # cosine-rippled bowl; local minima near every integer
        def rippled(p):
            x = float(p[0])
            return x * x + 10.0 * (1.0 - np.cos(2.0 * np.pi * x))

        hits = 0
        runs = 20
        for seed in range(runs):
            start = np.random.default_rng(seed).uniform(-4.0, 4.0, size=1)
            res = optimize(rippled, start,
                           OptimizerConfig(restarts=40, max_iters=400, seed=seed),
                           sampler=lambda r: r.uniform(-4.0, 4.0, size=1))
            hits += res.value < 1e-6
        assert hits >= int(0.95 * runs)

    def test_config_validates(self):
        with pytest.raises(ValueError):
            OptimizerConfig(restarts=0)
