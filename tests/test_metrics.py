import numpy as np
import pytest

from projlearn.constraints import SphericalConstraint, build_constraint_rows, null_projector
from projlearn.metrics import (consistency_error, eval_learned_constraint, nmse_w,
                               projector_distance, summarize)
from projlearn.policies import LimitCyclePolicy
from projlearn.simulator import Dataset, Trajectory, action_std, generate_toy_dataset


def loop_nmse(true_w, est_w, sigma):
    total = 0.0
    for wt, we in zip(true_w, est_w):
        for j, s in enumerate(sigma):
            if s > 0.0:
                total += ((wt[j] - we[j]) / s) ** 2
    return total / len(true_w)


class TestNmseW:
    def test_zero_for_exact_estimate(self):
        w = np.random.default_rng(0).normal(size=(30, 3))
        assert nmse_w(w, w, np.ones(3)) == 0.0

    def test_unit_error_per_dimension(self):
        w = np.zeros((10, 2))
        est = np.ones((10, 2))
        # each dimension contributes 1 after normalising by sigma = 1
        assert nmse_w(w, est, np.ones(2)) == pytest.approx(2.0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(40, 3))
        est = rng.normal(size=(40, 3))
        sigma = np.array([0.5, 2.0, 0.1])
        assert nmse_w(w, est, sigma) == pytest.approx(loop_nmse(w, est, sigma), rel=1e-12)

    def test_zero_spread_dimension_excluded(self):
        w = np.zeros((5, 2))
        est = np.column_stack([np.ones(5), np.ones(5)])
        # second dimension has no spread: only the first counts
        assert nmse_w(w, est, np.array([1.0, 0.0])) == pytest.approx(1.0)

    def test_all_degenerate_rejected(self):
        with pytest.raises(ValueError):
            nmse_w(np.zeros((5, 2)), np.zeros((5, 2)), np.zeros(2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            nmse_w(np.zeros((5, 2)), np.zeros((4, 2)), np.ones(2))

    def test_scale_invariance_of_normalisation(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(25, 2))
        est = rng.normal(size=(25, 2))
        sigma = np.array([0.7, 1.3])
        scaled = nmse_w(3.0 * w, 3.0 * est, 3.0 * sigma)
        assert scaled == pytest.approx(nmse_w(w, est, sigma), rel=1e-12)


class TestConsistencyError:
    def test_zero_at_truth(self):
        ds = generate_toy_dataset(100, seed=3, null_policy=LimitCyclePolicy())
        true = SphericalConstraint(theta=tuple(ds.meta["constraint"]["theta_rad"]),
                                   k=1, n=2)
        assert consistency_error(true, ds) < 1e-12

    def test_normalisation_oracle(self):
        from projlearn.metrics import consistency_objective

        ds = generate_toy_dataset(80, seed=4, null_policy=LimitCyclePolicy())
        cand = SphericalConstraint(theta=(0.2,), k=1, n=2)
        sigma = action_std(ds)
        expected = consistency_objective(cand, ds) / (80 * float(np.sum(sigma * sigma)))
        assert consistency_error(cand, ds) == pytest.approx(expected, rel=1e-12)

    def test_zero_spread_rejected(self):
        # every sample takes the same action: there is no spread to normalise by
        X = np.random.default_rng(5).uniform(-1.0, 1.0, size=(50, 2))
        ds = Dataset(trajectories=[Trajectory(dt=1.0, x=X, u=np.tile([0.5, -0.25], (50, 1)))])
        cand = SphericalConstraint(theta=(0.2,), k=1, n=2)
        with pytest.raises(ValueError, match="action spread is zero"):
            consistency_error(cand, ds, prior_pi=LimitCyclePolicy())


class TestProjectorDistance:
    def test_identical(self):
        N = null_projector(build_constraint_rows(np.array([0.4]), 1, 2)).N
        assert projector_distance(N, N) == 0.0

    def test_hand_computed(self):
        N_a = np.diag([1.0, 0.0])
        N_b = np.diag([0.0, 1.0])
        assert projector_distance(N_a, N_b) == pytest.approx(np.sqrt(2.0))

    def test_row_mixing_invariance(self):
        # remixing the rows of A changes A but not the projector
        A = build_constraint_rows(np.array([0.3, 1.2, -0.4]), 2, 3)
        R = np.array([[np.cos(0.9), -np.sin(0.9)], [np.sin(0.9), np.cos(0.9)]])
        assert projector_distance(null_projector(A).N, null_projector(R @ A).N) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            projector_distance(np.eye(2), np.eye(3))


class TestEvalLearnedConstraint:
    def test_true_model_scores_zero(self):
        ds = generate_toy_dataset(120, seed=6, null_policy=LimitCyclePolicy())
        true = SphericalConstraint(theta=tuple(ds.meta["constraint"]["theta_rad"]),
                                   k=1, n=2)
        scores = eval_learned_constraint(true, ds)
        assert scores["e_w"] < 1e-20
        assert scores["e_n"] < 1e-12

    def test_wrong_model_scores_positive(self):
        ds = generate_toy_dataset(120, seed=7, null_policy=LimitCyclePolicy())
        theta = ds.meta["constraint"]["theta_rad"][0]
        off = SphericalConstraint(theta=(theta + np.pi / 4,), k=1, n=2)
        scores = eval_learned_constraint(off, ds)
        assert scores["e_w"] > 1e-3
        assert scores["e_n"] > 1e-6


class TestRecordsAndSummaries:
    def test_summarize_oracle(self):
        out = summarize([1.0, 2.0, 3.0, 4.0])
        assert out["mean"] == pytest.approx(2.5)
        # sample standard deviation with ddof = 1
        assert out["sd"] == pytest.approx(np.sqrt(5.0 / 3.0))

    def test_summarize_single_value(self):
        assert summarize([2.0]) == {"mean": 2.0, "sd": 0.0}

    def test_summarize_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])
