"""Evaluation metrics for learned constraints."""

import numpy as np

from .constraints import null_space_apply
from .policies import policy_values
from .simulator import Dataset, action_std


def nmse_w(true_w, est_w, sigma_u) -> float:
    """Mean squared error of the null-space component, normalised per dimension.

    Each error coordinate is divided by the standard deviation of the
    matching action coordinate before squaring. Dimensions whose spread is
    zero carry no information about scale and are excluded; if every
    dimension is degenerate there is nothing to normalise by and that is an
    error.
    """
    true_w = np.atleast_2d(np.asarray(true_w, dtype=float))
    est_w = np.atleast_2d(np.asarray(est_w, dtype=float))
    sigma = np.asarray(sigma_u, dtype=float)
    if true_w.shape != est_w.shape:
        raise ValueError("shape mismatch between true and estimated w")
    keep = sigma > 0.0
    if not np.any(keep):
        raise ValueError("all action dimensions have zero spread")
    diff = (true_w[:, keep] - est_w[:, keep]) / sigma[keep]
    return float(np.mean(np.sum(diff * diff, axis=1)))


def consistency_error(model, dataset: Dataset, prior_pi=None, sigma_u=None) -> float:
    """Normalised consistency score of a candidate projection on a dataset.

    Sum of |pi^T N(x) (u - pi)| over the samples, divided by the sample
    count times the squared norm of the action spread vector. Zero for the
    projector that actually generated the data.
    """
    from .learning import consistency_objective  # heavier module, import on use

    raw = consistency_objective(model, dataset, prior_pi=prior_pi)
    sigma = action_std(dataset) if sigma_u is None else np.asarray(sigma_u, dtype=float)
    denom = float(np.sum(sigma * sigma))
    if denom <= 0.0:
        raise ValueError("action spread is zero, cannot normalise")
    return raw / (dataset.n_samples * denom)


def projector_distance(N_a, N_b) -> float:
    """Frobenius distance between two projectors.

    The constraint matrix itself is only identifiable up to an orthonormal
    re-mixing of its rows, so closeness claims are made on N, never on A.
    """
    N_a = np.asarray(N_a, dtype=float)
    N_b = np.asarray(N_b, dtype=float)
    if N_a.shape != N_b.shape:
        raise ValueError("projector shapes differ")
    return float(np.linalg.norm(N_a - N_b, ord="fro"))


def eval_learned_constraint(model, test_set: Dataset, prior=None) -> dict:
    """E_w and E_N of a learned model on held-out data.

    The estimated null-space component uses the prior evaluated at the test
    states (test sets are never noised), the reference w is the stored
    ground truth.
    """
    sigma = action_std(test_set)
    X = test_set.stack("x")
    PI = test_set.stack("pi") if prior is None else policy_values(prior, X)
    W = test_set.stack("w")
    est = null_space_apply(model.A_stack(X), PI)
    return {
        "e_w": nmse_w(W, est, sigma),
        "e_n": consistency_error(model, test_set, prior_pi=PI, sigma_u=sigma),
    }


def summarize(values) -> dict:
    """Mean and sample standard deviation of a sequence."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("nothing to summarise")
    sd = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
    return {"mean": float(np.mean(arr)), "sd": sd}
