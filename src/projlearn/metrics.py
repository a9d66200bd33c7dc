"""The consistency score and the evaluation metrics of learned constraints."""

import numpy as np

from .constraints import null_space_apply
from .policies import policy_values
from .simulator import Dataset, action_std


def nmse_w(true_w, est_w, sigma) -> float:
    """Mean squared error of the null-space component, normalised per dimension.

    Each error coordinate is divided by the standard deviation of the
    matching action coordinate before squaring. Dimensions whose spread is
    zero carry no information about scale and are excluded; if every
    dimension is degenerate there is nothing to normalise by and that is an
    error.
    """
    true_w = np.atleast_2d(np.asarray(true_w, dtype=float))
    est_w = np.atleast_2d(np.asarray(est_w, dtype=float))
    sigma = np.asarray(sigma, dtype=float)
    if true_w.shape != est_w.shape:
        raise ValueError("shape mismatch between true and estimated w")
    keep = sigma > 0.0
    if not np.any(keep):
        raise ValueError("all action dimensions have zero spread")
    diff = (true_w[:, keep] - est_w[:, keep]) / sigma[keep]
    return float(np.mean(np.sum(diff * diff, axis=1)))


def _stacked(dataset: Dataset, prior_pi):
    """States, actions and prior values (X, U, PI) of a dataset.

    prior_pi None reads the recorded pi, an array must match the action
    array's shape, anything else is a policy evaluated at the states.
    """
    X = dataset.stack("x")
    U = dataset.stack("u")
    if prior_pi is None:
        PI = dataset.stack("pi")
    elif isinstance(prior_pi, np.ndarray):
        PI = prior_pi
        if PI.shape != U.shape:
            raise ValueError("prior value array must match the action array shape")
    else:
        PI = policy_values(prior_pi, X)
    return X, U, PI


def _l1_score(PI, D, A_stack) -> float:
    """sum_n |pi_n . N(x_n) d_n| for a stack of constraint matrices A (S, k, n)."""
    return float(np.sum(np.abs(np.einsum("ni,ni->n", PI, null_space_apply(A_stack, D)))))


def consistency_objective(model, dataset: Dataset, prior_pi=None) -> float:
    """Sum over samples of |pi^T N(x) (u - pi)| for a candidate constraint.

    Exactly zero (up to rounding) when N is the projector that produced the
    data, whatever the task policy was. A prior that is identically zero
    zeroes the score for every candidate; learn_constraint reports that
    degeneracy through its diagnostics instead of failing here.
    """
    X, U, PI = _stacked(dataset, prior_pi)
    return _l1_score(PI, U - PI, model.A_stack(X))


def _normalised(score: float, n_samples: int, sigma) -> float:
    denom = float(np.sum(sigma * sigma))
    if denom <= 0.0:
        raise ValueError("action spread is zero, cannot normalise")
    return score / (n_samples * denom)


def consistency_error(model, dataset: Dataset, prior_pi=None) -> float:
    """Normalised consistency score of a candidate projection on a dataset.

    Sum of |pi^T N(x) (u - pi)| over the samples, divided by the sample
    count times the squared norm of the action spread vector. Zero for the
    projector that actually generated the data.
    """
    return _normalised(consistency_objective(model, dataset, prior_pi=prior_pi),
                       dataset.n_samples, action_std(dataset))


def eval_learned_constraint(model, test_set: Dataset) -> dict:
    """E_w and E_N of a learned model on held-out data.

    Both come from one stack of A(x) at the test states: E_w compares
    N(x) pi, with the recorded prior values (test sets are never noised),
    against the stored ground truth w; E_N is the consistency error.
    """
    sigma = action_std(test_set)
    X, U, PI = _stacked(test_set, None)
    A = model.A_stack(X)
    return {
        "e_w": nmse_w(test_set.stack("w"), null_space_apply(A, PI), sigma),
        "e_n": _normalised(_l1_score(PI, U - PI, A), test_set.n_samples, sigma),
    }


def summarize(values) -> dict:
    """Mean and sample standard deviation of a sequence."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("nothing to summarise")
    sd = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
    return {"mean": float(np.mean(arr)), "sd": sd}
