"""Constraint learning from demonstrations with a known secondary policy.

The central idea: when actions are generated as u = A^+ b + N pi, the
null-space part w = N pi satisfies w^T (u - w) = 0 exactly. Replacing w by
N-hat pi gives a score

    sum_n | pi_n^T N-hat(x_n) (u_n - pi_n) |

that vanishes for the true projection and needs no access to b or w. It is
the score every learned model reports. The learner itself uses the stronger
identity behind it: d = u - pi = A^+ (b - A pi) lies in the row space of
A(x), so N(x) d = 0. For A = Lambda Phi the rows of Lambda therefore span
the top k eigenvectors of sum z z^T with z = (Phi Phi^T)^-1 Phi d; a
constant constraint is the case Phi = I, with z = d. That start is exact on
clean data for every k. For a constant constraint it is always the answer:
the top k eigenvectors of D^T D minimise sum |N d|^2 (Ky Fan's maximum
principle). For A = Lambda Phi on data with no exact fit one
Levenberg-Marquardt fit of the residuals N(x_n) d_n follows it.

The module also carries the two-stage approach from earlier work, used here
as a comparison baseline: first separate a null-space component out of raw
actions without a prior, then fit a selection matrix to it. That fit has the
same shape: its objective vanishes when the rows of Lambda are orthogonal to
every Phi_n w_n, so it starts from the bottom k eigenvectors of their
scatter and runs the same Levenberg-Marquardt fit.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
# minimize is looked up here by optimize and patched here by the benchmark's tracer.
from scipy.optimize import least_squares, minimize

from .constraints import (SelectionConstraint, SphericalConstraint, _gram_solve,
                          constraint_angles, feature_stack, null_space_apply, pinv_apply,
                          spherical_param_count)
from .metrics import _l1_score, _stacked
from .simulator import Dataset


# --- derivative-free optimisation ----------------------------------------------
# No command reaches this section; the benchmark and the tests' slow reference use it.

# Built by the benchmark from its configs' optimizer blocks; read by no learner.
@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 20
    max_iters: int = 5000
    objective_tol: float = 1e-14
    param_tol: float = 1e-12
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("need at least one restart")


# What optimize returns; kept with it.
@dataclass
class OptimizeResult:
    params: np.ndarray
    value: float
    restarts_used: int
    failures: int
    incumbents: list  # best value after each restart, non-increasing


# Raised by optimize when every restart fails; kept with it.
class OptimizationError(RuntimeError):
    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


# Abandons one restart of optimize; kept with it.
class _NonFinite(Exception):
    pass


# Patched by name by the benchmark's tracer.
def optimize(objective_fn, init_params, opt: OptimizerConfig, sampler=None) -> OptimizeResult:
    """Simplex-type local search from several starts, keeping the best end point.

    The first restart begins at init_params, the rest at points drawn by
    ``sampler(rng)`` (standard normal jitter around the init by default). A
    restart whose objective turns non-finite is abandoned; if every restart
    is abandoned the search fails with the best incumbent attached.
    """
    init_params = np.atleast_1d(np.asarray(init_params, dtype=float))
    rng = np.random.default_rng(opt.seed)
    if sampler is None:
        sampler = lambda r: init_params + r.normal(0.0, 1.0, size=init_params.shape)

    def guarded(p):
        val = objective_fn(p)
        if not np.isfinite(val):
            raise _NonFinite
        return val

    def run(x0):
        return minimize(guarded, x0, method="Nelder-Mead",
                        options={"maxiter": opt.max_iters, "maxfev": 2 * opt.max_iters,
                                 "fatol": opt.objective_tol, "xatol": opt.param_tol})

    first = objective_fn(init_params)
    if not np.isfinite(first):
        raise ValueError("objective is not finite at the initial parameters")

    best_params, best_val = init_params.copy(), float(first)
    incumbents = []
    failures = 0
    for restart in range(opt.restarts):
        x0 = init_params if restart == 0 else np.atleast_1d(np.asarray(sampler(rng), dtype=float))
        try:
            res = run(x0)
        except _NonFinite:
            failures += 1
            incumbents.append(best_val)
            continue
        # Ties go to the earlier restart, so runs are reproducible.
        if np.isfinite(res.fun) and res.fun < best_val:
            best_val = float(res.fun)
            best_params = np.atleast_1d(res.x).copy()
        incumbents.append(best_val)
    if failures == opt.restarts:
        raise OptimizationError("every restart hit a non-finite objective",
                                best=OptimizeResult(best_params, best_val, 0, failures, incumbents))
    # One polish pass from the incumbent. Rebuilding the simplex there undoes
    # the collapse the absolute-value kinks tend to cause.
    try:
        res = run(best_params)
        if np.isfinite(res.fun) and res.fun < best_val:
            best_val = float(res.fun)
            best_params = np.atleast_1d(res.x).copy()
    except _NonFinite:
        pass
    return OptimizeResult(params=best_params, value=best_val,
                          restarts_used=opt.restarts - failures, failures=failures,
                          incumbents=incumbents)


# Patched by name by the benchmark's tracer.
def _screened_sampler(objective, dim, draws: int = 32):
    """Draw a batch of uniform angle vectors and hand back the best scorer.

    Restarting the simplex from the most promising of a few dozen probes
    costs a handful of objective calls and skips most of the poor basins.
    """
    def sample(rng):
        cand = rng.uniform(-np.pi, np.pi, size=(draws, dim))
        vals = np.array([objective(c) for c in cand])
        vals[~np.isfinite(vals)] = np.inf
        return cand[int(np.argmin(vals))]
    return sample


# --- closed-form start and least-squares fit ---------------------------------------

def _row_space_start(D, Phi):
    """Eigenvectors (columns) and eigenvalues, largest first, of the row-space scatter.

    Every d_n = u_n - pi_n lies in the row space of A(x_n) = Lambda Phi_n,
    so z_n = G_n^-1 Phi_n d_n with G_n = Phi_n Phi_n^T lies in the row
    space of Lambda, and the top k eigenvectors of Z^T Z span its rows. For
    a constant A (Phi = I) the scatter is D^T D. Samples whose G_n fails
    the Gram trust test of _gram_solve are left out. On clean data the
    eigenvalues past the k-th vanish to rounding, for every k.
    """
    Z, ok = _gram_solve(np.einsum("spj,sqj->spq", Phi, Phi), np.einsum("spj,sj->sp", Phi, D))
    if not ok.any():
        raise ValueError("no sample has a well-conditioned Phi(x) Phi(x)^T; the lambda "
                         "representation needs Phi(x) of full row rank")
    Z = Z[ok]
    vals, vecs = np.linalg.eigh(Z.T @ Z)
    return vecs[:, ::-1], vals[::-1]


def _fit_row_span(Phi, residual_of, basis, k: int):
    """Orthonormal rows of Lambda minimising |residual_of(Lambda Phi)|^2, and LM's nfev.

    residual_of maps a stack of constraint matrices A_n = Lambda Phi_n to
    per-sample residuals. The learner's are N(x_n) d_n: with isotropic action
    noise that is the maximum-likelihood fit, since the task part of each
    action is free inside the row space. The baseline's are A_n^+ A_n w_n.
    Levenberg-Marquardt works in the k(p-k) Grassmann chart
    Lambda = L0 + B Q around the start, L0 the first k columns of basis and
    Q the rest (Absil, Mahony & Sepulchre 2008). The spherical angles would
    not do: at k = 2 their Jacobian is singular at the optimum. The rows are
    orthonormalised once, at the end.
    """
    L0, Q = basis[:, :k].T, basis[:, k:].T

    def residual(b):
        return residual_of((L0 + b.reshape(k, -1) @ Q) @ Phi).ravel()

    res = least_squares(residual, np.zeros(k * len(Q)), method="lm")
    return np.linalg.svd(L0 + res.x.reshape(k, -1) @ Q, full_matrices=False)[2], res.nfev


# --- learning the constraint when the prior is known ------------------------------

@dataclass
class LearnedConstraint:
    model: object
    objective_value: float
    diagnostics: dict = field(default_factory=dict)


def _exact_fit_floor(U) -> float:
    """Scores below 1e-8 times the summed action norm count as an exact fit."""
    return 1e-8 * float(np.sum(np.linalg.norm(U, axis=1)))


def _degenerate_prior_fraction(A_stack, PI, scale: float, rel: float = 1e-9) -> float:
    """Share of samples whose N(x) pi is below rel times max(scale, 1), scale the median |pi|."""
    norms = np.linalg.norm(null_space_apply(A_stack, PI), axis=1)
    return float(np.mean(norms < rel * max(scale, 1.0)))


def learn_constraint(dataset: Dataset, prior_pi=None, k: int = 1,
                     representation: str = "spherical", opt: OptimizerConfig | None = None,
                     feature_fn=None) -> LearnedConstraint:
    """Recover the constraint from (x, u) data given the secondary policy.

    representation "lambda" learns a coefficient matrix Lambda applied to
    ``feature_fn(x)``, with orthonormal rows since only their span matters
    for the projection. representation "spherical" learns a constant matrix
    with k orthonormal rows: the same fit with the identity as the feature,
    returned as angles; it rejects a ``feature_fn``.

    Every learn starts from the top k eigenvectors of the row-space scatter
    (``_row_space_start``). A constant constraint takes them as they are:
    they minimise the residuals N d_n in closed form. A "lambda" learn takes
    them when they are an exact fit (score at most 1e-8 times the summed
    action norm, as on clean data), and otherwise runs one
    Levenberg-Marquardt fit of the residuals N(x_n) d_n from them
    (``_fit_row_span``). No learn reads ``opt``; it stays in the signature
    because the benchmark passes it. ``objective_value`` is the score of the
    fitted rows. The diagnostics carry the scatter eigenvalues ``spectrum``
    (descending), the start's score ``start_score``, the ``learner_path``
    ("closed_form" or "least_squares") and the ``objective_evals`` spent,
    score and residual evaluations together.
    """
    X, U, PI = _stacked(dataset, prior_pi)
    D = U - PI
    n = X.shape[1]
    if representation == "spherical":
        if feature_fn is not None:
            raise ValueError("representation 'spherical' learns a constant matrix and takes "
                             "no feature_fn; use representation 'lambda'")
        Phi = np.broadcast_to(np.eye(n), (len(X), n, n))
    elif representation == "lambda":
        if feature_fn is None:
            raise ValueError("representation 'lambda' needs a feature_fn")
        Phi = feature_stack(feature_fn, X)
    else:
        raise ValueError(f"unknown representation {representation!r}")
    spherical_param_count(k, Phi.shape[1])  # validates k
    basis, spectrum = _row_space_start(D, Phi)
    calls = []  # one entry per score evaluation, for the diagnostics
    score = lambda lam: calls.append(None) or _l1_score(PI, D, lam @ Phi)
    lam = basis[:, :k].T
    start_score = value = score(lam)
    path, nfev = "closed_form", 0
    if representation == "lambda" and start_score > _exact_fit_floor(U):
        lam, nfev = _fit_row_span(Phi, lambda A: null_space_apply(A, D), basis, k)
        path, value = "least_squares", score(lam)
    if representation == "spherical":
        model = SphericalConstraint(theta=tuple(np.mod(constraint_angles(lam), 2.0 * np.pi)),
                                    k=k, n=n)
    else:
        model = SelectionConstraint(lam=lam, feature=feature_fn)

    prior_median = float(np.median(np.linalg.norm(PI, axis=1)))
    diag = {
        "degenerate_prior_fraction": _degenerate_prior_fraction(lam @ Phi, PI, prior_median),
        "prior_norm_median": prior_median,
        "spectrum": [float(v) for v in spectrum],
        "start_score": start_score,
        "learner_path": path,
        "objective_evals": len(calls) + nfev,
    }
    if diag["degenerate_prior_fraction"] > 0.5:
        warnings.warn("secondary policy is (near) zero inside the learned null space "
                      "for most samples; the objective cannot identify the constraint there",
                      stacklevel=2)
    return LearnedConstraint(model=model, objective_value=value, diagnostics=diag)


# --- baseline: learn the selection matrix from an estimated w ---------------------

def learn_selection_matrix(dataset: Dataset, w_hat, feature_fn, k: int):
    """Fit Lambda so the estimated null-space motion is annihilated by Lambda Phi.

    Minimises sum_n w_n^T (Lambda Phi_n)^+ (Lambda Phi_n) w_n. The sum is
    zero exactly when the rows of Lambda are orthogonal to every
    v_n = Phi_n w_n, so the fit starts from the bottom k eigenvectors of
    sum v v^T and runs the learner's Levenberg-Marquardt fit
    (``_fit_row_span``) of the residuals (Lambda Phi_n)^+ (Lambda Phi_n) w_n,
    returning orthonormal rows.

    Returns (lam, objective_value).
    """
    X = dataset.stack("x")
    W_hat = np.atleast_2d(np.asarray(w_hat, dtype=float))
    if W_hat.shape[0] != X.shape[0]:
        raise ValueError("w_hat must have one row per sample")
    if float(np.max(np.linalg.norm(W_hat, axis=1))) == 0.0:
        raise ValueError("w_hat is identically zero; nothing constrains the fit")
    Phi = feature_stack(feature_fn, X)
    spherical_param_count(k, Phi.shape[1])  # validates k
    inside = lambda A: pinv_apply(A, np.einsum("skj,sj->sk", A, W_hat))  # A_n^+ A_n w_n
    V = np.einsum("spj,sj->sp", Phi, W_hat)
    basis = np.linalg.eigh(V.T @ V)[1]  # ascending: the first k columns span the start
    lam, _ = _fit_row_span(Phi, inside, basis, k)
    return lam, float(np.sum(inside(lam @ Phi) ** 2))


# --- baseline: separate w out of raw actions without a prior ----------------------

# At most this many RBF centres, drawn from the samples, with a width of this
# fraction of their median spacing; this many refits; a floor on |w| in the
# direction projector; the refit's relative singular-value cutoff.
BASELINE_MAX_CENTERS = 200
BASELINE_WIDTH_SCALE = 0.5
BASELINE_ITERATIONS = 50
BASELINE_W_FLOOR = 1e-8
BASELINE_REL_TOL = 1e-12


@dataclass
class BaselineResult:
    w_hat: np.ndarray
    v_hat: np.ndarray
    weights: np.ndarray
    centers: np.ndarray
    width: float
    objective_history: list

    def predict(self, x) -> np.ndarray:
        feats = _rbf_features(np.atleast_2d(np.asarray(x, dtype=float)),
                              self.centers, self.width)
        out = feats @ self.weights
        return out[0] if np.ndim(x) == 1 else out


def _rbf_features(X, centers, width) -> np.ndarray:
    d2 = np.sum((X[:, None, :] - centers[None, :, :]) ** 2, axis=2)
    return np.exp(-d2 / (2.0 * width * width))


def baseline_objective(w_model, U) -> float:
    """sum_n || P_n u_n - w_n ||^2 with P_n the outer-product direction of w_n."""
    norms2 = np.maximum(np.sum(w_model * w_model, axis=1), BASELINE_W_FLOOR ** 2)
    proj = w_model * (np.sum(w_model * U, axis=1) / norms2)[:, None]
    resid = proj - w_model
    return float(np.sum(resid * resid))


def baseline_separate_nullspace(dataset: Dataset, seed) -> BaselineResult:
    """Estimate the null-space component without knowing the secondary policy.

    Fits a radial-basis model w(x) by alternating between the direction
    projector P = w w^T / ||w||^2 evaluated at the current model and a
    least-squares refit of the model toward P u. Initialised from the raw
    actions themselves. Keeps the iterate with the lowest objective. `seed`
    draws the centres when there are more samples than BASELINE_MAX_CENTERS.
    """
    X = dataset.stack("x")
    U = dataset.stack("u")
    n_samples = X.shape[0]
    if n_samples < 2:
        raise ValueError("need at least two samples")
    rng = np.random.default_rng(seed)
    if n_samples > BASELINE_MAX_CENTERS:
        idx = np.sort(rng.choice(n_samples, size=BASELINE_MAX_CENTERS, replace=False))
        centers = X[idx]
    else:
        centers = X.copy()
    diffs = centers[:, None, :] - centers[None, :, :]
    dists = np.sqrt(np.sum(diffs * diffs, axis=2))
    med = float(np.median(dists[np.triu_indices(len(centers), k=1)]))
    width = BASELINE_WIDTH_SCALE * med if med > 0.0 else 1.0
    feats = _rbf_features(X, centers, width)

    def refit(target):
        weights, *_ = np.linalg.lstsq(feats, target, rcond=BASELINE_REL_TOL)
        return weights

    weights = refit(U)
    w_hat = feats @ weights
    best = (baseline_objective(w_hat, U), weights.copy(), w_hat.copy())
    history = [best[0]]
    for _ in range(BASELINE_ITERATIONS):
        norms2 = np.maximum(np.sum(w_hat * w_hat, axis=1), BASELINE_W_FLOOR ** 2)
        target = w_hat * (np.sum(w_hat * U, axis=1) / norms2)[:, None]
        weights = refit(target)
        w_hat = feats @ weights
        obj = baseline_objective(w_hat, U)
        history.append(obj)
        if obj < best[0]:
            best = (obj, weights.copy(), w_hat.copy())
        if len(history) > 2 and abs(history[-2] - obj) < 1e-15 * max(1.0, obj):
            break
    _, weights, w_hat = best
    return BaselineResult(w_hat=w_hat, v_hat=U - w_hat, weights=weights,
                          centers=centers, width=width, objective_history=history)
