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

from .constraints import (SelectionConstraint, SphericalConstraint, _gram_solve,
                          constraint_angles, feature_stack, null_space_apply, pinv_apply,
                          spherical_param_count)
from .metrics import _l1_score, _stacked
from .simulator import Dataset


# --- scipy, loaded on first use -------------------------------------------------
# Most runs never fit: clean data is learned in closed form. Importing
# scipy.optimize costs more than the rest of the package together, so these
# two import it when first called. Both are module globals, looked up at call
# time: tests patch least_squares here, and the benchmark's tracer patches
# minimize here.

def least_squares(*args, **kwargs):
    """scipy.optimize.least_squares, imported on the first call."""
    from scipy.optimize import least_squares as fit
    return fit(*args, **kwargs)


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on the first call."""
    from scipy.optimize import minimize as search
    return search(*args, **kwargs)


# --- derivative-free optimisation ----------------------------------------------
# No command reaches this section. The tests' slow reference (restart_search,
# polished_from_start) runs it on finite L1 objectives, and the benchmark's
# tracer patches optimize, _screened_sampler and minimize by name.

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


@dataclass
class OptimizeResult:
    params: np.ndarray
    value: float


def optimize(objective_fn, init_params, opt: OptimizerConfig, sampler=None) -> OptimizeResult:
    """Nelder-Mead from several starts, keeping the best end point.

    The first run starts at init_params, the next opt.restarts - 1 at draws
    of ``sampler(rng)``, and one more at the best end point: rebuilding the
    simplex there undoes the collapse the absolute-value kinks tend to
    cause. Ties go to the earlier run, so runs are reproducible.
    """
    rng = np.random.default_rng(opt.seed)
    options = {"maxiter": opt.max_iters, "maxfev": 2 * opt.max_iters,
               "fatol": opt.objective_tol, "xatol": opt.param_tol}
    best = None
    for run in range(opt.restarts + 1):  # the last run is the polish
        x0 = init_params if run == 0 else best.params if run == opt.restarts else sampler(rng)
        res = minimize(objective_fn, np.asarray(x0, dtype=float), method="Nelder-Mead",
                       options=options)
        if best is None or res.fun < best.value:
            best = OptimizeResult(params=res.x, value=float(res.fun))
    return best


SCREEN_DRAWS = 32


def _screened_sampler(objective, dim):
    """Draw SCREEN_DRAWS uniform angle vectors and hand back the best scorer.

    Restarting the simplex from the most promising of a few dozen probes
    costs a handful of objective calls and skips most of the poor basins.
    """
    def sample(rng):
        cand = rng.uniform(-np.pi, np.pi, size=(SCREEN_DRAWS, dim))
        return cand[int(np.argmin([objective(c) for c in cand]))]
    return sample


# --- closed-form start and least-squares fit ---------------------------------------

def _signed(rows):
    """Each row flipped so that its largest-magnitude entry (the first, on a tie) is positive.

    eigh and svd return a vector with whichever sign LAPACK reaches, so without
    this a rounding-level change to their input could flip a learned row.
    """
    lead = rows[np.arange(len(rows)), np.abs(rows).argmax(axis=1)]
    return rows * np.copysign(1.0, lead)[:, None]  # a product with -1.0 or 1.0 is exact


def _row_space_start(D, Phi):
    """Eigenvectors (_signed columns) and eigenvalues, largest first, of the row-space scatter.

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
    return _signed(vecs[:, ::-1].T).T, vals[::-1]


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
    orthonormalised once, at the end, and _signed.
    """
    L0, Q = basis[:, :k].T, basis[:, k:].T

    def residual(b):
        return residual_of((L0 + b.reshape(k, -1) @ Q) @ Phi).ravel()

    res = least_squares(residual, np.zeros(k * len(Q)), method="lm")
    rows = np.linalg.svd(L0 + res.x.reshape(k, -1) @ Q, full_matrices=False)[2]
    return _signed(rows), res.nfev


# --- learning the constraint when the prior is known ------------------------------

@dataclass
class LearnedConstraint:
    model: object
    objective_value: float
    diagnostics: dict = field(default_factory=dict)


def _median(values) -> float:
    """np.median of a 1-d array, bit for bit and NaN included, without loading numpy.ma.

    np.median imports numpy.ma on its first call, which adds about 2 MiB to
    the process. This makes np.median's own partition, so ties and signed
    zeros land where they land there, and takes the same middle.
    """
    m, odd = divmod(len(values), 2)
    part = np.partition(values, [m, -1] if odd else [m - 1, m, -1])
    if np.isnan(part[-1]):  # NaN partitions last, and np.median returns it
        return float(part[-1])
    # np.median takes np.mean of the middle, which sums onto +0.0, then divides.
    return float(0.0 + part[m] if odd else (0.0 + part[m - 1] + part[m]) / 2.0)


def _exact_fit_floor(U) -> float:
    """Scores below 1e-8 times the summed action norm count as an exact fit."""
    return 1e-8 * float(np.sum(np.linalg.norm(U, axis=1)))


def _degenerate_prior_fraction(A_stack, PI, scale: float) -> float:
    """Share of samples whose N(x) pi is below 1e-9 times max(scale, 1), scale the median |pi|."""
    norms = np.linalg.norm(null_space_apply(A_stack, PI), axis=1)
    return float(np.mean(norms < 1e-9 * max(scale, 1.0)))


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
    lam = basis[:, :k].T
    A = lam @ Phi
    start_score = value = _l1_score(PI, D, A)
    path, evals = "closed_form", 1
    if representation == "lambda" and start_score > _exact_fit_floor(U):
        lam, nfev = _fit_row_span(Phi, lambda A: null_space_apply(A, D), basis, k)
        A = lam @ Phi
        path, value, evals = "least_squares", _l1_score(PI, D, A), nfev + 2
    if representation == "spherical":
        model = SphericalConstraint(theta=tuple(np.mod(constraint_angles(lam), 2.0 * np.pi)),
                                    k=k, n=n)
    else:
        model = SelectionConstraint(lam=lam, feature=feature_fn)

    prior_median = _median(np.linalg.norm(PI, axis=1))
    diag = {
        "degenerate_prior_fraction": _degenerate_prior_fraction(A, PI, prior_median),
        "prior_norm_median": prior_median,
        "spectrum": [float(v) for v in spectrum],
        "start_score": start_score,
        "learner_path": path,
        "objective_evals": evals,
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
    weights: np.ndarray
    centers: np.ndarray
    width: float
    objective_history: list

    def predict(self, x) -> np.ndarray:
        """The fitted w at one state (n,)."""
        return (_rbf_features(np.asarray(x, dtype=float)[None], self.centers, self.width)
                @ self.weights)[0]


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
    med = _median(dists[np.triu_indices(len(centers), k=1)])
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
    return BaselineResult(w_hat=w_hat, weights=weights, centers=centers, width=width,
                          objective_history=history)
