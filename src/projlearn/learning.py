"""Constraint learning from demonstrations with a known secondary policy.

The central idea: when actions are generated as u = A^+ b + N pi, the
null-space part w = N pi satisfies w^T (u - w) = 0 exactly. Replacing w by
N-hat pi gives a score

    sum_n | pi_n^T N-hat(x_n) (u_n - pi_n) |

that vanishes for the true projection and needs no access to b or w. The
learner minimises it over a parameterised constraint family in two steps.
Each sample's condition pi_n^T N(x_n) d_n = 0 (d = u - pi) is linear in a
lifted symmetric matrix: N itself for a constant constraint, lam lam^T
for A = Lambda Phi with k = 1, and c c^T for k = p - 1, where c spans the
complement of the rows of Lambda. The last right singular vector of the
stacked conditions, rounded to the nearest constraint with an
eigendecomposition, is exact on clean data and a least-squares fit on
noisy data. An exact fit is the answer as it stands; otherwise one
derivative-free simplex polish of the L1 score from there gives it.
Lambda with 1 < k < p - 1 has no such lift and keeps a simplex search from
screened random restarts. So do lambda learns on noisy data: the lambda
lifts weight samples unevenly enough to start the polish in a wrong basin.

The module also carries the two-stage approach from earlier work, used here
as a comparison baseline: first separate a null-space component out of raw
actions without a prior, then fit a selection matrix to it.
"""

import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import minimize

from .constraints import (GRAM_DET_TOL, SelectionConstraint, SphericalConstraint,
                          _rows_unchecked, build_constraint_rows, constraint_angles,
                          diagonal_selection, feature_stack, gram_solve, null_space_apply,
                          pinv_apply, spherical_param_count)
from .policies import policy_values
from .simulator import Dataset


# --- derivative-free optimisation ----------------------------------------------

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
    restarts_used: int
    failures: int
    incumbents: list  # best value after each restart, non-increasing


class OptimizationError(RuntimeError):
    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class _NonFinite(Exception):
    pass


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


# --- the consistency objective ---------------------------------------------------

def _stacked(dataset: Dataset, prior_pi):
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


def consistency_objective(model, dataset: Dataset, prior_pi=None) -> float:
    """Sum over samples of |pi^T N(x) (u - pi)| for a candidate constraint.

    Exactly zero (up to rounding) when N is the projector that produced the
    data, whatever the task policy was. A prior that is identically zero
    zeroes the score for every candidate; learn_constraint reports that
    degeneracy through its diagnostics instead of failing here.
    """
    X, U, PI = _stacked(dataset, prior_pi)
    D = U - PI
    if isinstance(model, SphericalConstraint):
        terms = np.einsum("ni,ij,nj->n", PI, model.projector_at(None).N, D)
    else:
        terms = np.einsum("ni,ni->n", PI, null_space_apply(model.A_stack(X), D))
    return float(np.sum(np.abs(terms)))


def _spherical_objective(PI, D, k: int, n: int):
    """The consistency score as a function of the angles of a constant constraint.

    pi^T (I - A^T A) d = pi . d - <A^T A, pi d^T>, so with the outer
    products computed once an evaluation costs one (S x n^2)(n^2) product.
    """
    direct = np.einsum("sj,sj->s", PI, D)
    outer = (PI[:, :, None] * D[:, None, :]).reshape(len(PI), n * n)

    def objective(theta):
        A = _rows_unchecked(theta, k, n)
        return float(np.abs(direct - outer @ (A.T @ A).ravel()).sum())

    return objective


def _lambda_objective(Phi, PI, D, k: int):
    """The consistency score as a function of the angles of Lambda, for fixed data.

    The feature moments Phi pi, Phi d, Phi Phi^T and pi . d are computed
    once, so an evaluation costs two (S x p)(p x k) products and one
    (S x p^2)(p^2 x k^2) product instead of rebuilding Lambda Phi per sample.
    """
    S, p = Phi.shape[:2]
    Fp = np.einsum("spj,sj->sp", Phi, PI)
    Fd = np.einsum("spj,sj->sp", Phi, D)
    M = np.einsum("spj,sqj->spq", Phi, Phi).reshape(S, p * p)
    direct = np.einsum("sj,sj->s", PI, D)

    def objective(theta):
        lam = _rows_unchecked(theta, k, p)
        # (lam kron lam)[(a, b), (p, q)] = lam[a, p] lam[b, q], built by broadcasting.
        kron = (lam[:, None, :, None] * lam[None, :, None, :]).reshape(k * k, p * p)
        G = (M @ kron.T).reshape(S, k, k)
        corr = np.einsum("sk,sk->s", Fp @ lam.T, gram_solve(G, Fd @ lam.T))
        return float(np.sum(np.abs(direct - corr)))

    return objective


# --- closed-form start ------------------------------------------------------------

def _sym_vec(M) -> np.ndarray:
    """Upper triangles of symmetric matrices (..., m, m), off-diagonals times sqrt 2.

    The scaling makes vec(X) . vec(M) = <X, M> and |vec(X)| = |X|_F.
    """
    i, j = np.triu_indices(M.shape[-1])
    return M[..., i, j] * np.where(i == j, 1.0, np.sqrt(2.0))


def _sym_unvec(x, m: int) -> np.ndarray:
    i, j = np.triu_indices(m)
    X = np.zeros((m, m))
    X[i, j] = x / np.where(i == j, 1.0, np.sqrt(2.0))
    return X + np.triu(X, 1).T


def _sym_outer(a, b) -> np.ndarray:
    """sym(a_n b_n^T) for stacks of vectors (S, m)."""
    ab = a[:, :, None] * b[:, None, :]
    return 0.5 * (ab + np.swapaxes(ab, 1, 2))


def _lifted_start(PI, D, k: int, Phi=None):
    """Start angles from one linear solve, and the rank margin of that solve.

    Every sample contributes one linear condition <X, M_n> = 0 on a
    symmetric matrix X:

    * constant constraint (Phi None): X = N, M_n = sym(pi_n d_n^T);
    * Lambda Phi with k = 1: X = lam lam^T,
      M_n = (pi.d) G_n - sym(a_n b_n^T), with G = Phi Phi^T, a = Phi pi,
      b = Phi d (the score times lam^T G lam);
    * Lambda Phi with k = p - 1: X = c c^T for the unit c orthogonal to the
      rows of Lambda, M_n = r0_n G_n^-1 + sym(G_n^-1 a_n (G_n^-1 b_n)^T)
      with r0 = pi.d - a^T G^-1 b (the score times c^T G^-1 c). Samples
      whose Gram fails the GRAM_DET_TOL trust test are left out.

    X is the last right singular vector of the stacked conditions. For a
    constant constraint with k < n - 1 every N S N solves them, so the last
    r = (n-k)(n-k+1)/2 vectors span the solutions; the sum of their squares
    is positive semi-definite and vanishes exactly on the rows of A. The
    rounding reads eigenvectors of that sum (X^2 when r = 1), which needs no
    sign convention: the k smallest are the rows of A, the top one is lam or
    c, and the others span the rows of Lambda for k = p - 1.

    Returns (angles, rank margin), the margin being the largest singular
    value inside the solution space over the smallest outside it; or None
    when no lift applies (1 < k < p - 1, or no trusted sample).
    """
    if Phi is None:
        M = _sym_outer(PI, D)
        # k = n has no null space; any one vector then gives all n rows.
        r = max(1, (PI.shape[1] - k) * (PI.shape[1] - k + 1) // 2)
    else:
        p = Phi.shape[1]
        G = np.einsum("spj,sqj->spq", Phi, Phi)
        a = np.einsum("spj,sj->sp", Phi, PI)
        b = np.einsum("spj,sj->sp", Phi, D)
        direct = np.einsum("sj,sj->s", PI, D)
        r = 1
        if k == 1:
            M = direct[:, None, None] * G - _sym_outer(a, b)
        elif k == p - 1:
            # det <= prod(diag) for a Gram matrix, so this is a scale-free test.
            diag_prod = np.prod(np.diagonal(G, axis1=1, axis2=2), axis=1)
            ok = np.linalg.det(G) > GRAM_DET_TOL * diag_prod
            if not ok.any():
                return None
            G_inv = np.linalg.inv(G[ok])
            ga = np.einsum("spq,sq->sp", G_inv, a[ok])
            gb = np.einsum("spq,sq->sp", G_inv, b[ok])
            r0 = direct[ok] - np.einsum("sp,sp->s", a[ok], gb)
            M = r0[:, None, None] * G_inv + _sym_outer(ga, gb)
        else:
            return None
    m = M.shape[-1]
    rows = _sym_vec(M)
    if rows.shape[0] < rows.shape[1]:
        # Too few samples to fix X: pad so the SVD still returns null vectors.
        rows = np.vstack([rows, np.zeros((rows.shape[1] - rows.shape[0], rows.shape[1]))])
    _, s, Vt = np.linalg.svd(rows, full_matrices=False)
    Y = np.zeros((m, m))
    for x in Vt[len(s) - r:]:
        X = _sym_unvec(x, m)
        Y += X @ X
    vecs = np.linalg.eigh(Y)[1]  # columns in ascending eigenvalue order
    if Phi is None:
        basis = vecs[:, :k]
    elif k == 1:
        basis = vecs[:, -1:]
    else:
        basis = vecs[:, :-1]
    inside, outside = s[len(s) - r], (s[len(s) - r - 1] if len(s) > r else 0.0)
    margin = inside / outside if outside > 0.0 else 1.0
    return constraint_angles(basis.T), float(margin)


# --- learning the constraint when the prior is known ------------------------------

@dataclass
class LearnedConstraint:
    model: object
    objective_value: float
    restarts_used: int
    seed: int
    diagnostics: dict = field(default_factory=dict)


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


def _restart_search(objective, dim: int, opt: OptimizerConfig) -> OptimizeResult:
    """opt.restarts simplex searches from screened random angles."""
    sampler = _screened_sampler(objective, dim)
    return optimize(objective, sampler(np.random.default_rng(opt.seed)), opt, sampler=sampler)


def _exact_fit_floor(U) -> float:
    """Scores below 1e-8 times the summed action norm count as an exact fit."""
    return 1e-8 * float(np.sum(np.linalg.norm(U, axis=1)))


def _degenerate_prior_fraction(A_stack, PI, rel: float = 1e-9) -> float:
    norms = np.linalg.norm(null_space_apply(A_stack, PI), axis=1)
    scale = float(np.median(np.linalg.norm(PI, axis=1)))
    floor = rel * max(scale, 1.0)
    return float(np.mean(norms < floor))


def learn_constraint(dataset: Dataset, prior_pi=None, k: int | None = 1,
                     representation: str = "spherical", opt: OptimizerConfig | None = None,
                     feature_fn=None) -> LearnedConstraint:
    """Recover the constraint from (x, u) data given the secondary policy.

    representation "spherical" searches directly over a constant matrix with
    k orthonormal rows. representation "lambda" searches over a coefficient
    matrix applied to ``feature_fn(x)``, with the coefficient rows also kept
    orthonormal since only their span matters for the projection.

    The closed-form lift (``_lifted_start``) is the answer when it is an
    exact fit (score at most 1e-8 times the summed action norm, as on clean
    data). Otherwise a spherical learn polishes it with one simplex run and
    a lambda learn, like Lambda with 1 < k < p - 1 (no lift), runs
    ``opt.restarts`` simplex searches from screened random starts. The
    diagnostics carry the lift's rank margin ``lift_sv_ratio``, its score
    ``start_score``, the ``learner_path`` ("closed_form", "polish" or
    "restart_search") and the ``objective_evals`` spent.

    k is normally known per experiment. Passing k=None sweeps k upward and
    keeps the smallest value whose objective falls below 1e-8 times the
    summed action norm; the per-k objectives land in the diagnostics.
    """
    opt = opt or OptimizerConfig()
    if k is None:
        U = dataset.stack("u")
        floor = _exact_fit_floor(U)
        # k = n leaves no null space and zeroes the objective for free, so
        # the sweep stays below it.
        k_max = U.shape[1] - 1
        if representation == "lambda":
            if feature_fn is None:
                raise ValueError("representation 'lambda' needs a feature_fn")
            k_max = min(k_max, feature_stack(feature_fn, dataset.stack("x")).shape[1])
        sweep = {}
        best = None
        for kk in range(1, k_max + 1):
            cand = learn_constraint(dataset, prior_pi, kk, representation, opt, feature_fn)
            sweep[kk] = cand.objective_value
            if best is None or cand.objective_value < best.objective_value:
                best = cand
            if cand.objective_value < floor:
                best = cand
                break
        best.diagnostics["k_sweep"] = sweep
        best.diagnostics["k_sweep_floor"] = floor
        return best
    X, U, PI = _stacked(dataset, prior_pi)
    D = U - PI
    n = X.shape[1]

    if representation == "spherical":
        dim = spherical_param_count(k, n)
        objective = _spherical_objective(PI, D, k, n)
        lifted = _lifted_start(PI, D, k)

        def to_model(theta):
            return SphericalConstraint(theta=tuple(np.mod(theta, 2.0 * np.pi)), k=k, n=n)

    elif representation == "lambda":
        if feature_fn is None:
            raise ValueError("representation 'lambda' needs a feature_fn")
        Phi = feature_stack(feature_fn, X)
        p = Phi.shape[1]
        dim = spherical_param_count(k, p)
        objective = _lambda_objective(Phi, PI, D, k)
        lifted = _lifted_start(PI, D, k, Phi)

        def to_model(theta):
            return SelectionConstraint(lam=build_constraint_rows(theta, k, p),
                                       feature=feature_fn)

    else:
        raise ValueError(f"unknown representation {representation!r}")

    calls = []  # one entry per objective evaluation, for the diagnostics
    counted = lambda theta: calls.append(None) or objective(theta)
    sv_ratio, start_score = None, None
    if lifted is not None:
        start, sv_ratio = lifted
        start_score = counted(start)
    if lifted is not None and start_score <= _exact_fit_floor(U):
        # An exact fit already: a polish could only move it at rounding level.
        path, res = "closed_form", OptimizeResult(start, start_score, 1, 0, [start_score])
    elif lifted is None or representation == "lambda":
        # The lambda lifts weight each sample by lam^T G lam or c^T G^-1 c. On
        # data with no exact fit that can put the start in a wrong basin, so
        # such learns keep the screened restart search.
        path, res = "restart_search", _restart_search(counted, dim, opt)
    else:
        path, res = "polish", optimize(counted, start, replace(opt, restarts=1))
    model = to_model(res.params)
    A_stack = model.A_stack(X) if representation == "spherical" else model.lam @ Phi
    diag = {
        "degenerate_prior_fraction": _degenerate_prior_fraction(A_stack, PI),
        "failures": res.failures,
        "prior_norm_median": float(np.median(np.linalg.norm(PI, axis=1))),
        # The lift's rank margin and the L1 score at its start; None when
        # no lift applies.
        "lift_sv_ratio": sv_ratio,
        "start_score": start_score,
        "learner_path": path,
        "objective_evals": len(calls),
    }
    if diag["degenerate_prior_fraction"] > 0.5:
        warnings.warn("secondary policy is (near) zero inside the learned null space "
                      "for most samples; the objective cannot identify the constraint there",
                      stacklevel=2)
    return LearnedConstraint(model=model, objective_value=res.value,
                             restarts_used=res.restarts_used, seed=opt.seed, diagnostics=diag)


# --- baseline: learn the selection matrix from an estimated w ---------------------

def _projection_energy(A_stack, W_hat) -> float:
    """sum_n w_n^T (A_n^+ A_n) w_n, the part of w inside the constrained span."""
    inside = pinv_apply(A_stack, np.einsum("skj,sj->sk", A_stack, W_hat))
    return float(np.sum(inside * inside))


def learn_selection_matrix(dataset: Dataset, w_hat, feature_fn, k: int,
                           opt: OptimizerConfig | None = None,
                           mode: str = "continuous"):
    """Fit Lambda so the estimated null-space motion is annihilated by Lambda Phi.

    Minimises sum_n w_n^T (Lambda Phi_n)^+ (Lambda Phi_n) w_n. mode
    "continuous" searches orthonormal coefficient rows with the simplex
    optimizer; mode "diagonal" enumerates the k-subsets of feature rows and
    is mainly useful as an exhaustive cross-check.

    Returns (lam, objective_value).
    """
    X = dataset.stack("x")
    W_hat = np.atleast_2d(np.asarray(w_hat, dtype=float))
    if W_hat.shape[0] != X.shape[0]:
        raise ValueError("w_hat must have one row per sample")
    if float(np.max(np.linalg.norm(W_hat, axis=1))) == 0.0:
        raise ValueError("w_hat is identically zero; nothing constrains the fit")
    Phi = feature_stack(feature_fn, X)
    p = Phi.shape[1]

    if mode == "diagonal":
        from itertools import combinations
        best = None
        for rows in combinations(range(p), k):
            lam = diagonal_selection(list(rows), p)
            val = _projection_energy(lam @ Phi, W_hat)
            if best is None or val < best[1]:
                best = (lam, val)
        return best

    if mode != "continuous":
        raise ValueError(f"unknown mode {mode!r}")

    opt = opt or OptimizerConfig()
    dim = spherical_param_count(k, p)

    def objective(theta):
        lam = _rows_unchecked(theta, k, p)
        return _projection_energy(lam @ Phi, W_hat)

    res = _restart_search(objective, dim, opt)
    return build_constraint_rows(res.params, k, p), res.value


# --- baseline: separate w out of raw actions without a prior ----------------------

@dataclass(frozen=True)
class BaselineConfig:
    max_centers: int = 200
    width_scale: float = 0.5
    iterations: int = 50
    w_floor: float = 1e-8
    rel_tol: float = 1e-12
    seed: int = 0


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


def baseline_objective(w_model, U, w_floor: float = 1e-8) -> float:
    """sum_n || P_n u_n - w_n ||^2 with P_n the outer-product direction of w_n."""
    norms2 = np.maximum(np.sum(w_model * w_model, axis=1), w_floor * w_floor)
    proj = w_model * (np.sum(w_model * U, axis=1) / norms2)[:, None]
    resid = proj - w_model
    return float(np.sum(resid * resid))


def baseline_separate_nullspace(dataset: Dataset, cfg: BaselineConfig | None = None) -> BaselineResult:
    """Estimate the null-space component without knowing the secondary policy.

    Fits a radial-basis model w(x) by alternating between the direction
    projector P = w w^T / ||w||^2 evaluated at the current model and a
    least-squares refit of the model toward P u. Initialised from the raw
    actions themselves. Keeps the iterate with the lowest objective.
    """
    cfg = cfg or BaselineConfig()
    X = dataset.stack("x")
    U = dataset.stack("u")
    n_samples = X.shape[0]
    if n_samples < 2:
        raise ValueError("need at least two samples")
    rng = np.random.default_rng(cfg.seed)
    if n_samples > cfg.max_centers:
        idx = np.sort(rng.choice(n_samples, size=cfg.max_centers, replace=False))
        centers = X[idx]
    else:
        centers = X.copy()
    diffs = centers[:, None, :] - centers[None, :, :]
    dists = np.sqrt(np.sum(diffs * diffs, axis=2))
    med = float(np.median(dists[np.triu_indices(len(centers), k=1)]))
    width = cfg.width_scale * med if med > 0.0 else 1.0
    feats = _rbf_features(X, centers, width)

    def refit(target):
        weights, *_ = np.linalg.lstsq(feats, target, rcond=cfg.rel_tol)
        return weights

    weights = refit(U)
    w_hat = feats @ weights
    best = (baseline_objective(w_hat, U, cfg.w_floor), weights.copy(), w_hat.copy())
    history = [best[0]]
    for _ in range(cfg.iterations):
        norms2 = np.maximum(np.sum(w_hat * w_hat, axis=1), cfg.w_floor ** 2)
        target = w_hat * (np.sum(w_hat * U, axis=1) / norms2)[:, None]
        weights = refit(target)
        w_hat = feats @ weights
        obj = baseline_objective(w_hat, U, cfg.w_floor)
        history.append(obj)
        if obj < best[0]:
            best = (obj, weights.copy(), w_hat.copy())
        if len(history) > 2 and abs(history[-2] - obj) < 1e-15 * max(1.0, obj):
            break
    _, weights, w_hat = best
    return BaselineResult(w_hat=w_hat, v_hat=U - w_hat, weights=weights,
                          centers=centers, width=width, objective_history=history)
