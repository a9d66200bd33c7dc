"""Constraint matrices, pseudo-inverses and null-space projectors.

Two constraint families are supported. A *spherical* constraint stores a
constant matrix whose orthonormal rows are parameterised by angles, which is
the representation the learner searches over when nothing is known about the
structure of A. A *selection* constraint is A(x) = Lambda Phi(x) for a fixed
coefficient matrix Lambda and a state-dependent feature matrix Phi, typically
the arm Jacobian.

Every projection runs through one factorisation A = R Q: Gram-Schmidt run
twice, Q with orthonormal rows, R lower-triangular. A stack of states, the
learner's start included, takes lq_factor; one state takes split_floats, the
same arithmetic in Python floats. The SVD pseudo-inverse and null_projector
stay as the reference the tests compare against.
"""

import math
from dataclasses import dataclass, field
from operator import mul
from typing import Callable

import numpy as np


def spherical_param_count(k: int, n: int) -> int:
    """Number of angles needed for k orthonormal constraint rows in R^n."""
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return k * (2 * n - k - 1) // 2


def _unit(angles: np.ndarray) -> np.ndarray:
    """Unit vector in R^(m+1) from m spherical angles, unchecked.

    Components are a_1 = cos t_1, a_2 = sin t_1 cos t_2, ..., with the last
    component carrying the full sine product; no angles give (1.0,). A
    scalar loop: the vectors are a few entries long, where per-call numpy
    overhead would cost more than the arithmetic. build_constraint_rows is
    the checked entry.
    """
    a = [1.0] * (len(angles) + 1)
    sin_prod = 1.0
    for i, t in enumerate(angles.tolist()):
        a[i] = math.cos(t) * sin_prod
        sin_prod *= math.sin(t)
    a[-1] = sin_prod
    return np.array(a)


def spherical_from_unit(a) -> np.ndarray:
    """Angles that reproduce a given unit vector through _unit.

    Inverse trigonometry: t_i = atan2(norm of the tail, a_i), with the last
    angle taking the sign of the final component.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or a.size < 1:
        raise ValueError("expected a 1-d vector")
    norm = np.linalg.norm(a)
    if not np.isclose(norm, 1.0, atol=1e-8):
        raise ValueError(f"expected a unit vector, norm was {norm:.3e}")
    n = a.size
    if n == 1:
        return np.zeros(0)
    angles = np.empty(n - 1)
    for i in range(n - 2):
        tail = np.linalg.norm(a[i + 1:])
        angles[i] = np.arctan2(tail, a[i])
    angles[-1] = np.arctan2(a[-1], a[-2])
    return angles


def _householder_complement(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to unit vector a.

    Columns 1..m-1 of the Householder reflection that maps a onto a signed
    first axis vector; shape (m, m-1).
    """
    m = a.size
    sign = 1.0 if a[0] >= 0.0 else -1.0
    v = a.copy()
    v[0] += sign
    H = np.eye(m) - 2.0 * np.outer(v, v) / (v @ v)
    return H[:, 1:]


def build_constraint_rows(theta, k: int, n: int) -> np.ndarray:
    """Constraint matrix with k orthonormal rows in R^n from spherical angles.

    Row 1 consumes n-1 angles. Each following row is built inside the
    orthogonal complement of the rows before it, so row j consumes n-j
    angles; k(2n-k-1)/2 angles in total. The result always satisfies
    A A^T = I up to rounding.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    expected = spherical_param_count(k, n)
    if theta.shape != (expected,):
        raise ValueError(f"k={k}, n={n} needs {expected} angles, got {theta.size}")
    if not np.all(np.isfinite(theta)):
        raise ValueError("angles must be finite")
    rows = np.empty((k, n))
    basis = None
    used = 0
    for j in range(k):
        m = n - j
        local = _unit(theta[used:used + m - 1])
        used += m - 1
        rows[j] = local if basis is None else basis @ local
        if j + 1 < k:
            comp = _householder_complement(local)
            basis = comp if basis is None else basis @ comp
    return rows


def constraint_angles(rows) -> np.ndarray:
    """Angles whose build_constraint_rows spans the same rows as k orthonormal rows (k, n).

    The inverse of the chart up to the choice of basis inside the span,
    which the projector does not see. Each step takes the leading right
    singular vector of the rows expressed in the current complement basis,
    reads its angles with spherical_from_unit, and moves to the complement
    of that vector the way build_constraint_rows does.
    """
    R = np.atleast_2d(np.asarray(rows, dtype=float))
    if R.ndim != 2:
        raise ValueError("expected a (k, n) matrix of rows")
    k, n = R.shape
    spherical_param_count(k, n)  # validates k, n
    if not np.all(np.isfinite(R)) or not np.allclose(R @ R.T, np.eye(k), atol=1e-8):
        raise ValueError("rows must be finite and orthonormal")
    angles = []
    coords = R
    for j in range(k):
        lead = np.linalg.svd(coords, full_matrices=False)[2][0]
        angles.append(spherical_from_unit(lead))
        if j + 1 < k:
            # The reflection flips with the sign of the first component, so
            # take the complement of the vector the angles rebuild, exactly
            # as build_constraint_rows will.
            coords = coords @ _householder_complement(_unit(angles[-1]))
    return np.concatenate(angles)


# Singular values below this times the largest one count as zero in a pseudo-inverse.
PINV_REL_TOL = 1e-10


def _svd_pinv(M):
    """Pseudo-inverse and singular values of every matrix in a stack (..., k, n)."""
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix must be finite")
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    cutoff = PINV_REL_TOL * s[..., :1]
    inv = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    return (np.swapaxes(Vt, -1, -2) * inv[..., None, :]) @ np.swapaxes(U, -1, -2), s


def pseudo_inverse(M) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via SVD.

    Singular values below PINV_REL_TOL times the largest one are treated as
    zero, so rank-deficient input is fine. A stack (..., k, n) gives
    (..., n, k), each matrix with its own cutoff.
    """
    return _svd_pinv(M)[0]


@dataclass(frozen=True, eq=False)
class Projector:
    """A constraint matrix with its pseudo-inverse, projector and sigma_min/sigma_max.

    sigma_ratio is scale-free, so a rank test on it does not depend on
    length units; an all-zero matrix gives 0.
    """

    A: np.ndarray
    A_pinv: np.ndarray
    N: np.ndarray
    sigma_ratio: np.ndarray | float


def null_projector(A) -> Projector:
    """Null-space projector N = I - A^+ A for a (k, n) constraint matrix.

    A stack (..., k, n) gives stacked fields from one batched SVD. k = 0
    gives N = I, an (..., n, 0) pseudo-inverse and sigma_ratio 1.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim < 2:
        raise ValueError("expected a 2-d constraint matrix or a stack of them")
    pinv, s = _svd_pinv(A)
    N = np.eye(A.shape[-1]) - pinv @ A
    if s.shape[-1] == 0:  # no rows: full row rank, so the ratio is 1 and N = I
        s = np.ones(s.shape[:-1] + (1,))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(s[..., 0] > 0.0, s[..., -1] / s[..., 0], 0.0)
    return Projector(A=A, A_pinv=pinv, N=N, sigma_ratio=ratio[()])


# A row whose remainder after Gram-Schmidt is at most this times its own norm
# depends on the rows before it; rollouts stop when sigma_min/sigma_max of A(x)
# falls below it. Both tests are scale-free, so they do not depend on units.
RANK_TOL = 1e-10


def lq_factor(A):
    """A_n = R_n Q_n for a stack A (S, k, n), by Gram-Schmidt run twice over the rows.

    Q_n has orthonormal rows and R_n is lower-triangular. A second pass
    keeps Q orthogonal to rounding whatever the conditioning (Giraud, Langou
    & Rozloznik 2005), so no solve needs a trust test. A row that depends on
    the rows before it (its remainder at most RANK_TOL times its norm) gets
    a zero q row and a zero R column, which keeps an exactly rank-deficient A
    on the SVD's projector. Rows come first and samples last, Q (k, n, S)
    and R (k, k, S), so that every sum over a row's n entries adds
    contiguous arrays of S samples.
    """
    T = np.ascontiguousarray(A.transpose(1, 2, 0))
    norms = np.sqrt((T * T).sum(1))
    # Every row normalised: row 0 of Q, and all of it for k = 1. A zero row
    # divides by inf, which gives its zero q row.
    Q = T / np.where(norms > 0.0, norms, np.inf)[:, None]
    R = np.zeros((len(T),) + norms.shape)
    R[0, 0] = norms[0]
    for i in range(1, len(T)):
        r = T[i]
        for _ in range(2):
            for j in range(i):
                c = (Q[j] * r).sum(0)
                R[i, j] += c
                r = r - c * Q[j]
        norm = np.sqrt((r * r).sum(0))
        ok = norm > RANK_TOL * norms[i]
        R[i, i] = norm * ok
        Q[i] = r / np.where(ok, norm, np.inf)
    return Q, R


def _forward_solve(L, B):
    """Y with L_n y_n = b_n for lower-triangular L (k, k, S) and B (k, S), rows first.

    A zero pivot, a dependent row of lq_factor, gives y_i = 0: for b_n in
    the range of A_n = L_n Q_n, Q_n^T y_n is then still A_n^+ b_n.
    """
    d = np.diagonal(L).T
    d = np.where(d != 0.0, d, np.inf)
    Y = B / d  # y_0, and every y_i for a diagonal L
    for i in range(1, len(B)):
        Y[i] = (B[i] - (L[i, :i] * Y[:i]).sum(0)) / d[i]
    return Y


def null_space_apply(A, V) -> np.ndarray:
    """N(x_n) v_n = v_n - Q_n^T Q_n v_n for a stack A (S, k, n) and vectors V (S, n).

    The batched counterpart of ``null_projector(A_n).N @ v_n``, from
    lq_factor's Q.
    """
    Q, V = lq_factor(A)[0], V.T
    return (V - ((Q * V).sum(1)[:, None] * Q).sum(0)).T


def split_action(A, B, PI):
    """v_n = A_n^+ b_n, w_n = N_n pi_n and sigma_min/sigma_max of A_n: one rollout step.

    Stacks A (S, k, n), B (S, k), PI (S, n), through lq_factor's A = R Q:
    v = Q^T R^-1 b by forward substitution and w = pi - Q^T Q pi. The ratio
    is that of R: 1 for a nonzero row, |r00 r11| / lmax(R R^T) for two rows
    and the SVD of R beyond. For a rank-deficient A_n, v_n is A_n^+ b_n only
    when b_n lies in the range of A_n; a rollout stops there anyway.
    """
    Q, R = lq_factor(A)
    PI = PI.T
    V = (_forward_solve(R, B.T)[:, None] * Q).sum(0)
    W = PI - ((Q * PI).sum(1)[:, None] * Q).sum(0)
    if len(R) == 1:
        ratio = np.sign(R[0, 0])  # 1 for a nonzero row, 0 for a zero one
    elif len(R) == 2:
        r00, r10, r11 = R[0, 0], R[1, 0], R[1, 1]
        g00, g11 = r00 * r00, r10 * r10 + r11 * r11
        lmax = 0.5 * (g00 + g11) + np.hypot(0.5 * (g00 - g11), r00 * r10)
        ratio = np.abs(r00 * r11) / np.where(lmax > 0.0, lmax, 1.0)
    else:
        s = np.linalg.svd(R.transpose(2, 0, 1), compute_uv=False)
        ratio = s[:, -1] / np.where(s[:, 0] > 0.0, s[:, 0], 1.0)
    return V.T, W.T, ratio


def split_floats(A, b, pi):
    """split_action of one sample with k <= 2 rows, on lists of floats: v, w and the ratio.

    lq_factor's Gram-Schmidt twice, spelled out for one or two rows in
    Python floats: numpy's per-call overhead would cost more than the sums.
    """
    a0 = A[0]
    r00 = math.sqrt(sum(map(mul, a0, a0)))
    q0 = [x / r00 for x in a0] if r00 > 0.0 else [0.0] * len(a0)  # a zero row: a zero q row
    y0, p0 = b[0] / r00 if r00 > 0.0 else 0.0, sum(map(mul, q0, pi))
    if len(A) == 1:
        return ([y0 * q for q in q0], [p - p0 * q for p, q in zip(pi, q0)],
                1.0 if r00 > 0.0 else 0.0)
    a1 = A[1]
    c = sum(map(mul, q0, a1))
    r = [x - c * q for x, q in zip(a1, q0)]
    c2 = sum(map(mul, q0, r))
    r = [x - c2 * q for x, q in zip(r, q0)]
    r10, r11 = c + c2, math.sqrt(sum(map(mul, r, r)))
    if not r11 > RANK_TOL * math.sqrt(sum(map(mul, a1, a1))):
        r11 = 0.0  # a dependent row: a zero q row and a zero R column
    q1 = [x / r11 for x in r] if r11 > 0.0 else [0.0] * len(r)
    y1, p1 = (b[1] - r10 * y0) / r11 if r11 > 0.0 else 0.0, sum(map(mul, q1, pi))
    g00, g11 = r00 * r00, r10 * r10 + r11 * r11
    lmax = 0.5 * (g00 + g11) + math.hypot(0.5 * (g00 - g11), r00 * r10)
    return ([y0 * s + y1 * t for s, t in zip(q0, q1)],
            [p - p0 * s - p1 * t for p, s, t in zip(pi, q0, q1)],
            abs(r00 * r11) / lmax if lmax > 0.0 else 0.0)


def feature_stack(feature, X) -> np.ndarray:
    """feature(X) for a stack of states X (S, n), checked to be (S, p, n).

    Every many-sample path calls its feature through here, so one that does
    not broadcast over leading axes fails with the same error everywhere.
    """
    X = np.asarray(X, dtype=float)
    Phi = np.asarray(feature(X), dtype=float)
    if Phi.ndim != 3 or Phi.shape[0] != X.shape[0] or Phi.shape[2] != X.shape[1]:
        raise ValueError(f"feature returned shape {Phi.shape} for states of shape {X.shape}; "
                         "it must broadcast over a stack of states to (S, p, n)")
    return Phi


@dataclass(frozen=True, eq=False)
class SphericalConstraint:
    """Constant constraint matrix with orthonormal rows given by angles."""

    theta: tuple
    k: int
    n: int
    matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "theta", tuple(float(t) for t in np.atleast_1d(self.theta)))
        spherical_param_count(self.k, self.n)  # validates k, n
        if len(self.theta) != spherical_param_count(self.k, self.n):
            raise ValueError("wrong number of angles for (k, n)")
        object.__setattr__(self, "matrix",
                           build_constraint_rows(np.array(self.theta), self.k, self.n))

    def A_at(self, x=None) -> np.ndarray:
        return self.matrix

    def A_stack(self, X) -> np.ndarray:
        """The constant matrix repeated for each of the S rows of X, (S, k, n)."""
        return np.broadcast_to(self.matrix, (len(X), self.k, self.n))

    def projector_at(self, x=None) -> Projector:
        return null_projector(self.matrix)

    def to_config(self) -> dict:
        return {"form": "spherical", "theta_rad": list(self.theta), "k": self.k, "n": self.n}


@dataclass(frozen=True, eq=False)
class SelectionConstraint:
    """State-dependent constraint A(x) = Lambda Phi(x).

    ``feature`` maps a state to the (p, n) feature matrix Phi(x); ``lam`` is
    the (k, p) coefficient matrix. For the arm experiments Phi is the task
    Jacobian and Lambda picks out (or mixes) task coordinates.

    ``A_at`` and ``projector_at`` call the feature on one state (n,).
    ``A_stack``, which every many-sample path uses, calls it once on a stack
    of states (S, n) through ``feature_stack`` and needs (S, p, n) back, so
    the feature must broadcast over leading axes the way
    ``kinematics.jacobian`` does.
    """

    lam: np.ndarray
    feature: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        lam = np.atleast_2d(np.asarray(self.lam, dtype=float))
        if not np.all(np.isfinite(lam)):
            raise ValueError("selection matrix must be finite")
        object.__setattr__(self, "lam", lam)

    @property
    def k(self) -> int:
        return self.lam.shape[0]

    def A_at(self, x) -> np.ndarray:
        return self.lam @ self.feature(np.asarray(x, dtype=float))

    def A_stack(self, X) -> np.ndarray:
        """A(x_n) for every row of X, shape (S, k, n), from one feature call."""
        return self.lam @ feature_stack(self.feature, X)

    def projector_at(self, x) -> Projector:
        return null_projector(self.A_at(x))

    def select_rates(self, task_rate) -> np.ndarray:
        """Map a full task-space rate (p,), or a stack (m, p), onto the constrained coordinates."""
        return np.asarray(task_rate, dtype=float) @ self.lam.T


def diagonal_selection(mask) -> np.ndarray:
    """Rows of the p x p identity that a 0/1 mask of length p picks out.

    diagonal_selection((1, 0, 1)) gives [[1,0,0],[0,0,1]]. Any entry other
    than 0 or 1 is rejected, so a list of row indices cannot pass for a mask.
    """
    mask = list(mask)
    if not all(v in (0, 1) for v in mask):
        raise ValueError(f"selection mask must hold only 0s and 1s, got {mask}")
    if 1 not in mask:
        raise ValueError("selection mask picks no rows")
    return np.eye(len(mask))[[i for i, v in enumerate(mask) if v == 1]]
