"""Constraint matrices, pseudo-inverses and null-space projectors.

Two constraint families are supported. A *spherical* constraint stores a
constant matrix whose orthonormal rows are parameterised by angles, which is
the representation the learner searches over when nothing is known about the
structure of A. A *selection* constraint is A(x) = Lambda Phi(x) for a fixed
coefficient matrix Lambda and a state-dependent feature matrix Phi, typically
the arm Jacobian.

Every many-sample path, the learner's start included, solves its Gram
systems A A^T z = b through _gram_solve, with one trust test.
"""

import math
from dataclasses import dataclass, field
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

    A stack (..., k, n) gives stacked fields from one batched SVD.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim < 2:
        raise ValueError("expected a 2-d constraint matrix or a stack of them")
    pinv, s = _svd_pinv(A)
    N = np.eye(A.shape[-1]) - pinv @ A
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(s[..., 0] > 0.0, s[..., -1] / s[..., 0], 0.0)
    return Projector(A=A, A_pinv=pinv, N=N, sigma_ratio=ratio[()])


# The closed forms lose about eps * prod(diag G) / det of relative accuracy,
# so Gram systems whose det / prod(diag) is below this go to the SVD instead.
GRAM_DET_TOL = 1e-6


def _gram_solve(G, B):
    """z = G^-1 b for a stack of Gram systems (S, k, k), (S, k), and the trusted mask.

    A sample is trusted when det G > GRAM_DET_TOL * prod(diag G), a
    scale-free test since det <= prod(diag) for a Gram matrix: for k = 1 a
    nonzero row, for k = 2 rows more than about 1e-3 rad from parallel.
    Closed forms for k <= 3 keep the inner loops off LAPACK's per-matrix
    overhead: the adjugate for k = 3, with det expanded along the first
    row. Larger k take np.linalg.det and solve the trusted samples in one
    call. z of an untrusted sample is unspecified for k <= 2 (the closed
    form with det set to 1) and zero for k >= 3; every caller drops or
    replaces it.
    """
    k = B.shape[1]
    # det and prod(diag G) spelled out for k <= 3: LAPACK's per-matrix overhead costs
    # more than the arithmetic, and per-call overhead dominates one-state steps.
    if k == 1:
        det = diag = G[:, 0, 0]
    elif k == 2:
        diag = G[:, 0, 0] * G[:, 1, 1]
        det = diag - G[:, 0, 1] * G[:, 1, 0]
    elif k == 3:
        g00, g01, g02, g10, g11, g12, g20, g21, g22 = G.reshape(-1, 9).T
        c00, c01, c02 = g11 * g22 - g12 * g21, g12 * g20 - g10 * g22, g10 * g21 - g11 * g20
        diag = g00 * g11 * g22
        det = g00 * c00 + g01 * c01 + g02 * c02
    else:
        det, diag = np.linalg.det(G), np.prod(np.diagonal(G, axis1=1, axis2=2), axis=1)
    ok = det > GRAM_DET_TOL * diag
    if k > 3:
        Z = np.zeros(B.shape)
        Z[ok] = np.linalg.solve(G[ok], B[ok][:, :, None])[:, :, 0]
        return Z, ok
    det = np.where(ok, det, 1.0)
    if k == 1:
        return B / det[:, None], ok
    Z = np.empty(B.shape)
    if k == 2:
        Z[:, 0] = (G[:, 1, 1] * B[:, 0] - G[:, 0, 1] * B[:, 1]) / det
        Z[:, 1] = (G[:, 0, 0] * B[:, 1] - G[:, 1, 0] * B[:, 0]) / det
        return Z, ok
    # z = adj(G) b / det; adj(G) is the transposed cofactor matrix.
    b0, b1, b2 = B.T
    Z[:, 0] = (c00 * b0 + (g02 * g21 - g01 * g22) * b1 + (g01 * g12 - g02 * g11) * b2) / det
    Z[:, 1] = (c01 * b0 + (g00 * g22 - g02 * g20) * b1 + (g02 * g10 - g00 * g12) * b2) / det
    Z[:, 2] = (c02 * b0 + (g01 * g20 - g00 * g21) * b1 + (g00 * g11 - g01 * g10) * b2) / det
    if not ok.all():
        Z[~ok] = 0.0
    return Z, ok


def pinv_apply(A, B) -> np.ndarray:
    """A_n^+ b_n for a stack of wide matrices A (S, k, n) and rates B (S, k).

    Well-conditioned samples go through the Gram solve; the rest get
    the SVD pseudo-inverse of A_n itself, which is accurate to about
    eps / (sigma_min/sigma_max) where the Gram form would square that.
    """
    Z, ok = _gram_solve(np.einsum("skj,slj->skl", A, A), B)
    out = np.einsum("skj,sk->sj", A, Z)
    if not ok.all():
        out[~ok] = np.einsum("sjk,sk->sj", pseudo_inverse(A[~ok]), B[~ok])
    return out


def null_space_apply(A, V) -> np.ndarray:
    """N(x_n) v_n = v_n - A_n^+ A_n v_n for a stack A (S, k, n) and vectors V (S, n).

    The batched counterpart of ``null_projector(A_n).N @ v_n``.
    """
    return V - pinv_apply(A, np.einsum("skj,sj->sk", A, V))


def _split_svd(A, B, PI):
    """split_action through null_projector's batched SVD."""
    proj = null_projector(A)
    return (np.einsum("sjk,sk->sj", proj.A_pinv, B), np.einsum("sij,sj->si", proj.N, PI),
            proj.sigma_ratio)


def _split_one(A, b, pi):
    """split_action of one sample A (k, n), b (k,), pi (n,) for k <= 2.

    numpy's per-call overhead is most of the cost of one sample, so the trust
    test, the solves and the ratio run in Python floats, with the formulas of
    _gram_solve and split_action term for term. The sums over n stay in
    einsum, which adds its lanes in an order Python's sum would not: one call
    gives G = A A^T and c = A pi, one gives A^T z. The bits match the batched
    path. Returns None when the Gram test fails.
    """
    k = len(A)
    M = np.einsum("kj,lj->kl", A, np.concatenate((A, pi[None]))).tolist()
    b = b.tolist()
    if k == 1:
        (g00, c0), = M
        if not g00 > GRAM_DET_TOL * g00:
            return None
        Z = [(b[0] / g00, c0 / g00)]
        ratio = 1.0
    else:
        (g00, g01, c0), (g10, g11, c1) = M
        diag = g00 * g11
        det = diag - g01 * g10
        if not det > GRAM_DET_TOL * diag:
            return None
        Z = [((g11 * b[0] - g01 * b[1]) / det, (g11 * c0 - g01 * c1) / det),
             ((g00 * b[1] - g10 * b[0]) / det, (g00 * c1 - g10 * c0) / det)]
        # np.hypot, not math.hypot: Python's own hypot rounds differently.
        lmax = 0.5 * (g00 + g11) + float(np.hypot(0.5 * (g00 - g11), g01))
        ratio = math.sqrt(g00 * g11 - g01 * g01) / lmax
    AZ = np.einsum("kj,kr->rj", A, Z)
    return AZ[:1], pi - AZ[1:], np.array([ratio])


def split_action(A, B, PI):
    """v_n = A_n^+ b_n, w_n = N_n pi_n and sigma_min/sigma_max of A_n: one rollout step.

    Stacks A (S, k, n), B (S, k), PI (S, n). For k = 1 and 2 one Gram matrix
    G = A A^T serves both solves and the ratio (1 for a nonzero row, sqrt(det
    G) / lmax(G) for two); a stack of one sample takes _split_one, the same
    arithmetic in Python floats. Untrusted samples, and every sample for
    k >= 3, for which no closed form of the ratio is coded, take
    null_projector.
    """
    if A.shape[1] > 2:
        return _split_svd(A, B, PI)
    if len(A) == 1:
        one = _split_one(A[0], B[0], PI[0])
        return _split_svd(A, B, PI) if one is None else one
    G = np.einsum("skj,slj->skl", A, A)
    # Both right-hand sides in one call: per-call overhead dominates small stacks.
    Z, ok = _gram_solve(np.concatenate([G, G]),
                        np.concatenate([B, np.einsum("skj,sj->sk", A, PI)]))
    AZ = np.einsum("skj,rsk->rsj", A, Z.reshape(2, len(A), -1))
    V, W, ok = AZ[0], PI - AZ[1], ok[:len(A)]
    ratio = ok.astype(float)
    if A.shape[1] == 2:
        g00, g01, g11 = G[:, 0, 0], G[:, 0, 1], G[:, 1, 1]
        lmax = 0.5 * (g00 + g11) + np.hypot(0.5 * (g00 - g11), g01)
        ratio = np.sqrt(np.where(ok, g00 * g11 - g01 * g01, 0.0)) / np.where(ok, lmax, 1.0)
    if not ok.all():
        V[~ok], W[~ok], ratio[~ok] = _split_svd(A[~ok], B[~ok], PI[~ok])
    return V, W, ratio


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
