import math

import numpy as np
import pytest

from projlearn.constraints import (RANK_TOL, Projector, SelectionConstraint,
                                   SphericalConstraint, build_constraint_rows,
                                   constraint_angles, diagonal_selection, lq_factor,
                                   null_projector, null_space_apply, pseudo_inverse,
                                   spherical_from_unit, spherical_param_count, split_action,
                                   split_floats)
from projlearn.kinematics import PlanarArm, dot_last, jacobian
from test_kinematics import same_bits


def unit_from_angles(angles, n):
    """The single row of a k = 1 constraint: the unit vector of n - 1 spherical angles."""
    return build_constraint_rows(np.asarray(angles, dtype=float), 1, n)[0]


class TestSphericalToUnit:
    def test_zero_angle(self):
        assert np.allclose(unit_from_angles([0.0], 2), [1.0, 0.0])

    def test_right_angle(self):
        a = unit_from_angles([np.pi / 2], 2)
        assert np.allclose(a, [0.0, 1.0], atol=1e-15)

    def test_three_dim_closed_form(self):
        a = unit_from_angles([np.pi / 3, np.pi / 4], 3)
        c60, s60 = math.cos(math.pi / 3), math.sin(math.pi / 3)
        c45, s45 = math.cos(math.pi / 4), math.sin(math.pi / 4)
        assert np.allclose(a, [c60, s60 * c45, s60 * s45], atol=1e-15)
        assert np.linalg.norm(a) == pytest.approx(1.0)

    def test_unit_norm_everywhere(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 5):
            for _ in range(20):
                a = unit_from_angles(rng.uniform(-np.pi, np.pi, n - 1), n)
                assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)

    def test_surjective_at_k1(self):
        # inverse-trig round trip: any unit vector has a preimage
        rng = np.random.default_rng(1)
        for n in (2, 3, 4, 6):
            for _ in range(20):
                a = rng.normal(size=n)
                a /= np.linalg.norm(a)
                back = unit_from_angles(spherical_from_unit(a), n)
                assert np.max(np.abs(back - a)) < 1e-12


class TestBuildConstraintRows:
    def test_param_count_formula(self):
        assert spherical_param_count(1, 2) == 1
        assert spherical_param_count(2, 3) == 3
        # sum over rows of the remaining free directions: 6 + 5 + 4
        assert spherical_param_count(3, 7) == 15

    def test_single_row_is_cos_sin(self):
        theta = 0.7
        A = build_constraint_rows(np.array([theta]), 1, 2)
        assert np.allclose(A, [[math.cos(theta), math.sin(theta)]])

    def test_full_rank_kills_null_space(self):
        rng = np.random.default_rng(2)
        theta = rng.uniform(-np.pi, np.pi, spherical_param_count(3, 3))
        A = build_constraint_rows(theta, 3, 3)
        N = null_projector(A).N
        assert np.allclose(N, 0.0, atol=1e-12)

    def test_rows_orthonormal(self):
        rng = np.random.default_rng(3)
        for k, n in ((2, 3), (2, 5), (3, 7)):
            for _ in range(10):
                theta = rng.uniform(-np.pi, np.pi, spherical_param_count(k, n))
                A = build_constraint_rows(theta, k, n)
                assert A.shape == (k, n)
                assert np.max(np.abs(A @ A.T - np.eye(k))) < 1e-10

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            build_constraint_rows(np.zeros(3), 3, 2)  # k > n
        with pytest.raises(ValueError):
            build_constraint_rows(np.zeros(2), 1, 2)  # wrong count
        with pytest.raises(ValueError):
            build_constraint_rows(np.array([0.1, np.nan, 0.2]), 2, 3)


class TestConstraintAngles:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_round_trip_spans_the_same_rows(self, n):
        rng = np.random.default_rng(n)
        for k in range(1, n):
            for _ in range(5):
                A = build_constraint_rows(rng.uniform(-np.pi, np.pi, spherical_param_count(k, n)),
                                          k, n)
                # any orthonormal basis of the span must map back to it
                R = np.linalg.qr(rng.normal(size=(k, k)))[0] @ A
                back = build_constraint_rows(constraint_angles(R), k, n)
                assert np.max(np.abs(back.T @ back - A.T @ A)) < 1e-12

    def test_axis_rows_at_the_chart_poles(self):
        for pattern in ((1, 0, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1)):
            lam = diagonal_selection(pattern)
            back = build_constraint_rows(constraint_angles(lam), lam.shape[0], 3)
            assert np.max(np.abs(back.T @ back - lam.T @ lam)) < 1e-12

    def test_rejects_rows_that_are_not_orthonormal(self):
        with pytest.raises(ValueError):
            constraint_angles([[1.0, 1.0, 0.0]])
        with pytest.raises(ValueError):
            constraint_angles([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            constraint_angles(np.eye(3)[:1] * np.nan)


class TestPseudoInverse:
    def test_row_vector(self):
        assert np.allclose(pseudo_inverse(np.array([[1.0, 0.0]])), [[1.0], [0.0]])

    def test_identity(self):
        assert np.allclose(pseudo_inverse(np.eye(3)), np.eye(3))

    def test_penrose_conditions(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            M = rng.normal(size=(2, 3))
            P = pseudo_inverse(M)
            assert np.max(np.abs(M @ P @ M - M)) < 1e-10
            assert np.max(np.abs(P @ M @ P - P)) < 1e-10
            assert np.max(np.abs((M @ P).T - M @ P)) < 1e-10
            assert np.max(np.abs((P @ M).T - P @ M)) < 1e-10

    def test_rank_deficient_rows(self):
        M = np.array([[1.0, 0.0], [2.0, 0.0]])
        P = pseudo_inverse(M)
        assert np.max(np.abs(M @ P @ M - M)) < 1e-10

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            pseudo_inverse(np.array([[np.nan, 0.0]]))


def random_projector(rng) -> Projector:
    n = rng.integers(2, 7)
    k = rng.integers(1, n)
    theta = rng.uniform(-np.pi, np.pi, spherical_param_count(k, n))
    return null_projector(build_constraint_rows(theta, k, n))


class TestNullProjector:
    def test_axis_row(self):
        proj = null_projector(np.array([[1.0, 0.0]]))
        assert np.allclose(proj.N, [[0.0, 0.0], [0.0, 1.0]])

    def test_identity_matrix(self):
        assert np.allclose(null_projector(np.eye(3)).N, 0.0, atol=1e-14)

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0, 3)])
    def test_no_rows(self, shape):
        # an empty row set constrains nothing and has full row rank, so the
        # rank test must not fire
        proj = null_projector(np.zeros(shape))
        lead = shape[:-2]
        assert np.array_equal(proj.N, np.broadcast_to(np.eye(3), lead + (3, 3)))
        assert proj.A_pinv.shape == lead + (3, 0)
        assert np.array_equal(proj.sigma_ratio, np.ones(lead))

    def test_projector_identities(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            proj = random_projector(rng)
            N, A, Ap = proj.N, proj.A, proj.A_pinv
            assert np.max(np.abs(N @ N - N)) < 1e-10
            assert np.max(np.abs(N - N.T)) < 1e-10
            assert np.max(np.abs(A @ N)) < 1e-10
            assert np.max(np.abs(N @ Ap)) < 1e-10

    def test_rank_complement(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            proj = random_projector(rng)
            n = proj.N.shape[0]
            rank_a = np.linalg.matrix_rank(proj.A, tol=1e-10)
            rank_n = np.linalg.matrix_rank(proj.N, tol=1e-10)
            assert rank_n == n - rank_a

    def test_jacobian_constraint(self):
        arm = PlanarArm((0.1, 0.1, 0.1))
        lam = diagonal_selection((1, 1, 0))
        rng = np.random.default_rng(7)
        for _ in range(10):
            A = lam @ jacobian(arm, rng.uniform(0.2, 1.0, 3))
            proj = null_projector(A)
            assert np.max(np.abs(A @ proj.N)) < 1e-10

    def test_row_mixing_invariance(self):
        # remixing the rows of A changes A but not the projector
        A = build_constraint_rows(np.array([0.3, 1.2, -0.4]), 2, 3)
        R = np.array([[np.cos(0.9), -np.sin(0.9)], [np.sin(0.9), np.cos(0.9)]])
        assert np.linalg.norm(null_projector(A).N - null_projector(R @ A).N) < 1e-12


class TestBatchedProjection:
    """The stacked LQ path against per-sample null_projector."""

    @staticmethod
    def _stack(k, n, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(40, k, n))
        # exactly singular Gram matrices: a zero matrix and repeated rows
        A[5] = 0.0
        if k > 1:
            A[11, 1] = 2.0 * A[11, 0]
        return A, rng.normal(size=(40, n)), rng.normal(size=(40, k))

    @pytest.mark.parametrize("k,n", [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
    def test_matches_per_sample_reference(self, k, n):
        A, V, B = self._stack(k, n, seed=10 * k + n)
        # split_action's v is A^+ b for a rank-deficient A only when b is in its range
        B[11] = A[11] @ V[0]
        NV = null_space_apply(A, V)
        AB = split_action(A, B, V)[0]
        for i in range(A.shape[0]):
            proj = null_projector(A[i])
            assert np.allclose(NV[i], proj.N @ V[i], rtol=0.0, atol=1e-12)
            assert np.allclose(AB[i], proj.A_pinv @ B[i], rtol=0.0, atol=1e-12)

    def test_near_singular_samples_match_svd_reference(self):
        # the Gram closed form squared the condition number; samples whose
        # rows are close to parallel must still match the SVD reference
        rng = np.random.default_rng(12)
        ratios = [1.0, 1e-2, 1e-4, 1e-6, 1e-7, 1e-8, 1e-9]
        A = np.empty((len(ratios), 2, 3))
        for i, r in enumerate(ratios):
            U = np.linalg.qr(rng.normal(size=(2, 2)))[0]
            V = np.linalg.qr(rng.normal(size=(3, 2)))[0]
            A[i] = U @ np.diag([1.0, r]) @ V.T
        V, B = rng.normal(size=(len(ratios), 3)), rng.normal(size=(len(ratios), 2))
        NV, AB = null_space_apply(A, V), split_action(A, B, V)[0]
        for i in range(len(ratios)):
            proj = null_projector(A[i])
            assert proj.sigma_ratio == pytest.approx(ratios[i], rel=1e-6)
            ref = proj.A_pinv @ B[i]
            assert np.linalg.norm(AB[i] - ref) <= 1e-6 * np.linalg.norm(ref)
            assert np.allclose(NV[i], proj.N @ V[i], rtol=0.0, atol=1e-6)

    def test_gram_solve_masks_rank_deficient_k3_systems(self):
        # the rank-deficient samples the Gram solve masked are the ones whose
        # LQ has a dependent row: a zero R column and a zero q row
        A, _, B = self._stack(3, 4, seed=4)
        A[7, 2] = A[7, 0] - 0.5 * A[7, 1]  # rank 2: an exactly singular Gram matrix
        Q, R = lq_factor(A)  # rows first: Q (k, n, S), R (k, k, S)
        dependent = np.diagonal(R) == 0.0
        assert np.array_equal(np.flatnonzero(dependent.any(axis=1)), [5, 7, 11])
        assert np.array_equal(R[:, 2, 7], np.zeros(3)) and np.array_equal(Q[2, :, 7], np.zeros(4))
        assert np.abs(np.einsum("kls,lns->skn", R, Q) - A).max() <= 1e-14 * np.abs(A).max()
        V = split_action(A, B, np.zeros((len(A), 4)))[0]
        for i in np.flatnonzero(~dependent.any(axis=1)):
            ref = pseudo_inverse(A[i]) @ B[i]
            assert np.linalg.norm(V[i] - ref) <= 1e-12 * max(np.linalg.norm(ref), 1.0)

    def test_zero_matrix_leaves_vectors_alone(self):
        A, V, _ = self._stack(2, 3, seed=1)
        assert np.array_equal(null_space_apply(A, V)[5], V[5])

    def test_selection_stack_matches_single_states(self):
        arm = PlanarArm((0.1, 0.2, 0.15))
        model = SelectionConstraint(lam=diagonal_selection((1, 0, 1)),
                                    feature=lambda q: jacobian(arm, q))
        X = np.random.default_rng(2).uniform(-np.pi, np.pi, size=(12, 3))
        A = model.A_stack(X)
        assert A.shape == (12, 2, 3)
        for i in range(12):
            assert np.allclose(A[i], model.A_at(X[i]), rtol=0.0, atol=1e-15)

    def test_non_broadcasting_feature_rejected(self):
        model = SelectionConstraint(lam=diagonal_selection((1, 0, 0)),
                                    feature=lambda x: np.eye(3))
        with pytest.raises(ValueError):
            model.A_stack(np.zeros((4, 3)))

    def test_stacked_projector_matches_single_matrices(self):
        A, _, _ = self._stack(2, 3, seed=3)
        stacked = null_projector(A)
        for i in range(A.shape[0]):
            single = null_projector(A[i])
            assert np.allclose(stacked.A_pinv[i], single.A_pinv, rtol=0.0, atol=1e-12)
            assert np.allclose(stacked.N[i], single.N, rtol=0.0, atol=1e-12)
            s = np.linalg.svd(A[i], compute_uv=False)
            expected = s[-1] / s[0] if s[0] > 0.0 else 0.0
            assert stacked.sigma_ratio[i] == pytest.approx(expected, abs=1e-15)
            assert single.sigma_ratio == stacked.sigma_ratio[i]
        assert stacked.sigma_ratio[5] == 0.0

    def test_sigma_ratio_ignores_units(self):
        A = np.array([[1.0, 0.0, 0.0], [0.0, 0.19, 0.0]])
        assert null_projector(A).sigma_ratio == pytest.approx(0.19)
        assert null_projector(1e-10 * A).sigma_ratio == pytest.approx(0.19)


class TestGramSolveK3:
    """k = 3 Gram systems A A^T z = b: split_action's v = A^T z against LAPACK's solve of G."""

    @staticmethod
    def reference(G, B):
        # LAPACK's solve of G where det G > 1e-6 prod(diag G) keeps it
        # within about 2.2e-10 in the units sqrt(diag G) z
        diag = np.prod(np.diagonal(G, axis1=1, axis2=2), axis=1)
        ok = np.linalg.det(G) > 1e-6 * diag
        Z = np.zeros(B.shape)
        Z[ok] = np.linalg.solve(G[ok], B[ok][:, :, None])[:, :, 0]
        return Z, ok

    @staticmethod
    def rows(seed, size, near_parallel):
        # three rows in R^4 per sample, each scaled by 1e-6 .. 1e6; with
        # near_parallel, two of them (in random places) are 1e-5 to 3e-3 rad
        # apart, and the last sample's are exactly parallel
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(size, 3, 4))
        if near_parallel:
            a = A[:, 0] / np.linalg.norm(A[:, 0], axis=1, keepdims=True)
            c = A[:, 1] - dot_last(A[:, 1], a)[:, None] * a
            c /= np.linalg.norm(c, axis=1, keepdims=True)
            t = 10.0 ** rng.uniform(-5.0, -2.5, size)[:, None]
            A[:, 0], A[:, 1] = a, np.cos(t) * a + np.sin(t) * c
            A[-1, 1] = A[-1, 0]  # exactly parallel
            order = rng.permuted(np.tile([0, 1, 2], (size, 1)), axis=1)
            A = np.take_along_axis(A, order[:, :, None], axis=1)
        A[-2] = 0.0  # a zero matrix
        A *= 10.0 ** rng.uniform(-6.0, 6.0, (size, 3, 1))
        G = np.einsum("skj,slj->skl", A, A)
        return A, G, rng.normal(size=(size, 3)) * np.sqrt(np.diagonal(G, axis1=1, axis2=2))

    @pytest.mark.parametrize("near_parallel", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_lapack(self, seed, near_parallel):
        A, G, B = self.rows(seed, 5000, near_parallel)
        V, _, ratio = split_action(A, B, np.zeros((len(A), 4)))
        Z_ref, ok = self.reference(G, B)
        assert 0 < ok.sum() < len(ok) if near_parallel else ok.sum() == len(ok) - 1
        # the zero matrix and the parallel rows are the dependent samples
        R = lq_factor(A)[1]
        dependent = np.any(np.diagonal(R) == 0.0, axis=1)
        assert np.array_equal(np.flatnonzero(dependent),
                              [len(A) - 2, len(A) - 1] if near_parallel else [len(A) - 2])
        assert np.all(ratio[dependent] == 0.0)
        # compared in the units sqrt(diag G) z of the Gram solve
        s = np.sqrt(np.diagonal(G, axis1=1, axis2=2))[ok]
        err = np.linalg.norm(V[ok] - np.einsum("skj,sk->sj", A[ok], Z_ref[ok]), axis=1)
        assert np.all(err <= 1e-8 * np.linalg.norm(s * Z_ref[ok], axis=1))
        # every independent sample, whatever its conditioning, solves A v = b
        # to rounding in each row's own scale
        s = np.sqrt(np.diagonal(G, axis1=1, axis2=2))[~dependent]
        resid = (np.einsum("skj,sj->sk", A[~dependent], V[~dependent]) - B[~dependent]) / s
        assert np.all(np.linalg.norm(resid, axis=1)
                      <= 1e-14 * np.linalg.norm(V[~dependent], axis=1))


class TestSplitAction:
    """split_action against per-sample null_projector, the SVD reference."""

    ARM = PlanarArm((0.1, 0.1, 0.1))

    def arm_stack(self, k, seed, size=300):
        # random three-link states under random orthonormal Lambda rows
        rng = np.random.default_rng(seed)
        lam = build_constraint_rows(rng.uniform(-np.pi, np.pi, spherical_param_count(k, 3)), k, 3)
        A = lam @ jacobian(self.ARM, rng.uniform(-np.pi, np.pi, size=(size, 3)))
        return A, rng.normal(size=(size, k)), rng.normal(size=(size, 3))

    @staticmethod
    def hard_rows(seed):
        # unequal row norms (g11/g00 down to 1e-20) and near-parallel rows
        rng = np.random.default_rng(seed)
        A = []
        for scale in (1.0, 1e-3, 1e-6, 1e-8, 1e-10):
            a, c = rng.normal(size=3), rng.normal(size=3)
            c -= (c @ a) / (a @ a) * a
            A.append([a, scale * c / np.linalg.norm(c) * np.linalg.norm(a)])
            A.append([a, scale * (a + 0.3 * c)])
        for delta in (1e-2, 1e-3, 1e-4, 1e-6, 1e-8, 1e-10, 0.0):
            a, c = rng.normal(size=3), rng.normal(size=3)
            A.append([a, 1.7 * a + delta * c])
        A = np.array(A)
        return A, rng.normal(size=(len(A), 2)), rng.normal(size=(len(A), 3))

    @staticmethod
    def check(A, B, PI):
        V, W, ratio = split_action(A, B, PI)
        for i in range(len(A)):
            proj = null_projector(A[i])
            assert ratio[i] == pytest.approx(proj.sigma_ratio, rel=1e-6, abs=1e-300), i
            if proj.sigma_ratio < 1e-9:
                # rollouts stop below 1e-10, where the SVD also drops the small
                # singular value; v and w are compared only above both
                continue
            v_ref, w_ref = proj.A_pinv @ B[i], proj.N @ PI[i]
            assert np.linalg.norm(V[i] - v_ref) <= 1e-9 * np.linalg.norm(v_ref), i
            assert np.linalg.norm(W[i] - w_ref) <= 1e-9 * np.linalg.norm(PI[i]), i
        return ratio

    @pytest.mark.parametrize("k", [1, 2])
    def test_matches_per_sample_projector_on_arm_states(self, k):
        ratio = self.check(*self.arm_stack(k, seed=40 + k))
        assert np.all(ratio > 0.0)

    def test_zero_and_k1_rows(self):
        A, B, PI = self.arm_stack(1, seed=44, size=20)
        A[3] = 0.0
        ratio = self.check(A, B, PI)
        assert ratio[3] == 0.0
        assert np.all(np.delete(ratio, 3) == 1.0)

    def test_three_rows_take_the_svd(self):
        rng = np.random.default_rng(47)
        A = rng.normal(size=(10, 3, 4))
        B, PI = rng.normal(size=(10, 3)), rng.normal(size=(10, 4))
        self.check(A, B, PI)


class TestSplitActionOneSample:
    """A stack of one sample must give the bits of a row of a larger stack."""

    @staticmethod
    def one_and_two(A, b, pi):
        one = split_action(A[None], b[None], pi[None])
        two = split_action(np.stack([A, A]), np.stack([b, b]), np.stack([pi, pi]))
        return one, two

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("n", [3, 7])
    def test_equals_row_0_of_the_batched_result(self, k, n):
        rng = np.random.default_rng(70 + 10 * k + n)
        for i in range(300):
            A = rng.normal(size=(k, n)) * 10.0 ** rng.integers(-3, 4)
            b, pi = rng.normal(size=k), rng.normal(size=n)
            if i % 3 == 0:
                A[:, rng.integers(n)] = 0.0
                pi[rng.integers(n)] = -0.0
            one, two = self.one_and_two(A, b, pi)
            for got, ref in zip(one, two):
                assert got.shape == ref[:1].shape and same_bits(got, ref[:1]), i

    @staticmethod
    def fallbacks():
        # the samples the Gram closed forms handed to the SVD
        rng = np.random.default_rng(48)
        a, c = rng.normal(size=3), rng.normal(size=3)
        # rows 1e-4 rad apart: det / prod(diag) is about 1e-8
        near = np.array([a, a + 1e-4 * np.linalg.norm(a) * c / np.linalg.norm(c)])
        return [np.zeros((1, 3)), near, rng.normal(size=(3, 4))]

    @pytest.mark.parametrize("case", [0, 1, 2], ids=["zero_row", "near_parallel", "k3"])
    def test_fallbacks_equal_the_svd(self, case):
        A = self.fallbacks()[case]
        k, n = A.shape
        rng = np.random.default_rng(49)
        b, pi = rng.normal(size=k), rng.normal(size=n)
        one, two = self.one_and_two(A, b, pi)
        proj = null_projector(A)
        for got, batched, ref in zip(one, two, (proj.A_pinv @ b, proj.N @ pi)):
            assert same_bits(got, batched[:1])
            if proj.sigma_ratio == 0.0:
                assert np.array_equal(got[0], ref)
            else:  # both sides are accurate to about eps / ratio
                tol = 1e-15 * (1.0 + np.abs(ref).max()) / proj.sigma_ratio
                assert np.allclose(got[0], ref, rtol=0.0, atol=tol)
        assert one[2][0] == pytest.approx(proj.sigma_ratio, rel=1e-6, abs=1e-300)


def rotated_rows(rng, k, n, angle):
    """k random rows in R^n and a (k+1)-th at `angle` rad from the first, in random scales."""
    A = rng.normal(size=(k + 1, n))
    a = A[0] / np.linalg.norm(A[0])
    c = A[k] - (A[k] @ a) * a
    A[k] = np.cos(angle) * a + np.sin(angle) * c / np.linalg.norm(c)
    return A * 10.0 ** rng.uniform(-3.0, 3.0, (k + 1, 1))


class TestLqAgainstSvdOracle:
    """lq_factor's paths (null_space_apply, split_action, split_floats) against the SVD."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_random_stacks(self, k):
        rng = np.random.default_rng(90 + k)
        for n in range(k, 8):
            A = rng.normal(size=(200, k, n)) * 10.0 ** rng.uniform(-3.0, 3.0, (200, k, 1))
            V, B = rng.normal(size=(200, n)), rng.normal(size=(200, k))
            v, w, ratio = split_action(A, B, V)
            proj = null_projector(A)
            assert np.allclose(ratio, proj.sigma_ratio, rtol=1e-6, atol=0.0)
            tol = 1e-13 / proj.sigma_ratio[:, None]
            assert np.all(np.abs(null_space_apply(A, V) - np.einsum("sij,sj->si", proj.N, V))
                          <= tol)
            assert np.all(np.abs(w - np.einsum("sij,sj->si", proj.N, V)) <= tol)
            v_ref = np.einsum("sjk,sk->sj", proj.A_pinv, B)
            assert np.all(np.abs(v - v_ref) <= tol * np.abs(v_ref).max(axis=1, keepdims=True))

    @pytest.mark.parametrize("seed", [43, 45, 46])
    def test_unequal_norms_and_near_parallel_rows(self, seed):
        # A^+ b has condition number 1 / ratio, so both sides are accurate to
        # about eps / ratio; against exact rationals at ratio 2.2e-9 the LQ
        # read 3.1e-9 relative and the SVD 1.0e-8
        A, B, PI = TestSplitAction.hard_rows(seed)
        V, W, ratio = split_action(A, B, PI)
        proj = null_projector(A)
        for i in range(len(A)):
            if proj.sigma_ratio[i] < RANK_TOL:
                # a rollout stops on both: a dependent row gives ratio 0
                assert ratio[i] < RANK_TOL, i
                continue
            assert ratio[i] == pytest.approx(proj.sigma_ratio[i], rel=1e-6), i
            if proj.sigma_ratio[i] < 1e-9:
                continue  # rollouts stop below 1e-10, where the SVD drops the small value
            v_ref, w_ref = proj.A_pinv[i] @ B[i], proj.N[i] @ PI[i]
            tol = 1e-15 / proj.sigma_ratio[i]
            assert np.linalg.norm(V[i] - v_ref) <= tol * np.linalg.norm(v_ref), i
            assert np.linalg.norm(W[i] - w_ref) <= tol * np.linalg.norm(PI[i]), i
        if seed == 43:
            # the 1e-10 row is independent of the first, yet the ratio is tiny
            assert lq_factor(A[8:9])[1][1, 1, 0] > 0.0
            assert ratio[8] == pytest.approx(1e-10, rel=1e-6)
            assert ratio[-1] < 1e-15

    @pytest.mark.parametrize("case", ["zero", "repeated", "combined"])
    def test_exactly_rank_deficient(self, case):
        # exact zeros, or a third row that is a combination of the other two
        rng = np.random.default_rng(95)
        A = rng.normal(size=(50, 3, 5))
        if case == "zero":
            A[:] = 0.0
        elif case == "repeated":
            A[:, 2] = A[:, 0]
        else:
            A[:, 2] = 0.5 * A[:, 0] - 2.0 * A[:, 1]
        V = rng.normal(size=(50, 5))
        B = np.einsum("skj,sj->sk", A, rng.normal(size=(50, 5)))  # in the range of A
        v, w, ratio = split_action(A, B, V)
        proj = null_projector(A)
        NV = np.einsum("sij,sj->si", proj.N, V)
        assert np.allclose(null_space_apply(A, V), NV, rtol=0.0, atol=1e-12)
        assert np.allclose(w, NV, rtol=0.0, atol=1e-12)
        assert np.allclose(v, np.einsum("sjk,sk->sj", proj.A_pinv, B), rtol=0.0, atol=1e-12)
        assert np.all(ratio == 0.0) and np.all(ratio < RANK_TOL)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_near_parallel_rows_leave_no_residual(self, k):
        # |A N v| / (|A| |v|) stays at rounding, where the SVD's N reads
        # about 1e-9 at 1e-7 rad
        rng = np.random.default_rng(100 + k)
        for angle in (1e-1, 1e-3, 1e-5, 1e-7):
            A = np.array([rotated_rows(rng, k, k + 2, angle) for _ in range(300)])
            V = rng.normal(size=(300, k + 2))
            NV = null_space_apply(A, V)
            if k == 1:  # two rows: the one-state float path too
                NV = np.concatenate([NV, [split_floats(a.tolist(), [0.0, 0.0], v.tolist())[1]
                                          for a, v in zip(A, V)]])
                A, V = np.concatenate([A, A]), np.concatenate([V, V])
            resid = np.linalg.norm(np.einsum("skj,sj->sk", A, NV), axis=1)
            scale = np.linalg.norm(A, ord=2, axis=(1, 2)) * np.linalg.norm(V, axis=1)
            assert np.all(resid <= 1e-15 * scale), angle

    @pytest.mark.parametrize("k", [2, 3])
    def test_ratio_from_r(self, k):
        rng = np.random.default_rng(110 + k)
        for r in (1e-2, 1e-4, 1e-6, 1e-8, 1e-9):
            A = np.empty((50, k, k + 2))
            for i in range(50):
                U = np.linalg.qr(rng.normal(size=(k, k)))[0]
                W = np.linalg.qr(rng.normal(size=(k + 2, k)))[0]
                A[i] = U @ np.diag(np.r_[1.0, rng.uniform(r, 1.0, k - 2), r]) @ W.T
            ratio = split_action(A, np.zeros((50, k)), np.zeros((50, k + 2)))[2]
            assert np.allclose(ratio, null_projector(A).sigma_ratio, rtol=1e-6, atol=0.0), r

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("n", [3, 7])
    def test_float_solve_matches_the_batched_split(self, k, n):
        # the one-state float LQ against split_action on the same one-sample
        # stacks; both round differently, within 1e-15 (1 + |v| + |w|) / ratio
        rng = np.random.default_rng(120 + 10 * k + n)
        cases = [rng.normal(size=(k, n)) * 10.0 ** rng.uniform(-3.0, 3.0, (k, 1))
                 for _ in range(300)]
        if k == 2:
            cases += [rotated_rows(rng, 1, n, angle) for angle in (1e-2, 1e-4, 1e-6, 1e-8)]
            a = rng.normal(size=n)
            cases += [np.array([a, -2.0 * a]), np.array([np.zeros(n), a])]  # dependent rows
        cases += [np.zeros((k, n))]
        for A in cases:
            b, pi = rng.normal(size=k), rng.normal(size=n)
            if np.linalg.matrix_rank(A) < k:
                b = A @ rng.normal(size=n)  # in the range of A
            v, w, ratio = split_floats(A.tolist(), b.tolist(), pi.tolist())
            V, W, R = split_action(A[None], b[None], pi[None])
            tol = 1e-15 * (1.0 + np.abs(V).max() + np.abs(W).max())
            if R[0] == 0.0:  # a zero or dependent row, on both paths
                assert ratio == 0.0
            else:
                tol /= R[0]
                assert ratio == pytest.approx(R[0], rel=1e-15 / R[0], abs=0.0)
            assert np.allclose(v, V[0], rtol=0.0, atol=tol)
            assert np.allclose(w, W[0], rtol=0.0, atol=tol)


class TestSphericalConstraint:
    def test_pinv_is_transpose(self):
        model = SphericalConstraint(theta=(0.4, -0.2, 1.1), k=2, n=3)
        proj = model.projector_at(None)
        assert np.allclose(proj.A_pinv, proj.A.T, atol=1e-12)

    def test_config_round_trip(self):
        model = SphericalConstraint(theta=(0.3,), k=1, n=2)
        cfg = model.to_config()
        assert cfg["k"] == 1 and cfg["n"] == 2
        assert np.allclose(cfg["theta_rad"], [0.3])

    def test_agrees_with_selection_on_identity_feature(self):
        # axis-aligned selection over identity features equals the spherical
        # constraint at the matching angles
        lam = diagonal_selection((1, 0, 0))
        sel = SelectionConstraint(lam=lam, feature=lambda x: np.eye(3))
        sph = SphericalConstraint(theta=(0.0, 0.0), k=1, n=3)
        x = np.zeros(3)
        assert np.max(np.abs(sel.projector_at(x).N - sph.projector_at(x).N)) < 1e-10


class TestSelectionConstraint:
    def test_select_rates_picks_rows(self):
        lam = diagonal_selection((1, 0, 1))
        sel = SelectionConstraint(lam=lam, feature=lambda x: np.eye(3))
        rates = sel.select_rates(np.array([10.0, 20.0, 30.0]))
        assert np.allclose(rates, [10.0, 30.0])

    def test_k_property(self):
        assert SelectionConstraint(lam=diagonal_selection((0, 1, 0)),
                                   feature=lambda x: np.eye(3)).k == 1


class TestDiagonalSelection:
    def test_mask_form(self):
        assert np.array_equal(diagonal_selection((1, 0, 1)),
                              np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))

    def test_mask_length_is_the_feature_count(self):
        # [0, 1] is a mask over two rows, never the index list of rows 0 and 1
        assert np.array_equal(diagonal_selection([0, 1]), np.array([[0.0, 1.0]]))

    def test_rejects_bad_patterns(self):
        with pytest.raises(ValueError, match="picks no rows"):
            diagonal_selection((0, 0, 0))
        # index lists and entries other than 0 and 1
        for bad in ([2], [0, 2], [5], (1, 0.5, 0), (1, -1, 0), (1, np.nan, 0)):
            with pytest.raises(ValueError, match="only 0s and 1s"):
                diagonal_selection(bad)
