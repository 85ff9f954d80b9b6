import numpy as np
import pytest

from conftest import rotated_null_svd

from maxcorr.dependence import complete_orthonormal
from maxcorr.errors import ValidationError
from maxcorr.svd import canonical_sign, jacobi_svd


def assert_valid_svd(a, res, tol=1e-10):
    n, m = a.shape
    r = min(n, m)
    assert res.u.shape == (n, r)
    assert res.v.shape == (m, r)
    assert np.max(np.abs(res.u.T @ res.u - np.eye(r))) < tol
    assert np.max(np.abs(res.v.T @ res.v - np.eye(r))) < tol
    assert np.max(np.abs(res.reconstruct() - a)) < tol * max(1.0, np.abs(a).max())
    assert np.all(np.diff(res.s) <= 1e-15)


class TestJacobiSvd:
    def test_diagonal(self):
        a = np.diag([3.0, 1.0, 2.0])
        res = jacobi_svd(a)
        assert np.allclose(res.s, [3.0, 2.0, 1.0], atol=1e-14)
        assert_valid_svd(a, res)

    def test_matches_dense_oracle_random(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 9))
            m = int(rng.integers(1, 9))
            a = rng.normal(size=(n, m))
            res = jacobi_svd(a)
            oracle = np.linalg.svd(a, compute_uv=False)
            assert np.max(np.abs(res.s - oracle)) < 1e-10 * max(1.0, oracle[0])
            assert_valid_svd(a, res)

    def test_wide_matrix(self, rng):
        a = rng.normal(size=(2, 5))
        res = jacobi_svd(a)
        assert_valid_svd(a, res)
        assert np.max(np.abs(res.s - np.linalg.svd(a, compute_uv=False))) < 1e-12

    def test_rank_deficient_completion(self):
        a = np.outer([1.0, 2.0, 2.0], [0.0, 1.0, 1.0, 0.0])
        res = jacobi_svd(a)
        assert res.s[0] == pytest.approx(3.0 * np.sqrt(2.0), abs=1e-12)
        assert np.max(res.s[1:]) < 1e-12
        assert_valid_svd(a, res)

    def test_wide_rank_deficient(self, rng):
        # n < m: 1 of 3 sigmas is nonzero
        a = np.outer(rng.normal(size=3), rng.normal(size=6))
        res = jacobi_svd(a)
        assert np.max(res.s[1:]) < 1e-12
        assert_valid_svd(a, res)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        a = np.ones((2, 3))
        a[1, 2] = bad
        with pytest.raises(ValidationError, match=r"shape \(2, 3\).* at \(1, 2\)"):
            jacobi_svd(a)

    def test_zero_matrix(self):
        res = jacobi_svd(np.zeros((3, 2)))
        assert np.array_equal(res.s, np.zeros(2))
        assert_valid_svd(np.zeros((3, 2)), res)

    @pytest.mark.parametrize("shape", [(3, 0), (0, 3), (0, 0)])
    def test_empty_matrix(self, shape):
        res = jacobi_svd(np.zeros(shape))
        assert res.s.size == 0
        assert res.u.shape == (shape[0], 0)
        assert res.v.shape == (shape[1], 0)
        assert np.array_equal(res.reconstruct(), np.zeros(shape))

    def test_sign_convention(self, rng):
        for _ in range(20):
            a = rng.normal(size=(4, 4))
            res = jacobi_svd(a)
            for j in range(4):
                col = res.v[:, j]
                assert col[int(np.argmax(np.abs(col)))] > 0

    def test_deterministic(self, rng):
        a = rng.normal(size=(6, 4))
        r1 = jacobi_svd(a)
        r2 = jacobi_svd(a.copy())
        assert np.array_equal(r1.s, r2.s)
        assert np.array_equal(r1.u, r2.u)
        assert np.array_equal(r1.v, r2.v)

    def test_live_columns_independent_of_null_rotation(self, monkeypatch):
        # rank 1: three zero sigmas on each side, whose vectors LAPACK may
        # return in any rotation; the nonzero-sigma pair must not move
        a = np.outer([1.0, 2.0, 2.0, 0.5], [0.0, 1.0, 1.0, 3.0])
        want = jacobi_svd(a)
        monkeypatch.setattr(np.linalg, "svd", rotated_null_svd)
        got = jacobi_svd(a)
        assert_valid_svd(a, got)
        assert np.array_equal(got.s, want.s)
        assert np.array_equal(got.u[:, :1], want.u[:, :1])
        assert np.array_equal(got.v[:, :1], want.v[:, :1])

    @pytest.mark.parametrize("shape", [(2, 6), (3, 5), (6, 4)], ids=["2x6", "3x5", "6x4"])
    def test_sign_convention_every_shape(self, rng, shape):
        # wide matrices follow the right-vector rule too
        for _ in range(20):
            a = rng.normal(size=shape)
            res = jacobi_svd(a)
            top = res.v[np.argmax(np.abs(res.v), axis=0), np.arange(res.v.shape[1])]
            assert np.all(top > 0)
            assert np.max(np.abs(res.reconstruct() - a)) < 1e-12

    def test_tied_signs_match_canonical_sign(self, monkeypatch):
        # W: a Hadamard matrix / 2, so every singular vector has four entries
        # of magnitude exactly 0.5; columns 1 and 3 start negative and end
        # positive, so only a lowest-index tie rule flips them
        w = 0.5 * np.array([[1.0, -1.0, 1.0, -1.0],
                            [1.0, 1.0, -1.0, -1.0],
                            [1.0, -1.0, -1.0, 1.0],
                            [1.0, 1.0, 1.0, 1.0]])
        s = np.array([4.0, 3.0, 2.0, 0.0])
        v = w * np.array([1.0, 1.0, 1.0, -1.0])  # the zero-sigma pair signs freely
        a = w @ np.diag(s) @ v.T

        def oracle(u, v):
            signs = [canonical_sign(v[:, j]) for j in range(v.shape[1])]
            u_signs = [signs[j] if s[j] > 0 else canonical_sign(u[:, j])
                       for j in range(u.shape[1])]
            return u * u_signs, v * signs

        monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: (w.copy(), s, v.T.copy()))
        res = jacobi_svd(a)
        want_u, want_v = oracle(w, v)
        assert np.array_equal(res.u, want_u)
        assert np.array_equal(res.v, want_v)
        assert np.array_equal(res.u[0], [0.5, 0.5, 0.5, 0.5])
        assert np.array_equal(res.v[0], [0.5, 0.5, 0.5, 0.5])
        monkeypatch.undo()
        u, _, vt = np.linalg.svd(a, full_matrices=False)  # whatever LAPACK returns
        res = jacobi_svd(a)
        want_u, want_v = oracle(u, vt.T)
        assert np.array_equal(res.u, want_u)
        assert np.array_equal(res.v, want_v)

    def test_subspace_agreement_with_oracle(self, rng):
        # well-separated spectra: compare singular subspaces via projectors
        for _ in range(10):
            u, _ = np.linalg.qr(rng.normal(size=(5, 5)))
            v, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            s = np.array([2.0, 1.2, 0.6, 0.1])
            a = u[:, :4] @ np.diag(s) @ v.T
            res = jacobi_svd(a)
            for j in range(4):
                pj_ours = np.outer(res.v[:, j], res.v[:, j])
                uo, so, vo = np.linalg.svd(a)
                pj_oracle = np.outer(vo[j], vo[j])
                assert np.max(np.abs(pj_ours - pj_oracle)) < 1e-9


def test_canonical_sign_tie_lowest_index():
    assert canonical_sign(np.array([-0.5, 0.5])) == -1.0
    assert canonical_sign(np.array([0.5, -0.5])) == 1.0


def test_completion_tie_lowest_index():
    # e1 and e2 have equal out-of-span norms: the lower index comes first
    out = complete_orthonormal(np.eye(3)[:, :1], 2)
    assert np.array_equal(out, np.eye(3)[:, 1:])
