import numpy as np
import pytest

from maxcorr.errors import ValidationError
from maxcorr.svd import _complete_orthonormal, canonical_sign, jacobi_svd


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
        # n < m goes through the transpose flip; 1 of 3 sigmas is nonzero
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
    out = _complete_orthonormal(np.eye(3)[:, :1], 2)
    assert np.array_equal(out, np.eye(3)[:, 1:])
