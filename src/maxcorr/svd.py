"""Canonicalised dense SVD: LAPACK ``gesdd`` through numpy.

``jacobi_svd`` makes one ``np.linalg.svd`` call, then fixes the signs of
the singular vectors, which LAPACK does not pin down.  Reruns are
byte-identical on one numpy/BLAS build; across builds the results agree
to last-place float noise, since LAPACK's kernels differ between them.
The name is that of the one-sided Jacobi routine this replaced, kept
because the benchmark traces ``svd.jacobi_svd``.

Sign convention, for every shape: each right singular vector is scaled so
that its largest-magnitude entry is positive (ties broken by lowest
index); the paired left vector is flipped in tandem so that
``U @ diag(s) @ V.T`` still reconstructs the input.  A left vector paired
with a zero singular value carries no reconstruction constraint and gets
the same rule on its own entries.  The zero-sigma columns themselves are
LAPACK's basis of the null spaces, which no output reads:
``dependence.select_features`` builds its zero-sigma features itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import require_finite

ZERO_SIGMA_TOL = 1e-13


def canonical_sign(v: np.ndarray) -> float:
    """+1 or -1 so that v * sign has its largest-magnitude entry positive."""
    idx = int(np.argmax(np.abs(v)))
    return -1.0 if v[idx] < 0 else 1.0


def _column_signs(a: np.ndarray) -> np.ndarray:
    """`canonical_sign` of every column of `a`, as one array operation.

    An array with no rows has nothing to sign: every column gets +1.
    """
    if a.shape[0] == 0:
        return np.ones(a.shape[1])
    top = a[np.argmax(np.abs(a), axis=0), np.arange(a.shape[1])]
    return np.where(top < 0, -1.0, 1.0)


@dataclass(frozen=True)
class SvdResult:
    """Economy SVD A = U @ diag(s) @ V.T with s sorted descending.

    U is (n, r), V is (m, r) with r = min(n, m); both have orthonormal
    columns.  Columns paired with numerically zero singular values are
    LAPACK's and carry canonical signs but no other convention.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.u @ (self.s[:, None] * self.v.T)


def jacobi_svd(a: np.ndarray) -> SvdResult:
    """Economy SVD of a finite real matrix, with canonical signs.

    A non-finite entry raises a ValidationError naming the shape and the
    index of the first such entry.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    require_finite(f"matrix of shape {a.shape}", a)
    u, sigma, vt = np.linalg.svd(a, full_matrices=False)
    v = vt.T
    sign = _column_signs(v)
    nonzero = sigma > ZERO_SIGMA_TOL * float(np.linalg.norm(a))
    v *= sign
    u *= np.where(nonzero, sign, _column_signs(u))
    return SvdResult(u=u, s=sigma, v=v)
