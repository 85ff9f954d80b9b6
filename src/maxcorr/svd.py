"""Canonicalised dense SVD: LAPACK ``gesdd`` through numpy.

``jacobi_svd`` makes one ``np.linalg.svd`` call, then fixes the signs of
the singular vectors and completes the zero-sigma columns of U and V from
canonical basis vectors, neither of which LAPACK pins down.  Reruns are
byte-identical on one numpy/BLAS build; across builds the results agree
to last-place float noise, since LAPACK's kernels differ between them.
The name is that of the one-sided Jacobi routine this replaced, kept
because the benchmark traces ``svd.jacobi_svd``.

Sign convention: each right singular vector is scaled so that its
largest-magnitude entry is positive (ties broken by lowest index); the
paired left vector is flipped in tandem so that ``U @ diag(s) @ V.T``
still reconstructs the input.  Vectors paired with zero singular values
carry no reconstruction constraint and are canonicalized independently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

ZERO_SIGMA_TOL = 1e-13


def canonical_sign(v: np.ndarray) -> float:
    """+1 or -1 so that v * sign has its largest-magnitude entry positive."""
    idx = int(np.argmax(np.abs(v)))
    return -1.0 if v[idx] < 0 else 1.0


@dataclass(frozen=True)
class SvdResult:
    """Economy SVD A = U @ diag(s) @ V.T with s sorted descending.

    U is (n, r), V is (m, r) with r = min(n, m); both have orthonormal
    columns.  Columns of U and V paired with numerically zero singular values
    are completed deterministically from canonical basis vectors.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.u @ (self.s[:, None] * self.v.T)


def complete_orthonormal(cols: np.ndarray, count: int) -> np.ndarray:
    """Append `count` orthonormal columns, built from canonical basis vectors.

    Each new column is the residual of the canonical basis vector with the
    largest out-of-span component (ties within 1e-12 broken by lowest
    index), which is deterministic and always well-conditioned.
    """
    n, k = cols.shape
    q = cols
    for _ in range(count):
        resid = np.eye(n) - q @ q.T  # column e: residual of basis vector e
        best, best_norm = 0, -1.0
        for e, norm in enumerate(np.linalg.norm(resid, axis=0).tolist()):
            if norm > best_norm + 1e-12:
                best, best_norm = e, norm
        if best_norm < 1e-8:
            raise RuntimeError("orthonormal completion failed")
        q = np.column_stack([q, resid[:, best] / best_norm])
    return q[:, k:]


def jacobi_svd(a: np.ndarray) -> SvdResult:
    """Economy SVD of a finite real matrix, with canonical signs and null basis.

    A non-finite entry raises a ValidationError naming the shape and the
    index of the first such entry.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    finite = np.isfinite(a)
    if not finite.all():
        idx = tuple(int(i) for i in np.argwhere(~finite)[0])
        raise ValidationError(
            f"matrix of shape {a.shape} has non-finite entry {float(a[idx])} at {idx}"
        )
    n, m = a.shape
    if n < m:
        flipped = jacobi_svd(a.T)
        return SvdResult(u=flipped.v, s=flipped.s, v=flipped.u)

    u, sigma, vt = np.linalg.svd(a, full_matrices=False)
    v = vt.T
    nonzero = sigma > ZERO_SIGMA_TOL * float(np.linalg.norm(a))
    k = int(nonzero.sum())
    u[:, k:] = complete_orthonormal(u[:, :k], m - k)
    v[:, k:] = complete_orthonormal(v[:, :k], m - k)

    for j in range(m):
        sign = canonical_sign(v[:, j])
        v[:, j] *= sign
        u[:, j] *= sign if nonzero[j] else canonical_sign(u[:, j])
    return SvdResult(u=u, s=sigma, v=v)
