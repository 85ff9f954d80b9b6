"""Canonical dependence matrix, its SVD, and the feature-selection rule.

The canonical dependence matrix of a joint distribution,

    b[j, i] = (P(x_i, y_j) - P(x_i) P(y_j)) / sqrt(P(x_i) P(y_j)),

annihilates the sqrt-marginal directions on both sides, and its singular
values are the maximal-correlation coefficients of the pair.  The top-k
right/left singular vectors, divided entrywise by the sqrt-marginals,
are the optimal feature functions over X and Y.

`uncentered_b(K, p)` is the uncentered dependence matrix of a kernel K
(a channel's P, or a joint's P(y|x)) with input marginal p, and the one
push along the chain: it takes an attribute's information matrix on the
input to the output's.  Its top singular value is 1, at the sqrt-marginal
pair, and the spread of its spectrum grows as O(eta) for P = I + eta*T.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .geometry import FeatureSet
from .model import JointPmf, Pmf
from .svd import SvdResult, jacobi_svd

NULL_TOL = 1e-10
ZERO_SIGMA = 1e-10


@dataclass(frozen=True)
class CdmMatrix:
    """Centered, sqrt-normalized joint table with its cached SVD."""

    b: np.ndarray  # |Y| x |X|
    px: Pmf
    py: Pmf
    svd: SvdResult = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        b = np.array(self.b, dtype=float)
        rx = np.sqrt(self.px.probs)
        ry = np.sqrt(self.py.probs)
        if b.shape != (self.py.size, self.px.size):
            raise ValidationError(f"b shape {b.shape} does not match marginals")
        if np.max(np.abs(b @ rx)) > NULL_TOL:
            raise ValidationError("b does not annihilate sqrt(P_X)")
        if np.max(np.abs(b.T @ ry)) > NULL_TOL:
            raise ValidationError("b^T does not annihilate sqrt(P_Y)")
        res = jacobi_svd(b)
        if res.s.size and (res.s[0] > 1.0 + NULL_TOL or res.s[-1] < -NULL_TOL):
            raise ValidationError(
                f"singular values outside [0, 1]: top={res.s[0]!r}"
            )
        b.setflags(write=False)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "svd", res)

    @property
    def sigmas(self) -> np.ndarray:
        return self.svd.s


def canonical_dependence_matrix(joint: JointPmf) -> CdmMatrix:
    """Centered, sqrt-normalized dependence matrix of a joint.

    A zero marginal symbol raises a ValidationError.
    """
    px = joint.marginal_x()
    py = joint.marginal_y()
    for pmf, name in ((px, "x"), (py, "y")):
        if float(pmf.probs.min()) <= 0.0:
            z = pmf.labels[int(np.argmin(pmf.probs))]
            raise ValidationError(f"{name}-marginal of symbol {z!r} is zero")
    rx = np.sqrt(px.probs)
    ry = np.sqrt(py.probs)
    b = (joint.probs - np.outer(py.probs, px.probs)) / np.outer(ry, rx)
    return CdmMatrix(b=b, px=px, py=py)


def uncentered_b(kernel: np.ndarray, input_pmf: Pmf) -> np.ndarray:
    """Uncentered dependence matrix D_out^{-1/2} K D_in^{1/2} of (input, output)
    under the column-stochastic kernel K = P(output | input).

    An attribute whose information matrix on the input is Phi has this
    matrix times Phi on the output.  The top singular value is 1, at the
    sqrt-marginal pair.
    """
    input_pmf.require_positive()
    k = np.asarray(kernel, dtype=float)
    if k.ndim != 2 or k.shape[1] != input_pmf.size:
        raise ValidationError(
            f"kernel shape {k.shape}: needs one column per input symbol ({input_pmf.size})"
        )
    if np.any(k < 0):
        raise ValidationError(f"kernel has a negative entry {float(k.min())!r}")
    col_err = float(np.max(np.abs(k.sum(axis=0) - 1.0)))
    if not col_err <= 1e-11:  # NaN fails every comparison
        raise ValidationError(f"kernel columns miss a sum of 1 by {col_err:g}")
    out = k @ input_pmf.probs
    if float(out.min()) <= 0.0:
        raise ValidationError(f"output symbol {int(np.argmin(out))} has zero probability")
    return (k * np.sqrt(input_pmf.probs)[None, :]) / np.sqrt(out)[:, None]


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


def _deflate_root(vec: np.ndarray, root: np.ndarray) -> np.ndarray:
    """Remove any sqrt-marginal component and renormalize."""
    v = vec - float(root @ vec) * root
    norm = float(np.linalg.norm(v))
    if norm <= 0.5:
        raise ValidationError("feature direction collapsed onto sqrt-marginal")
    return v / norm


def _feature_directions(
    vectors: np.ndarray, live: int, k: int, root: np.ndarray
) -> np.ndarray:
    """Top-k singular vectors, kept orthogonal to the sqrt-marginal.

    The first `live` vectors pair with nonzero singular values.  The rest
    live in a null space that also contains the sqrt-marginal; they are
    replaced by the orthonormal completion of the sqrt-marginal and the
    kept vectors, so they do not depend on the SVD's choice of null basis.
    """
    kept = np.column_stack(
        [root] + [_deflate_root(vectors[:, j], root) for j in range(live)]
    )
    return np.column_stack([kept[:, 1:], complete_orthonormal(kept, k - live)])


def select_features(cdm: CdmMatrix, k: int) -> tuple[FeatureSet, FeatureSet]:
    """Top-k SVD features (f over X, g over Y) of the dependence matrix.

    The caller builds `cdm` once per joint and reads its spectrum
    (`cdm.sigmas`) from the same object.

    f_i(x) = v_i(x) / sqrt(P_X(x)) and g_i(y) = u_i(y) / sqrt(P_Y(y)) for
    the i-th right/left singular vector pair.
    """
    k_max = min(cdm.px.size, cdm.py.size) - 1
    if not 1 <= k <= k_max:
        raise ValidationError(f"k={k} outside valid range 1..{k_max}")
    live = int(np.sum(cdm.sigmas[:k] > ZERO_SIGMA))
    rx = np.sqrt(cdm.px.probs)
    ry = np.sqrt(cdm.py.probs)
    f = FeatureSet(h=_feature_directions(cdm.svd.v, live, k, rx) / rx[:, None], base=cdm.px)
    g = FeatureSet(h=_feature_directions(cdm.svd.u, live, k, ry) / ry[:, None], base=cdm.py)
    return f, g
