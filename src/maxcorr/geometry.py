"""Local information geometry: attribute configurations, information
matrices, and normalized feature functions.

An epsilon-attribute W of Z is a latent variable whose conditionals
P(Z|W=w) all lie in the chi-square ball of radius epsilon around the base
distribution.  The information matrix collects the normalized deviation
vectors phi_w(z) = (P(z|w) - P(z)) / (eps * sqrt(P(z))); a conditional on
the ball boundary has a unit-norm column.

Configurations additionally enforce marginal consistency
(sum_w P(w) P(z|w) = P(z)): a latent attribute of Z must reproduce the
declared base.

`Configuration` and `InformationMatrix` also take a stack of C draws of one
attribute, shaped (C, |Z|, |W|), and run each check once over the whole
stack, at the same tolerances as for a single (|Z|, |W|) matrix.  A stack
stored draw axis innermost keeps that layout, so its checks run C-long loops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AlphabetMismatchError,
    FeasibilityError,
    RankDeficiencyError,
    ValidationError,
)
from .model import Pmf, _freeze, max_feasible_step
from .svd import canonical_sign

NULL_TOL = 1e-10
ORTHO_TOL = 1e-8
BALL_SLACK = 1e-9
RANK_TOL = 1e-10


def _chi2_columns(cond: np.ndarray, base: np.ndarray) -> np.ndarray:
    d = cond - base[:, None]
    return np.divide(np.multiply(d, d, out=d), base[:, None], out=d).sum(axis=-2)


@dataclass(frozen=True)
class Configuration:
    """An epsilon-attribute of Z: prior over W plus per-w conditionals.

    `conditionals` may also be a (C, |Z|, |W|) stack of C attributes.
    """

    base: Pmf
    prior: Pmf
    conditionals: np.ndarray  # |Z| x |W|, column w = P(Z | W=w)
    epsilon: float

    def __post_init__(self):
        self.base.require_positive()
        self.prior.require_positive()
        if not self.epsilon > 0:
            raise ValidationError("epsilon must be > 0")
        cond = _freeze(self.conditionals)
        nz, nw = self.base.size, self.prior.size
        if cond.ndim not in (2, 3) or cond.shape[-2:] != (nz, nw):
            raise ValidationError(
                f"conditionals shape {cond.shape}, expected ([C,] {nz}, {nw})"
            )
        if np.any(cond < 0):
            raise ValidationError("negative conditional probability")
        col_err = np.max(np.abs(cond.sum(axis=-2) - 1.0))
        if col_err > 1e-12:
            raise ValidationError(f"conditional columns off by {col_err:g}")
        chi2 = _chi2_columns(cond, self.base.probs)
        limit = self.epsilon**2 * (1.0 + BALL_SLACK) + 1e-15
        if np.any(chi2 > limit):
            w = self.prior.labels[int(np.argmax(chi2)) % nw]
            raise ValidationError(
                f"conditional for w={w!r} outside the epsilon-ball: "
                f"chi2={chi2.max():.6g} > eps^2={self.epsilon**2:.6g}"
            )
        mix = cond @ self.prior.probs
        err = np.max(np.abs(mix - self.base.probs))
        if err > NULL_TOL:
            raise ValidationError(
                f"prior-weighted conditionals miss the base by {err:g}"
            )
        object.__setattr__(self, "conditionals", cond)


@dataclass(frozen=True)
class InformationMatrix:
    """Columns are information vectors of a configuration's conditionals.

    `phi` may also be a (C, |Z|, |W|) stack of C information matrices.
    """

    phi: np.ndarray  # |Z| x |W|
    epsilon: float
    base: Pmf

    def __post_init__(self):
        phi = _freeze(self.phi)
        if phi.ndim not in (2, 3) or phi.shape[-2] != self.base.size:
            raise ValidationError(f"phi shape {phi.shape} does not match base")
        norms = np.linalg.norm(phi, axis=-2)
        if np.any(norms > 1.0 + NULL_TOL):
            raise ValidationError(
                f"information column norm {norms.max():.12g} exceeds 1"
            )
        root = np.sqrt(self.base.probs)
        overlap = np.max(np.abs(root @ phi)) if phi.size else 0.0
        if overlap > NULL_TOL:
            raise ValidationError(
                f"columns not orthogonal to sqrt(base): overlap {overlap:g}"
            )
        object.__setattr__(self, "phi", phi)


def information_phi(
    conditionals: np.ndarray, base: np.ndarray, epsilon: float
) -> np.ndarray:
    """phi[i, j] = (P(z_i | w_j) - P(z_i)) / (eps * sqrt(P(z_i))), unvalidated.

    The formula behind :func:`information_matrix`, which validates its
    result; on one (|Z|, |W|) matrix or a stack of them.
    """
    return (conditionals - base[:, None]) / (epsilon * np.sqrt(base)[:, None])


def information_matrix(config: Configuration) -> InformationMatrix:
    """The validated information matrix of a configuration."""
    phi = information_phi(config.conditionals, config.base.probs, config.epsilon)
    return InformationMatrix(phi=phi, epsilon=config.epsilon, base=config.base)


def max_feasible_epsilon(base: Pmf, phi: np.ndarray) -> float:
    """Largest eps keeping P(z) + eps*sqrt(P(z))*phi inside [0, 1] entrywise
    (for every matrix of a stack)."""
    step = np.sqrt(base.probs)[:, None] * np.asarray(phi, dtype=float)
    return max_feasible_step(base.probs[:, None], step)


def config_from_information_matrix(
    base: Pmf,
    prior: Pmf,
    phi: InformationMatrix,
    epsilon: float,
) -> Configuration:
    """Invert the information-matrix map back to explicit conditionals.

    A stacked `phi` gives a stacked configuration, validated in one pass.
    """
    if phi.base.labels != base.labels:
        raise AlphabetMismatchError("phi base does not match supplied base")
    cond = epsilon * np.sqrt(base.probs)[:, None] * phi.phi
    cond += base.probs[:, None]
    if np.any(cond < 0) or np.any(cond > 1):
        raise FeasibilityError(
            "epsilon too large for this direction", max_feasible_epsilon(base, phi.phi)
        )
    return Configuration(base=base, prior=prior, conditionals=cond, epsilon=epsilon)


@dataclass(frozen=True)
class FeatureSet:
    """k zero-mean, unit-covariance feature functions on a base alphabet."""

    h: np.ndarray  # |Z| x k, column i = feature i
    base: Pmf

    def __post_init__(self):
        h = _freeze(self.h)
        if h.ndim != 2 or h.shape[0] != self.base.size:
            raise ValidationError(f"h shape {h.shape} does not match base")
        p = self.base.probs
        means = p @ h
        if h.size and np.max(np.abs(means)) > NULL_TOL:
            raise ValidationError(
                f"feature means not zero: max |E[h]| = {np.abs(means).max():g}"
            )
        gram = (h * p[:, None]).T @ h
        if h.size and np.max(np.abs(gram - np.eye(h.shape[1]))) > ORTHO_TOL:
            raise ValidationError("features not orthonormal under the base")
        object.__setattr__(self, "h", h)

    @property
    def k(self) -> int:
        return self.h.shape[1]

    def mean_under(self, p: np.ndarray) -> np.ndarray:
        """Expected feature vector when Z ~ p."""
        return np.asarray(p, dtype=float) @ self.h


def normalize_features(raw: np.ndarray, base: Pmf) -> FeatureSet:
    """Center and orthonormalize raw feature columns under the base measure.

    Columns are processed in input order with P-weighted Gram-Schmidt;
    a column whose centered residual norm falls below RANK_TOL (relative)
    is rejected rather than pseudo-inverted.
    """
    base.require_positive()
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 2 or raw.shape[0] != base.size:
        raise ValidationError(f"raw shape {raw.shape} does not match base")
    p = base.probs
    done: list[np.ndarray] = []
    for j in range(raw.shape[1]):
        col = raw[:, j] - float(p @ raw[:, j])
        scale = max(1.0, float(np.sqrt(p @ (raw[:, j] ** 2))))
        for q in done:
            col = col - float(p @ (col * q)) * q
        norm = float(np.sqrt(p @ (col * col)))
        if norm <= RANK_TOL * scale:
            raise RankDeficiencyError(
                f"column {j} is linearly dependent after centering", column=j
            )
        col = col / norm
        col = col * canonical_sign(col)
        done.append(col)
    return FeatureSet(h=np.column_stack(done), base=base)


def feature_vectors(fs: FeatureSet) -> np.ndarray:
    """psi_i(z) = sqrt(P(z)) * h_i(z); columns orthonormal, orthogonal to sqrt(P)."""
    return np.sqrt(fs.base.probs)[:, None] * fs.h
