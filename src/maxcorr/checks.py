"""The property checks behind `maxcorr verify` and the acceptance suite.

One function per property; each judges the inputs it is handed and returns a
:class:`Check`.  Every predicate and tolerance lives here.  Like the
statistics of :mod:`maxcorr.symmetry`, no check draws: callers draw from
seeds.  Case iterables may be generators that draw one block per case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .dependence import canonical_dependence_matrix, select_features, uncentered_b
from .ensemble import chain_residual
from .exponent import analytic_pairwise_exponent, iprojection_exponent
from .geometry import (
    Configuration,
    InformationMatrix,
    config_from_information_matrix,
    feature_vectors,
)
from .model import Channel, JointPmf, Pmf
from .svd import jacobi_svd
from .symmetry import (
    delta_report,
    moment_symmetry_report,
    projection_bound_check,
    propagation_check,
    variance_bump,
)

# a weakly-but-not-exactly symmetric ensemble of known delta (0.5)
BUMP = variance_bump(2, 2, 1.5)
# channel strengths of the O(eta) fits; a fitted log-log slope must be 1 +- 0.2
ETAS = (0.01, 0.02, 0.04, 0.08)


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def _slope_ok(values: list[float]) -> tuple[bool, float]:
    slope = float(np.polyfit(np.log(ETAS), np.log(values), 1)[0])
    return abs(slope - 1.0) <= 0.2, slope


def cdm_null_directions(joints: Iterable[JointPmf],
                        product_joints: Iterable[JointPmf] = ()) -> Check:
    """B annihilates sqrt(p_X) and sqrt(p_Y) and its sigmas lie in [0, 1] and
    match a dense SVD; the B of a product joint is exactly zero."""
    null = svd = 0.0
    ok = True
    for joint in joints:
        cdm = canonical_dependence_matrix(joint)
        null = max(null, float(np.abs(cdm.b @ np.sqrt(cdm.px.probs)).max()),
                   float(np.abs(cdm.b.T @ np.sqrt(cdm.py.probs)).max()))
        oracle = np.linalg.svd(cdm.b, compute_uv=False)
        svd = max(svd, float(np.abs(cdm.sigmas - oracle).max()),
                  float(np.abs(cdm.svd.reconstruct() - cdm.b).max()))
        ok &= bool(np.all(cdm.sigmas >= -1e-15) and np.all(cdm.sigmas <= 1.0 + 1e-10))
    for joint in product_joints:
        cdm = canonical_dependence_matrix(joint)
        ok &= bool(not cdm.b.any() and float(np.max(cdm.sigmas)) == 0.0)
    return Check("cdm_null_directions", ok and null < 1e-10 and svd < 1e-10,
                 f"null overlap {null:.2e}, svd-vs-oracle {svd:.2e}")


def feature_normalization(joints: Iterable[JointPmf]) -> Check:
    """SVD features of every count k, on both sides, have zero mean and an
    identity Gram matrix under their base."""
    mean = gram = 0.0
    for joint in joints:
        cdm = canonical_dependence_matrix(joint)
        for k in range(1, min(len(joint.x_labels), len(joint.y_labels))):
            for fs in select_features(cdm, k):
                p = fs.base.probs
                mean = max(mean, float(np.abs(p @ fs.h).max()))
                gram_k = (fs.h * p[:, None]).T @ fs.h
                gram = max(gram, float(np.abs(gram_k - np.eye(k)).max()))
    return Check("feature_normalization", mean < 1e-10 and gram < 1e-8,
                 f"max |E f| {mean:.2e}, max |E ff^T - I| {gram:.2e}")


def variance_bump_delta(delta_block: np.ndarray, moment_block: np.ndarray) -> Check:
    """delta_hat and the entry-moment spread of :data:`BUMP` draws recover its
    delta within 0.05; the mean and cross-covariance stay within their bars."""
    target = BUMP.declared_delta
    d = delta_report(delta_block).delta
    lem = moment_symmetry_report(moment_block)
    ok = (abs(d - target) <= 0.05 and abs(lem.max_moment_spread - target) <= 0.05
          and lem.mean_norm <= lem.mean_norm_bar
          and lem.max_cross_covariance <= lem.max_cross_covariance_bar)
    return Check("variance_bump_delta", bool(ok),
                 f"delta_hat {d:.4f}, moment spread {lem.max_moment_spread:.4f} "
                 f"(target {target} +- 0.05)")


def projection_bound(cases: Iterable[tuple]) -> Check:
    """The projection bound holds within its margin in every (block, G, H,
    delta) case."""
    verdicts = [bool(projection_bound_check(*case).passed) for case in cases]
    return Check("projection_bound", all(verdicts),
                 f"{sum(verdicts)}/{len(verdicts)} projection-bound checks passed")


def push_forward_bound(cases: Iterable[tuple]) -> Check:
    """delta(BA) <= gamma(B, delta, alpha) within its margin in every (block, B)
    case; B = I gives gamma = delta and leaves delta within the margin."""
    passed = total = 0
    identity_ok = True
    for block, b in cases:
        res = propagation_check(block, b)
        passed += bool(res.passed)
        total += 1
        if np.array_equal(b, np.eye(b.shape[0])):
            identity_ok &= bool(abs(res.delta_bound - res.delta_in) <= 1e-12
                                and abs(res.delta_out - res.delta_in) <= res.margin)
    return Check("push_forward_bound", passed == total and identity_ok,
                 f"{passed}/{total} propagation checks passed, "
                 f"identity case gamma=delta {identity_ok}")


def _spectral_spread(b: np.ndarray) -> float:
    s = jacobi_svd(b).s
    return float(s[0] ** 2 - s[-1] ** 2)


def channel_spectrum_slope(cases: Iterable[tuple]) -> Check:
    """The spectral spread sigma_max^2 - sigma_min^2 of the uncentered B of
    `make(eta)` at `p` grows as O(eta) over :data:`ETAS`, in every (make, p)
    case."""
    fits = [_slope_ok([_spectral_spread(uncentered_b(make(eta).P, p)) for eta in ETAS])
            for make, p in cases]
    return Check("channel_spectrum_slope", all(ok for ok, _ in fits),
                 "slope " + ", ".join(f"{s:.3f}" for _, s in fits))


def markov_residual(config: Configuration, joint: JointPmf,
                    make_x: Callable[[float], Channel], chan_y: Channel) -> Check:
    """The chain residual of `config`, an attribute of the clean X of `joint`,
    through (`make_x(eta)`, `chan_y`) is O(eta) over :data:`ETAS`, with no
    residual without X noise (eta = 0) even though `chan_y` is noisy."""
    def norm(eta: float) -> float:
        return float(np.abs(chain_residual(config, joint, make_x(eta), chan_y)).max())

    res0 = norm(0.0)
    slope_ok, slope = _slope_ok([norm(eta) for eta in ETAS])
    return Check("markov_residual", bool(res0 < 1e-12 and slope_ok),
                 f"eta=0 residual {res0:.1e}, slope {slope:.3f}")


def exponent_consistency(base: Pmf, prior: Pmf,
                         pairs: Iterable[tuple]) -> Check:
    """For each (phi, f) pair, the analytic exponent of phi's first two
    attributes is within 5% of the exact I-projection one at eps = 0.02, and
    that gap is at most half the one at 0.08 (the o(eps^2) trend)."""
    gaps = []
    for phi, fs in pairs:
        psi = feature_vectors(fs)
        gap = []
        for eps in (0.02, 0.08):
            info = InformationMatrix(phi=phi, epsilon=eps, base=base)
            c = config_from_information_matrix(base, prior, info, eps)
            p1 = Pmf(base.labels, c.conditionals[:, 0])
            p2 = Pmf(base.labels, c.conditionals[:, 1])
            ana = analytic_pairwise_exponent(psi, phi[:, 0], phi[:, 1], eps)
            gap.append(abs(iprojection_exponent(p1, p2, fs) - ana) / ana)
        gaps.append(gap)
    trend = sum(small <= 0.5 * large for small, large in gaps)
    worst = max(small for small, _ in gaps)
    return Check("exponent_consistency", bool(trend == len(gaps) and worst <= 0.05),
                 f"o(eps^2) trend {trend}/{len(gaps)}, "
                 f"max relative gap {worst:.4f} at eps=0.02")
