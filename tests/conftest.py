import math

import numpy as np
import pytest

from maxcorr.model import JointPmf, make_channel
from maxcorr.symmetry import MatrixEnsemble


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def random_positive_joint(rng, nx, ny, floor=0.02):
    """Strictly positive random joint table, rows-over-Y."""
    p = rng.random((ny, nx)) + floor
    p /= p.sum()
    return p


def random_positive_pmf(rng, n, floor=0.05):
    p = rng.random(n) + floor
    return p / p.sum()


def random_perturbation_t(rng, n):
    """Random T = K - I with K column-stochastic: a feasible channel direction.

    Columns sum to zero and off-diagonal entries are nonnegative, so
    I + eta*T stays a valid channel for all eta in [0, 1] at least.
    """
    k = rng.random((n, n)) + 0.05
    k /= k.sum(axis=0, keepdims=True)
    return k - np.eye(n)


def identity_channel(labels):
    """The noiseless channel on `labels`."""
    n = len(labels)
    return make_channel(np.zeros((n, n)), 0.0, labels)


def product_joint(px, py):
    """The joint of independent X ~ px and Y ~ py."""
    return JointPmf(px.labels, py.labels, np.outer(py.probs, px.probs))


def gaussian_iid(n, m):
    """Independent standard normal entries: an exactly symmetric ensemble."""
    return MatrixEnsemble(n, m, lambda rng, c: rng.standard_normal((c, n, m)))


def constant(matrix):
    """The deterministic ensemble A = `matrix`."""
    a = np.asarray(matrix, dtype=float)
    return MatrixEnsemble(
        a.shape[0], a.shape[1], lambda rng, c: np.broadcast_to(a, (c,) + a.shape).copy()
    )


def scaled_rank_one(u, v):
    """A = g * u v^T with scalar g ~ N(0, 1): maximally correlated entries."""
    outer = np.outer(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    return MatrixEnsemble(
        *outer.shape, lambda rng, c: rng.standard_normal(c)[:, None, None] * outer
    )


def conjugated(ens, q1, q2):
    """Q1^T A Q2 for A ~ `ens`, drawing the same normals as `ens`."""
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    return MatrixEnsemble(
        ens.n, ens.m, lambda rng, c: q1.T @ ens.sample_block(rng, c) @ q2,
        declared_delta=ens.declared_delta,
    )


def scaled(ens, c):
    """c * A for A ~ `ens`, drawing the same normals as `ens`."""
    return MatrixEnsemble(
        ens.n, ens.m, lambda rng, count: c * ens.sample_block(rng, count)
    )


_LAPACK_SVD = np.linalg.svd


def rotated_null_svd(a, *args, **kwargs):
    """Stands in for np.linalg.svd: LAPACK's SVD with the singular vectors of
    its numerically zero singular values rotated, U's and V's independently.
    The result is still a valid SVD of `a`."""
    u, s, vt = _LAPACK_SVD(a, *args, **kwargs)
    k = int(np.sum(s > 1e-12 * max(float(s[0]), 1e-300)))
    r = s.size - k
    rot = np.random.default_rng(11).normal(size=(2, r, r))
    q_u, _ = np.linalg.qr(rot[0])
    q_v, _ = np.linalg.qr(rot[1])
    u, vt = u.copy(), vt.copy()
    u[:, k:s.size] = u[:, k:s.size] @ q_u
    vt[k:] = q_v.T @ vt[k:]
    return u, s, vt


def loop_max_feasible_step(start, step):
    """Entry-by-entry reference for max_feasible_step: the largest s >= 0
    keeping start + s*step inside [0, 1]."""
    step = np.asarray(step, dtype=float)
    start = np.broadcast_to(np.asarray(start, dtype=float), step.shape)
    bound = math.inf
    for idx in np.ndindex(step.shape):
        t, s0 = step[idx], start[idx]
        if t > 0:
            bound = min(bound, (1.0 - s0) / t)
        elif t < 0:
            bound = min(bound, s0 / (-t))
    return bound


def loop_information_draws(spec, rng):
    """Draw-by-draw reference for the ensemble sampler: yields (phi, accepted)
    for each raw draw in stream order, phi rescaled to the norm policy (None
    for an all-zero draw)."""
    base, prior = spec.base.probs, spec.prior.probs
    n, m = base.size, prior.size
    root = np.sqrt(base)
    while True:
        phi = rng.standard_normal((n, m))
        if spec.anisotropy:
            phi[0, :] *= 1.0 + spec.anisotropy
        phi -= np.outer(root, root @ phi)
        phi -= np.outer(phi @ prior, np.ones(m))
        top = float(np.linalg.norm(phi, axis=0).max())
        if top <= 0.0:
            yield None, False
            continue
        phi = phi * (spec.rho / top)
        cond = base[:, None] + spec.epsilon * np.sqrt(base)[:, None] * phi
        yield phi, bool(np.all(cond >= 0.0) and np.all(cond <= 1.0))


def loop_information_sample(spec, count, seed=0):
    """Reference (count, n, m) block of accepted draws from the one stream of
    `seed`; ignores the rejection cap."""
    draws = loop_information_draws(
        spec, np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    )
    phis = []
    while len(phis) < count:
        phi, ok = next(draws)
        if ok:
            phis.append(phi)
    return np.stack(phis)


def loop_least_pair(proj):
    """Per-configuration reference for exponent._least_pair on one (k, m)
    matrix: minimal squared column distance, ties by lexicographic pair order."""
    m = proj.shape[1]
    best, bi, bj = None, -1, -1
    for i in range(m - 1):
        for j in range(i + 1, m):
            d = proj[:, i] - proj[:, j]
            val = float(d @ d)
            if best is None or val < best:
                best, bi, bj = val, i, j
    return best, bi, bj


def loop_average_exponents(mu_u, mu_v, joint, chan_x, chan_y, f, g, n_configs, seed,
                           *, oracle=False):
    """Per-configuration reference for exponent.average_exponents: one 2-D
    Configuration per draw of the loop sampler, pushed as conditionals and
    scored one at a time.  With `oracle=True` each least pair is scored by
    its exact I-projection exponent in place of the analytic one."""
    from maxcorr.exponent import ExponentReport, SideExponents, iprojection_exponent
    from maxcorr.geometry import (
        InformationMatrix,
        config_from_information_matrix,
        feature_vectors,
        information_phi,
    )
    from maxcorr.model import Pmf, apply_channels

    epsilon = mu_u.epsilon
    joint_hat = apply_channels(joint, chan_x, chan_y)
    px, py = joint.marginal_x(), joint.marginal_y()
    pxh, pyh = joint_hat.marginal_x(), joint_hat.marginal_y()
    psi_f, psi_g = feature_vectors(f), feature_vectors(g)
    y_given_x = joint.conditional_y_given_x()
    x_given_y = joint.conditional_x_given_y()

    def configs(spec, stream_seed):
        for phi in loop_information_sample(spec, n_configs, seed=stream_seed):
            info = InformationMatrix(phi=phi, epsilon=spec.epsilon, base=spec.base)
            yield config_from_information_matrix(spec.base, spec.prior, info, spec.epsilon)

    def score(psi, cond_hat, base_hat, fs):
        phi = information_phi(cond_hat, base_hat, epsilon)
        val, i, j = loop_least_pair(psi.T @ phi)
        if oracle:
            return iprojection_exponent(
                Pmf(fs.base.labels, cond_hat[:, i]), Pmf(fs.base.labels, cond_hat[:, j]), fs
            )
        return epsilon**2 / 8.0 * val

    u_s, u_t, u_frob = (np.empty(n_configs) for _ in range(3))
    for c_idx, cfg in enumerate(configs(mu_u, (seed, 0))):
        cond_xh = chan_x.P @ cfg.conditionals
        cond_yh = chan_y.P @ (y_given_x @ cfg.conditionals)
        u_s[c_idx] = score(psi_f, cond_xh, pxh.probs, f)
        u_t[c_idx] = score(psi_g, cond_yh, pyh.probs, g)
        u_frob[c_idx] = float((information_phi(cond_xh, pxh.probs, epsilon) ** 2).sum())
    v_s, v_t, v_frob = (np.empty(n_configs) for _ in range(3))
    for c_idx, cfg in enumerate(configs(mu_v, (seed, 1))):
        cond_yh = chan_y.P @ cfg.conditionals
        cond_xh = chan_x.P @ (x_given_y @ cfg.conditionals)
        v_t[c_idx] = score(psi_g, cond_yh, pyh.probs, g)
        v_s[c_idx] = score(psi_f, cond_xh, pxh.probs, f)
        v_frob[c_idx] = float((information_phi(cond_yh, pyh.probs, epsilon) ** 2).sum())

    def mean_se(values):
        return float(values.mean()), float(values.std(ddof=1)) / np.sqrt(values.size)

    def side(near, far, frob, d):
        (e_near, se_near), (e_far, se_far), (c, se_c) = map(mean_se, (near, far, frob))
        return SideExponents(near=e_near, far=e_far, c=c / d,
                             stderr_near=se_near, stderr_far=se_far, stderr_c=se_c / d)

    return ExponentReport(u=side(u_s, u_t, u_frob, 4.0 * px.size * mu_u.attribute_size),
                          v=side(v_t, v_s, v_frob, 4.0 * py.size * mu_v.attribute_size))
