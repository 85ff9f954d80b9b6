import math

import numpy as np
import pytest


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
                           *, oracle=False, delta_hat=None):
    """Per-configuration reference for exponent.average_exponents: one 2-D
    Configuration per draw of the loop sampler, scored one at a time."""
    from maxcorr.dependence import hgr_profile
    from maxcorr.exponent import ExponentReport, exponent_bound, iprojection_exponent
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

    (e_u_s, se_u_s), (e_u_t, se_u_t) = mean_se(u_s), mean_se(u_t)
    (e_v_s, se_v_s), (e_v_t, se_v_t) = mean_se(v_s), mean_se(v_t)
    du = 4.0 * px.size * mu_u.attribute_size
    dv = 4.0 * py.size * mu_v.attribute_size
    (frob_u, se_frob_u), (frob_v, se_frob_v) = mean_se(u_frob), mean_se(v_frob)
    bound, residual = exponent_bound(
        epsilon, f.k, hgr_profile(joint_hat), frob_u / du, frob_v / dv,
        delta_hat if delta_hat is not None else 0.0, chan_x.eta, chan_y.eta,
    )
    return ExponentReport(
        e_u_s=e_u_s, e_v_s=e_v_s, e_u_t=e_u_t, e_v_t=e_v_t,
        stderr_u_s=se_u_s, stderr_v_s=se_v_s, stderr_u_t=se_u_t, stderr_v_t=se_v_t,
        bound=tuple(bound), residual_budget=residual,
        c_u=frob_u / du, c_v=frob_v / dv,
        stderr_c_u=se_frob_u / du, stderr_c_v=se_frob_v / dv,
    )
