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
