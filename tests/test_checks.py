"""Negative controls: each property check reads FAIL on an input that breaks
its property, so a PASS from `maxcorr verify` or the acceptance suite means
something."""

import numpy as np

from conftest import gaussian_iid, random_perturbation_t, random_positive_joint
from maxcorr import checks
from maxcorr.model import JointPmf, Pmf, make_channel
from maxcorr.symmetry import variance_bump

T2 = np.array([[-1.0, 1.0], [1.0, -1.0]])


def test_variance_bump_delta_fails_on_symmetric_block():
    # an iid Gaussian block has delta 0, not the bump's 0.5
    block = gaussian_iid(2, 2).sample(100_000, seed=0)
    check = checks.variance_bump_delta(block, block)
    assert not check.ok, check.detail


def test_projection_bound_fails_at_zero_delta_on_a_bump():
    # G = H = e0 sees only the bumped entry: E A00^2 = 3 against the
    # isotropic share E||A||^2 / 4 = 1.5, far outside a zero-delta bound
    block = variance_bump(2, 2, 3.0).sample(20_000, seed=0)
    e0 = np.array([[1.0], [0.0]])
    check = checks.projection_bound([(block, e0, e0, 0.0)])
    assert not check.ok
    assert check.detail.startswith("0/1")


def test_channel_spectrum_slope_fails_on_quadratic_channel():
    # strength eta^2 makes the spectral spread O(eta^2): slope 2, not 1
    p = Pmf(("a", "b"), np.array([0.3, 0.7]))
    check = checks.channel_spectrum_slope(
        [(lambda eta: make_channel(T2, eta**2, p.labels), p)])
    assert not check.ok, check.detail


def test_markov_residual_fails_on_quadratic_channel():
    # an X channel of strength eta^2 makes the chain residual O(eta^2)
    rng = np.random.default_rng(6)
    joint = JointPmf(tuple("abcd"), tuple("wxyz"), random_positive_joint(rng, 4, 4))
    tx, ty = random_perturbation_t(rng, 4), random_perturbation_t(rng, 4)
    check = checks.markov_residual(
        joint, lambda eta: make_channel(tx, eta**2, joint.x_labels),
        make_channel(ty, 0.05, joint.y_labels))
    assert not check.ok, check.detail
