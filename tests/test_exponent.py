import dataclasses
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest

from conftest import (
    identity_channel,
    loop_average_exponents,
    loop_least_pair,
    random_perturbation_t,
    random_positive_joint,
)
from maxcorr import exponent
from maxcorr.dependence import canonical_dependence_matrix, select_features, uncentered_b
from maxcorr.ensemble import AttributeEnsembleSpec, configuration_stream, stack_rows
from maxcorr.errors import AlphabetMismatchError, ValidationError
from maxcorr.exponent import (
    MC_CHUNK,
    MC_TIE_TOL,
    RESIDUAL_SLACK,
    ExponentReport,
    SideExponents,
    _least_pair,
    _side_exponents,
    analytic_pairwise_exponent,
    average_exponents,
    iprojection_exponent,
    mc_error_curve,
    exponent_bound,
)
from maxcorr.geometry import (
    FeatureSet,
    InformationMatrix,
    config_from_information_matrix,
    feature_vectors,
    information_phi,
    normalize_features,
)
from maxcorr.model import JointPmf, Pmf, apply_channels, make_channel, uniform_pmf

U2 = uniform_pmf(("z1", "z2"))
FS2 = FeatureSet(h=np.array([[1.0], [-1.0]]), base=U2)
P06 = Pmf(U2.labels, np.array([0.6, 0.4]))
P04 = Pmf(U2.labels, np.array([0.4, 0.6]))
# exact rate of the midpoint rule for (0.6,0.4) vs (0.4,0.6):
# both I-projections land on (0.5, 0.5), D = 0.5*log(25/24)
BINARY_RATE = 0.5 * np.log(25.0 / 24.0)


def demo_joint():
    rng = np.random.default_rng(314159)
    probs = rng.random((4, 4)) + 0.15
    return JointPmf(tuple("abcd"), tuple("wxyz"), probs / probs.sum())


class TestAnalyticPairwise:
    def test_equal_vectors_zero(self):
        psi = np.array([[0.5], [-0.5]])
        phi = np.array([0.3, -0.3])
        assert analytic_pairwise_exponent(psi, phi, phi, 0.1) == 0.0

    def test_unit_difference_spanned(self):
        # ||phi1 - phi2|| = 1 fully captured: (0.01/8) * 1 = 0.00125
        psi = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        phi1 = np.array([0.6, 0.0, 0.2])
        phi2 = np.array([0.6 - 0.6, 0.8, 0.2])
        d = phi1 - phi2  # (0.6, -0.8, 0) has norm 1, inside the span
        assert np.linalg.norm(d) == pytest.approx(1.0)
        assert analytic_pairwise_exponent(psi, phi1, phi2, 0.1) == pytest.approx(
            0.00125, abs=1e-15
        )

    def test_orthogonal_features_zero(self):
        psi = np.array([[0.0], [0.0], [1.0]])
        phi1 = np.array([0.6, 0.0, 0.0])
        phi2 = np.array([0.0, 0.6, 0.0])
        for eps in (0.01, 0.1, 0.3):
            assert analytic_pairwise_exponent(psi, phi1, phi2, eps) == 0.0

    def test_invariant_under_feature_remixing(self, rng):
        # depends only on span(psi): exact identity under orthogonal mixing
        psi, _ = np.linalg.qr(rng.normal(size=(5, 2)))
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        phi1, phi2 = rng.normal(size=5), rng.normal(size=5)
        a = analytic_pairwise_exponent(psi, phi1, phi2, 0.07)
        b = analytic_pairwise_exponent(psi @ q, phi1, phi2, 0.07)
        assert a == pytest.approx(b, rel=1e-12)


class TestIProjection:
    def test_identical_distributions(self):
        with pytest.warns(UserWarning, match="constant"):
            assert iprojection_exponent(P06, P06, FS2) == 0.0

    def test_binary_closed_form(self):
        val = iprojection_exponent(P06, P04, FS2)
        assert val == pytest.approx(BINARY_RATE, abs=1e-9)

    def test_boundary_point_is_midpoint(self):
        # independent 1-D oracle: scan Q(z1) on the boundary E_Q[c] = b
        # (the constraint pins Q(z1) = 0.5 here), evaluate both divergences
        q = np.array([0.5, 0.5])
        d1 = float(np.sum(q * np.log(q / P06.probs)))
        d2 = float(np.sum(q * np.log(q / P04.probs)))
        assert iprojection_exponent(P06, P04, FS2) == pytest.approx(
            min(d1, d2), abs=1e-12
        )

    def test_alphabet_mismatch(self):
        other = Pmf(("a", "b"), np.array([0.6, 0.4]))
        with pytest.raises(AlphabetMismatchError):
            iprojection_exponent(other, P04, FS2)

    @pytest.mark.parametrize("b", [0.99, 0.01])
    def test_bracket_expansion_closed_form(self, b):
        # the tilt solving E_Q[c] = b lies outside the first bracket [-1, 1];
        # the I-projection of a fair coin onto mean b is Bernoulli(b)
        p = np.array([0.5, 0.5])
        c = np.array([0.0, 1.0])
        kl = b * np.log(2 * b) + (1 - b) * np.log(2 * (1 - b))
        assert exponent._iprojection_value(p, c, b) == pytest.approx(kl, abs=1e-12)

    @pytest.mark.parametrize("b, value", [(1.5, np.inf), (-0.5, np.inf), (1.0, np.log(2))],
                             ids=["above-max", "below-min", "at-max"])
    def test_threshold_outside_or_at_range(self, b, value):
        # no Q on {0, 1} has mean outside [0, 1], so the value is infinite (a
        # bisection without a bracket returns about 6e23); at b = max c the
        # only Q is the point mass on symbol 1, and D = log 2
        p = np.array([0.5, 0.5])
        c = np.array([0.0, 1.0])
        assert exponent._iprojection_value(p, c, b) == pytest.approx(value, abs=1e-12)

    def test_small_epsilon_matches_analytic(self, rng):
        # eps = 0.02 configurations: exact exponent within 5% of the
        # leading-order formula (measured margin across seeds is ~2%)
        base = uniform_pmf(tuple("abcd"))
        prior = uniform_pmf(("w0", "w1", "w2"))
        from maxcorr.ensemble import information_ensemble

        spec = AttributeEnsembleSpec(base=base, attribute_size=3, epsilon=0.02)
        phis = information_ensemble(spec).sample(10, seed=17)
        for phi in phis:
            fs = normalize_features(rng.normal(size=(4, 2)), base)
            psi = feature_vectors(fs)
            info = InformationMatrix(phi=phi, epsilon=0.02, base=base)
            cfg = config_from_information_matrix(base, prior, info, 0.02)
            p1 = Pmf(base.labels, cfg.conditionals[:, 0])
            p2 = Pmf(base.labels, cfg.conditionals[:, 1])
            ana = analytic_pairwise_exponent(psi, phi[:, 0], phi[:, 1], 0.02)
            ipe = iprojection_exponent(p1, p2, fs)
            assert ipe == pytest.approx(ana, rel=0.05)


def single_draw_simulate_errors(rng, p, c, b, n, trials, err_below):
    """Reference for `exponent._simulate_errors`: one multinomial call."""
    tol = MC_TIE_TOL * float(np.abs(c).max())
    counts = rng.multinomial(n, p, size=trials)
    s = counts @ c / n - b
    errs = float((s < -tol).sum() if err_below else (s > tol).sum())
    return errs + 0.5 * float((np.abs(s) <= tol).sum())


class SerialExecutor:
    """Stands in for ThreadPoolExecutor: runs each call at once, in order."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args, **kwargs):
        future = Future()
        future.set_result(fn(*args, **kwargs))
        return future


U4 = uniform_pmf(tuple("abcd"))
FS4 = normalize_features(np.random.default_rng(5).normal(size=(4, 2)), U4)


class TestMcErrorCurve:
    def test_identical_distributions_zero_slope(self):
        with pytest.warns(UserWarning, match="constant"):
            curve = mc_error_curve(P06, P06, FS2, [100, 200], 1000, seed=1)
        assert curve.exponent == 0.0
        assert curve.p_hat == (0.5, 0.5)

    def test_binary_agreement_with_iprojection(self):
        curve = mc_error_curve(
            P06, P04, FS2, [100, 200, 300, 400, 600, 800], 60_000, seed=10
        )
        assert abs(curve.exponent - BINARY_RATE) <= 2.0 * curve.stderr

    def test_sign_flip_invariance(self):
        flipped = FeatureSet(h=-FS2.h, base=U2)
        c1 = mc_error_curve(P06, P04, FS2, [100, 200, 300, 400], 20_000, seed=3)
        c2 = mc_error_curve(P06, P04, flipped, [100, 200, 300, 400], 20_000, seed=3)
        assert c1.exponent == c2.exponent
        assert c1.p_hat == c2.p_hat

    def test_exact_ties_count_half(self):
        # a 50/50 count at N = 100 puts the statistic exactly on the threshold
        # (p = 0.08 per trial), and BLAS rounds it a hair to either side
        errs = exponent._simulate_errors(
            np.random.default_rng(0), np.array([0.5, 0.5]), np.array([0.4, -0.4]),
            0.0, 100, 100_000, err_below=True,
        )
        assert errs / 100_000 == pytest.approx(0.5, abs=0.005)

    def test_stream_memory_bounded(self):
        # one stream's Python-level peak must not grow with the trial budget:
        # the count array is drawn MC_CHUNK trials at a time
        p = np.array([0.3, 0.2, 0.25, 0.25])
        c = FS4.h @ np.array([1.0, -0.5])

        def peak(trials):
            tracemalloc.start()
            try:
                exponent._simulate_errors(
                    np.random.default_rng(0), p, c, 0.0, 2000, trials, err_below=True,
                )
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100)  # a first call in a fresh process also allocates lazy state
        small, large = peak(10_000), peak(1_000_000)
        assert large < 1 << 20
        assert large <= 1.5 * small

    def test_budget_exhaustion(self):
        far1 = Pmf(U2.labels, np.array([0.99, 0.01]))
        far2 = Pmf(U2.labels, np.array([0.01, 0.99]))
        with pytest.raises(ValidationError, match="budget"):
            mc_error_curve(far1, far2, FS2, [400, 800], 100, seed=4, max_trials=100)

    @pytest.mark.parametrize("n_grid, trials, needle", [
        ([100, -5], 1000, r"n_grid .*\[-5\]"),
        ([0, 100], 1000, r"n_grid .*\[0\]"),
        ([100, 200], -3, "trials .*-3"),
        ([100, 200], 0, "trials .*0"),
        ([50, 50], 1000, r"distinct, repeated: \[50\]"),
        ([80, 50, 80, 50, 120], 1000, r"distinct, repeated: \[50, 80\]"),
    ], ids=["negative-n", "zero-n", "negative-trials", "zero-trials", "repeated-n",
            "repeated-n-unsorted"])
    def test_bad_input_named(self, n_grid, trials, needle):
        with pytest.raises(ValidationError, match=needle):
            mc_error_curve(P06, P04, FS2, n_grid, trials, seed=1)

    def test_budget_capped_at_max_trials(self, monkeypatch):
        # N = 300 extends 20,000 -> 80,000 -> 100,000 (the cap), not on to
        # 320,000; with too few errors there it is dropped from the grid
        args = (P06, P04, FS2, [100, 200, 300], 20_000)
        curve = mc_error_curve(*args, seed=7, max_trials=100_000)
        assert all(t <= 100_000 for t in curve.trials)
        monkeypatch.setattr(exponent, "_simulate_errors", single_draw_simulate_errors)
        monkeypatch.setattr(exponent, "ThreadPoolExecutor", SerialExecutor)
        assert curve == mc_error_curve(*args, seed=7, max_trials=100_000)

    def test_max_trials_below_trials_named(self):
        with pytest.raises(ValidationError, match=r"max_trials .*got 999"):
            mc_error_curve(P06, P04, FS2, [100, 200], 1000, seed=1, max_trials=999)

    @pytest.mark.parametrize("p1, p2, fs, n_grid, trials, max_trials, trials_out", [
        (P06, P04, FS2, [100, 200, 300], 20_000, None, (20_000, 20_000, 320_000)),
        (P06, P04, FS2, [100, 200, 400, 800], 20_000, 80_000, (20_000, 20_000)),
        (Pmf(U4.labels, np.array([0.3, 0.2, 0.25, 0.25])),
         Pmf(U4.labels, np.array([0.2, 0.3, 0.22, 0.28])),
         FS4, [50, 100, 200], MC_CHUNK + 4465, None, (MC_CHUNK + 4465,) * 3),
    ], ids=["extended", "truncated", "trials-off-chunk"])
    def test_matches_single_draw_serial_oracle(self, monkeypatch, p1, p2, fs, n_grid,
                                               trials, max_trials, trials_out):
        curve = mc_error_curve(p1, p2, fs, n_grid, trials, seed=7, max_trials=max_trials)
        assert curve.trials == trials_out
        monkeypatch.setattr(exponent, "_simulate_errors", single_draw_simulate_errors)
        monkeypatch.setattr(exponent, "ThreadPoolExecutor", SerialExecutor)
        oracle = mc_error_curve(p1, p2, fs, n_grid, trials, seed=7, max_trials=max_trials)
        assert curve == oracle


class TestExponentBound:
    def test_noiseless_reduction(self):
        sig = np.array([0.6, 0.3, 0.1])
        bound, residual = exponent_bound(0.1, 2, sig, 0.5, 0.4, 0.0, 0.0, 0.0)
        assert residual == 0.0
        ssq = 0.36 + 0.09
        expect = [0.5 * 0.01 * 2, 0.4 * 0.01 * ssq, 0.5 * 0.01 * ssq, 0.4 * 0.01 * 2]
        assert np.allclose(bound, expect, rtol=1e-12)

    def test_monotone_in_k(self):
        sig = np.array([0.6, 0.3, 0.1])
        prev = None
        for k in (1, 2, 3):
            bound, _ = exponent_bound(0.1, k, sig, 0.5, 0.4, 0.0, 0.0, 0.0)
            if prev is not None:
                assert np.all(bound >= prev)
            prev = bound

    def test_residual_form(self):
        _, r = exponent_bound(0.1, 1, np.array([0.5]), 1, 1, 0.2, 0.05, 0.3)
        assert r == pytest.approx(
            RESIDUAL_SLACK * 0.01 * max(0.2 + 0.05 + 0.01, 0.2 + 0.3 + 0.06))

    @pytest.mark.parametrize("c_u, c_v", [(-0.1, 0.4), (0.5, -1e-9)])
    def test_rejects_negative_constants(self, c_u, c_v):
        # with C_U, C_V >= 0 every bound component is >= 0
        with pytest.raises(ValidationError, match="c_u, c_v"):
            exponent_bound(0.1, 1, np.array([0.5]), c_u, c_v, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("position, name", list(enumerate(
        ["epsilon", "c_u", "c_v", "delta", "eta1", "eta2"])))
    def test_rejects_nan_by_argument(self, position, name):
        # NaN fails every comparison, so a min(...) < 0 check let it through
        args = [0.1, 0.5, 0.4, 0.2, 0.05, 0.3]
        args[position] = float("nan")
        epsilon, c_u, c_v, delta, eta1, eta2 = args
        with pytest.raises(ValidationError, match=f"^{name} = nan: "):
            exponent_bound(epsilon, 1, np.array([0.5]), c_u, c_v, delta, eta1, eta2)

    def test_exchange(self):
        # exchanging (X, U, eta1) with (Y, V, eta2) swaps C_U with C_V and
        # reverses the (U|S, V|S, U|T, V|T) order
        sig = np.array([0.6, 0.3, 0.1])
        bound, residual = exponent_bound(0.1, 2, sig, 0.5, 0.4, 0.2, 0.05, 0.3)
        swapped, swapped_residual = exponent_bound(0.1, 2, sig, 0.4, 0.5, 0.2, 0.3, 0.05)
        assert swapped.tolist() == bound[::-1].tolist()
        assert swapped_residual == residual
        # negative control: with C_U != C_V the unswapped call is not reversed
        assert bound.tolist() != bound[::-1].tolist()

    def test_ratio_prediction_is_constant_free(self):
        sig = np.array([0.6, 0.3, 0.1])
        for k in (1, 2, 3):
            bound, _ = exponent_bound(0.05, k, sig, 0.37, 0.91, 0, 0, 0)
            assert bound[2] / bound[0] == pytest.approx(
                float(np.sum(sig[:k] ** 2)) / k, rel=1e-12
            )


class TestAverageExponents:
    def test_constrained_proof_chain_ratio(self):
        # |W| = 2 and full feature rank: the single hypothesis pair makes
        # the projection bound exact, except that valid configurations
        # carry no variance along sqrt(base).  Closed-form oracle for the
        # projected-Gaussian ensemble: E_us / (C_U eps^2 k) = 2n/(n-1).
        joint = demo_joint()
        cx, cy = identity_channel(joint.x_labels), identity_channel(joint.y_labels)
        mu_u = AttributeEnsembleSpec(base=joint.marginal_x(), attribute_size=2, epsilon=0.05)
        mu_v = AttributeEnsembleSpec(base=joint.marginal_y(), attribute_size=2, epsilon=0.05)
        f, g = select_features(canonical_dependence_matrix(joint), 3)
        rep = average_exponents(mu_u, mu_v, joint, cx, cy, f, g, 800, 555)
        ratio = rep.u.near / (rep.u.c * 0.05**2 * 3)
        assert ratio == pytest.approx(8.0 / 3.0, abs=0.12)

    def test_cross_exponents_vanish_for_orthogonal_features(self):
        # rank-one dependence: every pushed cross-chain information vector
        # is parallel to the single singular direction, so features chosen
        # orthogonal to it are useless for cross inference
        u = np.array([1.0, -1.0, 1.0, -1.0]) / 2.0
        v = np.array([1.0, 1.0, -1.0, -1.0]) / 2.0
        probs = np.full((4, 4), 1.0 / 16.0) + 0.075 * np.outer(u, v)
        joint = JointPmf(tuple("abcd"), tuple("wxyz"), probs)
        q1 = np.array([1.0, -1.0, -1.0, 1.0]) / 2.0  # orthogonal to v and sqrt(P)
        q2 = np.array([1.0, -1.0, 1.0, -1.0]) / 2.0  # orthogonal to v and sqrt(P)
        f = FeatureSet(h=np.column_stack([q1, q2]) * 2.0, base=joint.marginal_x())
        gq1 = np.array([1.0, -1.0, -1.0, 1.0]) / 2.0  # orthogonal to u, sqrt(P)
        gq2 = np.array([1.0, 1.0, -1.0, -1.0]) / 2.0  # orthogonal to u, sqrt(P)
        g = FeatureSet(h=np.column_stack([gq1, gq2]) * 2.0, base=joint.marginal_y())
        cx, cy = identity_channel(joint.x_labels), identity_channel(joint.y_labels)
        mu_u = AttributeEnsembleSpec(base=joint.marginal_x(), attribute_size=3, epsilon=0.05)
        mu_v = AttributeEnsembleSpec(base=joint.marginal_y(), attribute_size=3, epsilon=0.05)
        rep = average_exponents(mu_u, mu_v, joint, cx, cy, f, g, 50, 99)
        assert rep.v.far <= 1e-22
        assert rep.u.far <= 1e-22
        assert rep.u.near > 1e-7
        assert rep.v.near > 1e-7

    def test_svd_features_beat_random(self):
        joint = demo_joint()
        cx, cy = identity_channel(joint.x_labels), identity_channel(joint.y_labels)
        mu_u = AttributeEnsembleSpec(base=joint.marginal_x(), attribute_size=3, epsilon=0.05)
        mu_v = AttributeEnsembleSpec(base=joint.marginal_y(), attribute_size=3, epsilon=0.05)
        f_svd, g_svd = select_features(canonical_dependence_matrix(joint), 2)
        wins = 0
        for seed in range(20):
            rep_svd = average_exponents(mu_u, mu_v, joint, cx, cy, f_svd, g_svd, 40, seed)
            raw = np.random.default_rng((seed, 7)).normal(size=(4, 2))
            f_rnd = normalize_features(raw, joint.marginal_x())
            rep_rnd = average_exponents(mu_u, mu_v, joint, cx, cy, f_rnd, g_svd, 40, seed)
            wins += rep_svd.v.far >= rep_rnd.v.far
        assert wins >= 18

    def test_bound_with_residual_holds(self):
        # SVD features at measured delta, eta = 0, full rank: all four
        # exponents within bound + residual budget + 3 sigma, and the
        # U-components meet the bound with equality at that slack
        from maxcorr.ensemble import information_ensemble
        from maxcorr.symmetry import delta_report

        joint = demo_joint()
        cx, cy = identity_channel(joint.x_labels), identity_channel(joint.y_labels)
        mu_u = AttributeEnsembleSpec(
            base=joint.marginal_x(), attribute_size=3, epsilon=0.05, rho=0.3
        )
        mu_v = AttributeEnsembleSpec(
            base=joint.marginal_y(), attribute_size=3, epsilon=0.05, rho=0.3
        )
        d_hat = delta_report(information_ensemble(mu_u).sample(40_000, seed=1)).delta
        cdm = canonical_dependence_matrix(joint)
        f, g = select_features(cdm, 3)
        rep = average_exponents(mu_u, mu_v, joint, cx, cy, f, g, 400, 202)
        bound, residual = exponent_bound(0.05, 3, cdm.sigmas, rep.u.c, rep.v.c, d_hat,
                                         cx.eta, cy.eta)
        for val, se, bnd in zip(rep.exponents, rep.stderrs, bound):
            assert val <= bnd + residual + 3 * se
        assert abs(rep.u.near - bound[0]) <= residual + 3 * rep.u.stderr_near
        assert abs(rep.v.near - bound[3]) <= residual + 3 * rep.v.stderr_near

    def test_oracle_mode_close_to_analytic(self):
        # the averaged analytic exponent is within 2% of the exact one, which
        # the per-configuration reference scores by the I-projection of each
        # configuration's least pair
        joint = demo_joint()
        cx, cy = identity_channel(joint.x_labels), identity_channel(joint.y_labels)
        mu_u = AttributeEnsembleSpec(base=joint.marginal_x(), attribute_size=3, epsilon=0.02)
        mu_v = AttributeEnsembleSpec(base=joint.marginal_y(), attribute_size=3, epsilon=0.02)
        f, g = select_features(canonical_dependence_matrix(joint), 2)
        rep_a = average_exponents(mu_u, mu_v, joint, cx, cy, f, g, 40, 888)
        rep_o = loop_average_exponents(mu_u, mu_v, joint, cx, cy, f, g, 40, 888, oracle=True)
        for a, o in zip(rep_a.exponents, rep_o.exponents):
            assert a == pytest.approx(o, rel=0.02)

    @pytest.mark.parametrize("seed", [5, 6])
    def test_matches_per_configuration_loop(self, rng, seed):
        # noisy channels, |X| != |Y| and s > 0, so every push and side is exercised
        joint = JointPmf(tuple("abcd"), tuple("vwxyz"), random_positive_joint(rng, 4, 5))
        cx = make_channel(random_perturbation_t(rng, 4), 0.05, joint.x_labels)
        cy = make_channel(random_perturbation_t(rng, 5), 0.03, joint.y_labels)
        mu_u = AttributeEnsembleSpec(base=joint.marginal_x(), attribute_size=4,
                                     epsilon=0.05, anisotropy=0.3, rho=0.6)
        mu_v = AttributeEnsembleSpec(base=joint.marginal_y(), attribute_size=4,
                                     epsilon=0.05, anisotropy=0.3, rho=0.6)
        cdm = canonical_dependence_matrix(apply_channels(joint, cx, cy))
        f, g = select_features(cdm, 2)
        # past one scoring stack on both sides: 2,048 rows of 4 x 4, 1,638 of 5 x 4
        args = (mu_u, mu_v, joint, cx, cy, f, g, stack_rows(4, 4) + 7, seed)
        rep = average_exponents(*args)
        want = loop_average_exponents(*args)
        for side in ("u", "v"):
            for fld in dataclasses.fields(SideExponents):
                assert getattr(getattr(rep, side), fld.name) == pytest.approx(
                    getattr(getattr(want, side), fld.name), rel=1e-12, abs=0.0), (side, fld.name)

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_exchange_identity(self, rng, seed):
        # the exchanged problem's report is this one with u and v swapped;
        # LAPACK may factor the transposed CDM in other last bits, so the
        # agreement is to rounding, not bit for bit
        rep, exchanged = exchanged_reports(rng, 5, seed)
        for got, want in ((exchanged.u, rep.v), (exchanged.v, rep.u)):
            for fld in dataclasses.fields(SideExponents):
                assert getattr(got, fld.name) == pytest.approx(
                    getattr(want, fld.name), rel=1e-12, abs=0.0), fld.name
        assert exchanged.exponents == pytest.approx(rep.exponents[::-1], rel=1e-12, abs=0.0)
        assert exchanged.stderrs == pytest.approx(rep.stderrs[::-1], rel=1e-12, abs=0.0)

    def test_exchange_identity_misses_with_the_wrong_cross(self, rng):
        # negative control on a square joint, where both clean hops fit: the
        # exchanged V side crosses by the push of P(X|Y) in place of P(Y|X)
        rep, exchanged = exchanged_reports(rng, 4, 5, wrong_v_hop=True)
        assert exchanged.v.near == pytest.approx(rep.u.near, rel=1e-12, abs=0.0)
        assert abs(exchanged.v.far - rep.u.far) > 1e-6 * rep.u.far

    def test_least_pair_ties_go_to_first_pair(self):
        # columns 0, 1, 2 on a line: (0, 1) and (1, 2) tie at 1, (0, 2) is 4;
        # columns 0, 3, 1.5: (0, 2) and (1, 2) tie at 2.25, (0, 1) is 9.  A
        # tie does not move the least distance; the reference's pair, which
        # its I-projection scores, is the first one
        proj = np.array([
            [[0.0, 1.0, 2.0], [5.0, 5.0, 5.0]],
            [[0.0, 3.0, 1.5], [0.0, 0.0, 0.0]],
        ])
        assert _least_pair(proj).tolist() == [1.0, 2.25]
        assert [loop_least_pair(p) for p in proj] == [(1.0, 0, 1), (2.25, 0, 2)]

    def test_least_pair_matches_loop(self, rng):
        proj = rng.normal(size=(200, 3, 5))
        val = _least_pair(proj)
        for c, p in enumerate(proj):
            assert val[c] == pytest.approx(loop_least_pair(p)[0], rel=1e-14)

    def test_pushes_match_conditional_space(self, rng, monkeypatch):
        # the (push, features) pairs average_exponents hands each side, on a
        # noisy 4 x 5 joint with s > 0: each push of a configuration stack is
        # the information matrix of the pushed conditionals on the noisy base,
        # U's through P(x^|x) and P(y^|y) P(y|x), V's through P(y^|y) and
        # P(x^|x) P(x|y)
        joint = JointPmf(tuple("abcd"), tuple("vwxyz"), random_positive_joint(rng, 4, 5))
        cx = make_channel(random_perturbation_t(rng, 4), 0.05, joint.x_labels)
        cy = make_channel(random_perturbation_t(rng, 5), 0.03, joint.y_labels)
        mu_u = AttributeEnsembleSpec(base=joint.marginal_x(), attribute_size=4,
                                     epsilon=0.05, anisotropy=0.3, rho=0.6)
        mu_v = AttributeEnsembleSpec(base=joint.marginal_y(), attribute_size=3,
                                     epsilon=0.05, anisotropy=0.3, rho=0.6)
        noisy = apply_channels(joint, cx, cy)
        f, g = select_features(canonical_dependence_matrix(noisy), 2)
        pushes = {}

        def spy(mu, near, far, n_configs, seed):
            pushes[seed[1]] = (near, far)
            return real(mu, near, far, n_configs, seed)

        real = exponent._side_exponents
        monkeypatch.setattr(exponent, "_side_exponents", spy)
        average_exponents(mu_u, mu_v, joint, cx, cy, f, g, 2, 5)
        pxh, pyh = noisy.marginal_x().probs, noisy.marginal_y().probs
        kernels = {
            0: ((cx.P, pxh, f), (cy.P @ joint.conditional_y_given_x(), pyh, g)),
            1: ((cy.P, pyh, g), (cx.P @ joint.conditional_x_given_y(), pxh, f)),
        }
        for side, mu in enumerate((mu_u, mu_v)):
            phi = configuration_stream(mu, 40, seed=(5, side))
            cond = mu.base.probs[:, None] + mu.epsilon * np.sqrt(mu.base.probs)[:, None] * phi
            for (push, fs), (kernel, base_hat, want_fs) in zip(pushes[side], kernels[side]):
                assert fs is want_fs
                want = information_phi(kernel @ cond, base_hat, mu.epsilon)
                assert np.abs(push @ phi - want).max() < 1e-12

    def test_epsilon_mismatch_rejected(self):
        joint = demo_joint()
        cx, cy = identity_channel(joint.x_labels), identity_channel(joint.y_labels)
        mu_u = AttributeEnsembleSpec(base=joint.marginal_x(), attribute_size=3, epsilon=0.05)
        mu_v = AttributeEnsembleSpec(base=joint.marginal_y(), attribute_size=3, epsilon=0.02)
        f, g = select_features(canonical_dependence_matrix(joint), 2)
        with pytest.raises(ValidationError, match="epsilon"):
            average_exponents(mu_u, mu_v, joint, cx, cy, f, g, 10, 1)

    def test_features_of_another_joint_rejected(self, rng):
        # the noisy marginals are read from the feature bases, so features of
        # the clean joint must not pass for those of the noisy one
        joint = demo_joint()
        cx = make_channel(random_perturbation_t(rng, 4), 0.05, joint.x_labels)
        cy = identity_channel(joint.y_labels)
        mu_u = AttributeEnsembleSpec(base=joint.marginal_x(), attribute_size=3, epsilon=0.05)
        mu_v = AttributeEnsembleSpec(base=joint.marginal_y(), attribute_size=3, epsilon=0.05)
        f, g = select_features(canonical_dependence_matrix(joint), 2)
        with pytest.raises(ValidationError, match="f ensemble base differs from marginal"):
            average_exponents(mu_u, mu_v, joint, cx, cy, f, g, 10, 1)

    def test_single_configuration_rejected(self):
        # one configuration has no standard error; reporting 0 would claim certainty
        joint = demo_joint()
        cx, cy = identity_channel(joint.x_labels), identity_channel(joint.y_labels)
        mu_u = AttributeEnsembleSpec(base=joint.marginal_x(), attribute_size=3, epsilon=0.05)
        mu_v = AttributeEnsembleSpec(base=joint.marginal_y(), attribute_size=3, epsilon=0.05)
        f, g = select_features(canonical_dependence_matrix(joint), 2)
        with pytest.raises(ValidationError, match="n_configs=1"):
            average_exponents(mu_u, mu_v, joint, cx, cy, f, g, 1, 1)
        assert average_exponents(mu_u, mu_v, joint, cx, cy, f, g, 2, 1).u.stderr_near > 0

    def test_ensemble_of_another_alphabet_rejected(self):
        joint = demo_joint()
        cx, cy = identity_channel(joint.x_labels), identity_channel(joint.y_labels)
        relabeled = Pmf(tuple("pqrs"), joint.marginal_x().probs)
        mu_u = AttributeEnsembleSpec(base=relabeled, attribute_size=3, epsilon=0.05)
        mu_v = AttributeEnsembleSpec(base=joint.marginal_y(), attribute_size=3, epsilon=0.05)
        f, g = select_features(canonical_dependence_matrix(joint), 2)
        with pytest.raises(AlphabetMismatchError, match="mu_u ensemble labels"):
            average_exponents(mu_u, mu_v, joint, cx, cy, f, g, 10, 1)


def exchanged_reports(rng, ny, seed, *, wrong_v_hop=False):
    """average_exponents on a noisy 4 x `ny` joint (|U| = 4, |V| = 3,
    s = 0.3), and the report of the exchanged problem from two side calls:
    on the transposed joint, with features from its CDM and pushes from its
    kernels, V (on Y, stream (seed, 1)) is its u side and U (on X, stream
    (seed, 0)) its v side."""
    joint = JointPmf(tuple("abcd"), tuple("vwxyz")[:ny], random_positive_joint(rng, 4, ny))
    joint_t = JointPmf(joint.y_labels, joint.x_labels, joint.probs.T)
    cx = make_channel(random_perturbation_t(rng, 4), 0.05, joint.x_labels)
    cy = make_channel(random_perturbation_t(rng, ny), 0.03, joint.y_labels)
    mu_u = AttributeEnsembleSpec(base=joint.marginal_x(), attribute_size=4, epsilon=0.05,
                                 anisotropy=0.3)
    mu_v = AttributeEnsembleSpec(base=joint.marginal_y(), attribute_size=3, epsilon=0.05,
                                 anisotropy=0.3)
    f, g = select_features(canonical_dependence_matrix(apply_channels(joint, cx, cy)), 2)
    rep = average_exponents(mu_u, mu_v, joint, cx, cy, f, g, 700, seed)
    g_t, f_t = select_features(canonical_dependence_matrix(apply_channels(joint_t, cy, cx)), 2)
    px_t, py_t = joint_t.marginal_x(), joint_t.marginal_y()  # P_Y and P_X
    to_y, to_x = uncentered_b(cy.P, px_t), uncentered_b(cx.P, py_t)
    # the u side's clean hop is P(X|Y) and the v side's P(Y|X), which is the
    # transposed joint's P(x|y)
    u_hop = uncentered_b(joint_t.conditional_y_given_x(), px_t)
    v_hop = u_hop if wrong_v_hop else uncentered_b(joint_t.conditional_x_given_y(), py_t)
    return rep, ExponentReport(
        u=_side_exponents(mu_v, (to_y, g_t), (to_x @ u_hop, f_t), 700, (seed, 1)),
        v=_side_exponents(mu_u, (to_x, f_t), (to_y @ v_hop, g_t), 700, (seed, 0)),
    )


def constants_report(mu_u, mu_v, joint, n_configs, seed):
    """average_exponents on identity channels, for its C_U and C_V."""
    cx, cy = identity_channel(joint.x_labels), identity_channel(joint.y_labels)
    f, g = select_features(canonical_dependence_matrix(joint), 2)
    return average_exponents(mu_u, mu_v, joint, cx, cy, f, g, n_configs, seed)


class TestBoundConstants:
    def test_sphere_bound(self):
        # every column norm <= 1 forces E||Phi||^2 <= |U|, so C_U <= 1/(4|X|)
        joint = demo_joint()
        mu_u = AttributeEnsembleSpec(base=joint.marginal_x(), attribute_size=3, epsilon=0.05)
        mu_v = AttributeEnsembleSpec(base=joint.marginal_y(), attribute_size=3, epsilon=0.05)
        est = constants_report(mu_u, mu_v, joint, 200, 31)
        assert est.u.c <= 1.0 / 16.0
        assert est.v.c <= 1.0 / 16.0

    def test_rho_scaling_quarters_cu(self):
        joint = demo_joint()
        kw = dict(attribute_size=3, epsilon=0.05)
        est1 = constants_report(
            AttributeEnsembleSpec(base=joint.marginal_x(), rho=1.0, **kw),
            AttributeEnsembleSpec(base=joint.marginal_y(), rho=1.0, **kw),
            joint, 300, 32,
        )
        est2 = constants_report(
            AttributeEnsembleSpec(base=joint.marginal_x(), rho=0.5, **kw),
            AttributeEnsembleSpec(base=joint.marginal_y(), rho=0.5, **kw),
            joint, 300, 32,
        )
        assert est2.u.c == pytest.approx(est1.u.c / 4.0, rel=1e-9)
        assert est2.v.c == pytest.approx(est1.v.c / 4.0, rel=1e-9)

    def test_matches_independent_pipeline_oracle(self):
        # re-derive E||Phi||^2 with a standalone numpy replica of the
        # sampling pipeline (different seed), compare within 3 sigma bars
        joint = demo_joint()
        base = joint.marginal_x().probs
        rng = np.random.default_rng(424242)
        prior = np.full(3, 1.0 / 3.0)
        vals = []
        for _ in range(4000):
            g0 = rng.standard_normal((4, 3))
            root = np.sqrt(base)
            g0 -= np.outer(root, root @ g0)
            g0 -= np.outer(g0 @ prior, np.ones(3))
            g0 *= 1.0 / np.linalg.norm(g0, axis=0).max()
            vals.append((g0**2).sum())
        oracle = np.mean(vals) / (4 * 4 * 3)
        oracle_se = np.std(vals, ddof=1) / np.sqrt(len(vals)) / (4 * 4 * 3)
        mu_u = AttributeEnsembleSpec(base=joint.marginal_x(), attribute_size=3, epsilon=0.05)
        mu_v = AttributeEnsembleSpec(base=joint.marginal_y(), attribute_size=3, epsilon=0.05)
        est = constants_report(mu_u, mu_v, joint, 4000, 33)
        assert abs(est.u.c - oracle) <= 3.0 * (est.u.stderr_c + oracle_se)


class TestExponentReport:
    def test_rejects_negative_exponent(self):
        with pytest.raises(ValidationError):
            SideExponents(near=-0.1, far=0, c=0, stderr_near=0, stderr_far=0, stderr_c=0)
        with pytest.raises(ValidationError):
            SideExponents(near=0, far=-0.1, c=0, stderr_near=0, stderr_far=0, stderr_c=0)
