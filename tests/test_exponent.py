import dataclasses
from concurrent.futures import Future

import numpy as np
import pytest

from conftest import (
    loop_average_exponents,
    loop_least_pair,
    random_perturbation_t,
    random_positive_joint,
)
from maxcorr import exponent
from maxcorr.dependence import hgr_profile, select_features
from maxcorr.ensemble import CHUNK, AttributeEnsembleSpec
from maxcorr.errors import AlphabetMismatchError, ValidationError
from maxcorr.exponent import (
    MC_CHUNK,
    RESIDUAL_SLACK,
    ExponentReport,
    _least_pair,
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
    normalize_features,
)
from maxcorr.model import JointPmf, Pmf, apply_channels, identity_channel, make_channel, uniform_pmf

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
    counts = rng.multinomial(n, p, size=trials)
    s = counts @ c / n - b
    errs = float((s < 0).sum() if err_below else (s > 0).sum())
    return errs + 0.5 * float((s == 0).sum())


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
    ], ids=["negative-n", "zero-n", "negative-trials", "zero-trials"])
    def test_bad_input_named(self, n_grid, trials, needle):
        with pytest.raises(ValidationError, match=needle):
            mc_error_curve(P06, P04, FS2, n_grid, trials, seed=1)

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
        f, g = select_features(joint, 3)
        rep = average_exponents(mu_u, mu_v, joint, cx, cy, f, g, 800, 555)
        ratio = rep.e_u_s / (rep.c_u * 0.05**2 * 3)
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
        assert rep.e_v_s <= 1e-22
        assert rep.e_u_t <= 1e-22
        assert rep.e_u_s > 1e-7
        assert rep.e_v_t > 1e-7

    def test_svd_features_beat_random(self):
        joint = demo_joint()
        cx, cy = identity_channel(joint.x_labels), identity_channel(joint.y_labels)
        mu_u = AttributeEnsembleSpec(base=joint.marginal_x(), attribute_size=3, epsilon=0.05)
        mu_v = AttributeEnsembleSpec(base=joint.marginal_y(), attribute_size=3, epsilon=0.05)
        f_svd, g_svd = select_features(joint, 2)
        wins = 0
        for seed in range(20):
            rep_svd = average_exponents(mu_u, mu_v, joint, cx, cy, f_svd, g_svd, 40, seed)
            raw = np.random.default_rng((seed, 7)).normal(size=(4, 2))
            f_rnd = normalize_features(raw, joint.marginal_x())
            rep_rnd = average_exponents(mu_u, mu_v, joint, cx, cy, f_rnd, g_svd, 40, seed)
            wins += rep_svd.e_v_s >= rep_rnd.e_v_s
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
        f, g = select_features(joint, 3)
        rep = average_exponents(
            mu_u, mu_v, joint, cx, cy, f, g, 400, 202, delta_hat=d_hat
        )
        for val, se, bnd in zip(rep.exponents, rep.stderrs, rep.bound):
            assert val <= bnd + rep.residual_budget + 3 * se
        assert abs(rep.e_u_s - rep.bound[0]) <= rep.residual_budget + 3 * rep.stderr_u_s
        assert abs(rep.e_v_t - rep.bound[3]) <= rep.residual_budget + 3 * rep.stderr_v_t

    def test_oracle_mode_close_to_analytic(self):
        joint = demo_joint()
        cx, cy = identity_channel(joint.x_labels), identity_channel(joint.y_labels)
        mu_u = AttributeEnsembleSpec(base=joint.marginal_x(), attribute_size=3, epsilon=0.02)
        mu_v = AttributeEnsembleSpec(base=joint.marginal_y(), attribute_size=3, epsilon=0.02)
        f, g = select_features(joint, 2)
        rep_a = average_exponents(mu_u, mu_v, joint, cx, cy, f, g, 40, 888)
        rep_o = average_exponents(mu_u, mu_v, joint, cx, cy, f, g, 40, 888, oracle=True)
        for a, o in zip(rep_a.exponents, rep_o.exponents):
            assert a == pytest.approx(o, rel=0.02)

    # oracle scoring runs one I-projection per configuration, so it gets fewer
    @pytest.mark.parametrize("oracle, n_configs", [(False, CHUNK + 7), (True, 30)],
                             ids=["analytic", "oracle"])
    @pytest.mark.parametrize("seed", [5, 6])
    def test_matches_per_configuration_loop(self, rng, oracle, n_configs, seed):
        # noisy channels, |X| != |Y| and s > 0, so every push and side is exercised
        joint = JointPmf(tuple("abcd"), tuple("vwxyz"), random_positive_joint(rng, 4, 5))
        cx = make_channel(random_perturbation_t(rng, 4), 0.05, joint.x_labels)
        cy = make_channel(random_perturbation_t(rng, 5), 0.03, joint.y_labels)
        mu_u = AttributeEnsembleSpec(base=joint.marginal_x(), attribute_size=4,
                                     epsilon=0.05, anisotropy=0.3, rho=0.6)
        mu_v = AttributeEnsembleSpec(base=joint.marginal_y(), attribute_size=4,
                                     epsilon=0.05, anisotropy=0.3, rho=0.6)
        f, g = select_features(apply_channels(joint, cx, cy), 2)
        args = (mu_u, mu_v, joint, cx, cy, f, g, n_configs, seed)
        rep = average_exponents(*args, oracle=oracle, delta_hat=0.2)
        want = loop_average_exponents(*args, oracle=oracle, delta_hat=0.2)
        for fld in dataclasses.fields(ExponentReport):
            assert getattr(rep, fld.name) == pytest.approx(
                getattr(want, fld.name), rel=1e-12, abs=0.0), fld.name

    def test_least_pair_ties_go_to_first_pair(self):
        # columns 0, 1, 2 on a line: (0, 1) and (1, 2) tie at 1, (0, 2) is 4;
        # columns 0, 3, 1.5: (0, 2) and (1, 2) tie at 2.25, (0, 1) is 9
        proj = np.array([
            [[0.0, 1.0, 2.0], [5.0, 5.0, 5.0]],
            [[0.0, 3.0, 1.5], [0.0, 0.0, 0.0]],
        ])
        val, i, j = _least_pair(proj)
        assert val.tolist() == [1.0, 2.25]
        assert list(zip(i.tolist(), j.tolist())) == [(0, 1), (0, 2)]
        assert [loop_least_pair(p) for p in proj] == [(1.0, 0, 1), (2.25, 0, 2)]

    def test_least_pair_matches_loop(self, rng):
        proj = rng.normal(size=(200, 3, 5))
        val, i, j = _least_pair(proj)
        for c, p in enumerate(proj):
            want_val, want_i, want_j = loop_least_pair(p)
            assert (i[c], j[c]) == (want_i, want_j)
            assert val[c] == pytest.approx(want_val, rel=1e-14)

    def test_epsilon_mismatch_rejected(self):
        joint = demo_joint()
        cx, cy = identity_channel(joint.x_labels), identity_channel(joint.y_labels)
        mu_u = AttributeEnsembleSpec(base=joint.marginal_x(), attribute_size=3, epsilon=0.05)
        mu_v = AttributeEnsembleSpec(base=joint.marginal_y(), attribute_size=3, epsilon=0.02)
        f, g = select_features(joint, 2)
        with pytest.raises(ValidationError, match="epsilon"):
            average_exponents(mu_u, mu_v, joint, cx, cy, f, g, 10, 1)


def constants_report(mu_u, mu_v, joint, n_configs, seed):
    """average_exponents on identity channels, for its C_U and C_V."""
    cx, cy = identity_channel(joint.x_labels), identity_channel(joint.y_labels)
    f, g = select_features(joint, 2)
    return average_exponents(mu_u, mu_v, joint, cx, cy, f, g, n_configs, seed)


class TestBoundConstants:
    def test_sphere_bound(self):
        # every column norm <= 1 forces E||Phi||^2 <= |U|, so C_U <= 1/(4|X|)
        joint = demo_joint()
        mu_u = AttributeEnsembleSpec(base=joint.marginal_x(), attribute_size=3, epsilon=0.05)
        mu_v = AttributeEnsembleSpec(base=joint.marginal_y(), attribute_size=3, epsilon=0.05)
        est = constants_report(mu_u, mu_v, joint, 200, 31)
        assert est.c_u <= 1.0 / 16.0
        assert est.c_v <= 1.0 / 16.0

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
        assert est2.c_u == pytest.approx(est1.c_u / 4.0, rel=1e-9)
        assert est2.c_v == pytest.approx(est1.c_v / 4.0, rel=1e-9)

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
        assert abs(est.c_u - oracle) <= 3.0 * (est.stderr_c_u + oracle_se)


class TestExponentReport:
    def test_rejects_negative_exponent(self):
        with pytest.raises(ValidationError):
            ExponentReport(
                e_u_s=-0.1, e_v_s=0, e_u_t=0, e_v_t=0,
                stderr_u_s=0, stderr_v_s=0, stderr_u_t=0, stderr_v_t=0,
                bound=(0, 0, 0, 0), residual_budget=0, c_u=0, c_v=0,
                stderr_c_u=0, stderr_c_v=0,
            )
