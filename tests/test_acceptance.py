"""Acceptance suite: one test per shipped guarantee, at its stated tolerance.

Every test prints a PASS/FAIL line (visible with `pytest -s`; the test
verdict itself carries the same information), and all randomness is
seed-frozen so the suite is deterministic.
"""

import numpy as np
import pytest

from conftest import random_perturbation_t, random_positive_joint
from maxcorr.dependence import canonical_dependence_matrix, hgr_profile, select_features, uncentered_b
from maxcorr.ensemble import (
    AttributeEnsembleSpec,
    information_ensemble,
    markov_push,
    push_through_channel,
    sample_configuration,
)
from maxcorr.exponent import (
    analytic_pairwise_exponent,
    average_exponents,
    iprojection_exponent,
    mc_error_curve,
)
from maxcorr.geometry import (
    InformationMatrix,
    config_from_information_matrix,
    feature_vectors,
    normalize_features,
)
from maxcorr.model import (
    JointPmf,
    Pmf,
    apply_channels,
    identity_channel,
    make_channel,
    product_joint,
    uniform_pmf,
)
from maxcorr.symmetry import (
    conjugated,
    delta_report,
    entry_variances,
    pushed_delta_bound,
    moment_symmetry_report,
    projection_bound_check,
    propagation_check,
    variance_bump,
)

T4 = np.array([
    [-0.75, 0.25, 0.25, 0.25],
    [0.25, -0.75, 0.25, 0.25],
    [0.25, 0.25, -0.75, 0.25],
    [0.25, 0.25, 0.25, -0.75],
])
T2 = np.array([[-1.0, 1.0], [1.0, -1.0]])


def _report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def demo_joint():
    rng = np.random.default_rng(314159)
    probs = rng.random((4, 4)) + 0.15
    return JointPmf(tuple("abcd"), tuple("wxyz"), probs / probs.sum())


def seeded_joints(count=50, max_side=8, seed=20260808):
    rng = np.random.default_rng(seed)
    joints = []
    for _ in range(count):
        nx = int(rng.integers(2, max_side + 1))
        ny = int(rng.integers(2, max_side + 1))
        joints.append(JointPmf(
            tuple(f"x{i}" for i in range(nx)),
            tuple(f"y{j}" for j in range(ny)),
            random_positive_joint(rng, nx, ny),
        ))
    return joints


def test_criterion_01_canonical_matrix_identities():
    worst_null, worst_svd = 0.0, 0.0
    for joint in seeded_joints():
        cdm = canonical_dependence_matrix(joint)
        worst_null = max(
            worst_null,
            float(np.abs(cdm.b @ np.sqrt(cdm.px.probs)).max()),
            float(np.abs(cdm.b.T @ np.sqrt(cdm.py.probs)).max()),
        )
        assert np.all(cdm.sigmas >= -1e-15)
        assert np.all(cdm.sigmas <= 1.0 + 1e-10)
        oracle = np.linalg.svd(cdm.b, compute_uv=False)
        worst_svd = max(worst_svd, float(np.abs(cdm.sigmas - oracle).max()))
        recon = cdm.svd.reconstruct()
        worst_svd = max(worst_svd, float(np.abs(recon - cdm.b).max()))
    # dyadic product joints: the centered numerator cancels exactly
    px = Pmf(("a", "b", "c", "d"), np.array([0.5, 0.25, 0.125, 0.125]))
    py = Pmf(("u", "v"), np.array([0.75, 0.25]))
    for pj in (product_joint(px, py), product_joint(py, px)):
        cdm = canonical_dependence_matrix(pj)
        assert np.array_equal(cdm.b, np.zeros_like(cdm.b))
        assert float(np.max(cdm.sigmas)) == 0.0
    ok = worst_null < 1e-10 and worst_svd < 1e-10
    _report(1, ok, f"null overlap {worst_null:.2e}, svd-vs-oracle {worst_svd:.2e}")


def test_criterion_02_feature_normalization():
    worst_mean, worst_gram = 0.0, 0.0
    for joint in seeded_joints():
        k_max = min(len(joint.x_labels), len(joint.y_labels)) - 1
        for k in range(1, k_max + 1):
            f, g = select_features(joint, k)
            for fs in (f, g):
                p = fs.base.probs
                worst_mean = max(worst_mean, float(np.abs(p @ fs.h).max()))
                gram = (fs.h * p[:, None]).T @ fs.h
                worst_gram = max(
                    worst_gram, float(np.abs(gram - np.eye(k)).max())
                )
    ok = worst_mean <= 1e-10 and worst_gram <= 1e-8
    _report(2, ok, f"max |E f| {worst_mean:.2e}, max |E ff^T - I| {worst_gram:.2e}")


def test_criterion_03_variance_bump_delta():
    ens = variance_bump(2, 2, 1.5)
    rep = delta_report(ens.sample(100_000, seed=22))
    lem = moment_symmetry_report(ens.sample(100_000, seed=32))
    ok = (
        abs(rep.delta - 0.5) <= 0.05
        and abs(lem.max_moment_spread - 0.5) <= 0.05
        and lem.mean_norm <= lem.mean_norm_bar
        and lem.max_cross_covariance <= lem.max_cross_covariance_bar
    )
    _report(3, ok, f"delta_hat {rep.delta:.4f} (target 0.5 +- 0.05), "
                   f"moment spread {lem.max_moment_spread:.4f}")


def test_criterion_04_projection_bound_suite():
    rng = np.random.default_rng(44)
    passed = 0
    for trial in range(100):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 5))
        variances = 0.5 + 1.5 * rng.random((n, m))
        ens = entry_variances(variances)
        if trial % 3 == 0:
            q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
            q2, _ = np.linalg.qr(rng.normal(size=(m, m)))
            ens = conjugated(ens, q1, q2)
        d_hat = delta_report(ens.sample(20_000, seed=1000 + trial)).delta
        g = rng.normal(size=(n, int(rng.integers(1, 4))))
        h = rng.normal(size=(m, int(rng.integers(1, 4))))
        res = projection_bound_check(ens.sample(20_000, seed=2000 + trial), g, h, d_hat)
        passed += res.passed
    _report(4, passed == 100, f"{passed}/100 projection-bound checks passed")


def test_criterion_05_pushforward_suite():
    rng = np.random.default_rng(55)
    passed = 0
    identity_gap_ok = True
    for trial in range(50):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 5))
        ens = entry_variances(0.5 + 1.5 * rng.random((n, m)))
        if trial == 0:
            b = np.eye(n)
        elif trial % 3 == 1:
            b = np.diag(0.5 + rng.random(n))
        else:
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            b = q @ np.diag(0.5 + rng.random(n))
        res = propagation_check(ens.sample(20_000, seed=3000 + trial), b)
        passed += res.passed
        if trial == 0:
            # B = I recovers gamma = delta within bars
            identity_gap_ok = (
                abs(res.delta_bound - res.delta_in) <= 1e-12
                and abs(res.delta_out - res.delta_in) <= res.margin
            )
    ok = passed == 50 and identity_gap_ok
    _report(5, ok, f"{passed}/50 propagation checks passed, "
                   f"identity case gamma=delta {identity_gap_ok}")


def test_criterion_06_channel_spectrum_scaling():
    etas = np.array([0.01, 0.02, 0.04, 0.08])
    rng = np.random.default_rng(66)
    slopes = []
    # binary and 4-ary channels, symmetric and generic, non-uniform inputs
    cases = [
        (T2, Pmf(("a", "b"), np.array([0.3, 0.7]))),
        (T4, Pmf(tuple("abcd"), np.array([0.1, 0.2, 0.3, 0.4]))),
        (random_perturbation_t(rng, 2), Pmf(("a", "b"), np.array([0.45, 0.55]))),
        (random_perturbation_t(rng, 4), Pmf(tuple("abcd"), np.array([0.4, 0.3, 0.2, 0.1]))),
    ]
    for t, p in cases:
        spreads = [
            uncentered_b(make_channel(t, e, p.labels), p).spectral_spread()
            for e in etas
        ]
        slopes.append(float(np.polyfit(np.log(etas), np.log(spreads), 1)[0]))
    spectrum_ok = all(abs(s - 1.0) <= 0.2 for s in slopes)

    # markov-push residual: zero at eta = 0, O(eta) slope across the grid
    joint = demo_joint()
    spec = AttributeEnsembleSpec(base=joint.marginal_x(), attribute_size=3, epsilon=0.05)
    clean_cfg = sample_configuration(spec, seed=6)
    chan_y = make_channel(T4, 0.05, joint.y_labels)
    res0 = markov_push(clean_cfg, joint)
    norms = []
    for eta in etas:
        cx = make_channel(T4, float(eta), joint.x_labels)
        noisy = apply_channels(joint, cx, chan_y)
        cfg_hat = push_through_channel(clean_cfg, cx)
        r = markov_push(cfg_hat, noisy, clean_config=clean_cfg, clean_joint=joint,
                        chan_y=chan_y)
        norms.append(r.residual_norm)
    mslope = float(np.polyfit(np.log(etas), np.log(norms), 1)[0])
    ok = spectrum_ok and res0.residual_norm <= 1e-12 and abs(mslope - 1.0) <= 0.2
    _report(6, ok, f"spectrum slopes {np.round(slopes, 3)}, residual(0) "
                   f"{res0.residual_norm:.1e}, residual slope {mslope:.3f}")


def _consistency_pairs():
    base = uniform_pmf(tuple("abcd"))
    prior = uniform_pmf(("w0", "w1", "w2"))
    spec = AttributeEnsembleSpec(base=base, attribute_size=3, epsilon=0.08, rho=1.0)
    phis = information_ensemble(spec).sample(50, seed=17)
    rng = np.random.default_rng(4242)
    fss = [normalize_features(rng.normal(size=(4, 2)), base) for _ in range(50)]
    return base, prior, phis, fss


def test_criterion_07_exponent_consistency():
    base, prior, phis, fss = _consistency_pairs()
    trend_ok = 0
    for phi, fs in zip(phis, fss):
        psi = feature_vectors(fs)
        gap = {}
        for eps in (0.02, 0.08):
            info = InformationMatrix(phi=phi, epsilon=eps, base=base)
            cfg = config_from_information_matrix(base, prior, info, eps)
            p1 = Pmf(base.labels, cfg.conditionals[:, 0])
            p2 = Pmf(base.labels, cfg.conditionals[:, 1])
            ana = analytic_pairwise_exponent(psi, phi[:, 0], phi[:, 1], eps)
            gap[eps] = abs(iprojection_exponent(p1, p2, fs) - ana) / ana
        trend_ok += gap[0.02] <= 0.5 * gap[0.08]

    mc_ok = 0
    zs = []
    for i in range(10):
        phi, fs = phis[i], fss[i]
        info = InformationMatrix(phi=phi, epsilon=0.08, base=base)
        cfg = config_from_information_matrix(base, prior, info, 0.08)
        p1 = Pmf(base.labels, cfg.conditionals[:, 0])
        p2 = Pmf(base.labels, cfg.conditionals[:, 1])
        ipe = iprojection_exponent(p1, p2, fs)
        n_grid = np.unique((np.array([1.5, 2.5, 3.5, 5.0, 7.0]) / ipe).astype(int))
        curve = mc_error_curve(p1, p2, fs, n_grid, 200_000, seed=2500 + i)
        z = abs(curve.exponent - ipe) / curve.stderr
        zs.append(z)
        mc_ok += z <= 2.0
    ok = trend_ok == 50 and mc_ok == 10
    _report(7, ok, f"o(eps^2) trend {trend_ok}/50, MC within 2 stderr {mc_ok}/10 "
                   f"(max z {max(zs):.2f})")


def test_criterion_08_svd_optimality_ordering():
    joint = demo_joint()
    cx, cy = identity_channel(joint.x_labels), identity_channel(joint.y_labels)
    mu_u = AttributeEnsembleSpec(base=joint.marginal_x(), attribute_size=3, epsilon=0.05)
    mu_v = AttributeEnsembleSpec(base=joint.marginal_y(), attribute_size=3, epsilon=0.05)
    counts = {}
    for k in (1, 2):
        f_svd, g_svd = select_features(joint, k)
        wins = 0
        for seed in range(100):
            rep_svd = average_exponents(mu_u, mu_v, joint, cx, cy, f_svd, g_svd, 40, seed)
            raw = np.random.default_rng((seed, k, 5)).normal(size=(4, k))
            f_rnd = normalize_features(raw, joint.marginal_x())
            rep_rnd = average_exponents(mu_u, mu_v, joint, cx, cy, f_rnd, g_svd, 40, seed)
            wins += rep_svd.e_v_s >= rep_rnd.e_v_s
        counts[k] = wins
    ok = all(v >= 95 for v in counts.values())
    _report(8, ok, f"SVD wins over random features: "
                   + ", ".join(f"k={k}: {v}/100" for k, v in counts.items()))


def test_criterion_09_constant_free_ratio():
    joint = demo_joint()
    cx, cy = identity_channel(joint.x_labels), identity_channel(joint.y_labels)
    prof = hgr_profile(joint)
    mu_u = AttributeEnsembleSpec(base=joint.marginal_x(), attribute_size=2,
                                 epsilon=0.02, rho=0.25)
    mu_v = AttributeEnsembleSpec(base=joint.marginal_y(), attribute_size=2,
                                 epsilon=0.02, rho=0.25)
    d_hat = delta_report(information_ensemble(mu_u).sample(100_000, seed=321)).delta
    gaps = {}
    for k in (1, 2):
        f, g = select_features(joint, k)
        rep = average_exponents(mu_u, mu_v, joint, cx, cy, f, g, 400, 12345)
        ratio = rep.e_u_t / rep.e_u_s
        target = float(np.sum(prof[:k] ** 2)) / k
        gaps[k] = abs(ratio - target) / target
    ok = d_hat <= 0.05 and all(v <= 0.10 for v in gaps.values())
    _report(9, ok, f"delta_hat {d_hat:.4f} <= 0.05, ratio gaps "
                   + ", ".join(f"k={k}: {v:.2%}" for k, v in gaps.items()))


def test_criterion_10_residual_robustness_trend():
    """Excess over the clean bound stays within the linear-in-q residual form.

    q = max(delta + eta_i + delta*eta_i) is driven to {0.05, 0.1, 0.2} by
    anisotropy (s in {0, 0.4, 0.8}) plus a calibrated eta top-up.  The
    per-point excess over the (delta = eta = 0) bound must (i) stay inside
    the linear envelope eps^2 * q plus 3-sigma bars, (ii) be monotone
    within bars, and (iii) fit a finite linear slope, which is the
    operational content of the residual's O(eps^2 * q) form.
    """
    joint = demo_joint()
    eps, k, rho = 0.05, 3, 0.3

    def mu(base, s):
        return AttributeEnsembleSpec(base=base, attribute_size=3, epsilon=eps,
                                     anisotropy=s, rho=rho)

    cx0 = identity_channel(joint.x_labels)
    cy0 = identity_channel(joint.y_labels)
    f0, g0 = select_features(joint, k)
    rep0 = average_exponents(mu(joint.marginal_x(), 0), mu(joint.marginal_y(), 0),
                             joint, cx0, cy0, f0, g0, 300, 777)
    bound0 = np.array(rep0.bound)

    targets_and_s = [(0.05, 0.0), (0.10, 0.4), (0.20, 0.8)]
    qs, excesses, bars = [], [], []
    for q_target, s in targets_and_s:
        d = delta_report(information_ensemble(mu(joint.marginal_x(), s)).sample(
            60_000, seed=99)).delta
        eta = max(0.0, (q_target - d) / (1.0 + d))
        chx = make_channel(T4, eta, joint.x_labels)
        chy = make_channel(T4, eta, joint.y_labels)
        noisy = apply_channels(joint, chx, chy)
        f, g = select_features(noisy, k)
        rep = average_exponents(mu(joint.marginal_x(), s), mu(joint.marginal_y(), s),
                                joint, chx, chy, f, g, 300, 777, delta_hat=d)
        qs.append(d + eta + d * eta)
        excesses.append(float(np.max(np.array(rep.exponents) - bound0)))
        bars.append(3.0 * float(np.max(rep.stderrs)))

    envelope_ok = all(
        exc <= eps**2 * q + bar for exc, q, bar in zip(excesses, qs, bars)
    )
    clipped = [max(0.0, e) for e in excesses]
    monotone_ok = all(
        clipped[i + 1] >= clipped[i] - (bars[i] + bars[i + 1])
        for i in range(len(clipped) - 1)
    )
    slope = float(np.polyfit(qs, excesses, 1)[0])
    ok = envelope_ok and monotone_ok and np.isfinite(slope)
    _report(10, ok, f"q={np.round(qs, 3)}, excess={np.format_float_scientific(max(excesses), 2)}"
                    f" within eps^2*q envelope {envelope_ok}, monotone {monotone_ok},"
                    f" slope {slope:.2e}")


def test_criterion_11_simulate_determinism(tmp_path):
    from maxcorr.cli import main
    from test_cli import tiny_config

    path = tiny_config(tmp_path, n_configs=30, delta_samples=5000, k="1 2")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(path), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(path), "--out", str(out2)]) == 0
    b1 = (out1 / "simulate.csv").read_bytes()
    b2 = (out2 / "simulate.csv").read_bytes()
    ok = b1 == b2 and len(b1) > 0
    _report(11, ok, f"rerun CSV byte-identical ({len(b1)} bytes)")
