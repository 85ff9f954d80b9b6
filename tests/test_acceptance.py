"""Acceptance suite: one test per shipped guarantee, at its stated tolerance.

Criteria 1-7 build seeded inputs and judge them with the property checks of
`maxcorr.checks`, the ones `maxcorr verify` applies to a config.  Every test
prints a PASS/FAIL line (visible with `pytest -s`; the test verdict itself
carries the same information), and all randomness is seed-frozen so the
suite is deterministic.
"""

from functools import partial

import numpy as np

from conftest import (
    conjugated,
    identity_channel,
    product_joint,
    random_perturbation_t,
    random_positive_joint,
)
from maxcorr import checks
from maxcorr.dependence import canonical_dependence_matrix, select_features
from maxcorr.ensemble import AttributeEnsembleSpec, information_ensemble
from maxcorr.exponent import (
    average_exponents,
    exponent_bound,
    iprojection_exponent,
    mc_error_curve,
)
from maxcorr.geometry import (
    InformationMatrix,
    config_from_information_matrix,
    normalize_features,
)
from maxcorr.model import (
    JointPmf,
    Pmf,
    apply_channels,
    make_channel,
    uniform_pmf,
)
from maxcorr.symmetry import delta_report, entry_variances

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


def _report_checks(criterion, *results):
    _report(criterion, all(c.ok for c in results),
            "; ".join(f"{c.name}: {c.detail}" for c in results))


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
    # dyadic product joints: the centered numerator cancels exactly
    px = Pmf(("a", "b", "c", "d"), np.array([0.5, 0.25, 0.125, 0.125]))
    py = Pmf(("u", "v"), np.array([0.75, 0.25]))
    _report_checks(1, checks.cdm_null_directions(
        seeded_joints(), [product_joint(px, py), product_joint(py, px)]))


def test_criterion_02_feature_normalization():
    _report_checks(2, checks.feature_normalization(seeded_joints()))


def test_criterion_03_variance_bump_delta():
    _report_checks(3, checks.variance_bump_delta(
        checks.BUMP.sample(100_000, seed=22), checks.BUMP.sample(100_000, seed=32)))


def test_criterion_04_projection_bound_suite():
    rng = np.random.default_rng(44)

    def cases():
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
            yield ens.sample(20_000, seed=2000 + trial), g, h, d_hat

    _report_checks(4, checks.projection_bound(cases()))


def test_criterion_05_pushforward_suite():
    rng = np.random.default_rng(55)

    def cases():
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
            yield ens.sample(20_000, seed=3000 + trial), b

    _report_checks(5, checks.push_forward_bound(cases()))


def test_criterion_06_channel_spectrum_scaling():
    rng = np.random.default_rng(66)
    # binary and 4-ary channels, symmetric and generic, non-uniform inputs
    cases = [
        (T2, Pmf(("a", "b"), np.array([0.3, 0.7]))),
        (T4, Pmf(tuple("abcd"), np.array([0.1, 0.2, 0.3, 0.4]))),
        (random_perturbation_t(rng, 2), Pmf(("a", "b"), np.array([0.45, 0.55]))),
        (random_perturbation_t(rng, 4), Pmf(tuple("abcd"), np.array([0.4, 0.3, 0.2, 0.1]))),
    ]
    spectrum = checks.channel_spectrum_slope(
        [(partial(make_channel, t, labels=p.labels), p) for t, p in cases])

    # markov-push residual: zero at eta = 0, O(eta) slope across the grid
    joint = demo_joint()
    residual = checks.markov_residual(
        joint, partial(make_channel, T4, labels=joint.x_labels),
        make_channel(T4, 0.05, joint.y_labels),
    )
    _report_checks(6, spectrum, residual)


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
    consistency = checks.exponent_consistency(base, prior, zip(phis, fss))

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
    _report(7, consistency.ok and mc_ok == 10,
            f"{consistency.detail}, MC within 2 stderr {mc_ok}/10 (max z {max(zs):.2f})")


def test_criterion_08_svd_optimality_ordering():
    joint = demo_joint()
    cx, cy = identity_channel(joint.x_labels), identity_channel(joint.y_labels)
    mu_u = AttributeEnsembleSpec(base=joint.marginal_x(), attribute_size=3, epsilon=0.05)
    mu_v = AttributeEnsembleSpec(base=joint.marginal_y(), attribute_size=3, epsilon=0.05)
    cdm = canonical_dependence_matrix(joint)
    counts = {}
    for k in (1, 2):
        f_svd, g_svd = select_features(cdm, k)
        wins = 0
        for seed in range(100):
            rep_svd = average_exponents(mu_u, mu_v, joint, cx, cy, f_svd, g_svd, 40, seed)
            raw = np.random.default_rng((seed, k, 5)).normal(size=(4, k))
            f_rnd = normalize_features(raw, joint.marginal_x())
            rep_rnd = average_exponents(mu_u, mu_v, joint, cx, cy, f_rnd, g_svd, 40, seed)
            wins += rep_svd.v.far >= rep_rnd.v.far
        counts[k] = wins
    ok = all(v >= 95 for v in counts.values())
    _report(8, ok, f"SVD wins over random features: "
                   + ", ".join(f"k={k}: {v}/100" for k, v in counts.items()))


def test_criterion_09_constant_free_ratio():
    joint = demo_joint()
    cx, cy = identity_channel(joint.x_labels), identity_channel(joint.y_labels)
    cdm = canonical_dependence_matrix(joint)
    mu_u = AttributeEnsembleSpec(base=joint.marginal_x(), attribute_size=2,
                                 epsilon=0.02, rho=0.25)
    mu_v = AttributeEnsembleSpec(base=joint.marginal_y(), attribute_size=2,
                                 epsilon=0.02, rho=0.25)
    d_hat = delta_report(information_ensemble(mu_u).sample(100_000, seed=321)).delta
    gaps = {}
    for k in (1, 2):
        f, g = select_features(cdm, k)
        rep = average_exponents(mu_u, mu_v, joint, cx, cy, f, g, 400, 12345)
        ratio = rep.u.far / rep.u.near
        target = float(np.sum(cdm.sigmas[:k] ** 2)) / k
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
    cdm0 = canonical_dependence_matrix(joint)
    f0, g0 = select_features(cdm0, k)
    rep0 = average_exponents(mu(joint.marginal_x(), 0), mu(joint.marginal_y(), 0),
                             joint, cx0, cy0, f0, g0, 300, 777)
    bound0, _ = exponent_bound(eps, k, cdm0.sigmas, rep0.u.c, rep0.v.c,
                               0.0, cx0.eta, cy0.eta)

    targets_and_s = [(0.05, 0.0), (0.10, 0.4), (0.20, 0.8)]
    qs, excesses, bars = [], [], []
    for q_target, s in targets_and_s:
        d = delta_report(information_ensemble(mu(joint.marginal_x(), s)).sample(
            60_000, seed=99)).delta
        eta = max(0.0, (q_target - d) / (1.0 + d))
        chx = make_channel(T4, eta, joint.x_labels)
        chy = make_channel(T4, eta, joint.y_labels)
        noisy = apply_channels(joint, chx, chy)
        f, g = select_features(canonical_dependence_matrix(noisy), k)
        rep = average_exponents(mu(joint.marginal_x(), s), mu(joint.marginal_y(), s),
                                joint, chx, chy, f, g, 300, 777)
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
