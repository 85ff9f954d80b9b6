from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    loop_information_draws,
    loop_information_sample,
    random_perturbation_t,
    random_positive_joint,
)
from maxcorr.dependence import uncentered_b
from maxcorr.ensemble import (
    CHUNK,
    AttributeEnsembleSpec,
    configuration_stream,
    information_ensemble,
    markov_push,
    push_through_channel,
    raw_information_sample,
    sample_configuration,
)
from maxcorr.errors import FeasibilityError, ValidationError
from maxcorr.geometry import (
    Configuration,
    InformationMatrix,
    config_from_information_matrix,
    information_matrix,
    max_feasible_epsilon,
)
from maxcorr.model import (
    JointPmf,
    Pmf,
    apply_channels,
    identity_channel,
    make_channel,
    uniform_pmf,
)
from maxcorr.symmetry import MatrixEnsemble, delta_report, second_moment_form, seed_rng

BASE4 = uniform_pmf(tuple("abcd"))


def spec4(s=0.0, rho=1.0, eps=0.05):
    return AttributeEnsembleSpec(
        base=BASE4, attribute_size=3, epsilon=eps, anisotropy=s, rho=rho
    )


class TestSampling:
    def test_sampled_configuration_is_valid(self):
        cfg = sample_configuration(spec4(), seed=1)
        # Configuration __post_init__ enforces ball membership and
        # marginal consistency; spot-check the norm policy on top.
        phi = information_matrix(cfg)
        assert phi.column_norms.max() == pytest.approx(1.0, abs=1e-12)

    def test_stream_deterministic(self):
        a = configuration_stream(spec4(), 5, seed=9)
        b = configuration_stream(spec4(), 5, seed=9)
        assert a.shape == (5, 4, 3)
        assert np.array_equal(a, b)

    def test_ensemble_matches_stream(self):
        # information_ensemble and configuration_stream share one phi stream
        spec = spec4()
        phis = information_ensemble(spec).sample(4, seed=9)
        conds = configuration_stream(spec, 4, seed=9)
        assert conds.shape == (4, 4, 3)
        for phi, cond in zip(phis, conds):
            cfg = Configuration(spec.base, spec.w_labels, spec.prior, cond, spec.epsilon)
            assert np.max(np.abs(phi - information_matrix(cfg).phi)) < 1e-12

    def test_projected_delta_measured(self):
        # Measured symmetry deviation of the s=0 projected-Gaussian phi
        # ensemble (|Z|=4, |W|=3, rho=1): 0.334 +- 0.002 at 1e5 samples,
        # frozen from the oracle run; the forced sqrt-base null direction
        # keeps it far from zero.
        rep = delta_report(information_ensemble(spec4()).sample(100_000, seed=100))
        assert rep.delta == pytest.approx(0.334, abs=0.02)

    def test_anisotropy_increases_delta(self):
        d0 = delta_report(information_ensemble(spec4(0.0)).sample(40_000, seed=101)).delta
        d5 = delta_report(information_ensemble(spec4(0.5)).sample(40_000, seed=101)).delta
        assert d5 > d0

    def test_rho_scaling_quadratic(self):
        d1 = delta_report(information_ensemble(spec4(rho=1.0)).sample(20_000, seed=102)).delta
        d2 = delta_report(information_ensemble(spec4(rho=0.25)).sample(20_000, seed=102)).delta
        assert d2 == pytest.approx(d1 / 16.0, rel=1e-6)

    def test_rejection_cap_exceeded(self):
        spec = AttributeEnsembleSpec(
            base=BASE4, attribute_size=3, epsilon=3.0, rho=1.0, rejection_cap=50
        )
        with pytest.raises(FeasibilityError, match="infeasible"):
            sample_configuration(spec, seed=1)

    def test_rejection_cap_error_reports_numbers(self):
        spec = AttributeEnsembleSpec(
            base=BASE4, attribute_size=3, epsilon=3.0, rho=1.0, rejection_cap=50
        )
        with pytest.raises(FeasibilityError) as exc:
            sample_configuration(spec, seed=1)
        assert 0.0 < exc.value.max_feasible < 3.0
        assert "51 consecutive draws rejected (accepted 0 of 51 draws)" in str(exc.value)
        draws = loop_information_draws(spec, seed_rng(1))
        run = [next(draws)[0] for _ in range(51)]
        assert exc.value.max_feasible == max(max_feasible_epsilon(BASE4, p) for p in run)

    def test_raw_sample_closed_form_second_moment(self):
        # E[phi_w phi_w'^T] = (c_w . c_w') * P S^2 P with P the projector
        # off sqrt(base), S the row scaling, c_w = e_w - prior.
        s = 0.5
        prior = uniform_pmf(("w0", "w1", "w2"))
        ens = MatrixEnsemble(
            4, 3,
            lambda rng, c: raw_information_sample(rng, BASE4.probs, prior.probs, s, c),
        )
        form = second_moment_form(ens.sample(60_000, seed=55))
        root = np.sqrt(BASE4.probs)
        proj = np.eye(4) - np.outer(root, root)
        smat = np.diag([1.0 + s, 1.0, 1.0, 1.0])
        block = proj @ smat @ smat @ proj
        cmat = np.eye(3) - np.outer(prior.probs, np.ones(3))
        expected = np.kron(cmat.T @ cmat, block)
        assert np.max(np.abs(form.k - expected)) < 0.06


# uniform 4-symbol base, rho 1: eps 0.6 rejects about 8% of draws, eps 1.0 about 95%
REJECTING = spec4(eps=0.6)


class TestArraySampler:
    """The chunked sampler against the draw-by-draw reference loop."""

    @pytest.mark.parametrize("seed", [1, 3])
    @pytest.mark.parametrize("spec", [spec4(0.0), spec4(0.5), REJECTING],
                             ids=["s0", "s0.5", "rejecting"])
    @pytest.mark.parametrize("count", [1, CHUNK - 1, CHUNK, CHUNK + 1, 20_000])
    def test_matches_loop(self, count, spec, seed):
        want = loop_information_sample(spec, count, seed=seed)
        assert np.array_equal(information_ensemble(spec).sample(count, seed), want)
        assert np.array_equal(
            configuration_stream(spec, count, seed=seed),
            np.stack([
                config_from_information_matrix(
                    spec.base, spec.prior,
                    InformationMatrix(phi=phi, epsilon=spec.epsilon, base=spec.base),
                    spec.epsilon,
                ).conditionals
                for phi in want
            ]),
        )

    @pytest.mark.parametrize("eps, seed, count, whole_chunk", [
        # the longest run before the 23rd acceptance is draws 448..544
        (1.0, 9, 23, False),
        # the longest run before the 16th acceptance is draws 1527..2139: it
        # starts 9 draws before a chunk boundary and rejects all of the
        # next chunk (about 1% acceptance)
        (1.1, 7, 16, True),
    ], ids=["one-boundary", "whole-chunk"])
    def test_cap_counts_runs_across_chunks(self, eps, seed, count, whole_chunk):
        spec = spec4(eps=eps)
        draws = loop_information_draws(spec, seed_rng(seed))
        phis, flags = [], []
        while sum(flags) < count:
            phi, ok = next(draws)
            phis.append(phi)
            flags.append(ok)
        runs, start = [], 0
        for i, ok in enumerate(flags):
            if ok:
                runs.append((i - start, start))
                start = i + 1
        longest = max(r for r, _ in runs)
        # the first longest run fails a cap of longest - 1 at its last draw
        k, (_, first) = next((k, run) for k, run in enumerate(runs) if run[0] == longest)
        last = first + longest - 1
        assert first // CHUNK != last // CHUNK
        assert (first % CHUNK != 0 and last // CHUNK - first // CHUNK >= 2) == whole_chunk
        ens = information_ensemble(replace(spec, rejection_cap=longest))
        want = loop_information_sample(spec, count, seed)
        assert np.array_equal(ens.sample(count, seed), want)
        with pytest.raises(FeasibilityError) as exc:
            information_ensemble(replace(spec, rejection_cap=longest - 1)).sample(count, seed)
        assert (f"{longest} consecutive draws rejected (accepted {k} of "
                f"{first + longest} draws)") in str(exc.value)
        assert exc.value.max_feasible == max(
            max_feasible_epsilon(BASE4, p) for p in phis[first : last + 1] if p is not None
        )


class TestPushThroughChannel:
    def test_identity_channel_unchanged(self):
        cfg = sample_configuration(spec4(), seed=3)
        out = push_through_channel(cfg, identity_channel(BASE4.labels))
        assert np.max(np.abs(out.conditionals - cfg.conditionals)) < 1e-15

    def test_binary_hand_computation(self):
        base = uniform_pmf(("a", "b"))
        cond = np.array([[0.6, 0.4], [0.4, 0.6]])
        from maxcorr.geometry import Configuration

        cfg = Configuration(base, ("w0", "w1"), uniform_pmf(("w0", "w1")), cond, 0.3)
        chan = make_channel(np.array([[-1.0, 1.0], [1.0, -1.0]]), 0.1, base.labels)
        out = push_through_channel(cfg, chan)
        # P(a|w0) = 0.9*0.6 + 0.1*0.4 = 0.58
        expected = np.array([[0.58, 0.42], [0.42, 0.58]])
        assert np.max(np.abs(out.conditionals - expected)) < 1e-15

    def test_phi_path_agreement_seeded(self, rng):
        cfg = sample_configuration(spec4(), seed=4)
        t = random_perturbation_t(rng, 4)
        chan = make_channel(t, 0.3, BASE4.labels)
        out = push_through_channel(cfg, chan)  # raises if paths disagree
        b = uncentered_b(chan, cfg.base).b
        gap = np.abs(
            b @ information_matrix(cfg).phi - information_matrix(out).phi
        ).max()
        assert gap < 1e-12


def chain_fixture(rng, eta1, eta2):
    j = JointPmf(tuple("abcd"), tuple("wxyz"), random_positive_joint(rng, 4, 4))
    tx = random_perturbation_t(rng, 4)
    ty = random_perturbation_t(rng, 4)
    cx = make_channel(tx, eta1, j.x_labels)
    cy = make_channel(ty, eta2, j.y_labels)
    return j, cx, cy


class TestMarkovPush:
    def test_zero_noise_residual_vanishes(self, rng):
        j, _, _ = chain_fixture(rng, 0.0, 0.0)
        spec = AttributeEnsembleSpec(
            base=j.marginal_x(), attribute_size=3, epsilon=0.05
        )
        cfg = sample_configuration(spec, seed=5)
        res = markov_push(cfg, j)
        assert res.residual_norm < 1e-12
        assert res.config.base.labels == j.y_labels

    def test_residual_linear_in_eta(self, rng):
        j, cx0, cy = chain_fixture(rng, 0.0, 0.05)
        spec = AttributeEnsembleSpec(
            base=j.marginal_x(), attribute_size=3, epsilon=0.05
        )
        clean_cfg = sample_configuration(spec, seed=6)
        etas = [0.02, 0.04, 0.08]
        norms = []
        for eta in etas:
            cx = make_channel(cx0.T, eta, j.x_labels)
            noisy = apply_channels(j, cx, cy)
            cfg_hat = push_through_channel(clean_cfg, cx)
            res = markov_push(
                cfg_hat, noisy, clean_config=clean_cfg, clean_joint=j, chan_y=cy
            )
            norms.append(res.residual_norm)
        slope = np.polyfit(np.log(etas), np.log(norms), 1)[0]
        assert abs(slope - 1.0) < 0.2

    def test_transposed_statement(self, rng):
        # attribute of Y pushed to X through the swapped joint
        j, _, _ = chain_fixture(rng, 0.0, 0.0)
        spec = AttributeEnsembleSpec(
            base=j.marginal_y(), attribute_size=3, epsilon=0.05
        )
        cfg = sample_configuration(spec, seed=7)
        res = markov_push(cfg, j.swapped())
        assert res.residual_norm < 1e-12

    def test_marginal_mismatch_rejected(self, rng):
        j, _, _ = chain_fixture(rng, 0.0, 0.0)
        other = Pmf(j.x_labels, np.array([0.4, 0.3, 0.2, 0.1]))
        spec = AttributeEnsembleSpec(base=other, attribute_size=3, epsilon=0.05)
        cfg = sample_configuration(spec, seed=8)
        with pytest.raises(ValidationError, match="marginal"):
            markov_push(cfg, j)
