from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    identity_channel,
    loop_information_draws,
    loop_information_sample,
    random_perturbation_t,
    random_positive_joint,
)
from maxcorr.dependence import canonical_dependence_matrix, uncentered_b
import maxcorr.ensemble as ensemble
from maxcorr.ensemble import (
    AttributeEnsembleSpec,
    chain_residual,
    configuration_stream,
    information_ensemble,
    raw_information_sample,
    sample_configuration,
    stack_rows,
)
from maxcorr.errors import AlphabetMismatchError, FeasibilityError, ValidationError
from maxcorr.geometry import (
    Configuration,
    information_matrix,
    information_phi,
    max_feasible_epsilon,
)
from maxcorr.model import (
    JointPmf,
    Pmf,
    apply_channels,
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
        assert np.linalg.norm(phi.phi, axis=-2).max() == pytest.approx(1.0, abs=1e-12)

    def test_stream_deterministic(self):
        a = configuration_stream(spec4(), 5, seed=9)
        b = configuration_stream(spec4(), 5, seed=9)
        assert a.shape == (5, 4, 3)
        assert np.array_equal(a, b)

    def test_ensemble_matches_stream(self):
        # information_ensemble and configuration_stream share one phi stream
        spec = spec4()
        phis = configuration_stream(spec, 4, seed=9)
        assert phis.shape == (4, 4, 3)
        assert np.array_equal(phis, information_ensemble(spec).sample(4, seed=9))

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
BASE16 = Pmf(tuple(f"z{i}" for i in range(16)),
             np.linspace(1.0, 2.0, 16) / np.linspace(1.0, 2.0, 16).sum())
WIDE = AttributeEnsembleSpec(base=BASE16, attribute_size=6, epsilon=0.05, anisotropy=0.5)


def recorded_call_sizes(monkeypatch) -> list[int]:
    """The draw count of every sampler call made after this is called."""
    sizes = []

    def spy(rng, base, prior, anisotropy, count):
        sizes.append(count)
        return raw_information_sample(rng, base, prior, anisotropy, count)

    monkeypatch.setattr(ensemble, "raw_information_sample", spy)
    return sizes


class TestArraySampler:
    """The stacked sampler against the draw-by-draw reference loop."""

    # counts below one 4 x 3 stack: met by one call of the request, then by
    # top-up calls sized at the acceptance seen so far
    @pytest.mark.parametrize("seed", [1, 3])
    @pytest.mark.parametrize("spec", [spec4(0.0), spec4(0.5), REJECTING],
                             ids=["s0", "s0.5", "rejecting"])
    @pytest.mark.parametrize("count", [1, 511, 512, 513, 20_000])
    def test_matches_loop(self, count, spec, seed):
        want = loop_information_sample(spec, count, seed=seed)
        assert np.array_equal(information_ensemble(spec).sample(count, seed), want)
        assert np.array_equal(configuration_stream(spec, count, seed=seed), want)

    @pytest.mark.parametrize("seed", [1, 3])
    @pytest.mark.parametrize("spec", [spec4(0.0), spec4(0.5), REJECTING, WIDE],
                             ids=["s0", "s0.5", "rejecting", "16x6"])
    @pytest.mark.parametrize("offset", [-1, 0, 1], ids=["stack-1", "stack", "stack+1"])
    def test_matches_loop_around_stack(self, offset, spec, seed):
        count = stack_rows(spec.base.size, spec.attribute_size) + offset
        want = loop_information_sample(spec, count, seed=seed)
        assert np.array_equal(information_ensemble(spec).sample(count, seed), want)
        assert np.array_equal(configuration_stream(spec, count, seed=seed), want)

    def test_first_call_draws_the_request(self, monkeypatch):
        sizes = recorded_call_sizes(monkeypatch)
        configuration_stream(spec4(), 60, seed=9)
        assert sizes == [60]
        sizes.clear()
        configuration_stream(spec4(), 20_000, seed=9)
        assert sizes[0] == stack_rows(4, 3) == 2730
        assert sum(sizes) == 20_000

    @pytest.mark.parametrize("eps, seed, count, whole_chunk", [
        # the longest run before the 4th acceptance is draws 1812..2749: it
        # crosses the end of the full stack of draws 4..2733
        (1.16, 82, 4, False),
        # the longest run before the 3rd acceptance is draws 2321..5652: it
        # rejects all of the full stack of draws 2733..5462 (about 0.03%
        # acceptance)
        (1.18, 95, 3, True),
    ], ids=["one-boundary", "whole-chunk"])
    def test_cap_counts_runs_across_chunks(self, monkeypatch, eps, seed, count, whole_chunk):
        spec = spec4(eps=eps)
        draws = loop_information_draws(spec, seed_rng(seed))
        phis, flags, accepted = [], [], 0
        while accepted < count:
            phi, ok = next(draws)
            phis.append(phi)
            flags.append(ok)
            accepted += ok
        runs, start = [], 0
        for i, ok in enumerate(flags):
            if ok:
                runs.append((i - start, start))
                start = i + 1
        longest = max(r for r, _ in runs)
        # the first longest run fails a cap of longest - 1 at its last draw
        k, (_, first) = next((k, run) for k, run in enumerate(runs) if run[0] == longest)
        last = first + longest - 1
        ens = information_ensemble(replace(spec, rejection_cap=longest))
        want = np.stack([phi for phi, ok in zip(phis, flags) if ok])
        sizes = recorded_call_sizes(monkeypatch)
        assert np.array_equal(ens.sample(count, seed), want)
        calls = np.array(sizes)
        ends = np.cumsum(calls)
        full = calls == stack_rows(4, 3)
        # the run goes on past the last draw of a full stack
        assert np.any(full & (first < ends) & (ends <= last))
        # and holds every draw of one, or of none
        assert np.any(full & (first <= ends - calls) & (ends - 1 <= last)) == whole_chunk
        with pytest.raises(FeasibilityError) as exc:
            information_ensemble(replace(spec, rejection_cap=longest - 1)).sample(count, seed)
        assert (f"{longest} consecutive draws rejected (accepted {k} of "
                f"{first + longest} draws)") in str(exc.value)
        assert exc.value.max_feasible == max(
            max_feasible_epsilon(BASE4, p) for p in phis[first : last + 1] if p is not None
        )


class TestPushThroughChannel:
    """An attribute's information matrix crosses a channel as one product
    with the channel's uncentered dependence matrix."""

    def test_identity_channel_unchanged(self):
        cfg = sample_configuration(spec4(), seed=3)
        phi = information_matrix(cfg).phi
        out = uncentered_b(identity_channel(BASE4.labels).P, cfg.base) @ phi
        assert np.max(np.abs(out - phi)) < 1e-15

    def test_binary_hand_computation(self):
        base = uniform_pmf(("a", "b"))
        cond = np.array([[0.6, 0.4], [0.4, 0.6]])
        cfg = Configuration(base, uniform_pmf(("w0", "w1")), cond, 0.3)
        chan = make_channel(np.array([[-1.0, 1.0], [1.0, -1.0]]), 0.1, base.labels)
        out = uncentered_b(chan.P, base) @ information_matrix(cfg).phi
        # P(a|w0) = 0.9*0.6 + 0.1*0.4 = 0.58, on the uniform output base
        expected = np.array([[0.58, 0.42], [0.42, 0.58]])
        want = information_phi(expected, base.probs, 0.3)
        # the conditionals' 1e-15, in units of eps * sqrt(P(z)) = 0.3 * sqrt(1/2)
        assert np.max(np.abs(out - want)) < 1e-15 / (0.3 * np.sqrt(0.5))

    def test_phi_path_agreement_seeded(self, rng):
        # the push of the information matrix is the information matrix of
        # the pushed conditionals P Cond, on the pushed base P p
        cfg = sample_configuration(spec4(), seed=4)
        t = random_perturbation_t(rng, 4)
        chan = make_channel(t, 0.3, BASE4.labels)
        pushed = Configuration(chan.apply(cfg.base), cfg.prior,
                               chan.P @ cfg.conditionals, cfg.epsilon)
        b = uncentered_b(chan.P, cfg.base)
        gap = np.abs(
            b @ information_matrix(cfg).phi - information_matrix(pushed).phi
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
        j, cx, cy = chain_fixture(rng, 0.0, 0.0)
        spec = AttributeEnsembleSpec(
            base=j.marginal_x(), attribute_size=3, epsilon=0.05
        )
        cfg = sample_configuration(spec, seed=5)
        res = chain_residual(cfg, j, cx, cy)
        assert res.shape == (len(j.y_labels), 3)
        assert np.abs(res).max() < 1e-12

    @pytest.mark.parametrize("eta1", [0.0, 0.05])
    def test_matches_conditional_space_formula(self, rng, eta1):
        # the residual written on conditionals: push U's conditionals through
        # P(x^|x) and through P(y^|y) P(y|x), take each information matrix on
        # its noisy base, and subtract B^ times the X^ one
        j, cx, cy = chain_fixture(rng, eta1, 0.3)
        spec = AttributeEnsembleSpec(base=j.marginal_x(), attribute_size=3,
                                     epsilon=0.05, anisotropy=0.3)
        cfg = sample_configuration(spec, seed=11)
        noisy = apply_channels(j, cx, cy)
        cond_x = cx.P @ cfg.conditionals
        cond_y = cy.P @ (j.conditional_y_given_x() @ cfg.conditionals)
        phi_x = information_phi(cond_x, noisy.marginal_x().probs, cfg.epsilon)
        phi_y = information_phi(cond_y, noisy.marginal_y().probs, cfg.epsilon)
        b_hat = canonical_dependence_matrix(noisy).b
        want = phi_y - b_hat @ phi_x
        assert np.abs(chain_residual(cfg, j, cx, cy) - want).max() < 1e-12

    def test_y_noise_alone_leaves_no_residual(self, rng):
        # U - X - Y^ is a Markov chain, so only X noise leaves a residual
        j, cx, cy = chain_fixture(rng, 0.0, 0.3)
        spec = AttributeEnsembleSpec(
            base=j.marginal_x(), attribute_size=3, epsilon=0.05
        )
        cfg = sample_configuration(spec, seed=9)
        assert np.abs(chain_residual(cfg, j, cx, cy)).max() < 1e-12

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
            norms.append(np.abs(chain_residual(clean_cfg, j, cx, cy)).max())
        slope = np.polyfit(np.log(etas), np.log(norms), 1)[0]
        assert abs(slope - 1.0) < 0.2

    def test_transposed_statement(self, rng):
        # attribute of Y pushed to X through the joint with X and Y exchanged
        j, cx, cy = chain_fixture(rng, 0.0, 0.0)
        spec = AttributeEnsembleSpec(
            base=j.marginal_y(), attribute_size=3, epsilon=0.05
        )
        cfg = sample_configuration(spec, seed=7)
        res = chain_residual(cfg, JointPmf(j.y_labels, j.x_labels, j.probs.T), cy, cx)
        assert np.abs(res).max() < 1e-12

    def test_marginal_mismatch_rejected(self, rng):
        j, cx, cy = chain_fixture(rng, 0.0, 0.0)
        other = Pmf(j.x_labels, np.array([0.4, 0.3, 0.2, 0.1]))
        spec = AttributeEnsembleSpec(base=other, attribute_size=3, epsilon=0.05)
        cfg = sample_configuration(spec, seed=8)
        with pytest.raises(ValidationError, match="marginal"):
            chain_residual(cfg, j, cx, cy)

    def test_alphabet_mismatch_rejected(self, rng):
        j, cx, cy = chain_fixture(rng, 0.0, 0.0)
        other = Pmf(tuple("pqrs"), j.marginal_x().probs)
        spec = AttributeEnsembleSpec(base=other, attribute_size=3, epsilon=0.05)
        cfg = sample_configuration(spec, seed=8)
        with pytest.raises(AlphabetMismatchError, match="configuration labels"):
            chain_residual(cfg, j, cx, cy)
