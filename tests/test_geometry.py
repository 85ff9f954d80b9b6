import numpy as np
import pytest

from conftest import loop_max_feasible_step, random_positive_pmf
from maxcorr.errors import (
    AlphabetMismatchError,
    FeasibilityError,
    RankDeficiencyError,
    ValidationError,
)
from maxcorr.geometry import (
    Configuration,
    FeatureSet,
    InformationMatrix,
    chi2_divergence,
    config_from_information_matrix,
    dump_features,
    feature_vectors,
    information_matrix,
    load_features,
    max_feasible_epsilon,
    normalize_features,
)
from maxcorr.model import Pmf, uniform_pmf

U2 = uniform_pmf(("z1", "z2"))


def small_config(eps=0.1):
    cond = np.array([[0.55, 0.45], [0.45, 0.55]])
    return Configuration(
        base=U2,
        w_labels=("w1", "w2"),
        prior=uniform_pmf(("w1", "w2")),
        conditionals=cond,
        epsilon=eps,
    )


class TestChi2:
    def test_zero_at_ref(self):
        p = Pmf(("a", "b"), np.array([0.3, 0.7]))
        assert chi2_divergence(p, p) == 0.0

    def test_hand_value(self):
        # ((0.6-0.5)^2 + (0.4-0.5)^2) / 0.5 = 0.02 / 0.5 = 0.04
        p = Pmf(("z1", "z2"), np.array([0.6, 0.4]))
        assert chi2_divergence(p, U2) == pytest.approx(0.04, abs=1e-15)

    def test_membership_threshold(self):
        p = Pmf(("z1", "z2"), np.array([0.55, 0.45]))
        # ((0.55-0.5)^2 + (0.45-0.5)^2) / 0.5 = 0.005 / 0.5 = 0.01
        assert chi2_divergence(p, U2) == pytest.approx(0.01, abs=1e-15)

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            chi2_divergence(U2, uniform_pmf(("a", "b")))

    def test_nonpositive_ref(self):
        ref = Pmf(("a", "b"), np.array([1.0, 0.0]))
        with pytest.raises(ValidationError):
            chi2_divergence(Pmf(("a", "b"), np.array([0.5, 0.5])), ref)


class TestConfiguration:
    def test_valid(self):
        small_config()

    def test_ball_violation(self):
        with pytest.raises(ValidationError, match="epsilon-ball"):
            small_config(eps=0.05)

    def test_marginal_consistency_enforced(self):
        cond = np.array([[0.55, 0.55], [0.45, 0.45]])
        with pytest.raises(ValidationError, match="miss the base"):
            Configuration(U2, ("w1", "w2"), uniform_pmf(("w1", "w2")), cond, 0.2)

    def test_unconstrained_flag(self):
        cond = np.array([[0.55, 0.55], [0.45, 0.45]])
        cfg = Configuration(
            U2, ("w1", "w2"), uniform_pmf(("w1", "w2")), cond, 0.2, unconstrained=True
        )
        assert cfg.conditional("w2").probs[0] == 0.55


class TestInformationMatrix:
    def test_independent_attribute_gives_zero(self):
        cond = np.array([[0.5, 0.5], [0.5, 0.5]])
        cfg = Configuration(U2, ("w1", "w2"), uniform_pmf(("w1", "w2")), cond, 0.1)
        phi = information_matrix(cfg)
        assert np.array_equal(phi.phi, np.zeros((2, 2)))

    def test_displayed_formula_by_hand(self):
        # (0.55 - 0.5) / (0.1 * sqrt(0.5)) = 0.05 / 0.0707... = sqrt(0.5)
        phi = information_matrix(small_config())
        r = np.sqrt(0.5)
        expected = np.array([[r, -r], [-r, r]])
        assert np.max(np.abs(phi.phi - expected)) < 1e-14
        assert phi.column_norms == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_round_trip_exact(self, rng):
        for _ in range(25):
            nz = int(rng.integers(2, 7))
            nw = int(rng.integers(2, 5))
            base = Pmf(tuple(f"z{i}" for i in range(nz)), random_positive_pmf(rng, nz))
            prior = Pmf(tuple(f"w{j}" for j in range(nw)), random_positive_pmf(rng, nw))
            # build marginal-consistent conditionals via a tiny mixing kernel
            noise = rng.normal(size=(nz, nw))
            noise -= base.probs[:, None] * noise.sum(axis=0, keepdims=True)
            noise -= (noise @ prior.probs)[:, None]
            cond = base.probs[:, None] + 0.02 * noise
            cond = np.clip(cond, 1e-6, None)
            cond /= cond.sum(axis=0, keepdims=True)
            cond = cond - ((cond @ prior.probs) - base.probs)[:, None]
            if np.any(cond < 0):
                continue
            eps = float(np.sqrt(
                ((cond - base.probs[:, None]) ** 2 / base.probs[:, None]).sum(axis=0).max()
            )) * 1.5 + 1e-9
            cfg = Configuration(base, prior.labels, prior, cond, eps)
            phi = information_matrix(cfg)
            back = config_from_information_matrix(base, prior, phi, eps)
            assert np.max(np.abs(back.conditionals - cfg.conditionals)) < 1e-14

    def test_norm_cap_enforced(self):
        big = np.array([[2.0, -2.0], [-2.0, 2.0]])
        with pytest.raises(ValidationError, match="exceeds 1"):
            InformationMatrix(phi=big, epsilon=0.1, base=U2)

    def test_sqrt_base_orthogonality_enforced(self):
        skew = np.array([[0.5, 0.0], [0.0, 0.5]])
        with pytest.raises(ValidationError, match="sqrt"):
            InformationMatrix(phi=skew, epsilon=0.1, base=U2)


class TestConfigFromInformationMatrix:
    def test_feasibility_error_reports_max_epsilon(self):
        r = np.sqrt(0.5)
        phi = InformationMatrix(
            phi=np.array([[-r, r], [r, -r]]), epsilon=1.0, base=U2
        )
        # entries 0.5 +/- eps*0.5: feasible up to eps = 1.0
        assert max_feasible_epsilon(U2, phi.phi) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(FeasibilityError, match="max feasible: 1"):
            config_from_information_matrix(U2, uniform_pmf(("w1", "w2")), phi, 1.5)

    def test_max_feasible_epsilon_matches_loop(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 6))
            base = Pmf(tuple(f"z{i}" for i in range(n)), random_positive_pmf(rng, n))
            phi = rng.normal(size=(n, 3))
            phi[rng.random((n, 3)) < 0.3] = 0.0
            step = np.sqrt(base.probs)[:, None] * phi
            want = loop_max_feasible_step(base.probs[:, None], step)
            assert max_feasible_epsilon(base, phi) == want
        assert max_feasible_epsilon(U2, np.zeros((2, 2))) == np.inf


STACK_BASE = Pmf(("z0", "z1", "z2", "z3"), np.array([0.15, 0.2, 0.3, 0.35]))
STACK_PRIOR = Pmf(("w0", "w1", "w2"), np.array([0.2, 0.3, 0.5]))
STACK_EPS = 0.1


def stack_draws(count=5):
    """`count` valid information matrices (column norms up to 0.5) and their
    conditionals, as (count, 4, 3) stacks."""
    from maxcorr.ensemble import AttributeEnsembleSpec, information_ensemble

    spec = AttributeEnsembleSpec(STACK_BASE, 3, STACK_EPS, prior=STACK_PRIOR, rho=0.5)
    phi = information_ensemble(spec).sample(count, seed=4)
    root = np.sqrt(STACK_BASE.probs)[:, None]
    return phi, STACK_BASE.probs[:, None] + STACK_EPS * root * phi


def stacked_config(cond):
    return Configuration(STACK_BASE, STACK_PRIOR.labels, STACK_PRIOR, cond, STACK_EPS)


def stacked_phi(phi):
    return InformationMatrix(phi=phi, epsilon=STACK_EPS, base=STACK_BASE)


def _negative_entry(phi, cond):
    cond[0, 1] += cond[0, 0] + 0.01  # the column still sums to one
    cond[0, 0] = -0.01


def _column_sum(phi, cond):
    cond[:, 2] *= 1.01


def _outside_ball(phi, cond):
    # deviation column norm 1.2 > 1: sums and mixture unchanged, entries positive
    cond[:] = STACK_BASE.probs[:, None] + (cond - STACK_BASE.probs[:, None]) * 2.4


def _mixture_miss(phi, cond):
    cond[:, 0] = cond[:, 1]  # a valid conditional, but the mixture moves


def _norm_above_one(phi, cond):
    phi *= 2.4


def _not_orthogonal(phi, cond):
    phi += 0.01 * np.sqrt(STACK_BASE.probs)[:, None]


class TestStackedValidation:
    """A stack runs every check of a single matrix, at the same tolerances."""

    def test_valid_stack_matches_per_draw(self):
        phi, cond = stack_draws()
        cfg = stacked_config(cond)
        assert np.array_equal(cfg.conditionals, cond)
        assert np.array_equal(stacked_phi(phi).column_norms,
                              np.stack([stacked_phi(p).column_norms for p in phi]))
        back = config_from_information_matrix(STACK_BASE, STACK_PRIOR, stacked_phi(phi), STACK_EPS)
        assert np.array_equal(back.conditionals, np.stack([
            config_from_information_matrix(
                STACK_BASE, STACK_PRIOR, stacked_phi(p), STACK_EPS).conditionals
            for p in phi
        ]))

    @pytest.mark.parametrize("spoil, build, needle", [
        (_negative_entry, stacked_config, "negative"),
        (_column_sum, stacked_config, "columns off"),
        (_outside_ball, stacked_config, "outside the epsilon-ball"),
        (_mixture_miss, stacked_config, "miss the base"),
        (_norm_above_one, stacked_phi, "exceeds 1"),
        (_not_orthogonal, stacked_phi, "not orthogonal"),
    ], ids=["negative-entry", "column-sum", "outside-ball", "mixture-miss",
            "norm-above-one", "not-orthogonal"])
    def test_one_bad_draw_raises_as_2d(self, spoil, build, needle):
        phi, cond = stack_draws()
        spoil(phi[3], cond[3])
        arg = phi if build is stacked_phi else cond
        for good in range(len(arg)):
            if good != 3:
                build(arg[good])  # only draw 3 is spoiled
        with pytest.raises(ValidationError) as single:
            build(arg[3])
        with pytest.raises(ValidationError) as stacked:
            build(arg)
        assert type(stacked.value) is type(single.value)
        assert needle in str(single.value)
        assert str(stacked.value) == str(single.value)

    def test_infeasible_draw_reports_its_max_epsilon(self):
        phi, _ = stack_draws()
        feasible = [max_feasible_epsilon(STACK_BASE, p) for p in phi]
        bad, second = np.argsort(feasible)[:2]
        eps = (feasible[bad] + feasible[second]) / 2  # only draw `bad` is infeasible
        with pytest.raises(FeasibilityError) as single:
            config_from_information_matrix(STACK_BASE, STACK_PRIOR, stacked_phi(phi[bad]), eps)
        with pytest.raises(FeasibilityError) as stacked:
            config_from_information_matrix(STACK_BASE, STACK_PRIOR, stacked_phi(phi), eps)
        assert stacked.value.max_feasible == single.value.max_feasible == feasible[bad]

    def test_stack_shape_checked(self):
        _, cond = stack_draws()
        with pytest.raises(ValidationError, match="shape"):
            stacked_config(cond[:, :, :2])
        with pytest.raises(ValidationError, match="shape"):
            stacked_config(cond[None])


class TestNormalizeFeatures:
    def test_already_normalized_unchanged(self):
        h = np.array([[1.0], [-1.0]])
        fs = normalize_features(h, U2)
        assert np.max(np.abs(fs.h - h)) < 1e-14

    def test_constant_column_rejected(self):
        with pytest.raises(RankDeficiencyError) as exc:
            normalize_features(np.array([[1.0, 2.0], [-1.0, 2.0]]), U2)
        assert exc.value.column == 1

    def test_indicator_on_uniform(self):
        # indicator of z1: centered (0.5, -0.5), P-norm 0.5 -> h = (1, -1)
        fs = normalize_features(np.array([[1.0], [0.0]]), U2)
        assert np.max(np.abs(fs.h - np.array([[1.0], [-1.0]]))) < 1e-14

    def test_random_property(self, rng):
        for _ in range(30):
            nz = int(rng.integers(2, 8))
            k = int(rng.integers(1, nz))
            base = Pmf(tuple(f"z{i}" for i in range(nz)), random_positive_pmf(rng, nz))
            fs = normalize_features(rng.normal(size=(nz, k)), base)
            psi = feature_vectors(fs)
            assert np.max(np.abs(psi.T @ psi - np.eye(k))) < 1e-8
            assert np.max(np.abs(psi.T @ np.sqrt(base.probs))) < 1e-10


class TestFeatureVectors:
    def test_uniform_example(self):
        fs = FeatureSet(h=np.array([[1.0], [-1.0]]), base=U2)
        psi = feature_vectors(fs)
        r = np.sqrt(0.5)
        assert np.max(np.abs(psi - np.array([[r], [-r]]))) < 1e-15

    def test_skewed_base_unit_norm(self):
        base = Pmf(("z1", "z2"), np.array([0.25, 0.75]))
        fs = normalize_features(np.array([[1.0], [0.0]]), base)
        psi = feature_vectors(fs)
        assert np.linalg.norm(psi[:, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_featureset_invariants_enforced(self):
        with pytest.raises(ValidationError, match="means"):
            FeatureSet(h=np.array([[1.0], [0.0]]), base=U2)
        with pytest.raises(ValidationError, match="orthonormal"):
            FeatureSet(h=np.array([[0.5], [-0.5]]), base=U2)


class TestFeatureIo:
    def test_round_trip(self, rng):
        base = Pmf(("a", "b", "c"), random_positive_pmf(rng, 3))
        fs = normalize_features(rng.normal(size=(3, 2)), base)
        back = load_features(dump_features(fs, header=("demo",)))
        assert back.base.labels == fs.base.labels
        assert np.array_equal(back.h, fs.h)
