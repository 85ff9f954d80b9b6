import numpy as np
import pytest

from conftest import (
    random_perturbation_t,
    random_positive_joint,
    random_positive_pmf,
)
from maxcorr.dependence import (
    CdmMatrix,
    canonical_dependence_matrix,
    hgr_profile,
    select_features,
    uncentered_b,
)
from maxcorr.errors import ValidationError
from maxcorr.geometry import feature_vectors
from maxcorr.model import (
    JointPmf,
    Pmf,
    apply_channels,
    identity_channel,
    make_channel,
    max_feasible_eta,
    product_joint,
    uniform_pmf,
)
from maxcorr.svd import canonical_sign

T_BINARY = np.array([[-1.0, 1.0], [1.0, -1.0]])




class TestCanonicalDependenceMatrix:
    def test_product_joint_is_exactly_zero(self):
        # dyadic marginals make the centering exact in floating point
        px = Pmf(("a", "b"), np.array([0.25, 0.75]))
        py = Pmf(("0", "1"), np.array([0.5, 0.5]))
        cdm = canonical_dependence_matrix(product_joint(px, py))
        assert np.array_equal(cdm.b, np.zeros((2, 2)))
        assert np.max(cdm.sigmas) == 0.0

    def test_perfectly_correlated_binary(self):
        j = JointPmf(("a", "b"), ("0", "1"), np.diag([0.5, 0.5]))
        cdm = canonical_dependence_matrix(j)
        assert np.max(np.abs(cdm.b - np.array([[0.5, -0.5], [-0.5, 0.5]]))) < 1e-15
        assert cdm.sigmas[0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_dense_svd_oracle(self, rng):
        for _ in range(25):
            nx = int(rng.integers(2, 9))
            ny = int(rng.integers(2, 9))
            j = JointPmf(
                tuple(f"x{i}" for i in range(nx)),
                tuple(f"y{i}" for i in range(ny)),
                random_positive_joint(rng, nx, ny),
            )
            cdm = canonical_dependence_matrix(j)
            oracle = np.linalg.svd(cdm.b, compute_uv=False)
            assert np.max(np.abs(cdm.sigmas - oracle)) < 1e-10
            assert np.all(cdm.sigmas <= 1 + 1e-10)
            assert np.max(np.abs(cdm.b @ np.sqrt(cdm.px.probs))) < 1e-10
            assert np.max(np.abs(cdm.b.T @ np.sqrt(cdm.py.probs))) < 1e-10

    def test_null_directions_are_sqrt_marginals(self, rng):
        # a full-support CDM annihilates sqrt(P_X) and sqrt(P_Y); on a square
        # joint its one zero-sigma pair is exactly those directions
        for n in (2, 3, 5, 8):
            labels = tuple(f"s{i}" for i in range(n))
            cdm = canonical_dependence_matrix(
                JointPmf(labels, labels, random_positive_joint(rng, n, n)))
            assert cdm.sigmas[-1] < 1e-12 < cdm.sigmas[-2]
            for vec, pmf in ((cdm.svd.v[:, -1], cdm.px), (cdm.svd.u[:, -1], cdm.py)):
                root = np.sqrt(pmf.probs)
                assert np.max(np.abs(vec - canonical_sign(root) * root)) < 1e-12

    def test_non_finite_b_rejected(self):
        half = Pmf(("a", "b"), np.array([0.5, 0.5]))
        with pytest.raises(ValidationError, match="non-finite"):
            CdmMatrix(b=np.full((2, 2), np.nan), px=half, py=half)

    def test_zero_marginal_named(self):
        j = JointPmf(("a", "b"), ("0", "1"), np.array([[0.5, 0.0], [0.5, 0.0]]))
        with pytest.raises(ValidationError, match="'b'"):
            canonical_dependence_matrix(j)

    def test_composition_identity(self, rng):
        # B(noisy) = M_Y B(clean) M_X^T with M the uncentered channel matrices
        j = JointPmf(tuple("abcd"), tuple("wxyz"), random_positive_joint(rng, 4, 4))
        tx, ty = random_perturbation_t(rng, 4), random_perturbation_t(rng, 4)
        cx = make_channel(tx, 0.3 * max_feasible_eta(tx), j.x_labels)
        cy = make_channel(ty, 0.3 * max_feasible_eta(ty), j.y_labels)
        clean = canonical_dependence_matrix(j)
        noisy = canonical_dependence_matrix(apply_channels(j, cx, cy))
        mx = uncentered_b(cx, j.marginal_x()).b
        my = uncentered_b(cy, j.marginal_y()).b
        assert np.max(np.abs(noisy.b - my @ clean.b @ mx.T)) < 1e-10

    def test_degenerate_group_detection(self):
        # B = 0.3 * (projector onto the complement of sqrt-uniform)
        probs = np.full((3, 3), (1 - 0.3) / 9) + 0.1 * np.eye(3)
        j = JointPmf(("a", "b", "c"), ("u", "v", "w"), probs)
        cdm = canonical_dependence_matrix(j)
        assert np.allclose(np.sort(cdm.sigmas), [0.0, 0.3, 0.3], atol=1e-12)
        assert cdm.degenerate_groups(2) == ((0, 1),)
        assert cdm.degenerate_groups(1) == ((0, 1),)


class TestUncenteredB:
    def test_identity_channel(self):
        p = Pmf(("a", "b"), np.array([0.3, 0.7]))
        ub = uncentered_b(identity_channel(p.labels), p)
        assert np.max(np.abs(ub.b - np.eye(2))) < 1e-12
        assert ub.sigmas == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_bsc_uniform_closed_form(self):
        eta = 0.15
        ub = uncentered_b(
            make_channel(T_BINARY, eta, ("a", "b")), uniform_pmf(("a", "b"))
        )
        assert np.max(np.abs(ub.b - ub.b.T)) < 1e-15
        assert np.allclose(np.sort(ub.sigmas), [1 - 2 * eta, 1.0], atol=1e-12)
        assert ub.spectral_spread() == pytest.approx(1 - (1 - 2 * eta) ** 2, abs=1e-12)

    def test_spread_linear_in_eta(self, rng):
        t = random_perturbation_t(rng, 4)
        p = Pmf(tuple("abcd"), random_positive_pmf(rng, 4))
        etas = np.array([0.01, 0.02, 0.04, 0.08]) * max_feasible_eta(t)
        spreads = [
            uncentered_b(make_channel(t, e, p.labels), p).spectral_spread()
            for e in etas
        ]
        slope = np.polyfit(np.log(etas), np.log(spreads), 1)[0]
        assert abs(slope - 1.0) < 0.2


class TestSelectFeatures:
    def test_full_rank_completeness(self, rng):
        j = JointPmf(
            tuple("abcd"), tuple("wxyz"), random_positive_joint(rng, 4, 4)
        )
        f, g = select_features(j, 3)
        pf = f.base.probs
        gram = (f.h * pf[:, None]).T @ f.h
        assert np.max(np.abs(gram - np.eye(3))) < 1e-8
        assert np.max(np.abs(pf @ f.h)) < 1e-10

    def test_perfectly_correlated_binary(self):
        j = JointPmf(("a", "b"), ("0", "1"), np.diag([0.5, 0.5]))
        f, g = select_features(j, 1)
        assert np.max(np.abs(f.h[:, 0] - np.array([1.0, -1.0]))) < 1e-12
        assert np.max(np.abs(g.h[:, 0] - np.array([1.0, -1.0]))) < 1e-12

    def test_independent_joint_flagged(self):
        px = Pmf(("a", "b"), np.array([0.25, 0.75]))
        py = Pmf(("0", "1"), np.array([0.5, 0.5]))
        f, g = select_features(product_joint(px, py), 1)
        assert f.zero_indices == (0,)
        assert g.zero_indices == (0,)
        # flagged features are still valid normalized features
        assert abs(float(px.probs @ f.h[:, 0])) < 1e-12

    def test_k_out_of_range(self):
        j = JointPmf(("a", "b"), ("0", "1"), np.full((2, 2), 0.25))
        with pytest.raises(ValidationError, match="range"):
            select_features(j, 2)
        with pytest.raises(ValidationError, match="range"):
            select_features(j, 0)

    def test_svd_vectors_recovered(self, rng):
        j = JointPmf(
            tuple("abc"), tuple("uvw"), random_positive_joint(rng, 3, 3)
        )
        cdm = canonical_dependence_matrix(j)
        f, g = select_features(j, 2)
        psi_f = feature_vectors(f)
        psi_g = feature_vectors(g)
        assert np.max(np.abs(psi_f - cdm.svd.v[:, :2])) < 1e-9
        assert np.max(np.abs(psi_g - cdm.svd.u[:, :2])) < 1e-9


class TestHgrProfile:
    def test_product_joint_zero(self):
        px = Pmf(("a", "b"), np.array([0.5, 0.5]))
        assert np.max(hgr_profile(product_joint(px, px))) == 0.0

    def test_binary_correlation_coefficient(self):
        j = JointPmf(("a", "b"), ("0", "1"), np.array([[0.4, 0.1], [0.1, 0.4]]))
        prof = hgr_profile(j)
        assert prof[0] == pytest.approx(0.6, abs=1e-12)

    def test_data_processing_shrinks_spectrum(self, rng):
        for _ in range(10):
            j = JointPmf(
                tuple("abcd"), tuple("wxyz"), random_positive_joint(rng, 4, 4)
            )
            tx, ty = random_perturbation_t(rng, 4), random_perturbation_t(rng, 4)
            cx = make_channel(tx, 0.5 * max_feasible_eta(tx), j.x_labels)
            cy = make_channel(ty, 0.5 * max_feasible_eta(ty), j.y_labels)
            noisy = apply_channels(j, cx, cy)
            clean_s = np.linalg.svd(canonical_dependence_matrix(j).b, compute_uv=False)
            noisy_s = np.linalg.svd(
                canonical_dependence_matrix(noisy).b, compute_uv=False
            )
            assert np.all(noisy_s <= clean_s + 1e-10)
