import numpy as np
import pytest

from conftest import (
    identity_channel,
    product_joint,
    random_perturbation_t,
    random_positive_joint,
    random_positive_pmf,
    rotated_null_svd,
)
from maxcorr.dependence import (
    CdmMatrix,
    canonical_dependence_matrix,
    select_features,
    uncentered_b,
)
from maxcorr.errors import ValidationError
from maxcorr.geometry import feature_vectors
from maxcorr.model import (
    JointPmf,
    Pmf,
    apply_channels,
    make_channel,
    max_feasible_eta,
    uniform_pmf,
)
from maxcorr.svd import canonical_sign, jacobi_svd

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
        mx = uncentered_b(cx.P, j.marginal_x())
        my = uncentered_b(cy.P, j.marginal_y())
        assert np.max(np.abs(noisy.b - my @ clean.b @ mx.T)) < 1e-10

    def test_repeated_singular_values(self):
        # B = 0.3 * (projector onto the complement of sqrt-uniform)
        probs = np.full((3, 3), (1 - 0.3) / 9) + 0.1 * np.eye(3)
        j = JointPmf(("a", "b", "c"), ("u", "v", "w"), probs)
        cdm = canonical_dependence_matrix(j)
        assert np.allclose(np.sort(cdm.sigmas), [0.0, 0.3, 0.3], atol=1e-12)


class TestUncenteredB:
    def test_identity_channel(self):
        p = Pmf(("a", "b"), np.array([0.3, 0.7]))
        b = uncentered_b(identity_channel(p.labels).P, p)
        assert np.max(np.abs(b - np.eye(2))) < 1e-12
        assert jacobi_svd(b).s == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_bsc_uniform_closed_form(self):
        eta = 0.15
        b = uncentered_b(
            make_channel(T_BINARY, eta, ("a", "b")).P, uniform_pmf(("a", "b"))
        )
        assert np.max(np.abs(b - b.T)) < 1e-15
        s = jacobi_svd(b).s
        assert np.allclose(np.sort(s), [1 - 2 * eta, 1.0], atol=1e-12)
        assert s[0] ** 2 - s[-1] ** 2 == pytest.approx(1 - (1 - 2 * eta) ** 2, abs=1e-12)

    def test_spread_linear_in_eta(self, rng):
        t = random_perturbation_t(rng, 4)
        p = Pmf(tuple("abcd"), random_positive_pmf(rng, 4))
        etas = np.array([0.01, 0.02, 0.04, 0.08]) * max_feasible_eta(t)
        sigmas = [jacobi_svd(uncentered_b(make_channel(t, e, p.labels).P, p)).s for e in etas]
        spreads = [s[0] ** 2 - s[-1] ** 2 for s in sigmas]
        slope = np.polyfit(np.log(etas), np.log(spreads), 1)[0]
        assert abs(slope - 1.0) < 0.2

    def test_top_singular_value_is_one(self, rng):
        # sigma_max = 1 for every column-stochastic P, at the sqrt-marginal pair
        for n in (2, 3, 5):
            for frac in (0.0, 0.3, 0.7, 1.0):
                t = random_perturbation_t(rng, n)
                p = Pmf(tuple("abcde"[:n]), random_positive_pmf(rng, n))
                b = uncentered_b(make_channel(t, frac * max_feasible_eta(t), p.labels).P, p)
                assert abs(jacobi_svd(b).s[0] - 1.0) < 1e-10

    # each kernel rule, with the name the error gives it
    @pytest.mark.parametrize("kernel, needle", [
        (np.full((3, 3), 1.0 / 3.0), "one column per input symbol (2)"),
        (np.array([[1.2, 0.5], [-0.2, 0.5]]), "negative entry -0.2"),
        (np.array([[0.6, 0.5], [0.4 + 1e-10, 0.5]]), "columns miss a sum of 1 by 1e-10"),
        (np.array([[0.6, 0.5], [0.4, 0.5], [0.0, 0.0]]), "output symbol 2 has zero probability"),
    ], ids=["columns", "negative", "column-sum", "zero-output"])
    def test_kernel_rules(self, kernel, needle):
        p = Pmf(("a", "b"), np.array([0.3, 0.7]))
        with pytest.raises(ValidationError) as exc:
            uncentered_b(kernel, p)
        assert needle in str(exc.value)


class TestSelectFeatures:
    def test_full_rank_completeness(self, rng):
        j = JointPmf(
            tuple("abcd"), tuple("wxyz"), random_positive_joint(rng, 4, 4)
        )
        f, g = select_features(canonical_dependence_matrix(j), 3)
        pf = f.base.probs
        gram = (f.h * pf[:, None]).T @ f.h
        assert np.max(np.abs(gram - np.eye(3))) < 1e-8
        assert np.max(np.abs(pf @ f.h)) < 1e-10

    def test_perfectly_correlated_binary(self):
        j = JointPmf(("a", "b"), ("0", "1"), np.diag([0.5, 0.5]))
        f, g = select_features(canonical_dependence_matrix(j), 1)
        assert np.max(np.abs(f.h[:, 0] - np.array([1.0, -1.0]))) < 1e-12
        assert np.max(np.abs(g.h[:, 0] - np.array([1.0, -1.0]))) < 1e-12

    def test_independent_joint_features_normalized(self):
        px = Pmf(("a", "b"), np.array([0.25, 0.75]))
        py = Pmf(("0", "1"), np.array([0.5, 0.5]))
        f, g = select_features(canonical_dependence_matrix(product_joint(px, py)), 1)
        # zero-sigma features are still valid normalized features
        assert abs(float(px.probs @ f.h[:, 0])) < 1e-12

    def test_zero_sigma_features_independent_of_lapack(self, monkeypatch):
        # rank-one dependence: features 2 and 3 pair with zero sigmas, so they
        # must not follow the null basis LAPACK happens to return
        u = np.array([1.0, -1.0, 1.0, -1.0]) / 2.0
        v = np.array([1.0, 1.0, -1.0, -1.0]) / 2.0
        py, px = [0.16, 0.24, 0.28, 0.32], [0.1, 0.2, 0.3, 0.4]
        probs = np.outer(py, px) + 0.02 * np.outer(u, v)
        j = JointPmf(tuple("abcd"), tuple("wxyz"), probs)
        want = select_features(canonical_dependence_matrix(j), 3)
        monkeypatch.setattr(np.linalg, "svd", rotated_null_svd)
        got = select_features(canonical_dependence_matrix(j), 3)
        for fs_got, fs_want in zip(got, want):
            assert np.array_equal(fs_got.h, fs_want.h)

    def test_k_out_of_range(self):
        j = JointPmf(("a", "b"), ("0", "1"), np.full((2, 2), 0.25))
        with pytest.raises(ValidationError, match="range"):
            select_features(canonical_dependence_matrix(j), 2)
        with pytest.raises(ValidationError, match="range"):
            select_features(canonical_dependence_matrix(j), 0)

    def test_svd_vectors_recovered(self, rng):
        j = JointPmf(
            tuple("abc"), tuple("uvw"), random_positive_joint(rng, 3, 3)
        )
        cdm = canonical_dependence_matrix(j)
        f, g = select_features(cdm, 2)
        psi_f = feature_vectors(f)
        psi_g = feature_vectors(g)
        assert np.max(np.abs(psi_f - cdm.svd.v[:, :2])) < 1e-9
        assert np.max(np.abs(psi_g - cdm.svd.u[:, :2])) < 1e-9


class TestHgrProfile:
    def test_product_joint_zero(self):
        px = Pmf(("a", "b"), np.array([0.5, 0.5]))
        assert np.max(canonical_dependence_matrix(product_joint(px, px)).sigmas) == 0.0

    def test_binary_correlation_coefficient(self):
        j = JointPmf(("a", "b"), ("0", "1"), np.array([[0.4, 0.1], [0.1, 0.4]]))
        prof = canonical_dependence_matrix(j).sigmas
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
