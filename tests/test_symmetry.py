from functools import cache
from pathlib import Path

import numpy as np
import pytest

from conftest import conjugated, constant, gaussian_iid, scaled, scaled_rank_one
from maxcorr import symmetry
from maxcorr.cli import load_config
from maxcorr.ensemble import AttributeEnsembleSpec, information_ensemble
from maxcorr.errors import ValidationError
from maxcorr.model import Pmf
from maxcorr.symmetry import (
    MatrixEnsemble,
    SecondMomentForm,
    _gamma,
    delta_report,
    entry_variances,
    moment_symmetry_report,
    projection_bound_check,
    propagation_check,
    rank_one_range,
    second_moment_form,
    variance_bump,
)

BUMP2X2 = variance_bump(2, 2, 1.5)
DEMO = Path(__file__).resolve().parent.parent / "demo" / "demo.ini"


def grid_range_2x2(form, step=1e-3):
    """Independent oracle: exhaustive angle grid over unit pairs in 2D.

    Signs are irrelevant (the form is quadratic in u and v), so angles
    range over [0, pi).
    """
    thetas = np.arange(0.0, np.pi, step)
    us = np.column_stack([np.cos(thetas), np.sin(thetas)])
    # kv[(i, k), (j, l)] = K[i, j, k, l]; row t of uu is vec(u_t u_t^T)
    kv = form.k.reshape((2, 2, 2, 2), order="F").transpose(0, 2, 1, 3).reshape(4, 4)
    uu = (us[:, :, None] * us[:, None, :]).reshape(-1, 4)
    vals = (uu @ kv) @ uu.T  # vals[t, s] = rank-one moment at (u_t, u_s)
    return float(vals.min()), float(vals.max())


def scalar_rank_one_range(form):
    """Independent oracle: the alternating eigen-iteration run one chain at a
    time, from the same starts, each start once toward the maximum and once
    toward the minimum, with the same stopping rule.

    Returns (min_val, max_val, unconverged); the first start wins ties.
    """
    n, m = form.dims
    k4 = form.k.reshape((n, m, n, m), order="F")

    def extremize(u, v, largest):
        pick = -1 if largest else 0
        obj = None
        for _ in range(symmetry.RANK_ONE_MAX_ITER):
            mu = np.einsum("j,l,ijkl->ik", v, v, k4)
            u = np.linalg.eigh((mu + mu.T) / 2.0)[1][:, pick]
            nv = np.einsum("i,k,ijkl->jl", u, u, k4)
            w, q = np.linalg.eigh((nv + nv.T) / 2.0)
            v = q[:, pick]
            new_obj = float(w[pick])
            if obj is not None and abs(new_obj - obj) <= (
                    symmetry.RANK_ONE_TOL * max(1.0, abs(new_obj))):
                return new_obj, True
            obj = new_obj
        return obj, False

    diag = np.diag(form.k)
    starts = [(np.eye(n)[:, pos % n], np.eye(m)[:, pos // n])
              for pos in (int(np.argmax(diag)), int(np.argmin(diag)))]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=0, spawn_key=(97,)))
    for _ in range(symmetry.RANK_ONE_RESTARTS):
        u = rng.standard_normal(n)
        v = rng.standard_normal(m)
        starts.append((u / np.linalg.norm(u), v / np.linalg.norm(v)))
    hi, ok_hi = max((extremize(u, v, True) for u, v in starts), key=lambda r: r[0])
    lo, ok_lo = min((extremize(u, v, False) for u, v in starts), key=lambda r: r[0])
    return lo, hi, not (ok_hi and ok_lo)


ORACLE_FORMS = ["psd-2x2", "psd-3x4", "psd-4x3", "psd-16x6", "info-4x3", "info-16x6"]


@cache
def oracle_form(name):
    """A seeded second-moment form: K = W^T W / rows for a random W, or the
    K of an information-ensemble block (degenerate: the sqrt(base) direction
    of every draw is zero)."""
    kind, dims = name.split("-")
    n, m = (int(d) for d in dims.split("x"))
    rng = np.random.default_rng(n * 100 + m)
    if kind == "psd":
        w = rng.normal(size=(n * m + 2, n * m))
        return SecondMomentForm(k=w.T @ w / len(w), dims=(n, m))
    base = rng.random(n) + 0.1
    spec = AttributeEnsembleSpec(
        base=Pmf(tuple(f"x{i}" for i in range(n)), base / base.sum()),
        attribute_size=m, epsilon=0.05, anisotropy=0.4,
    )
    return second_moment_form(information_ensemble(spec).sample(2000, seed=n + m))


class TestSamplingContract:
    def test_same_seed_same_stream(self):
        ens = gaussian_iid(3, 2)
        a = ens.sample(50, seed=7)
        b = ens.sample(50, seed=7)
        assert np.array_equal(a, b)
        c = ens.sample(50, seed=8)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("seed", [7, (7, 10)], ids=["int", "tuple"])
    def test_block_is_spawn_key_zero_stream(self, seed):
        # the stream every reported delta_hat and exponent is drawn from
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
        want = rng.standard_normal((101, 3, 2))
        assert np.array_equal(gaussian_iid(3, 2).sample(101, seed=seed), want)


class TestSecondMomentForm:
    def test_deterministic_identity(self):
        form = second_moment_form(constant(np.eye(2)).sample(10, seed=0))
        v = np.array([1.0, 0.0, 0.0, 1.0])
        assert np.max(np.abs(form.k - np.outer(v, v))) < 1e-14
        assert np.trace(form.k) == pytest.approx(2.0)

    def test_iid_gaussian_isotropy(self):
        form = second_moment_form(gaussian_iid(2, 2).sample(100_000, seed=11))
        assert np.max(np.abs(form.k - np.eye(4))) < 0.05

    def test_variance_bump_diagonal(self):
        form = second_moment_form(BUMP2X2.sample(100_000, seed=12))
        assert np.max(np.abs(form.k - np.diag([1.5, 1, 1, 1]))) < 0.05

    def test_requires_two_samples(self):
        with pytest.raises(ValidationError):
            second_moment_form(gaussian_iid(2, 2).sample(1, seed=0))

    @staticmethod
    def vec_reference(block):
        """K by the column-major vec of each sample, vec(A)[j*n + i] = A[i, j]."""
        count, n, m = block.shape
        vec = block.transpose(0, 2, 1).reshape(count, n * m)
        k = vec.T @ vec / count
        return (k + k.T) / 2.0

    def test_non_square_keeps_vec_convention(self):
        block = entry_variances(np.arange(1.0, 16.0).reshape(5, 3)).sample(500, seed=13)
        k = second_moment_form(block).k
        want = self.vec_reference(block)
        assert np.max(np.abs(k - want)) <= 1e-15 * np.abs(want).max()

    def test_non_contiguous_block(self):
        block = variance_bump(3, 2, 1.5).sample(1000, seed=14)[::2]
        assert not block.flags.c_contiguous
        k = second_moment_form(block).k
        want = self.vec_reference(block)
        assert np.max(np.abs(k - want)) <= 1e-15 * np.abs(want).max()
        got, copy = delta_report(block), delta_report(np.ascontiguousarray(block))
        assert (got.delta, got.stderr) == (copy.delta, copy.stderr)

    @pytest.mark.parametrize("k, message", [
        (np.eye(3), r"K shape \(3, 3\) does not match dims \(2, 2\)"),
        (np.eye(4) + np.triu(np.full((4, 4), 0.5), 1), "not symmetric"),
        (np.diag([1.0, 1.0, 1.0, -0.5]), "not PSD"),
    ], ids=["shape", "asymmetric", "not_psd"])
    def test_rejects_invalid_k(self, k, message):
        with pytest.raises(ValidationError, match=message):
            SecondMomentForm(k=k, dims=(2, 2))


class TestRankOneRange:
    def test_identity_form(self):
        form = SecondMomentForm(k=np.eye(4), dims=(2, 2))
        r = rank_one_range(form)
        assert r.min_val == pytest.approx(1.0, abs=1e-10)
        assert r.max_val == pytest.approx(1.0, abs=1e-10)

    def test_variance_bump_extremes(self):
        form = SecondMomentForm(k=np.diag([1.5, 1.0, 1.0, 1.0]), dims=(2, 2))
        r = rank_one_range(form)
        assert r.min_val == pytest.approx(1.0, abs=1e-10)
        assert r.max_val == pytest.approx(1.5, abs=1e-10)
        u, v = r.argmax
        assert abs(u[0]) == pytest.approx(1.0, abs=1e-8)
        assert abs(v[0]) == pytest.approx(1.0, abs=1e-8)

    def test_matches_grid_oracle_2x2(self, rng):
        for _ in range(5):
            w = rng.normal(size=(6, 4))
            form = SecondMomentForm(k=w.T @ w / 6, dims=(2, 2))
            lo, hi = grid_range_2x2(form)
            r = rank_one_range(form)
            assert r.min_val == pytest.approx(lo, abs=1e-4)
            assert r.max_val == pytest.approx(hi, abs=1e-4)

    def test_first_iteration_decomposes_each_start_once(self, monkeypatch):
        # the max and min chains of a start share v0, so M(v0) is decomposed once
        calls, extreme = [], symmetry._extreme_eigpairs

        def spy(mats, pick, *rows):
            out = extreme(mats, pick, *rows)
            calls.append((mats, out[1]))
            return out

        monkeypatch.setattr(symmetry, "_extreme_eigpairs", spy)
        rank_one_range(oracle_form("info-16x6"))
        (mats, u), (n_of_u, _) = calls[:2]
        assert len(mats) == symmetry.RANK_ONE_RESTARTS + 2 == 18
        assert len(n_of_u) == 36
        # chain c takes the top eigenvector of start c's M(v0), chain 18 + c the bottom one
        _, q = np.linalg.eigh((mats + mats.transpose(0, 2, 1)) / 2.0)
        assert np.array_equal(u, np.concatenate([q[:, :, -1], q[:, :, 0]]))

    @pytest.mark.parametrize("name", ORACLE_FORMS)
    def test_matches_scalar_oracle(self, name):
        form = oracle_form(name)
        lo, hi, unconverged = scalar_rank_one_range(form)
        r = rank_one_range(form)
        assert abs(r.min_val - lo) <= 1e-12 * max(1.0, abs(lo))
        assert abs(r.max_val - hi) <= 1e-12 * max(1.0, abs(hi))
        assert r.unconverged == unconverged

    @pytest.mark.parametrize("name", ORACLE_FORMS)
    def test_directions_attain_values(self, name):
        # delta_report's stderr is evaluated at these directions
        form = oracle_form(name)
        r = rank_one_range(form)
        scale = max(float(np.abs(form.k).max()), abs(r.min_val), abs(r.max_val))
        for (u, v), val in ((r.argmin, r.min_val), (r.argmax, r.max_val)):
            assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
            w = np.kron(v, u)
            assert abs(w @ form.k @ w - val) <= 1e-12 * scale

    def test_unconverged_reported(self, monkeypatch):
        form = SecondMomentForm(k=np.diag([1.5, 1.0, 1.0, 1.0]), dims=(2, 2))
        assert rank_one_range(form).unconverged is False
        monkeypatch.setattr(symmetry, "RANK_ONE_MAX_ITER", 1)
        assert rank_one_range(form).unconverged is True


class TestDeltaEstimate:
    def test_exactly_symmetric_small_delta(self):
        d = delta_report(gaussian_iid(2, 2).sample(100_000, seed=21)).delta
        assert d <= 0.05

    def test_variance_bump_recovers_half(self):
        d = delta_report(BUMP2X2.sample(100_000, seed=22)).delta
        assert d == pytest.approx(0.5, abs=0.05)

    def test_quadratic_scaling_exact(self):
        base = variance_bump(2, 3, 2.0)
        d1 = delta_report(base.sample(2000, seed=23)).delta
        d2 = delta_report(scaled(base, 3.0).sample(2000, seed=23)).delta
        assert d2 == pytest.approx(9.0 * d1, rel=1e-9)

    def test_conjugation_invariance_same_seed(self, rng):
        q1, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        q2, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        base = entry_variances(np.array([[1.0, 2.0, 0.5], [1.5, 1.0, 1.0]]))
        d1 = delta_report(base.sample(20_000, seed=24)).delta
        d2 = delta_report(conjugated(base, q1, q2).sample(20_000, seed=24)).delta
        assert d2 == pytest.approx(d1, abs=1e-6)

    def test_stderr_ignores_sample_order(self):
        # the max chains end within ~1e-15 of one another but their
        # directions agree only to ~1e-8, so picking the winner by the last
        # bits of K moved the stderr by 4.4e-10 relative under a permutation
        cfg = load_config(DEMO)
        spec = cfg.ensemble("y", cfg.epsilon_grid[0], 0.4)
        block = information_ensemble(spec).sample(20_000, seed=0)
        a = delta_report(block)
        b = delta_report(block[np.random.default_rng(1).permutation(len(block))])
        assert abs(a.stderr - b.stderr) <= 1e-12 * a.stderr
        assert abs(a.delta - b.delta) <= 1e-14 * a.delta

    def test_report_has_error_bar(self):
        rep = delta_report(BUMP2X2.sample(50_000, seed=25))
        assert 0 < rep.stderr < 0.05
        assert rep.delta == rep.range_result.max_val - rep.range_result.min_val


class TestMomentSymmetryReport:
    def test_iid_zero_mean(self):
        rep = moment_symmetry_report(gaussian_iid(2, 3).sample(50_000, seed=31))
        assert rep.mean_norm <= rep.mean_norm_bar
        assert rep.max_moment_spread <= rep.max_moment_spread_bar
        assert rep.max_cross_covariance <= rep.max_cross_covariance_bar

    def test_variance_bump_moment_spread(self):
        rep = moment_symmetry_report(BUMP2X2.sample(100_000, seed=32))
        assert rep.max_moment_spread == pytest.approx(0.5, abs=0.05)
        assert rep.mean_norm <= rep.mean_norm_bar
        assert rep.max_cross_covariance <= rep.max_cross_covariance_bar

    def test_rank_one_cross_covariances(self):
        u = np.array([1.0, 1.0]) / np.sqrt(2)
        rep = moment_symmetry_report(scaled_rank_one(u, u).sample(50_000, seed=33))
        # Cov(A_ij, A_kl) = u_i v_j u_k v_l = 0.25 for every pair
        assert rep.max_cross_covariance == pytest.approx(0.25, abs=0.02)
        assert rep.max_cross_covariance > rep.max_cross_covariance_bar


class TestProjectionBound:
    def test_symmetric_ensemble_zero_lhs(self, rng):
        g = rng.normal(size=(2, 2))
        h = rng.normal(size=(3, 2))
        res = projection_bound_check(gaussian_iid(2, 3).sample(50_000, seed=41), g, h, 0.0)
        assert res.passed
        assert res.lhs <= res.margin

    def test_bump_identity_projectors(self):
        res = projection_bound_check(BUMP2X2.sample(10_000, seed=42), np.eye(2), np.eye(2), 0.5)
        # G = H = I makes both terms ||A||^2: lhs is exactly 0
        assert res.lhs == 0.0
        # bound = 2 ||G||_F^2 ||H||_F^2 delta = 2 * 2 * 2 * 0.5
        assert res.bound == pytest.approx(4.0)

    def test_bump_e1_projectors(self):
        e1 = np.array([[1.0], [0.0]])
        res = projection_bound_check(BUMP2X2.sample(200_000, seed=43), e1, e1, 0.5)
        # lhs -> |sigma^2 - (3 + sigma^2)/4| = 0.375; bound = 2 * 0.5 = 1
        assert res.lhs == pytest.approx(0.375, abs=0.03)
        assert res.bound == pytest.approx(1.0)
        assert res.passed

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            projection_bound_check(BUMP2X2.sample(10, seed=0), np.eye(3), np.eye(2), 0.1)

    def test_self_consistency_with_estimated_delta(self, rng):
        for _ in range(5):
            v = 0.5 + rng.random((2, 3))
            ens = entry_variances(v)
            d = delta_report(ens.sample(30_000, seed=44)).delta
            g = rng.normal(size=(2, 2))
            h = rng.normal(size=(3, 1))
            res = projection_bound_check(ens.sample(30_000, seed=45), g, h, d)
            assert res.passed


class TestPushedDeltaBound:
    # the bound (alpha + delta)(s1^2 - sn^2) + s1^2 delta on delta({B A}), from
    # the singular values of B
    def test_identity_recovers_delta(self):
        assert _gamma(np.ones(3), 0.2, 5.0) == pytest.approx(0.2)

    def test_zero_delta_range_term(self):
        assert _gamma(np.array([2.0, 1.0]), 0.0, 1.3) == pytest.approx((4 - 1) * 1.3)

    def test_hand_arithmetic(self):
        assert _gamma(np.array([2.0, 1.0]), 0.1, 1.0) == pytest.approx(3.7)


class TestPropagationCheck:
    def test_identity_b(self):
        res = propagation_check(BUMP2X2.sample(20_000, seed=51), np.eye(2))
        assert res.passed
        assert res.delta_out == pytest.approx(res.delta_in, abs=1e-9)
        assert res.delta_bound == pytest.approx(res.delta_in, abs=1e-12)

    def test_diagonal_b(self):
        res = propagation_check(BUMP2X2.sample(20_000, seed=52), np.diag([1.5, 0.5]))
        assert res.passed

    def test_rotated_diagonal_b(self, rng):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        ens = gaussian_iid(3, 2)
        b = q @ np.diag([1.2, 1.0, 0.7])
        res = propagation_check(ens.sample(20_000, seed=53), b)
        assert res.passed

    def test_one_block_feeds_both_deltas(self, rng):
        # delta_in and delta_out are delta_report of the block and of the
        # pushed block {B A_i}, bit for bit
        block = entry_variances(0.5 + rng.random((3, 2))).sample(5000, seed=54)
        b = rng.normal(size=(3, 3))
        res = propagation_check(block, b)
        assert res.delta_in == delta_report(block).delta
        assert res.delta_out == delta_report(np.einsum("ab,sbm->sam", b, block)).delta

    def test_one_svd_per_call(self, rng, monkeypatch):
        import maxcorr.symmetry as sym

        block = entry_variances(0.5 + rng.random((3, 2))).sample(5000, seed=55)
        b = rng.normal(size=(3, 3))
        calls = []
        original = sym.jacobi_svd
        monkeypatch.setattr(sym, "jacobi_svd", lambda a: calls.append(a) or original(a))
        res = propagation_check(block, b)
        assert len(calls) == 1
        s = np.linalg.svd(b, compute_uv=False)
        assert res.delta_bound == pytest.approx(
            (res.alpha + res.delta_in) * (s[0] ** 2 - s[-1] ** 2) + s[0] ** 2 * res.delta_in,
            rel=1e-12)

    def test_non_square_b_rejected(self):
        with pytest.raises(ValidationError, match="square"):
            propagation_check(gaussian_iid(3, 2).sample(10, seed=0), np.ones((2, 3)))

    def test_b_shape_check(self):
        with pytest.raises(ValidationError, match="B shape"):
            propagation_check(gaussian_iid(3, 2).sample(10, seed=0), np.ones((2, 2)))


class TestEnsembleAdapters:
    def test_declared_delta_bookkeeping(self):
        assert BUMP2X2.declared_delta == pytest.approx(0.5)
        ens = entry_variances(np.array([[2.0, 1.0], [1.0, 0.5]]))
        assert ens.declared_delta == pytest.approx(1.5)
