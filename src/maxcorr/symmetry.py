"""Second-moment distance, weak-spherical-symmetry estimation, and the
random-matrix propagation checks.

A random matrix A is delta-spherically symmetric when every rank-one second
moment E[(u^T A v)^2] moves by at most delta under two-sided orthogonal
transformations.  Since Q1 u and Q2 v sweep all unit vectors, that supremum
equals the full range (max - min) of the rank-one form over unit pairs, so
the estimator here is: build the empirical second-moment operator
K = E[vec(A) vec(A)^T], find the extrema of (v (x) u)^T K (v (x) u) by
alternating eigen-iteration with restarts, and report max - min.

Every statistic here is a function of an already-drawn (count, n, m) block
of samples; none of them draws.  Drawing happens only in
:meth:`MatrixEnsemble.sample`, which draws one seeded stream per seed, so
statistics that must see the same draws of A are handed the same block.

Monte Carlo verdicts carry explicit 3-sigma margins (plug-in variance);
pass/fail is always `statistic <= bound + margin`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError
from .svd import jacobi_svd

PSD_TOL = -1e-8
SYM_TOL = 1e-10
# rank_one_range's random starts (besides its two canonical ones, and drawn
# from one fixed seed, so one block gives one delta_hat), iteration cap and
# relative convergence tolerance
RANK_ONE_RESTARTS = 16
RANK_ONE_MAX_ITER = 200
RANK_ONE_TOL = 1e-12


def seed_rng(seed) -> np.random.Generator:
    """The one generator of a seed: ``default_rng(SeedSequence(entropy=seed,
    spawn_key=(0,)))``.

    `seed` may be an int or a tuple of ints (a derived stream label).
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))


@dataclass(frozen=True)
class MatrixEnsemble:
    """Seeded sampler of n x m random matrices.

    ``sample_block(rng, count)`` must return a (count, n, m) array and draw
    from `rng` only, so that one seed reproduces one sample sequence.
    """

    n: int
    m: int
    sample_block: Callable[[np.random.Generator, int], np.ndarray]
    name: str = ""
    declared_delta: float | None = None

    def sample(self, count: int, seed: int) -> np.ndarray:
        """Draw a (count, n, m) block from the one stream of `seed`.

        The block is drawn from :func:`seed_rng` of `seed`, so one seed
        reproduces one block.
        """
        if count < 1:
            raise ValidationError("count must be >= 1")
        block = np.asarray(self.sample_block(seed_rng(seed), count), dtype=float)
        if block.shape != (count, self.n, self.m):
            raise ValidationError(
                f"sampler for {self.name!r} returned shape {block.shape}, "
                f"expected ({count}, {self.n}, {self.m})"
            )
        return block


def gaussian_iid(n: int, m: int, scale: float = 1.0) -> MatrixEnsemble:
    return MatrixEnsemble(
        n, m, lambda rng, c: scale * rng.standard_normal((c, n, m)),
        name=f"gaussian_iid({n}x{m}, scale={scale})",
    )


def entry_variances(variances: np.ndarray) -> MatrixEnsemble:
    """Independent zero-mean Gaussian entries with per-entry variances."""
    v = np.asarray(variances, dtype=float)
    if np.any(v < 0):
        raise ValidationError("variances must be nonnegative")
    sd = np.sqrt(v)
    n, m = v.shape
    return MatrixEnsemble(
        n, m, lambda rng, c: sd[None, :, :] * rng.standard_normal((c, n, m)),
        name=f"entry_variances({n}x{m})",
        declared_delta=float(v.max() - v.min()),
    )


def variance_bump(n: int, m: int, sigma2: float) -> MatrixEnsemble:
    """Unit-variance iid Gaussian entries except entry (0, 0) with variance
    sigma2; the canonical weakly-but-not-exactly symmetric ensemble."""
    v = np.ones((n, m))
    v[0, 0] = sigma2
    ens = entry_variances(v)
    return MatrixEnsemble(
        n, m, ens.sample_block,
        name=f"variance_bump({n}x{m}, sigma2={sigma2})",
        declared_delta=abs(sigma2 - 1.0),
    )


def constant(matrix: np.ndarray) -> MatrixEnsemble:
    a = np.asarray(matrix, dtype=float)
    return MatrixEnsemble(
        a.shape[0], a.shape[1],
        lambda rng, c: np.broadcast_to(a, (c,) + a.shape).copy(),
        name="constant", declared_delta=None,
    )


def scaled_rank_one(u: np.ndarray, v: np.ndarray) -> MatrixEnsemble:
    """A = g * u v^T with scalar g ~ N(0, 1): maximally correlated entries."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    outer = np.outer(u, v)
    return MatrixEnsemble(
        u.size, v.size,
        lambda rng, c: rng.standard_normal(c)[:, None, None] * outer,
        name="scaled_rank_one",
    )


def conjugated(ens: MatrixEnsemble, q1: np.ndarray, q2: np.ndarray) -> MatrixEnsemble:
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    return MatrixEnsemble(
        ens.n, ens.m,
        lambda rng, c: np.einsum(
            "ab,sbk,km->sam", q1.T, ens.sample_block(rng, c), q2
        ),
        name=f"conjugated({ens.name})", declared_delta=ens.declared_delta,
    )


def scaled(ens: MatrixEnsemble, c: float) -> MatrixEnsemble:
    return MatrixEnsemble(
        ens.n, ens.m,
        lambda rng, count: c * ens.sample_block(rng, count),
        name=f"scaled({ens.name}, {c})",
    )


def _as_block(block) -> np.ndarray:
    """A drawn (count, n, m) sample block with at least two samples."""
    block = np.asarray(block, dtype=float)
    if block.ndim != 3:
        raise ValidationError(f"expected a (count, n, m) block, got shape {block.shape}")
    if block.shape[0] < 2:
        raise ValidationError("need at least 2 samples")
    return block


def _vec_blocks(samples: np.ndarray) -> np.ndarray:
    """Column-major vec of each sample: vec(A)[j*n + i] = A[i, j]."""
    count, n, m = samples.shape
    return samples.transpose(0, 2, 1).reshape(count, n * m)


@dataclass(frozen=True)
class SecondMomentForm:
    """Empirical second-moment operator K = E[vec(A) vec(A)^T]."""

    k: np.ndarray
    sample_count: int
    dims: tuple[int, int]

    def __post_init__(self):
        k = np.array(self.k, dtype=float)
        n, m = self.dims
        if k.shape != (n * m, n * m):
            raise ValidationError(f"K shape {k.shape} does not match dims {self.dims}")
        if np.max(np.abs(k - k.T)) > SYM_TOL * max(1.0, float(np.abs(k).max())):
            raise ValidationError("second-moment operator not symmetric")
        eigs = np.linalg.eigvalsh((k + k.T) / 2.0)
        if eigs[0] < PSD_TOL * max(1.0, float(eigs[-1])):
            raise ValidationError(f"second-moment operator not PSD: {eigs[0]!r}")
        if self.sample_count < 2:
            raise ValidationError("sample_count must be >= 2")
        k.setflags(write=False)
        object.__setattr__(self, "k", k)

    @property
    def trace(self) -> float:
        """Estimate of E ||A||_F^2."""
        return float(np.trace(self.k))


def second_moment_form(block: np.ndarray) -> SecondMomentForm:
    """K of a drawn (count, n, m) block."""
    block = _as_block(block)
    count, n, m = block.shape
    vec = _vec_blocks(block)
    k = vec.T @ vec / count
    k = (k + k.T) / 2.0
    return SecondMomentForm(k=k, sample_count=count, dims=(n, m))


@dataclass(frozen=True)
class RankOneRange:
    min_val: float
    max_val: float
    argmin: tuple[np.ndarray, np.ndarray]
    argmax: tuple[np.ndarray, np.ndarray]
    unconverged: bool

    @property
    def spread(self) -> float:
        return self.max_val - self.min_val


def _extremize(
    k4: np.ndarray, u0: np.ndarray, v0: np.ndarray, largest: bool,
) -> tuple[float, np.ndarray, np.ndarray, bool]:
    u, v = u0.copy(), v0.copy()
    pick = -1 if largest else 0
    obj = None
    for _ in range(RANK_ONE_MAX_ITER):
        mu = np.einsum("j,l,ijkl->ik", v, v, k4)
        mu = (mu + mu.T) / 2.0
        w, q = np.linalg.eigh(mu)
        u = q[:, pick]
        nv = np.einsum("i,k,ijkl->jl", u, u, k4)
        nv = (nv + nv.T) / 2.0
        w, q = np.linalg.eigh(nv)
        v = q[:, pick]
        new_obj = float(w[pick])
        if obj is not None and abs(new_obj - obj) <= RANK_ONE_TOL * max(1.0, abs(new_obj)):
            return new_obj, u, v, True
        obj = new_obj
    return obj, u, v, False


def rank_one_range(form: SecondMomentForm) -> RankOneRange:
    """Extrema of the rank-one second moment over unit vector pairs.

    Alternating eigen-iteration is monotone for each fixed side but the
    joint problem is non-convex; seeded random restarts plus deterministic
    canonical starts at the extreme diagonal entries of K guard against
    local extrema.
    """
    n, m = form.dims
    k4 = form.k.reshape((n, m, n, m), order="F")
    diag = np.diag(form.k)
    starts: list[tuple[np.ndarray, np.ndarray]] = []
    for pos in (int(np.argmax(diag)), int(np.argmin(diag))):
        i, j = pos % n, pos // n
        starts.append((np.eye(n)[:, i], np.eye(m)[:, j]))
    rng = np.random.default_rng(np.random.SeedSequence(entropy=0, spawn_key=(97,)))
    for _ in range(RANK_ONE_RESTARTS):
        u = rng.standard_normal(n)
        v = rng.standard_normal(m)
        starts.append((u / np.linalg.norm(u), v / np.linalg.norm(v)))

    best = {True: (-np.inf, None, None, True), False: (np.inf, None, None, True)}
    for largest in (True, False):
        for u0, v0 in starts:
            val, u, v, ok = _extremize(k4, u0, v0, largest)
            cur = best[largest]
            if (largest and val > cur[0]) or (not largest and val < cur[0]):
                best[largest] = (val, u, v, ok)
    max_val, umax, vmax, ok_max = best[True]
    min_val, umin, vmin, ok_min = best[False]
    return RankOneRange(
        min_val=min_val,
        max_val=max_val,
        argmin=(umin, vmin),
        argmax=(umax, vmax),
        unconverged=not (ok_max and ok_min),
    )


@dataclass(frozen=True)
class DeltaReport:
    delta: float
    stderr: float
    min_val: float
    max_val: float
    range_result: RankOneRange
    sample_count: int


def delta_report(block: np.ndarray) -> DeltaReport:
    """Estimate the symmetry deviation delta of a drawn block with an error bar.

    The stderr combines plug-in standard errors of the rank-one moments at
    the located argmin and argmax directions, evaluated on the same block
    that built the form.
    """
    block = _as_block(block)
    count = block.shape[0]
    form = second_moment_form(block)
    vec = _vec_blocks(block)
    rng_range = rank_one_range(form)
    ses = []
    for u, v in (rng_range.argmin, rng_range.argmax):
        w = np.kron(v, u)
        per_sample = (vec @ w) ** 2
        ses.append(float(per_sample.std(ddof=1)) / np.sqrt(count))
    return DeltaReport(
        delta=rng_range.spread,
        stderr=float(np.hypot(ses[0], ses[1])),
        min_val=rng_range.min_val,
        max_val=rng_range.max_val,
        range_result=rng_range,
        sample_count=count,
    )


@dataclass(frozen=True)
class MomentSymmetryReport:
    """First/second-moment symptoms of exact spherical symmetry.

    For an exactly spherically symmetric ensemble all three statistics are
    zero: entries have zero mean, identical second moments, and vanishing
    cross-covariances.  Bars are 3-sigma plug-in standard errors at the
    achieving entries.
    """

    mean_norm: float
    mean_norm_bar: float
    max_moment_spread: float
    max_moment_spread_bar: float
    max_cross_covariance: float
    max_cross_covariance_bar: float
    sample_count: int


def moment_symmetry_report(block: np.ndarray) -> MomentSymmetryReport:
    block = _as_block(block)
    samples = block.shape[0]
    vec = _vec_blocks(block)
    mean = vec.mean(axis=0)
    se_mean = vec.std(axis=0, ddof=1) / np.sqrt(samples)
    i_mean = int(np.argmax(np.abs(mean)))

    sq = vec**2
    second = sq.mean(axis=0)
    se_second = sq.std(axis=0, ddof=1) / np.sqrt(samples)
    i_hi, i_lo = int(np.argmax(second)), int(np.argmin(second))

    k = vec.T @ vec / samples
    k2 = sq.T @ sq / samples
    cov = k - np.outer(mean, mean)
    var_prod = np.maximum(k2 - k**2, 0.0)
    se_prod = np.sqrt(var_prod / samples)
    off = ~np.eye(cov.shape[0], dtype=bool)
    flat = int(np.argmax(np.abs(cov[off])))
    idx = np.argwhere(off)[flat]

    return MomentSymmetryReport(
        mean_norm=float(np.abs(mean).max()),
        mean_norm_bar=3.0 * float(se_mean[i_mean]),
        max_moment_spread=float(second[i_hi] - second[i_lo]),
        max_moment_spread_bar=3.0 * float(se_second[i_hi] + se_second[i_lo]),
        max_cross_covariance=float(np.abs(cov[off]).max()),
        max_cross_covariance_bar=3.0 * float(se_prod[idx[0], idx[1]]),
        sample_count=samples,
    )


@dataclass(frozen=True)
class ProjectionBoundResult:
    lhs: float
    bound: float
    margin: float
    passed: bool
    sample_count: int


def projection_bound_check(
    block: np.ndarray, g: np.ndarray, h: np.ndarray, delta: float
) -> ProjectionBoundResult:
    """Monte Carlo check of |E||G^T A H||^2 - c E||A||^2| <= 2||G||^2||H||^2 delta.

    c = ||G||^2 ||H||^2 / (mn) over the drawn (count, n, m) block; the
    margin is 3 sigma of the estimated difference statistic.
    """
    block = _as_block(block)
    samples, n, m = block.shape
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    if g.ndim != 2 or h.ndim != 2 or g.shape[0] != n or h.shape[0] != m:
        raise ValidationError(
            f"G {g.shape} / H {h.shape} incompatible with samples ({n}, {m})"
        )
    proj = np.einsum("ia,sij,jb->sab", g, block, h)
    s = (proj**2).sum(axis=(1, 2))
    t = (block**2).sum(axis=(1, 2))
    g2 = float((g**2).sum())
    h2 = float((h**2).sum())
    c = g2 * h2 / (m * n)
    d = s - c * t
    lhs = abs(float(d.mean()))
    margin = 3.0 * float(d.std(ddof=1)) / np.sqrt(samples)
    bound = 2.0 * g2 * h2 * delta
    return ProjectionBoundResult(
        lhs=lhs, bound=bound, margin=margin,
        passed=lhs <= bound + margin, sample_count=samples,
    )


def pushed_delta_bound(b: np.ndarray, delta: float, alpha: float) -> float:
    """Symmetry deviation bound for {B A}: (alpha+delta)(s1^2-sn^2) + s1^2 delta."""
    b = np.asarray(b, dtype=float)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValidationError(f"B must be square, got {b.shape}")
    if delta < 0 or alpha < 0:
        raise ValidationError("delta and alpha must be >= 0")
    return _gamma(jacobi_svd(b).s, delta, alpha)


def _gamma(s: np.ndarray, delta: float, alpha: float) -> float:
    """The pushed bound from the singular values of B, largest first."""
    s1, sn = float(s[0]), float(s[-1])
    return (alpha + delta) * (s1**2 - sn**2) + s1**2 * delta


@dataclass(frozen=True)
class PropagationResult:
    delta_in: float
    alpha: float
    delta_bound: float
    delta_out: float
    margin: float
    passed: bool


def propagation_check(block: np.ndarray, b: np.ndarray) -> PropagationResult:
    """Verify delta(BA) <= gamma(B, delta(A), alpha) within 3-sigma margins.

    delta_in, alpha and delta_out all come from the one drawn block: the
    pushed samples are exactly {B A_i} for the draws A_i behind delta_in.
    """
    block = _as_block(block)
    count, n, m = block.shape
    b = np.asarray(b, dtype=float)
    if b.ndim != 2 or b.shape[1] != n:
        raise ValidationError(f"B shape {b.shape} does not match samples n={n}")
    if b.shape[0] != n:
        raise ValidationError(f"B must be square, got {b.shape}")
    rep_in = delta_report(block)
    norms = (block**2).sum(axis=(1, 2)) / (n * m)
    alpha = float(norms.mean())
    se_alpha = float(norms.std(ddof=1)) / np.sqrt(count)
    rep_out = delta_report(np.einsum("ab,sbm->sam", b, block))

    s = jacobi_svd(b).s
    spread2 = float(s[0] ** 2 - s[-1] ** 2)
    dg_ddelta = spread2 + float(s[0] ** 2)
    gamma = _gamma(s, rep_in.delta, alpha)
    margin = 3.0 * float(
        np.sqrt(
            rep_out.stderr**2
            + (dg_ddelta * rep_in.stderr) ** 2
            + (spread2 * se_alpha) ** 2
        )
    )
    return PropagationResult(
        delta_in=rep_in.delta,
        alpha=alpha,
        delta_bound=gamma,
        delta_out=rep_out.delta,
        margin=margin,
        passed=rep_out.delta <= gamma + margin,
    )
