"""Second-moment distance, weak-spherical-symmetry estimation, and the
random-matrix propagation checks.

A random matrix A is delta-spherically symmetric when every rank-one second
moment E[(u^T A v)^2] moves by at most delta under two-sided orthogonal
transformations.  Since Q1 u and Q2 v sweep all unit vectors, that supremum
equals the full range (max - min) of the rank-one form over unit pairs, so
the estimator here is: build the empirical second-moment operator
K = E[vec(A) vec(A)^T], find the extrema of (v (x) u)^T K (v (x) u) by
alternating eigen-iteration with restarts, and report max - min.  K is
summed over the row-major flat view of the block, a reshape that copies
nothing, and reordered into the column-major vec convention.  The restart
chains (one per start and extreme) iterate together as one stack: each
iteration is two matmuls with K and two stacked `eigh` calls over the
chains still moving, and each chain stops at its own convergence.  Chains
whose values agree to within that convergence tolerance count as tied, and
the earliest start among them is reported, so the reported direction (and
the stderr evaluated there) does not follow last-bit rounding of K.

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
                f"sampler returned shape {block.shape}, expected ({count}, {self.n}, {self.m})"
            )
        return block


def entry_variances(variances: np.ndarray) -> MatrixEnsemble:
    """Independent zero-mean Gaussian entries with per-entry variances."""
    v = np.asarray(variances, dtype=float)
    if np.any(v < 0):
        raise ValidationError("variances must be nonnegative")
    sd = np.sqrt(v)
    n, m = v.shape
    return MatrixEnsemble(
        n, m, lambda rng, c: sd[None, :, :] * rng.standard_normal((c, n, m)),
        declared_delta=float(v.max() - v.min()),
    )


def variance_bump(n: int, m: int, sigma2: float) -> MatrixEnsemble:
    """Unit-variance iid Gaussian entries except entry (0, 0) with variance
    sigma2; the canonical weakly-but-not-exactly symmetric ensemble."""
    v = np.ones((n, m))
    v[0, 0] = sigma2
    return entry_variances(v)


def _as_block(block) -> np.ndarray:
    """A drawn (count, n, m) sample block with at least two samples."""
    block = np.asarray(block, dtype=float)
    if block.ndim != 3:
        raise ValidationError(f"expected a (count, n, m) block, got shape {block.shape}")
    if block.shape[0] < 2:
        raise ValidationError("need at least 2 samples")
    return block


@dataclass(frozen=True)
class SecondMomentForm:
    """Empirical second-moment operator K = E[vec(A) vec(A)^T]."""

    k: np.ndarray
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
        k.setflags(write=False)
        object.__setattr__(self, "k", k)


def second_moment_form(block: np.ndarray) -> SecondMomentForm:
    """K of a drawn (count, n, m) block.

    The moments are summed over the row-major flat view of the samples,
    entry (i, j) at i*m + j, and reordered into the column-major vec
    convention of K, entry (i, j) at j*n + i.
    """
    block = _as_block(block)
    count, n, m = block.shape
    flat = block.reshape(count, n * m)
    k = (flat.T @ flat / count).reshape(n, m, n, m).transpose(1, 0, 3, 2)
    k = k.reshape(n * m, n * m)
    k = (k + k.T) / 2.0
    return SecondMomentForm(k=k, dims=(n, m))


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


def _extreme_eigpairs(mats: np.ndarray, pick: np.ndarray,
                      rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalue and unit eigenvector `pick[c]` (-1 largest, 0 smallest) of
    symmetrised matrix `rows[c]` (default c) of a (C, d, d) stack."""
    w, q = np.linalg.eigh((mats + mats.transpose(0, 2, 1)) / 2.0)
    rows = np.arange(len(pick)) if rows is None else rows
    return w[rows, pick], q[rows, :, pick]


def _earliest_near(values: np.ndarray, extreme: float) -> int:
    """The first index whose value lies within RANK_ONE_TOL (relative) of
    `extreme`."""
    near = np.abs(values - extreme) <= RANK_ONE_TOL * max(1.0, abs(extreme))
    return int(np.flatnonzero(near)[0])


def rank_one_range(form: SecondMomentForm) -> RankOneRange:
    """Extrema of the rank-one second moment over unit vector pairs.

    Alternating eigen-iteration is monotone for each fixed side but the
    joint problem is non-convex; seeded random restarts plus deterministic
    canonical starts at the extreme diagonal entries of K guard against
    local extrema.

    Every start runs one chain toward the maximum and one toward the
    minimum, and all chains iterate together: one iteration is one matmul
    with K for M(v) = sum_jl v_j v_l K[i,j,k,l] of every live chain, one
    stacked `eigh` for u, the same for N(u) and v.  Each chain stops on
    its own once its objective moves by at most RANK_ONE_TOL (relative)
    between two iterations; a chain still moving after RANK_ONE_MAX_ITER
    iterations marks the range unconverged.

    Each extreme is reported from the earliest start whose value lies
    within RANK_ONE_TOL * max(1, |extreme|) of it, with that chain's value
    and direction, so the reported direction attains the reported value.
    """
    n, m = form.dims
    # kv[(i, k), (j, l)] = K[i, j, k, l], K's (n, m, n, m) view of vec(A) pairs
    kv = form.k.reshape((n, m, n, m), order="F").transpose(0, 2, 1, 3).reshape(n * n, m * m)
    diag = np.diag(form.k)
    starts_u, starts_v = [], []
    for pos in (int(np.argmax(diag)), int(np.argmin(diag))):
        starts_u.append(np.eye(n)[pos % n])
        starts_v.append(np.eye(m)[pos // n])
    rng = np.random.default_rng(np.random.SeedSequence(entropy=0, spawn_key=(97,)))
    for _ in range(RANK_ONE_RESTARTS):
        u = rng.standard_normal(n)
        v = rng.standard_normal(m)
        starts_u.append(u / np.linalg.norm(u))
        starts_v.append(v / np.linalg.norm(v))

    # chain c < S runs start c toward the maximum, chain S + c toward the minimum
    s = len(starts_u)
    u = np.array(starts_u + starts_u)
    v = np.array(starts_v + starts_v)
    pick = np.repeat([-1, 0], s)
    obj = np.full(2 * s, np.nan)  # so no chain stops on its first iteration
    converged = np.zeros(2 * s, dtype=bool)
    live = np.arange(2 * s)
    for it in range(RANK_ONE_MAX_ITER):
        # the two chains of a start share v0: decompose each M(v0) once
        vl = v[:s] if it == 0 else v[live]
        mu = ((vl[:, :, None] * vl[:, None, :]).reshape(-1, m * m) @ kv.T).reshape(-1, n, n)
        _, ul = _extreme_eigpairs(mu, pick[live], live % s if it == 0 else None)
        nv = ((ul[:, :, None] * ul[:, None, :]).reshape(-1, n * n) @ kv).reshape(-1, m, m)
        new_obj, v[live] = _extreme_eigpairs(nv, pick[live])
        u[live] = ul
        done = np.abs(new_obj - obj[live]) <= RANK_ONE_TOL * np.maximum(1.0, np.abs(new_obj))
        obj[live] = new_obj
        converged[live[done]] = True
        live = live[~done]
        if not live.size:
            break

    hi = _earliest_near(obj[:s], obj[:s].max())
    lo = s + _earliest_near(obj[s:], obj[s:].min())
    return RankOneRange(
        min_val=float(obj[lo]),
        max_val=float(obj[hi]),
        argmin=(u[lo], v[lo]),
        argmax=(u[hi], v[hi]),
        unconverged=not (converged[hi] and converged[lo]),
    )


@dataclass(frozen=True)
class DeltaReport:
    delta: float
    stderr: float
    range_result: RankOneRange


def delta_report(block: np.ndarray) -> DeltaReport:
    """Estimate the symmetry deviation delta of a drawn block with an error bar.

    The stderr combines plug-in standard errors of the rank-one moments at
    the located argmin and argmax directions, evaluated on the same block
    that built the form.
    """
    block = _as_block(block)
    count = block.shape[0]
    form = second_moment_form(block)
    flat = block.reshape(count, -1)
    rng_range = rank_one_range(form)
    ses = []
    for u, v in (rng_range.argmin, rng_range.argmax):
        per_sample = (flat @ np.outer(u, v).ravel()) ** 2
        ses.append(float(per_sample.std(ddof=1)) / np.sqrt(count))
    return DeltaReport(
        delta=rng_range.spread,
        stderr=float(np.hypot(ses[0], ses[1])),
        range_result=rng_range,
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


def moment_symmetry_report(block: np.ndarray) -> MomentSymmetryReport:
    block = _as_block(block)
    samples = block.shape[0]
    flat = block.reshape(samples, -1)
    mean = flat.mean(axis=0)
    se_mean = flat.std(axis=0, ddof=1) / np.sqrt(samples)
    i_mean = int(np.argmax(np.abs(mean)))

    sq = flat**2
    second = sq.mean(axis=0)
    se_second = sq.std(axis=0, ddof=1) / np.sqrt(samples)
    i_hi, i_lo = int(np.argmax(second)), int(np.argmin(second))

    k = flat.T @ flat / samples
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
    )


@dataclass(frozen=True)
class ProjectionBoundResult:
    lhs: float
    bound: float
    margin: float
    passed: bool


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
        lhs=lhs, bound=bound, margin=margin, passed=lhs <= bound + margin
    )


def _gamma(s: np.ndarray, delta: float, alpha: float) -> float:
    """Symmetry deviation bound for {B A}, (alpha+delta)(s1^2-sn^2) + s1^2 delta,
    from the singular values s of B, largest first."""
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
