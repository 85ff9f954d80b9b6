"""Error-exponent computation and the main bound comparison.

Three routes to the same exponent, in increasing cost and exactness:

* ``analytic_pairwise_exponent`` - the local (small-epsilon) leading term
  (eps^2 / 8) sum_j <phi_1 - phi_2, psi_j>^2 for a feature-mean test.
* ``iprojection_exponent`` - the exact asymptotic rate of the
  nearest-centroid rule, via I-projections onto its decision hyperplane.
* ``mc_error_curve`` - direct simulation of the test with a slope fit.

``average_exponents`` runs the full pipeline one attribute side at a time:
sample configurations of U (on X) or V (on Y), score the
least-distinguishable pair of each on its own variable (near) and, pushed
across the chain, on the other (far), and average.  Configurations are
pushed and scored as stacked (C, |Z|, |W|) arrays of at most
``ensemble.CHUNK`` (512) rows, as `configuration_stream` validates them;
only the oracle's I-projection runs per configuration.  Each side also
carries its constant, C_U or C_V; ``exponent_bound`` combines them with
the spectrum of the CDM the features were selected from.
All decision rules are nearest-centroid on the empirical feature mean
(midpoint hyperplane); exponents are in nats per sample.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ensemble import CHUNK, AttributeEnsembleSpec, configuration_stream
from .errors import AlphabetMismatchError, ValidationError
from .geometry import FeatureSet, feature_vectors, information_phi
from .model import Channel, JointPmf, Pmf, require_marginal

DEGENERATE_MEAN_GAP = 1e-12
# most trials one multinomial call draws: consecutive calls on one generator
# give the same draws as a single call, and the count array stays in cache
# (128 KiB at |X| = 4); larger chunks raise peak memory and make no pass
# measurably faster
MC_CHUNK = 1 << 12
# a statistic within MC_TIE_TOL * max|c| of the threshold is a tie, counted
# as half an error: BLAS computes `counts @ c` with fused multiply-adds, so
# an exact tie lands a rounding error off zero, on either side
MC_TIE_TOL = 1e-12
# fewest errors (over both hypotheses) for a sample size to enter the fit
MC_MIN_ERRORS = 50
# the residual's big-O constant: budget = RESIDUAL_SLACK * eps^2 * q
RESIDUAL_SLACK = 1.0


def analytic_pairwise_exponent(
    psi: np.ndarray, phi1: np.ndarray, phi2: np.ndarray, epsilon: float
) -> float:
    """Leading-order exponent (eps^2/8) ||Psi^T (phi1 - phi2)||^2.

    Depends only on the span of the orthonormal feature vectors psi.
    """
    psi = np.asarray(psi, dtype=float)
    d = np.asarray(phi1, dtype=float) - np.asarray(phi2, dtype=float)
    if psi.shape[0] != d.shape[0]:
        raise ValidationError("psi and phi dimensions disagree")
    proj = psi.T @ d
    return float(epsilon**2 / 8.0 * (proj @ proj))


def _tilted_mean(logp: np.ndarray, c: np.ndarray, lam: float) -> float:
    w = logp + lam * c
    w -= w.max()
    q = np.exp(w)
    q /= q.sum()
    return float(q @ c)


def _iprojection_value(p: np.ndarray, c: np.ndarray, b: float) -> float:
    """min_Q D(Q || p) subject to E_Q[c] = b, by exponential tilting.

    The tilted mean is strictly increasing in the tilt, so a bracketed
    bisection is exact and deterministic.  A b strictly outside
    [min c, max c] admits no Q, and the value is infinite.
    """
    if b > c.max() or b < c.min():
        return np.inf
    logp = np.log(p)
    lo, hi = -1.0, 1.0
    for _ in range(80):
        if _tilted_mean(logp, c, lo) <= b:
            break
        lo *= 2.0
    for _ in range(80):
        if _tilted_mean(logp, c, hi) >= b:
            break
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _tilted_mean(logp, c, mid) < b:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    w = logp + lam * c
    top = w.max()
    log_z = float(np.log(np.exp(w - top).sum()) + top)
    return max(0.0, lam * b - log_z)


def _centroid_hyperplane(
    p1: Pmf, p2: Pmf, fs: FeatureSet
) -> tuple[np.ndarray, float] | None:
    """The nearest-centroid test's decision hyperplane (c, b).

    The test decides hypothesis 1 when c . (counts / N) > b, with
    c = h a, a = E_1[h] - E_2[h] and b the midpoint threshold.  Returns
    None (with a warning) when the features cannot separate the pair.
    """
    if p1.labels != p2.labels or p1.labels != fs.base.labels:
        raise AlphabetMismatchError("distributions and features must share an alphabet")
    m1 = fs.mean_under(p1.probs)
    m2 = fs.mean_under(p2.probs)
    a = m1 - m2
    if float(np.linalg.norm(a)) <= DEGENERATE_MEAN_GAP:
        warnings.warn("features are constant across the pair; exponent is 0")
        return None
    return fs.h @ a, float((m1 + m2) @ a) / 2.0


def iprojection_exponent(p1: Pmf, p2: Pmf, fs: FeatureSet) -> float:
    """Exact error exponent of the nearest-centroid feature test.

    The rate is the smaller of the two I-projection values onto the test's
    decision hyperplane.  Returns 0 (with a warning) when the features
    cannot separate the pair.
    """
    p1.require_positive()
    p2.require_positive()
    plane = _centroid_hyperplane(p1, p2, fs)
    if plane is None:
        return 0.0
    c, b = plane
    return min(
        _iprojection_value(p1.probs, c, b),
        _iprojection_value(p2.probs, c, b),
    )


@dataclass(frozen=True)
class McCurve:
    """Fitted Monte Carlo error-probability decay."""

    exponent: float
    stderr: float
    n_values: tuple[int, ...]
    p_hat: tuple[float, ...]
    trials: tuple[int, ...]


def _simulate_errors(
    rng: np.random.Generator, p: np.ndarray, c: np.ndarray, b: float,
    n: int, trials: int, err_below: bool,
) -> float:
    # error totals are sums of integers and halves, exact in float for any
    # chunking
    tol = MC_TIE_TOL * float(np.abs(c).max())
    errs = 0.0
    for start in range(0, trials, MC_CHUNK):
        counts = rng.multinomial(n, p, size=min(MC_CHUNK, trials - start))
        s = counts @ c / n - b
        errs += float((s < -tol).sum() if err_below else (s > tol).sum())
        errs += 0.5 * float((np.abs(s) <= tol).sum())
    return errs


def mc_error_curve(
    p1: Pmf,
    p2: Pmf,
    fs: FeatureSet,
    n_grid: Sequence[int],
    trials: int,
    seed: int,
    *,
    max_trials: int | None = None,
) -> McCurve:
    """Simulate the nearest-centroid test and fit the decay exponent.

    Fits log p_e(N) + (1/2) log N against N by weighted least squares
    (the sqrt(N) Bahadur-Rao prefactor would otherwise bias the slope),
    weighting each point by its error count.  Sample sizes whose error
    counts stay under `MC_MIN_ERRORS` after auto-extending the trial budget
    are dropped from the top of the grid.  The budget of a point starts at
    `trials` and grows fourfold per extension up to `max_trials` (default
    64 x `trials`), the most trials any one point may use.

    At each (N, attempt) the two hypotheses draw from independent seeded
    streams, and hypothesis 1's runs on a helper thread while hypothesis
    2's runs on the calling thread; the curve does not depend on it and is
    bit-identical to running them one after the other.  Each stream draws
    at most `MC_CHUNK` (4,096) trials at a time, so a stream holds at most
    `MC_CHUNK` x |X| counts whatever the trial budget.
    """
    plane = _centroid_hyperplane(p1, p2, fs)
    bad_n = [int(v) for v in n_grid if int(v) < 1]
    if bad_n:
        raise ValidationError(f"n_grid entries must be >= 1, got {bad_n}")
    sizes, counts = np.unique([int(v) for v in n_grid], return_counts=True)
    if (counts > 1).any():
        raise ValidationError(
            f"n_grid entries must be distinct, repeated: {sizes[counts > 1].tolist()}")
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if max_trials is None:
        max_trials = 64 * trials
    if max_trials < trials:
        raise ValidationError(f"max_trials must be >= trials ({trials}), got {max_trials}")
    if plane is None:
        # constant statistic: the error probability is exactly 1/2 forever
        grid = tuple(sorted(int(v) for v in n_grid))
        return McCurve(
            exponent=0.0, stderr=0.0, n_values=grid,
            p_hat=tuple(0.5 for _ in grid), trials=tuple(trials for _ in grid),
        )
    c, b = plane

    used_n: list[int] = []
    p_hats: list[float] = []
    err_counts: list[float] = []
    used_trials: list[int] = []
    # numpy's multinomial releases the GIL, so the two streams overlap
    with ThreadPoolExecutor(max_workers=1) as helper:
        for idx, n in enumerate(sorted(int(v) for v in n_grid)):
            t = trials
            attempt = 0
            while True:
                rng1 = np.random.default_rng(
                    np.random.SeedSequence(entropy=(seed, idx, attempt), spawn_key=(1,))
                )
                rng2 = np.random.default_rng(
                    np.random.SeedSequence(entropy=(seed, idx, attempt), spawn_key=(2,))
                )
                f1 = helper.submit(_simulate_errors, rng1, p1.probs, c, b, n, t,
                                   err_below=True)
                e2 = _simulate_errors(rng2, p2.probs, c, b, n, t, err_below=False)
                total = f1.result() + e2
                if total >= MC_MIN_ERRORS or t >= max_trials:
                    break
                t = min(4 * t, max_trials)
                attempt += 1
            if total < MC_MIN_ERRORS:
                break  # truncate the grid from this N upward
            used_n.append(n)
            used_trials.append(t)
            err_counts.append(total)
            p_hats.append(total / (2.0 * t))

    if len(used_n) < 2:
        raise ValidationError("exponent too large for budget: too few usable N")

    x = np.array(used_n, dtype=float)
    # model: log p_e = c0 - E*N - (1/2) log N + c1/N; the sqrt(N)
    # Bahadur-Rao prefactor and the leading finite-size correction would
    # otherwise bias the slope beyond its own standard error
    y = np.log(np.array(p_hats)) + 0.5 * np.log(x)
    cols = [np.ones_like(x), x]
    if len(used_n) >= 4:
        cols.append(1.0 / x)
    a = np.column_stack(cols)
    w = np.array(err_counts)  # inverse variances: var(log p_hat) ~ 1/errors
    awa = a.T @ (w[:, None] * a)
    coef = np.linalg.solve(awa, a.T @ (w * y))
    cov = np.linalg.inv(awa)
    return McCurve(
        exponent=float(-coef[1]),
        stderr=float(np.sqrt(cov[1, 1])),
        n_values=tuple(used_n),
        p_hat=tuple(p_hats),
        trials=tuple(used_trials),
    )


def exponent_bound(
    epsilon: float,
    k: int,
    sigmas: np.ndarray,
    c_u: float,
    c_v: float,
    delta: float,
    eta1: float,
    eta2: float,
) -> tuple[np.ndarray, float]:
    """The four-component exponent bound and the residual budget.

    Component order matches the average exponents: (U|S, V|S, U|T, V|T) ->
    (C_U e^2 k, C_V e^2 sum s_i^2, C_U e^2 sum s_i^2, C_V e^2 k).  Each
    component bounds the average over attribute configurations of the
    least-distinguishable pair's score, not a mean over all pairs.  The
    constants are those `average_exponents` reports:
    C_U = E ||Phi^(Xh|U)||_F^2 / (4 |X| |U|), with |X| the clean alphabet
    size (equal to |Xh|, as channels are square) and |U| the attribute
    size, and C_V likewise on the Y side.  The
    residual budget is RESIDUAL_SLACK * eps^2 * max(delta + eta_i + delta*eta_i);
    the big-O constant is the exposed module constant, never hidden.
    """
    if k < 1 or k > len(sigmas):
        raise ValidationError(f"k={k} incompatible with {len(sigmas)} singular values")
    for name, value in (("epsilon", epsilon), ("c_u", c_u), ("c_v", c_v),
                        ("delta", delta), ("eta1", eta1), ("eta2", eta2)):
        if not value >= 0:  # NaN fails every comparison
            raise ValidationError(
                f"{name} = {value!r}: epsilon, c_u, c_v, delta and etas must be >= 0")
    ssq = float(np.sum(np.asarray(sigmas, dtype=float)[:k] ** 2))
    e2 = epsilon**2
    bound = np.array([c_u * e2 * k, c_v * e2 * ssq, c_u * e2 * ssq, c_v * e2 * k])
    residual = RESIDUAL_SLACK * e2 * max(
        delta + eta1 + delta * eta1, delta + eta2 + delta * eta2
    )
    return bound, float(residual)


@dataclass(frozen=True)
class SideExponents:
    """One attribute side: its near and far exponents (U|S and U|T for U,
    V|T and V|S for V), its constant C_U or C_V, and their standard errors."""

    near: float
    far: float
    c: float
    stderr_near: float
    stderr_far: float
    stderr_c: float

    def __post_init__(self):
        if min(self.near, self.far) < 0:
            raise ValidationError("exponents must be nonnegative")


@dataclass(frozen=True)
class ExponentReport:
    """The U and V sides of the four averaged exponents."""

    u: SideExponents
    v: SideExponents

    # exchanging (X, U, eta1) with (Y, V, eta2) exchanges u and v, so
    # U|S <-> V|T and V|S <-> U|T in the (U|S, V|S, U|T, V|T) order below
    @property
    def exponents(self) -> tuple[float, float, float, float]:
        return (self.u.near, self.v.far, self.u.far, self.v.near)

    @property
    def stderrs(self) -> tuple[float, float, float, float]:
        return (self.u.stderr_near, self.v.stderr_far, self.u.stderr_far, self.v.stderr_near)


def _least_pair(proj: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimal squared column distance of each (k, m) matrix of a (C, k, m)
    stack, with its column pair (i, j); ties go to the lexicographically
    first pair."""
    rows, cols = np.triu_indices(proj.shape[-1], k=1)  # pairs in lexicographic order
    d = proj[:, :, rows] - proj[:, :, cols]
    dist = np.einsum("ckp,ckp->cp", d, d)
    best = dist.argmin(axis=1)  # first minimum
    return dist[np.arange(dist.shape[0]), best], rows[best], cols[best]


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    return float(values.mean()), float(values.std(ddof=1)) / np.sqrt(values.size)


def _score(fs: FeatureSet, cond_hat: np.ndarray, epsilon: float,
           oracle: bool) -> tuple[np.ndarray, np.ndarray]:
    """The least pair's score of each (|Z|, |W|) matrix of `cond_hat` under
    the features `fs`, and the information matrices it was read from."""
    phi = information_phi(cond_hat, fs.base.probs, epsilon)
    val, i, j = _least_pair(feature_vectors(fs).T @ phi)
    if oracle:
        labels = fs.base.labels
        return np.array([
            iprojection_exponent(Pmf(labels, c[:, a]), Pmf(labels, c[:, b]), fs)
            for c, a, b in zip(cond_hat, i, j)
        ]), phi
    return epsilon**2 / 8.0 * val, phi


def _side_exponents(mu: AttributeEnsembleSpec, near: tuple[Channel, FeatureSet],
                    far: tuple[Channel, FeatureSet], cross: np.ndarray, n_configs: int,
                    seed: tuple, *, oracle: bool = False) -> SideExponents:
    """Average the near and far scores of `n_configs` configurations of
    `mu`, drawn from stream `seed`, and C = E ||Phi^(Zh|W)||_F^2 / (4 |Z| |W|).

    `mu` is an attribute W of the near variable Z that reaches the far one
    through `cross`, the clean P(far | near).  `near` and `far` are
    (channel, features) pairs, the features on the noisy marginals."""
    (near_chan, near_fs), (far_chan, far_fs) = near, far
    out = np.empty((3, n_configs))
    conds = configuration_stream(mu, n_configs, seed=seed)
    for start in range(0, n_configs, CHUNK):
        rows = slice(start, start + CHUNK)
        out[0, rows], phi_near = _score(near_fs, near_chan.P @ conds[rows], mu.epsilon, oracle)
        out[1, rows], _ = _score(far_fs, far_chan.P @ (cross @ conds[rows]), mu.epsilon, oracle)
        out[2, rows] = (phi_near**2).sum(axis=(1, 2))
    (e_near, se_near), (e_far, se_far), (frob, se_frob) = (_mean_se(row) for row in out)
    d = 4.0 * near_fs.base.size * mu.attribute_size
    return SideExponents(e_near, e_far, frob / d, se_near, se_far, se_frob / d)


def average_exponents(
    mu_u: AttributeEnsembleSpec,
    mu_v: AttributeEnsembleSpec,
    joint: JointPmf,
    chan_x: Channel,
    chan_y: Channel,
    f: FeatureSet,
    g: FeatureSet,
    n_configs: int,
    seed: int,
    *,
    oracle: bool = False,
) -> ExponentReport:
    """Monte Carlo estimate of the four averaged error exponents.

    `f` and `g` must be the features of the joint seen through
    (`chan_x`, `chan_y`): the noisy marginals are read from their bases,
    which are checked against the joint's marginals pushed through the
    channels.

    Per configuration, the scored hypothesis pair is the least
    distinguishable one under the statistic at hand (argmin of the
    analytic exponent; the argmax-error-probability pair to leading
    order).  With ``oracle=True`` the scored value is the exact
    I-projection exponent of that pair instead of the analytic one.

    U-configurations use seed stream (seed, 0), V-configurations
    (seed, 1); per-configuration limits are computed first and averaged
    afterwards.
    """
    if n_configs < 2:
        raise ValidationError(f"n_configs={n_configs}: a standard error needs at least 2")
    if mu_u.epsilon != mu_v.epsilon:
        raise ValidationError("mu_u and mu_v must share one epsilon")
    if f.k != g.k:
        raise ValidationError("f and g must have the same number of features")

    px, py = joint.marginal_x(), joint.marginal_y()
    require_marginal("mu_u ensemble", mu_u.base, px)
    require_marginal("mu_v ensemble", mu_v.base, py)
    require_marginal("f ensemble", f.base, chan_x.apply(px))
    require_marginal("g ensemble", g.base, chan_y.apply(py))

    x_side, y_side = (chan_x, f), (chan_y, g)
    return ExponentReport(
        u=_side_exponents(mu_u, x_side, y_side, joint.conditional_y_given_x(),
                          n_configs, (seed, 0), oracle=oracle),
        v=_side_exponents(mu_v, y_side, x_side, joint.conditional_x_given_y(),
                          n_configs, (seed, 1), oracle=oracle),
    )
