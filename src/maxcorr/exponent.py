"""Error-exponent computation and the main bound comparison.

Three routes to the same exponent, in increasing cost and exactness:

* ``analytic_pairwise_exponent`` - the local (small-epsilon) leading term
  (eps^2 / 8) sum_j <phi_1 - phi_2, psi_j>^2 for a feature-mean test.
* ``iprojection_exponent`` - the exact asymptotic rate of the
  nearest-centroid rule, via I-projections onto its decision hyperplane.
* ``mc_error_curve`` - direct simulation of the test with a slope fit.

``average_exponents`` runs the full pipeline: sample attribute
configurations, push them through the channels and across the chain,
score the least-distinguishable pair of each configuration, and average.
Configurations are pushed and scored as stacked (C, |Z|, |W|) arrays of
at most ``ensemble.CHUNK`` (512) rows, as `configuration_stream`
validates them; only the oracle's I-projection runs per configuration.
All decision rules are nearest-centroid on the empirical feature mean
(midpoint hyperplane); exponents are in nats per sample.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dependence import hgr_profile
from .ensemble import CHUNK, AttributeEnsembleSpec, configuration_stream
from .errors import AlphabetMismatchError, ValidationError
from .geometry import FeatureSet, feature_vectors, information_phi
from .model import Channel, JointPmf, Pmf, apply_channels

DEGENERATE_MEAN_GAP = 1e-12
# most trials one multinomial call draws: consecutive calls on one generator
# give the same draws as a single call, and the count array stays ~2 MB
MC_CHUNK = 1 << 16
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
    bisection is exact and deterministic.
    """
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


def iprojection_exponent(p1: Pmf, p2: Pmf, fs: FeatureSet) -> float:
    """Exact error exponent of the nearest-centroid feature test.

    The decision region is the halfspace a . mean(h) > b with
    a = E_1[h] - E_2[h] and b the midpoint threshold; the rate is the
    smaller of the two I-projection values onto that hyperplane.
    Returns 0 (with a warning) when the features cannot separate the pair.
    """
    if p1.labels != p2.labels or p1.labels != fs.base.labels:
        raise AlphabetMismatchError("distributions and features must share an alphabet")
    p1.require_positive()
    p2.require_positive()
    m1 = fs.mean_under(p1.probs)
    m2 = fs.mean_under(p2.probs)
    a = m1 - m2
    if float(np.linalg.norm(a)) <= DEGENERATE_MEAN_GAP:
        warnings.warn("features are constant across the pair; exponent is 0")
        return 0.0
    c = fs.h @ a
    b = float((m1 + m2) @ a) / 2.0
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
    error_counts: tuple[float, ...]
    trials: tuple[int, ...]


def _simulate_errors(
    rng: np.random.Generator, p: np.ndarray, c: np.ndarray, b: float,
    n: int, trials: int, err_below: bool,
) -> float:
    # error totals are sums of integers and halves, exact in float for any
    # chunking
    errs = 0.0
    for start in range(0, trials, MC_CHUNK):
        counts = rng.multinomial(n, p, size=min(MC_CHUNK, trials - start))
        s = counts @ c / n - b
        errs += float((s < 0).sum() if err_below else (s > 0).sum())
        errs += 0.5 * float((s == 0).sum())
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
    are dropped from the top of the grid.

    At each (N, attempt) the two hypotheses draw from independent seeded
    streams, and hypothesis 1's runs on a helper thread while hypothesis
    2's runs on the calling thread; the curve does not depend on it and is
    bit-identical to running them one after the other.  Each stream draws
    at most `MC_CHUNK` trials at a time, which bounds memory whatever the
    trial budget.
    """
    if p1.labels != p2.labels or p1.labels != fs.base.labels:
        raise AlphabetMismatchError("distributions and features must share an alphabet")
    bad_n = [int(v) for v in n_grid if int(v) < 1]
    if bad_n:
        raise ValidationError(f"n_grid entries must be >= 1, got {bad_n}")
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    m1 = fs.mean_under(p1.probs)
    m2 = fs.mean_under(p2.probs)
    a = m1 - m2
    if float(np.linalg.norm(a)) <= DEGENERATE_MEAN_GAP:
        # constant statistic: the error probability is exactly 1/2 forever
        warnings.warn("features are constant across the pair; exponent is 0")
        grid = tuple(sorted(int(v) for v in n_grid))
        return McCurve(
            exponent=0.0, stderr=0.0, n_values=grid,
            p_hat=tuple(0.5 for _ in grid),
            error_counts=tuple(float(trials) for _ in grid),
            trials=tuple(trials for _ in grid),
        )
    c = fs.h @ a
    b = float((m1 + m2) @ a) / 2.0
    if max_trials is None:
        max_trials = 64 * trials

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
                t *= 4
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
        error_counts=tuple(err_counts),
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
    (C_U e^2 k, C_V e^2 sum s_i^2, C_U e^2 sum s_i^2, C_V e^2 k).  The
    residual budget is RESIDUAL_SLACK * eps^2 * max(delta + eta_i + delta*eta_i);
    the big-O constant is the exposed module constant, never hidden.
    """
    if k < 1 or k > len(sigmas):
        raise ValidationError(f"k={k} incompatible with {len(sigmas)} singular values")
    if min(delta, eta1, eta2, epsilon) < 0:
        raise ValidationError("epsilon, delta and etas must be >= 0")
    ssq = float(np.sum(np.asarray(sigmas, dtype=float)[:k] ** 2))
    e2 = epsilon**2
    bound = np.array([c_u * e2 * k, c_v * e2 * ssq, c_u * e2 * ssq, c_v * e2 * k])
    residual = RESIDUAL_SLACK * e2 * max(
        delta + eta1 + delta * eta1, delta + eta2 + delta * eta2
    )
    return bound, float(residual)


@dataclass(frozen=True)
class ExponentReport:
    """The four averaged exponents with their bound and bookkeeping."""

    e_u_s: float
    e_v_s: float
    e_u_t: float
    e_v_t: float
    stderr_u_s: float
    stderr_v_s: float
    stderr_u_t: float
    stderr_v_t: float
    bound: tuple[float, float, float, float]
    residual_budget: float
    c_u: float
    c_v: float
    stderr_c_u: float
    stderr_c_v: float

    def __post_init__(self):
        values = (self.e_u_s, self.e_v_s, self.e_u_t, self.e_v_t)
        if min(values) < 0:
            raise ValidationError("exponents must be nonnegative")
        if min(self.bound) < 0:
            raise ValidationError("bound entries must be nonnegative")

    @property
    def exponents(self) -> tuple[float, float, float, float]:
        return (self.e_u_s, self.e_v_s, self.e_u_t, self.e_v_t)

    @property
    def stderrs(self) -> tuple[float, float, float, float]:
        return (self.stderr_u_s, self.stderr_v_s, self.stderr_u_t, self.stderr_v_t)


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
    if values.size < 2:
        return float(values.mean()), 0.0
    return float(values.mean()), float(values.std(ddof=1)) / np.sqrt(values.size)


def _check_base(name: str, spec_base: Pmf, marginal: Pmf) -> None:
    if spec_base.labels != marginal.labels:
        raise AlphabetMismatchError(f"{name} ensemble labels do not match the joint")
    gap = float(np.abs(spec_base.probs - marginal.probs).max())
    if gap > 1e-10:
        raise ValidationError(f"{name} ensemble base differs from marginal by {gap:g}")


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
    delta_hat: float | None = None,
) -> ExponentReport:
    """Monte Carlo estimate of the four averaged error exponents.

    Per configuration, the scored hypothesis pair is the least
    distinguishable one under the statistic at hand (argmin of the
    analytic exponent; the argmax-error-probability pair to leading
    order).  With ``oracle=True`` the scored value is the exact
    I-projection exponent of that pair instead of the analytic one.

    U-configurations use seed stream (seed, 0), V-configurations
    (seed, 1); per-configuration limits are computed first and averaged
    afterwards.
    """
    if mu_u.epsilon != mu_v.epsilon:
        raise ValidationError("mu_u and mu_v must share one epsilon")
    if f.k != g.k:
        raise ValidationError("f and g must have the same number of features")
    epsilon = mu_u.epsilon
    k = f.k

    joint_hat = apply_channels(joint, chan_x, chan_y)
    px, py = joint.marginal_x(), joint.marginal_y()
    pxh, pyh = joint_hat.marginal_x(), joint_hat.marginal_y()
    _check_base("mu_u", mu_u.base, px)
    _check_base("mu_v", mu_v.base, py)
    _check_base("f", f.base, pxh)
    _check_base("g", g.base, pyh)

    psi_f = feature_vectors(f)
    psi_g = feature_vectors(g)
    y_given_x = joint.conditional_y_given_x()
    x_given_y = joint.conditional_x_given_y()
    to_xh_from_x = chan_x.P
    to_yh_from_y = chan_y.P

    def score(psi: np.ndarray, cond_hat: np.ndarray, base_hat: np.ndarray,
              fs: FeatureSet) -> np.ndarray:
        phi = information_phi(cond_hat, base_hat, epsilon)
        val, i, j = _least_pair(psi.T @ phi)
        if oracle:
            labels = fs.base.labels
            return np.array([
                iprojection_exponent(Pmf(labels, c[:, a]), Pmf(labels, c[:, b]), fs)
                for c, a, b in zip(cond_hat, i, j)
            ])
        return epsilon**2 / 8.0 * val

    def frob(cond_hat: np.ndarray, base_hat: np.ndarray) -> np.ndarray:
        return (information_phi(cond_hat, base_hat, epsilon) ** 2).sum(axis=(1, 2))

    u_s = np.empty(n_configs)
    u_t = np.empty(n_configs)
    u_frob = np.empty(n_configs)
    conds = configuration_stream(mu_u, n_configs, seed=(seed, 0))
    for start in range(0, n_configs, CHUNK):
        rows = slice(start, start + CHUNK)
        cond_xh = to_xh_from_x @ conds[rows]
        cond_yh = to_yh_from_y @ (y_given_x @ conds[rows])
        u_s[rows] = score(psi_f, cond_xh, pxh.probs, f)
        u_t[rows] = score(psi_g, cond_yh, pyh.probs, g)
        u_frob[rows] = frob(cond_xh, pxh.probs)

    v_s = np.empty(n_configs)
    v_t = np.empty(n_configs)
    v_frob = np.empty(n_configs)
    conds = configuration_stream(mu_v, n_configs, seed=(seed, 1))
    for start in range(0, n_configs, CHUNK):
        rows = slice(start, start + CHUNK)
        cond_yh = to_yh_from_y @ conds[rows]
        cond_xh = to_xh_from_x @ (x_given_y @ conds[rows])
        v_t[rows] = score(psi_g, cond_yh, pyh.probs, g)
        v_s[rows] = score(psi_f, cond_xh, pxh.probs, f)
        v_frob[rows] = frob(cond_yh, pyh.probs)

    e_u_s, se_u_s = _mean_se(u_s)
    e_u_t, se_u_t = _mean_se(u_t)
    e_v_s, se_v_s = _mean_se(v_s)
    e_v_t, se_v_t = _mean_se(v_t)
    # C_U = E ||Phi^(Xh|U)||_F^2 / (4 |X| |U|), and likewise C_V on the Y side
    du = 4.0 * px.size * mu_u.attribute_size
    dv = 4.0 * py.size * mu_v.attribute_size
    frob_u, se_frob_u = _mean_se(u_frob)
    frob_v, se_frob_v = _mean_se(v_frob)
    c_u, c_v = frob_u / du, frob_v / dv

    sigmas = hgr_profile(joint_hat)
    bound, residual = exponent_bound(
        epsilon, k, sigmas, c_u, c_v,
        delta_hat if delta_hat is not None else 0.0,
        chan_x.eta, chan_y.eta,
    )
    return ExponentReport(
        e_u_s=e_u_s, e_v_s=e_v_s, e_u_t=e_u_t, e_v_t=e_v_t,
        stderr_u_s=se_u_s, stderr_v_s=se_v_s, stderr_u_t=se_u_t, stderr_v_t=se_v_t,
        bound=tuple(bound),
        residual_budget=residual,
        c_u=c_u, c_v=c_v, stderr_c_u=se_frob_u / du, stderr_c_v=se_frob_v / dv,
    )
