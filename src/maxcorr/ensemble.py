"""Samplers for attribute ensembles.

A sampled attribute is built from an i.i.d. Gaussian seed matrix by

  1. scaling row 0 by (1 + s)      - directional-preference knob,
  2. projecting columns onto the complement of sqrt(base),
  3. subtracting the prior-weighted column mean,
  4. rescaling so the largest column norm equals rho,

then converting to explicit conditionals.  Steps 2-3 are forced by
validity (conditionals sum to one; the prior mixture reproduces the
base), which is why even the s = 0 ensemble is only approximately
spherically symmetric: the sqrt(base) direction carries no variance.
Draws whose conditionals would go negative are rejected and redrawn,
never clipped, so the measured symmetry structure stays unbiased.

Every sampling path (`information_ensemble`, `configuration_stream`,
`sample_configuration`) draws through one array sampler,
`raw_information_sample`, which builds a whole (count, n, m) stack from one
normal draw.  A call draws one stack (`stack_rows`) at most, and no more
than the draws still expected to be needed at the acceptance seen so far.
A (B, n, m) normal draw consumes exactly the normals of B sequential (n, m)
draws, so the accepted sequence is the one a draw-by-draw loop yields, bit
for bit, however it is split into calls.  That equality also rests on the
two projections staying stacked per-draw products (one large product over
all draws rounds differently); every elementwise step and reduction runs
on an (n, m, B) array, with the draw axis innermost, so numpy's inner loops
are B entries long rather than m.  The rejection cap counts consecutive
rejected draws across calls and resets at each acceptance; cap + 1 in a
row raise a FeasibilityError.  Draws past the last accepted matrix are
discarded with the seed's generator, which nothing else draws from.

`configuration_stream` returns the information matrices of its
configurations as one (count, |Z|, |W|) array.  They are validated as
configurations one stack at a time, copied with the draw axis innermost,
by one `config_from_information_matrix` call, so no per-configuration object
is built and working memory stays a few stacks besides the output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FeasibilityError, ValidationError
from .geometry import (
    Configuration,
    InformationMatrix,
    config_from_information_matrix,
    max_feasible_epsilon,
)
from .model import Pmf, uniform_pmf
from .symmetry import MatrixEnsemble, seed_rng

# Entries in one sampler call, validated stack or scored stack: 256 KiB of floats,
# enough draws to spread per-call overhead, few enough to stay in cache.
STACK_ENTRIES = 1 << 15


def stack_rows(n: int, m: int) -> int:
    """Draws of (n, m) matrices in one stack of STACK_ENTRIES entries."""
    return max(1, STACK_ENTRIES // (n * m))


@dataclass(frozen=True)
class AttributeEnsembleSpec:
    """Distribution over configurations of one attribute."""

    base: Pmf
    attribute_size: int
    epsilon: float
    prior: Pmf | None = None
    anisotropy: float = 0.0
    rho: float = 1.0
    rejection_cap: int = 1000

    def __post_init__(self):
        self.base.require_positive()
        if self.attribute_size < 2:
            raise ValidationError("attribute_size must be >= 2")
        if not self.epsilon > 0:
            raise ValidationError("epsilon must be > 0")
        if not 0 < self.rho <= 1.0:
            raise ValidationError("rho must be in (0, 1]")
        if not 0 <= self.anisotropy < np.inf:  # NaN fails both comparisons
            raise ValidationError("anisotropy must be finite and >= 0")
        if self.rejection_cap < 0:
            raise ValidationError(f"rejection_cap = {self.rejection_cap}: must be >= 0")
        if self.prior is None:
            labels = tuple(f"w{j}" for j in range(self.attribute_size))
            object.__setattr__(self, "prior", uniform_pmf(labels))
        if self.prior.size != self.attribute_size:
            raise ValidationError("prior size does not match attribute_size")
        self.prior.require_positive()


def raw_information_sample(
    rng: np.random.Generator,
    base: np.ndarray,
    prior: np.ndarray,
    anisotropy: float,
    count: int,
) -> np.ndarray:
    """`count` unscaled information-matrix draws (steps 1-3, no norm policy).

    One (count, n, m) normal draw consumes the same normals as `count`
    sequential (n, m) draws, so draw i equals the i-th single draw.  The
    result is the (count, n, m) view of an (n, m, count) array.
    """
    n, m = base.size, prior.size
    phi = rng.standard_normal((count, n, m))
    if anisotropy:
        phi[:, 0, :] *= 1.0 + anisotropy
    root = np.sqrt(base)
    along = (root @ phi).T
    # the normals are freed before the projection's temporary is made, and the
    # row-major copy right after its product, so at most two stacks are alive
    t = phi.transpose(1, 2, 0).copy()
    del phi
    t -= root[:, None, None] * along
    mix = t.transpose(2, 0, 1).copy().reshape(-1, m) @ prior
    t -= mix.reshape(count, n).T[:, None, :]
    return t.transpose(2, 0, 1)


def _accept(spec: AttributeEnsembleSpec, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rescale raw draws in place (step 4) and return them with the mask of
    accepted draws: nonzero, with every conditional inside [0, 1].

    `phi` is a (count, n, m) view of an (n, m, count) array, which every
    step here reads with the draw axis innermost.
    """
    base = spec.base.probs
    t = phi.transpose(1, 2, 0)
    # sqrt is monotone, so the max of the squared column norms comes first
    top = np.sqrt(np.add.reduce(t * t, axis=0).max(axis=0))
    nonzero = top > 0.0
    t *= np.divide(spec.rho, top, out=np.zeros_like(top), where=nonzero)
    cond = spec.epsilon * np.sqrt(base)[:, None, None] * t
    cond += base[:, None, None]
    cond = cond.reshape(-1, t.shape[2])
    return phi, nonzero & (cond.min(axis=0) >= 0.0) & (cond.max(axis=0) <= 1.0)


def _rejection_cap_error(
    spec: AttributeEnsembleSpec, run: np.ndarray, accepted: int, drawn: int
) -> FeasibilityError:
    """The error for a failing run of cap + 1 rejected draws.

    `max_feasible` is the largest epsilon at which some draw of the run
    would have been accepted.
    """
    best = max(
        (max_feasible_epsilon(spec.base, phi) for phi in run if np.any(phi)), default=0.0
    )
    return FeasibilityError(
        f"epsilon infeasible for spec: rejection cap exceeded, {len(run)} consecutive "
        f"draws rejected (accepted {accepted} of {drawn} draws)",
        max_feasible=best,
    )


def _accepted_block(
    spec: AttributeEnsembleSpec, rng: np.random.Generator, count: int
) -> np.ndarray:
    """The first `count` accepted information matrices drawn from `rng`."""
    base, prior, cap = spec.base.probs, spec.prior.probs, spec.rejection_cap
    out = np.empty((count, base.size, prior.size))
    rows = stack_rows(base.size, prior.size)
    filled = drawn = 0
    carried = 0  # consecutive rejected draws since the last acceptance
    pending: list[np.ndarray] = []  # those draws, for the rejection-cap error
    while filled < count:
        # draws still expected to be needed: all first, a stack before any accepts
        need = count - filled
        if drawn:
            need = -(-need * drawn // filled) if filled else rows
        size = min(rows, need)
        phi, ok = _accept(
            spec, raw_information_sample(rng, base, prior, spec.anisotropy, size)
        )
        steps = np.arange(size)
        # consecutive rejections ending at each draw (0 at an acceptance)
        run = steps - np.maximum.accumulate(np.where(ok, steps, -1 - carried))
        taken = np.flatnonzero(ok)[: count - filled]
        used = taken[-1] if filled + taken.size == count else size
        over = np.flatnonzero(run[:used] > cap)
        if over.size:
            stop = over[0] + 1
            failing = np.concatenate(pending + [phi[:stop]])[-(cap + 1):]
            raise _rejection_cap_error(
                spec, failing, filled + int(np.count_nonzero(ok[:stop])), drawn + stop
            )
        out[filled : filled + taken.size] = phi[taken]
        filled += taken.size
        drawn += size
        if taken.size:
            pending = []
        carried = int(run[-1])
        # a copy of the trailing rejected draws, so this stack is freed before
        # the next one is drawn
        pending.append(phi[max(size - carried, 0):].copy())
        del phi
    return out


def information_ensemble(spec: AttributeEnsembleSpec) -> MatrixEnsemble:
    """The attribute spec's information matrices as a plain matrix ensemble.

    Shares the acceptance rule with configuration sampling, so a given
    seed produces exactly the Phi sequence of the configurations used in
    exponent runs.
    """
    return MatrixEnsemble(
        n=spec.base.size,
        m=spec.attribute_size,
        sample_block=lambda rng, count: _accepted_block(spec, rng, count),
    )


def _configuration(spec: AttributeEnsembleSpec, phi: np.ndarray) -> Configuration:
    """The configuration of one information matrix, or of a stack of them."""
    info = InformationMatrix(phi=phi, epsilon=spec.epsilon, base=spec.base)
    return config_from_information_matrix(spec.base, spec.prior, info, spec.epsilon)


def sample_configuration(spec: AttributeEnsembleSpec, seed: int = 0) -> Configuration:
    """Draw one configuration from the ensemble."""
    return _configuration(spec, _accepted_block(spec, seed_rng(seed), 1)[0])


def configuration_stream(
    spec: AttributeEnsembleSpec, count: int, seed: int = 0
) -> np.ndarray:
    """The (count, |Z|, |W|) information matrices of `count` configurations
    drawn from the one stream of `seed`, validated `stack_rows` at a time."""
    block = _accepted_block(spec, seed_rng(seed), count)
    rows = stack_rows(spec.base.size, spec.attribute_size)
    for start in range(0, count, rows):
        stack = block[start : start + rows].transpose(1, 2, 0).copy()
        _configuration(spec, stack.transpose(2, 0, 1))
    return block

