"""Samplers for attribute ensembles and their propagation along the chain.

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
normal draw.  Accepted matrices are collected CHUNK raw draws at a time.  A
(B, n, m) normal draw consumes exactly the normals of B sequential (n, m)
draws, so the accepted sequence is the one a draw-by-draw loop yields, bit
for bit.  The rejection cap counts consecutive rejected draws across chunk
boundaries and resets at each acceptance; cap + 1 in a row raise a
FeasibilityError.  Draws past the last accepted matrix are discarded with
the seed's generator, which nothing else draws from.

`configuration_stream` returns the conditionals of its configurations as
one (count, |Z|, |W|) array.  They are converted and validated as stacks
of CHUNK rows, one `config_from_information_matrix` call per stack, so no
per-configuration object is built and working memory stays a few
CHUNK-row arrays besides the output.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dependence import canonical_dependence_matrix, uncentered_b
from .errors import AlphabetMismatchError, FeasibilityError, ValidationError
from .geometry import (
    Configuration,
    InformationMatrix,
    config_from_information_matrix,
    information_matrix,
    max_feasible_epsilon,
)
from .model import Channel, JointPmf, Pmf, uniform_pmf
from .symmetry import MatrixEnsemble, seed_rng

PATH_AGREEMENT_TOL = 1e-12
# Raw draws per `_accepted_block` sampler call, and rows per validated stack
# in `configuration_stream`: working memory is a few chunk-sized arrays
# besides the output, whatever the requested count.
CHUNK = 512


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
        if self.anisotropy < 0:
            raise ValidationError("anisotropy must be >= 0")
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
    sequential (n, m) draws, so draw i equals the i-th single draw.
    """
    n, m = base.size, prior.size
    phi = rng.standard_normal((count, n, m))
    if anisotropy:
        phi[:, 0, :] *= 1.0 + anisotropy
    root = np.sqrt(base)
    phi -= root[:, None] * (root @ phi)[:, None, :]
    phi -= (phi @ prior)[:, :, None]
    return phi


def _accept(spec: AttributeEnsembleSpec, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rescale raw draws in place (step 4) and return them with the mask of
    accepted draws: nonzero, with every conditional inside [0, 1]."""
    base = spec.base.probs
    top = np.linalg.norm(phi, axis=1).max(axis=1)
    nonzero = top > 0.0
    phi *= np.divide(spec.rho, top, out=np.zeros_like(top), where=nonzero)[:, None, None]
    cond = base[:, None] + spec.epsilon * np.sqrt(base)[:, None] * phi
    return phi, nonzero & np.all((cond >= 0.0) & (cond <= 1.0), axis=(1, 2))


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
    steps = np.arange(CHUNK)
    filled = drawn = 0
    carried = 0  # consecutive rejected draws since the last acceptance
    pending: list[np.ndarray] = []  # those draws, for the rejection-cap error
    while filled < count:
        phi, ok = _accept(
            spec, raw_information_sample(rng, base, prior, spec.anisotropy, CHUNK)
        )
        # consecutive rejections ending at each draw (0 at an acceptance)
        run = steps - np.maximum.accumulate(np.where(ok, steps, -1 - carried))
        taken = np.flatnonzero(ok)[: count - filled]
        used = taken[-1] if filled + taken.size == count else CHUNK
        over = np.flatnonzero(run[:used] > cap)
        if over.size:
            stop = over[0] + 1
            failing = np.concatenate(pending + [phi[:stop]])[-(cap + 1):]
            raise _rejection_cap_error(
                spec, failing, filled + int(np.count_nonzero(ok[:stop])), drawn + stop
            )
        out[filled : filled + taken.size] = phi[taken]
        filled += taken.size
        drawn += CHUNK
        if taken.size:
            pending = []
        carried = int(run[-1])
        pending.append(phi[max(CHUNK - carried, 0):])
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
        name=f"information_ensemble(s={spec.anisotropy}, rho={spec.rho})",
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
    """The (count, |Z|, |W|) conditionals of `count` configurations drawn
    from the one stream of `seed`, validated CHUNK rows at a time."""
    block = _accepted_block(spec, seed_rng(seed), count)
    for start in range(0, count, CHUNK):
        rows = slice(start, start + CHUNK)
        # the conditionals overwrite the slice's draws, which validation copied
        block[rows] = _configuration(spec, block[rows]).conditionals
    return block


def push_through_channel(config: Configuration, chan: Channel) -> Configuration:
    """Propagate an attribute of X to an attribute of the channel output.

    Conditionals transform by the channel kernel; equivalently the
    information matrix transforms by the uncentered dependence matrix.
    Both paths are computed and must agree to PATH_AGREEMENT_TOL.
    """
    if chan.labels != config.base.labels:
        raise AlphabetMismatchError("channel alphabet does not match configuration")
    new_base = chan.apply(config.base).require_positive()
    new_cond = chan.P @ config.conditionals
    out = replace(config, base=new_base, conditionals=new_cond)
    b = uncentered_b(chan, config.base).b
    phi_path = b @ information_matrix(config).phi
    gap = float(np.abs(phi_path - information_matrix(out).phi).max())
    if gap > PATH_AGREEMENT_TOL:
        raise ValidationError(
            f"information-matrix path disagrees with conditional path by {gap:g}"
        )
    return out


@dataclass(frozen=True)
class MarkovPushResult:
    """Exact push of an attribute across the chain plus its linearization.

    ``residual = Phi_exact - B~ @ Phi_in`` vanishes when the observed pair
    is the clean pair and otherwise scales linearly with the first
    channel's noise level.
    """

    config: Configuration
    residual: np.ndarray

    @property
    def residual_norm(self) -> float:
        return float(np.abs(self.residual).max()) if self.residual.size else 0.0


def markov_push(
    config: Configuration,
    joint: JointPmf,
    *,
    clean_config: Configuration | None = None,
    clean_joint: JointPmf | None = None,
    chan_y: Channel | None = None,
) -> MarkovPushResult:
    """Push an attribute of the joint's X-side to its Y-side.

    With no clean-chain data the exact conditionals are computed through
    P(y|x) of `joint` itself, which is exact precisely when `config`'s
    variable and the joint's X coordinate are the same (no first-channel
    noise).  Supplying (clean_config, clean_joint, chan_y) routes the
    exact computation through the unobserved clean chain instead.
    """
    if config.base.labels != joint.x_labels:
        raise AlphabetMismatchError("configuration alphabet does not match joint X")
    marg_gap = float(np.abs(config.base.probs - joint.marginal_x().probs).max())
    if marg_gap > 1e-10:
        raise ValidationError(
            f"configuration base differs from joint X-marginal by {marg_gap:g}"
        )
    if clean_config is not None:
        if clean_joint is None or chan_y is None:
            raise ValidationError(
                "clean-chain push needs clean_config, clean_joint and chan_y"
            )
        if clean_config.base.labels != clean_joint.x_labels:
            raise AlphabetMismatchError("clean configuration does not match clean joint")
        kernel = chan_y.P @ clean_joint.conditional_y_given_x()
        cond = kernel @ clean_config.conditionals
    else:
        cond = joint.conditional_y_given_x() @ config.conditionals

    out = replace(config, base=joint.marginal_y(), conditionals=cond)
    cdm = canonical_dependence_matrix(joint)
    residual = information_matrix(out).phi - cdm.b @ information_matrix(config).phi
    return MarkovPushResult(config=out, residual=residual)
