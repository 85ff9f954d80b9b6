"""Discrete distributions, joint distributions, and perturbation channels.

Joint probability tables are stored with rows indexed by the Y alphabet and
columns by the X alphabet; every module in the package adopts this
orientation.  Channels are column-stochastic: column j is the output
distribution given input symbol j, decomposed as P = I + eta * T where every
column of T sums to zero.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import AlphabetMismatchError, FeasibilityError, ValidationError

MASS_TOL = 1e-12


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def require_finite(name: str, a: np.ndarray) -> np.ndarray:
    """`a`, unless it holds a NaN or an infinity: then a ValidationError
    naming `name`, the first such entry and its numpy index."""
    bad = ~np.isfinite(a)
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ValidationError(f"{name} has non-finite entry {float(a[idx])} at {idx}")
    return a


def _check_labels(labels: Sequence[str]) -> tuple[str, ...]:
    labels = tuple(str(x) for x in labels)
    if len(labels) == 0:
        raise ValidationError("alphabet is empty")
    # joint files separate labels by whitespace, so such a label cannot round-trip
    bad = [lab for lab in labels if lab.split() != [lab]]
    if bad:
        raise ValidationError(f"labels {bad} are empty or hold whitespace")
    if len(set(labels)) != len(labels):
        raise ValidationError(f"duplicate labels in alphabet: {labels}")
    return labels


@dataclass(frozen=True)
class Pmf:
    """Probability mass function over a finite labeled alphabet."""

    labels: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", _check_labels(self.labels))
        p = _freeze(self.probs)
        if p.ndim != 1 or p.size != len(self.labels):
            raise ValidationError(
                f"probs shape {p.shape} does not match {len(self.labels)} labels"
            )
        require_finite("probs", p)
        if np.any(p < 0):
            raise ValidationError("negative probability entry")
        if abs(float(p.sum()) - 1.0) > MASS_TOL:
            raise ValidationError(f"probabilities sum to {float(p.sum())!r}, not 1")
        object.__setattr__(self, "probs", p)

    @property
    def size(self) -> int:
        return len(self.labels)

    def require_positive(self) -> "Pmf":
        if float(self.probs.min()) <= 0.0:
            z = self.labels[int(np.argmin(self.probs))]
            raise ValidationError(f"symbol {z!r} has zero probability")
        return self


def require_marginal(name: str, base: Pmf, marginal: Pmf) -> None:
    """Raise unless `base`, the base of `name`, is `marginal`: the same labels
    and probabilities within 1e-10."""
    if base.labels != marginal.labels:
        raise AlphabetMismatchError(f"{name} labels do not match the joint")
    gap = float(np.abs(base.probs - marginal.probs).max())
    if gap > 1e-10:
        raise ValidationError(f"{name} base differs from marginal by {gap:g}")


def uniform_pmf(labels: Sequence[str]) -> Pmf:
    labels = tuple(labels)
    n = len(labels)
    return Pmf(labels, np.full(n, 1.0 / n))


@dataclass(frozen=True)
class JointPmf:
    """Joint distribution of (X, Y); probs[j, i] = P(X = x_i, Y = y_j)."""

    x_labels: tuple[str, ...]
    y_labels: tuple[str, ...]
    probs: np.ndarray
    _marg: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "x_labels", _check_labels(self.x_labels))
        object.__setattr__(self, "y_labels", _check_labels(self.y_labels))
        p = _freeze(self.probs)
        if p.shape != (len(self.y_labels), len(self.x_labels)):
            raise ValidationError(
                f"probs shape {p.shape}, expected "
                f"({len(self.y_labels)}, {len(self.x_labels)})"
            )
        require_finite("probs", p)
        if np.any(p < 0):
            raise ValidationError("negative probability entry")
        if abs(float(p.sum()) - 1.0) > MASS_TOL:
            raise ValidationError(f"joint mass is {float(p.sum())!r}, not 1")
        object.__setattr__(self, "probs", p)

    def marginal_x(self) -> Pmf:
        if "x" not in self._marg:
            self._marg["x"] = Pmf(self.x_labels, self.probs.sum(axis=0))
        return self._marg["x"]

    def marginal_y(self) -> Pmf:
        if "y" not in self._marg:
            self._marg["y"] = Pmf(self.y_labels, self.probs.sum(axis=1))
        return self._marg["y"]

    def conditional_y_given_x(self) -> np.ndarray:
        """|Y| x |X| column-stochastic matrix P(y|x); requires positive P_X."""
        px = self.marginal_x().require_positive().probs
        return self.probs / px[np.newaxis, :]


@dataclass(frozen=True)
class Channel:
    """Column-stochastic perturbation channel P = I + eta * T on one alphabet.

    An eta beyond `max_feasible_eta(T)` raises a FeasibilityError.
    """

    labels: tuple[str, ...]
    eta: float
    T: np.ndarray
    P: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "labels", _check_labels(self.labels))
        t = _freeze(self.T)
        n = len(self.labels)
        if t.shape != (n, n):
            raise ValidationError(f"T shape {t.shape}, expected ({n}, {n})")
        require_finite("T", t)
        if not self.eta >= 0:  # NaN fails every comparison
            raise ValidationError("eta must be >= 0")
        col_sums = t.sum(axis=0)
        if np.max(np.abs(col_sums)) > MASS_TOL * max(1.0, float(np.abs(t).max())):
            j = int(np.argmax(np.abs(col_sums)))
            raise ValidationError(
                f"column {j} of T sums to {col_sums[j]!r}, not 0"
            )
        feasible = max_feasible_eta(t)
        if self.eta > feasible + MASS_TOL:
            raise FeasibilityError("eta exceeds feasibility bound", feasible)
        p = np.eye(n) + self.eta * t
        if np.max(np.abs(p.sum(axis=0) - 1.0)) > 1e-11:
            raise ValidationError("columns of P do not sum to 1")
        object.__setattr__(self, "T", t)
        object.__setattr__(self, "P", _freeze(np.clip(p, 0.0, 1.0)))

    def apply(self, pmf: Pmf) -> Pmf:
        if pmf.labels != self.labels:
            raise AlphabetMismatchError(
                f"channel alphabet {self.labels} != input alphabet {pmf.labels}"
            )
        return Pmf(self.labels, self.P @ pmf.probs)


def max_feasible_step(start: np.ndarray, step: np.ndarray) -> float:
    """Largest s >= 0 keeping start + s*step inside [0, 1] entrywise.

    `start` broadcasts against `step`; an all-zero step gives inf.
    """
    step = np.asarray(step, dtype=float)
    start = np.broadcast_to(np.asarray(start, dtype=float), step.shape)
    moving = step != 0
    if not np.any(moving):
        return math.inf
    room = np.where(step > 0, 1.0 - start, start)
    return float(np.min(room[moving] / np.abs(step[moving])))


def max_feasible_eta(T: np.ndarray) -> float:
    """Largest eta >= 0 keeping every entry of I + eta*T inside [0, 1]."""
    T = np.asarray(T, dtype=float)
    return max_feasible_step(np.eye(T.shape[0]), T)


def make_channel(T: np.ndarray, eta: float, labels: Sequence[str] | None = None) -> Channel:
    """Build I + eta*T on `labels` (default "0".."n-1"); `Channel` rejects
    eta beyond the exact feasibility bound."""
    T = np.asarray(T, dtype=float)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise ValidationError(f"T must be square, got shape {T.shape}")
    if labels is None:
        labels = tuple(str(i) for i in range(T.shape[0]))
    return Channel(tuple(labels), float(eta), T)


def joint_from_samples(
    pairs: Iterable[tuple[str, str]],
    x_alphabet: Sequence[str],
    y_alphabet: Sequence[str],
) -> JointPmf:
    """Empirical joint from labeled (x, y) pairs; zero-count cells permitted."""
    x_alphabet = _check_labels(x_alphabet)
    y_alphabet = _check_labels(y_alphabet)
    x_index = {lab: i for i, lab in enumerate(x_alphabet)}
    y_index = {lab: j for j, lab in enumerate(y_alphabet)}
    counts = np.zeros((len(y_alphabet), len(x_alphabet)))
    n = 0
    for rec, (x, y) in enumerate(pairs):
        x, y = str(x), str(y)
        if x not in x_index:
            raise AlphabetMismatchError(
                f"record {rec}: x label {x!r} not in declared alphabet"
            )
        if y not in y_index:
            raise AlphabetMismatchError(
                f"record {rec}: y label {y!r} not in declared alphabet"
            )
        counts[y_index[y], x_index[x]] += 1.0
        n += 1
    if n == 0:
        raise ValidationError("empty sample stream")
    return JointPmf(x_alphabet, y_alphabet, counts / n)


def apply_channels(joint: JointPmf, chan_x: Channel, chan_y: Channel) -> JointPmf:
    """Push a joint through independent per-coordinate channels.

    P(xh, yh) = sum_{x,y} P(xh|x) P(yh|y) P(x, y).
    """
    if chan_x.labels != joint.x_labels:
        raise AlphabetMismatchError("x-channel alphabet does not match joint")
    if chan_y.labels != joint.y_labels:
        raise AlphabetMismatchError("y-channel alphabet does not match joint")
    noisy = chan_y.P @ joint.probs @ chan_x.P.T
    return JointPmf(joint.x_labels, joint.y_labels, noisy)


# ---------------------------------------------------------------------------
# Structured-text serialization (17 significant digits, line-oriented).
#
# Joint file:
#   # <comments>
#   joint v1
#   x_labels: a b
#   y_labels: u v
#   probs:
#   <|Y| rows of |X|>
# ---------------------------------------------------------------------------

FLOAT_FMT = "%.17g"


def _fmt_row(row: np.ndarray) -> str:
    return " ".join(FLOAT_FMT % v for v in row)


def parse_matrix(text: str) -> np.ndarray:
    """Whitespace-separated rows, one per non-blank line, read by one
    `np.loadtxt` call.  Row widths are counted only after that call fails,
    so a ragged matrix is named as ragged even where it also holds a word."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no rows")
    try:
        return np.loadtxt(lines, ndmin=2, comments=None)
    except ValueError:
        widths = [len(line.split()) for line in lines]
        for row, width in enumerate(widths[1:], start=2):
            if width != widths[0]:
                raise ValueError(
                    f"row {row} has {width} entries, row 1 has {widths[0]}") from None
        raise


def dump_joint(joint: JointPmf, header: Sequence[str] = ()) -> str:
    buf = io.StringIO()
    for line in header:
        buf.write(f"# {line}\n")
    buf.write("joint v1\n")
    buf.write("x_labels: " + " ".join(joint.x_labels) + "\n")
    buf.write("y_labels: " + " ".join(joint.y_labels) + "\n")
    buf.write("probs:\n")
    for row in joint.probs:
        buf.write(_fmt_row(row) + "\n")
    return buf.getvalue()


def load_joint(text: str) -> JointPmf:
    """The joint of a `dump_joint` text; a malformed file raises a
    ValidationError that names what is wrong."""
    lines = [line for line in (raw.strip() for raw in text.splitlines())
             if line and not line.startswith("#")]
    kind = lines[0] if lines else ""
    if kind != "joint v1":
        raise ValidationError(f"joint file starts with {kind!r}, expected 'joint v1'")
    if "probs:" not in lines:
        raise ValidationError("joint file has no 'probs:' line")
    start = lines.index("probs:")
    fields = {key.strip(): value for key, _, value in
              (line.partition(":") for line in lines[1:start])}
    for key in ("x_labels", "y_labels"):
        if key not in fields:
            raise ValidationError(f"joint file has no '{key}:' line")
    try:
        probs = parse_matrix("\n".join(lines[start + 1:]))
    except ValueError as exc:
        raise ValidationError(f"joint file probs: {exc}") from None
    return JointPmf(tuple(fields["x_labels"].split()), tuple(fields["y_labels"].split()),
                    probs)


def iter_sample_pairs(
    lines: Iterable[str], delimiter: str = ",", header: bool = False
) -> Iterator[tuple[str, str]]:
    """Yield (x, y) label pairs from delimiter-separated two-column text."""
    it = iter(lines)
    if header:
        next(it, None)
    for rec, raw in enumerate(it):
        line = raw.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(delimiter)]
        if len(parts) != 2:
            raise ValidationError(
                f"record {rec}: expected two columns, got {len(parts)}"
            )
        yield parts[0], parts[1]
