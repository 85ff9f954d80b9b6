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
STOCHASTIC_TOL = 1e-10


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _check_labels(labels: Sequence[str]) -> tuple[str, ...]:
    labels = tuple(str(x) for x in labels)
    if len(labels) == 0:
        raise ValidationError("alphabet is empty")
    if len(set(labels)) != len(labels):
        raise ValidationError(f"duplicate labels in alphabet: {labels}")
    return labels


@dataclass(frozen=True)
class Pmf:
    """Probability mass function over a finite labeled alphabet."""

    labels: tuple[str, ...]
    probs: np.ndarray
    strictly_positive: bool = False

    def __post_init__(self):
        object.__setattr__(self, "labels", _check_labels(self.labels))
        p = _freeze(self.probs)
        if p.ndim != 1 or p.size != len(self.labels):
            raise ValidationError(
                f"probs shape {p.shape} does not match {len(self.labels)} labels"
            )
        if np.any(p < 0):
            raise ValidationError("negative probability entry")
        if abs(float(p.sum()) - 1.0) > MASS_TOL:
            raise ValidationError(f"probabilities sum to {p.sum()!r}, not 1")
        if self.strictly_positive and float(p.min()) <= 0.0:
            z = self.labels[int(np.argmin(p))]
            raise ValidationError(f"symbol {z!r} has zero probability")
        object.__setattr__(self, "probs", p)

    @property
    def size(self) -> int:
        return len(self.labels)

    def require_positive(self) -> "Pmf":
        if float(self.probs.min()) <= 0.0:
            z = self.labels[int(np.argmin(self.probs))]
            raise ValidationError(f"symbol {z!r} has zero probability")
        return self

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise AlphabetMismatchError(f"unknown label {label!r}") from None


def uniform_pmf(labels: Sequence[str]) -> Pmf:
    labels = tuple(labels)
    n = len(labels)
    return Pmf(labels, np.full(n, 1.0 / n), strictly_positive=True)


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
        if np.any(p < 0):
            raise ValidationError("negative probability entry")
        if abs(float(p.sum()) - 1.0) > MASS_TOL:
            raise ValidationError(f"joint mass is {p.sum()!r}, not 1")
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

    def conditional_x_given_y(self) -> np.ndarray:
        """|X| x |Y| column-stochastic matrix P(x|y); requires positive P_Y."""
        py = self.marginal_y().require_positive().probs
        return self.probs.T / py[np.newaxis, :]

    def swapped(self) -> "JointPmf":
        """The same joint with the roles of X and Y exchanged."""
        return JointPmf(self.y_labels, self.x_labels, self.probs.T)


def product_joint(px: Pmf, py: Pmf) -> JointPmf:
    return JointPmf(px.labels, py.labels, np.outer(py.probs, px.probs))


@dataclass(frozen=True)
class Channel:
    """Column-stochastic perturbation channel P = I + eta * T on one alphabet."""

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
        if self.eta < 0:
            raise ValidationError("eta must be >= 0")
        col_sums = t.sum(axis=0)
        if np.max(np.abs(col_sums)) > MASS_TOL * max(1.0, float(np.abs(t).max())):
            j = int(np.argmax(np.abs(col_sums)))
            raise ValidationError(
                f"column {j} of T sums to {col_sums[j]!r}, not 0"
            )
        p = np.eye(n) + self.eta * t
        if np.any(p < -MASS_TOL) or np.any(p > 1 + MASS_TOL):
            raise FeasibilityError(
                "eta exceeds feasibility bound for this T",
                max_feasible_eta(t),
            )
        if np.max(np.abs(p.sum(axis=0) - 1.0)) > 1e-11:
            raise ValidationError("columns of P do not sum to 1")
        object.__setattr__(self, "T", t)
        object.__setattr__(self, "P", _freeze(np.clip(p, 0.0, 1.0)))

    @property
    def size(self) -> int:
        return len(self.labels)

    def apply(self, pmf: Pmf) -> Pmf:
        if pmf.labels != self.labels:
            raise AlphabetMismatchError(
                f"channel alphabet {self.labels} != input alphabet {pmf.labels}"
            )
        return Pmf(self.labels, self.P @ pmf.probs)


def identity_channel(labels: Sequence[str]) -> Channel:
    n = len(tuple(labels))
    return Channel(tuple(labels), 0.0, np.zeros((n, n)))


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
    """Build I + eta*T, rejecting eta beyond the exact feasibility bound."""
    T = np.asarray(T, dtype=float)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise ValidationError(f"T must be square, got shape {T.shape}")
    if labels is None:
        labels = tuple(str(i) for i in range(T.shape[0]))
    feasible = max_feasible_eta(T)
    if eta > feasible + MASS_TOL:
        raise FeasibilityError("eta exceeds feasibility bound", feasible)
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


def reverse_channel(chan: Channel, input_pmf: Pmf) -> np.ndarray:
    """Bayes-reverse transition matrix P(x | xh) = D_x P(xh|x)^T D_xh^{-1}.

    Returned column-stochastic matrix has columns indexed by the output
    symbol xh and rows by the input symbol x.
    """
    if chan.labels != input_pmf.labels:
        raise AlphabetMismatchError("channel alphabet does not match input pmf")
    input_pmf.require_positive()
    out = chan.P @ input_pmf.probs
    if float(out.min()) <= 0.0:
        z = chan.labels[int(np.argmin(out))]
        raise ValidationError(f"output symbol {z!r} has zero probability")
    rev = (input_pmf.probs[:, np.newaxis] * chan.P.T) / out[np.newaxis, :]
    err = np.max(np.abs(rev.sum(axis=0) - 1.0))
    if err > STOCHASTIC_TOL:
        raise ValidationError(f"reverse channel columns off-stochastic by {err:g}")
    return rev


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


def _read_sections(text: str) -> tuple[str, dict[str, str], list[list[float]]]:
    kind = ""
    fields: dict[str, str] = {}
    matrix: list[list[float]] = []
    in_matrix = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not kind:
            kind = line
            continue
        if in_matrix:
            matrix.append([float(v) for v in line.split()])
            continue
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if value == "" and key == "probs":
            in_matrix = True
        else:
            fields[key] = value
    return kind, fields, matrix


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
    kind, fields, matrix = _read_sections(text)
    if kind != "joint v1":
        raise ValidationError(f"not a joint file (kind {kind!r})")
    return JointPmf(
        tuple(fields["x_labels"].split()),
        tuple(fields["y_labels"].split()),
        np.array(matrix),
    )


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
