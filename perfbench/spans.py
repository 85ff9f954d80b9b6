"""Spans and counters around the public functions of each maxcorr module.

Nothing under ``src/`` is edited: the tracer replaces each target function
with a wrapper in every ``maxcorr`` module that holds a reference to it,
because modules import by name (``maxcorr.dependence.jacobi_svd``,
``maxcorr.cli.delta_report``, ``maxcorr.ensemble.config_from_information_matrix``).
A target that no longer exists is recorded as missing and its metrics are
reported as absent.

A span is ``[span_id, parent_id, pass_id, name, start, end, info]``.  Spans
are kept in memory and written out once, at the end.  Spans are recorded
only while a pass is open, so set-up and untraced passes cost one branch.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import inspect
import json
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "maxcorr"
LAYERS = ("cli", "model", "geometry", "dependence", "svd", "symmetry", "ensemble", "exponent")


def fingerprint(obj, depth: int = 0):
    """A hashable summary of a call input, used to find repeated calls.

    Arrays hash by content, dataclasses by their fields and closures by the
    values they capture, so two ensembles built from equal specs match.
    """
    if depth > 8:
        return type(obj).__qualname__
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj).tobytes()
        return ("ndarray", obj.shape, obj.dtype.str, hashlib.sha1(data).hexdigest())
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, (tuple, list)):
        return tuple(fingerprint(v, depth + 1) for v in obj)
    if isinstance(obj, dict):
        return tuple(sorted((str(k), fingerprint(v, depth + 1)) for k, v in obj.items()))
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (type(obj).__qualname__,) + tuple(
            (f.name, fingerprint(getattr(obj, f.name, None), depth + 1))
            for f in dataclasses.fields(obj)
        )
    if hasattr(obj, "__code__"):
        cells = []
        for cell in obj.__closure__ or ():
            try:
                cells.append(fingerprint(cell.cell_contents, depth + 1))
            except ValueError:  # empty cell
                cells.append(None)
        return (obj.__qualname__, tuple(cells))
    return repr(obj)


def call_key(fn, args, kwargs):
    """Fingerprint of a call's arguments with defaults filled in."""
    try:
        bound = inspect.signature(fn).bind(*args, **kwargs)
    except (TypeError, ValueError):
        return fingerprint((args, kwargs))
    bound.apply_defaults()
    return fingerprint(dict(bound.arguments))


def _rows(result) -> int:
    return int(np.shape(result)[0]) if np.ndim(result) else 1


def _budget_ladder(base: int, final: int) -> int:
    """Sum of the trial budgets base, 4*base, ... up to the first >= final."""
    total = t = base
    while t < final:
        t *= 4
        total += t
    return total


def _mc_info(fn, args, kwargs, result) -> dict:
    """Trials simulated by one mc_error_curve call, over both hypotheses.

    Each kept N ran every budget from the base one up to its final one.
    When the grid was cut short, the first dropped N ran every budget up to
    max_trials (64 x base when not given, as in mc_error_curve).
    """
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    call = bound.arguments
    base = call["trials"]
    kept = len(result.n_values)
    requested = len({int(v) for v in call["n_grid"]})
    simulated = sum(_budget_ladder(base, t) for t in result.trials)
    if kept < requested:
        simulated += _budget_ladder(base, call["max_trials"] or 64 * base)
    return {
        "trials": 2 * simulated,
        "extensions": sum(round(math.log(t / base, 4)) for t in result.trials),
        "kept": kept,
        "requested": requested,
    }


# (module, attribute, info hook); the module is the layer.  An attribute
# "Class.method" is patched on the class.  The hook runs after the span
# closes, gets (function, args, kwargs, result) and returns a dict stored on
# the span.
SPAN_TARGETS = (
    ("cli", "main", None),
    ("cli", "load_config", None),
    ("model", "make_channel", None),
    ("model", "apply_channels", None),
    ("geometry", "config_from_information_matrix", None),
    ("dependence", "canonical_dependence_matrix",
     lambda f, a, k, r: {"key": call_key(f, a, k)}),
    ("dependence", "select_features", None),
    ("svd", "jacobi_svd", lambda f, a, k, r: {"n": max(np.shape(a[0]))}),
    ("symmetry", "MatrixEnsemble.sample", lambda f, a, k, r: {"rows": _rows(r)}),
    ("symmetry", "delta_report", lambda f, a, k, r: {"key": call_key(f, a, k)}),
    ("symmetry", "rank_one_range", lambda f, a, k, r: {"unconverged": int(r.unconverged)}),
    ("ensemble", "configuration_stream", lambda f, a, k, r: {"rows": len(r)}),
    ("exponent", "average_exponents", None),
    ("exponent", "iprojection_exponent", None),
    ("exponent", "mc_error_curve", _mc_info),
)
# Called too often for a span each (one call per raw sampler draw): counted only.
COUNT_TARGETS = (
    ("ensemble", "raw_information_sample"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.errors: dict[int, Counter] = defaultdict(Counter)
        self.missing: set[str] = set()
        self.pass_id: int | None = None
        self._stack: list[int] = []
        self._seen_errors: list[tuple[str, BaseException]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for module, attr, hook in SPAN_TARGETS:
            self._patch(module, attr, lambda fn, n, ly, h=hook: self._span(n, ly, fn, h))
        for module, attr in COUNT_TARGETS:
            self._patch(module, attr, lambda fn, n, ly: self._counter(n, ly, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, module: str, attr: str, make) -> None:
        name = f"{module}.{attr.split('.')[-1]}"
        try:
            owner = importlib.import_module(f"{PACKAGE}.{module}")
            cls, _, meth = attr.rpartition(".")
            if cls:
                owner = getattr(owner, cls)
            original = getattr(owner, meth)
        except (ImportError, AttributeError):
            self.missing.add(name)
            return
        wrapper = make(original, name, module)
        if cls:
            self._patches.append((owner, meth, original))
            setattr(owner, meth, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _note_error(self, layer: str, exc: BaseException) -> None:
        if any(ly == layer and e is exc for ly, e in self._seen_errors):
            return
        self._seen_errors.append((layer, exc))
        self.errors[self.pass_id][layer] += 1

    def _span(self, name: str, layer: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pid = tracer.pass_id
            if pid is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            rec = [len(tracer.spans), stack[-1] if stack else None, pid, name,
                   perf_counter(), None, None]
            tracer.spans.append(rec)
            stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._note_error(layer, exc)
                raise
            finally:
                rec[5] = perf_counter()
                stack.pop()
            if hook is not None:
                rec[6] = hook(fn, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name: str, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pid = tracer.pass_id
            if pid is not None:
                tracer.counts[pid][name] += 1
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if pid is not None:
                    tracer._note_error(layer, exc)
                raise

        return wrapper

    # -- passes and output -------------------------------------------------

    def begin_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self._stack.clear()
        self._seen_errors.clear()

    def end_pass(self) -> None:
        self.pass_id = None
        self._seen_errors.clear()

    def pass_spans(self, pass_id: int) -> list[list]:
        return [s for s in self.spans if s[2] == pass_id]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, pid, name, start, end, info in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "pass": pid, "name": name,
                                     "start": start, "end": end, "info": info}) + "\n")


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


class PassSpans:
    """Busy and self time, call counts and span info for one pass."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.by_id = {s[0]: s for s in spans}
        child_time: Counter = Counter()
        for s in spans:
            if s[1] is not None:
                child_time[s[1]] += s[5] - s[4]
        self.child_time = child_time

    def _has_ancestor(self, span, name: str) -> bool:
        parent = span[1]
        while parent is not None:
            p = self.by_id[parent]
            if p[3] == name:
                return True
            parent = p[1]
        return False

    def outermost(self, name: str) -> list[list]:
        """Spans of `name` not nested in another span of the same name."""
        return [s for s in self.spans if s[3] == name and not self._has_ancestor(s, name)]

    def calls(self, name: str) -> int:
        return len(self.outermost(name))

    def busy(self, name: str, where=None) -> float:
        return sum(s[5] - s[4] for s in self.outermost(name) if where is None or where(s))

    def self_time(self, name: str) -> float:
        return sum(s[5] - s[4] - self.child_time[s[0]] for s in self.spans if s[3] == name)

    def info_sum(self, name: str, key: str, where=None) -> float:
        return sum(s[6][key] for s in self.spans
                   if s[3] == name and s[6] and (where is None or where(s)))

    def repeats(self, name: str) -> int:
        seen, repeats = set(), 0
        for s in self.outermost(name):
            key = s[6]["key"]
            repeats += key in seen
            seen.add(key)
        return repeats

    def inside(self, name: str):
        """Predicate: the span has an ancestor called `name`."""
        return lambda s: self._has_ancestor(s, name)
