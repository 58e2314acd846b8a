"""In-memory span recorder for the traced benchmark run.

The program is instrumented from outside: each wrapped function is swapped
for a timing wrapper in every module namespace that binds it, so calls made
through ``from .model import build_master_equation`` are seen as well as
calls through ``model.build_master_equation``.  Nothing under ``src/`` is
edited.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

# Kernel layer: these names are wrapped on ``scipy.linalg`` and
# ``numpy.linalg`` (where they exist) and in any program module that imported
# them by name, so code that starts calling them later is counted too.
LAPACK_NAMES = ("eig", "eigvals", "svd", "expm", "lu_factor", "lu_solve", "solve")

# The CLI entry points are the benchmark's operation boundary, recorded as
# the operation span itself; wrapping them would hide the CLI's own glue.
CLI_ENTRY_POINTS = ("main", "make_parser")


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "note")

    def __init__(self, sid, name, parent, start):
        self.id, self.name, self.parent, self.start = sid, name, parent, start
        self.end = start
        self.note = None

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end, "note": self.note}


class Recorder:
    """Collects spans with name, start, end and parent.

    Spans opened on a pool thread have no enclosing span on that thread;
    they are parented to the operation in progress (operations run one at a
    time).
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._op: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(next(self._ids), name, stack[-1] if stack else self._op,
                    time.perf_counter())
        stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextmanager
    def operation(self, name: str):
        span = self._open(name)
        self._op = span.id
        try:
            yield span
        finally:
            self._op = None
            self._close(span)

    def wrap(self, name: str, fn, note=None):
        """Timing wrapper; ``note(args, kwargs, result)`` may attach counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if note is not None:
                span.note = note(args, kwargs, result)
            return result

        return wrapper


def _propagate_note(args, kwargs, result) -> dict:
    # propagate(me, rho0, t_final, dt, ...) returns a Trajectory whose dt is
    # the step actually used, so t_final / dt is the number of RK4 steps.
    t_final = kwargs["t_final"] if "t_final" in kwargs else args[2]
    return {"rk4_steps": round(t_final / result.dt) if t_final else 0}


NOTES = {"liouville.propagate": _propagate_note}


def program_functions(package) -> dict[str, object]:
    """Public functions of each program module, keyed ``module.function``."""
    found = {}
    for mod in _program_modules(package):
        short = mod.__name__.rsplit(".", 1)[-1]
        for attr, value in vars(mod).items():
            if (attr.startswith("_") or not inspect.isfunction(value)
                    or value.__module__ != mod.__name__):
                continue
            if short == "cli" and (attr in CLI_ENTRY_POINTS or attr.startswith("cmd_")):
                continue
            found[f"{short}.{attr}"] = value
    return found


def lapack_functions() -> list[tuple[str, object]]:
    import numpy.linalg
    import scipy.linalg

    out = []
    for mod in (scipy.linalg, numpy.linalg):
        for attr in LAPACK_NAMES:
            if hasattr(mod, attr):
                out.append((f"lapack.{attr}", getattr(mod, attr)))
    return out


def _program_modules(package) -> list:
    prefix = package.__name__ + "."
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package.__name__ or name.startswith(prefix))]


class Instrumentation:
    """Swaps wrappers into every namespace binding an original; undoable."""

    def __init__(self, recorder: Recorder, package):
        import numpy.linalg
        import scipy.linalg

        self.recorder = recorder
        self._namespaces = _program_modules(package) + [scipy.linalg, numpy.linalg]
        targets = list(program_functions(package).items()) + lapack_functions()
        self._wrappers = {
            id(fn): (fn, recorder.wrap(name, fn, NOTES.get(name)))
            for name, fn in targets
        }
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for mod in self._namespaces:
            for attr, value in list(vars(mod).items()):
                pair = self._wrappers.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(mod, attr, pair[1])
                    self._undo.append((mod, attr, value))

    def remove(self) -> None:
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - _covered(children[s.id], s.start, s.end)
            for s in spans}


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per-name calls, total time and self time over all spans."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for s in spans:
        row = out[s.name]
        row["calls"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += own[s.id]
    return out


def count_under(spans: list[Span], name: str, ancestor: str) -> int:
    """Number of ``name`` spans that have an ``ancestor`` span above them."""
    by_id = {s.id: s for s in spans}
    count = 0
    for s in spans:
        if s.name != name:
            continue
        parent = by_id.get(s.parent)
        while parent is not None and parent.name != ancestor:
            parent = by_id.get(parent.parent)
        count += parent is not None
    return count
