"""Span shims for the traced run.

The benchmark's traced child wraps each layer's public entry points — found
by name at run time — with a shim that records a span ``(name, start, end,
parent)`` in memory.  Nothing under ``src/`` changes.  A target that a
refactor renamed or removed is reported as missing, and every metric that
needs it is reported as unmeasured; the run itself goes on.

A span's *self time* is its duration minus the durations of its direct
children (spans on one thread nest, so children never overlap).

Offline detection runs stage A in forked pool workers, which inherit the
shims.  A worker cannot hand spans back through the pool, so the shim on
the worker's chunk entry point appends one summary line per chunk to a
file in ``worker_dir``, which the parent merges after the timed phase.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np


class Tracer:
    """In-memory span store: four parallel arrays, one row per span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.owner_pid = os.getpid()
        self.worker_dir: Path | None = None

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def arrays(self, lo: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(name_id, start, end, parent) of spans ``lo:``, as numpy arrays."""
        return (
            np.asarray(self.name_id[lo:], dtype=np.int64),
            np.asarray(self.start[lo:], dtype=np.float64),
            np.asarray(self.end[lo:], dtype=np.float64),
            np.asarray(self.parent[lo:], dtype=np.int64) - lo,
        )


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus its direct children's durations.

    ``parent`` holds indices into the same arrays; a negative index (or
    one outside them) marks a root.
    """
    duration = end - start
    children = np.zeros_like(duration)
    linked = (parent >= 0) & (parent < duration.size)
    np.add.at(children, parent[linked], duration[linked])
    return duration - children


@dataclass(frozen=True)
class Target:
    """One shim: ``path`` is ``"module:Qualified.name"``.

    ``hook(tracer, args, kwargs, result)`` runs after the call returns and
    records counts at the same boundary.  ``generator`` wraps a generator
    function so each ``next`` is one span.
    """

    path: str
    span: str
    hook: Callable[[Tracer, tuple, dict, Any], None] | None = None
    generator: bool = False


def _resolve(path: str) -> tuple[Any, str, Callable]:
    """(owner, attribute, function) of ``"module:Qualified.name"``.

    Raises AttributeError when the name is gone or is not a plain function.
    """
    module_name, _, qualname = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    *outer, attr = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part)
    fn = inspect.getattr_static(owner, attr)
    if not inspect.isfunction(fn):
        raise AttributeError(f"{path} is not a function")
    return owner, attr, fn


def _span_shim(tracer: Tracer, fn: Callable, target: Target) -> Callable:
    name_id = tracer.intern(target.span)
    hook = target.hook

    if target.generator:

        @functools.wraps(fn)
        def generator_shim(*args: Any, **kwargs: Any) -> Any:
            inner = fn(*args, **kwargs)
            while True:
                index = tracer.open(name_id)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.close(index)
                yield item

        return generator_shim

    @functools.wraps(fn)
    def shim(*args: Any, **kwargs: Any) -> Any:
        index = tracer.open(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    return shim


def _worker_chunk_shim(tracer: Tracer, fn: Callable) -> Callable:
    """Summarise a worker's spans per chunk into ``tracer.worker_dir``."""

    @functools.wraps(fn)
    def shim(*args: Any, **kwargs: Any) -> Any:
        if os.getpid() == tracer.owner_pid or tracer.worker_dir is None:
            return fn(*args, **kwargs)
        mark = len(tracer.start)
        counters_before = dict(tracer.counters)
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        t1 = time.perf_counter()
        summary = summarise(tracer, lo=mark)
        summary["t0"], summary["t1"] = t0, t1
        summary["counters"] = {
            key: value - counters_before.get(key, 0.0)
            for key, value in tracer.counters.items()
        }
        with open(tracer.worker_dir / f"worker-{os.getpid()}.jsonl", "a") as handle:
            handle.write(json.dumps(summary) + "\n")
        for column in (tracer.name_id, tracer.start, tracer.end, tracer.parent):
            del column[mark:]
        return result

    return shim


def install(tracer: Tracer, targets: list[Target], worker_entry: str | None = None) -> list[str]:
    """Wrap every target that resolves; return the paths that did not."""
    missing: list[str] = []
    for target in targets:
        try:
            owner, attr, fn = _resolve(target.path)
        except (ImportError, AttributeError):
            missing.append(target.path)
            continue
        setattr(owner, attr, _span_shim(tracer, fn, target))
    if worker_entry is not None:
        try:
            owner, attr, fn = _resolve(worker_entry)
        except (ImportError, AttributeError):
            missing.append(worker_entry)
        else:
            setattr(owner, attr, _worker_chunk_shim(tracer, fn))
    return missing


def summarise(
    tracer: Tracer, lo: int = 0, t0: float | None = None, t1: float | None = None
) -> dict[str, dict[str, float]]:
    """Per span name: total seconds, self seconds and count; under
    ``root``, the summed duration of root spans (the traced wall time).

    Only spans from index ``lo`` on and, when given, inside ``[t0, t1]``.
    """
    name_id, start, end, parent = tracer.arrays(lo)
    own = self_times(start, end, parent)
    keep = np.ones(start.size, dtype=bool)
    if t0 is not None:
        keep &= start >= t0
    if t1 is not None:
        keep &= end <= t1
    total: dict[str, float] = {}
    self_: dict[str, float] = {}
    count: dict[str, float] = {}
    root_total = float((end - start)[keep & ((parent < 0) | (parent >= start.size))].sum())
    for nid, name in enumerate(tracer.names):
        pick = keep & (name_id == nid)
        if not pick.any():
            continue
        total[name] = float((end - start)[pick].sum())
        self_[name] = float(own[pick].sum())
        count[name] = float(pick.sum())
    return {"total": total, "self": self_, "count": count, "root": {"total": root_total}}


def span_durations(tracer: Tracer, name: str, t0: float, t1: float) -> np.ndarray:
    """Durations of the spans called ``name`` inside ``[t0, t1]``."""
    if name not in tracer.names:
        return np.zeros(0)
    name_id, start, end, _ = tracer.arrays()
    pick = (name_id == tracer.names.index(name)) & (start >= t0) & (end <= t1)
    return (end - start)[pick]


def merge_worker_summaries(worker_dir: Path, t0: float, t1: float) -> dict[str, dict[str, float]]:
    """Sum the chunk summaries workers wrote for chunks inside ``[t0, t1]``."""
    merged: dict[str, dict[str, float]] = {
        "total": {}, "self": {}, "count": {}, "counters": {}
    }
    for path in sorted(worker_dir.glob("worker-*.jsonl")):
        for line in path.read_text().splitlines():
            chunk = json.loads(line)
            if chunk["t0"] < t0 or chunk["t1"] > t1:
                continue
            for part in merged:
                for key, value in chunk[part].items():
                    merged[part][key] = merged[part].get(key, 0.0) + value
    return merged
