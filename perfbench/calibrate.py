"""Host-speed calibration: report times at a reference host speed.

On a shared host the speed of a CPU swings by up to 1.7x over tens of
seconds (other tenants, frequency scaling), which swamps any code change
in run-to-run comparisons.  So the producer loop of every workload
interleaves a short fixed *probe* — interpreted and small-numpy work that
touches nothing of the package under test — at points where no round is
being computed, about every 200 ms.  The probe's own time is excluded from
every measurement (the clock pauses while it runs), and each stretch of
wall time between probes is converted to reference-host time with the
median probe time around it (see :meth:`ReferenceClock.factors`)::

    reference seconds = wall seconds * REFERENCE_PROBE_S / probe seconds

Measured on a 2-CPU shared cloud VM in one-second buckets, the probe's
time tracked the per-round cost of an n=256 stream with correlation 0.98
(the conversion cut that cost's variation from 13% to 3%) and the
per-cycle cost of the 16-tenant fleet with correlation 0.89 (14% to 8%).
The raw wall figures are printed next to the converted ones.
"""

from __future__ import annotations

import multiprocessing as mp
import time

import numpy as np

#: Probe time of the reference host in a quiet phase; converted figures
#: read as if every run had that speed.
REFERENCE_PROBE_S = 0.003

_MATRIX = np.random.default_rng(0).random((64, 64))
_VECTOR = np.random.default_rng(1).random(16)


def _call(a: int, b: int = 1, *, c: int = 2) -> int:
    return a + b + c


def probe() -> float:
    """Run the fixed calibration work once; return its wall time.

    The mix follows what the workloads spend time on: interpreted loops
    and dict updates, small matrix products and sorts, and many calls
    into numpy on tiny arrays with small objects built per call.
    """
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i
    table = {}
    for i in range(2000):
        table[i] = i
    for _ in range(20):
        _MATRIX @ _MATRIX
    np.sort(_MATRIX, axis=1)
    for i in range(600):
        total += float(np.add(_VECTOR, _VECTOR).sum()) + _call(i, b=2, c=3)
        total += len(frozenset((i, i + 1, i + 2)))
    return time.perf_counter() - start


def _peer_loop(conn) -> None:
    """Helper-process side of :class:`ProbePeer`: probe on request."""
    while conn.recv():
        conn.send(probe())


class ProbePeer:
    """The probe in a helper process, run alongside the main process's one.

    A workload whose work spans several processes (the offline pool) runs
    on every CPU, so its speed is the speed of all of them; a peer per
    extra CPU probes those while the main process probes its own.
    """

    def __init__(self) -> None:
        context = mp.get_context("spawn")
        self._conn, child = context.Pipe()
        self._process = context.Process(target=_peer_loop, args=(child,), daemon=True)
        self._process.start()
        child.close()
        # One round trip before timing starts: a helper still importing
        # would compete with the workload for the CPUs.
        self.start()
        self.result()

    def start(self) -> None:
        self._conn.send(True)

    def result(self) -> float:
        return self._conn.recv()

    def close(self) -> None:
        self._conn.send(False)
        self._process.join(timeout=5.0)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join()
        self._conn.close()


class ReferenceClock:
    """A wall clock that pauses during probes and records segment speeds.

    Workload loops read :meth:`now` for every timestamp and call
    :meth:`tick` at safe points (no round in flight, or in-flight rounds
    whose latency the pause keeps clean).  ``segments`` holds
    ``(wall seconds, probe seconds)`` for each stretch between probes; with
    ``cpus > 1`` the probe seconds are the mean over that many CPUs.
    """

    def __init__(self, interval: float = 0.2, cpus: int = 1) -> None:
        self.interval = interval
        self._peers = [ProbePeer() for _ in range(cpus - 1)]
        self._paused = 0.0
        self._segment_start = self.now()
        self.segments: list[tuple[float, float]] = []

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def tick(self, force: bool = False) -> None:
        """Close the current segment with a probe once ``interval`` passed."""
        now = self.now()
        if not force and now - self._segment_start < self.interval:
            return
        start = time.perf_counter()
        for peer in self._peers:
            peer.start()
        seconds = [probe()] + [peer.result() for peer in self._peers]
        self._paused += time.perf_counter() - start
        self.segments.append((now - self._segment_start, sum(seconds) / len(seconds)))
        self._segment_start = self.now()

    def close(self) -> None:
        """Stop the probe peers."""
        for peer in self._peers:
            peer.close()
        self._peers = []

    @property
    def segment(self) -> int:
        """Index of the segment now running (the next one ``tick`` closes)."""
        return len(self.segments)

    def factors(self) -> np.ndarray:
        """Reference seconds per wall second, one per closed segment.

        Each segment uses the median of the probes within ten segments of
        it (about two seconds either side): a single probe can catch a
        stray interrupt, and the latency tail — checkpoint I/O, stalls —
        does not follow the speed of the moment.  Of the windows tried (1
        to 21 probes) on repeated runs on a shared host, this one gave the
        smallest worst-workload run-to-run spread of p99 latency, and
        close to the smallest of throughput and p50 latency.
        """
        probes = np.array([p for _, p in self.segments])
        smoothed = np.array(
            [np.median(probes[max(0, i - 10) : i + 11]) for i in range(probes.size)]
        )
        return REFERENCE_PROBE_S / smoothed

    def reference_seconds(self) -> float:
        """All closed segments' wall time, converted to reference time."""
        walls = np.array([w for w, _ in self.segments])
        return float((walls * self.factors()).sum())


def reference_setup(setup, reps: int) -> tuple[list[float], list[float], object]:
    """Time ``reps`` calls of ``setup(rep)`` bracketed by probes.

    Returns (reference seconds, wall seconds, the last call's result); each
    rep's wall time is converted with the mean of its two probes.
    """
    converted: list[float] = []
    walls: list[float] = []
    result = None
    before = probe()
    for rep in range(reps):
        start = time.perf_counter()
        result = setup(rep)
        wall = time.perf_counter() - start
        after = probe()
        walls.append(wall)
        converted.append(wall * REFERENCE_PROBE_S / ((before + after) / 2))
        before = after
    return converted, walls, result
