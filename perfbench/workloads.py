"""The four workloads: one window/step (w=256, s=8), default k and engine.

Each workload is a closed loop: one producer hands each input to the system
through its public entry point and waits for the call to return.  A round's
latency runs from the hand-off of the last input that contributes to it
(its closing row, or that row's last original envelope) to the return of
the call that emits its ``RoundRecord``.

A run measures for ``seconds`` and at least ``min_rounds`` rounds, then
stops at the next point where the stream is whole (a round boundary, a
delivery block, a pump), so the records it emitted cover an exact prefix of
the clean input matrix — the prefix the oracle re-runs through a plain
``StreamingCAD.push_many``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core import CAD, CADConfig, StreamingCAD
from repro.core.parallel import get_worker_pool, shutdown_worker_pool
from repro.fleet import FleetConfig, FleetManager, TenantSpec
from repro.ingest import FrontierConfig, IngestFrontier, SampleEnvelope
from repro.runtime import (
    BreakerPolicy,
    ChaosModel,
    StreamSupervisor,
    SupervisorConfig,
    VirtualClock,
)
from repro.timeseries.mts import MultivariateTimeSeries

from . import loadgen
from .calibrate import ReferenceClock
from .gate import RecordKey, keys_of, record_key
from .loadgen import (
    STEP,
    WINDOW,
    closing_sample,
    round_closed_by,
    samples_for_rounds,
    sub_seed,
)

#: Rounds between supervisor checkpoints in every streaming workload.
CHECKPOINT_EVERY = 50


def cad_config(n: int, **overrides: Any) -> CADConfig:
    """Default k and engine; theta, tau and the windowed RC as
    ``CADConfig.suggest`` sets them for a stream.

    theta sits just below the normal RC level — (community size - 1) /
    (n - 1) for the generated networks — as the CLI's RC probe places it;
    a fixed theta would flag every sensor at one width and none at another.
    """
    size = n // loadgen.community_count(n)
    return CADConfig(
        window=WINDOW,
        step=STEP,
        theta=0.9 * (size - 1) / (n - 1),
        rc_mode="window",
        rc_window=8,
        **overrides,
    )


def supervisor_config(checkpoint_every: int) -> SupervisorConfig:
    # Breakers off: quarantine would need allow_missing, and the clean
    # feed never trips them anyway.
    return SupervisorConfig(
        checkpoint_every=checkpoint_every, breaker=BreakerPolicy(failure_threshold=0)
    )


def rounds_in(samples: int) -> int:
    """Rounds a stream of ``samples`` samples has closed."""
    return 0 if samples < WINDOW else (samples - WINDOW) // STEP + 1


@dataclass
class RunResult:
    """What one timed phase produced and how long it took.

    Wall figures exclude calibration probes; ``reference_*`` figures are
    the same converted to reference host speed (see ``calibrate``).
    ``span`` is the ``perf_counter`` interval of the phase, probes
    included, for filtering trace spans.
    """

    span: tuple[float, float]
    elapsed: float
    reference_elapsed: float
    latencies: list[float]
    reference_latencies: list[float]
    readings: int
    inputs: int
    expected_rounds: int
    consumed: int  # stream samples consumed (fleet: ticks)
    cycles: int = 0
    keys: dict[str, list[RecordKey]] = field(default_factory=dict)
    failed: int = 0

    @property
    def emitted(self) -> int:
        return sum(len(keys) for keys in self.keys.values())


class Timed:
    """Clock and latency bookkeeping of one timed phase."""

    def __init__(self, seconds: float, cpus: int = 1) -> None:
        self.clock = ReferenceClock(cpus=cpus)
        self.now = self.clock.now
        self.wall0 = time.perf_counter()
        self.t0 = self.now()
        self.deadline = self.t0 + seconds
        self.latencies: list[float] = []
        self._segments: list[int] = []

    def latency(self, seconds: float) -> None:
        self.latencies.append(seconds)
        self._segments.append(self.clock.segment)

    def over(self, rounds: int, min_rounds: int) -> bool:
        return rounds >= min_rounds and self.now() >= self.deadline

    def finish(self, **fields: Any) -> RunResult:
        t1 = self.now()
        wall1 = time.perf_counter()
        self.clock.tick(force=True)
        self.clock.close()
        factors = self.clock.factors()
        return RunResult(
            span=(self.wall0, wall1),
            elapsed=t1 - self.t0,
            reference_elapsed=self.clock.reference_seconds(),
            latencies=self.latencies,
            reference_latencies=[
                seconds * factors[segment]
                for seconds, segment in zip(self.latencies, self._segments)
            ],
            **fields,
        )


class Workload:
    """Common shape: generate → setup (timed, repeated) → run → oracle."""

    name = ""
    setup_reps = 5
    #: Rounds every run reaches; also the length of the digest prefix.
    min_rounds = 0

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed

    def generate(self) -> None:
        raise NotImplementedError

    def setup(self, workdir: Path) -> Any:
        raise NotImplementedError

    def run(self, system: Any, seconds: float) -> RunResult:
        raise NotImplementedError

    def oracle(self, result: RunResult) -> dict[str, list[RecordKey]]:
        raise NotImplementedError

    def handoff_seconds(self, result: RunResult) -> float:
        """Bare hand-off loop over the consumed inputs, with no system call."""
        raise NotImplementedError

    def stats(self, system: Any) -> dict[str, float]:
        """Counters read from the system's own health/stat surfaces."""
        return {}

    def close(self, system: Any) -> None:
        """Release what ``setup`` started."""


def _stream_oracle(config: CADConfig, inp: loadgen.StreamInput, samples: int, base: int):
    stream = StreamingCAD(config, inp.n)
    stream.warm_up(MultivariateTimeSeries(inp.history))
    return keys_of(stream.push_many(inp.stream[:, :samples]), base)


def _supervisor_stats(supervisor: StreamSupervisor) -> dict[str, float]:
    health = supervisor.health()
    return {
        "crashes_recovered": health.crashes_recovered,
        "samples_shed": health.samples_shed,
        "queue_high_watermark": health.queue_high_watermark,
    }


class WideStream(Workload):
    """One supervised n=256 stream fed pre-aligned rows via ``process``."""

    name = "wide_stream"

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        self.n = 16 if tiny else 256
        self.history_rounds = 4 if tiny else 64
        self.min_rounds = 12 if tiny else 1000
        self.max_rounds = 24 if tiny else 3000
        self.checkpoint_every = 5 if tiny else CHECKPOINT_EVERY

    def generate(self) -> None:
        self.input = loadgen.stream_input(
            self.n,
            self.history_rounds,
            samples_for_rounds(self.max_rounds),
            sub_seed(self.seed, 1),
        )
        self.history = MultivariateTimeSeries(self.input.history)

    def setup(self, workdir: Path) -> StreamSupervisor:
        supervisor = StreamSupervisor(
            cad_config(self.n),
            self.n,
            supervisor=supervisor_config(self.checkpoint_every),
            checkpoint_dir=workdir / "checkpoints",
        )
        supervisor.warm_up(self.history)
        return supervisor

    def run(self, supervisor: StreamSupervisor, seconds: float) -> RunResult:
        base = supervisor.stream.detector.rounds_processed
        rows = self.input.rows
        process = supervisor.process
        records: list = []
        t = 0
        k = 0
        timed = Timed(seconds)
        clock = timed.now
        while k < self.max_rounds:
            while t <= closing_sample(k):
                handoff = clock()
                out = process(rows[t])
                t += 1
                if out:
                    done = clock()
                    for record in out:
                        timed.latency(done - handoff)
                        records.append(record)
            k += 1
            timed.clock.tick()
            if timed.over(k, self.min_rounds):
                break
        result = timed.finish(readings=self.n * t, inputs=t, expected_rounds=k, consumed=t)
        result.keys = {"main": keys_of(records, base)}
        result.failed = (k - len(records)) + int(supervisor.health().samples_shed)
        return result

    def oracle(self, result: RunResult) -> dict[str, list[RecordKey]]:
        return {
            "main": _stream_oracle(cad_config(self.n), self.input, result.consumed, self.history_rounds)
        }

    def handoff_seconds(self, result: RunResult) -> float:
        rows = self.input.rows
        clock = time.perf_counter
        start = clock()
        for t in range(result.consumed):
            clock()
            rows[t]
        return (clock() - start) / max(1, result.consumed)

    def stats(self, supervisor: StreamSupervisor) -> dict[str, float]:
        return _supervisor_stats(supervisor)


class FaultyDelivery(Workload):
    """n=64 sensor-level envelopes, out of order and redelivered, through
    an ``IngestFrontier``, with seeded crashes on a ``VirtualClock``."""

    name = "faulty_delivery"
    horizon = 16
    block_rows = 64
    duplicate_rate = 0.05
    crash_rate = 0.003
    #: The crash schedule is part of the workload, not of the seed: the same
    #: rounds crash in every run (five in the first 1000), so the handful of
    #: recoveries in the latency tail does not swing p99 from run to run.
    chaos_seed = 0

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        self.n = 8 if tiny else 64
        self.history_rounds = 4 if tiny else 64
        self.min_rounds = 12 if tiny else 1000
        self.max_rounds = 40 if tiny else 1600
        self.checkpoint_every = 5 if tiny else CHECKPOINT_EVERY

    def generate(self) -> None:
        rows = -(-samples_for_rounds(self.max_rounds) // self.block_rows) * self.block_rows
        self.input = loadgen.stream_input(
            self.n, self.history_rounds, rows, sub_seed(self.seed, 2)
        )
        self.history = MultivariateTimeSeries(self.input.history)
        self.schedule = loadgen.delivery_schedule(
            self.input.stream,
            horizon=self.horizon,
            block_rows=self.block_rows,
            duplicate_rate=self.duplicate_rate,
            seed=sub_seed(self.seed, 3),
        )

    def setup(self, workdir: Path) -> StreamSupervisor:
        frontier = IngestFrontier(
            FrontierConfig(
                n_sensors=self.n, disorder_horizon=self.horizon, late_policy="drop"
            )
        )
        supervisor = StreamSupervisor(
            cad_config(self.n),
            self.n,
            supervisor=supervisor_config(self.checkpoint_every),
            checkpoint_dir=workdir / "checkpoints",
            clock=VirtualClock(),
            chaos=ChaosModel(seed=self.chaos_seed, crash_rate=self.crash_rate),
            frontier=frontier,
        )
        supervisor.warm_up(self.history)
        return supervisor

    def run(self, supervisor: StreamSupervisor, seconds: float) -> RunResult:
        base = supervisor.stream.detector.rounds_processed
        deliveries = self.schedule.tuples
        ingest = supervisor.ingest
        envelope = SampleEnvelope
        handoffs = [0.0] * (rounds_in(self.input.stream.shape[1]) + 1)
        records: list = []
        timed = Timed(seconds)
        clock = timed.now

        def emitted(out: list, done: float) -> None:
            for record in out:
                timed.latency(done - handoffs[record.index - base])
                records.append(record)

        position = 0
        rows = 0
        for block, cut in enumerate(self.schedule.cuts):
            for i in range(position, cut):
                sensor, seq, timestamp, value, tag = deliveries[i]
                handoff = clock()
                if tag >= 0:
                    handoffs[tag] = handoff
                out = ingest(envelope(sensor, seq, timestamp, value))
                if out:
                    emitted(out, clock())
            position = cut
            rows = (block + 1) * self.block_rows
            # Rounds still behind the watermark are in flight here; the
            # clock pauses during the probe, so their latency stays clean.
            timed.clock.tick()
            if timed.over(rounds_in(rows), self.min_rounds):
                break
        # End of the delivered prefix: flush rows the watermark holds back.
        emitted(supervisor.finish(), clock())
        expected = rounds_in(rows)
        result = timed.finish(
            readings=self.n * rows, inputs=position, expected_rounds=expected, consumed=rows
        )
        result.keys = {"main": keys_of(records, base)}
        health = supervisor.health()
        result.failed = (
            (expected - len(records))
            + int(health.samples_shed)
            + int(health.samples_late_dropped)
        )
        return result

    def oracle(self, result: RunResult) -> dict[str, list[RecordKey]]:
        return {
            "main": _stream_oracle(cad_config(self.n), self.input, result.consumed, self.history_rounds)
        }

    def handoff_seconds(self, result: RunResult) -> float:
        deliveries = self.schedule.tuples
        handoffs = [0.0] * (rounds_in(self.input.stream.shape[1]) + 1)
        clock = time.perf_counter
        start = clock()
        for i in range(result.inputs):
            sensor, seq, timestamp, value, tag = deliveries[i]
            handoff = clock()
            if tag >= 0:
                handoffs[tag] = handoff
        return (clock() - start) / max(1, result.inputs)

    def stats(self, supervisor: StreamSupervisor) -> dict[str, float]:
        stats = _supervisor_stats(supervisor)
        frontier = supervisor.frontier.stats()
        delivered = frontier.accepted + frontier.deduped + frontier.late_dropped
        stats.update(
            delivered=delivered,
            reordered=frontier.reordered,
            late_dropped=frontier.late_dropped,
            useful_ratio=frontier.accepted / max(1, delivered),
        )
        return stats


class FleetSmall(Workload):
    """16 in-process tenants of n=16, rows submitted and pumped every step.

    Tenants join ``stagger_rounds`` rounds apart, as tenants of a real
    fleet do, so their every-50-rounds checkpoints fall in different pumps
    instead of all in one.
    """

    name = "fleet_small"
    stagger_rounds = 3

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        self.tenants = 3 if tiny else 16
        self.n = 8 if tiny else 16
        self.history_rounds = 4 if tiny else 64
        self.min_rounds = 4 if tiny else 64  # per tenant
        self.max_rounds = 12 if tiny else 1000
        self.checkpoint_every = 5 if tiny else CHECKPOINT_EVERY
        self.tenant_ids = [f"t{j:02d}" for j in range(self.tenants)]
        self.offsets = [j * self.stagger_rounds * STEP for j in range(self.tenants)]

    def generate(self) -> None:
        length = samples_for_rounds(self.max_rounds)
        self.inputs = [
            loadgen.stream_input(self.n, self.history_rounds, length, sub_seed(self.seed, 5, j))
            for j in range(self.tenants)
        ]

    def setup(self, workdir: Path) -> FleetManager:
        specs = [
            TenantSpec(
                tenant, cad_config(self.n), self.n, supervisor=supervisor_config(self.checkpoint_every)
            )
            for tenant in self.tenant_ids
        ]
        fleet = FleetManager(
            specs,
            fleet=FleetConfig(shards=4, seed=sub_seed(self.seed, 6) >> 1, offload_jobs=0),
            manifest_dir=workdir / "fleet",
        )
        fleet.warm_up(
            {
                tenant: MultivariateTimeSeries(inp.history)
                for tenant, inp in zip(self.tenant_ids, self.inputs)
            }
        )
        return fleet

    def consumed(self, ticks: int) -> list[int]:
        """Samples each tenant has submitted after ``ticks`` ticks."""
        return [max(0, ticks - offset) for offset in self.offsets]

    def run(self, fleet: FleetManager, seconds: float) -> RunResult:
        base = fleet.supervisor(self.tenant_ids[0]).stream.detector.rounds_processed
        submit = fleet.submit
        pump = fleet.pump
        columns = list(zip(self.tenant_ids, (inp.rows for inp in self.inputs), self.offsets))
        slot = {tenant: j for j, tenant in enumerate(self.tenant_ids)}
        handoffs = [[0.0] * self.max_rounds for _ in self.tenant_ids]
        records: dict[str, list] = {tenant: [] for tenant in self.tenant_ids}
        shed = 0
        cycles = 0
        timed = Timed(seconds)
        clock = timed.now

        def emitted(out: list, done: float) -> None:
            for fleet_record in out:
                record = fleet_record.record
                j = slot[fleet_record.tenant]
                timed.latency(done - handoffs[j][record.index - base])
                records[fleet_record.tenant].append(record)

        length = self.inputs[0].stream.shape[1]
        tick = 0
        while tick < length:
            for j, (tenant, rows, offset) in enumerate(columns):
                t = tick - offset
                if t < 0:
                    continue
                k = round_closed_by(t)
                handoff = clock()
                if k >= 0:
                    handoffs[j][k] = handoff
                if not submit(tenant, rows[t]):
                    shed += 1
            tick += 1
            if tick % STEP == 0:
                out = pump()
                cycles += 1
                emitted(out, clock())
                timed.clock.tick()
                if timed.over(rounds_in(tick - self.offsets[-1]), self.min_rounds):
                    break
        emitted(fleet.finish(), clock())
        consumed = self.consumed(tick)
        expected = sum(rounds_in(samples) for samples in consumed)
        result = timed.finish(
            readings=self.n * sum(consumed),
            inputs=sum(consumed),
            expected_rounds=expected,
            consumed=tick,
            cycles=cycles,
        )
        result.keys = {tenant: keys_of(recs, base) for tenant, recs in records.items()}
        result.failed = (expected - result.emitted) + shed
        return result

    def oracle(self, result: RunResult) -> dict[str, list[RecordKey]]:
        return {
            tenant: _stream_oracle(cad_config(self.n), inp, samples, self.history_rounds)
            for tenant, inp, samples in zip(
                self.tenant_ids, self.inputs, self.consumed(result.consumed)
            )
        }

    def handoff_seconds(self, result: RunResult) -> float:
        columns = list(zip(self.tenant_ids, (inp.rows for inp in self.inputs), self.offsets))
        handoffs = [[0.0] * self.max_rounds for _ in self.tenant_ids]
        clock = time.perf_counter
        start = clock()
        for tick in range(result.consumed):
            for j, (tenant, rows, offset) in enumerate(columns):
                t = tick - offset
                if t < 0:
                    continue
                k = round_closed_by(t)
                handoff = clock()
                if k >= 0:
                    handoffs[j][k] = handoff
                rows[t]
        return (clock() - start) / max(1, result.inputs)

    def stats(self, fleet: FleetManager) -> dict[str, float]:
        health = fleet.health()
        return {
            "crashes_recovered": health.crashes_recovered,
            "samples_shed": health.samples_shed,
            "queue_high_watermark": max(
                snapshot.queue_high_watermark for _, _, snapshot in health.tenants
            ),
        }


class OfflineDetect(Workload):
    """``CAD.warm_up`` + ``CAD.detect`` on a long n=64 series over the pool."""

    name = "offline_detect"

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        self.n = 8 if tiny else 64
        self.jobs = min(2, os.cpu_count() or 1)
        self.history_rounds = 128 if tiny else 256
        self.segment_rounds = 64 if tiny else 512
        self.min_rounds = 2 * self.segment_rounds
        self.max_segments = 2 if tiny else 32

    def generate(self) -> None:
        total = self.max_segments * self.segment_rounds
        self.input = loadgen.stream_input(
            self.n, self.history_rounds, samples_for_rounds(total), sub_seed(self.seed, 7)
        )
        self.history = MultivariateTimeSeries(self.input.history)

    def segment(self, i: int):
        """Samples of detection segment ``i``; consecutive segments continue
        one round grid (segment ``i + 1`` starts one step after the last
        round of segment ``i``)."""
        stride = self.segment_rounds * STEP
        return self.input.stream[:, i * stride : i * stride + samples_for_rounds(self.segment_rounds)]

    def setup(self, workdir: Path) -> CAD:
        shutdown_worker_pool()
        if self.jobs > 1:
            get_worker_pool(self.jobs)
        detector = CAD(cad_config(self.n, n_jobs=self.jobs), self.n)
        detector.warm_up(self.history)
        return detector

    def run(self, detector: CAD, seconds: float) -> RunResult:
        segments: list = []
        rounds = 0
        timed = Timed(seconds, cpus=self.jobs)
        clock = timed.now
        for i in range(self.max_segments):
            handoff = clock()
            # Building the series is the program's validation of the batch.
            result = detector.detect(MultivariateTimeSeries(self.segment(i)))
            done = clock()
            for _ in result.rounds:
                timed.latency(done - handoff)
            segments.append(result.rounds)
            rounds += self.segment_rounds
            timed.clock.tick()
            if timed.over(rounds, self.min_rounds):
                break
        samples = samples_for_rounds(rounds)
        run = timed.finish(
            readings=self.n * samples,
            inputs=len(segments),
            expected_rounds=rounds,
            consumed=samples,
        )
        run.keys = {
            "main": [
                record_key(record, -i * self.segment_rounds)
                for i, records in enumerate(segments)
                for record in records
            ]
        }
        run.failed = rounds - run.emitted
        return run

    def oracle(self, result: RunResult) -> dict[str, list[RecordKey]]:
        # n_jobs=1: the single-process reference.
        return {
            "main": _stream_oracle(cad_config(self.n), self.input, result.consumed, self.history_rounds)
        }

    def handoff_seconds(self, result: RunResult) -> float:
        clock = time.perf_counter
        start = clock()
        for i in range(result.inputs):
            clock()
            self.segment(i)
        return (clock() - start) / max(1, result.inputs)

    def close(self, detector: CAD) -> None:
        shutdown_worker_pool()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (WideStream, FaultyDelivery, FleetSmall, OfflineDetect)
}


def make(name: str, seed: int, tiny: bool) -> Workload:
    return WORKLOADS[name](seed, tiny)
