"""Seeded load generator, kept apart from the system under test.

Every input a workload hands to the system is built here, from ``--seed``,
before timing starts: sensor matrices come from the repository's own
``SensorNetworkSimulator`` with injected anomalies, and the out-of-order
delivery schedule is built with numpy (building it through
``envelopes_from_matrix`` + ``DeliveryChaosModel`` costs tens of seconds
per run).  The timed loops only iterate over what this module prepared.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.datasets.generator import NetworkConfig, SensorNetworkSimulator

#: The one window/step every workload shares.
WINDOW = 256
STEP = 8


def sub_seed(seed: int, *tags: int) -> int:
    """A 32-bit seed derived from the run seed and per-stream tags."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def samples_for_rounds(rounds: int) -> int:
    """Samples a stream needs so that exactly ``rounds`` rounds close."""
    return WINDOW + (rounds - 1) * STEP


def closing_sample(k: int) -> int:
    """0-based stream sample whose arrival closes round ``k``."""
    return WINDOW - 1 + k * STEP


def round_closed_by(t: int) -> int:
    """The round that stream sample ``t`` closes, or -1 for a mid-window one."""
    offset = t - (WINDOW - 1)
    return offset // STEP if offset >= 0 and offset % STEP == 0 else -1


def community_count(n: int) -> int:
    """Community count of a generated network: eight sensors each, at least two."""
    return max(2, n // 8)


def network_matrix(n: int, length: int, seed: int) -> np.ndarray:
    """An ``(n, length)`` correlated sensor matrix with injected anomalies.

    About one anomaly per 400 samples, each touching part of one community —
    the correlation breaks that make outlier sets and variations non-trivial.
    """
    communities = community_count(n)
    sim = SensorNetworkSimulator(
        NetworkConfig(n_sensors=n, n_communities=communities, seed=seed)
    )
    per_community = n // communities
    specs = sim.random_anomalies(
        length,
        n_anomalies=max(1, length // 400),
        duration_range=(48, 192),
        sensors_per_anomaly=(2, max(2, per_community // 2)),
    )
    values = sim.generate(length, specs).series.values
    return np.ascontiguousarray(values)


@dataclass(frozen=True)
class StreamInput:
    """A warm-up history plus the live stream that follows it."""

    history: np.ndarray  # (n, history samples)
    stream: np.ndarray  # (n, stream samples), continuous with history

    @property
    def n(self) -> int:
        return int(self.stream.shape[0])

    @cached_property
    def rows(self) -> np.ndarray:
        """``stream.T``, contiguous: ``rows[t]`` is sample ``t``."""
        return np.ascontiguousarray(self.stream.T)


def stream_input(n: int, history_rounds: int, stream_len: int, seed: int) -> StreamInput:
    """Generate one sensor network's history and ``stream_len`` live samples."""
    history_len = samples_for_rounds(history_rounds)
    values = network_matrix(n, history_len + stream_len, seed)
    history = values[:, :history_len].copy()
    stream = values[:, history_len:].copy()
    return StreamInput(history, stream)


@dataclass(frozen=True)
class DeliverySchedule:
    """Sensor-level envelopes in delivery order, as prepared tuples.

    Each tuple is ``(sensor, seq, timestamp, value, tag)``.  ``tag`` is the
    stream round ``k`` when the envelope is the last original delivery of
    round ``k``'s closing row (its hand-off starts that round's latency
    clock), else ``-1``.  ``cuts[b]`` is the tuple count after block ``b``:
    at a cut every row of the delivered blocks is complete and no later
    row has been touched, so a run may stop there and flush.
    """

    tuples: list[tuple[int, int, float, float, int]]
    cuts: list[int]


def delivery_schedule(
    stream: np.ndarray,
    *,
    horizon: int,
    block_rows: int,
    duplicate_rate: float,
    seed: int,
) -> DeliverySchedule:
    """Out-of-order, partly redelivered delivery of ``stream``'s readings.

    Each envelope (and each redelivered copy) of row ``r`` is delivered at
    key ``r + u`` with ``u`` uniform in ``[0, horizon)``, sorted within
    blocks of ``block_rows`` rows.  An envelope therefore never arrives
    after one ``horizon`` rows newer, so with a frontier of that disorder
    horizon nothing is late: every late drop the system reports is a
    defect, not weather.
    """
    n, rows = stream.shape
    if rows % block_rows:
        raise ValueError(f"{rows} rows do not split into blocks of {block_rows}")
    rng = np.random.default_rng(seed)
    sensor = np.tile(np.arange(n), rows)
    row = np.repeat(np.arange(rows), n)
    dup = np.flatnonzero(rng.random(sensor.size) < duplicate_rate)
    original = np.concatenate([np.ones(sensor.size, bool), np.zeros(dup.size, bool)])
    sensor = np.concatenate([sensor, sensor[dup]])
    row = np.concatenate([row, row[dup]])
    key = row + rng.uniform(0.0, float(horizon), size=row.size)
    order = np.lexsort((key, row // block_rows))
    sensor, row, original = sensor[order], row[order], original[order]

    # Last original delivery of every row: its hand-off is when the row's
    # data is complete on the producer side.
    position = np.arange(row.size)
    last = np.full(rows, -1, dtype=np.int64)
    np.maximum.at(last, row[original], position[original])
    tags = np.full(row.size, -1, dtype=np.int64)
    n_rounds = (rows - WINDOW) // STEP + 1
    closing = closing_sample(np.arange(n_rounds))
    tags[last[closing]] = np.arange(n_rounds)

    # Shared int/float objects for seq and timestamp keep the prepared
    # list compact: only the tuple and its value are per envelope.  Built
    # in slices so the temporaries stay small next to the list itself.
    seq_objs = list(range(rows))
    ts_objs = [float(r) for r in range(rows)]
    tuples: list[tuple[int, int, float, float, int]] = []
    for lo in range(0, row.size, 65536):
        part = slice(lo, lo + 65536)
        tuples.extend(
            (s, seq_objs[r], ts_objs[r], v, t)
            for s, r, v, t in zip(
                sensor[part].tolist(),
                row[part].tolist(),
                stream[sensor[part], row[part]].tolist(),
                tags[part].tolist(),
            )
        )
    block_of = row // block_rows
    cuts = (np.flatnonzero(np.diff(block_of)) + 1).tolist() + [row.size]
    return DeliverySchedule(tuples=tuples, cuts=cuts)
