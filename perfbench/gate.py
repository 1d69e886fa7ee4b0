"""Output gate: round-record identity keys, digests and oracle comparison.

A run's output is the ``RoundRecord`` stream of each of its streams (one
per tenant in the fleet workload).  Each record is reduced to the fields
that carry the detector's decisions — index, n_variations, outliers,
variations, n_communities, abnormal and the exact bits of deviation — and
hashed with sha256.  The index is relative to the first live round, so a
digest does not depend on how long the warm-up was.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Mapping, Sequence

RecordKey = tuple[int, int, tuple[int, ...], tuple[int, ...], int, bool, str]


def record_key(record, base: int = 0) -> RecordKey:
    """Identity key of one ``RoundRecord``; ``base`` is the first live index."""
    return (
        int(record.index) - base,
        int(record.n_variations),
        tuple(sorted(int(v) for v in record.outliers)),
        tuple(sorted(int(v) for v in record.variations)),
        int(record.n_communities),
        bool(record.abnormal),
        float(record.deviation).hex(),
    )


def _encode(key: RecordKey) -> bytes:
    index, n_var, outliers, variations, n_comm, abnormal, deviation = key
    return (
        f"{index}|{n_var}|{','.join(map(str, outliers))}|"
        f"{','.join(map(str, variations))}|{n_comm}|{int(abnormal)}|{deviation}\n"
    ).encode()


def digest(streams: Mapping[str, Sequence[RecordKey]], rounds: int | None = None) -> str:
    """sha256 over every stream's keys, streams in name order.

    With ``rounds`` only keys whose relative index is below it count —
    the prefix every run reaches whatever its speed, which is what makes
    digests comparable between runs, traced or not.
    """
    h = hashlib.sha256()
    for name in sorted(streams):
        h.update(f"stream:{name}\n".encode())
        for key in streams[name]:
            if rounds is not None and key[0] >= rounds:
                continue
            h.update(_encode(key))
    return h.hexdigest()


def first_mismatch(
    measured: Mapping[str, Sequence[RecordKey]],
    oracle: Mapping[str, Sequence[RecordKey]],
) -> str | None:
    """None when every stream equals its oracle, else what differs first."""
    if sorted(measured) != sorted(oracle):
        return f"streams differ: {sorted(measured)} vs {sorted(oracle)}"
    for name in sorted(measured):
        got, want = measured[name], oracle[name]
        for position, (a, b) in enumerate(zip(got, want)):
            if a != b:
                return f"stream {name!r} round {position}: {a} != oracle {b}"
        if len(got) != len(want):
            return f"stream {name!r}: {len(got)} rounds, oracle has {len(want)}"
    return None


def keys_of(records: Iterable, base: int) -> list[RecordKey]:
    return [record_key(record, base) for record in records]
