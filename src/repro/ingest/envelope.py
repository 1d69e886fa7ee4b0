"""Typed, validated delivery envelopes for the ingest frontier.

A :class:`SampleEnvelope` is the unit production telemetry actually ships:
one sensor's reading at one tick, stamped with the *producer's* sequence
number and local clock.  Everything the frontier needs to survive messy
delivery rides on the envelope:

* ``sensor`` — which stream the reading belongs to;
* ``seq`` — the producer's per-sensor tick counter, the identity used for
  idempotent dedup (redelivering ``(sensor, seq)`` is a no-op);
* ``timestamp`` — the producer's clock reading for the tick, the *ordering
  authority*: the frontier maps it onto the round grid (optionally after
  per-sensor clock-skew correction) and never consults the host clock
  (lint rule R9);
* ``value`` — the scalar payload.  NaN is the sanctioned missing marker
  (degraded-data semantics); ±inf is rejected outright, matching
  :class:`~repro.core.streaming.InvalidSampleError` at the detector door.

Validation happens at construction: a malformed envelope raises a typed
:class:`~repro.runtime.errors.EnvelopeValidationError` and never reaches
the reorder buffer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..runtime.errors import ConfigurationError, EnvelopeValidationError

__all__ = ["SampleEnvelope", "envelopes_from_matrix"]

#: Payload / timestamp types accepted as real scalars (bool is excluded:
#: a bool reading is almost always a schema bug upstream).
_REAL_TYPES = (int, float, np.integer, np.floating)

_INF = math.inf
_NEG_INF = -math.inf


def _as_id(field: str, raw: object) -> int:
    if isinstance(raw, bool) or not isinstance(raw, (int, np.integer)):
        raise EnvelopeValidationError(
            field, f"expected an int, got {type(raw).__name__}"
        )
    if raw < 0:
        raise EnvelopeValidationError(field, f"must be >= 0, got {raw}")
    return int(raw)


def _as_real(field: str, value: object) -> float:
    if isinstance(value, bool) or not isinstance(value, _REAL_TYPES):
        raise EnvelopeValidationError(
            field, f"expected a real scalar, got {type(value).__name__}"
        )
    return float(value)


@dataclass(frozen=True)
class SampleEnvelope:
    """One sensor reading in flight (see module docstring).

    Attributes
    ----------
    sensor:
        0-based sensor index (width-checked against the frontier's
        ``n_sensors`` at ingest, not here).
    seq:
        Producer-side per-sensor sequence number, >= 0.
    timestamp:
        Producer clock reading for the tick; must be finite.
    value:
        The reading; NaN marks an explicitly-missing reading, inf is
        rejected.
    tenant:
        Owning tenant of the reading in a multi-tenant fleet.  The empty
        string is the single implicit tenant, so every pre-fleet producer
        and frontier path is untouched; the fleet's shard router requires
        an explicit, declared tenant id.
    """

    sensor: int
    seq: int
    timestamp: float
    value: float
    tenant: str = ""

    # ``@dataclass`` keeps an explicit ``__init__``: validation is one pass
    # whose first branch admits exact built-in types with plain
    # comparisons (NaN fails both timestamp bounds; NaN values pass).
    # Anything else takes the normalising path, which owns every error.
    def __init__(
        self,
        sensor: int,
        seq: int,
        timestamp: float,
        value: float,
        tenant: str = "",
    ) -> None:
        if not (
            type(sensor) is int
            and type(seq) is int
            and type(timestamp) is float
            and type(value) is float
            and type(tenant) is str
            and sensor >= 0
            and seq >= 0
            and _NEG_INF < timestamp < _INF
            and value != _INF
            and value != _NEG_INF
        ):
            sensor, seq, timestamp, value = _normalise(
                sensor, seq, timestamp, value, tenant
            )
        # Frozen, so ``self.x = ...`` raises: write the instance dict
        # directly (cheaper than one ``object.__setattr__`` per field).
        fields = self.__dict__
        fields["sensor"] = sensor
        fields["seq"] = seq
        fields["timestamp"] = timestamp
        fields["value"] = value
        fields["tenant"] = tenant


def _normalise(
    sensor: object, seq: object, timestamp: object, value: object, tenant: object
) -> tuple[int, int, float, float]:
    """Coerce numpy/int scalars to built-ins, or raise the field's error."""
    if not isinstance(tenant, str):
        raise EnvelopeValidationError(
            "tenant", f"expected a str, got {type(tenant).__name__}"
        )
    sensor_id = _as_id("sensor", sensor)
    seq_no = _as_id("seq", seq)
    real_timestamp = _as_real("timestamp", timestamp)
    if not math.isfinite(real_timestamp):
        raise EnvelopeValidationError(
            "timestamp", f"must be finite, got {real_timestamp}"
        )
    real_value = _as_real("value", value)
    if math.isinf(real_value):
        raise EnvelopeValidationError(
            "value",
            "reading is infinite; inf is never a valid measurement "
            "(NaN marks a missing reading)",
        )
    return sensor_id, seq_no, real_timestamp, real_value


def envelopes_from_matrix(
    values: np.ndarray,
    *,
    epoch: float = 0.0,
    period: float = 1.0,
    skew: Sequence[float] | None = None,
    start_seq: int = 0,
    tenant: str = "",
) -> Iterator[SampleEnvelope]:
    """Yield the clean, in-order envelope stream of an ``(n, T)`` matrix.

    Column ``t`` becomes ``n`` envelopes with ``seq = start_seq + t`` and
    ``timestamp = epoch + seq * period`` (plus the sensor's ``skew`` offset
    when given, modelling a drifted producer clock).  This is the reference
    delivery the chaos model perturbs and the frontier must reconstruct.
    ``tenant`` stamps every envelope with an owning tenant for fleet runs;
    the default keeps the single implicit tenant.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ConfigurationError(f"values must be 2-D (n_sensors, length), got {values.shape}")
    if period <= 0.0:
        raise ConfigurationError(f"period must be > 0, got {period}")
    n_sensors = values.shape[0]
    if skew is not None and len(skew) != n_sensors:
        raise ConfigurationError(
            f"skew must give one offset per sensor ({n_sensors}), got {len(skew)}"
        )
    for t in range(values.shape[1]):
        seq = start_seq + t
        tick = epoch + seq * period
        for sensor in range(n_sensors):
            offset = skew[sensor] if skew is not None else 0.0
            yield SampleEnvelope(
                sensor=sensor,
                seq=seq,
                timestamp=tick + offset,
                value=float(values[sensor, t]),
                tenant=tenant,
            )
