"""The ingest frontier: envelopes, reorder/dedup/late/skew, chaos, resume.

The load-bearing claim throughout (mirroring the supervisor suite): messy
*delivery* must never change the answer.  Any arrival order within the
disorder horizon, any amount of redelivery, and any correctable clock skew
must yield ``RoundRecord`` sequences bit-identical to clean in-order
delivery.
"""

import dataclasses
import json
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import correlated_values
from repro.core import CADConfig, InvalidSampleError, StreamingCAD
from repro.ingest import (
    LATE_POLICIES,
    DeliveryChaosModel,
    FrontierConfig,
    IngestFrontier,
    SampleEnvelope,
    envelopes_from_matrix,
)
from repro.runtime import (
    EnvelopeValidationError,
    FrontierStateError,
    SequenceConflictError,
    StreamSupervisor,
    SupervisorConfig,
    VirtualClock,
)
from repro.timeseries import MultivariateTimeSeries

N_SENSORS = 8
CONFIG = CADConfig(window=48, step=8, allow_missing=True)


@pytest.fixture(scope="module")
def feed():
    values = correlated_values(n_sensors=N_SENSORS, length=1000, seed=21)
    history = MultivariateTimeSeries(values[:, :200])
    return history, values[:, 200:]


@pytest.fixture(scope="module")
def baseline(feed):
    history, live = feed
    stream = StreamingCAD(CONFIG, N_SENSORS)
    stream.warm_up(history)
    return stream.push_many(live)


def frontier_records(history, envelopes, frontier):
    """Feed envelopes through a frontier into a fresh StreamingCAD."""
    stream = StreamingCAD(CONFIG, frontier.config.n_sensors)
    stream.warm_up(history)
    records = []
    for envelope in envelopes:
        frontier.push(envelope)
        while (row := frontier.pop_ready()) is not None:
            record = stream.push(row)
            if record is not None:
                records.append(record)
    for row in frontier.drain():
        record = stream.push(row)
        if record is not None:
            records.append(record)
    return records


ENVELOPE_OK = dict(sensor=0, seq=0, timestamp=0.0, value=1.0)


class TestEnvelopeValidation:
    @pytest.mark.parametrize(
        "field, raw, stored",
        [
            ("sensor", np.int64(3), 3),
            ("seq", np.int64(7), 7),
            ("sensor", np.int32(2), 2),
            ("timestamp", np.float64(7.5), 7.5),
            ("timestamp", np.float32(7.5), 7.5),
            ("timestamp", 7, 7.0),
            ("timestamp", np.int64(7), 7.0),
            ("value", np.float64(1.5), 1.5),
            ("value", np.float32(1.5), 1.5),
            ("value", 2, 2.0),
            ("value", -0.0, 0.0),
        ],
    )
    def test_accepted_inputs_store_exact_builtin_types(self, field, raw, stored):
        envelope = SampleEnvelope(**{**ENVELOPE_OK, field: raw})
        kept = getattr(envelope, field)
        assert type(kept) is type(stored) and kept == stored
        for name in ("sensor", "seq"):
            assert type(getattr(envelope, name)) is int
        for name in ("timestamp", "value"):
            assert type(getattr(envelope, name)) is float

    def test_well_formed_envelope_coerces_numpy_scalars(self):
        envelope = SampleEnvelope(
            sensor=np.int64(3), seq=np.int64(7), timestamp=np.float64(7.0), value=1.5
        )
        assert envelope.sensor == 3 and isinstance(envelope.sensor, int)
        assert envelope.seq == 7 and isinstance(envelope.seq, int)
        assert envelope.timestamp == 7.0 and isinstance(envelope.timestamp, float)
        assert envelope == SampleEnvelope(sensor=3, seq=7, timestamp=7.0, value=1.5)

    @pytest.mark.parametrize("field", ["sensor", "seq"])
    @pytest.mark.parametrize(
        "bad",
        [
            -1,
            pytest.param(np.int64(-1), id="int64(-1)"),
            1.5,
            True,
            False,
            pytest.param(np.bool_(True), id="bool_(True)"),
            "0",
            None,
        ],
    )
    def test_bad_identity_fields_raise(self, field, bad):
        kwargs = dict(ENVELOPE_OK)
        kwargs[field] = bad
        with pytest.raises(EnvelopeValidationError) as excinfo:
            SampleEnvelope(**kwargs)
        assert excinfo.value.field == field

    @pytest.mark.parametrize(
        "bad",
        [
            np.inf,
            -np.inf,
            np.nan,
            pytest.param(np.float64(np.nan), id="float64(nan)"),
            pytest.param(np.float32(np.inf), id="float32(inf)"),
            True,
            False,
            "now",
            None,
        ],
    )
    def test_bad_timestamp_raises(self, bad):
        with pytest.raises(EnvelopeValidationError) as excinfo:
            SampleEnvelope(sensor=0, seq=0, timestamp=bad, value=1.0)
        assert excinfo.value.field == "timestamp"

    @pytest.mark.parametrize(
        "bad",
        [
            np.inf,
            -np.inf,
            pytest.param(np.float64(-np.inf), id="float64(-inf)"),
            pytest.param(np.float32(np.inf), id="float32(inf)"),
            "1.0",
            None,
            True,
        ],
    )
    def test_bad_value_raises(self, bad):
        with pytest.raises(EnvelopeValidationError) as excinfo:
            SampleEnvelope(sensor=0, seq=0, timestamp=0.0, value=bad)
        assert excinfo.value.field == "value"

    @pytest.mark.parametrize(
        "field, bad, reason",
        [
            ("tenant", 7, "expected a str, got int"),
            ("sensor", True, "expected an int, got bool"),
            ("seq", -3, "must be >= 0, got -3"),
            ("seq", 2.0, "expected an int, got float"),
            ("timestamp", "t", "expected a real scalar, got str"),
            ("timestamp", -np.inf, "must be finite, got -inf"),
            ("timestamp", np.nan, "must be finite, got nan"),
            ("value", np.bool_(False), "expected a real scalar, got bool"),
            (
                "value",
                np.inf,
                "reading is infinite; inf is never a valid measurement "
                "(NaN marks a missing reading)",
            ),
        ],
    )
    def test_error_names_the_field_and_reason(self, field, bad, reason):
        with pytest.raises(EnvelopeValidationError) as excinfo:
            SampleEnvelope(**{**ENVELOPE_OK, field: bad})
        assert (excinfo.value.field, excinfo.value.reason) == (field, reason)
        assert str(excinfo.value) == f"invalid envelope {field}: {reason}"

    def test_nan_value_is_the_sanctioned_missing_marker(self):
        envelope = SampleEnvelope(sensor=0, seq=0, timestamp=0.0, value=np.nan)
        assert np.isnan(envelope.value)

    def test_frozen_dataclass_protocols_hold(self):
        envelope = SampleEnvelope(
            sensor=2, seq=5, timestamp=5.0, value=0.5, tenant="t"
        )
        assert dataclasses.is_dataclass(envelope)
        with pytest.raises(dataclasses.FrozenInstanceError):
            envelope.value = 1.0
        moved = dataclasses.replace(envelope, timestamp=np.float64(5.25))
        assert type(moved.timestamp) is float and moved.timestamp == 5.25
        assert (moved.sensor, moved.seq, moved.value, moved.tenant) == (2, 5, 0.5, "t")
        with pytest.raises(EnvelopeValidationError):
            dataclasses.replace(envelope, value=np.inf)
        clone = pickle.loads(pickle.dumps(envelope))
        assert clone == envelope and hash(clone) == hash(envelope)
        twin = SampleEnvelope(np.int64(2), 5, 5, np.float32(0.5), "t")
        assert twin == envelope and hash(twin) == hash(envelope)
        assert envelope != moved
        assert hash(envelope) == hash((2, 5, 5.0, 0.5, "t"))
        assert dataclasses.astuple(envelope) == (2, 5, 5.0, 0.5, "t")
        assert repr(envelope) == (
            "SampleEnvelope(sensor=2, seq=5, timestamp=5.0, value=0.5, tenant='t')"
        )


class TestDetectorDoorValidation:
    """Satellite: StreamingCAD.push rejects inf with a typed error."""

    @pytest.mark.parametrize("allow_missing", [False, True])
    def test_inf_raises_typed_error_in_every_mode(self, allow_missing):
        config = CADConfig(window=48, step=8, allow_missing=allow_missing)
        stream = StreamingCAD(config, 4)
        sample = np.array([0.0, 1.0, np.inf, 2.0])
        with pytest.raises(InvalidSampleError) as excinfo:
            stream.push(sample)
        assert excinfo.value.index == 2
        assert "inf" in str(excinfo.value)

    def test_nan_raises_only_outside_degraded_mode(self):
        strict = StreamingCAD(CADConfig(window=48, step=8), 4)
        sample = np.array([0.0, np.nan, 1.0, 2.0])
        with pytest.raises(InvalidSampleError) as excinfo:
            strict.push(sample)
        assert excinfo.value.index == 1
        degraded = StreamingCAD(CADConfig(window=48, step=8, allow_missing=True), 4)
        degraded.push(sample)  # NaN is data in degraded mode

    def test_invalid_sample_error_is_a_value_error(self):
        assert issubclass(InvalidSampleError, ValueError)


class TestFrontierBasics:
    def test_clean_in_order_passthrough(self):
        values = np.arange(12.0).reshape(3, 4)
        frontier = IngestFrontier(FrontierConfig(n_sensors=3, disorder_horizon=2))
        rows = frontier.extend(envelopes_from_matrix(values))
        rows.extend(frontier.drain())
        assert np.array_equal(np.column_stack(rows), values)
        stats = frontier.stats()
        assert stats.accepted == 12
        assert stats.rows_emitted == 4
        assert (
            stats.reordered,
            stats.deduped,
            stats.late_dropped,
            stats.nan_patched,
            stats.rows_dropped,
        ) == (0, 0, 0, 0, 0)

    def test_horizon_zero_never_flushes_a_mid_assembly_row(self):
        frontier = IngestFrontier(FrontierConfig(n_sensors=2, disorder_horizon=0))
        frontier.push(SampleEnvelope(sensor=0, seq=0, timestamp=0.0, value=1.0))
        assert frontier.pop_ready() is None, "row 0 is still assembling"
        frontier.push(SampleEnvelope(sensor=1, seq=0, timestamp=0.0, value=2.0))
        assert frontier.pop_ready() is None
        frontier.push(SampleEnvelope(sensor=0, seq=1, timestamp=1.0, value=3.0))
        row = frontier.pop_ready()
        assert np.array_equal(row, [1.0, 2.0])
        assert frontier.stats().nan_patched == 0

    def test_reorder_within_horizon_is_lossless(self, feed, baseline):
        history, live = feed
        envelopes = list(envelopes_from_matrix(live))
        rng = np.random.default_rng(5)
        keys = np.array([e.seq for e in envelopes]) + rng.integers(
            0, 7, size=len(envelopes)
        )
        shuffled = [envelopes[i] for i in np.argsort(keys, kind="stable")]
        frontier = IngestFrontier(
            FrontierConfig(n_sensors=N_SENSORS, disorder_horizon=8)
        )
        records = frontier_records(history, shuffled, frontier)
        assert records == baseline
        assert frontier.stats().reordered > 0

    def test_redelivery_dedups_idempotently(self):
        values = np.arange(8.0).reshape(2, 4)
        envelopes = list(envelopes_from_matrix(values))
        # Horizon wider than the stream: every redelivery hits a still-
        # pending row and must dedup (flushed rows would count late instead).
        frontier = IngestFrontier(FrontierConfig(n_sensors=2, disorder_horizon=8))
        rows = frontier.extend(envelopes + envelopes[2:5])
        rows.extend(frontier.drain())
        assert np.array_equal(np.column_stack(rows), values)
        assert frontier.stats().deduped == 3
        assert frontier.stats().late_dropped == 0

    def test_conflicting_sequence_numbers_raise(self):
        frontier = IngestFrontier(FrontierConfig(n_sensors=2, disorder_horizon=4))
        frontier.push(SampleEnvelope(sensor=0, seq=5, timestamp=5.0, value=1.0))
        with pytest.raises(SequenceConflictError) as excinfo:
            # Same cell (sensor 0, grid row 5), different producer seq.
            frontier.push(SampleEnvelope(sensor=0, seq=6, timestamp=5.4, value=2.0))
        assert excinfo.value.sensor == 0
        assert (excinfo.value.held_seq, excinfo.value.new_seq) == (5, 6)

    def test_dedup_off_last_write_wins(self):
        frontier = IngestFrontier(
            FrontierConfig(n_sensors=1, disorder_horizon=1, dedup=False)
        )
        frontier.push(SampleEnvelope(sensor=0, seq=0, timestamp=0.0, value=1.0))
        frontier.push(SampleEnvelope(sensor=0, seq=1, timestamp=0.4, value=9.0))
        rows = list(frontier.drain())
        assert rows[0][0] == 9.0
        assert frontier.stats().deduped == 0

    def test_late_envelope_is_counted_not_raised(self):
        values = np.arange(10.0).reshape(1, 10)
        frontier = IngestFrontier(FrontierConfig(n_sensors=1, disorder_horizon=2))
        frontier.extend(envelopes_from_matrix(values))
        flushed = frontier.next_emit
        assert flushed > 0
        frontier.push(
            SampleEnvelope(sensor=0, seq=0, timestamp=0.0, value=123.0)
        )
        assert frontier.stats().late_dropped == 1

    def test_out_of_range_sensor_and_pre_epoch_timestamp_raise(self):
        frontier = IngestFrontier(
            FrontierConfig(n_sensors=2, disorder_horizon=2, epoch=100.0)
        )
        with pytest.raises(EnvelopeValidationError, match="sensor"):
            frontier.push(SampleEnvelope(sensor=2, seq=0, timestamp=100.0, value=0.0))
        with pytest.raises(EnvelopeValidationError, match="epoch"):
            frontier.push(SampleEnvelope(sensor=0, seq=0, timestamp=50.0, value=0.0))

    def test_non_envelope_push_raises(self):
        frontier = IngestFrontier(FrontierConfig(n_sensors=1))
        with pytest.raises(EnvelopeValidationError):
            frontier.push((0, 0, 0.0, 1.0))

    def test_watermark_lag_and_pending_rows(self):
        frontier = IngestFrontier(FrontierConfig(n_sensors=1, disorder_horizon=4))
        for t in range(6):
            frontier.push(
                SampleEnvelope(sensor=0, seq=t, timestamp=float(t), value=float(t))
            )
        stats = frontier.stats()
        assert stats.pending_rows == 6
        assert stats.watermark_lag == 6
        assert frontier.pop_ready() is not None  # rows 0..1 are past watermark
        assert frontier.stats().watermark_lag == 5


class TestLatePolicies:
    def _delayed_beyond_horizon(self, values):
        """Deliver sensor 1's reading of row 2 after its row has flushed."""
        held = []
        envelopes = []
        for envelope in envelopes_from_matrix(values):
            if envelope.sensor == 1 and envelope.seq == 2:
                held.append(envelope)
            else:
                envelopes.append(envelope)
        return envelopes + held

    def test_nan_patch_preserves_the_grid(self):
        values = np.arange(20.0).reshape(2, 10)
        frontier = IngestFrontier(FrontierConfig(n_sensors=2, disorder_horizon=2))
        rows = frontier.extend(self._delayed_beyond_horizon(values))
        rows.extend(frontier.drain())
        out = np.column_stack(rows)
        assert out.shape == values.shape
        assert np.isnan(out[1, 2])
        mask = ~np.isnan(out)
        assert np.array_equal(out[mask], values[mask])
        stats = frontier.stats()
        assert stats.nan_patched == 1
        assert stats.late_dropped == 1
        assert stats.rows_dropped == 0

    def test_drop_skips_incomplete_rows(self):
        values = np.arange(20.0).reshape(2, 10)
        frontier = IngestFrontier(
            FrontierConfig(n_sensors=2, disorder_horizon=2, late_policy="drop")
        )
        rows = frontier.extend(self._delayed_beyond_horizon(values))
        rows.extend(frontier.drain())
        out = np.column_stack(rows)
        assert out.shape == (2, 9)
        assert np.array_equal(out, np.delete(values, 2, axis=1))
        stats = frontier.stats()
        assert stats.rows_dropped == 1
        assert stats.nan_patched == 0

    def test_wholly_missing_row_becomes_all_nan_gap(self):
        frontier = IngestFrontier(FrontierConfig(n_sensors=2, disorder_horizon=0))
        frontier.push(SampleEnvelope(sensor=0, seq=0, timestamp=0.0, value=1.0))
        frontier.push(SampleEnvelope(sensor=1, seq=0, timestamp=0.0, value=2.0))
        # Tick 1 never happens; tick 2 arrives (a real transmission gap).
        frontier.push(SampleEnvelope(sensor=0, seq=2, timestamp=2.0, value=3.0))
        frontier.push(SampleEnvelope(sensor=1, seq=2, timestamp=2.0, value=4.0))
        rows = list(frontier.drain())
        assert len(rows) == 3, "the gap row must keep its grid slot"
        assert np.all(np.isnan(rows[1]))
        assert frontier.stats().nan_patched == 2


class TestSkewAlignment:
    def test_sub_half_period_skew_is_absorbed_by_snapping(self, feed, baseline):
        history, live = feed
        skews = np.linspace(-0.4, 0.4, N_SENSORS)
        envelopes = envelopes_from_matrix(live, skew=skews)
        frontier = IngestFrontier(
            FrontierConfig(n_sensors=N_SENSORS, disorder_horizon=4)
        )
        assert frontier_records(history, envelopes, frontier) == baseline

    def test_large_skew_needs_correction_and_gets_it(self, feed, baseline):
        history, live = feed
        # Positive offsets only: uncorrected they shift rows late (visible
        # corruption); negative ones would map early ticks before the epoch.
        skews = tuple(float(3 * s) for s in range(N_SENSORS))
        envelopes = list(envelopes_from_matrix(live, skew=skews))
        corrected = IngestFrontier(
            FrontierConfig(
                n_sensors=N_SENSORS, disorder_horizon=8, skew=skews
            )
        )
        assert frontier_records(history, envelopes, corrected) == baseline
        uncorrected = IngestFrontier(
            FrontierConfig(n_sensors=N_SENSORS, disorder_horizon=8)
        )
        assert (
            frontier_records(history, envelopes, uncorrected) != baseline
        ), "multi-period skew must visibly corrupt the grid when uncorrected"


class TestFrontierConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_sensors=0),
            dict(n_sensors=2, disorder_horizon=-1),
            dict(n_sensors=2, late_policy="defer"),
            dict(n_sensors=2, period=0.0),
            dict(n_sensors=2, period=np.inf),
            dict(n_sensors=2, epoch=np.nan),
            dict(n_sensors=2, skew=(0.0,)),
            dict(n_sensors=2, skew=(0.0, np.inf)),
        ],
    )
    def test_bad_config_raises(self, kwargs):
        with pytest.raises(ValueError):
            FrontierConfig(**kwargs)


class TestStateRoundtrip:
    def _partial_frontier(self):
        values = np.arange(30.0).reshape(3, 10)
        frontier = IngestFrontier(FrontierConfig(n_sensors=3, disorder_horizon=4))
        envelopes = list(envelopes_from_matrix(values))
        for envelope in envelopes[:17]:  # mid-row cut: row 5 half-assembled
            frontier.push(envelope)
        while frontier.pop_ready() is not None:
            pass
        return frontier, envelopes, values

    def test_state_survives_json_and_resumes_identically(self):
        frontier, envelopes, values = self._partial_frontier()
        state = json.loads(json.dumps(frontier.to_state()))
        resumed = IngestFrontier(FrontierConfig(n_sensors=3, disorder_horizon=4))
        resumed.restore_state(state)
        assert resumed.next_emit == frontier.next_emit
        assert resumed.stats() == frontier.stats()
        # Re-send the whole stream: flushed rows late-drop, pending dedup.
        rows = resumed.extend(envelopes)
        rows.extend(resumed.drain())
        emitted = np.column_stack(rows)
        assert np.array_equal(emitted, values[:, frontier.next_emit :])

    def test_nan_cells_roundtrip_as_null(self):
        frontier = IngestFrontier(FrontierConfig(n_sensors=2, disorder_horizon=4))
        frontier.push(SampleEnvelope(sensor=0, seq=0, timestamp=0.0, value=np.nan))
        payload = json.dumps(frontier.to_state())
        assert "NaN" not in payload, "state must be strict-JSON safe"
        resumed = IngestFrontier(FrontierConfig(n_sensors=2, disorder_horizon=4))
        resumed.restore_state(json.loads(payload))
        restored_row = list(resumed.drain())[0]
        assert np.isnan(restored_row[0]), "explicit NaN reading must survive"

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda s: {**s, "format": "something-else"},
            lambda s: {**s, "version": 99},
            lambda s: {**s, "next_emit": "soon"},
            lambda s: {**s, "pending": {"0": [1.0]}},  # wrong width
            lambda s: {**s, "pending_seq": {}},  # disagrees with pending
            lambda s: {**s, "next_emit": 10_000},  # pending behind frontier
            # pending row past max_row: drain() would never emit it
            lambda s: {
                **s,
                "pending": {**s["pending"], "9": [1.0, 2.0, 3.0]},
                "pending_seq": {**s["pending_seq"], "9": [9, 9, 9]},
            },
            # seq below the -1 never-received marker
            lambda s: {**s, "pending_seq": {**s["pending_seq"], "5": [5, 5, -2]}},
            # never-received cell carrying a value
            lambda s: {**s, "pending": {**s["pending"], "5": [5.0, 15.0, 25.0]}},
        ],
    )
    def test_malformed_state_raises_typed_error(self, corrupt):
        frontier, _, _ = self._partial_frontier()
        state = json.loads(json.dumps(frontier.to_state()))
        fresh = IngestFrontier(FrontierConfig(n_sensors=3, disorder_horizon=4))
        with pytest.raises(FrontierStateError):
            fresh.restore_state(corrupt(state))


#: Frontier state pinned from the v1 writer as it stood before the reorder
#: buffer moved from numpy rows to plain lists (recipe below).
GOLDEN_STATE = Path(__file__).resolve().parent / "data" / "frontier_state_v1.json"

#: Recipe of the pinned cases: a skewed, shuffled, redelivered stream with
#: holes (two lost cells and one wholly lost tick), cut mid-reorder.
GOLDEN_SENSORS = 4
GOLDEN_TICKS = 24
GOLDEN_HORIZON = 3
GOLDEN_HOLES = {(1, 5), (2, 9), *((s, 12) for s in range(GOLDEN_SENSORS))}
GOLDEN_CHAOS = DeliveryChaosModel(
    seed=5,
    out_of_order_rate=0.5,
    max_disorder=5,
    redelivery_rate=0.3,
    redelivery_max_delay=8,
    skew_magnitude=0.8,
)


def golden_delivery():
    """The recipe's delivered envelopes (NaN reading at sensor 3, tick 14)."""
    values = (
        np.arange(GOLDEN_SENSORS)[:, None] * 100.0
        + np.arange(GOLDEN_TICKS)[None, :]
        + 0.25
    )
    values[3, 14] = np.nan
    delivered = GOLDEN_CHAOS.deliver(envelopes_from_matrix(values))
    return [e for e in delivered if (e.sensor, e.seq) not in GOLDEN_HOLES]


def golden_frontier(late_policy):
    return IngestFrontier(
        FrontierConfig(
            n_sensors=GOLDEN_SENSORS,
            disorder_horizon=GOLDEN_HORIZON,
            late_policy=late_policy,
            dedup=True,
            skew=GOLDEN_CHAOS.skews(GOLDEN_SENSORS),
        )
    )


def golden_rows(rows):
    return [[None if np.isnan(v) else float(v) for v in row] for row in rows]


def golden_case(late_policy, cut):
    """Run the recipe: the state cut mid-reorder, then what a resumed
    frontier emits when the whole schedule is re-sent and drained."""
    delivered = golden_delivery()
    frontier = golden_frontier(late_policy)
    for envelope in delivered[:cut]:
        frontier.push(envelope)
        while frontier.pop_ready() is not None:
            pass
    state_json = json.dumps(frontier.to_state())
    resumed = golden_frontier(late_policy)
    resumed.restore_state(json.loads(state_json))
    rows = resumed.extend(delivered)
    rows.extend(resumed.drain())
    return {
        "late_policy": late_policy,
        "cut": cut,
        "state_json": state_json,
        "rows": golden_rows(rows),
        "final_state_json": json.dumps(resumed.to_state()),
    }


class TestFrontierStateGolden:
    """Frontier checkpoints written by the v1 writer load and resume unchanged."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_STATE.read_text(encoding="utf-8"))["cases"]

    def test_recipe_exercises_every_path(self, golden):
        assert {case["late_policy"] for case in golden} == set(LATE_POLICIES)
        for case in golden:
            assert json.loads(case["state_json"])["pending"], "cut mid-reorder"
            final = json.loads(case["final_state_json"])["counters"]
            for counter in ("reordered", "deduped", "late_dropped"):
                assert final[counter] > 0, counter
            assert final["rows_dropped"] + final["nan_patched"] > 0

    @pytest.mark.parametrize("late_policy", LATE_POLICIES)
    def test_state_and_drained_rows_are_byte_identical(self, golden, late_policy):
        (pinned,) = [c for c in golden if c["late_policy"] == late_policy]
        assert golden_case(late_policy, pinned["cut"]) == pinned

    @pytest.mark.parametrize("late_policy", LATE_POLICIES)
    def test_pinned_state_restores_and_drains_the_pinned_rows(
        self, golden, late_policy
    ):
        (pinned,) = [c for c in golden if c["late_policy"] == late_policy]
        frontier = golden_frontier(late_policy)
        frontier.restore_state(json.loads(pinned["state_json"]))
        assert json.dumps(frontier.to_state()) == pinned["state_json"]
        rows = frontier.extend(golden_delivery())
        rows.extend(frontier.drain())
        assert golden_rows(rows) == pinned["rows"]
        assert json.dumps(frontier.to_state()) == pinned["final_state_json"]


class TestDeliveryChaosModel:
    def test_schedule_is_deterministic(self):
        values = np.arange(40.0).reshape(4, 10)
        envelopes = list(envelopes_from_matrix(values))
        chaos = DeliveryChaosModel(
            seed=3,
            out_of_order_rate=0.5,
            max_disorder=4,
            redelivery_rate=0.3,
            redelivery_max_delay=8,
            skew_magnitude=0.3,
        )
        first = chaos.deliver(envelopes)
        second = chaos.deliver(envelopes)
        assert first == second
        assert len(first) > len(envelopes), "redelivery must duplicate"

    def test_clean_model_is_identity(self):
        values = np.arange(20.0).reshape(2, 10)
        envelopes = list(envelopes_from_matrix(values))
        chaos = DeliveryChaosModel(seed=0)
        assert chaos.is_clean
        assert chaos.deliver(envelopes) == envelopes

    def test_skews_are_bounded_and_per_sensor_stable(self):
        chaos = DeliveryChaosModel(seed=9, skew_magnitude=0.4)
        skews = chaos.skews(16)
        assert all(abs(s) <= 0.4 for s in skews)
        assert skews == chaos.skews(16)
        assert len(set(skews)) > 1

    def test_delivery_preserves_payload_multiset(self):
        values = np.arange(40.0).reshape(4, 10)
        envelopes = list(envelopes_from_matrix(values))
        chaos = DeliveryChaosModel(seed=3, out_of_order_rate=0.5, max_disorder=4)
        delivered = chaos.deliver(envelopes)
        key = lambda e: (e.sensor, e.seq, e.value)  # noqa: E731
        assert sorted(map(key, delivered)) == sorted(map(key, envelopes))


class TestSupervisedIngest:
    def make(self, frontier, **kwargs):
        kwargs.setdefault("clock", VirtualClock())
        return StreamSupervisor(CONFIG, N_SENSORS, frontier=frontier, **kwargs)

    def test_chaotic_delivery_is_bit_identical_and_counted(self, feed, baseline):
        history, live = feed
        chaos = DeliveryChaosModel(
            seed=13,
            out_of_order_rate=0.3,
            max_disorder=8,
            redelivery_rate=0.1,
            redelivery_max_delay=40,
            skew_magnitude=0.4,
        )
        frontier = IngestFrontier(
            FrontierConfig(
                n_sensors=N_SENSORS,
                disorder_horizon=8,
                skew=chaos.skews(N_SENSORS),
            )
        )
        supervisor = self.make(frontier)
        supervisor.warm_up(history)
        records = supervisor.ingest_many(
            chaos.deliver(envelopes_from_matrix(live))
        )
        records.extend(supervisor.finish())
        assert records == baseline
        health = supervisor.health()
        assert health.samples_reordered > 0
        assert health.samples_deduped > 0
        assert health.samples_late_dropped > 0
        assert health.cells_nan_patched == 0, "no original may be lost"

    def test_health_surfaces_queue_policy_and_frontier_counters(self, feed):
        history, live = feed
        frontier = IngestFrontier(
            FrontierConfig(n_sensors=N_SENSORS, disorder_horizon=4)
        )
        supervisor = self.make(
            frontier,
            supervisor=SupervisorConfig(queue_capacity=512, shed_policy="drop_newest"),
        )
        supervisor.warm_up(history)
        supervisor.ingest_many(envelopes_from_matrix(live[:, :100]))
        payload = supervisor.health().to_dict()
        assert payload["queue_policy"] == "drop_newest"
        assert payload["queue_capacity"] == 512
        assert payload["watermark_lag"] > 0, "tail rows still inside the horizon"
        for counter in (
            "samples_reordered",
            "samples_deduped",
            "samples_late_dropped",
            "cells_nan_patched",
            "rows_dropped",
        ):
            assert payload[counter] == 0

    def test_frontier_width_must_match(self):
        frontier = IngestFrontier(FrontierConfig(n_sensors=N_SENSORS + 1))
        with pytest.raises(ValueError, match="sensor"):
            self.make(frontier)

    def test_nan_patch_requires_allow_missing(self):
        strict = CADConfig(window=48, step=8, allow_missing=False)
        frontier = IngestFrontier(FrontierConfig(n_sensors=N_SENSORS))
        from repro.runtime import BreakerPolicy

        with pytest.raises(ValueError, match="allow_missing"):
            StreamSupervisor(
                strict,
                N_SENSORS,
                supervisor=SupervisorConfig(
                    breaker=BreakerPolicy(failure_threshold=0)
                ),
                frontier=frontier,
            )

    def test_envelope_api_needs_a_frontier(self):
        supervisor = StreamSupervisor(CONFIG, N_SENSORS, clock=VirtualClock())
        with pytest.raises(ValueError, match="frontier"):
            supervisor.ingest(
                SampleEnvelope(sensor=0, seq=0, timestamp=0.0, value=1.0)
            )
        assert supervisor.finish() == []

    def test_kill_mid_reorder_resume_is_bit_identical(
        self, feed, baseline, tmp_path
    ):
        """Satellite: process death while the reorder buffer is non-empty.

        The checkpoint sidecar carries the frontier state; on resume the
        source re-sends the *entire* delivery schedule and the frontier's
        dedup/late accounting absorbs everything already processed.
        """
        history, live = feed
        chaos = DeliveryChaosModel(seed=4, out_of_order_rate=0.4, max_disorder=8)
        delivered = chaos.deliver(envelopes_from_matrix(live))
        sup_config = SupervisorConfig(checkpoint_every=5, keep_checkpoints=3)

        def make(resume):
            return StreamSupervisor(
                CONFIG,
                N_SENSORS,
                supervisor=sup_config,
                checkpoint_dir=tmp_path,
                clock=VirtualClock(),
                frontier=IngestFrontier(
                    FrontierConfig(n_sensors=N_SENSORS, disorder_horizon=8)
                ),
                resume=resume,
            )

        first = make(resume=False)
        first.warm_up(history)
        kill_at = (len(delivered) * 2) // 3
        before = first.ingest_many(delivered[:kill_at])
        assert first.frontier.stats().pending_rows > 0, "must die mid-reorder"
        del first  # process death

        resumed = make(resume=True)
        assert resumed.frontier.next_emit > 0, "frontier state must be adopted"
        after = resumed.ingest_many(delivered)  # full redelivery
        after.extend(resumed.finish())

        merged = {}
        for record in [*before, *after]:
            if record.index in merged:
                assert merged[record.index] == record, "re-emitted round differs"
            merged[record.index] = record
        assert [merged[r.index] for r in baseline] == baseline
        assert resumed.health().samples_late_dropped > 0


@settings(max_examples=15, deadline=None)
@given(
    delay_seed=st.integers(min_value=0, max_value=2**31 - 1),
    duplicate_every=st.integers(min_value=3, max_value=50),
)
def test_any_delivery_within_horizon_is_bit_identical(delay_seed, duplicate_every):
    """Property (ISSUE satellite): permute arrivals within the horizon and
    duplicate a slice of envelopes — the RoundRecords are bit-identical to
    sorted, exactly-once delivery."""
    horizon = 6
    values = correlated_values(n_sensors=4, length=420, seed=17)
    history = MultivariateTimeSeries(values[:, :100])
    live = values[:, 100:]
    config = CADConfig(window=48, step=8, allow_missing=True)

    stream = StreamingCAD(config, 4)
    stream.warm_up(history)
    expected = stream.push_many(live)

    envelopes = list(envelopes_from_matrix(live))
    rng = np.random.default_rng(delay_seed)
    keys = np.array([e.seq for e in envelopes]) + rng.integers(
        0, horizon + 1, size=len(envelopes)
    )
    shuffled = [envelopes[i] for i in np.argsort(keys, kind="stable")]
    shuffled.extend(shuffled[::duplicate_every])  # tail-end redelivery burst

    frontier = IngestFrontier(FrontierConfig(n_sensors=4, disorder_horizon=horizon))
    target = StreamingCAD(config, 4)
    target.warm_up(history)
    records = []
    for row in frontier.extend(shuffled):
        record = target.push(row)
        if record is not None:
            records.append(record)
    for row in frontier.drain():
        record = target.push(row)
        if record is not None:
            records.append(record)
    assert records == expected
    assert frontier.stats().deduped + frontier.stats().late_dropped > 0


class TestEnvelopeTenancy:
    """The fleet's ``tenant`` field: implicit default, validation, stamping."""

    def test_default_is_the_implicit_single_tenant(self):
        envelope = SampleEnvelope(sensor=0, seq=0, timestamp=0.0, value=1.0)
        assert envelope.tenant == ""

    def test_explicit_tenant_is_preserved(self):
        envelope = SampleEnvelope(
            sensor=0, seq=0, timestamp=0.0, value=1.0, tenant="acme-07"
        )
        assert envelope.tenant == "acme-07"

    @pytest.mark.parametrize("bad", [0, None, b"t", 1.5, True])
    def test_non_string_tenant_raises(self, bad):
        with pytest.raises(EnvelopeValidationError) as excinfo:
            SampleEnvelope(sensor=0, seq=0, timestamp=0.0, value=1.0, tenant=bad)
        assert excinfo.value.field == "tenant"

    def test_envelopes_from_matrix_stamps_every_envelope(self):
        values = correlated_values(n_sensors=3, length=4, seed=9)
        stamped = list(envelopes_from_matrix(values, tenant="t-1"))
        assert stamped and all(e.tenant == "t-1" for e in stamped)
        implicit = list(envelopes_from_matrix(values))
        assert all(e.tenant == "" for e in implicit)
        # tenancy is metadata: the payload stream is otherwise unchanged
        assert [(e.sensor, e.seq, e.value) for e in stamped] == [
            (e.sensor, e.seq, e.value) for e in implicit
        ]
