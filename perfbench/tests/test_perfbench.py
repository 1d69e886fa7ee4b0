"""The benchmark's own checks: run with ``python -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import gate, loadgen, trace
from perfbench.trace import Target, Tracer
from repro.core import RoundRecord

ROOT = Path(__file__).resolve().parents[2]


def _records(count: int = 6) -> list[RoundRecord]:
    return [
        RoundRecord(
            index=10 + i,
            start=i * 8,
            stop=i * 8 + 256,
            n_variations=i % 3,
            mean=0.5,
            std=0.25,
            deviation=0.1 * i,
            abnormal=i == 4,
            outliers=frozenset({i, i + 1}),
            variations=frozenset({i}),
            n_communities=3 + i % 2,
        )
        for i in range(count)
    ]


@pytest.mark.parametrize(
    "field, value",
    [
        ("index", 99),
        ("n_variations", 7),
        ("outliers", frozenset({42})),
        ("variations", frozenset()),
        ("n_communities", 9),
        ("abnormal", True),
        ("deviation", np.nextafter(0.2, 1.0)),
    ],
)
def test_digest_gate_trips_on_one_flipped_field(field, value):
    records = _records()
    keys = {"main": gate.keys_of(records, base=10)}
    flipped = list(records)
    flipped[2] = RoundRecord(**{**flipped[2].__dict__, field: value})
    changed = {"main": gate.keys_of(flipped, base=10)}
    assert gate.digest(keys) != gate.digest(changed)
    assert gate.first_mismatch(keys, keys) is None
    assert "round 2" in gate.first_mismatch(changed, keys)


def test_digest_prefix_ignores_rounds_past_it():
    records = _records()
    short = {"main": gate.keys_of(records[:4], base=10)}
    full = {"main": gate.keys_of(records, base=10)}
    assert gate.digest(short, rounds=4) == gate.digest(full, rounds=4)
    assert gate.digest(short) != gate.digest(full)
    assert "rounds" in gate.first_mismatch(short, full)


def test_self_time_on_synthetic_span_tree():
    #   0 [0, 10]
    #   ├─ 1 [1, 4]
    #   │   └─ 3 [2, 3]
    #   └─ 2 [5, 9]
    #   4 [11, 12]  (second root)
    start = np.array([0.0, 1.0, 5.0, 2.0, 11.0])
    end = np.array([10.0, 4.0, 9.0, 3.0, 12.0])
    parent = np.array([-1, 0, 0, 1, -1])
    own = trace.self_times(start, end, parent)
    np.testing.assert_allclose(own, [3.0, 2.0, 4.0, 1.0, 1.0])
    duration = end - start
    children = np.zeros_like(duration)
    np.add.at(children, parent[parent >= 0], duration[parent >= 0])
    assert np.all(children <= duration) and np.all(own >= 0)
    # Self times partition the roots' wall time.
    assert own.sum() == pytest.approx(duration[parent < 0].sum())


def test_tracer_records_nesting_and_summarises_self_time():
    tracer = Tracer()
    outer, inner = tracer.intern("runtime.call"), tracer.intern("stream.push")
    a = tracer.open(outer)
    b = tracer.open(inner)
    tracer.close(b)
    c = tracer.open(inner)
    tracer.close(c)
    tracer.close(a)
    _, start, end, parent = tracer.arrays()
    assert list(parent) == [-1, 0, 0]
    summary = trace.summarise(tracer)
    assert summary["count"] == {"runtime.call": 1.0, "stream.push": 2.0}
    assert summary["self"]["runtime.call"] >= 0.0
    assert summary["self"]["runtime.call"] + summary["total"]["stream.push"] == pytest.approx(
        summary["total"]["runtime.call"]
    )
    assert summary["root"]["total"] == pytest.approx(end[0] - start[0])


def test_missing_shim_targets_are_reported_not_raised():
    tracer = Tracer()
    missing = trace.install(
        tracer,
        [
            Target("repro.core.pipeline:NoSuchStage.process", "pipeline.process"),
            Target("repro.no_such_module:thing", "pipeline.corr"),
        ],
        worker_entry="repro.core.parallel:no_such_entry",
    )
    assert missing == [
        "repro.core.pipeline:NoSuchStage.process",
        "repro.no_such_module:thing",
        "repro.core.parallel:no_such_entry",
    ]


def test_delivery_schedule_is_seeded_complete_and_never_late():
    stream = loadgen.network_matrix(4, 384, seed=3)
    kwargs = dict(horizon=4, block_rows=64, duplicate_rate=0.1)
    a = loadgen.delivery_schedule(stream, seed=1, **kwargs)
    b = loadgen.delivery_schedule(stream, seed=1, **kwargs)
    assert a.tuples == b.tuples and a.cuts == b.cuts
    rows = [seq for _, seq, _, _, _ in a.tuples]
    # Every (sensor, row) cell is delivered at least once, with its value.
    cells = {(s, seq): v for s, seq, _, v, _ in a.tuples}
    assert len(cells) == stream.size
    assert all(stream[s, seq] == v for (s, seq), v in cells.items())
    # Nothing arrives after an envelope `horizon` rows newer.
    newest = -1
    for row in rows:
        assert row > newest - kwargs["horizon"]
        newest = max(newest, row)
    # Blocks end exactly at cuts: all earlier rows complete, none later.
    for cut in a.cuts:
        complete = max(rows[:cut]) + 1
        assert complete % 64 == 0
        assert len({(s, seq) for s, seq, *_ in a.tuples[:cut]}) == 4 * complete
    # One tag per round, on the last original envelope of its closing row.
    tags = [tag for *_, tag in a.tuples if tag >= 0]
    assert tags == sorted(tags) and tags == list(range((384 - 256) // 8 + 1))


def _bench(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "all", "--tiny",
         "--seconds", "0", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("traced, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_reports_every_metric_with_its_unit(traced, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = _bench("--trace", traced)
    assert sorted(results) == sorted(w["name"] for w in spec["workloads"])
    for name, line in results.items():
        assert line["correct"] is True, name
        assert line["failed"] == 0 and line["attempted"] >= 1
        assert {m: v["unit"] for m, v in line["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec[section]
        }
