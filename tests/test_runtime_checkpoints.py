"""Rotated checkpoint generations: atomic writes, pruning, fall-back recovery."""

import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from tests.conftest import correlated_values
from repro.core import CADConfig, CheckpointError, StreamingCAD
from repro.runtime import (
    ChaosModel,
    CheckpointRotation,
    StreamSupervisor,
    SupervisorConfig,
    VirtualClock,
)
from repro.timeseries import MultivariateTimeSeries


@pytest.fixture
def stream():
    config = CADConfig(window=40, step=10, allow_missing=True)
    stream = StreamingCAD(config, 6)
    stream.push_many(correlated_values(n_sensors=6, length=160, seed=3))
    return stream


def advance(stream: StreamingCAD, t: int, seed: int) -> None:
    stream.push_many(correlated_values(n_sensors=6, length=t, seed=seed))


class TestWrite:
    def test_write_creates_archive_and_sidecar(self, stream, tmp_path):
        rotation = CheckpointRotation(tmp_path, keep=2)
        generation = rotation.write(stream, 12, {"marker": 1})
        assert generation.path.exists() and generation.sidecar.exists()
        payload = json.loads(generation.sidecar.read_text())
        assert payload["samples_seen"] == stream.samples_seen
        assert payload["runtime"] == {"marker": 1}

    def test_no_tmp_droppings(self, stream, tmp_path):
        rotation = CheckpointRotation(tmp_path, keep=2)
        rotation.write(stream, 12, {})
        assert not list(tmp_path.glob("*.tmp"))

    def test_prune_keeps_newest(self, stream, tmp_path):
        rotation = CheckpointRotation(tmp_path, keep=2)
        for round_index in (10, 20, 30, 40):
            rotation.write(stream, round_index, {})
        generations = rotation.generations()
        assert [g.round_index for g in generations] == [40, 30]
        assert len(list(tmp_path.glob("ckpt-*.npz"))) == 2

    def test_negative_round_rejected(self, stream, tmp_path):
        with pytest.raises(ValueError):
            CheckpointRotation(tmp_path).write(stream, -1, {})

    def test_keep_validated(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointRotation(tmp_path, keep=0)


class TestRecover:
    def test_empty_directory_recovers_nothing(self, tmp_path):
        assert CheckpointRotation(tmp_path).recover() is None

    def test_recovers_newest(self, stream, tmp_path):
        rotation = CheckpointRotation(tmp_path, keep=3)
        rotation.write(stream, 12, {"gen": "old"})
        advance(stream, 50, seed=4)
        rotation.write(stream, 17, {"gen": "new"})
        recovered = rotation.recover()
        assert recovered is not None
        assert recovered.generation.round_index == 17
        assert recovered.runtime_state == {"gen": "new"}
        assert recovered.stream.samples_seen == stream.samples_seen
        assert recovered.skipped == ()

    def test_falls_back_past_corrupt_archive(self, stream, tmp_path):
        rotation = CheckpointRotation(tmp_path, keep=3)
        rotation.write(stream, 12, {"gen": "old"})
        old_samples = stream.samples_seen
        advance(stream, 50, seed=4)
        newest = rotation.write(stream, 17, {"gen": "new"})
        with open(newest.path, "r+b") as handle:  # tear the newest archive
            handle.truncate(newest.path.stat().st_size // 2)
        recovered = rotation.recover()
        assert recovered is not None
        assert recovered.generation.round_index == 12
        assert recovered.stream.samples_seen == old_samples
        assert newest.path in recovered.skipped

    def test_falls_back_past_corrupt_sidecar(self, stream, tmp_path):
        rotation = CheckpointRotation(tmp_path, keep=3)
        rotation.write(stream, 12, {})
        advance(stream, 50, seed=4)
        newest = rotation.write(stream, 17, {})
        newest.sidecar.write_text("{ not json")
        recovered = rotation.recover()
        assert recovered is not None
        assert recovered.generation.round_index == 12
        assert newest.sidecar in recovered.skipped

    def test_non_integer_samples_seen_counts_as_corrupt(self, stream, tmp_path):
        rotation = CheckpointRotation(tmp_path, keep=3)
        rotation.write(stream, 12, {})
        newest = rotation.write(stream, 17, {})
        payload = json.loads(newest.sidecar.read_text())
        payload["samples_seen"] = "many"
        newest.sidecar.write_text(json.dumps(payload))
        recovered = CheckpointRotation(tmp_path, keep=3).recover()
        assert recovered is not None
        assert recovered.generation.round_index == 12
        assert recovered.skipped == (newest.sidecar,)

    def test_all_generations_corrupt_recovers_nothing(self, stream, tmp_path):
        rotation = CheckpointRotation(tmp_path, keep=3)
        for round_index in (10, 20):
            generation = rotation.write(stream, round_index, {})
            generation.path.write_bytes(b"junk")
        assert rotation.recover() is None

    def test_samples_seen_mismatch_is_rejected(self, stream, tmp_path):
        rotation = CheckpointRotation(tmp_path, keep=3)
        generation = rotation.write(stream, 12, {})
        payload = json.loads(generation.sidecar.read_text())
        payload["samples_seen"] += 1  # sidecar and archive disagree
        generation.sidecar.write_text(json.dumps(payload))
        assert rotation.recover() is None

    def test_foreign_files_ignored(self, stream, tmp_path):
        rotation = CheckpointRotation(tmp_path, keep=3)
        (tmp_path / "notes.txt").write_text("not a checkpoint")
        (tmp_path / "ckpt-12.npz").write_bytes(b"bad name, not 10 digits")
        rotation.write(stream, 12, {})
        assert len(rotation.generations()) == 1

    def test_recovered_stream_is_bit_identical(self, stream, tmp_path):
        rotation = CheckpointRotation(tmp_path, keep=1)
        rotation.write(stream, 12, {})
        recovered = rotation.recover()
        fresh = correlated_values(n_sensors=6, length=120, seed=9)
        original_records = stream.push_many(fresh)
        recovered_records = recovered.stream.push_many(fresh)
        assert original_records == recovered_records


class TestMinCoveredSamples:
    def test_tracks_oldest_readable_generation(self, stream, tmp_path):
        rotation = CheckpointRotation(tmp_path, keep=2)
        first = stream.samples_seen
        rotation.write(stream, 12, {})
        advance(stream, 50, seed=4)
        rotation.write(stream, 17, {})
        assert rotation.min_covered_samples() == first

    def test_empty_is_zero(self, tmp_path):
        assert CheckpointRotation(tmp_path).min_covered_samples() == 0

    @staticmethod
    def count_sidecar_reads(monkeypatch):
        reads = []
        real = CheckpointRotation._read_sidecar

        def counting(sidecar):
            reads.append(sidecar.name)
            return real(sidecar)

        monkeypatch.setattr(CheckpointRotation, "_read_sidecar", staticmethod(counting))
        return reads

    def test_own_sidecars_are_not_reread(self, stream, tmp_path, monkeypatch):
        reads = self.count_sidecar_reads(monkeypatch)
        rotation = CheckpointRotation(tmp_path, keep=3)
        first = stream.samples_seen
        for round_index, seed in ((10, 4), (20, 5), (30, 6), (40, 7)):
            rotation.write(stream, round_index, {})
            rotation.min_covered_samples()
            advance(stream, 20, seed)
        assert rotation.min_covered_samples() == first + 20
        assert reads == []

    def test_pruned_generations_are_forgotten(self, stream, tmp_path):
        rotation = CheckpointRotation(tmp_path, keep=2)
        for round_index in (10, 20, 30, 40):
            rotation.write(stream, round_index, {})
        assert sorted(rotation._samples_seen) == [30, 40]

    def test_fresh_rotation_reads_disk_once(self, stream, tmp_path, monkeypatch):
        writer = CheckpointRotation(tmp_path, keep=3)
        for round_index, seed in ((10, 4), (20, 5), (30, 6)):
            writer.write(stream, round_index, {})
            advance(stream, 20, seed)
        reads = self.count_sidecar_reads(monkeypatch)
        fresh = CheckpointRotation(tmp_path, keep=3)
        assert fresh.min_covered_samples() == writer.min_covered_samples()
        assert len(reads) == 3
        fresh.min_covered_samples()
        assert len(reads) == 3

    def test_damaged_remembered_sidecar_only_lowers_the_minimum(
        self, stream, tmp_path
    ):
        writer = CheckpointRotation(tmp_path, keep=3)
        oldest = writer.write(stream, 10, {})
        advance(stream, 20, 4)
        writer.write(stream, 20, {})
        oldest.sidecar.write_text("{ torn")
        fresh = CheckpointRotation(tmp_path, keep=3)
        assert writer.min_covered_samples() < fresh.min_covered_samples()
        assert fresh.min_covered_samples() == stream.samples_seen


class TestChaosCorruption:
    def test_corrupt_file_defeats_load(self, stream, tmp_path):
        rotation = CheckpointRotation(tmp_path, keep=1)
        generation = rotation.write(stream, 12, {})
        chaos = ChaosModel(seed=1, corrupt_rate=0.5)
        chaos.corrupt_file(generation.path, 12)
        from repro.core import load_checkpoint

        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(generation.path)
        assert excinfo.value.path == generation.path

    def test_corruption_is_deterministic(self, stream, tmp_path):
        rotation = CheckpointRotation(tmp_path, keep=2)
        generation = rotation.write(stream, 10, {})
        twin = tmp_path / "twin.npz"
        twin.write_bytes(generation.path.read_bytes())
        chaos = ChaosModel(seed=7, corrupt_rate=0.5)
        chaos.corrupt_file(generation.path, 10)
        chaos.corrupt_file(twin, 10)  # same round key + same size -> same tear
        assert generation.path.read_bytes() == twin.read_bytes()

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            ChaosModel(crash_rate=1.0)
        with pytest.raises(ValueError):
            ChaosModel(crash_rate=0.6, slow_rate=0.5)
        with pytest.raises(ValueError):
            ChaosModel(seed=-1)

    def test_round_fate_deterministic_and_rerolled_per_attempt(self):
        chaos = ChaosModel(seed=3, crash_rate=0.3, slow_rate=0.3)
        fates = [chaos.round_fate(r, 0) for r in range(200)]
        assert fates == [chaos.round_fate(r, 0) for r in range(200)]
        assert any(f == "crash" for f in fates)
        assert any(f == "slow" for f in fates)
        assert any(f is None for f in fates)
        rerolled = [chaos.round_fate(r, 1) for r in range(200)]
        assert rerolled != fates, "a retry must re-roll the fate"


class TestScanOrderIndependence:
    """``iterdir`` order is a filesystem artifact (hash order on some
    filesystems, insertion order on others); recovery decisions must not
    depend on it."""

    def test_generations_ignore_directory_listing_order(
        self, stream, tmp_path, monkeypatch
    ):
        from pathlib import Path

        rotation = CheckpointRotation(tmp_path, keep=8)
        for round_index, seed in ((3, 11), (12, 12), (7, 13), (25, 14)):
            advance(stream, 30, seed)
            rotation.write(stream, round_index, {"samples_seen": stream.samples_seen})
        baseline = rotation.generations()
        baseline_recover = rotation.recover()
        assert baseline_recover is not None

        real_iterdir = Path.iterdir

        def adversarial(self):
            entries = list(real_iterdir(self))
            # worst case: newest generation listed first, then a rotation
            entries.reverse()
            return iter(entries[2:] + entries[:2])

        monkeypatch.setattr(Path, "iterdir", adversarial)
        shuffled = rotation.generations()
        assert shuffled == baseline
        recovered = rotation.recover()
        assert recovered is not None
        assert recovered.generation == baseline_recover.generation
        assert recovered.stream.samples_seen == baseline_recover.stream.samples_seen


class TestSidecarFormat:
    def test_compact_json_with_unchanged_schema(self, stream, tmp_path):
        generation = CheckpointRotation(tmp_path).write(stream, 12, {"b": [1], "a": 2})
        text = generation.sidecar.read_text()
        assert text.endswith("}\n") and text.count("\n") == 1
        payload = json.loads(text)
        assert list(payload) == sorted(payload)
        assert payload == {
            "format": "repro-runtime-state",
            "version": 1,
            "round_index": 12,
            "samples_seen": stream.samples_seen,
            "runtime": {"a": 2, "b": [1]},
        }

    def test_one_directory_fsync_covers_both_renames(
        self, stream, tmp_path, monkeypatch
    ):
        events = []
        real_replace, real_open = os.replace, os.open

        def replacing(source, target):
            events.append(Path(target).suffix)
            real_replace(source, target)

        def opening(path, flags, *args):
            if Path(path) == tmp_path:
                events.append("dir")
            return real_open(path, flags, *args)

        monkeypatch.setattr(os, "replace", replacing)
        monkeypatch.setattr(os, "open", opening)
        CheckpointRotation(tmp_path).write(stream, 12, {})
        assert events == [".npz", ".json", "dir"]
        events.clear()
        stream.save(tmp_path / "single.npz")
        assert events == [".npz", "dir"]


#: A rotation directory written by the checkpoint writer as it stood before
#: sidecars became compact JSON (commit fc8a540): indented sidecars, keep=2,
#: cut 420 samples into the live feed below.  The resume file pins the
#: rotation's ``min_covered_samples`` and the records an uninterrupted run
#: emitted after the newest generation's last emitted round (floats as hex)
#: — exactly what a process resuming from that generation must emit.
PARENT_ROTATION = Path(__file__).resolve().parent / "data" / "checkpoint_rotation_v3"
PARENT_RESUME = PARENT_ROTATION.with_name("checkpoint_rotation_v3_resume.json")
PARENT_KILL = 420


def parent_feed():
    """The recipe's feed: warm-up history and live samples."""
    values = correlated_values(n_sensors=8, length=760, seed=31, noise=0.4)
    values[5, 380:420] = np.nan  # trips sensor 5's breaker
    values[1, 650:700] = np.random.default_rng(32).standard_normal(50)
    return values[:, :200], values[:, 200:]


def parent_supervisor(directory):
    return StreamSupervisor(
        CADConfig(window=48, step=8, allow_missing=True, engine="fast"),
        8,
        supervisor=SupervisorConfig(checkpoint_every=10, keep_checkpoints=2),
        checkpoint_dir=directory,
        clock=VirtualClock(),
    )


def record_row(record):
    quality = record.quality
    return [
        record.index,
        record.start,
        record.stop,
        record.n_variations,
        float(record.mean).hex(),
        float(record.std).hex(),
        float(record.deviation).hex(),
        bool(record.abnormal),
        sorted(record.outliers),
        sorted(record.variations),
        record.n_communities,
        None
        if quality is None
        else [
            float(quality.missing_fraction).hex(),
            sorted(quality.masked_sensors),
            bool(quality.degraded),
        ],
    ]


class TestParentWrittenRotation:
    def test_recovers_and_resumes_to_the_pinned_records(self, tmp_path):
        directory = tmp_path / "rotation"
        shutil.copytree(PARENT_ROTATION, directory)
        pinned = json.loads(PARENT_RESUME.read_text())
        sidecar = json.loads((directory / "ckpt-0000000060.json").read_text())
        assert sidecar["format"] == "repro-runtime-state" and sidecar["version"] == 1

        assert CheckpointRotation(directory, keep=2).min_covered_samples() == (
            pinned["min_covered_samples"]
        )
        _, live = parent_feed()
        supervisor = parent_supervisor(directory)
        restart = supervisor.stream.samples_seen
        assert restart == sidecar["samples_seen"] < PARENT_KILL
        assert supervisor.breakers.to_state() == sidecar["runtime"]["breakers"]
        records = supervisor.process_many(live[:, restart:])
        assert [record_row(r) for r in records] == pinned["records_after_restart"]

    def test_fixture_recipe_reproduces_the_cut(self, tmp_path):
        """The pinned files came from this recipe: rerunning it on today's
        code reaches the same generations and the same resumed records."""
        history, live = parent_feed()
        supervisor = parent_supervisor(tmp_path)
        supervisor.warm_up(MultivariateTimeSeries(history))
        before = supervisor.process_many(live[:, :PARENT_KILL])
        rotation = CheckpointRotation(tmp_path, keep=2)
        assert [g.path.name for g in rotation.generations()] == sorted(
            (p.name for p in PARENT_ROTATION.glob("*.npz")), reverse=True
        )
        pinned = json.loads(PARENT_RESUME.read_text())
        assert rotation.min_covered_samples() == pinned["min_covered_samples"]
        emitted = json.loads(rotation.generations()[0].sidecar.read_text())[
            "runtime"
        ]["max_emitted_index"]
        after = supervisor.process_many(live[:, PARENT_KILL:])
        records = [r for r in before + after if r.index > emitted]
        assert [record_row(r) for r in records] == pinned["records_after_restart"]
