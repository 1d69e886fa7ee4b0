"""One workload in one fresh process: ``python -m perfbench.child``.

``perfbench/run.py`` starts this module once per workload (twice for a
traced run: an untraced reference, then the traced run), so peak memory and
set-up time belong to that workload alone and no pool or cache carries
over.  It prints one JSON object on stdout; everything else goes to stderr.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

import numpy as np  # noqa: E402

from . import gate, trace  # noqa: E402
from .calibrate import reference_setup  # noqa: E402
from .trace import Target, Tracer  # noqa: E402
from .workloads import RunResult, Workload, make  # noqa: E402


def _replayed(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    start, stop = (args[1], args[2]) if len(args) >= 3 else (kwargs["start"], kwargs["stop"])
    tracer.count("replayed_samples", stop - start)


def _checkpoint_bytes(tracer: Tracer, args: tuple, kwargs: dict, generation: Any) -> None:
    for path in (generation.path, generation.sidecar):
        if path.exists():
            tracer.count("checkpoint_bytes", path.stat().st_size)


def _communities(tracer: Tracer, args: tuple, kwargs: dict, stage: Any) -> None:
    tracer.count("communities_sum", stage.n_communities)
    tracer.count("communities_rounds")


def _shipped(tracer: Tracer, args: tuple, kwargs: dict, task_id: Any) -> None:
    chunk = args[5] if len(args) > 5 else kwargs["chunk"]
    state, _, windows, _ = chunk
    tracer.count("bytes_shipped", sum(window.nbytes for window in windows))
    if state is not None:
        tracer.count("bytes_shipped", len(pickle.dumps(state)))


#: Layer boundaries the traced run wraps; the span name's prefix is the layer.
TARGETS = [
    Target("repro.ingest.envelope:SampleEnvelope.__init__", "ingest.validate"),
    Target("repro.ingest.frontier:IngestFrontier.push", "ingest.frontier"),
    Target("repro.ingest.frontier:IngestFrontier.pop_ready", "ingest.frontier"),
    Target("repro.runtime.supervisor:StreamSupervisor.process", "runtime.call"),
    Target("repro.runtime.supervisor:StreamSupervisor.submit", "runtime.call"),
    Target("repro.runtime.supervisor:StreamSupervisor.ingest", "runtime.call"),
    Target("repro.runtime.supervisor:StreamSupervisor.finish", "runtime.call"),
    Target("repro.runtime.supervisor:StreamSupervisor._recover_and_replay", "runtime.recover"),
    Target("repro.runtime.supervisor:StreamSupervisor._replay_range", "runtime.replay", _replayed),
    Target("repro.runtime.rotation:CheckpointRotation.write", "checkpoint.write", _checkpoint_bytes),
    Target("repro.runtime.rotation:CheckpointRotation.recover", "checkpoint.recover"),
    Target("repro.core.streaming:StreamingCAD.push", "stream.push"),
    Target("repro.core.streaming:StreamingCAD.push_many", "stream.push"),
    Target("repro.core.detector:CAD.process_window", "detector.round"),
    Target("repro.core.detector:CAD.process_staged", "detector.round"),
    Target("repro.core.detector:CAD._record_from_stage", "detector.stage_b"),
    Target("repro.core.detector:CAD.detect", "detector.detect"),
    Target("repro.core.pipeline:CommunityPipeline.process", "pipeline.process", _communities),
    Target("repro.timeseries.rolling:RollingCorrelation.update", "pipeline.corr"),
    Target("repro.core.pipeline:tsg_csr", "pipeline.tsg"),
    Target("repro.graph.delta:DeltaTSGBuilder.build", "pipeline.tsg"),
    Target("repro.core.pipeline:louvain_labels_csr", "pipeline.louvain"),
    Target("repro.fleet.manager:FleetManager.pump", "fleet.pump"),
    Target("repro.fleet.manager:FleetManager.submit", "fleet.submit"),
    Target("repro.fleet.manager:FleetManager.finish", "fleet.finish"),
    Target("repro.fleet.manager:save_fleet_manifest", "fleet.manifest"),
    Target("repro.core.detector:iter_round_communities", "parallel.iter", generator=True),
    Target("repro.core.parallel:WorkerPool.__init__", "parallel.pool_start"),
    Target("repro.core.parallel:WorkerPool._collect_any", "parallel.wait"),
    Target("repro.core.parallel:WorkerPool._submit", "parallel.submit", _shipped),
]
#: Pool workers' chunk entry point (see ``trace`` on worker summaries).
WORKER_ENTRY = "repro.core.parallel:_stage_chunk"

LAYERS = ("ingest", "runtime", "checkpoint", "stream", "pipeline", "detector", "fleet", "parallel")

#: Spans each per-layer metric is computed from.
NEEDS = {
    "ingest.validate_us_per_envelope": ["ingest.validate"],
    "ingest.frontier_us_per_envelope": ["ingest.frontier"],
    "runtime.self_ms_per_round": ["runtime.call"],
    "runtime.recover_ms_total": ["runtime.recover"],
    "runtime.replayed_samples": ["runtime.replay"],
    "checkpoint.writes": ["checkpoint.write"],
    "checkpoint.write_ms_p50": ["checkpoint.write"],
    "checkpoint.write_ms_max": ["checkpoint.write"],
    "checkpoint.bytes": ["checkpoint.write"],
    "stream.self_ms_per_round": ["stream.push"],
    "pipeline.ms_per_round": ["pipeline.process"],
    "pipeline.corr_ms_per_round": ["pipeline.corr"],
    "pipeline.tsg_ms_per_round": ["pipeline.tsg"],
    "pipeline.louvain_ms_per_round": ["pipeline.louvain"],
    "pipeline.communities_mean": ["pipeline.process"],
    "detector.stage_b_ms_per_round": ["detector.stage_b"],
    "fleet.self_ms_per_cycle": ["fleet.pump"],
    "fleet.manifest_ms_total": ["fleet.manifest"],
    "parallel.pool_start_s": ["parallel.pool_start"],
    "parallel.main_wait_ms_total": ["parallel.wait"],
    "parallel.chunks": ["parallel.submit"],
    "parallel.bytes_shipped": ["parallel.submit"],
}


def environment() -> dict[str, Any]:
    """Host facts a reader needs to compare runs."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        cpus = os.cpu_count() or 1
    info: dict[str, Any] = {
        "nproc": cpus,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    return info


def _percentile_ms(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) * 1e3 if values else 0.0


def end_to_end(result: RunResult, setup_times: list[float]) -> dict[str, float]:
    """The end-to-end metrics, at reference host speed (see ``calibrate``)."""
    return {
        "readings_per_s": result.readings / result.reference_elapsed,
        "round_latency_ms_p50": _percentile_ms(result.reference_latencies, 50),
        "round_latency_ms_p99": _percentile_ms(result.reference_latencies, 99),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def wall_figures(result: RunResult, setup_walls: list[float]) -> dict[str, float]:
    """The same timings as measured on the wall clock, for the record."""
    return {
        "readings_per_s": result.readings / result.elapsed,
        "round_latency_ms_p50": _percentile_ms(result.latencies, 50),
        "round_latency_ms_p99": _percentile_ms(result.latencies, 99),
        "setup_s": statistics.median(setup_walls),
    }


#: Per-layer metrics that are times, converted like the end-to-end ones.
TIMES = (
    "ingest.validate_us_per_envelope",
    "ingest.frontier_us_per_envelope",
    "runtime.self_ms_per_round",
    "runtime.recover_ms_total",
    "checkpoint.write_ms_p50",
    "checkpoint.write_ms_max",
    "stream.self_ms_per_round",
    "pipeline.ms_per_round",
    "pipeline.corr_ms_per_round",
    "pipeline.tsg_ms_per_round",
    "pipeline.louvain_ms_per_round",
    "detector.stage_b_ms_per_round",
    "fleet.self_ms_per_cycle",
    "fleet.manifest_ms_total",
    "parallel.pool_start_s",
    "parallel.main_wait_ms_total",
)


def per_layer(
    tracer: Tracer,
    missing: list[str],
    workload: Workload,
    result: RunResult,
    stats: dict[str, float],
    setup_window: tuple[float, float],
    worker_dir: Path,
) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of the timed phase, plus the names left unmeasured."""
    t0, t1 = result.span
    main = trace.summarise(tracer, t0=t0, t1=t1)
    workers = trace.merge_worker_summaries(worker_dir, t0, t1)
    setup = trace.summarise(tracer, t0=setup_window[0], t1=setup_window[1])
    wall = result.elapsed  # probes excluded, like the spans
    rounds = max(1, result.emitted)
    envelopes = stats.get("delivered", 0.0)

    def total(name: str) -> float:
        return main["total"].get(name, 0.0) + workers["total"].get(name, 0.0)

    def own(name: str) -> float:
        return main["self"].get(name, 0.0) + workers["self"].get(name, 0.0)

    def counter(key: str) -> float:
        return tracer.counters.get(key, 0.0) + workers["counters"].get(key, 0.0)

    writes = trace.span_durations(tracer, "checkpoint.write", t0, t1)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, seconds in main["self"].items():
        layer_self[name.split(".", 1)[0]] += seconds
    coverage = main["root"]["total"] / wall
    metrics = {
        "ingest.validate_us_per_envelope": total("ingest.validate") / max(1, envelopes) * 1e6,
        "ingest.frontier_us_per_envelope": own("ingest.frontier") / max(1, envelopes) * 1e6,
        "ingest.envelopes": envelopes,
        "ingest.useful_ratio": stats.get("useful_ratio", 0.0),
        "ingest.reordered": stats.get("reordered", 0.0),
        "ingest.late_dropped": stats.get("late_dropped", 0.0),
        "runtime.self_ms_per_round": (
            own("runtime.call") + own("runtime.recover") + own("runtime.replay")
        ) / rounds * 1e3,
        "runtime.crashes_recovered": float(stats.get("crashes_recovered", 0.0)),
        "runtime.replayed_samples": counter("replayed_samples"),
        "runtime.recover_ms_total": total("runtime.recover") * 1e3,
        "checkpoint.writes": float(writes.size),
        "checkpoint.write_ms_p50": float(np.median(writes)) * 1e3 if writes.size else 0.0,
        "checkpoint.write_ms_max": float(writes.max()) * 1e3 if writes.size else 0.0,
        "checkpoint.bytes": counter("checkpoint_bytes") / max(1, writes.size),
        "stream.self_ms_per_round": own("stream.push") / rounds * 1e3,
        "pipeline.ms_per_round": total("pipeline.process") / rounds * 1e3,
        "pipeline.corr_ms_per_round": total("pipeline.corr") / rounds * 1e3,
        "pipeline.tsg_ms_per_round": total("pipeline.tsg") / rounds * 1e3,
        "pipeline.louvain_ms_per_round": total("pipeline.louvain") / rounds * 1e3,
        "pipeline.communities_mean": counter("communities_sum")
        / max(1.0, counter("communities_rounds")),
        "detector.stage_b_ms_per_round": (
            own("detector.stage_b") + own("detector.round") + own("detector.detect")
        ) / rounds * 1e3,
        "fleet.self_ms_per_cycle": (
            own("fleet.pump") + own("fleet.submit") + own("fleet.finish")
        ) / max(1, result.cycles) * 1e3,
        "fleet.manifest_ms_total": total("fleet.manifest") * 1e3,
        "fleet.queue_high_watermark": stats.get("queue_high_watermark", 0.0),
        "parallel.pool_start_s": setup["total"].get("parallel.pool_start", 0.0),
        "parallel.main_wait_ms_total": total("parallel.wait") * 1e3,
        "parallel.chunks": main["count"].get("parallel.submit", 0.0),
        "parallel.bytes_shipped": counter("bytes_shipped"),
        "trace.coverage": coverage,
        "share.unattributed": max(0.0, 1.0 - coverage),
    }
    for layer in LAYERS:
        metrics[f"share.{layer}"] = layer_self[layer] / wall
    host = result.reference_elapsed / result.elapsed
    for name in TIMES:
        metrics[name] *= host

    installed = {target.span for target in TARGETS if target.path not in missing}
    unmeasured = sorted(
        name for name, spans in NEEDS.items() if not all(s in installed for s in spans)
    )
    if workload.name == "offline_detect" and WORKER_ENTRY in missing:
        unmeasured += [name for name in NEEDS if name.startswith("pipeline.")]
    for layer in LAYERS:
        if not any(span.startswith(layer + ".") for span in installed):
            unmeasured.append(f"share.{layer}")
    return metrics, sorted(set(unmeasured))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", action="store_true", help="overhead reference: no oracle, one set-up")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = make(args.workload, args.seed, args.tiny)
    workload.generate()

    tracer: Tracer | None = None
    missing: list[str] = []
    worker_dir = workdir / "worker-spans"
    if args.trace:
        tracer = Tracer()
        worker_dir.mkdir()
        tracer.worker_dir = worker_dir
        missing = trace.install(tracer, TARGETS, WORKER_ENTRY)

    reps = 1 if args.trace or args.reference else workload.setup_reps
    systems: list[Any] = []
    setup_window = (0.0, 0.0)

    def setup(rep: int) -> Any:
        nonlocal setup_window
        if systems:
            workload.close(systems.pop())
            shutil.rmtree(workdir / f"setup-{rep - 1}", ignore_errors=True)
        start = time.perf_counter()
        systems.append(workload.setup(workdir / f"setup-{rep}"))
        setup_window = (start, time.perf_counter())
        return systems[-1]

    setup_times, setup_walls, system = reference_setup(setup, reps)
    try:
        result = workload.run(system, args.seconds)
        e2e = end_to_end(result, setup_times)
        stats = workload.stats(system)
    finally:
        workload.close(system)

    out: dict[str, Any] = {
        "workload": workload.name,
        "attempted": result.expected_rounds,
        "failed": result.failed,
        "rounds": result.emitted,
        "elapsed_s": result.elapsed,
        "host_factor": result.reference_elapsed / result.elapsed,
        "wall": wall_figures(result, setup_walls),
        "latency_samples": len(result.latencies),
        "digest": gate.digest(result.keys, rounds=workload.min_rounds),
        "handoff_us_per_input": workload.handoff_seconds(result) * 1e6,
        "end_to_end": e2e,
        "env": environment(),
        "mismatch": None,
    }
    if not args.reference:
        out["mismatch"] = gate.first_mismatch(result.keys, workload.oracle(result))
    if tracer is not None:
        layers, unmeasured = per_layer(
            tracer, missing, workload, result, stats, setup_window, worker_dir
        )
        layers["loadgen.handoff_us_per_input"] = out["handoff_us_per_input"]
        out["per_layer"] = layers
        out["unmeasured"] = unmeasured
        out["missing_targets"] = missing
    shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
