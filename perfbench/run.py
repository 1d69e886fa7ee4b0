#!/usr/bin/env python3
"""End-to-end CAD benchmark: ``python3 perfbench/run.py --workload <name|all>``.

Options: ``--seed N`` (inputs are a pure function of it; default 0, the seed
the pinned digests in ``perfbench/digests.json`` were taken with),
``--seconds S`` (length of the timed phase), ``--trace 0|1``.

Untraced (``--trace 0``) the last stdout line is one JSON object with the
end-to-end metrics; traced (``--trace 1``) it carries the per-layer
metrics, from a traced child plus an untraced reference child whose
throughput gives the tracing overhead.  Each workload runs in a fresh
child process (``perfbench/child.py``).  Any output mismatch — against the
single-process oracle, the pinned digest, or between the traced and
untraced children — fails the run: exit 1 and no metrics.

This file imports neither numpy nor the package under test, so it can
pin the child's BLAS threads before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 0
#: A child that has not finished by then is killed with its process group.
CHILD_TIMEOUT_S = 85.0
WORK_ROOT = ROOT / ".perfbench_work"


class BenchError(RuntimeError):
    pass


def _kill_group(pgid: int) -> None:
    """SIGKILL what is left of a child's process group and wait it out."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(100):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_child(workload: str, seed: int, seconds: float, *, trace: bool, reference: bool, tiny: bool) -> dict:
    workdir = WORK_ROOT / f"{workload}-{os.getpid()}-{'t' if trace else 'r' if reference else 'u'}"
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    cmd = [
        sys.executable, "-m", "perfbench.child",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", "1" if trace else "0", "--workdir", str(workdir),
    ]
    if reference:
        cmd.append("--reference")
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.wait()
        raise BenchError(f"{workload}: child exceeded {CHILD_TIMEOUT_S:.0f}s") from None
    finally:
        _kill_group(proc.pid)
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"{workload}: child exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload}: child printed no result")
    return json.loads(lines[-1])


def _pinned(workload: str) -> str | None:
    pins = json.loads((ROOT / "perfbench" / "digests.json").read_text())
    return pins.get(workload)


def run_workload(spec: dict, workload: str, args: argparse.Namespace) -> tuple[dict, list[str]]:
    """Run one workload; return (result line, human-readable notes)."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    notes: list[str] = []
    problems: list[str] = []

    if args.trace:
        reference = run_child(workload, args.seed, args.seconds, trace=False, reference=True, tiny=args.tiny)
        child = run_child(workload, args.seed, args.seconds, trace=True, reference=False, tiny=args.tiny)
        if child["digest"] != reference["digest"]:
            problems.append(f"traced digest {child['digest']} != untraced {reference['digest']}")
        values = dict(child["per_layer"])
        values["trace.overhead_fraction"] = 1.0 - (
            child["end_to_end"]["readings_per_s"] / reference["end_to_end"]["readings_per_s"]
        )
        notes.append(f"unmeasured: {', '.join(child['unmeasured']) or 'none'}")
        if child["missing_targets"]:
            notes.append(f"shim targets not found: {', '.join(child['missing_targets'])}")
    else:
        child = run_child(workload, args.seed, args.seconds, trace=False, reference=False, tiny=args.tiny)
        values = dict(child["end_to_end"])

    if child["mismatch"]:
        problems.append(f"oracle mismatch: {child['mismatch']}")
    pinned = _pinned(workload) if args.seed == DEFAULT_SEED and not args.tiny else None
    if pinned is not None and child["digest"] != pinned:
        problems.append(f"digest {child['digest']} != pinned {pinned}")
    notes.insert(0, f"env: {json.dumps(child['env'], sort_keys=True)}")
    notes.insert(
        1,
        f"{workload}: {child['rounds']} rounds in {child['elapsed_s']:.2f}s wall "
        f"(host speed x{child['host_factor']:.3f} of reference; wall figures "
        f"{json.dumps(child['wall'], sort_keys=True)}), "
        f"{child['latency_samples']} latency samples, digest[{child['digest'][:16]}] "
        f"pinned={'match' if pinned else 'n/a'}, bare hand-off "
        f"{child['handoff_us_per_input']:.3f} us/input",
    )
    absent = [name for name in names if name not in values]
    if absent:
        problems.append(f"metrics not produced: {', '.join(absent)}")

    correct = not problems
    line = {
        "correct": correct,
        "attempted": max(1, int(child["attempted"])),
        "failed": int(child["failed"]),
        "metrics": (
            {name: {"value": float(values[name]), "unit": units[name]} for name in names}
            if correct
            else {}
        ),
    }
    notes.extend(f"FAIL {workload}: {p}" for p in problems)
    return line, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes (no pinned digests)")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file() or not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT} holds no BENCHMARK.json or no src/repro to measure", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    known = [w["name"] for w in spec["workloads"]]
    selected = known if args.workload == "all" else [args.workload]
    if any(name not in known for name in selected):
        print(f"perfbench: unknown workload {args.workload!r}; choose from {known} or 'all'", file=sys.stderr)
        return 2

    lines: dict[str, dict] = {}
    ok = True
    for workload in selected:
        try:
            line, notes = run_workload(spec, workload, args)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        for note in notes:
            print(f"# {note}")
        for name, metric in line["metrics"].items():
            print(f"{workload:16s} {name:34s} {metric['value']:14.6g} {metric['unit']}")
        ok &= line["correct"]
        lines[workload] = line
    if len(selected) == 1:
        print(json.dumps(lines[selected[0]]))
    else:
        print(json.dumps(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
