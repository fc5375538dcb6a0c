"""Benchmark launcher for rhflow.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Runs repetitions of one workload, each in
a fresh single-threaded process (perfbench/rep.py, BLAS pinned to one
thread), one after another (a closed loop with one caller), for as many
as fit in S seconds at their median duration so far, and checks every
repetition's gates.  The last line of standard output is one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted``/``failed`` are the correctness gates run and failed over
all repetitions.  With --trace 0 the metrics are the end-to-end ones
(medians over repetitions, in reference seconds: see hostspeed.py);
with --trace 1 repetitions alternate untraced and traced, and the
metrics are the per-layer ones (medians over traced repetitions, which
are not sampled) plus the tracing overhead in raw wall seconds and the
untraced repetitions' slowdown.  The line before it
is the provenance stamp; the full result, with every repetition, goes to
.bench_build/perfbench/results/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = Path(".bench_build") / "perfbench"
SOURCE = Path("src") / "rhflow"
REP_TIMEOUT_S = 170.0
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_ENV})
    env["PYTHONPATH"] = str(Path("src").resolve())
    env["PYTHONHASHSEED"] = "0"
    return env


def _build(env: dict):
    """Byte-compile the package so no repetition pays for compilation."""
    proc = subprocess.run([sys.executable, "-m", "compileall", "-q", str(SOURCE), str(BENCH_DIR)],
                          env=env, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"cannot compile {SOURCE}:\n{proc.stdout}{proc.stderr}")


def _repetition(args, traced: bool, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "rep.py"), "--workload", args.workload,
           "--seed", str(args.seed)]
    if traced:
        cmd.append("--trace")
    timeout = max(1.0, min(REP_TIMEOUT_S, deadline - time.monotonic()))
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repetition exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"repetition exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    rep = json.loads(lines[-1])
    rep["traced"] = traced
    if rep["error"]:
        print(rep["error"], file=sys.stderr)
    if rep["failed_gates"]:
        print(f"failed gates: {rep['failed_gates']}", file=sys.stderr)
    return rep


def _provenance(reps: list[dict], env: dict) -> dict:
    sha = None
    if Path(".git").exists():  # a plain checkout has no sha; do not look above it
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    source = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        source.update(path.as_posix().encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "source_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        **reps[0]["versions"],
        "blas_threads": {name: env[name] for name in THREAD_ENV},
    }


def _summarize(args, reps: list[dict], units: dict) -> dict:
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    digests = {r["digest"] for r in reps}
    ok_reps = [r for r in untraced if r["error"] is None] or untraced
    attempted = sum(r["ops_total"] for r in reps)
    failed = sum(r["ops_failed"] for r in reps)
    # Every repetition must produce the same records, traced or not.
    correct = failed == 0 and len(digests) == 1 and None not in digests
    if args.trace:
        values = {key: statistics.median(r["per_layer"][key] for r in traced)
                  for key in traced[0]["per_layer"]}
        values["trace.overhead_s"] = (statistics.median(r["wall_raw_s"] for r in traced)
                                      - statistics.median(r["wall_raw_s"] for r in untraced))
        values["host.slowdown"] = statistics.median(r["wall_slowdown"] for r in untraced)
    else:
        values = {key: statistics.median(r[key] for r in ok_reps) for key in units}
    metrics = {key: {"value": value, "unit": units[key]} for key, value in values.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def _units(trace: bool) -> dict:
    """Metric name -> unit, from BENCHMARK.json at the repository root."""
    spec = json.loads(Path("BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "__init__.py").is_file() or not Path("BENCHMARK.json").is_file():
        print(f"error: no {SOURCE} package or BENCHMARK.json here; "
              "run from the repository root", file=sys.stderr)
        return 2
    started = time.monotonic()
    deadline = started + REP_TIMEOUT_S
    env = _env()
    units = _units(bool(args.trace))
    reps: list[dict] = []
    try:
        _build(env)
        begin = time.monotonic()
        durations: list[float] = []
        while True:
            traced = bool(args.trace) and len(reps) % 2 == 1
            rep_start = time.monotonic()
            reps.append(_repetition(args, traced, env, deadline))
            durations.append(time.monotonic() - rep_start)
            enough = len(reps) >= (2 if args.trace else 1)
            next_end = time.monotonic() + statistics.median(durations)
            if enough and next_end - begin > args.seconds:
                break
        result = _summarize(args, reps, units)
        provenance = _provenance(reps, env)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if set(result["metrics"]) != set(units):
        print(f"error: metrics {sorted(set(result['metrics']) ^ set(units))} do not match "
              "the benchmark's metric list", file=sys.stderr)
        return 1

    OUT_DIR.joinpath("results").mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance, "result": result,
              "repetitions": reps}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / "results" / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
