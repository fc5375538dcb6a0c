"""One repetition of one workload, in a fresh process.

    PYTHONPATH=src python3 perfbench/rep.py --workload NAME --seed N [--trace]

Run from the repository root; perfbench/run.py starts it.  Prints one
JSON object as its last line: setup_s, wall_s, peak_rss_mb, the gates,
a digest of the program's records and, with --trace, the per-layer
metrics; the spans of a traced repetition go to
.bench_build/perfbench/spans/<workload>-seed<N>.csv.  The clock for
setup_s starts before rhflow is imported.  setup_s and wall_s are
reference seconds (see hostspeed.py): wall seconds net of host-speed
sampling, divided by the host's slowdown over the same window.  The raw
wall seconds and the slowdowns are reported beside them.  A traced
repetition is not sampled and reports only the raw wall seconds.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

OUT_DIR = Path(".bench_build") / "perfbench"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    import numpy
    from hostspeed import HostSpeed

    # A traced repetition is not sampled: samples would land inside its spans.
    host = None if args.trace else HostSpeed()
    if host is not None:
        host.start()
    try:
        return _measure(args, host, numpy)
    finally:
        if host is not None:
            host.stop()


def _measure(args, host, numpy) -> int:
    import scipy
    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    (OUT_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    tmpdir = Path(tempfile.mkdtemp(dir=OUT_DIR / "tmp"))
    tracer = Tracer() if args.trace else None
    try:
        inputs = workload.setup(args.seed, tmpdir)
        t1 = time.perf_counter()
        error = None
        try:
            if tracer is None:
                gates, digest = workload.run(inputs)
            else:
                with tracer.installed():
                    gates, digest = workload.run(inputs)
        except Exception:
            # A crash is one failed gate; the repetition is still reported.
            error = traceback.format_exc()
            gates, digest = workloads.Gates(), None
            gates.check("completed", False)
        t2 = time.perf_counter()
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    timing = {"setup_raw_s": t1 - T0, "wall_raw_s": t2 - t1}
    if host is not None:
        setup_raw, setup_slowdown = host.window(T0, t1)
        wall_raw, wall_slowdown = host.window(t1, t2)
        timing = {
            "setup_s": setup_raw / setup_slowdown,
            "wall_s": wall_raw / wall_slowdown,
            "setup_raw_s": setup_raw,
            "wall_raw_s": wall_raw,
            "setup_slowdown": setup_slowdown,
            "wall_slowdown": wall_slowdown,
            "host_samples": len(host.samples),
        }
    result = {
        **timing,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_total": len(gates.rows),
        "ops_failed": len(gates.failed),
        "failed_gates": [f"{name} (value {value!r})" for name, passed, value in gates.rows
                         if not passed],
        "digest": digest,
        "error": error,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        result["per_layer"] = tracer.summary()
        tracer.write_spans(OUT_DIR / "spans" / f"{args.workload}-seed{args.seed}.csv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
