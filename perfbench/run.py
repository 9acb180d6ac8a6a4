"""qtwist benchmark: one workload per call, one JSON result line.

Usage, from the root of a qtwist checkout:

    python3 perfbench/run.py --workload verify-p2 --seed 1 --seconds 32 --trace 0

Workloads (see BENCHMARK.json for why each was chosen, and
perfbench/BASELINE.md for the baseline figures):

* ``verify-p2``   the 44 pinned check ids of ``verify.SUITES`` at p = 2, m = 1,
                  with lowered sample counts (``workloads.VERIFY_P2_SAMPLES``);
* ``frobdiv-p5``  11 of the 13 ``frobdiv`` check ids at p = 5, pair_cap = 3;
* ``cli-mixed``   a closed loop with one client sending 1000 seeded requests
                  through ``cli.main(argv)`` in one process.

Each workload runs in a fresh single-threaded worker process
(``worker.py``).  A pass is one run over the workload's fixed list of
checks or requests, from empty memo tables; the worker repeats identical
passes until --seconds have passed (the first pass is always whole, the
last may stop part way).  The host's speed drifts, so every time is
scaled to a fixed reference speed (``calib.py``): a fixed pure-Python
reference computation, timed every 40 ms while the passes run, gives
the host's speed around each operation.  An operation's time is the
median of its scaled repetitions.

With ``--trace 0`` the result holds the end-to-end metrics: ``setup_s``
(the median of eleven fresh processes' time to import qtwist and
generate the inputs, each scaled by an import-like reference timed
around it), ``wall_s`` (sum of the operation times: the time to a
verdict for the verify workloads), ``request_p50_ms`` /
``request_p99_ms`` (Harrell-Davis quantiles of the operation times; an
operation is one check or one request), and ``peak_rss_mb`` (after the
first pass).  With ``--trace 1`` it runs one untraced pass and then one
traced pass, each in a fresh process, and reports the per-layer metrics
(unscaled), the tracing overhead and the host's reference time; the
spans go to ``.bench_work/traces/``.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The exit code is 0 whenever that line is printed; it is non-zero, with
no result line, when the checkout has no qtwist sources or a worker
process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 11
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def run_worker(root, args, mode, workdir, deadline, trace_file=None):
    """Run worker.py in a fresh process and return its JSON report."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode,
           "--src", os.path.join(root, "src"), "--workdir", workdir]
    if trace_file:
        cmd += ["--trace-file", trace_file]
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"no time left for the {mode} worker")
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=left)
    except subprocess.TimeoutExpired:      # run() has killed and reaped the worker
        raise BenchError(f"{mode} worker did not finish in time")
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(root, args, workdir, deadline):
    probes = [run_worker(root, args, "setup", workdir, deadline)
              for _ in range(SETUP_PROBES)]
    rep = run_worker(root, args, "run", workdir, deadline)
    print(f"host reference call: {rep['reference_ms']:.3f} ms during the run, "
          f"{statistics.median(p['reference_ms'] for p in probes):.3f} ms around set-up; "
          f"{len(rep['passes'])} passes", file=sys.stderr)
    values = {"setup_s": statistics.median(p["setup_s"] for p in probes),
              "wall_s": rep["wall_s"],
              "request_p50_ms": rep["request_p50_ms"],
              "request_p99_ms": rep["request_p99_ms"],
              "peak_rss_mb": rep["peak_rss_mb"]}
    return [rep], values


def per_layer(root, args, workdir, deadline):
    base = run_worker(root, args, "single", workdir, deadline)
    traces = os.path.join(root, ".bench_work", "traces")
    os.makedirs(traces, exist_ok=True)
    trace_file = os.path.join(traces, f"{args.workload}-seed{args.seed}.json")
    rep = run_worker(root, args, "trace", workdir, deadline, trace_file)
    values = dict(rep["per_layer"],
                  **{"trace.wall_s": rep["wall_s"],
                     "trace.untraced_wall_s": base["wall_s"],
                     "trace.overhead_s": rep["wall_s"] - base["wall_s"],
                     "host.reference_ms": rep["reference_ms"]})
    return [base, rep], values


def _exit_on_sigterm(signum, frame):
    # unwinds through subprocess.run, which kills and reaps the running
    # worker, and through main's finally, which removes the work directory
    sys.exit(f"error: terminated by signal {signum}")


def main(argv=None):
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    ap = argparse.ArgumentParser(description="qtwist benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        ap.error(f"unknown workload {args.workload!r}")
    if not os.path.isfile(os.path.join(root, "src", "qtwist", "__init__.py")):
        sys.exit(f"error: no qtwist sources under {os.path.join(root, 'src')}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    workdir = os.path.join(root, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        measure = per_layer if args.trace else end_to_end
        reports, values = measure(root, args, workdir, deadline)
    except BenchError as e:
        sys.exit(f"error: {e}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    mismatch = {m["name"] for m in declared} ^ set(values)
    if mismatch:
        sys.exit(f"error: metrics differ from BENCHMARK.json: {sorted(mismatch)}")
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    for r in reports:
        for f in r["failures"]:
            print(f"failed: {f}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
