"""One workload in one fresh, single-threaded process.

Started by ``run.py``; prints one JSON object as its last line.  Modes:

* ``setup``  import qtwist and generate the inputs, then report the time,
             scaled to the reference host speed by ``calib.import_reference``
             calls made just before and just after;
* ``run``    untraced passes, repeated until --seconds have passed (the
             first pass is always whole, the last one may stop part way),
             with a ``calib.Sampler`` running: each operation's time is
             scaled by the reference samples taken around it;
* ``single`` exactly one untraced pass (the baseline of a traced run);
* ``trace``  exactly one traced pass; writes the spans to --trace-file.

``single`` and ``trace`` report unscaled times, plus the host's mean
reference time around the pass.  Every pass starts with all memo tables
empty.  Outputs are checked after the timed passes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time

import calib
import layers
import workloads
from tracer import Tracer


# Reference calls timed around a setup probe, and around an unscaled pass.
SETUP_REFERENCE_CALLS = 6
PASS_REFERENCE_CALLS = 40


def _betai(x, a, b):
    """Regularized incomplete beta function I_x(a, b), by its continued fraction."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betai(1.0 - x, b, a)
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return front * h / a


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile of a non-empty list.

    A weighted mean of all order statistics, with the weights of a
    Beta(q (n + 1), (1 - q) (n + 1)) distribution over the ranks.  With
    the 11 or 44 checks of a verify pass the nearest-rank median is one
    check's time and jumps wherever neighbouring ranks lie far apart; this
    estimate moves smoothly with every check near the middle.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    cdf = [_betai(i / n, a, b) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("setup", "run", "single", "trace"), required=True)
    ap.add_argument("--src", required=True, help="directory that holds the qtwist package")
    ap.add_argument("--workdir", required=True, help="directory for generated input files")
    ap.add_argument("--trace-file")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.mode == "setup":
        before = calib.reference_mean(calib.import_reference, SETUP_REFERENCE_CALLS)
    t0 = time.perf_counter()
    mods = layers.load_modules()
    if args.workload == "cli-mixed":
        docs, requests = workloads.cli_inputs(args.seed, args.workdir)
        workloads.write_documents(docs)
    else:
        cfg_kw, check_ids, expected = workloads.verify_inputs(args.workload)
        cfg = mods["verify"].VerifyConfig(**cfg_kw)
    setup_s = time.perf_counter() - t0

    src = os.path.realpath(args.src)
    if not os.path.realpath(mods["qarith"].__file__).startswith(src + os.sep):
        sys.exit(f"qtwist was imported from {mods['qarith'].__file__}, not from {src}")
    if args.mode == "setup":
        host = (before + calib.reference_mean(calib.import_reference, SETUP_REFERENCE_CALLS)) / 2
        print(json.dumps({"setup_s": setup_s * calib.IMPORT_REFERENCE_S / host,
                          "reference_ms": 1e3 * host}))
        return 0

    tables = layers.all_memo_tables(mods)
    tracer = instrument = wrap = None
    if args.mode == "trace":
        tracer = Tracer()
        instrument = layers.Instrument(tracer, mods)
        instrument.install()
        wrap = lambda cid, fn: tracer.span(f"verify.{cid}", fn)   # one root span per check
    passes, outcomes = [], []     # one entry per pass
    texts = {}
    sampler = calib.Sampler()
    if args.mode != "run":
        host_before = calib.reference_mean(calib.Reference(), PASS_REFERENCE_CALLS)
    started = time.perf_counter()
    if args.mode == "run":
        sampler.start()
    try:
        while True:
            for table in tables:                     # every pass starts cold
                table.cache_clear()
            # the first pass is whole; a later one stops at the end of --seconds
            deadline = started + args.seconds if passes else None
            t = time.perf_counter()
            if args.workload == "cli-mixed":
                result = workloads.cli_pass(mods["cli"].main, requests, texts, sampler, deadline)
            else:
                result = workloads.verify_pass(mods["verify"], cfg, check_ids, wrap, sampler,
                                               deadline)
            passes.append(time.perf_counter() - t)
            outcomes.append(result)
            if len(passes) == 1:     # later passes repeat it; their stored outcomes do not count
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if args.mode != "run" or time.perf_counter() - started >= args.seconds:
                break
    finally:
        sampler.stop()
    if args.mode == "run":
        latencies = [sampler.scaled(r[-1] for r in result) for result in outcomes]
        host_ms = 1e3 * statistics.fmean(dt for _, dt in sampler.samples)
    else:
        latencies = [[r[-1][2] for r in result] for result in outcomes]
        host_after = calib.reference_mean(calib.Reference(), PASS_REFERENCE_CALLS)
        host_ms = 1e3 * (host_before + host_after) / 2
    counters = None
    if instrument is not None:
        counters = instrument.counters()
        tracer.restore()

    # output checks, untimed
    attempted = failed = 0
    failures = []
    for result in outcomes:                  # the last one may be cut short
        if args.workload == "cli-mixed":
            bad = workloads.cli_failures(mods, requests[:len(result)], docs, result)
            failures += [" ".join(requests[k]["argv"]) for k in bad]
        else:
            bad = workloads.verify_failures(
                result, {cid: expected[cid] for cid in check_ids[:len(result)]})
            failures += bad
        attempted += len(result)
        failed += len(bad)

    # every pass repeats the same operations on the same inputs; an
    # operation's time is the median of its repetitions
    typical = [statistics.median(lat[k] for lat in latencies if k < len(lat))
               for k in range(len(latencies[0]))]
    report = {"attempted": attempted, "failed": failed, "failures": failures[:10],
              "setup_s": setup_s, "passes": passes, "reference_ms": host_ms,
              "wall_s": sum(typical),
              "request_p50_ms": 1e3 * quantile(typical, 0.5),
              "request_p99_ms": 1e3 * quantile(typical, 0.99),
              "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        check_s = {s.name[len("verify."):]: s.end - s.start
                   for s in tracer.spans if s.parent is None and s.name.startswith("verify.")}
        report["per_layer"] = layers.per_layer_metrics(tracer.totals(), counters,
                                                       workloads.VERIFY_IDS, check_s)
        tracer.dump(args.trace_file, dict(counters, workload=args.workload,
                                          seed=args.seed, wall_s=passes[0]))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
