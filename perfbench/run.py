#!/usr/bin/env python3
"""divsym benchmark: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload ship --seed 1 --seconds 50 --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` prints the per-layer metrics of a separate traced
pass (see README.md in this directory).  The last line of standard output
is one JSON object; the exit code is 0 only if every output passed the
workload's correctness oracle.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# setup_s is the median of at least this many set-ups, repeated until
# SETUP_MIN_S has been spent, so short set-ups are measured many times.
SETUP_REPEATS = 3
SETUP_MIN_S = 3.0


@dataclass
class Loop:
    """What one pass of the closed loop saw; latencies are per attempted
    item, None where the item failed."""
    latencies: list = field(default_factory=list)
    delta_bytes: list = field(default_factory=list)
    failed: int = 0

    @property
    def ok_latencies(self):
        return [t for t in self.latencies if t is not None]


def run_loop(wl, state, seed, seconds, tracer=None):
    """Closed loop with one client: the next item starts after the last
    one is done and checked.  Stops once ``seconds`` of wall time have
    passed.  Garbage is collected before each item so the garbage left
    by making its input is not collected inside it."""
    rng = random.Random("items:%d" % seed)
    loop = Loop()
    start = time.perf_counter()
    for n, item in enumerate(wl.items(state, rng), 1):
        gc.collect()
        try:
            if tracer is None:
                t0 = time.perf_counter()
                out = wl.run(state, item)
                dt = time.perf_counter() - t0
            else:
                dt, out = tracer.run_item(n, wl.run, state, item)
            ok = wl.check(state, item, out)
        except Exception:  # noqa: BLE001 - a failed item is a counted result
            traceback.print_exc(file=sys.stderr)
            ok = False
        if ok:
            loop.latencies.append(dt)
            loop.delta_bytes.append(wl.delta_bytes(item, out))
        else:
            loop.latencies.append(None)
            loop.failed += 1
        if time.perf_counter() - start >= seconds:
            return loop


def percentile(values, p):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(wl, setup_times, loop):
    ok = loop.ok_latencies
    lat = ok or [0.0]           # every item failed: report zeros, exit 1
    sizes = loop.delta_bytes or [0]
    attempted = len(loop.latencies)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "items_per_s": (len(ok) / sum(ok) if ok else 0.0, "1/s"),
        "item_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "item_tail_ms": (percentile(lat, wl.tail_percentile) * 1e3, "ms"),
        "delta_bytes_mean": (statistics.fmean(sizes), "bytes"),
        "delta_bytes_max": (max(sizes), "bytes"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
        "ok_share": ((attempted - loop.failed) / attempted, "share"),
    }


def _common_mean(a, b):
    """Mean item time of a and b over the items both passes completed."""
    pairs = [(x, y) for x, y in zip(a, b) if x is not None and y is not None]
    if not pairs:
        return 0.0, 0.0
    return (statistics.fmean(x for x, _ in pairs),
            statistics.fmean(y for _, y in pairs))


def traced(wl, state, args, out_dir, smoke):
    """Untraced then traced pass over the same items, plus the probes."""
    import probes
    from tracing import Tracer

    half = args.seconds / 2
    plain = run_loop(wl, state, args.seed, half)
    tracer = Tracer()
    tracer.install()
    try:
        loop = run_loop(wl, state, args.seed, half, tracer)
    finally:
        tracer.uninstall()
    untraced_s, traced_s = _common_mean(plain.latencies, loop.latencies)
    metrics = tracer.layer_metrics()
    metrics["trace.items"] = (len(loop.latencies), "count")
    metrics["trace.item_s"] = (traced_s, "s/item")
    metrics["trace.untraced_item_s"] = (untraced_s, "s/item")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s/item")
    write_spans(tracer, out_dir / ("spans-%s-%d.tsv" % (wl.name, args.seed)))
    metrics.update(probes.environment())
    metrics.update(probes.kernel_timings(0.05 if smoke else 0.5))
    metrics.update(probes.reference_point("small" if smoke else "medium"))
    failed = plain.failed + loop.failed
    return len(plain.latencies) + len(loop.latencies), failed, metrics


def write_spans(tracer, path):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.write("name\tstart\tend\tparent\titem\n")
        for name, start, end, parent, item in tracer.spans:
            f.write("%s\t%.9f\t%.9f\t%d\t%d\n" % (name, start, end, parent, item))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("ship", "triage-repeat"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "divsym" / "__init__.py").is_file():
        print("perfbench: divsym sources not found at %s" % SRC, file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import probes
    import workloads

    profile = workloads.SMOKE if args.smoke else workloads.FULL
    wl = workloads.WORKLOADS[args.workload](profile)
    print("perfbench %s seed=%d seconds=%g trace=%d %s"
          % (wl.name, args.seed, args.seconds, args.trace,
             probes.environment_label()))

    setup_times = []
    repeats, min_s = (1, 0) if args.trace else \
        (SETUP_REPEATS, 0 if args.smoke else SETUP_MIN_S)
    while len(setup_times) < repeats or sum(setup_times) < min_s:
        state = None
        gc.collect()
        t0 = time.perf_counter()
        state = wl.setup()
        setup_times.append(time.perf_counter() - t0)
    # The set-up state lives as long as the run; freezing it keeps the
    # collections before each item short.
    gc.collect()
    gc.freeze()
    try:
        if args.trace:
            attempted, failed, metrics = traced(wl, state, args, HERE / "out",
                                                args.smoke)
        else:
            loop = run_loop(wl, state, args.seed, args.seconds)
            attempted, failed = len(loop.latencies), loop.failed
            metrics = end_to_end(wl, setup_times, loop)
    finally:
        gc.unfreeze()

    for name, (value, unit) in metrics.items():
        print("  %-44s %14.6g %s" % (name, value, unit))
    print("  attempted=%d failed=%d" % (attempted, failed))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
