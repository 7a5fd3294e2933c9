"""One benchmark process: set up a workload, run its timed loop, report.

Started by run.py, which times set-up from the start of this process to
the READY line it prints.  Set-up is the imports and a warm-up op on a
small grid; the loop draws each scene from the seeded schedule just
before its op, outside the op timer.  With --setup-only the process stops
there.  Otherwise the last stdout line is one JSON object with the
op times, the oracle results, the peak resident memory of set-up and
the timed loop (read before the reference probe runs) and, with
--trace 1, the per-layer metrics.

The loop is closed: one client, one op at a time, and the next op starts
when the previous one and its oracle check are done.  An op's time covers
the op only; the oracle check runs after it, outside the timer.
"""

import argparse
import itertools
import json
import os
import platform
import resource
import sys
import time
import traceback
from collections import defaultdict

from run import HERE, ROOT, THREAD_VARS


def run_loop(wl, seconds, tracer):
    times, timed_ops = [], []
    op_spans = {}
    attempted = failed = 0
    busy = 0.0
    errors = []
    accuracy = defaultdict(list)
    schedule = wl.schedule()
    start = time.perf_counter()
    for i in itertools.count():
        if i >= wl.accuracy_ops and time.perf_counter() - start >= seconds:
            break
        scene = next(schedule)
        attempted += 1
        # in the traced run every other op is traced, flipping parity each
        # cycle, so each slot runs both traced and untraced; the pairs give
        # the tracing overhead
        trace_this = tracer is not None and (i + i // wl.period) % 2 == 0
        if trace_this:
            tracer.op = i
            tracer.enabled = True
            root = tracer.begin("op")
        out = None
        t0 = time.perf_counter()
        try:
            out = wl.op(scene)
        except Exception:   # an op that raises counts as failed
            errors.append(f"op {i}: {traceback.format_exc(limit=3)}")
        dt = time.perf_counter() - t0
        if trace_this:
            tracer.end(root)
            op_spans[i] = root
            tracer.enabled = False
            tracer.op = None
        busy += dt
        if out is None:
            failed += 1
            continue
        times.append(dt)
        timed_ops.append((i % wl.period, trace_this, dt))
        try:
            passed, metrics = wl.check(scene, out)
        except Exception:
            passed, metrics = False, {}
            errors.append(f"check {i}: {traceback.format_exc(limit=3)}")
        if not passed:
            failed += 1
            errors.append(f"check {i}: oracle failed {metrics}")
        if i < wl.accuracy_ops:
            for key, value in metrics.items():
                accuracy[key].append(value)
    worst = {key: max(values) for key, values in accuracy.items()}
    counts = {key: len(values) for key, values in accuracy.items()}
    return {"times": times, "busy_s": busy, "attempted": attempted,
            "failed": failed, "errors": errors, "accuracy": worst,
            "accuracy_checks": counts, "timed_ops": timed_ops,
            "op_spans": op_spans}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(args):
    import numpy
    import scipy
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": len(os.sched_getaffinity(0)),
            "threads": {k: os.environ.get(k) for k in THREAD_VARS},
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine()}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import workloads

    wl = workloads.make(args.workload, args.seed, ROOT)
    wl.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        wl.close()
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    try:
        res = run_loop(wl, args.seconds, tracer)
        # read before the reference probe, whose solves may be larger than
        # the workload's own ops
        res["peak_rss_mb"] = peak_rss_mb()
        if wl.needs_probe:
            res["attempted"] += 1
            try:
                passed, metrics = workloads.reference_probe(
                    args.seed, wl.oracles, wl.needs_probe)
            except Exception:
                passed, metrics = False, {}
                res["errors"].append(f"probe: {traceback.format_exc(limit=3)}")
            if not passed:
                res["failed"] += 1
                res["errors"].append(f"probe: oracle failed {metrics}")
            res["accuracy"].update({key: max(v) for key, v in metrics.items()})
            res["accuracy_checks"].update({key: len(v) for key, v in metrics.items()})
    finally:
        wl.close()
    res["env"] = environment(args)
    if tracer is not None:
        res["layers"] = tracing.layer_metrics(tracer, res["op_spans"],
                                              res["timed_ops"])
    del res["op_spans"], res["timed_ops"]
    print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
