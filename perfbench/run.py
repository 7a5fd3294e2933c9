"""The polyscat benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs one workload (see README.md in this directory) for S seconds in a
fresh worker process, with BLAS/OpenMP threads capped at one, and prints
one JSON object as the last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones.  Set-up is measured
three times, in three fresh processes (two that stop after set-up and the
measuring worker), and setup_s is their median.  With --trace 1 the
worker wraps the package's layers and the metrics are the per-layer ones.
The line before the result records the run environment and the raw
figures behind the metrics.

Exits with status 2, printing no result, when the package sources are not
next to this directory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("forward-2d", "cli-stability", "corner-chain-2d", "forward-3d")
# Five samples gave no steadier a median than three over ten seeds: the
# spread of setup_s comes from the machine's speed drifting between runs.
SETUP_REPEATS = 3
# BLAS/OpenMP threads per worker.  The hot loops (pocketfft, scipy.special)
# are single-threaded; a second BLAS thread only serves GMRES's level-1
# calls, and on a 2-core machine it made an n = 192 solve slower and four
# times noisier (0.155 s +- 10 % against 0.145 s +- 2.5 %).
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 170.0
# failed_frac is floored here because a benchmark metric must never read 0.
# The floor lies far below 1/attempted for any run (a minute holds a few
# hundred ops at most), so one failure always shows.
FAILED_FLOOR = 1e-4


class BenchError(RuntimeError):
    pass


def spawn(argv, env, deadline):
    """Run a worker; return (seconds from start to READY, stdout lines
    after READY).  The worker is killed at the deadline."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    ready = None
    lines = []
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - t0
            elif ready is not None:
                lines.append(line)
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise BenchError(f"worker {argv[2:]} exited with status {code}")
    return ready, lines


def end_to_end(res, setups):
    times = res["times"]
    acc = res["accuracy"]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "scene_p50_s": (statistics.median(times), "s"),
        "scenes_per_s": (len(times) / res["busy_s"], "1/s"),
        "ff_rel_err": (acc["ff_rel_err"], "ratio"),
        "nf_rel_err": (acc["nf_rel_err"], "ratio"),
        "orth_mismatch": (acc["orth_mismatch"], "ratio"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "failed_frac": (max(res["failed"] / res["attempted"], FAILED_FLOOR),
                        "ratio"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in ("src/polyscat/__init__.py", "tests/oracles.py")
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: package sources not found: {', '.join(missing)}",
              file=sys.stderr)
        return 2

    env = dict(os.environ, **{var: THREADS for var in THREAD_VARS})
    deadline = time.monotonic() + DEADLINE_S
    worker = [sys.executable, os.path.join(HERE, "worker.py"),
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                setups.append(spawn(worker + ["--setup-only"], env, deadline)[0])
        ready, lines = spawn(worker, env, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(ready)
    res = json.loads(lines[-1])
    absent = [key for key in ("ff_rel_err", "nf_rel_err", "orth_mismatch")
              if key not in res["accuracy"]]
    if not res["times"] or absent:
        print(f"perfbench: no completed op or no oracle figure for {absent}; "
              f"errors: {res['errors']}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = res["layers"]
    else:
        metrics = end_to_end(res, setups)
    detail = {"env": res["env"], "setup_samples_s": setups,
              "ops": len(res["times"]),
              "op_p75_s": (statistics.quantiles(res["times"], n=4)[2]
                           if len(res["times"]) > 1 else res["times"][0]),
              "accuracy_checks": res["accuracy_checks"],
              "op_times_s": [round(t, 4) for t in res["times"]],
              "errors": res["errors"]}
    print(json.dumps(detail))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": float(v), "unit": unit}
                    for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
