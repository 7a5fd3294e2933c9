"""One-shot baseline report (not a benchmark workload).

    python3 perfbench/baseline.py

Re-measures the rows of the single-run Baseline table in ROADMAP.md five
times each, and prints each row's median and quartiles as a markdown table,
then the same figures as one JSON line.  The scenes are the ROADMAP's: the
0.6-wide square with V = 0.3 at k = 2 (2D), the 0.6 cuboid with V = 0.3 at
k = 2 (3D), and the CLI's default scene.  BLAS/OpenMP threads are capped
at one by run.py's THREADS, and one small solve warms the process up
first.
"""

import os

from run import ROOT, THREAD_VARS, THREADS

for _var in THREAD_VARS:
    os.environ[_var] = THREADS

import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from polyscat import cli, fields, geom, solver, specfun  # noqa: E402

REPEATS = 5
MATVECS_PER_REPEAT = 10


def timed(fn, repeats):
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out


def square_scene(n, dim):
    if dim == 2:
        P = geom.convex_polygon([[-0.3, -0.3], [0.3, -0.3], [0.3, 0.3],
                                 [-0.3, 0.3]])
        omega = [1.0, 0.0]
    else:
        P = geom.cuboid([0.0, 0.0, 0.0], [0.3, 0.3, 0.3])
        omega = [0.0, 0.0, 1.0]
    return (fields.constant_contrast(P, 0.3), omega,
            fields.centered_grid(1.0, n, dim))


def rows(repeats):
    k = 2.0
    V, omega, grid = square_scene(64, 2)
    solver.solve_forward(V, k, omega, grid)
    for n, dim in ((192, 2), (512, 2), (48, 3)):
        V, omega, grid = square_scene(n, dim)
        label = f"{dim}D n={n}"
        yield f"{label} kernel build", timed(
            lambda: solver.GreenConvolution(grid, k), repeats)
        conv = solver.GreenConvolution(grid, k)
        x = np.random.default_rng(0).standard_normal(grid.shape) + 0j
        per_call = [t / MATVECS_PER_REPEAT for t in timed(
            lambda: [conv.apply(x) for _ in range(MATVECS_PER_REPEAT)], repeats)]
        yield f"{label} one matvec", per_call
        yield f"{label} solve_forward", timed(
            lambda: solver.solve_forward(V, k, omega, grid), repeats)
    V, omega, grid = square_scene(192, 2)
    sol = solver.solve_forward(V, k, omega, grid)
    yield "2D n=192 near_field_on_annulus (24x128 points)", timed(
        lambda: solver.near_field_on_annulus(sol, 0.5, 1.0), repeats)
    out = os.path.join(ROOT, ".bench_build", "perfbench", "baseline")
    for cmd in ("calibrate", "solve", "verify", "stability"):
        def session():
            shutil.rmtree(out, ignore_errors=True)
            code = cli.main([cmd, "--seed", "0", "--out", out])
            if code != 0:
                raise RuntimeError(f"polyscat {cmd} exited with {code}")
        yield f"CLI {cmd} (default scene)", timed(session, repeats)
    shutil.rmtree(out, ignore_errors=True)
    for nu_max in (40, 200):
        yield f"certify_hankel_bounds z in [2, 8], nu_max={nu_max}", timed(
            lambda: specfun.certify_hankel_bounds(k, 4 * k, nu_max), repeats)


def main():
    report = {"env": {"nproc": len(os.sched_getaffinity(0)), "threads": THREADS,
                      "python": platform.python_version(),
                      "numpy": np.__version__, "scipy": scipy.__version__,
                      "machine": platform.machine(),
                      "repeats": REPEATS},
              "rows": {}}
    print("| What | median (s) | quartiles (s) | repeats |")
    print("|---|---|---|---|")
    for name, samples in rows(REPEATS):
        q1, med, q3 = statistics.quantiles(samples, n=4)
        report["rows"][name] = {"median_s": med, "q1_s": q1, "q3_s": q3,
                                "samples_s": samples}
        print(f"| {name} | {med:.4g} | {q1:.4g} – {q3:.4g} | {len(samples)} |",
              flush=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
