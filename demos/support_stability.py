"""Support-stability sweep on a shrinking two-square family.

Solves scattering for a reference square and a ladder of concentric
shrunk copies, then tabulates the far-field perturbation eps against the
Hausdorff distance of the supports and the double-log pipeline bound
C (ln ln S/eps)^(-gamma).

Run:  python demos/support_stability.py
"""

import time

import numpy as np

from polyscat import fields, geom, rellich, stability


def square_contrast(side):
    h = side / 2
    P = geom.convex_polygon([[-h, -h], [h, -h], [h, h], [-h, h]])
    return fields.constant_contrast(P, 0.4)


def main():
    k = 2.0
    print("calibrating the three-balls constants ...")
    cal = rellich.calibrate(k, trials=40, seed=8)
    print(f"  C = {cal.C:.3f}, c1 = {cal.c1:.3f}, c2 = {cal.c2:.3f}, "
          f"R_m = {cal.R_m}")

    grid = fields.centered_grid(1.0, 192, dim=2)
    offsets = [0.02, 0.05, 0.1, 0.15, 0.2]
    # one reference object, so the sweep solves it once for all pairs
    ref = square_contrast(0.6)
    pairs = [(ref, square_contrast(0.6 * (1 - t))) for t in offsets]

    t0 = time.perf_counter()
    recs = stability.run_support_stability_experiment(pairs, k, [1.0, 0.0],
                                                      grid, cal,
                                                      n_directions=64, R=1.0)
    print(f"sweep of {len(recs)} pairs in {time.perf_counter() - t0:.0f} s\n")

    print(f"{'offset':>7} {'eps':>10} {'hausdorff':>10} {'tau':>8} "
          f"{'(lnln S/eps)^-g':>16} {'regime':>10}")
    for t, r in zip(offsets, recs):
        print(f"{t:7.2f} {r.epsilon:10.3e} {r.hausdorff:10.4f} "
              f"{r.tau_used:8.1f} {r.bound_value:16.4f} {r.regime:>10}")

    C = stability.fit_stability_constant(recs)
    print(f"\nfitted constant: hausdorff <= {C:.3f} (ln ln S/eps)^(-gamma), "
          f"gamma = {recs[0].gamma:.5f}")
    eps = np.array([r.epsilon for r in recs])
    print("eps strictly increasing with offset:", bool(np.all(np.diff(eps) > 0)))


if __name__ == "__main__":
    main()
