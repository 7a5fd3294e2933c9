"""Corners always scatter: far-field norms on a contrast ladder.

Solves a square scatterer for a ladder of contrast amplitudes, including
a sign-changing and a complex one, and compares each far-field norm with
the V = 0 noise floor of the discrete pipeline and with the
double-exponential lower-bound expression, shown as ln ln(S/bound).

Run:  python demos/corner_scattering.py
"""

import numpy as np

from polyscat import fields, geom, stability


def main():
    k = 2.0
    grid = fields.centered_grid(1.0, 96, dim=2)
    P = geom.convex_polygon([[-0.35, -0.35], [0.35, -0.35], [0.35, 0.35],
                             [-0.35, 0.35]])
    ladder = [0.02, 0.05, 0.1, 0.2, -0.1, 0.1 - 0.05j]
    scenes = [fields.constant_contrast(P, c) for c in ladder]

    recs = stability.run_corner_lower_bound_experiment(scenes, k, [1.0, 0.0],
                                                       grid,
                                                       n_directions=64)
    print(f"V = 0 noise floor: {recs[0].noise_floor:.1e}\n")
    # the bound S exp(-e^L) underflows to 0, so its double log L is shown
    print(f"{'contrast':>12} {'||A||_L2':>10} {'ln ln(S/bound)':>15} "
          f"{'x noise floor':>14}")
    for c, r in zip(ladder, recs):
        print(f"{str(c):>12} {r.ff_norm:10.3e} {r.lnln_ratio:15.2f} "
              f"{r.separation:14.1e}")

    small = [r for c, r in zip(ladder, recs)
             if np.isreal(c) and 0 < np.real(c) <= 0.1]
    if len(small) >= 2:
        ratios = [b.ff_norm / a.ff_norm for a, b in zip(small, small[1:])]
        print("\nBorn-regime scaling (norm ratios along the real ladder):",
              ", ".join(f"{q:.2f}" for q in ratios))


if __name__ == "__main__":
    main()
