"""Forward solver sanity demo: plane wave on a penetrable disc.

Solves the Lippmann-Schwinger equation on the disc's support box in a 2D
grid and compares the far field against the separation-of-variables
series, then prints the radial decay of the scattered wave.

Run:  python demos/forward_disc.py
"""

import sys
import time

import numpy as np

sys.path.insert(0, "tests")

from oracles import DiscContrast, mie_far_field  # noqa: E402
from polyscat import fields, solver  # noqa: E402


def main():
    k, a, phi = 2.0, 0.5, 0.3
    grid = fields.centered_grid(1.0, 256, dim=2)
    print(f"disc radius {a}, contrast {phi}, k = {k}, "
          f"grid {grid.shape[0]}^2 (h = {grid.spacing:.4f})")

    t0 = time.perf_counter()
    sol = solver.solve_forward(DiscContrast(a, phi), k, [1.0, 0.0], grid,
                               n_directions=16)
    box = "x".join(str(s) for s in sol.box.grid.shape)
    print(f"solved in {time.perf_counter() - t0:.1f} s on the {box} support "
          f"box ({sol.iterations} GMRES iterations, "
          f"residual {sol.residual:.1e})")

    theta = np.arctan2(sol.far_field.directions[:, 1],
                       sol.far_field.directions[:, 0])
    exact = mie_far_field(k, a, phi, theta)
    print(f"\n{'theta':>8} {'|A| numeric':>12} {'|A| series':>12} "
          f"{'rel err':>10}")
    for t, got, ref in zip(theta, sol.far_field.values, exact):
        print(f"{t:8.3f} {abs(got):12.6f} {abs(ref):12.6f} "
              f"{abs(got - ref) / abs(ref):10.2e}")

    print("\nscattered amplitude along the positive x-axis "
          "(expected ~ r^-1/2):")
    radii = np.array([2.0, 4.0, 8.0, 16.0])
    pts = np.stack([radii, np.zeros_like(radii)], axis=1)
    us = solver.scattered_at_points(sol, pts)
    for r, v in zip(radii, us):
        print(f"  r = {r:5.1f}   |u_s| = {abs(v):.5f}   "
              f"|u_s| sqrt(r) = {abs(v) * np.sqrt(r):.5f}")


if __name__ == "__main__":
    main()
