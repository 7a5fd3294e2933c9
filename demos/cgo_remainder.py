"""Complex-geometrical-optics remainder decay.

Builds u0 = e^(rho.(x - x_c)) (1 + psi) for a square contrast over a
dyadic tau ladder and prints the Lebesgue norms of the remainder psi,
whose decay in |Im rho| drives every corner-scattering argument in the
package, with the support box the remainder is solved on and the
certified contraction bound ||q||_inf / min|symbol| of each tau.

Run:  python demos/cgo_remainder.py
"""

import numpy as np

from polyscat import cgo, fields, geom, solver


def main():
    k = 2.0
    P = geom.convex_polygon([[-0.35, -0.35], [0.35, -0.35], [0.35, 0.35],
                             [-0.35, 0.35]])
    V = fields.constant_contrast(P, 0.4)
    grid = fields.centered_grid(1.0, 128, dim=2)

    vertex = np.array([-0.35, 0.35])
    ax = np.array([1.0, -1.0]) / np.sqrt(2)
    q_cone = geom.PolyCone(vertex, ax[None], "spherical", half_angle=0.6)

    case = cgo.faddeev_decay_case(2)
    q = k ** 2 * V.evaluate(grid)
    _, box = solver.support_box(q, grid)
    print(f"decay case {case.case}: p = {case.p}, beta = {case.beta:.4f}")
    print(f"remainder solved on the {'x'.join(map(str, box.shape))} support "
          f"box of the {'x'.join(map(str, grid.shape))} grid")
    print(f"\n{'tau':>7} {'|Im rho|':>9} {'bound':>9} {'||psi||_p':>11} "
          f"{'||psi||_inf':>12}")
    taus = 2.0 * 2.0 ** np.arange(7)
    ims, norms = [], []
    for tau in taus:
        d = cgo.build_direction(q_cone, k, tau)
        bound = np.max(np.abs(q)) / cgo.FaddeevGreen(grid, d.rho).min_abs
        _, psi = cgo.build_cgo(V, k, d, grid)
        np_ = cgo.lp_norm(psi.values, case.p, grid.cell_volume)
        ni = cgo.lp_norm(psi.values, np.inf, grid.cell_volume)
        ims.append(d.im_rho_norm)
        norms.append(np_)
        print(f"{tau:7.1f} {d.im_rho_norm:9.2f} {bound:9.3f} {np_:11.4e} "
              f"{ni:12.4e}")

    print(f"(a bound below {cgo.CONTRACTION_LIMIT} certifies the contraction "
          "gate; above it, a power iteration decides)")
    slope = np.polyfit(np.log(ims), np.log(norms), 1)[0]
    print(f"\nfitted slope of ||psi||_p vs |Im rho|: {slope:.2f} "
          f"(guaranteed <= {-case.beta:.2f})")


if __name__ == "__main__":
    main()
