"""The planted-fault census (ROADMAP item 21).

Eight one-line faults, each the kind of slip a refactor makes, are planted
in-process with `monkeypatch`; no source file is edited.  For each fault
two things are asserted:

- a fast independent check fails under it: a Mie, optical-theorem,
  direct-sum or quadrature comparison, run by calling the unit test it
  comes from;
- `cli.main` returns 1 on `verify` and on `stability`, on the default 2D
  scene at n = 64, or for a 3D fault on a cube of half-width 0.3 at
  n = 48.

No CLI verdict reads a session's own solve yet, so most CLI cases are
strict xfails naming the item that is to make them catch: item 19 for
`verify`, item 20 for `stability`.  Strict means the mark has to go in
the change that makes the case pass.
"""

import json

import numpy as np
import pytest

import test_cgo
import test_fields
import test_solver
from polyscat import cgo, cli, fields, solver


# ---------------------------------------------------------------------------
# The faults
# ---------------------------------------------------------------------------

def far_field_phase_2d(monkeypatch):
    """The 2D far-field constant's phase e^(i pi/4) becomes e^(-i pi/4)."""
    constant = solver.far_field_constant
    monkeypatch.setattr(solver, "far_field_constant", lambda k, dim: (
        np.conj(constant(k, dim)) if dim == 2 else constant(k, dim)))


def far_field_sign_3d(monkeypatch):
    """The 3D far-field constant 1/(4 pi) is negated."""
    constant = solver.far_field_constant
    monkeypatch.setattr(solver, "far_field_constant", lambda k, dim: (
        -constant(k, dim) if dim == 3 else constant(k, dim)))


def self_cell_2d(monkeypatch):
    """The 2D self-cell integral's -1/k^2 becomes -1.01/k^2."""
    integral = solver.singular_cell_integral
    monkeypatch.setattr(solver, "singular_cell_integral", lambda k, h, dim: (
        integral(k, h, dim) - (0.01 / k ** 2 if dim == 2 else 0)))


def kernel_shift(monkeypatch):
    """The Green kernel is rolled by one cell along axis 0."""
    kernel = solver.GreenConvolution._kernel
    monkeypatch.setattr(solver.GreenConvolution, "_kernel",
                        lambda self, grid, offsets: np.roll(
                            kernel(self, grid, offsets), 1, axis=0))


def loose_tolerance(monkeypatch):
    """The forward GMRES tolerance 1e-8 becomes 1e-3."""
    monkeypatch.setattr(solver, "FORWARD_TOL", 1e-3)


def conjugate_faddeev(monkeypatch):
    """The Faddeev symbol is built with conj(rho)."""
    init = cgo.FaddeevGreen.__init__
    monkeypatch.setattr(cgo.FaddeevGreen, "__init__",
                        lambda self, grid, rho, source=None, target=None:
                        init(self, grid, np.conj(rho), source, target))


def cone_laplace_without_det(monkeypatch):
    """`cone_laplace` drops its |det G| factor."""
    laplace = cgo.cone_laplace

    def faulty(cone, vec):
        t = laplace(cone, vec)
        return cgo.ConeTransform(t.value / abs(np.linalg.det(cone.generators)),
                                 t.a)

    monkeypatch.setattr(cgo, "cone_laplace", faulty)


def contrast_at_corners(monkeypatch):
    """The contrast is sampled at cell corners instead of cell centres."""
    evaluate = fields.ContrastField.evaluate
    monkeypatch.setattr(fields.ContrastField, "evaluate", lambda self, grid:
                        evaluate(self, fields.Grid(grid.origin
                                                   - grid.spacing / 2,
                                                   grid.spacing, grid.shape)))


# fault -> (the dimension of its CLI session, the fast check).  The cube
# session's `verify` checks `cone_laplace` on a trihedral that is no
# orthant; the 2D check's quarter plane has |det G| = 1.
CENSUS = {
    far_field_phase_2d: (2, test_solver.test_optical_theorem_2d),
    far_field_sign_3d: (3, test_solver.test_optical_theorem_3d),
    self_cell_2d: (
        2, test_solver.test_singular_cell_integral_2d_against_quadrature),
    kernel_shift: (
        2, lambda: test_solver.test_green_convolution_matches_direct_sum(
            fields.centered_grid(0.5, 12, dim=2), None, None)),
    # a fixed 1e-6 bound against a whole-grid solve at tolerance 1e-8
    loose_tolerance: (
        2, lambda: test_solver.test_support_box_solve_matches_full_grid(
            2, 128)),
    conjugate_faddeev: (2, test_cgo.test_faddeev_green_residual),
    cone_laplace_without_det: (
        3, test_cgo.test_cone_laplace_against_quadrature),
    contrast_at_corners: (2, test_fields.test_contrast_indicator_support),
}


@pytest.mark.parametrize("fault", CENSUS, ids=lambda f: f.__name__)
def test_fault_fails_a_fast_check(fault, monkeypatch):
    check = CENSUS[fault][1]
    fault(monkeypatch)
    with pytest.raises(AssertionError):
        check()


# ---------------------------------------------------------------------------
# The CLI's verdicts
# ---------------------------------------------------------------------------

def cube_scene() -> dict:
    h = 0.3
    d = cli.default_scene("verify")
    d["polytope"] = {"dim": 3, "kind": "cuboid",
                     "vertices": [[x, y, z] for x in (-h, h)
                                  for y in (-h, h) for z in (-h, h)]}
    d["omega"] = [1.0, 0.0, 0.0]
    d["grid"]["n"] = 48
    return d


def square_scene() -> dict:
    d = cli.default_scene("verify")
    d["grid"]["n"] = 64
    return d


@pytest.fixture(scope="module")
def sessions(tmp_path_factory):
    """dimension -> (scene file, calibration file), calibrated once."""
    out = {}
    for dim, scene in ((2, square_scene()), (3, cube_scene())):
        base = tmp_path_factory.mktemp(f"session{dim}d")
        path = base / "scene.json"
        path.write_text(json.dumps(scene))
        assert cli.main(["calibrate", "--scene", str(path), "--seed", "1",
                         "--out", str(base / "cal")]) == 0
        out[dim] = (path, base / "cal" / "calibration.json")
    return out


# the (fault, command) cases the CLI catches today
CAUGHT = {("cone_laplace_without_det", "verify")}


def cli_case(fault, command):
    """The (fault, command) case, a strict xfail on the assertion unless
    the CLI catches it."""
    if (fault.__name__, command) in CAUGHT:
        return pytest.param(fault, command)
    item = 19 if command == "verify" else 20
    mark = pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason=f"{command} exits 0 under this fault (ROADMAP item {item})")
    return pytest.param(fault, command, marks=mark)


@pytest.mark.parametrize("fault, command",
                         [cli_case(f, c) for f in CENSUS
                          for c in ("verify", "stability")],
                         ids=lambda v: getattr(v, "__name__", v))
def test_cli_returns_1_under_the_fault(fault, command, sessions, tmp_path,
                                       monkeypatch, capsys):
    scene, cal = sessions[CENSUS[fault][0]]
    fault(monkeypatch)
    rc = cli.main([command, "--scene", str(scene), "--seed", "1",
                   "--out", str(tmp_path), "--calibration", str(cal)])
    capsys.readouterr()
    assert rc == 1
