import math
from fractions import Fraction

import numpy as np
import pytest

from hstv.approx import MeshPlan, SquareFrame, _square_local_mesh
from hstv.errors import PlanError
from hstv.fields import GridSample
from hstv.mesh import CpwlFunction, Triangulation, uniform_diagonal_mesh


@pytest.fixture
def pyramid() -> CpwlFunction:
    """Unit square split into 4 triangles around the center, hat at the apex."""
    verts = [(0, 0), (1, 0), (1, 1), (0, 1), (Fraction(1, 2), Fraction(1, 2))]
    tris = [(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)]
    mesh = Triangulation(verts, tris)
    return CpwlFunction(mesh, np.array([0.0, 0.0, 0.0, 0.0, 1.0]))


@pytest.fixture
def diag_square() -> Triangulation:
    """Unit square split by the main diagonal."""
    return Triangulation(
        [(0, 0), (1, 0), (1, 1), (0, 1)],
        [(0, 1, 2), (0, 2, 3)],
    )


def grid_hat(n: int, i: int, j: int) -> CpwlFunction:
    mesh = uniform_diagonal_mesh(n)
    vals = np.zeros(mesh.n_vertices)
    vals[j * (n + 1) + i] = 1.0
    return CpwlFunction(mesh, vals)


def grid_sample(fld, n: int) -> GridSample:
    """Samples of fld on the n x n grid of [0, 1]^2, spacing 1/(n - 1)."""
    h = 1.0 / (n - 1)
    xs = np.arange(n) * h
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    return GridSample(h, np.asarray(fld.eval(xx, yy), dtype=float))


def brute_force_htv(g: CpwlFunction) -> tuple[float, dict]:
    """Independent CPWL energy: least-squares plane fits per triangle and a
    plain loop over the edge table.  Used as the oracle against htv_cpwl."""
    mesh = g.mesh
    fv = mesh.float_vertices
    grads = {}
    for ti, (a, b, c) in enumerate(mesh.triangles):
        design = np.array([[1.0, fv[a][0], fv[a][1]],
                           [1.0, fv[b][0], fv[b][1]],
                           [1.0, fv[c][0], fv[c][1]]])
        coef, *_ = np.linalg.lstsq(design, g.values[[a, b, c]], rcond=None)
        grads[ti] = coef[1:]
    total = 0.0
    per_edge = {}
    for e, tids in mesh.edge_table.items():
        if len(tids) != 2:
            continue
        jump = grads[tids[1]] - grads[tids[0]]
        length = math.hypot(fv[e[1]][0] - fv[e[0]][0], fv[e[1]][1] - fv[e[0]][1])
        contrib = math.hypot(*jump) * length
        per_edge[e] = contrib
        total += contrib
    return total, per_edge


def random_lattice_mesh(rng, n_interior=8, denom=64) -> Triangulation:
    from scipy.spatial import Delaunay

    while True:
        pts = {(0, 0), (denom, 0), (denom, denom), (0, denom)}
        while len(pts) < 4 + n_interior:
            pts.add((int(rng.integers(6, denom - 5)), int(rng.integers(6, denom - 5))))
        ordered = sorted(pts)
        arr = np.array(ordered, dtype=float) / denom
        simplices = Delaunay(arr).simplices
        verts = [(Fraction(x, denom), Fraction(y, denom)) for x, y in ordered]
        try:
            mesh = Triangulation(verts, [tuple(int(v) for v in t) for t in simplices])
        except Exception:
            continue
        if mesh.covers_bbox_exactly():
            return mesh


def triangulate_square(frame: SquareFrame, plan: MeshPlan) -> Triangulation:
    """Conforming triangulation of one cell of the plan."""
    for sp in plan.squares:
        if sp.frame is frame or sp.frame.index == frame.index:
            if sp.frame.angle != frame.angle or sp.frame.x0 != frame.x0:
                raise PlanError("frame does not match the plan")
            verts, tris = _square_local_mesh(sp, plan)
            return Triangulation(verts, tris, plan.den)
    raise PlanError(f"frame {frame.index} not in plan")
