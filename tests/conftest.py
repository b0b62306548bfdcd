import math
from fractions import Fraction

import numpy as np
import pytest

from hstv.approx import (
    _TIE_ANGLE,
    MeshPlan,
    SquareFrame,
    _numerators,
    _square_local_mesh,
    rational_angle_approx,
)
from hstv.errors import MeshError, PlanError
from hstv.fields import GridSample
from hstv.mesh import CpwlFunction, Triangulation, _first_occurrence, uniform_diagonal_mesh
from hstv.schatten import schatten_norm, sym_eigen_frame


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
            verts, tris, _ = _square_local_mesh(sp, plan)
            corner = _numerators(plan.den, frame.x0, frame.y0)
            return Triangulation(verts + np.array(corner, dtype=verts.dtype), tris, plan.den)
    raise PlanError(f"frame {frame.index} not in plan")


def assemble_reference(plan: MeshPlan) -> Triangulation:
    """Cell by cell assembly: every cell's local mesh is built from scratch,
    shifted to its corner and concatenated in plan order; vertices on cell
    boundaries are then merged by first occurrence.  The oracle for
    assemble_global's per-type reuse."""
    verts, tris, on_boundary = [], [], []
    offset = 0
    for sp in plan.squares:
        v, t, b = _square_local_mesh(sp, plan)
        corner = _numerators(plan.den, sp.frame.x0, sp.frame.y0)
        verts.append(v + np.array(corner, dtype=v.dtype))
        tris.append(t + offset)
        on_boundary.append(b)
        offset += len(v)
    pts = np.concatenate(verts)
    first = np.arange(len(pts))
    shared = np.flatnonzero(np.concatenate(on_boundary))
    first[shared] = shared[_first_occurrence(pts[shared])]
    new = first == np.arange(len(pts))
    ids = (np.cumsum(new) - 1)[first]
    mesh = Triangulation(pts[new], ids[np.concatenate(tris)], plan.den)
    if not mesh.covers_bbox_exactly():
        raise MeshError("reference assembly does not tile the domain")
    return mesh


def reference_frames(fld, N: int, samples_per_square: int = 9) -> list[SquareFrame]:
    """Cell by cell, sample by sample frames with scalar Mat2 products: the
    oracle for build_frames' array evaluation."""
    side = Fraction(1, 2**N)
    eps = 1.0 / max(N, 1)
    frames = []
    for iy in range(2**N):
        for ix in range(2**N):
            x0 = ix * side
            y0 = iy * side
            cx = float(x0 + side / 2)
            cy = float(y0 + side / 2)
            diag, theta_hat = sym_eigen_frame(fld.hess(cx, cy), tol=1e-8)
            d1, d2 = diag.m11, diag.m22
            if abs(d1 - d2) <= 1e-12 * max(1.0, abs(d1), abs(d2)):
                angle = _TIE_ANGLE
            else:
                angle = rational_angle_approx(theta_hat, eps)
            rot = angle.rotation()
            dev = 0.0
            step = float(side) / (samples_per_square - 1)
            for i in range(samples_per_square):
                for j in range(samples_per_square):
                    x = float(x0) + i * step
                    y = float(y0) + j * step
                    m = rot.transpose() @ fld.hess(x, y) @ rot
                    dev = max(dev, schatten_norm(m - diag, 1))
            frames.append(SquareFrame(
                index=iy * 2**N + ix, ix=ix, iy=iy, x0=x0, y0=y0, side=side,
                center=(cx, cy), diag=(d1, d2), angle=angle, deviation=dev))
    return frames
