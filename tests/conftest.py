import json
import math
import os
from fractions import Fraction

import numpy as np
import pytest

import hstv
from hstv import extremal
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
from hstv.htv import SUPPORT_REL_TOL, support_mask_by_jump
from hstv.mesh import (
    CpwlFunction,
    Triangulation,
    _first_occurrence,
    _GradientStencil,
    mesh_document,
    uniform_diagonal_mesh,
)
from hstv.schatten import schatten_norms, sym_eigen_frame


def subprocess_env(**extra: str) -> dict[str, str]:
    """os.environ for a child Python process, with PYTHONPATH led by the
    directory that holds the imported hstv package, so the child imports the
    code under test whether or not it is installed; `extra` adds variables."""
    path = [os.path.dirname(os.path.dirname(hstv.__file__)), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)), **extra}


@pytest.fixture(autouse=True)
def no_remembered_mesh_file(monkeypatch):
    """Every test starts with no mesh file remembered by `load_mesh`, so
    whether a load decodes does not depend on the tests run before it."""
    monkeypatch.setattr(hstv.mesh, "_last_load", None)


@pytest.fixture
def pyramid() -> CpwlFunction:
    """Unit square split into 4 triangles around the center, hat at the apex."""
    verts = [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)]
    tris = [(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)]
    mesh = Triangulation(verts, tris, 2)
    return CpwlFunction(mesh, np.array([0.0, 0.0, 0.0, 0.0, 1.0]))


@pytest.fixture
def diag_square() -> Triangulation:
    """Unit square split by the main diagonal."""
    return Triangulation(
        [(0, 0), (1, 0), (1, 1), (0, 1)],
        [(0, 1, 2), (0, 2, 3)],
    )


@pytest.fixture
def stencils(monkeypatch) -> list:
    """Grows by one entry per `_GradientStencil` built during the test."""
    built = []
    init = _GradientStencil.__init__
    monkeypatch.setattr(_GradientStencil, "__init__",
                        lambda self, m: built.append(1) or init(self, m))
    return built


def non_tiling_documents() -> tuple[dict, dict]:
    """Two mesh documents of the 4x4 grid hat that do not tile the square:
    one with a stray triangle strictly inside the lower triangle of the
    first cell (it shares no edge, so there is no repeated directed edge or
    T-junction and conformity passes), one with a corner triangle
    dropped."""
    doc = mesh_document(grid_hat(4, 2, 2))
    stray = json.loads(json.dumps(doc))
    stray["vertices"] += [["1", "8", "1", "16"], ["3", "16", "1", "16"],
                          ["3", "16", "1", "8"]]
    stray["triangles"].append([25, 26, 27])
    stray["values"] += ["0.0"] * 3
    dropped = json.loads(json.dumps(doc))
    del dropped["triangles"][0]
    return stray, dropped


def grid_hat(n: int, i: int, j: int) -> CpwlFunction:
    mesh = uniform_diagonal_mesh(n)
    vals = np.zeros(mesh.n_vertices)
    vals[j * (n + 1) + i] = 1.0
    return CpwlFunction(mesh, vals)


def affine_normalized(g: CpwlFunction) -> CpwlFunction:
    """g minus the least-squares affine part of its vertex values, on the
    private kernel: the representative the greedy loop runs on, orthogonal
    to {1, x, y} at the vertices."""
    return g.with_values(extremal._algebra(g.mesh).normalize(g.values))


def reduction_step(g: CpwlFunction) -> tuple[CpwlFunction, float, CpwlFunction]:
    """One greedy support reduction of a non-extremal g on the private
    kernel: (h, lambda, g - lambda h), where h is the certificate's witness
    and the last is normalized modulo affine, with a strictly smaller
    support than g's."""
    support = support_mask_by_jump(g)
    cert = extremal._certify(g.mesh, g.values, support, SUPPORT_REL_TOL)
    assert cert.witness is not None, "g is extremal: nothing to reduce"
    lam, nxt, _ = extremal._algebra(g.mesh).reduce(g.values, cert.witness, support)
    return g.with_values(cert.witness), lam, g.with_values(nxt)


def edge_stencils(mesh: Triangulation) -> list[tuple[tuple[int, ...], tuple[int, ...], Fraction]]:
    """The integer stencil of each interior edge, in edge-id order.

    For an interior edge (u, v) with opposite vertices a and b, write A for
    integer doubled signed areas.  The jump across the edge is h(b) / dist(b,
    uv), where h(b) = D / A(u, v, a) is b's value minus the first triangle's
    affine interpolant, with D = A(u, v, a) z_b - A(b, v, a) z_u - A(u, b, a) z_v
    - A(u, v, b) z_a.  Each entry is the vertex ids (b, u, v, a), their
    coefficients in D, and the weight (dX^2 + dY^2) / |A(u, v, a) A(u, v, b)|
    with |jump| * |e| = weight * |D|; den cancels from the weight.
    """
    pts = mesh.numerators.tolist()
    tris = mesh.triangle_array.tolist()

    def area(p, q, r):
        (px, py), (qx, qy), (rx, ry) = pts[p], pts[q], pts[r]
        return (qx - px) * (ry - py) - (qy - py) * (rx - px)

    stencils = []
    for (u, v), (t1, t2) in zip(mesh.interior_edge_array.tolist(),
                                mesh.interior_tri_array.tolist()):
        a, b = (next(w for w in tris[t] if w != u and w != v) for t in (t1, t2))
        a1, a2 = area(u, v, a), area(u, v, b)
        dx, dy = pts[v][0] - pts[u][0], pts[v][1] - pts[u][1]
        stencils.append(((b, u, v, a), (a1, -area(b, v, a), -area(u, b, a), -a2),
                         Fraction(dx * dx + dy * dy, abs(a1 * a2))))
    return stencils


def exact_energy(g: CpwlFunction) -> Fraction:
    """The CPWL energy of g as an exact rational: the sum of weight * |D|
    over the edge stencils; the float values are exact dyadic rationals."""
    z = [Fraction(v) for v in g.values.tolist()]
    return sum((w * abs(sum(c * z[i] for i, c in zip(ids, coeffs)))
                for ids, coeffs, w in edge_stencils(g.mesh)), Fraction(0))


def exact_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination on
    Python ints: every entry stays a minor of the matrix, so each division
    is exact."""
    m = [list(r) for r in rows]
    rank, prev = 0, 1
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        for row in m[rank + 1:]:
            for j in range(col + 1, len(row)):
                q, r = divmod(top[col] * row[j] - row[col] * top[j], prev)
                assert r == 0, "Bareiss division not exact"
                row[j] = q
            row[col] = 0
        prev = top[col]
        rank += 1
    return rank


def quadrature_reference(fld, p, resolution: int) -> float:
    """Midpoint-rule Hessian-Schatten energy evaluated on the whole
    resolution^2 grid at once: the oracle for htv_quadrature's row blocks."""
    t = (np.arange(resolution) + 0.5) / resolution
    xx, yy = np.meshgrid(t, t, indexing="ij")
    a, b, c = fld.hess_components(xx, yy)
    return float(np.sum(schatten_norms(a, b, b, c, p))) / (resolution * resolution)


def grid_sample(fld, n: int) -> GridSample:
    """Samples of fld on the n x n grid of [0, 1]^2, spacing 1/(n - 1)."""
    h = 1.0 / (n - 1)
    xs = np.arange(n) * h
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    return GridSample(h, np.asarray(fld.eval(xx, yy), dtype=float))


def zero_padded_convolution(samples: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """out[i, j] = sum of kernel[a, b] * samples[i + r - a, j + r - b] over the
    samples inside the grid, for an odd (2r + 1)-square kernel: a plain loop
    over the samples and over the kernel, the oracle for mollify."""
    n0, n1 = samples.shape
    r = kernel.shape[0] // 2
    out = np.zeros((n0, n1))
    for i in range(n0):
        for j in range(n1):
            for (a, b), w in np.ndenumerate(kernel):
                p, q = i + r - a, j + r - b
                if 0 <= p < n0 and 0 <= q < n1:
                    out[i, j] += w * samples[p, q]
    return out


def edge_table(mesh: Triangulation) -> dict[tuple[int, int], list[int]]:
    """Undirected edge (smaller vertex id first) -> its incident triangle
    ids in increasing order, keys sorted: a plain loop over triangle_array,
    the oracle for the mesh's interior and boundary edge arrays."""
    table: dict[tuple[int, int], list[int]] = {}
    for t, tri in enumerate(mesh.triangle_array.tolist()):
        for u, v in zip(tri, tri[1:] + tri[:1]):
            table.setdefault((min(u, v), max(u, v)), []).append(t)
    return dict(sorted(table.items()))


def fraction_pairs(mesh: Triangulation) -> list[tuple[Fraction, Fraction]]:
    """Each vertex as an exact (x, y) pair of Fractions, built in the test
    suite from numerators and den."""
    return [(Fraction(x, mesh.den), Fraction(y, mesh.den))
            for x, y in mesh.numerators.tolist()]


def numbering_text(mesh: Triangulation) -> str:
    """repr((vertex Fraction pairs, triangle tuples)), the text behind the
    pinned numbering digests."""
    return repr((fraction_pairs(mesh), [tuple(t) for t in mesh.triangle_array.tolist()]))


def same_vertices(a: Triangulation, b: Triangulation) -> bool:
    """Exact vertex equality across meshes with different denominators:
    a.num * b.den == b.num * a.den, numerator by numerator."""
    return (a.numerators.shape == b.numerators.shape
            and bool((a.numerators.astype(object) * b.den
                      == b.numerators.astype(object) * a.den).all()))


def evaluate_on_grid(g: CpwlFunction, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate g on an n x n grid of cell-center probe points over its bbox.

    Point location scans each triangle's bounding box; meant for moderate
    mesh sizes.
    """
    fv = g.mesh.float_vertices
    (x0, y0), (x1, y1) = fv.min(axis=0).tolist(), fv.max(axis=0).tolist()
    xs = x0 + (np.arange(n) + 0.5) * (x1 - x0) / n
    ys = y0 + (np.arange(n) + 0.5) * (y1 - y0) / n
    zz = np.full((n, n), np.nan)
    grads = g.gradients()
    hx = (x1 - x0) / n
    hy = (y1 - y0) / n
    for ti, (a, b, c) in enumerate(g.mesh.triangle_array):
        pa, pb, pc = fv[a], fv[b], fv[c]
        xmin = min(pa[0], pb[0], pc[0])
        xmax = max(pa[0], pb[0], pc[0])
        ymin = min(pa[1], pb[1], pc[1])
        ymax = max(pa[1], pb[1], pc[1])
        i0 = max(0, int(math.floor((xmin - x0) / hx - 0.5)))
        i1 = min(n - 1, int(math.ceil((xmax - x0) / hx)))
        j0 = max(0, int(math.floor((ymin - y0) / hy - 0.5)))
        j1 = min(n - 1, int(math.ceil((ymax - y0) / hy)))
        if i0 > i1 or j0 > j1:
            continue
        gx, gy = grads[ti]
        px = xs[i0:i1 + 1][:, None]
        py = ys[j0:j1 + 1][None, :]
        d1 = (pb[0] - pa[0]) * (py - pa[1]) - (pb[1] - pa[1]) * (px - pa[0])
        d2 = (pc[0] - pb[0]) * (py - pb[1]) - (pc[1] - pb[1]) * (px - pb[0])
        d3 = (pa[0] - pc[0]) * (py - pc[1]) - (pa[1] - pc[1]) * (px - pc[0])
        eps = -1e-12
        inside = (d1 >= eps) & (d2 >= eps) & (d3 >= eps)
        vals = g.values[a] + gx * (px - pa[0]) + gy * (py - pa[1])
        block = zz[i0:i1 + 1, j0:j1 + 1]
        block[inside] = vals[inside]
    if np.isnan(zz).any():
        raise MeshError("probe grid not fully covered by the mesh")
    return xs, ys, zz


def brute_force_htv(g: CpwlFunction) -> tuple[float, dict]:
    """Independent CPWL energy: least-squares plane fits per triangle and a
    plain loop over the edge table.  Used as the oracle against htv_cpwl."""
    mesh = g.mesh
    fv = mesh.float_vertices
    grads = {}
    for ti, (a, b, c) in enumerate(mesh.triangle_array.tolist()):
        design = np.array([[1.0, fv[a][0], fv[a][1]],
                           [1.0, fv[b][0], fv[b][1]],
                           [1.0, fv[c][0], fv[c][1]]])
        coef, *_ = np.linalg.lstsq(design, g.values[[a, b, c]], rcond=None)
        grads[ti] = coef[1:]
    total = 0.0
    per_edge = {}
    for e, tids in edge_table(mesh).items():
        if len(tids) != 2:
            continue
        jump = grads[tids[1]] - grads[tids[0]]
        length = math.hypot(fv[e[1]][0] - fv[e[0]][0], fv[e[1]][1] - fv[e[0]][1])
        contrib = math.hypot(*jump) * length
        per_edge[e] = contrib
        total += contrib
    return total, per_edge


def refine_midpoints(g: CpwlFunction) -> CpwlFunction:
    """Exact 1-to-4 midpoint refinement of g: den doubles, every edge gains
    its midpoint, valued at the average of its ends, and each triangle
    (a, b, c) becomes (a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca).
    The result is the same function on the finer mesh."""
    num = g.mesh.numerators.tolist()
    verts = [(2 * x, 2 * y) for x, y in num]
    values = g.values.tolist()
    mid: dict[tuple[int, int], int] = {}

    def midpoint(u: int, v: int) -> int:
        key = (min(u, v), max(u, v))
        if key not in mid:
            mid[key] = len(verts)
            verts.append((num[u][0] + num[v][0], num[u][1] + num[v][1]))
            values.append(0.5 * (values[u] + values[v]))
        return mid[key]

    tris = []
    for a, b, c in g.mesh.triangle_array.tolist():
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        tris += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
    return CpwlFunction(Triangulation(verts, tris, 2 * g.mesh.den), np.array(values))


def jittered_document(rng, n: int) -> dict:
    """Mesh document of an n x n-cell grid of the unit square, as the energy
    benchmark writes: node (i, j) at ((i + a/b) / n, (j + c/d) / n) with
    b, d in 2..12 and |a/b|, |c/d| <= 1/5 (boundary nodes move only along
    their side), coordinates as lowest-terms decimal strings, a random
    diagonal per cell and standard-normal values."""
    b = rng.integers(2, 13, size=(2, n + 1, n + 1))
    a = rng.integers(-(b // 5), b // 5 + 1)
    a[0, [0, n], :] = 0
    a[1, :, [0, n]] = 0
    vertices = []
    for j in range(n + 1):
        for i in range(n + 1):
            x = Fraction(i * int(b[0, i, j]) + int(a[0, i, j]), n * int(b[0, i, j]))
            y = Fraction(j * int(b[1, i, j]) + int(a[1, i, j]), n * int(b[1, i, j]))
            vertices.append([str(x.numerator), str(x.denominator),
                             str(y.numerator), str(y.denominator)])
    triangles = []
    for p00, anti in zip((np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel().tolist(),
                         rng.integers(2, size=n * n).tolist()):
        p10, p01, p11 = p00 + 1, p00 + n + 1, p00 + n + 2
        triangles += ([[p00, p10, p01], [p10, p11, p01]] if anti
                      else [[p00, p10, p11], [p00, p11, p01]])
    values = [repr(v) for v in rng.standard_normal(len(vertices)).tolist()]
    return {"vertices": vertices, "triangles": triangles, "values": values}


def random_lattice_mesh(rng, n_interior=8, denom=64) -> Triangulation:
    from scipy.spatial import Delaunay

    while True:
        pts = {(0, 0), (denom, 0), (denom, denom), (0, denom)}
        while len(pts) < 4 + n_interior:
            pts.add((int(rng.integers(6, denom - 5)), int(rng.integers(6, denom - 5))))
        ordered = sorted(pts)
        arr = np.array(ordered, dtype=float) / denom
        simplices = Delaunay(arr).simplices
        try:
            mesh = Triangulation(np.array(ordered), simplices, denom)
        except MeshError:
            continue
        if mesh.covers_bbox_exactly():
            return mesh


def triangulate_square(frame: SquareFrame, plan: MeshPlan) -> Triangulation:
    """Conforming triangulation of one cell of the plan."""
    if not 0 <= frame.index < len(plan.squares):
        raise PlanError(f"frame {frame.index} not in plan")
    sp = plan.squares[frame.index]
    corner = _numerators(plan.den, frame.x0, frame.y0)
    if (frame.angle.reduced() != (sp.pp, sp.qq, sp.reflected)
            or corner != plan.corners[frame.index].tolist()):
        raise PlanError("frame does not match the plan")
    verts, tris, _ = _square_local_mesh(sp, plan)
    return Triangulation(verts + np.array(corner, dtype=verts.dtype), tris, plan.den)


def assemble_reference(plan: MeshPlan) -> Triangulation:
    """Cell by cell assembly: every cell's local mesh is built from scratch,
    shifted to its corner and concatenated in plan order; vertices on cell
    boundaries are then merged by first occurrence.  The oracle for
    assemble_global's per-type reuse."""
    verts, tris, on_boundary = [], [], []
    offset = 0
    for sp, corner in zip(plan.squares, plan.corners.tolist()):
        v, t, b = _square_local_mesh(sp, plan)
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


def matmul2(m, n):
    """Product of two 2x2 matrices given as entry tuples (m11, m12, m21, m22)."""
    return (m[0] * n[0] + m[1] * n[2], m[0] * n[1] + m[1] * n[3],
            m[2] * n[0] + m[3] * n[2], m[2] * n[1] + m[3] * n[3])


def reference_frames(fld, N: int, samples_per_square: int = 9) -> list[SquareFrame]:
    """Cell by cell, sample by sample frames with scalar Hessians and scalar
    2x2 products: the oracle for build_frames' array evaluation."""
    side = Fraction(1, 2**N)
    eps = 1.0 / max(N, 1)
    frames = []
    for iy in range(2**N):
        for ix in range(2**N):
            x0 = ix * side
            y0 = iy * side
            cx = float(x0 + side / 2)
            cy = float(y0 + side / 2)
            (d1, d2), theta_hat = sym_eigen_frame(
                *(float(f(cx, cy)) for f in (fld.fxx, fld.fxy, fld.fyy)))
            if abs(d1 - d2) <= 1e-12 * max(1.0, abs(d1), abs(d2)):
                angle = _TIE_ANGLE
            else:
                angle = rational_angle_approx(theta_hat, eps)
            c, s = angle.rotation()
            dev = 0.0
            step = float(side) / (samples_per_square - 1)
            for i in range(samples_per_square):
                for j in range(samples_per_square):
                    x = float(x0) + i * step
                    y = float(y0) + j * step
                    hxy = float(fld.fxy(x, y))
                    hess = (float(fld.fxx(x, y)), hxy, hxy, float(fld.fyy(x, y)))
                    m = matmul2(matmul2((c, s, -s, c), hess), (c, -s, s, c))
                    dev = max(dev, float(schatten_norms(
                        m[0] - d1, m[1] - 0.0, m[2] - 0.0, m[3] - d2, 1)))
            frames.append(SquareFrame(
                index=iy * 2**N + ix, ix=ix, iy=iy, x0=x0, y0=y0, side=side,
                center=(cx, cy), diag=(d1, d2), angle=angle, deviation=dev))
    return frames


def dual_norm_reference(mats, p: float, samples: int) -> list[float]:
    """Sampled dual-norm lower bound of each matrix (m11, m12, m21, m22),
    one matrix and one test matrix at a time in Python floats: the oracle
    for the stacked dual_norm_estimate.  The test matrices
    R(alpha) diag(g1, g2) R(beta)^T, (g1, g2) of unit lp* norm, are a
    Kronecker lattice over (alpha, beta, psi), then aligned frames with
    sign-pattern diagonals."""
    pstar = math.inf if p == 1.0 else 1.0 if p == math.inf else p / (p - 1.0)
    angles = []
    for k in range(samples):
        angles.append((math.pi * math.fmod(k * 0.8191725133961644, 1.0),
                       math.pi * math.fmod(k * 0.6710436067037892, 1.0),
                       2.0 * math.pi * math.fmod(k * 0.5497004779019703, 1.0)))
    n_axis = min(samples, 90)
    for t in range(n_axis):
        for i in range(8):
            angles.append((math.pi * t / n_axis, math.pi * t / n_axis, i * math.pi / 4.0))
    tests = []
    for alpha, beta, psi in angles:
        g1, g2 = math.cos(psi), math.sin(psi)
        if pstar == math.inf:
            nrm = max(abs(g1), abs(g2))
        elif pstar == 1.0:
            nrm = abs(g1) + abs(g2)
        else:
            nrm = (abs(g1) ** pstar + abs(g2) ** pstar) ** (1.0 / pstar)
        g1, g2 = (g1 / nrm, g2 / nrm) if nrm else (0.0, 0.0)
        ca, sa, cb, sb = math.cos(alpha), math.sin(alpha), math.cos(beta), math.sin(beta)
        tests.append((ca * g1 * cb + sa * g2 * sb, ca * g1 * sb - sa * g2 * cb,
                      sa * g1 * cb - ca * g2 * sb, sa * g1 * sb + ca * g2 * cb))
    return [max(0.0, *[m11 * n11 + m12 * n12 + m21 * n21 + m22 * n22
                       for n11, n12, n21, n22 in tests])
            for m11, m12, m21, m22 in mats]
