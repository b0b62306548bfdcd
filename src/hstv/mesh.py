"""Conforming triangle meshes with exact rational vertices, and CPWL functions.

Coordinates are `fractions.Fraction` throughout so that vertex identity,
orientation and cross-square alignment checks are exact; floating point
enters only at numeric evaluation boundaries (gradients, lengths, angles).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import MeshError

Coord = tuple[Fraction, Fraction]
Edge = tuple[int, int]


def as_fraction(v) -> Fraction:
    # Fraction(float) is the exact binary expansion, so no value is invented.
    return v if isinstance(v, Fraction) else Fraction(v)


class Triangulation:
    """A conforming 2D triangulation with exact rational vertex coordinates.

    Construction validates the mesh: distinct vertex coordinates, positive
    (counterclockwise, auto-normalized) triangle orientation, no duplicate
    triangles, every undirected edge shared by at most two triangles with
    consistent orientation, and no vertex lying in the relative interior of
    a boundary edge (T-junction scan).  Nonconforming input raises MeshError.
    """

    def __init__(self, vertices: Sequence, triangles: Sequence):
        self.vertices: list[Coord] = []
        seen: dict[Coord, int] = {}
        for k, xy in enumerate(vertices):
            pt = (as_fraction(xy[0]), as_fraction(xy[1]))
            if pt in seen:
                raise MeshError(f"duplicate vertex coordinates at indices {seen[pt]} and {k}")
            seen[pt] = k
            self.vertices.append(pt)
        nv = len(self.vertices)
        if nv < 3:
            raise MeshError("a triangulation needs at least 3 vertices")
        self._float_vertices = np.array(
            [[float(x), float(y)] for x, y in self.vertices], dtype=float
        )
        self._area_exact: Optional[Fraction] = None
        self._covers: Optional[bool] = None

        tris = np.asarray([[int(t[0]), int(t[1]), int(t[2])] for t in triangles],
                          dtype=np.int64)
        if tris.size == 0:
            raise MeshError("a triangulation needs at least one triangle")
        if tris.min() < 0 or tris.max() >= nv:
            raise MeshError("triangle references a missing vertex")
        if ((tris[:, 0] == tris[:, 1]) | (tris[:, 1] == tris[:, 2])
                | (tris[:, 0] == tris[:, 2])).any():
            raise MeshError("triangle repeats a vertex")

        # Orientation: normalize to CCW; exact recheck where floats are ambiguous.
        fv = self._float_vertices
        cross = self._float_cross(tris)
        scale = np.zeros(len(tris))
        for i in (0, 1, 2):
            d = fv[tris[:, (i + 1) % 3]] - fv[tris[:, i]]
            scale = np.maximum(scale, np.abs(d).max(axis=1))
        ambiguous = np.abs(cross) <= 1e-10 * scale * scale
        flip = cross < 0
        for ti in np.nonzero(ambiguous)[0]:
            ce = self._cross_exact(int(tris[ti, 0]), int(tris[ti, 1]), int(tris[ti, 2]))
            if ce == 0:
                raise MeshError(f"degenerate (zero-area) triangle {tris[ti].tolist()}")
            flip[ti] = ce < 0
        tmp = tris[flip, 1].copy()
        tris[flip, 1] = tris[flip, 2]
        tris[flip, 2] = tmp
        self._tri_array = tris

        srt = np.sort(tris, axis=1)
        uniq = np.unique(srt, axis=0)
        if len(uniq) != len(srt):
            raise MeshError("duplicate triangle")

        # Directed-edge conformity: each directed edge used at most once.
        t_count = len(tris)
        directed = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
        dkeys = directed[:, 0] * nv + directed[:, 1]
        if len(np.unique(dkeys)) != len(dkeys):
            raise MeshError(
                "a directed edge is used twice: overlapping or inconsistently "
                "oriented triangles"
            )
        ukeys = directed.min(axis=1) * nv + directed.max(axis=1)
        tri_ids = np.concatenate([np.arange(t_count)] * 3)
        order = np.argsort(ukeys, kind="stable")
        sk = ukeys[order]
        st = tri_ids[order]
        starts = np.nonzero(np.r_[True, sk[1:] != sk[:-1]])[0]
        counts = np.diff(np.r_[starts, len(sk)])
        if counts.max() > 2:
            raise MeshError("an edge has more than 2 incident triangles")
        int_mask = counts == 2
        int_starts = starts[int_mask]
        ikeys = sk[int_starts]
        ia = np.minimum(st[int_starts], st[int_starts + 1])
        ib = np.maximum(st[int_starts], st[int_starts + 1])
        self._interior_edge_arr = np.stack([ikeys // nv, ikeys % nv], axis=1)
        self._interior_tri_arr = np.stack([ia, ib], axis=1)
        bkeys = sk[starts[~int_mask]]
        self._boundary_edge_arr = np.stack([bkeys // nv, bkeys % nv], axis=1)
        self._boundary_tri_arr = st[starts[~int_mask]]
        self._edge_table: Optional[dict[Edge, list[int]]] = None
        self._check_hanging_vertices()

    # -- exact geometric predicates -------------------------------------

    def _cross_exact(self, a: int, b: int, c: int) -> Fraction:
        (ax, ay), (bx, by), (cx, cy) = (
            self.vertices[a], self.vertices[b], self.vertices[c],
        )
        return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)

    def _float_cross(self, tris: np.ndarray) -> np.ndarray:
        fv = self._float_vertices
        a, b, c = fv[tris[:, 0]], fv[tris[:, 1]], fv[tris[:, 2]]
        return (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (
            c[:, 0] - a[:, 0]
        )

    def _check_hanging_vertices(self):
        """Reject vertices lying strictly inside a boundary edge (T-junctions)."""
        if len(self._boundary_edge_arr) == 0:
            return
        fv = self._float_vertices
        bedges = self._boundary_edge_arr
        sample = bedges[: min(64, len(bedges))]
        lengths = np.hypot(*(fv[sample[:, 1]] - fv[sample[:, 0]]).T)
        cell = max(float(np.median(lengths)), 1e-12)
        buckets: dict[tuple[int, int], list[int]] = {}
        keys = np.floor(fv / cell).astype(np.int64)
        for i, (kx, ky) in enumerate(keys):
            buckets.setdefault((int(kx), int(ky)), []).append(i)
        for u, v in bedges:
            u, v = int(u), int(v)
            (ux, uy), (vx, vy) = self.vertices[u], self.vertices[v]
            bx0 = int(math.floor(min(fv[u][0], fv[v][0]) / cell)) - 1
            bx1 = int(math.floor(max(fv[u][0], fv[v][0]) / cell)) + 1
            by0 = int(math.floor(min(fv[u][1], fv[v][1]) / cell)) - 1
            by1 = int(math.floor(max(fv[u][1], fv[v][1]) / cell)) + 1
            for bx in range(bx0, bx1 + 1):
                for by in range(by0, by1 + 1):
                    for w in buckets.get((bx, by), ()):
                        if w == u or w == v:
                            continue
                        wx, wy = self.vertices[w]
                        cr = (vx - ux) * (wy - uy) - (vy - uy) * (wx - ux)
                        if cr != 0:
                            continue
                        dot = (wx - ux) * (vx - ux) + (wy - uy) * (vy - uy)
                        ll = (vx - ux) ** 2 + (vy - uy) ** 2
                        if 0 < dot < ll:
                            raise MeshError(
                                f"vertex {w} lies inside boundary edge {(u, v)}: "
                                "hanging vertex"
                            )

    # -- views -------------------------------------------------------------

    @property
    def triangles(self) -> list[tuple[int, int, int]]:
        return [tuple(t) for t in self._tri_array.tolist()]

    @property
    def triangle_array(self) -> np.ndarray:
        return self._tri_array

    @property
    def float_vertices(self) -> np.ndarray:
        return self._float_vertices

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self._tri_array)

    @property
    def interior_edges(self) -> list[Edge]:
        return [tuple(e) for e in self._interior_edge_arr.tolist()]

    @property
    def boundary_edges(self) -> list[Edge]:
        return [tuple(e) for e in self._boundary_edge_arr.tolist()]

    @property
    def interior_edge_array(self) -> np.ndarray:
        """Interior edges (E, 2), lexicographically sorted vertex pairs."""
        return self._interior_edge_arr

    @property
    def interior_tri_array(self) -> np.ndarray:
        """For each interior edge the two incident triangles, smaller id first."""
        return self._interior_tri_arr

    @property
    def edge_table(self) -> dict[Edge, list[int]]:
        """Undirected edge -> incident triangle ids (lexicographic key order)."""
        if self._edge_table is None:
            table: dict[Edge, list[int]] = {}
            for (u, v), (t1, t2) in zip(self._interior_edge_arr.tolist(),
                                        self._interior_tri_arr.tolist()):
                table[(u, v)] = [t1, t2]
            for (u, v), t in zip(self._boundary_edge_arr.tolist(),
                                 self._boundary_tri_arr.tolist()):
                table[(u, v)] = [t]
            self._edge_table = dict(sorted(table.items()))
        return self._edge_table

    def triangle_areas(self) -> np.ndarray:
        return 0.5 * self._float_cross(self._tri_array)

    def total_area_exact(self) -> Fraction:
        """Exact sum of triangle areas (cached; see _trust_area)."""
        if self._area_exact is None:
            total = Fraction(0)
            for a, b, c in self._tri_array.tolist():
                total += self._cross_exact(a, b, c)
            self._area_exact = total / 2
        return self._area_exact

    def _trust_area(self, area: Fraction):
        # Used by builders that already verified the tiling area exactly.
        self._area_exact = area

    def bbox(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        xs = [x for x, _ in self.vertices]
        ys = [y for _, y in self.vertices]
        return min(xs), max(xs), min(ys), max(ys)

    def covers_bbox_exactly(self) -> bool:
        """True if the triangles tile the bounding rectangle without gaps.

        Combined with conformity (validated at construction) this certifies
        that the mesh covers the closed rectangle: areas add up exactly and
        every boundary edge lies on one of the four bounding lines.
        """
        if self._covers is not None:
            return self._covers
        x0, x1, y0, y1 = self.bbox()
        ok = self.total_area_exact() == (x1 - x0) * (y1 - y0)
        if ok:
            for u, v in self._boundary_edge_arr.tolist():
                (ux, uy), (vx, vy) = self.vertices[u], self.vertices[v]
                on_line = (
                    (ux == vx == x0) or (ux == vx == x1)
                    or (uy == vy == y0) or (uy == vy == y1)
                )
                if not on_line:
                    ok = False
                    break
        self._covers = ok
        return ok

    def edge_length(self, e: Edge) -> float:
        (ux, uy), (vx, vy) = self.vertices[e[0]], self.vertices[e[1]]
        return math.hypot(float(vx - ux), float(vy - uy))

    def edge_lengths(self) -> np.ndarray:
        """Lengths of the interior edges, in interior_edge_array order."""
        fv = self._float_vertices
        e = self._interior_edge_arr
        d = fv[e[:, 1]] - fv[e[:, 0]]
        return np.hypot(d[:, 0], d[:, 1])


def min_angle(mesh: Triangulation) -> float:
    """Minimum interior angle over all triangles, in radians.

    Two-phase: a vectorized float pass finds candidates near the minimum,
    then those few triangles are recomputed from exact rational coordinate
    differences.  The refinement makes the result invariant under exact
    power-of-two rescaling of triangles (self-similar meshes report
    bitwise-identical minima across refinement levels).
    """
    fv = mesh.float_vertices
    tris = mesh.triangle_array
    a, b, c = fv[tris[:, 0]], fv[tris[:, 1]], fv[tris[:, 2]]
    angs = []
    for p, q, r in ((a, b, c), (b, c, a), (c, a, b)):
        u = q - p
        v = r - p
        cr = np.abs(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])
        dt = u[:, 0] * v[:, 0] + u[:, 1] * v[:, 1]
        angs.append(np.arctan2(cr, dt))
    angs = np.stack(angs, axis=1)
    tri_min = angs.min(axis=1)
    approx = float(tri_min.min())
    cand = np.nonzero(tri_min <= approx + 1e-9)[0]
    best = math.inf
    verts = mesh.vertices
    for ti in cand.tolist():
        ia, ib, ic = (int(x) for x in tris[ti])
        pa, pb, pc = verts[ia], verts[ib], verts[ic]
        for (p, q, r) in ((pa, pb, pc), (pb, pc, pa), (pc, pa, pb)):
            ux, uy = float(q[0] - p[0]), float(q[1] - p[1])
            vx, vy = float(r[0] - p[0]), float(r[1] - p[1])
            ang = math.atan2(abs(ux * vy - uy * vx), ux * vx + uy * vy)
            if ang < best:
                best = ang
    return best


@dataclass
class CpwlFunction:
    """A continuous piecewise linear function: mesh plus one value per vertex."""

    mesh: Triangulation
    values: np.ndarray
    _gradients: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.n_vertices,):
            raise MeshError(
                f"values shape {self.values.shape} does not match "
                f"{self.mesh.n_vertices} vertices"
            )
        if not np.all(np.isfinite(self.values)):
            raise MeshError("non-finite vertex value")

    def gradients(self) -> np.ndarray:
        """Per-triangle gradient vectors, shape (n_triangles, 2)."""
        if self._gradients is None:
            fv = self.mesh.float_vertices
            tris = self.mesh.triangle_array
            pa, pb, pc = fv[tris[:, 0]], fv[tris[:, 1]], fv[tris[:, 2]]
            z = self.values
            # Solve [b-a; c-a] grad = [zb-za; zc-za] by Cramer's rule.
            e1 = pb - pa
            e2 = pc - pa
            r1 = z[tris[:, 1]] - z[tris[:, 0]]
            r2 = z[tris[:, 2]] - z[tris[:, 0]]
            det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
            gx = (r1 * e2[:, 1] - r2 * e1[:, 1]) / det
            gy = (r2 * e1[:, 0] - r1 * e2[:, 0]) / det
            self._gradients = np.stack([gx, gy], axis=1)
        return self._gradients

    def with_values(self, values) -> "CpwlFunction":
        return CpwlFunction(self.mesh, np.asarray(values, dtype=float))


def evaluate_on_grid(g: CpwlFunction, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate g on an n x n grid of cell-center probe points over its bbox.

    Point location scans each triangle's bounding box; intended for
    moderate mesh sizes (tests and error measurements).
    """
    x0, x1, y0, y1 = (float(v) for v in g.mesh.bbox())
    xs = x0 + (np.arange(n) + 0.5) * (x1 - x0) / n
    ys = y0 + (np.arange(n) + 0.5) * (y1 - y0) / n
    zz = np.full((n, n), np.nan)
    fv = g.mesh.float_vertices
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


def uniform_diagonal_mesh(n: int, diagonal: str = "main",
                          lo=Fraction(0), hi=Fraction(1)) -> Triangulation:
    """Axis-aligned n x n grid of the square [lo, hi]^2, every cell split by
    the same diagonal ("main" = lower-left to upper-right, "anti" = the other).
    """
    if n < 1:
        raise MeshError("n must be >= 1")
    if diagonal not in ("main", "anti"):
        raise MeshError("diagonal must be 'main' or 'anti'")
    lo = as_fraction(lo)
    hi = as_fraction(hi)
    h = (hi - lo) / n
    verts = [(lo + i * h, lo + j * h) for j in range(n + 1) for i in range(n + 1)]

    def vid(i, j):
        return j * (n + 1) + i

    tris = []
    for j in range(n):
        for i in range(n):
            p00, p10 = vid(i, j), vid(i + 1, j)
            p01, p11 = vid(i, j + 1), vid(i + 1, j + 1)
            if diagonal == "main":
                tris.append((p00, p10, p11))
                tris.append((p00, p11, p01))
            else:
                tris.append((p00, p10, p01))
                tris.append((p10, p11, p01))
    return Triangulation(verts, tris)


# -- serialization -----------------------------------------------------------


def mesh_document(g) -> dict:
    """JSON-ready dict for a Triangulation or CpwlFunction.

    Vertices are serialized as [num_x, den_x, num_y, den_y] strings so the
    save/load round trip is exact; values, when present, as decimal strings.
    """
    if isinstance(g, CpwlFunction):
        mesh, values = g.mesh, g.values
    else:
        mesh, values = g, None
    doc = {
        "vertices": [
            [str(x.numerator), str(x.denominator), str(y.numerator), str(y.denominator)]
            for x, y in mesh.vertices
        ],
        "triangles": [list(t) for t in mesh.triangles],
    }
    if values is not None:
        doc["values"] = [repr(float(v)) for v in values]
    return doc


def cpwl_from_document(doc) -> CpwlFunction:
    try:
        verts = [
            (Fraction(int(nx), int(dx)), Fraction(int(ny), int(dy)))
            for nx, dx, ny, dy in doc["vertices"]
        ]
        tris = [tuple(int(i) for i in t) for t in doc["triangles"]]
        values = [float(v) for v in doc["values"]] if "values" in doc else None
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise MeshError(f"malformed mesh document: {exc}") from exc
    if any(len(t) != 3 for t in tris):
        raise MeshError("malformed mesh document: a triangle needs exactly 3 vertex indices")
    mesh = Triangulation(verts, tris)
    if values is None:
        values = np.zeros(mesh.n_vertices)
    elif len(values) != mesh.n_vertices:
        raise MeshError("values array length does not match vertex count")
    return CpwlFunction(mesh, values)


def save_mesh(g, path) -> None:
    """Write a mesh (Triangulation or CpwlFunction) as JSON; exact round trip."""
    with open(path, "w") as f:
        json.dump(mesh_document(g), f)
        f.write("\n")


def load_mesh(path) -> CpwlFunction:
    """Load a mesh JSON file; missing values default to zero."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise MeshError(f"cannot read mesh file {path}: {exc}") from exc
    return cpwl_from_document(doc)


def render_svg(g, path, width: int = 800) -> None:
    """Render a mesh as an SVG, one polygon per triangle.

    When g is a CpwlFunction the faces are filled by a blue-red ramp over
    the vertex-value range; a bare Triangulation renders as wireframe.
    """
    if isinstance(g, CpwlFunction):
        mesh, values = g.mesh, g.values
    else:
        mesh, values = g, None
    x0, x1, y0, y1 = (float(v) for v in mesh.bbox())
    span = max(x1 - x0, y1 - y0, 1e-12)
    scale = width / span
    height = int(math.ceil((y1 - y0) * scale)) or 1
    fv = mesh.float_vertices

    def sx(x):
        return (x - x0) * scale

    def sy(y):
        return (y1 - y) * scale  # flip so +y points up

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    if values is not None:
        vmin, vmax = float(values.min()), float(values.max())
        vspan = (vmax - vmin) or 1.0
    for a, b, c in mesh.triangle_array:
        pts = " ".join(f"{sx(fv[i][0]):.3f},{sy(fv[i][1]):.3f}" for i in (a, b, c))
        if values is not None:
            t = ((values[a] + values[b] + values[c]) / 3.0 - vmin) / vspan
            r = int(round(255 * t))
            bl = int(round(255 * (1 - t)))
            fill = f"rgb({r},64,{bl})"
        else:
            fill = "none"
        lines.append(
            f'<polygon points="{pts}" fill="{fill}" stroke="black" stroke-width="0.5"/>'
        )
    lines.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(lines))
        f.write("\n")
