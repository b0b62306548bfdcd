"""Conforming triangle meshes with exact rational vertices, and CPWL functions.

A mesh stores its vertices once, as an integer (V, 2) numerator array over
one common Python-int denominator, so vertex identity, orientation,
conformity, tiling areas and boundary alignment are integer array
expressions; floating point enters only at numeric evaluation boundaries
(gradients, lengths, angles).
"""

from __future__ import annotations

import gc
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import MeshError

Edge = tuple[int, int]


def _column_extremes(pts: np.ndarray) -> tuple[int, int, int, int]:
    """(xmin, xmax, ymin, ymax) of the integer (n, 2) array, as Python ints,
    from four 1-D column reductions (numpy reduces an (n, 2) array along
    axis 0 far more slowly)."""
    x, y = pts.T
    return int(x.min()), int(x.max()), int(y.min()), int(y.max())


def _argsort(key: np.ndarray, kmax: int) -> np.ndarray:
    """np.argsort(key, kind="stable") of integer keys in [0, kmax].

    When (kmax + 1) * n < 2^63 the keys are packed with their index,
    key * n + i, so one plain sort (numpy's vectorized sort) orders them
    with ties in index order; otherwise, and for Python-int keys, the
    stable argsort itself.
    """
    n = len(key)
    if key.dtype == object or (kmax + 1) * n >= 2**63:
        return np.argsort(key, kind="stable")
    return np.sort(key * n + np.arange(n)) % n


def _first_occurrence(pts: np.ndarray) -> np.ndarray:
    """For each row of the integer (n, 2) array, the index of the first equal row.

    Rows are ordered by one packed int64 key (x - xlo) * (yspan + 1) + (y - ylo)
    when it fits, else, and for Python-int rows, by a two-key lexsort.
    """
    x, y = pts.T
    xlo, xhi, ylo, yhi = _column_extremes(pts)
    size = (xhi - xlo + 1) * (yhi - ylo + 1)
    if pts.dtype != object and size < 2**63:
        key = (x - xlo) * (yhi - ylo + 1) + (y - ylo)
        order = _argsort(key, size - 1)  # equal rows keep index order
        s = key[order]
        start = np.r_[True, s[1:] != s[:-1]]
    else:
        order = np.lexsort((y, x))
        s = pts[order]
        start = np.r_[True, (s[1:] != s[:-1]).any(axis=1)]
    first = np.empty(len(pts), dtype=np.int64)
    first[order] = order[start][np.cumsum(start) - 1]
    return first


def _ranges(counts: np.ndarray) -> np.ndarray:
    """Concatenation of arange(c) for every c in counts."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


class Triangulation:
    """A conforming 2D triangulation with exact rational vertex coordinates.

    `Triangulation(vertices, triangles, den)` puts vertex k at
    vertices[k] / den, where `vertices` holds integer numerators, shape
    (V, 2): an integer-dtype array, or an array or sequence of Python or
    numpy ints.  Floats, Fractions, strings and booleans raise MeshError
    rather than being truncated.

    Construction validates the mesh: distinct vertex coordinates, positive
    (counterclockwise, auto-normalized) triangle orientation, no duplicate
    triangles, every undirected edge shared by at most two triangles with
    consistent orientation, and no vertex lying in the relative interior of
    a boundary edge (T-junction scan).  Nonconforming input raises MeshError.

    A validated mesh is a read-only record.  Its attributes:

    - `numerators`: integer vertex numerators (V, 2) over `den`, a Python int;
    - `float_vertices`: the vertices as floats (V, 2);
    - `triangle_array`: the CCW triangles (T, 3);
    - `interior_edge_array`: interior edges (E, 2), lexicographically sorted
      vertex pairs;
    - `interior_tri_array`: for each interior edge its two incident
      triangles (E, 2), smaller id first;
    - `n_vertices` and `n_triangles`: V and T.

    Every array it holds is non-writeable and no attribute can be set or
    deleted, so such a write raises instead of bypassing the checks above.
    """

    def __init__(self, vertices, triangles: Sequence, den: int = 1):
        if isinstance(den, bool) or not isinstance(den, (int, np.integer)) or den < 1:
            raise MeshError("the denominator must be a positive integer")
        try:
            # A sequence keeps its Python ints: numpy would infer float64
            # for values in [2^63, 2^64).
            num = (vertices if isinstance(vertices, np.ndarray)
                   else np.array(vertices, dtype=object))
        except (TypeError, ValueError) as exc:
            raise MeshError(f"malformed vertices: {exc}") from None
        if num.ndim != 2 or num.shape[1] != 2:
            raise MeshError("vertices must be coordinate pairs")
        nv = len(num)
        if nv < 3:
            raise MeshError("a triangulation needs at least 3 vertices")
        kinds = set(map(type, num.flat)) if num.dtype.kind == "O" else set()
        bad = {t.__name__ for t in kinds
               if t is bool or not issubclass(t, (int, np.integer))}
        if num.dtype.kind not in "iuO":
            bad.add(num.dtype.name)
        if bad:
            raise MeshError("vertex coordinates must be integer numerators, "
                            f"not {', '.join(sorted(bad))}")
        if kinds - {int}:
            # numpy ints beside Python ints would wrap on overflow
            num = np.frompyfunc(int, 1, 1)(num)
        try:
            tris = np.array(triangles, dtype=np.int64)
        except (OverflowError, TypeError, ValueError) as exc:
            raise MeshError(f"malformed triangles: {exc}") from None
        if tris.size == 0:
            raise MeshError("a triangulation needs at least one triangle")
        if tris.ndim != 2 or tris.shape[1] != 3:
            raise MeshError("a triangle needs exactly 3 vertex indices")
        if tris.min() < 0 or tris.max() >= nv:
            raise MeshError("triangle references a missing vertex")

        # int64 is exact when numerators and den stay below 2^53 (so both are
        # exact floats and num / den rounds once) and every orientation or dot
        # product of coordinate differences (at most 2 w^2, w the coordinate
        # range), summed over all triangles, stays below 2^63; otherwise the
        # same expressions run on Python ints.
        xlo, xhi, ylo, yhi = self._extremes = _column_extremes(num)
        w = max(xhi, yhi) - min(xlo, ylo)
        exact_int64 = (max(-xlo, -ylo, xhi, yhi, den) < 2**53
                       and 2 * w * w * len(tris) < 2**63)
        self.numerators = num = num.astype(np.int64 if exact_int64 else object)
        self.den = den = int(den)
        first = _first_occurrence(num)
        dup = np.flatnonzero(first != np.arange(nv))
        if len(dup):
            k = int(dup[0])
            raise MeshError(f"duplicate vertex coordinates at indices {first[k]} and {k}")
        try:
            self.float_vertices = np.asarray(num / den, dtype=float)
        except OverflowError:
            raise MeshError("vertex coordinates overflow float") from None

        if ((tris[:, 0] == tris[:, 1]) | (tris[:, 1] == tris[:, 2])
                | (tris[:, 0] == tris[:, 2])).any():
            raise MeshError("triangle repeats a vertex")

        # Orientation: exact, normalized to CCW, on 1-D coordinate columns.
        x, y = num.T
        t0, t1, t2 = tris.T
        xa, ya = x[t0], y[t0]
        cross = (x[t1] - xa) * (y[t2] - ya) - (y[t1] - ya) * (x[t2] - xa)
        zero = np.flatnonzero(cross == 0)
        if len(zero):
            raise MeshError(f"degenerate (zero-area) triangle {tris[zero[0]].tolist()}")
        flip = cross < 0
        tris[flip, 1:] = tris[flip, 2:0:-1]
        self.triangle_array = tris
        self._area2 = int(np.abs(cross).sum())  # twice the exact area, over den^2

        # Directed-edge conformity by one sort of the keys
        # 2 * (min * V + max) + direction: a repeated key is a directed edge
        # used twice (two copies of one CCW triangle share all three).  With
        # distinct keys an undirected edge has at most two triangles, one per
        # direction, adjacent in key order.  Directed edge j * T + t is edge j
        # of triangle t.
        t_count = len(tris)
        src, dst = np.concatenate([t0, t1, t2]), np.concatenate([t1, t2, t0])
        keys = 2 * (np.minimum(src, dst) * nv + np.maximum(src, dst)) + (src > dst)
        order = _argsort(keys, 2 * nv * nv - 1)
        sk = keys[order]
        if (sk[1:] == sk[:-1]).any():
            raise MeshError(
                "a directed edge is used twice: duplicate, overlapping or "
                "inconsistently oriented triangles"
            )
        uk = sk >> 1
        pair = np.flatnonzero(uk[1:] == uk[:-1])  # interior edge at pair, pair + 1
        single = np.ones(len(uk), dtype=bool)
        single[pair] = single[pair + 1] = False
        ta, tb = order[pair] % t_count, order[pair + 1] % t_count
        self.interior_edge_array = np.stack(np.divmod(uk[pair], nv), axis=1)
        self.interior_tri_array = np.stack([np.minimum(ta, tb), np.maximum(ta, tb)], axis=1)
        self._boundary_edge_arr = np.stack(np.divmod(uk[single], nv), axis=1)
        self._check_hanging_vertices()
        self.n_vertices, self.n_triangles = nv, t_count
        for a in (num, self.float_vertices, tris, self.interior_edge_array,
                  self.interior_tri_array, self._boundary_edge_arr):
            a.flags.writeable = False
        self._sealed = True

    def __setattr__(self, name, value):
        if self.__dict__.get("_sealed"):
            raise AttributeError(f"a validated Triangulation is read-only: cannot set {name!r}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise AttributeError(f"a validated Triangulation is read-only: cannot delete {name!r}")

    def _check_hanging_vertices(self):
        """Reject vertices lying strictly inside a boundary edge (T-junctions).

        Vertices are binned on an integer grid whose cell is the median
        boundary-edge extent; each boundary edge is tested exactly against
        the vertices in the bins its bounding box covers.  Only bin columns
        that hold a vertex are visited, so the work depends on the vertex
        and edge counts, not on how much longer than the median an edge is.
        """
        bedges = self._boundary_edge_arr
        num = self.numerators
        p, q = num[bedges[:, 0]], num[bedges[:, 1]]
        lo, hi = np.minimum(p, q), np.maximum(p, q)
        extent = np.sort((hi - lo).max(axis=1))
        cell = max(int(extent[len(extent) // 2]), 1)
        xlo, xhi, ylo, yhi = self._extremes
        corner = np.array([xlo, ylo], dtype=num.dtype)
        vbin = (num - corner) // cell
        height = (yhi - ylo) // cell + 1
        vkey = vbin[:, 0] * height + vbin[:, 1]
        vorder = _argsort(vkey, ((xhi - xlo) // cell + 1) * height - 1)
        skey = vkey[vorder]
        vcol = vbin[vorder, 0]
        cols = vcol[np.r_[True, vcol[1:] != vcol[:-1]]]  # occupied, ascending
        # A point of a segment lies in a bin between those of its endpoints:
        # the edge's occupied columns are cols[c0:c0 + ncol].
        lo, hi = (lo - corner) // cell, (hi - corner) // cell
        c0 = np.searchsorted(cols, lo[:, 0], "left")
        ncol = np.searchsorted(cols, hi[:, 0], "right") - c0
        edge = np.repeat(np.arange(len(bedges)), ncol)
        col = cols[c0[edge] + _ranges(ncol)]
        start = np.searchsorted(skey, col * height + lo[edge, 1], "left")
        stop = np.searchsorted(skey, col * height + hi[edge, 1], "right")
        edge = np.repeat(edge, stop - start)
        w = vorder[np.repeat(start, stop - start) + _ranges(stop - start)]
        u, v = bedges[edge, 0], bedges[edge, 1]
        d, r = num[v] - num[u], num[w] - num[u]
        dot = (d * r).sum(axis=1)
        hanging = ((d[:, 0] * r[:, 1] == d[:, 1] * r[:, 0])
                   & (dot > 0) & (dot < (d * d).sum(axis=1)))
        if hanging.any():
            k = int(np.flatnonzero(hanging)[0])
            raise MeshError(
                f"vertex {w[k]} lies inside boundary edge {(int(u[k]), int(v[k]))}: "
                "hanging vertex"
            )

    def covers_bbox_exactly(self) -> bool:
        """True if the triangles tile the bounding rectangle without gaps.

        Combined with conformity (validated at construction) this certifies
        that the mesh covers the closed rectangle: areas add up exactly and
        every boundary edge lies on one of the four bounding lines.
        """
        xlo, xhi, ylo, yhi = self._extremes
        x, y = (c[self._boundary_edge_arr] for c in self.numerators.T)  # (B, 2 endpoints)
        on_line = ((x == xlo).all(axis=1) | (x == xhi).all(axis=1)
                   | (y == ylo).all(axis=1) | (y == yhi).all(axis=1))
        return self._area2 == 2 * (xhi - xlo) * (yhi - ylo) and bool(on_line.all())


def min_angle(mesh: Triangulation) -> float:
    """Minimum interior angle over all triangles, in radians.

    Two-phase: a vectorized float pass finds candidates near the minimum,
    then each distinct candidate shape is recomputed from exact integer
    coordinate differences divided by the denominator.  The float pass
    takes one angle per triangle, the one opposite its shortest side, which
    is the smallest: all three angles share the doubled area |cross|, so
    the smallest has the largest dot product (cot = dot / |cross|).  The
    refinement makes the result invariant under exact power-of-two
    rescaling of triangles (self-similar meshes report bitwise-identical
    minima across refinement levels).
    """
    x, y = mesh.float_vertices.T
    tris = mesh.triangle_array
    t0, t1, t2 = tris.T
    xa, ya, xb, yb, xc, yc = x[t0], y[t0], x[t1], y[t1], x[t2], y[t2]
    # Edge vectors ab, ac and bc, by coordinate.
    ux, uy, vx, vy, wx, wy = xb - xa, yb - ya, xc - xa, yc - ya, xc - xb, yc - yb
    # The dot products at a, b and c: ab.ac, ba.bc and ca.cb.
    dot = np.maximum(np.maximum(ux * vx + uy * vy, -(ux * wx + uy * wy)), vx * wx + vy * wy)
    tri_min = np.arctan2(np.abs(ux * vy - uy * vx), dot)
    approx = float(tri_min.min())
    cand = tris[tri_min <= approx + 1e-9]
    num, den = mesh.numerators, mesh.den
    first = num[cand[:, 0]]
    d = np.concatenate([num[cand[:, 1]] - first, num[cand[:, 2]] - first], axis=1)
    # Translated copies of one triangle share their exact edge vectors.
    d = d[np.lexsort(d.T)]
    d = d[np.r_[True, (d[1:] != d[:-1]).any(axis=1)]]
    ab, ac = d[:, :2], d[:, 2:]
    best = math.inf
    # The angles at a, b and c, from exact integer edge vectors.
    for u, v in ((ab, ac), (ac - ab, -ab), (-ac, ab - ac)):
        us = (u / den).tolist()
        vs = (v / den).tolist()
        for (ux, uy), (vx, vy) in zip(us, vs):
            best = min(best, math.atan2(abs(ux * vy - uy * vx), ux * vx + uy * vy))
    return best


class _GradientStencil:
    """The geometry of the per-triangle gradient: for each triangle (a, b, c)
    the edge vectors e1 = b - a and e2 = c - a, by coordinate, and det =
    e1 x e2.  The coordinates are used as they are when their half extent
    lies in [2^-500, 2^500], where no product of two edge vectors can
    overflow.  Outside it they are scaled by 2^-c, c the binary exponent of
    the largest coordinate extent, so the products stay near 1, and det is
    stored times 2^c, that is as 2^-c times the true det: the Cramer
    quotients of `gradients`, whose numerators carry one factor 2^-c, are
    then the true gradients.  The power-of-two scaling is exact except for
    the coordinates it pushes below float's normal range, which only a mesh
    wider than 2^500 can hold.  It depends on the mesh only, so a caller
    that differentiates many value vectors on one mesh builds it once, and
    its arrays are read-only.  A triangle whose float det is 0 (its
    vertices coincide after rounding) raises MeshError."""

    def __init__(self, mesh: Triangulation):
        self.t0, self.t1, self.t2 = t0, t1, t2 = np.ascontiguousarray(mesh.triangle_array.T)
        x, y = mesh.float_vertices.T
        # Half extents: the full one can overflow for coordinates of both signs.
        half = max(float(x.max() * 0.5 - x.min() * 0.5), float(y.max() * 0.5 - y.min() * 0.5))
        c = 0 if 2.0**-500 <= half <= 2.0**500 else math.frexp(half)[1] + 1
        x, y = np.ldexp(x, -c), np.ldexp(y, -c)
        self.e1x, self.e1y = x[t1] - x[t0], y[t1] - y[t0]
        self.e2x, self.e2y = x[t2] - x[t0], y[t2] - y[t0]
        self.det = np.ldexp(self.e1x * self.e2y - self.e1y * self.e2x, c)
        for a in (self.t0, self.t1, self.t2, self.e1x, self.e1y, self.e2x, self.e2y, self.det):
            a.flags.writeable = False
        flat = np.flatnonzero(self.det == 0)
        if len(flat):
            raise MeshError(f"triangle {mesh.triangle_array[flat[0]].tolist()} has zero "
                            "area in floating point: its vertices coincide after rounding")

    def gradients(self, z: np.ndarray) -> np.ndarray:
        """Per-triangle gradients (T, 2) of the vertex values z."""
        za = z[self.t0]
        r1 = z[self.t1] - za
        r2 = z[self.t2] - za
        grads = np.empty((len(self.det), 2))
        # Solve [b-a; c-a] grad = [zb-za; zc-za] by Cramer's rule.
        np.divide(r1 * self.e2y - r2 * self.e1y, self.det, out=grads[:, 0])
        np.divide(r2 * self.e1x - r1 * self.e2x, self.det, out=grads[:, 1])
        return grads


@dataclass(frozen=True, eq=False)
class CpwlFunction:
    """A continuous piecewise linear function: mesh plus one value per vertex.

    A read-only record: `values` is a non-writeable float copy of the values
    given, and neither attribute can be rebound."""

    mesh: Triangulation
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.shape != (self.mesh.n_vertices,):
            raise MeshError(
                f"values shape {values.shape} does not match "
                f"{self.mesh.n_vertices} vertices"
            )
        if not np.all(np.isfinite(values)):
            raise MeshError("non-finite vertex value")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def gradients(self) -> np.ndarray:
        """Per-triangle gradient vectors, shape (n_triangles, 2)."""
        return _GradientStencil(self.mesh).gradients(self.values)

    def with_values(self, values) -> "CpwlFunction":
        return CpwlFunction(self.mesh, values)


def uniform_diagonal_mesh(n: int, diagonal: str = "main") -> Triangulation:
    """Axis-aligned n x n grid of the unit square, every cell split by the
    same diagonal ("main" = lower-left to upper-right, "anti" = the other).
    """
    if n < 1:
        raise MeshError("n must be >= 1")
    if diagonal not in ("main", "anti"):
        raise MeshError("diagonal must be 'main' or 'anti'")
    coords = np.arange(n + 1)
    num = np.stack([np.tile(coords, n + 1), np.repeat(coords, n + 1)], axis=1)
    # Cells row by row; p00 is the lower-left corner of cell (i, j).
    p00 = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    p10, p01, p11 = p00 + 1, p00 + n + 1, p00 + n + 2
    if diagonal == "main":
        tris = [p00, p10, p11, p00, p11, p01]
    else:
        tris = [p00, p10, p01, p10, p11, p01]
    return Triangulation(num, np.stack(tris, axis=1).reshape(-1, 3), n)


# -- serialization -----------------------------------------------------------


def mesh_document(g) -> dict:
    """JSON-ready dict for a Triangulation or CpwlFunction.

    Vertices are serialized as [num_x, den_x, num_y, den_y] strings, each
    coordinate in lowest terms, so the save/load round trip is exact; values,
    when present, as decimal strings.
    """
    if isinstance(g, CpwlFunction):
        mesh, values = g.mesh, g.values
    else:
        mesh, values = g, None
    num = mesh.numerators
    common = np.gcd(num, mesh.den)
    reduced = np.stack([num // common, mesh.den // common], axis=2).reshape(-1, 4)
    doc = {
        "vertices": [list(map(str, row)) for row in reduced.tolist()],
        "triangles": mesh.triangle_array.tolist(),
    }
    if values is not None:
        doc["values"] = [repr(float(v)) for v in values]
    return doc


def cpwl_from_document(doc) -> CpwlFunction:
    """The CPWL function of a mesh document, as written by `mesh_document`.

    Numerators, denominators and triangle indices must be decimal strings
    or JSON integers, parsed like int(); a float or a boolean there, which
    int() would truncate, and a boolean value, which float() would read as
    1.0 or 0.0, raise MeshError like every other malformed entry.  Vertex
    rows and triangles are each parsed in one int64 conversion; vertex
    entries or scaled numerators beyond int64 take an exact Python-int path.
    """
    try:
        vertices, triangles = doc["vertices"], doc["triangles"]
        kinds = set(map(type, chain.from_iterable(chain(vertices, triangles))))
        if not kinds <= {int, str}:
            raise MeshError(
                "malformed mesh document: "
                f"{', '.join(sorted(k.__name__ for k in kinds - {int, str}))} "
                "where an integer or a decimal string is expected")
        try:
            rows = np.array(vertices, dtype=np.int64)
        except OverflowError:
            rows = np.frompyfunc(int, 1, 1)(np.array(vertices, dtype=object))
        if rows.ndim != 2 or rows.shape[1] != 4:
            raise MeshError("malformed mesh document: a vertex needs "
                            "[num_x, den_x, num_y, den_y]")
        # A string row would pass the type scan one character at a time.
        if not (set(map(type, triangles)) <= {list, tuple}
                and set(map(len, triangles)) <= {3}):
            raise MeshError("a triangle needs a list of exactly 3 vertex indices")
        tris = np.fromiter(chain.from_iterable(triangles), dtype=np.int64).reshape(-1, 3)
        values = [float(v) for v in doc["values"]] if "values" in doc else None
        if values is not None and bool in set(map(type, doc["values"])):
            raise MeshError("malformed mesh document: bool where a value is expected")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MeshError(f"malformed mesh document: {exc}") from exc
    num, dens = rows[:, [0, 2]], rows[:, [1, 3]]
    if (dens == 0).any():
        raise MeshError("malformed mesh document: zero denominator")
    d = np.sort(dens, axis=None)
    den = math.lcm(*d[np.r_[True, d[1:] != d[:-1]]].tolist())  # lcm ignores signs
    # int64 holds den and every n * (den // d) when max(|n|, 1) * den < 2^63.
    lo, hi = int(num.min()), int(num.max())
    if num.dtype == object or max(-lo, hi, 1) * den >= 2**63:
        num, dens = num.astype(object), dens.astype(object)
    mesh = Triangulation(num * (den // dens), tris, den)
    if values is None:
        values = np.zeros(mesh.n_vertices)
    elif len(values) != mesh.n_vertices:
        raise MeshError("values array length does not match vertex count")
    return CpwlFunction(mesh, values)


def save_mesh(g, path) -> None:
    """Write a mesh (Triangulation or CpwlFunction) as JSON; exact round trip."""
    with open(path, "w") as f:
        f.write(json.dumps(mesh_document(g)))
        f.write("\n")


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector, restoring the caller's state."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


# The last mesh file parsed successfully, as (text, function); see load_mesh.
_last_load: tuple[str, CpwlFunction] | None = None


def load_mesh(path) -> CpwlFunction:
    """Load a UTF-8 mesh JSON file; missing values default to zero.

    The file is read on every call.  When its text equals that of the last
    file parsed successfully, the function built then is returned: parsing
    is a pure function of the text, and the function is a read-only record.
    Any other text is decoded and validated in full, and on success replaces
    the remembered one; a failed load is not remembered.

    The decoded document can hold tens of thousands of small lists, enough
    to set off collector passes over them while they are built; it is
    acyclic and freed by reference counting, so the decode runs with the
    collector paused and the document is freed before it resumes.
    """
    global _last_load
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise MeshError(f"cannot read mesh file {path}: {exc}") from exc
    last = _last_load  # read once: another thread may replace it meanwhile
    if last is not None and last[0] == text:
        return last[1]
    with _collector_paused():
        try:
            doc = json.loads(text)
        # RecursionError: arrays or objects nested deeper than the decoder follows.
        except (json.JSONDecodeError, RecursionError) as exc:
            raise MeshError(f"cannot read mesh file {path}: {exc}") from exc
        g = cpwl_from_document(doc)
        del doc  # freed now: alive when the collector resumes, it would be scanned
    _last_load = (text, g)
    return g


def render_svg(g, path) -> None:
    """Render a mesh as an SVG 800 units wide, one polygon per triangle.

    When g is a CpwlFunction the faces are filled by a blue-red ramp over
    the vertex-value range; a bare Triangulation renders as wireframe.
    """
    if isinstance(g, CpwlFunction):
        mesh, values = g.mesh, g.values
    else:
        mesh, values = g, None
    fv = mesh.float_vertices
    x, y = fv.T
    x0, x1, y0, y1 = float(x.min()), float(x.max()), float(y.min()), float(y.max())
    width = 800
    scale = width / max(x1 - x0, y1 - y0, 1e-12)
    height = int(math.ceil((y1 - y0) * scale)) or 1

    def sx(x):
        return (x - x0) * scale

    def sy(y):
        return (y1 - y) * scale  # flip so +y points up

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    if values is not None:
        # The ramp runs on the values scaled by the exact power of two that
        # puts max |value| in [1/2, 1), so no sum or span overflows.
        values = np.ldexp(values, -math.frexp(float(np.max(np.abs(values))))[1])
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
