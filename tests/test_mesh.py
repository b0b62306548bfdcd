import gc
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    edge_table,
    evaluate_on_grid,
    fraction_pairs,
    grid_hat,
    jittered_document,
    random_lattice_mesh,
    same_vertices,
    subprocess_env,
)
from hstv import cli
from hstv.errors import MeshError
from hstv.htv import htv_cpwl
from hstv.mesh import (
    CpwlFunction,
    Triangulation,
    _argsort,
    _first_occurrence,
    cpwl_from_document,
    load_mesh,
    mesh_document,
    min_angle,
    render_svg,
    save_mesh,
    uniform_diagonal_mesh,
)


def assert_interior_arrays_match_table(mesh: Triangulation) -> dict:
    """interior_edge_array and interior_tri_array hold exactly the edges
    with two incident triangles in the conftest edge table, in key order."""
    table = edge_table(mesh)
    interior = [(e, t) for e, t in table.items() if len(t) == 2]
    assert mesh.interior_edge_array.reshape(-1, 2).tolist() == [list(e) for e, _ in interior]
    assert mesh.interior_tri_array.reshape(-1, 2).tolist() == [t for _, t in interior]
    return table


def test_adjacency_square_with_diagonal(diag_square):
    table = assert_interior_arrays_match_table(diag_square)
    assert len(table) == 5
    assert diag_square.interior_edge_array.tolist() == [[0, 2]]
    assert diag_square.interior_tri_array.tolist() == [[0, 1]]


def test_adjacency_single_triangle():
    mesh = Triangulation([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    table = assert_interior_arrays_match_table(mesh)
    assert sorted(len(t) for t in table.values()) == [1, 1, 1]
    assert len(mesh.interior_edge_array) == 0


def test_adjacency_two_triangles_sharing_a_vertex():
    mesh = Triangulation(
        [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2)],
        [(0, 1, 2), (3, 4, 5)],
    )
    assert len(assert_interior_arrays_match_table(mesh)) == 6
    assert len(mesh.interior_edge_array) == 0


def test_adjacency_random_meshes():
    rng = np.random.default_rng(28)
    for mesh in (random_lattice_mesh(rng), random_lattice_mesh(rng, 24),
                 uniform_diagonal_mesh(3, "anti")):
        table = assert_interior_arrays_match_table(mesh)
        assert all(len(t) in (1, 2) for t in table.values())


DIRECTED_EDGE_TWICE = ("a directed edge is used twice: duplicate, overlapping or "
                       "inconsistently oriented triangles")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 24), st.sampled_from([32, 64, 2**20]),
       st.data())
def test_structure_matches_edge_table(seed, n_interior, denom, data):
    """Edge and triangle arrays of a random lattice mesh whose triangles
    come in shuffled order, with rotated vertex order and mixed
    orientations, against the conftest edge-table loop; then the mesh with
    one triangle repeated, repeated reversed, or a third triangle on one
    interior edge is rejected."""
    base = random_lattice_mesh(np.random.default_rng(seed), n_interior, denom)
    tris = base.triangle_array.tolist()
    tris = [tris[t] for t in data.draw(st.permutations(range(len(tris))))]
    for t, (turn, flip) in enumerate(data.draw(st.lists(
            st.tuples(st.integers(0, 2), st.booleans()),
            min_size=len(tris), max_size=len(tris)))):
        tri = tris[t][turn:] + tris[t][:turn]
        tris[t] = tri[::-1] if flip else tri
    mesh = Triangulation(base.numerators, tris, denom)
    # Triangles keep their input order and vertices, oriented counterclockwise.
    x, y = mesh.numerators.T
    a, b, c = mesh.triangle_array.T
    assert ((x[b] - x[a]) * (y[c] - y[a]) - (y[b] - y[a]) * (x[c] - x[a]) > 0).all()
    assert [sorted(t) for t in mesh.triangle_array.tolist()] == [sorted(t) for t in tris]
    table = assert_interior_arrays_match_table(mesh)
    assert mesh._boundary_edge_arr.tolist() == [list(e) for e, t in table.items()
                                                if len(t) == 1]
    # Repeat a triangle as given or reversed, or add a third triangle on an
    # interior edge: its apex is a vertex off the edge's line and off both
    # incident triangles.
    t = data.draw(st.integers(0, len(tris) - 1))
    (u, v), pair = data.draw(st.sampled_from(
        [(e, tt) for e, tt in table.items() if len(tt) == 2]))
    apexes = [w for w in range(mesh.n_vertices)
              if w not in tris[pair[0]] + tris[pair[1]]
              and (x[v] - x[u]) * (y[w] - y[u]) != (y[v] - y[u]) * (x[w] - x[u])]
    bad = data.draw(st.sampled_from([tris[t], tris[t][::-1], [u, v, data.draw(
        st.sampled_from(apexes))]]))
    at = data.draw(st.integers(0, len(tris)))
    with pytest.raises(MeshError) as exc:
        Triangulation(base.numerators, tris[:at] + [bad] + tris[at:], denom)
    assert str(exc.value) == DIRECTED_EDGE_TWICE


def test_orientation_normalized_and_duplicates_rejected():
    mesh = Triangulation([(0, 0), (1, 0), (0, 1)], [(0, 2, 1)])  # CW input
    assert mesh.triangle_array.tolist() == [[0, 1, 2]]
    with pytest.raises(MeshError):
        Triangulation([(0, 0), (1, 0), (0, 1), (1, 1)], [(0, 1, 2), (2, 1, 0)])
    with pytest.raises(MeshError):
        Triangulation([(0, 0), (1, 0), (2, 0)], [(0, 1, 2)])  # collinear
    with pytest.raises(MeshError):
        Triangulation([(0, 0), (1, 0), (0, 0)], [(0, 1, 2)])  # duplicate vertex


def test_more_than_two_incident_triangles_rejected():
    verts = [(0, 0), (1, 0), (0, 1), (0, -1), (1, 1)]
    tris = [(0, 1, 2), (0, 3, 1), (0, 1, 4)]
    with pytest.raises(MeshError, match="directed edge"):
        Triangulation(verts, tris)


@pytest.mark.parametrize("vertices", [
    np.array([[Fraction(1, 2), 0], [1, 0], [0, 1]], dtype=object),
    np.array([[0.5, 0], [1, 0], [0, 1]], dtype=object),
    np.array([[0.5, 0.0], [1.75, 0.0], [0.0, 1.0]]),
    np.array([[True, False], [False, False], [False, True]]),
    [(Fraction(1, 2), Fraction(0)), (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))],
    [("1", "0"), ("0", "0"), ("0", "1")],
], ids=["object-fraction", "object-float", "float64", "bool", "fraction-pairs", "strings"])
def test_non_integer_vertices_rejected(vertices):
    """Vertices are integer numerators over den; anything else raises
    instead of being truncated (Fraction(1, 2) and 0.5 to 0)."""
    with pytest.raises(MeshError, match="integer numerators"):
        Triangulation(vertices, [(0, 1, 2)])


class _Unconvertible:
    """A vertex container numpy cannot turn into an array."""

    def __array__(self, dtype=None, copy=None):
        raise ValueError("no array form")


SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]


@pytest.mark.parametrize("vertices, triangles, message", [
    (_Unconvertible(), [(0, 1, 2)], "malformed vertices: no array form"),
    ([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 2)], "vertices must be coordinate pairs"),
    ([0, 1, 2], [(0, 1, 2)], "vertices must be coordinate pairs"),
    ([(0, 0), (1, 0)], [(0, 1, 1)], "a triangulation needs at least 3 vertices"),
    (SQUARE, [(0, 1, "x")], "malformed triangles: "),
    (SQUARE, [(0, 1, 2**70)], "malformed triangles: "),
    (SQUARE, [], "a triangulation needs at least one triangle"),
    (SQUARE, [(0, 1, 2, 3)], "a triangle needs exactly 3 vertex indices"),
    (SQUARE, [0, 1, 2], "a triangle needs exactly 3 vertex indices"),
    ([(0, 0), (10**400, 0), (10**400, 10**400), (0, 10**400)], [(0, 1, 2), (0, 2, 3)],
     "vertex coordinates overflow float"),
], ids=["unconvertible", "triples", "flat", "two-vertices", "string-index",
        "huge-index", "no-triangles", "four-indices", "flat-triangles", "beyond-float"])
def test_malformed_arrays_rejected(vertices, triangles, message):
    with pytest.raises(MeshError) as exc:
        Triangulation(vertices, triangles)
    assert str(exc.value).startswith(message), exc.value


def test_denominator_must_be_a_positive_integer():
    for den in (0, -2, 2.0, Fraction(1, 2), True):
        with pytest.raises(MeshError, match="denominator"):
            Triangulation([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)], den)


def test_int_sequences_stay_exact():
    """Python ints beyond int64, which numpy alone would turn into float64
    (2^63) or keep as objects (2^70), and numpy ints, all stay exact."""
    for big in (2**63, 2**70):
        verts = [(0, big), (np.int64(1), 0), (0, 1)]
        mesh = Triangulation(verts, [(0, 1, 2)], np.int64(3))
        assert mesh.numerators.dtype == object and mesh.den == 3
        assert mesh.numerators.tolist() == [[0, big], [1, 0], [0, 1]]


def test_mesh_round_trip_creates_no_fraction(tmp_path, monkeypatch):
    """Construction from integer arrays, serialization and loading work on
    numerators over den alone: no Fraction is created per vertex."""
    from hstv.approx import assemble_global, build_frames, interpolate, plan_mesh
    from hstv.fields import parse_field

    fld = parse_field("quadratic:iso")
    mesh = assemble_global(plan_mesh(build_frames(fld, 1), 1, 3))
    g = interpolate(fld, mesh)
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    Fraction(1, 2)
    assert len(made) == 1  # the patch counts
    made.clear()
    fresh = Triangulation(mesh.numerators, mesh.triangle_array, mesh.den)
    doc = mesh_document(g)
    save_mesh(g, tmp_path / "iso.json")
    back = load_mesh(tmp_path / "iso.json")
    assert made == []
    monkeypatch.undo()
    assert same_vertices(fresh, mesh) and same_vertices(back.mesh, mesh)
    assert doc == mesh_document(back)


def test_triangle_gradient_examples():
    mesh = Triangulation([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    g = CpwlFunction(mesh, np.array([0.0, 1.0, 0.0]))
    assert tuple(g.gradients()[0]) == (1.0, 0.0)
    g0 = CpwlFunction(mesh, np.array([5.0, 5.0, 5.0]))
    assert tuple(g0.gradients()[0]) == (0.0, 0.0)


def test_triangle_gradient_affine_reproduction():
    rng = np.random.default_rng(10)
    mesh = random_lattice_mesh(rng)
    fv = mesh.float_vertices
    g = CpwlFunction(mesh, 3.0 * fv[:, 0] + 2.0 * fv[:, 1] - 1.0)
    for t in range(mesh.n_triangles):
        gx, gy = g.gradients()[t]
        assert abs(gx - 3.0) <= 1e-12
        assert abs(gy - 2.0) <= 1e-12


def test_min_angle_square_diagonal(diag_square):
    assert abs(min_angle(diag_square) - math.pi / 4) <= 1e-15


def test_min_angle_equilateral_approx():
    den = 10**18
    height = 866025403784438647  # ~ sqrt(3)/2 * den
    mesh = Triangulation([(0, 0), (den, 0), (den // 2, height)], [(0, 1, 2)], den)
    assert abs(min_angle(mesh) - math.pi / 3) <= 1e-6


def exact_min_angle(mesh: Triangulation) -> float:
    """Every angle of every triangle from exact integer differences."""
    num, den = mesh.numerators.tolist(), mesh.den
    best = math.inf
    for t in mesh.triangle_array.tolist():
        for i in range(3):
            p, q, r = (num[t[(i + k) % 3]] for k in range(3))
            ux, uy = (q[0] - p[0]) / den, (q[1] - p[1]) / den
            vx, vy = (r[0] - p[0]) / den, (r[1] - p[1]) / den
            best = min(best, math.atan2(abs(ux * vy - uy * vx), ux * vx + uy * vy))
    return best


def test_min_angle_matches_exact_loop():
    from hstv.approx import assemble_global, build_frames, plan_mesh
    from hstv.fields import parse_field

    # 64 translated copies of one cell: the refinement sees one shape per copy.
    mesh = assemble_global(plan_mesh(build_frames(parse_field("quadratic:iso"), 3), 3, 0))
    assert min_angle(mesh) == exact_min_angle(mesh)
    # Numerators beyond int64 take the object path.
    big = Triangulation(mesh.numerators.astype(object) * 2**60, mesh.triangle_array,
                        mesh.den * 2**60)
    assert big.numerators.dtype == object
    assert min_angle(big) == exact_min_angle(big) == min_angle(mesh)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 60), st.sampled_from([32, 64, 1024]))
def test_min_angle_matches_exact_loop_on_random_meshes(seed, n_interior, denom):
    mesh = random_lattice_mesh(np.random.default_rng(seed), n_interior, denom)
    assert min_angle(mesh) == exact_min_angle(mesh)


# Lattice triangles whose two shortest sides (or two longest) are equal, so
# the shortest side, and with it the screened angle, is a tie.
TIED_TRIANGLES = [
    [(0, 0), (1, 0), (0, 1)],   # right isosceles: 1, 1, sqrt 2
    [(0, 0), (4, 0), (2, 1)],   # sqrt 5, sqrt 5, 4
    [(0, 0), (2, 0), (1, 5)],   # 2, sqrt 26, sqrt 26
    [(0, 0), (3, 4), (5, 0)],   # 5, 5, sqrt 20
    [(0, 0), (7, 1), (5, 5)],   # 5 sqrt 2, 5 sqrt 2, sqrt 20
    [(0, 0), (4, 7), (8, 0)],   # sqrt 65, sqrt 65, 8
]
# Near equilateral: a side of 2e9 and two equal sides 0.37 longer.
NEAR_EQUILATERAL = [(0, 0), (2 * 10**9, 0), (10**9, 1732050808)]


def test_min_angle_screen_on_tied_sides():
    for den in (1, 3, 2**20):
        for tri in TIED_TRIANGLES + [NEAR_EQUILATERAL]:
            for turn in range(3):
                for order in (tri, tri[::-1]):  # both orientations
                    pts = order[turn:] + order[:turn]
                    alone = Triangulation(pts, [(0, 1, 2)], den)
                    assert min_angle(alone) == exact_min_angle(alone), (pts, den)
        # The small ones side by side in one mesh, each a candidate of the screen.
        placed = [(x + 20 * k, y) for k, tri in enumerate(TIED_TRIANGLES) for x, y in tri]
        mesh = Triangulation(placed, np.arange(len(placed)).reshape(-1, 3), den)
        assert min_angle(mesh) == exact_min_angle(mesh)


def lexsort_first_occurrence(pts: np.ndarray) -> np.ndarray:
    """The first equal row of every row, by a stable two-key np.lexsort."""
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    s = pts[order]
    start = np.r_[True, (s[1:] != s[:-1]).any(axis=1)]
    first = np.empty(len(pts), dtype=np.int64)
    first[order] = order[start][np.cumsum(start) - 1]
    return first


# Coordinate spans around the packing bound (xspan + 1) * (yspan + 1) < 2^63:
# 2^31 * (2^32 - 1) is below it, 2^31 * 2^32 is not.
SPANS = st.sampled_from([0, 1, 2, 1000, 2**31 - 1, 2**32 - 2, 2**32 - 1, 2**62 - 1, 2**62,
                         2**63 - 1]) | st.integers(0, 2**63 - 1)


@st.composite
def point_rows(draw):
    """(n, 2) integer rows drawn from a small pool, so rows repeat, with the
    corners (xlo, ylo) and (xlo + xspan, ylo + yspan) in the pool.  int64 rows
    of any span, or Python-int rows beyond int64."""
    if draw(st.booleans()):
        spans = (draw(SPANS), draw(SPANS))
        lo = [draw(st.integers(-(2**63), 2**63 - 1 - span)) for span in spans]
        dtype = np.int64
    else:
        spans = (2**70, 2**70)
        lo = [draw(st.integers(-(2**80), 2**80)) for _ in spans]
        dtype = object
    hi = [a + span for a, span in zip(lo, spans)]
    pool = draw(st.lists(st.tuples(*map(st.integers, lo, hi)), min_size=1, max_size=12))
    pool += [tuple(lo), tuple(hi)]
    picks = draw(st.lists(st.sampled_from(pool), max_size=30))
    rows = draw(st.permutations(pool + picks))
    return np.array(rows, dtype=dtype).reshape(-1, 2)


@settings(max_examples=200, deadline=None)
@given(point_rows())
# (xspan + 1) * (yspan + 1) = 2^64 + 2^32: packed keys of the first two rows
# would agree modulo 2^64.
@example(np.array([[0, 0], [2**32, 0], [2**32, 2**32 - 1]]))
def test_first_occurrence_matches_lexsort(pts):
    first = _first_occurrence(pts)
    assert first.tolist() == lexsort_first_occurrence(pts).tolist()
    # The first of every row is an equal row at or before it.
    assert (first <= np.arange(len(pts))).all()
    assert (pts[first] == pts).all()


@st.composite
def sort_keys(draw):
    """(keys, kmax): n int64 keys in [0, kmax] drawn from a small pool, so
    they repeat, with kmax itself in the pool; kmax on either side of the
    packing bound (kmax + 1) * n < 2^63."""
    n = draw(st.integers(0, 40))
    edge = (2**63 - 1) // max(n, 1) - 1  # the largest kmax that packs
    kmax = draw(st.sampled_from([0, 1, edge - 1, edge, edge + 1, 2**63 - 1])
                | st.integers(0, 2**63 - 1))
    pool = draw(st.lists(st.integers(0, kmax), min_size=1, max_size=6)) + [kmax]
    keys = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    return np.array(keys, dtype=np.int64), kmax


@settings(max_examples=300, deadline=None)
@given(sort_keys())
# At the bound: (kmax + 1) * n is 2^63 - 2 (packed) and 2^63 + 1 (argsort)
# for n = 3, 2^63 - 2 and 2^63 for n = 2; then n = 0 and 1.
@example((np.array([3074457345618258601, 0, 3074457345618258601]), 3074457345618258601))
@example((np.array([3074457345618258602, 0, 3074457345618258602]), 3074457345618258602))
@example((np.array([2**62 - 2, 2**62 - 2]), 2**62 - 2))
@example((np.array([2**62 - 1, 0]), 2**62 - 1))
@example((np.array([], dtype=np.int64), 2**63 - 1))
@example((np.array([2**63 - 1]), 2**63 - 1))
@example((np.array([5]), 2**63 - 2))
def test_argsort_matches_stable_argsort(case):
    keys, kmax = case
    assert _argsort(keys, kmax).tolist() == np.argsort(keys, kind="stable").tolist()


def test_save_load_roundtrip(tmp_path, pyramid):
    path = tmp_path / "hat.json"
    save_mesh(pyramid, path)
    back = load_mesh(path)
    assert same_vertices(back.mesh, pyramid.mesh)
    assert np.array_equal(back.mesh.triangle_array, pyramid.mesh.triangle_array)
    assert np.array_equal(back.values, pyramid.values)


def test_load_rejects_hanging_vertex(tmp_path):
    # scale 2^70 puts the numerators beyond int64: the same verdict on Python ints
    for scale in (1, 2**70):
        doc = {
            "vertices": [
                [str(nx * scale), dx, str(ny * scale), dy] for nx, dx, ny, dy in (
                    (0, "1", 0, "1"), (1, "1", 0, "1"), (1, "1", 1, "1"),
                    (0, "1", 1, "1"), (1, "2", 1, "2"),
                )
            ],
            # left triangle keeps the full diagonal; right side uses its midpoint
            "triangles": [[0, 2, 3], [0, 1, 4], [1, 2, 4]],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(MeshError, match="hanging"):
            load_mesh(path)


def hanging_oracle(verts, tris, den) -> bool:
    """True if some vertex lies strictly inside a boundary edge (an edge of
    exactly one triangle): a plain Fraction loop over every (boundary edge,
    vertex) pair, the oracle for Triangulation's binned scan."""
    pts = [(Fraction(x, den), Fraction(y, den)) for x, y in verts]
    uses = Counter((min(u, v), max(u, v))
                   for tri in tris for u, v in zip(tri, tri[1:] + tri[:1]))
    for (u, v), n in uses.items():
        if n != 1:
            continue
        (ux, uy), (vx, vy) = pts[u], pts[v]
        dx, dy = vx - ux, vy - uy
        for wx, wy in pts:
            rx, ry = wx - ux, wy - uy
            dot = dx * rx + dy * ry
            if dx * ry == dy * rx and 0 < dot < dx * dx + dy * dy:
                return True
    return False


@st.composite
def lattice_meshes(draw):
    """(vertices, triangles, den) of a conforming mesh with a possible
    T-junction: an nx x ny grid of side s with random diagonals, some
    triangles dropped, maybe one triangle split at the midpoint of an edge
    (a T-junction when a kept neighbour shares that edge), maybe a vertex
    of no triangle at a half-lattice point (a T-junction when it lies inside
    a boundary edge), and maybe one long triangle far to the right with a
    vertex on, beside or beyond its base."""
    nx, ny = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    s = 2 * draw(st.sampled_from([1, 3, 2**31, 2**40]))
    verts = [(s * i, s * j) for j in range(ny + 1) for i in range(nx + 1)]
    tris = []
    for j in range(ny):
        for i in range(nx):
            p00 = j * (nx + 1) + i
            p10, p01, p11 = p00 + 1, p00 + nx + 1, p00 + nx + 2
            tris += ([(p00, p10, p01), (p10, p11, p01)] if draw(st.booleans())
                     else [(p00, p10, p11), (p00, p11, p01)])
    keep = draw(st.lists(st.booleans(), min_size=len(tris), max_size=len(tris)))
    tris = [t for t, k in zip(tris, keep) if k] or tris[:1]
    if draw(st.booleans()):
        t = draw(st.integers(0, len(tris) - 1))
        a, b, c = tris[t]
        a, b, c = draw(st.sampled_from([(a, b, c), (b, c, a), (c, a, b)]))
        verts.append(((verts[a][0] + verts[b][0]) // 2, (verts[a][1] + verts[b][1]) // 2))
        m = len(verts) - 1
        tris[t:t + 1] = [(a, m, c), (m, b, c)]
    if draw(st.booleans()):
        probe = (s // 2 * draw(st.integers(0, 2 * nx)), s // 2 * draw(st.integers(0, 2 * ny)))
        if probe not in verts:
            verts.append(probe)
    if draw(st.booleans()):
        x0, length = s * (nx + 2), draw(st.sampled_from([2**10, 10**9, 2**62, 3**50]))
        k = len(verts)
        verts += [(x0, 0), (x0 + length, 0), (x0 + length // 2, length)]
        tris.append((k, k + 1, k + 2))
        dx = draw(st.sampled_from([0, 1, length // 3, length - 1, length + 1, 2 * length]))
        dy = draw(st.sampled_from([0, 0, 1, -1]))
        if (x0 + dx, dy) not in verts:
            verts.append((x0 + dx, dy))
    return verts, tris, draw(st.sampled_from([1, 3, 2**40]))


@settings(max_examples=200, deadline=None)
@given(lattice_meshes())
def test_hanging_vertex_scan_matches_fraction_oracle(case):
    verts, tris, den = case
    try:
        Triangulation(verts, tris, den)
    except MeshError as exc:
        assert "hanging vertex" in str(exc)
        assert hanging_oracle(verts, tris, den)
    else:
        assert not hanging_oracle(verts, tris, den)


def test_long_boundary_edge_scan_is_bounded(tmp_path):
    """Six lattice triangles of side 8 beside one triangle of side about
    2e9: constructing the mesh from a file takes well under a second and
    little memory, not work in proportion to the 2.5e8 bin columns the long
    edges span (the mesh does not tile its bounding box, so `htv` exits 1
    after construction)."""
    side, height = 2 * 10**9, 1732050808
    verts = [(8 * i, 8 * j) for j in (0, 1) for i in range(4)]
    verts += [(0, 16), (side, 16), (side // 2, 16 + height)]
    tris = [t for i in range(3) for t in ((i, i + 1, i + 5), (i, i + 5, i + 4))]
    doc = {"vertices": [[str(x), "1", str(y), "1"] for x, y in verts],
           "triangles": [*tris, [8, 9, 10]]}
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    code = ("import resource, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)); "
            "from hstv.cli import main; sys.exit(main(['htv', sys.argv[1]]))")
    # One BLAS thread, so the address-space cap measures hstv, not thread stacks.
    env = subprocess_env(OPENBLAS_NUM_THREADS="1")
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", code, str(path)],
                         capture_output=True, text=True, timeout=120, env=env)
    assert time.perf_counter() - t0 < 2.0
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    assert "does not cover its bounding square" in out.stderr


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    with pytest.raises(MeshError):
        load_mesh(path)
    square = [["0", "1", "0", "1"], ["1", "1", "0", "1"], ["1", "1", "1", "1"],
              ["0", "1", "1", "1"]]
    for doc in (
        {"vertices": [["1", "0", "1", "1"]], "triangles": []},
        {"vertices": square, "triangles": [[0, 1, 2], [0, 2, 3]],
         "values": ["abc", "0", "0", "0"]},
        {"vertices": square, "triangles": [[0, 1, 2], [0, 2, 3]], "values": 5},
        {"vertices": square, "triangles": [[0, 1]]},
        {"vertices": square, "triangles": [[0, 1, 2, 3], [0, 2, 3]]},
        {"vertices": square, "triangles": [[0, 1], [2, 0, 2, 3]]},  # 6 indices in all
        {"vertices": square, "triangles": ["012", [0, 2, 3]]},  # scans as 3 digit strings
    ):
        path.write_text(json.dumps(doc))
        with pytest.raises(MeshError):
            load_mesh(path)


def test_load_leaves_numpy_ma_unloaded(tmp_path):
    """Loading a mesh does not import numpy.ma, which np.unique imports on
    its first call (14-30 ms in a fresh process)."""
    path = tmp_path / "grid.json"
    save_mesh(uniform_diagonal_mesh(4), path)
    code = ("import sys; from hstv.mesh import load_mesh; "
            f"load_mesh({str(path)!r}); print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=subprocess_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False\n"


def test_load_runs_no_collection(tmp_path):
    """The decoded document's small lists are acyclic and freed by reference
    counting, so loading runs no pass of the cyclic collector."""
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(jittered_document(np.random.default_rng(0), 48)))
    passes = []

    def count(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    assert gc.isenabled()
    gc.collect()
    gc.callbacks.append(count)
    try:
        load_mesh(path)
    finally:
        gc.callbacks.remove(count)
    assert passes == []


def test_load_restores_collector_state(tmp_path, monkeypatch):
    """The collector is paused while the document is decoded, and the
    caller's state, enabled or disabled, is back after a load that succeeds
    and after one that raises.  The second load of `good` reuses the first:
    the failed loads between them are not remembered, so five decodes run."""
    good = tmp_path / "good.json"
    save_mesh(uniform_diagonal_mesh(4), good)
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    bad_doc = tmp_path / "bad_doc.json"
    bad_doc.write_text(json.dumps({"vertices": [["0", "1", "0", "1"]], "triangles": [[0, 1]]}))
    missing = tmp_path / "missing.json"
    decoding = []
    real_loads = json.loads
    monkeypatch.setattr(json, "loads",
                        lambda text: decoding.append(gc.isenabled()) or real_loads(text))
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            load_mesh(good)
            assert gc.isenabled() is enabled
            for path in (bad_json, bad_doc, missing):
                with pytest.raises(MeshError):
                    load_mesh(path)
                assert gc.isenabled() is enabled, path
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert decoding == [False] * 5


def _count_decodes(monkeypatch) -> list:
    """Grows by one entry per `json.loads` call during the test."""
    decodes = []
    real_loads = json.loads
    monkeypatch.setattr(json, "loads", lambda text: decodes.append(1) or real_loads(text))
    return decodes


def test_unchanged_file_is_parsed_once(tmp_path, monkeypatch):
    """A second load of an unchanged file returns the function the first
    one built and decodes nothing."""
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(jittered_document(np.random.default_rng(0), 8)))
    decodes = _count_decodes(monkeypatch)
    first = load_mesh(path)
    assert len(decodes) == 1
    assert load_mesh(path) is first
    assert len(decodes) == 1


def test_rewritten_file_is_parsed_again(tmp_path, capsys):
    """The reuse is keyed on the text alone: a file rewritten with one value
    changed, its byte length and its modification time kept, loads with the
    new values, also through the CLI."""
    path = tmp_path / "hat.json"
    save_mesh(grid_hat(4, 2, 2), path)
    text = path.read_text()
    assert text.count('"1.0"') == 1
    changed = text.replace('"1.0"', '"2.0"')
    stat = path.stat()
    first = load_mesh(path)
    path.write_text(changed)
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert path.stat().st_size == stat.st_size
    second = load_mesh(path)
    assert second.values.max() == 2.0
    assert np.array_equal(second.values, 2 * first.values)

    totals = []
    for content in (text, changed):
        path.write_text(content)
        assert cli.main(["htv", str(path)]) == 0
        totals.append(capsys.readouterr().out)
    assert totals == ["htv_total=16.0\n", "htv_total=32.0\n"]


def test_failed_load_is_not_remembered(tmp_path, monkeypatch):
    """A load that fails between two good ones leaves the next result, of
    the same file or another, correct, and the good file is not decoded
    again."""
    a, b, bad = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "bad.json"
    save_mesh(grid_hat(4, 2, 2), a)
    save_mesh(grid_hat(4, 1, 2), b)
    bad.write_text(json.dumps({"vertices": [["0", "1", "0", "1"]], "triangles": [[0, 1]]}))
    decodes = _count_decodes(monkeypatch)
    first = load_mesh(a)
    with pytest.raises(MeshError):
        load_mesh(bad)
    assert load_mesh(a) is first
    with pytest.raises(MeshError):
        load_mesh(bad)
    other = load_mesh(b)
    assert len(decodes) == 4
    assert np.array_equal(other.values, grid_hat(4, 1, 2).values)


def test_same_text_at_another_path_is_bit_identical(tmp_path):
    """A copy of the text at another path loads to the values, vertices and
    triangles of a fresh parse, bit for bit."""
    text = json.dumps(jittered_document(np.random.default_rng(1), 8))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(text)
    b.write_text(text)
    load_mesh(a)
    g = load_mesh(b)
    fresh = cpwl_from_document(json.loads(text))
    assert g.values.tobytes() == fresh.values.tobytes()
    assert g.mesh.den == fresh.mesh.den
    assert np.array_equal(g.mesh.numerators, fresh.mesh.numerators)
    assert np.array_equal(g.mesh.triangle_array, fresh.mesh.triangle_array)


def test_loads_from_two_threads_match_their_files(tmp_path):
    """Two threads loading two files in turn each get their own file's
    values, never the other file's function."""
    files = []
    for i in range(2):
        path = tmp_path / f"m{i}.json"
        save_mesh(grid_hat(4, 1 + i, 2), path)
        files.append((path, grid_hat(4, 1 + i, 2).values))
    wrong = []

    def run(path, expected):
        for _ in range(200):
            if not np.array_equal(load_mesh(path).values, expected):
                wrong.append(path)

    threads = [threading.Thread(target=run, args=f) for f in files]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert wrong == []


def test_conformity_check_is_sound():
    """Perturbing one vertex index is always rejected, either structurally or
    by the exact covering check.  At scale 2^70 the coordinates exceed int64
    and every check runs on Python ints."""
    pyramid_verts = [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)]
    pyramid_tris = [(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)]
    grid = uniform_diagonal_mesh(2)
    for scale, (verts, tris, den) in itertools.product((1, 2**70), (
        (pyramid_verts, pyramid_tris, 2),
        (grid.numerators.tolist(), grid.triangle_array.tolist(), grid.den),
    )):
        verts = [(x * scale, y * scale) for x, y in verts]
        intact = Triangulation(verts, tris, den)
        assert intact.covers_bbox_exactly()
        assert intact.numerators.dtype == (object if scale > 1 else np.int64)
        for ti in range(len(tris)):
            for slot in range(3):
                for repl in range(len(verts)):
                    if repl == tris[ti][slot]:
                        continue
                    mutated = [list(t) for t in tris]
                    mutated[ti][slot] = repl
                    try:
                        m = Triangulation(verts, mutated, den)
                    except MeshError:
                        continue
                    assert not m.covers_bbox_exactly()


def test_covering_check(diag_square, pyramid):
    assert diag_square.covers_bbox_exactly()
    assert pyramid.mesh.covers_bbox_exactly()
    single = Triangulation([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    assert not single.covers_bbox_exactly()


def test_validated_mesh_is_read_only():
    """A validated mesh is a record of plain attributes whose arrays are all
    read-only: the writes that once reordered the energy's edges or broke
    conformity behind the checks raise, and the energy is unchanged."""
    assert not any(isinstance(v, property) for v in vars(Triangulation).values())
    num = np.array([[0, 0], [4, 0], [4, 4], [0, 4]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    Triangulation(num, tris, 4)
    assert num.flags.writeable and tris.flags.writeable  # the caller's stay writable

    g = grid_hat(4, 2, 2)
    mesh = g.mesh
    arrays = {k: v for k, v in vars(mesh).items() if isinstance(v, np.ndarray)}
    assert set(arrays) == {"numerators", "float_vertices", "triangle_array",
                           "interior_edge_array", "interior_tri_array",
                           "_boundary_edge_arr"}
    assert not any(a.flags.writeable for a in arrays.values())
    assert (mesh.den, mesh.n_vertices, mesh.n_triangles) == (4, 25, 32)
    report = htv_cpwl(g)
    assert report.total == 16.0
    with pytest.raises(ValueError, match="read-only"):
        report.edge_array[:] = report.edge_array[::-1].copy()
    with pytest.raises(ValueError, match="read-only"):
        mesh.triangle_array[1] = mesh.triangle_array[0]
    assert htv_cpwl(g).total == 16.0
    assert Triangulation(mesh.numerators, mesh.triangle_array, mesh.den).covers_bbox_exactly()


def test_validated_function_is_read_only():
    """A CpwlFunction holds a read-only copy of its values: a write into the
    caller's array doubled the validated hat's energy from 16 to 32, and
    `g.values = np.ones(3)` skipped the shape check, so htv_cpwl raised an
    IndexError instead of a MeshError."""
    mesh = uniform_diagonal_mesh(4)
    vals = np.zeros(mesh.n_vertices)
    vals[2 * 5 + 2] = 1.0
    g = CpwlFunction(mesh, vals)
    vals[2 * 5 + 2] = 2.0
    assert vals.flags.writeable  # the caller's stays writable
    assert htv_cpwl(g).total == 16.0
    for h in (g, g.with_values(vals)):
        assert not h.values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            h.values[0] = 1.0
    for name, value in (("values", np.ones(3)), ("mesh", uniform_diagonal_mesh(2))):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(g, name, value)
    assert g.mesh is mesh and htv_cpwl(g).total == 16.0
    with pytest.raises(MeshError, match=r"values shape \(3,\) does not match 25 vertices"):
        CpwlFunction(mesh, np.ones(3))


def test_validated_mesh_attributes_cannot_be_rebound():
    """`mesh.den = 8` put the exact vertices in [0, 1/2]^2 while the float
    vertices still spanned [0, 1] and covers_bbox_exactly() stayed True:
    after construction no attribute can be set, added or deleted."""
    mesh = uniform_diagonal_mesh(4)
    for name in ("den", "numerators", "triangle_array", "n_vertices", "label"):
        with pytest.raises(AttributeError, match=f"read-only: cannot set '{name}'"):
            setattr(mesh, name, 8)
    with pytest.raises(AttributeError, match="read-only: cannot delete 'den'"):
        del mesh.den
    assert mesh.den == 4 and not hasattr(mesh, "label")
    assert mesh.numerators.min(axis=0).tolist() == [0, 0]
    assert mesh.numerators.max(axis=0).tolist() == [4, 4]


def test_evaluate_on_grid_affine(pyramid):
    fv = pyramid.mesh.float_vertices
    g = pyramid.with_values(2.0 * fv[:, 0] - fv[:, 1] + 0.25)
    xs, ys, zz = evaluate_on_grid(g, 33)
    expect = 2.0 * xs[:, None] - ys[None, :] + 0.25
    assert np.max(np.abs(zz - expect)) <= 1e-12


def test_render_svg(tmp_path, pyramid):
    path = tmp_path / "mesh.svg"
    render_svg(pyramid, path)
    text = path.read_text()
    assert text.count("<polygon") == pyramid.mesh.n_triangles
    render_svg(pyramid.mesh, tmp_path / "wire.svg")
    assert (tmp_path / "wire.svg").read_text().count("fill=\"none\"") == 4


def test_uniform_diagonal_mesh_shapes():
    m = uniform_diagonal_mesh(3)
    assert m.n_vertices == 16
    assert m.n_triangles == 18
    assert m.covers_bbox_exactly()
    with pytest.raises(MeshError):
        uniform_diagonal_mesh(0)
    with pytest.raises(MeshError):
        uniform_diagonal_mesh(2, "zigzag")


def test_hat_interpolation_has_zero_affine_energy():
    """Interpolating an affine map on any mesh gives zero energy (support
    empty), tying the mesh layer to the affine quotient."""
    from hstv.htv import htv_cpwl

    g = grid_hat(4, 2, 2)
    fv = g.mesh.float_vertices
    aff = g.with_values(0.7 * fv[:, 0] - 0.4 * fv[:, 1] + 3.0)
    report = htv_cpwl(aff)
    assert report.total <= 1e-12
    assert not (report.contributions > 1e-12).any()


# -- parser fuzzing ------------------------------------------------------------

PYRAMID_TRIS = [[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]]
inside = st.fractions(min_value=Fraction(1, 10**9), max_value=1 - Fraction(1, 10**9),
                      max_denominator=10**9)
multipliers = st.lists(st.integers(-(2**80), 2**80).filter(bool), min_size=10, max_size=10)


def pyramid_document(cx, cy, ks) -> dict:
    """The unit square split around (cx, cy); coordinate i written as
    (num * ks[i]) / (den * ks[i]), so signs and scales vary, values do not."""
    coords = [Fraction(c) for c in (0, 0, 1, 0, 1, 1, 0, 1, cx, cy)]
    flat = [str(f(c) * k) for c, k in zip(coords, ks)
            for f in (lambda c: c.numerator, lambda c: c.denominator)]
    return {
        "vertices": [flat[i:i + 4] for i in range(0, 20, 4)],
        "triangles": [list(t) for t in PYRAMID_TRIS],
        "values": ["0.0", "0.0", "0.0", "0.0", "1.0"],
    }


@settings(max_examples=60, deadline=None)
@given(inside, inside, multipliers)
@example(Fraction(2**70 + 1, 2**71), Fraction(1, 3), [2**80 + 1] * 10)  # beyond int64
def test_parser_matches_fractions_and_round_trips(cx, cy, ks):
    doc = pyramid_document(cx, cy, ks)
    g = cpwl_from_document(doc)
    expect = [(Fraction(int(nx), int(dx)), Fraction(int(ny), int(dy)))
              for nx, dx, ny, dy in doc["vertices"]]
    assert fraction_pairs(g.mesh) == expect
    assert g.mesh.float_vertices.tolist() == [[float(x), float(y)] for x, y in expect]
    assert g.mesh.covers_bbox_exactly()
    out = mesh_document(g)
    assert out["vertices"] == [  # lowest terms, denominators positive
        [str(x.numerator), str(x.denominator), str(y.numerator), str(y.denominator)]
        for x, y in expect]
    back = cpwl_from_document(out)
    assert same_vertices(back.mesh, g.mesh)
    assert np.array_equal(back.mesh.triangle_array, g.mesh.triangle_array)
    assert np.array_equal(back.values, g.values)
    assert mesh_document(back) == out


@settings(max_examples=60, deadline=None)
@given(inside, inside, multipliers, st.data())
def test_parser_rejects_corrupt_documents(cx, cy, ks, data):
    doc = pyramid_document(cx, cy, ks)
    kind = data.draw(st.sampled_from(
        ["zero_den", "coordinate", "value", "index", "float", "bool", "row_length"]))
    row = data.draw(st.integers(0, 4))
    message = None
    if kind in ("float", "bool"):
        # int() would truncate these: 0.5 to 0, 2.5 to 2, True to 1
        bad = data.draw(st.floats(allow_nan=False, allow_infinity=False)
                        if kind == "float" else st.booleans())
        if data.draw(st.booleans()):
            doc["vertices"][row][data.draw(st.integers(0, 3))] = bad
        else:
            doc["triangles"][data.draw(st.integers(0, 3))][data.draw(st.integers(0, 2))] = bad
    elif kind == "zero_den":
        doc["vertices"][row][data.draw(st.sampled_from([1, 3]))] = "0"
    elif kind == "coordinate":
        bad = data.draw(st.sampled_from(["nan", "inf", "-inf", math.nan, math.inf]))
        doc["vertices"][row][data.draw(st.integers(0, 3))] = bad
    elif kind == "value":
        # float() would read a boolean as 1.0 or 0.0
        doc["values"][row] = data.draw(
            st.sampled_from(["nan", "inf", "-inf", math.inf, True, False]))
    elif kind == "row_length":
        # every vertex row one entry short or one too many
        width = data.draw(st.sampled_from([3, 5]))
        doc["vertices"] = [(r + ["1"])[:width] for r in doc["vertices"]]
        message = r"a vertex needs \[num_x, den_x, num_y, den_y\]"
    else:
        tri = doc["triangles"][data.draw(st.integers(0, 3))]
        tri[data.draw(st.integers(0, 2))] = data.draw(
            st.one_of(st.integers(5, 2**80), st.integers(-(2**80), -1)))
    with pytest.raises(MeshError, match=message):
        cpwl_from_document(doc)


BIG = 2**62  # fits int64; six times it does not
ORACLE_CASES = {
    "ints-and-strings": [[0, "1", "0", 1], [1, 1, "0", "1"], ["3", 3, 2, "2"],
                         [0, "5", "7", 7], ["1", 2, 1, "3"]],
    "negative-denominators": [["0", "-1", "0", "1"], ["-1", "-1", "0", "5"],
                              ["2", "2", "-3", "-3"], ["0", "1", "-4", "-4"],
                              ["-1", "-2", "1", "3"]],
    "int-spellings": [["+0", "1", " 0", "1"], ["1", "+1", "0", "1 "], ["1_0", "10", "7", " 7"],
                      ["0", "1", "+3", "3"], ["1_000", "2_000", " 7", "+21"]],
    # den = 6, so the corner numerators scale to 6 * 2^62 > 2^63
    "scaled-beyond-int64": [["0", "1", "0", "1"], [str(BIG), "1", "0", "1"],
                            [str(BIG), "1", str(BIG), "1"], ["0", "1", str(BIG), "1"],
                            [str(BIG), "2", str(BIG), "3"]],
    "denominator-beyond-int64": [["0", "1", "0", "1"], [str(2**63), str(2**63), "0", "1"],
                                 ["1", "1", str(2**64), str(2**64)], ["0", "1", "1", "1"],
                                 [str(2**62), str(2**63), "1", "3"]],
}


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_parser_matches_int_oracle(case):
    """The bulk int64 parse and its exact Python-int fallback read every
    coordinate as Fraction(int(num), int(den))."""
    doc = {"vertices": ORACLE_CASES[case], "triangles": PYRAMID_TRIS}
    g = cpwl_from_document(doc)
    assert fraction_pairs(g.mesh) == [(Fraction(int(nx), int(dx)), Fraction(int(ny), int(dy)))
                                      for nx, dx, ny, dy in doc["vertices"]]
    assert g.mesh.covers_bbox_exactly()
    assert (g.mesh.numerators.dtype == object) == case.endswith("beyond-int64")


def test_parser_numerator_dtype():
    """Energy-style documents parse to int64 numerators; at scale 2^70 they
    stay exact Python ints."""
    g = cpwl_from_document(jittered_document(np.random.default_rng(1), 16))
    assert g.mesh.numerators.dtype == np.int64
    g = cpwl_from_document(pyramid_document(Fraction(1, 2), Fraction(1, 3), [2**70] * 10))
    assert g.mesh.numerators.dtype == object


def covers_bbox_oracle(mesh: Triangulation) -> bool:
    """Brute-force tiling rule on exact Fractions: the triangle areas sum to
    the bounding box and every boundary edge lies on one bounding line."""
    pts = fraction_pairs(mesh)
    xs, ys = [x for x, _ in pts], [y for _, y in pts]
    lines = ((0, min(xs)), (0, max(xs)), (1, min(ys)), (1, max(ys)))
    area = sum(abs((pts[b][0] - pts[a][0]) * (pts[c][1] - pts[a][1])
                   - (pts[b][1] - pts[a][1]) * (pts[c][0] - pts[a][0]))
               for a, b, c in mesh.triangle_array.tolist()) / 2
    boundary = [e for e, tids in edge_table(mesh).items() if len(tids) == 1]
    on_lines = all(any(pts[u][k] == at and pts[v][k] == at for k, at in lines)
                   for u, v in boundary)
    return area == (max(xs) - min(xs)) * (max(ys) - min(ys)) and on_lines


def test_covers_bbox_exactly_matches_fraction_oracle():
    """On small random lattice meshes, tiling (the unit square or stretched
    to a 2 x 1 box), with a triangle dropped, with one added strictly inside
    another, or with one on three fresh lattice points added across the
    mesh (whenever that still constructs), covers_bbox_exactly agrees with
    the exact oracle; each kind of mesh is met."""
    rng = np.random.default_rng(41)
    seen = Counter()
    for _ in range(40):
        mesh = random_lattice_mesh(rng, int(rng.integers(1, 7)), 16)
        num, tris = mesh.numerators.tolist(), mesh.triangle_array.tolist()
        a, b, c = (np.array(num[v]) for v in tris[int(rng.integers(len(tris)))])
        inner = [(3 * a + b + c).tolist(), (a + 3 * b + c).tolist(), (a + b + 3 * c).tolist()]
        n = len(num)
        variants = {
            "tiling": (num, tris, mesh.den),
            "dropped": (num, tris[1:], mesh.den),
            # Points at barycentric (3, 1, 1) / 5 and its turns, on den * 5.
            "nested": ([[5 * x, 5 * y] for x, y in num] + inner,
                       tris + [[n, n + 1, n + 2]], 5 * mesh.den),
            "stretched": ([[2 * x, y] for x, y in num], tris, mesh.den),
            "across": (num + rng.integers(0, 17, size=(3, 2)).tolist(),
                       tris + [[n, n + 1, n + 2]], mesh.den),
        }
        for kind, (verts, triangles, den) in variants.items():
            try:
                m = Triangulation(verts, triangles, den)
            except MeshError:
                continue
            seen[kind, m.covers_bbox_exactly()] += 1
            assert m.covers_bbox_exactly() == covers_bbox_oracle(m), kind
    assert all(seen[kind, False] for kind in ("dropped", "nested", "across"))
    assert seen["tiling", True] and seen["stretched", True]
