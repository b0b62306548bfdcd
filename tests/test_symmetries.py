"""Exact symmetries of the HTV as invariants: dyadic dilations of the mesh
and the eight symmetries of the square.

In two dimensions the energy is invariant under dilation (jumps scale by
1/s, lengths by s) and under isometries.  On the integer numerators a 2^k
dilation and the dihedral group of the square are exact, and the float
arithmetic follows them exactly, so energies keep their bits."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_lattice_mesh
from hstv.acceptance import random_cpwl
from hstv.extremal import decompose, is_extremal
from hstv.htv import htv_cpwl
from hstv.mesh import CpwlFunction, Triangulation


def dilated(mesh: Triangulation, k: int) -> Triangulation:
    """The mesh scaled by 2^k: numerators times 2^k, or den times 2^-k."""
    if k >= 0:
        return Triangulation(mesh.numerators.astype(object) * 2**k, mesh.triangle_array,
                             mesh.den)
    return Triangulation(mesh.numerators, mesh.triangle_array, mesh.den * 2**-k)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 12), st.integers(-1000, 1000))
@example(1, 8, 520)  # "vertex values overflow float" before the stencil scaled
@example(1, 8, 1000)
@example(1, 8, -600)  # "zero area in floating point" before
@example(1, 8, -1000)
def test_dyadic_dilation(seed, n_interior, k):
    rng = np.random.default_rng(seed)
    mesh = random_lattice_mesh(rng, n_interior)
    values = rng.standard_normal(mesh.n_vertices)
    g, gk = CpwlFunction(mesh, values), CpwlFunction(dilated(mesh, k), values)
    base, report = htv_cpwl(g), htv_cpwl(gk)
    assert report.total == base.total
    assert np.array_equal(report.contributions, base.contributions)
    assert is_extremal(gk)[1].dim == is_extremal(g)[1].dim


@pytest.mark.filterwarnings("error")
def test_graded_wide_mesh_keeps_its_thin_triangle():
    """On [0, 2^500]^2 with a vertex at (2^-600, 0) the thin triangle's det
    is 2^-100 unscaled.  Scaling the coordinates towards 1 would make 2^-600
    zero and refuse the triangle, so a mesh this wide is used unscaled.
    With the value 1 at the corner (2^500, 2^500) the energy is 3 up to
    2^-1099 relative."""
    eps, side = 1, 2**1100
    mesh = Triangulation([[0, 0], [eps, 0], [side, 0], [side, side], [0, side]],
                         [[0, 1, 4], [1, 2, 3], [1, 3, 4]], 2**600)
    report = htv_cpwl(CpwlFunction(mesh, [0.0, 0.0, 0.0, 1.0, 0.0]))
    assert report.total == pytest.approx(3.0, rel=1e-15)


def _square_maps(d: int):
    """The eight symmetries of the square [0, d]^2 on integer points, each as
    (name, map of (x, y) columns, whether it reverses orientation)."""
    return [
        ("identity", lambda x, y: (x, y), False),
        ("x-mirror", lambda x, y: (d - x, y), True),
        ("y-mirror", lambda x, y: (x, d - y), True),
        ("swap", lambda x, y: (y, x), True),
        ("anti-swap", lambda x, y: (d - y, d - x), True),
        ("rot90", lambda x, y: (d - y, x), False),
        ("rot180", lambda x, y: (d - x, d - y), False),
        ("rot270", lambda x, y: (y, d - x), False),
    ]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_square_symmetries(seed):
    g = random_cpwl(np.random.default_rng(seed), 12, 64)
    mesh = g.mesh
    base = htv_cpwl(g)
    dim = is_extremal(g)[1].dim
    dec = decompose(g)
    for name, f, reverses in _square_maps(mesh.den):
        x, y = f(*mesh.numerators.T)
        tris = mesh.triangle_array[:, [0, 2, 1]] if reverses else mesh.triangle_array
        h = CpwlFunction(Triangulation(np.stack([x, y], axis=1), tris, mesh.den), g.values)
        report = htv_cpwl(h)
        assert report.total == base.total, name
        assert np.array_equal(report.contributions, base.contributions), name
        assert is_extremal(h)[1].dim == dim, name
        got = decompose(h)
        assert len(got.terms) == len(dec.terms), name
        assert got.coefficient_sum == pytest.approx(dec.coefficient_sum, rel=1e-12), name
