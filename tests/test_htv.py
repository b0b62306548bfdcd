import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    brute_force_htv,
    exact_energy,
    grid_hat,
    non_tiling_documents,
    random_lattice_mesh,
)
from hstv import assemble_global, build_frames, extremal, interpolate, parse_field, plan_mesh
from hstv.errors import MeshError
from hstv.htv import htv_cpwl, p_independence_check, support_mask_by_jump
from hstv.mesh import CpwlFunction, Triangulation, cpwl_from_document


def test_diagonal_square_frozen_value(diag_square):
    # Corner values 0,0,0,1: one flat triangle, one tilted; the diagonal jump
    # has norm sqrt(2) over length sqrt(2).  Hand-derived total: 2.
    g = CpwlFunction(diag_square, np.array([0.0, 0.0, 0.0, 1.0]))
    oracle, _ = brute_force_htv(g)
    report = htv_cpwl(g)
    assert abs(oracle - report.total) <= 1e-12
    assert abs(report.total - 2.0) <= 1e-12


def test_pyramid_hat_frozen_value(pyramid):
    oracle, per_edge = brute_force_htv(pyramid)
    report = htv_cpwl(pyramid)
    assert abs(report.total - oracle) <= 1e-12
    assert abs(report.total - 8.0) <= 1e-12
    assert len(report.edges) == len(report.contributions) == 4


def test_affine_is_energy_free(pyramid):
    fv = pyramid.mesh.float_vertices
    aff = pyramid.with_values(1.5 * fv[:, 0] - 0.5 * fv[:, 1] + 2.0)
    report = htv_cpwl(aff)
    assert report.total <= 1e-12
    assert not (report.contributions > 0.0).any() or report.total == 0.0
    assert p_independence_check(aff) == 0.0


def test_report_consistency_and_order(pyramid):
    report = htv_cpwl(pyramid)
    assert abs(report.total - float(np.sum(report.contributions))) <= 1e-12
    assert report.edges == sorted(report.edges)
    assert report.edges == [tuple(e) for e in report.edge_array.tolist()]
    for (jx, jy), length, contribution in zip(report.jumps.tolist(), report.lengths.tolist(),
                                              report.contributions.tolist()):
        assert contribution >= 0.0
        assert abs(contribution - math.hypot(jx, jy) * length) <= 1e-12


def test_support_of_hat(pyramid):
    report = htv_cpwl(pyramid)
    mask = report.contributions > 0.0
    assert report.edge_array[mask].tolist() == [[0, 4], [1, 4], [2, 4], [3, 4]]
    length = float(np.sum(report.lengths[mask]))
    assert abs(length - 4 * math.sqrt(0.5)) <= 1e-12
    assert np.array_equal(support_mask_by_jump(pyramid), mask)


def test_support_excludes_flat_region():
    g = grid_hat(4, 1, 1)
    report = htv_cpwl(g)
    mask = report.contributions > 1e-12
    star_verts = set(report.edge_array[mask].ravel().tolist())
    # the far half of the mesh is flat: no supported edge touches it
    far = {j * 5 + i for i in (3, 4) for j in range(5)}
    assert not (star_verts & far)
    assert np.array_equal(support_mask_by_jump(g), mask)


def test_p_independence_examples(pyramid):
    assert p_independence_check(pyramid) <= 1e-12
    rng = np.random.default_rng(13)
    for _ in range(5):
        mesh = random_lattice_mesh(rng, n_interior=16)
        g = CpwlFunction(mesh, rng.standard_normal(mesh.n_vertices))
        assert p_independence_check(g) <= 1e-12


def test_scaling_and_affine_quotient():
    rng = np.random.default_rng(14)
    mesh = random_lattice_mesh(rng)
    z = rng.standard_normal(mesh.n_vertices)
    g = CpwlFunction(mesh, z)
    base = htv_cpwl(g).total
    for lam in (-3.0, 0.5, 7.0):
        scaled = htv_cpwl(g.with_values(lam * z)).total
        assert abs(scaled - abs(lam) * base) <= 1e-10 * max(1, base)
    fv = mesh.float_vertices
    shifted = htv_cpwl(g.with_values(z + 4.0 * fv[:, 0] - 1.0 * fv[:, 1] + 0.3)).total
    assert abs(shifted - base) <= 1e-10 * max(1, base)


def test_triangle_inequality():
    rng = np.random.default_rng(15)
    mesh = random_lattice_mesh(rng)
    for _ in range(10):
        za = rng.standard_normal(mesh.n_vertices)
        zb = rng.standard_normal(mesh.n_vertices)
        ta = htv_cpwl(CpwlFunction(mesh, za)).total
        tb = htv_cpwl(CpwlFunction(mesh, zb)).total
        tab = htv_cpwl(CpwlFunction(mesh, za + zb)).total
        assert tab <= ta + tb + 1e-10


def test_jumps_parallel_to_edge_normals():
    rng = np.random.default_rng(16)
    mesh = random_lattice_mesh(rng, n_interior=12)
    g = CpwlFunction(mesh, rng.standard_normal(mesh.n_vertices))
    report = htv_cpwl(g)
    fv = mesh.float_vertices
    for (u, v), jump in zip(report.edge_array, report.jumps):
        t = fv[v] - fv[u]
        t /= math.hypot(*t)
        tangential = abs(jump[0] * t[0] + jump[1] * t[1])
        assert tangential <= 1e-9 * max(1.0, math.hypot(*jump))


def test_non_covering_meshes_rejected():
    single = Triangulation([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    g = CpwlFunction(single, np.array([0.0, 1.0, 2.0]))
    with pytest.raises(MeshError):
        htv_cpwl(g)
    two = Triangulation(
        [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2)],
        [(0, 1, 2), (3, 4, 5)],
    )
    with pytest.raises(MeshError):
        htv_cpwl(CpwlFunction(two, np.zeros(6)))


def test_support_mask_refuses_non_tiling_meshes():
    for doc in non_tiling_documents():
        with pytest.raises(MeshError, match="does not cover its bounding square"):
            support_mask_by_jump(cpwl_from_document(doc))


def test_every_entry_point_refuses_non_tiling_meshes():
    """The stray triangle strictly inside another and the dropped corner are
    refused by every library entry point that reads the edge kernel, not
    only by support_mask_by_jump (above) and the CLI commands."""
    runs = (htv_cpwl, p_independence_check, extremal.is_extremal, extremal.decompose,
            lambda f: extremal.perturbation_identity_check(f, f))
    for doc in non_tiling_documents():
        g = cpwl_from_document(doc)
        for run in runs:
            with pytest.raises(MeshError, match="does not cover its bounding square"):
                run(g)


def test_one_stencil_per_call(stencils):
    g = grid_hat(4, 2, 2)
    for run in (htv_cpwl, support_mask_by_jump, p_independence_check):
        stencils.clear()
        run(g)
        assert len(stencils) == 1, run


def test_random_meshes_match_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(8):
        mesh = random_lattice_mesh(rng, n_interior=int(rng.integers(4, 14)))
        g = CpwlFunction(mesh, rng.standard_normal(mesh.n_vertices))
        oracle, per_edge = brute_force_htv(g)
        report = htv_cpwl(g)
        assert abs(report.total - oracle) <= 1e-9 * max(1.0, oracle)
        got = dict(zip(report.edges, report.contributions))
        for e, c in per_edge.items():
            assert abs(got[e] - c) <= 1e-9 * max(1.0, oracle)


@pytest.mark.parametrize("K", [2, 3, 4])
def test_energy_against_exact_rational_on_iso(K):
    """On the quadratic:iso interpolant at N=1 (385 to 5,377 vertices) the
    relative error of htv_cpwl against the exact rational energy is at most
    4 eps 4^K: its rounding grows about 4x per level (measured 1.4 to 1.9
    eps 4^K)."""
    fld = parse_field("quadratic:iso")
    g = interpolate(fld, assemble_global(plan_mesh(build_frames(fld, 1), 1, K)))
    exact = exact_energy(g)
    rel = abs(Fraction(htv_cpwl(g).total) - exact) / exact
    assert rel <= 4 * np.finfo(float).eps * 4**K, float(rel)


def test_energy_against_exact_rational_on_random_meshes():
    """On random lattice meshes with random values the relative error of
    htv_cpwl against the exact rational energy is at most eps * E, the
    summation bound over E interior edges (measured at most 0.03 eps E)."""
    rng = np.random.default_rng(41)
    for n_interior in (4, 8, 16, 32):
        mesh = random_lattice_mesh(rng, n_interior)
        g = CpwlFunction(mesh, rng.standard_normal(mesh.n_vertices))
        exact = exact_energy(g)
        rel = abs(Fraction(htv_cpwl(g).total) - exact) / exact
        assert rel <= np.finfo(float).eps * len(mesh.interior_edge_array), float(rel)
