import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    affine_normalized,
    edge_stencils,
    exact_rank,
    grid_hat,
    random_lattice_mesh,
    reduction_step,
    refine_midpoints,
)
from hstv import extremal
from hstv.errors import ExtremalError, MeshError
from hstv.extremal import constrained_space, decompose, is_extremal, perturbation_identity_check
from hstv.htv import htv_cpwl, support_mask_by_jump
from hstv.mesh import CpwlFunction, Triangulation, uniform_diagonal_mesh


def two_hats(scale_a=1.0, scale_b=1.0):
    """Two unit hats with disjoint supports on a 6x6 grid; both extremal."""
    mesh = uniform_diagonal_mesh(6)
    va = np.zeros(mesh.n_vertices)
    vb = np.zeros(mesh.n_vertices)
    va[2 * 7 + 2] = 1.0
    vb[4 * 7 + 2] = 1.0
    return (CpwlFunction(mesh, va * scale_a),
            CpwlFunction(mesh, vb * scale_b),
            CpwlFunction(mesh, va * scale_a + vb * scale_b))


def support_length(g, tol) -> float:
    """Total length of the interior edges whose contribution exceeds tol."""
    report = htv_cpwl(g)
    return float(np.sum(report.lengths[report.contributions > tol]))


class TestQuotient:
    def test_affine_input_maps_to_zero(self):
        mesh = uniform_diagonal_mesh(3)
        fv = mesh.float_vertices
        affine = 1.0 + 2.0 * fv[:, 0] - 0.7 * fv[:, 1]
        g = CpwlFunction(mesh, affine)
        rep = affine_normalized(g)
        assert np.max(np.abs(rep.values)) <= 1e-12
        assert np.max(np.abs(g.values - rep.values - affine)) <= 1e-12

    def test_affine_shift_invariance_and_energy(self):
        g = grid_hat(4, 2, 2)
        fv = g.mesh.float_vertices
        shifted = g.with_values(g.values + 3.0 - fv[:, 0] + 5.0 * fv[:, 1])
        r1 = affine_normalized(g)
        r2 = affine_normalized(shifted)
        assert np.max(np.abs(r1.values - r2.values)) <= 1e-12
        assert htv_cpwl(r1).total == pytest.approx(htv_cpwl(g).total, abs=1e-10)

    def test_projection_is_zero(self):
        rng = np.random.default_rng(19)
        mesh = random_lattice_mesh(rng)
        g = CpwlFunction(mesh, rng.standard_normal(mesh.n_vertices))
        rep = affine_normalized(g)
        fv = mesh.float_vertices
        a = np.stack([np.ones(len(fv)), fv[:, 0], fv[:, 1]], axis=1)
        coef, *_ = np.linalg.lstsq(a, rep.values, rcond=None)
        assert np.max(np.abs(coef)) <= 1e-12


class TestConstrainedSpace:
    def test_full_support_dimension(self, pyramid):
        mesh = pyramid.mesh
        space = constrained_space(mesh, np.ones(len(mesh.interior_edge_array), dtype=bool))
        assert space.dim == mesh.n_vertices - 3

    def test_empty_support_dimension(self):
        mesh = uniform_diagonal_mesh(3)
        space = constrained_space(mesh, np.zeros(len(mesh.interior_edge_array), dtype=bool))
        assert space.dim == 0

    def test_hat_support_dimension_is_one(self):
        g = grid_hat(4, 2, 2)
        space = constrained_space(g.mesh, support_mask_by_jump(g))
        assert space.dim == 1
        # the line is spanned by the hat itself
        rep = affine_normalized(g)
        gn = rep.values / np.linalg.norm(rep.values)
        assert abs(abs(gn @ space.basis[:, 0]) - 1.0) <= 1e-9

    def test_rejects_non_interior_edges(self):
        """Only an (E,) boolean mask names a support: edge sets, index
        arrays and masks of another length are rejected."""
        mesh = uniform_diagonal_mesh(2)
        n_edges = len(mesh.interior_edge_array)
        for bad in ({(0, 1), (999, 1000)}, {(0, 4)}, [True] * n_edges,
                    np.arange(n_edges), np.ones(n_edges + 1, dtype=bool),
                    np.ones((n_edges, 1), dtype=bool)):
            with pytest.raises(ExtremalError, match="boolean mask"):
                constrained_space(mesh, bad)


    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("family", ["lattice", "grid"])
    def test_dimension_is_exact_rank(self, family, data):
        """dim = V - 3 - rank of the integer edge stencils off the support:
        the jump rows of an edge are multiples of its stencil row, and both
        vanish on affine functions."""
        if family == "lattice":
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
            mesh = random_lattice_mesh(rng, data.draw(st.integers(4, 36), label="interior"))
        else:
            mesh = uniform_diagonal_mesh(data.draw(st.integers(2, 5), label="n"),
                                         data.draw(st.sampled_from(["main", "anti"])))
        stencils = edge_stencils(mesh)
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=len(stencils),
                                           max_size=len(stencils)), label="mask"), dtype=bool)
        rows = []
        for (ids, coeffs, _), on in zip(stencils, mask.tolist()):
            if not on:
                row = [0] * mesh.n_vertices
                for i, c in zip(ids, coeffs):
                    row[i] += c
                rows.append(row)
        assert constrained_space(mesh, mask).dim == mesh.n_vertices - 3 - exact_rank(rows)


class TestIsExtremal:
    def test_hat_is_extremal(self):
        verdict, cert = is_extremal(grid_hat(4, 2, 2))
        assert verdict
        assert cert.space.dim == 1
        assert cert.witness is None

    def test_negation_is_extremal_too(self):
        g = grid_hat(4, 2, 2)
        assert is_extremal(g.with_values(-g.values))[0]

    def test_two_hats_not_extremal_with_witness(self):
        a, b, two = two_hats()
        verdict, cert = is_extremal(two)
        assert not verdict
        assert cert.space.dim == 2
        w = cert.witness
        assert w is not None
        sw = support_mask_by_jump(two.with_values(w))
        assert not (sw & ~(support_mask_by_jump(a) | support_mask_by_jump(b))).any()
        rep = affine_normalized(two)
        gn = rep.values / np.linalg.norm(rep.values)
        assert abs(w @ gn) < 0.99

    def test_affine_rejected(self):
        mesh = uniform_diagonal_mesh(2)
        fv = mesh.float_vertices
        with pytest.raises(ExtremalError):
            is_extremal(CpwlFunction(mesh, 2.0 * fv[:, 0] + 1.0))

    def test_tolerances_that_switch_the_test_off(self):
        """A negative tolerance put every edge in the support (the hat read
        `False, dim=22`); NaN, inf and any relative tolerance from 1 on left
        it empty ("function is affine").  Each is refused; 0 is kept."""
        g = grid_hat(4, 2, 2)
        for tol in (-1.0, math.nan, math.inf, 1e300, 1.0):
            with pytest.raises(ExtremalError, match="tolerance"):
                is_extremal(g, tol)
        verdict, cert = is_extremal(g, 0.0)
        assert verdict and cert.space.dim == 1

    def test_large_tolerance_named_in_the_error(self):
        """At 0.99 the relative tolerance keeps one of the 40 edges, so g is
        not inside its own constraint space: the error names the tolerance
        and the 39 dropped edges, not a numerical rank failure."""
        g = CpwlFunction(uniform_diagonal_mesh(4), np.random.default_rng(0).standard_normal(25))
        with pytest.raises(ExtremalError) as info:
            is_extremal(g, 0.99)
        msg = str(info.value)
        assert "tolerance 0.99" in msg and " 39 edges " in msg, msg
        assert "numerical" not in msg


class TestPerturbationIdentity:
    def test_collinear_direction(self):
        g = grid_hat(4, 2, 2)
        assert perturbation_identity_check(g, g) <= 1e-12

    def test_hat_with_its_line(self):
        g = grid_hat(4, 2, 2)
        _, cert = is_extremal(g)
        h = g.with_values(cert.space.basis[:, 0])
        assert perturbation_identity_check(g, h) <= 1e-10

    def test_two_hat_additivity(self):
        a, b, two = two_hats()
        assert perturbation_identity_check(two, a) <= 1e-10
        assert perturbation_identity_check(two, b) <= 1e-10

    def test_zero_perturbation(self):
        g = grid_hat(4, 2, 2)
        assert perturbation_identity_check(g, g.with_values(np.zeros_like(g.values))) == 0.0

    def test_empty_support_rejected(self):
        h = grid_hat(4, 2, 2)
        with pytest.raises(ExtremalError, match="^g has empty support$"):
            perturbation_identity_check(h.with_values(np.zeros_like(h.values)), h)

    def test_meshes_must_match(self):
        """h on the grid cut along the other diagonal (same V) read 0.0; h
        on a smaller grid raised a numpy broadcast error."""
        g = grid_hat(4, 2, 2)
        for h in (CpwlFunction(uniform_diagonal_mesh(4, "anti"), g.values), grid_hat(3, 1, 1)):
            with pytest.raises(ExtremalError, match="share a mesh"):
                perturbation_identity_check(g, h)


class TestSupportReduce:
    def test_two_hat_single_step(self):
        a, b, two = two_hats()
        h, lam, nxt = reduction_step(two)
        sn = support_mask_by_jump(nxt)
        assert any(np.array_equal(sn, support_mask_by_jump(h)) for h in (a, b))

    def test_non_finite_step_rejected(self):
        """A step, or an energy, whose values turn non-finite raises
        MeshError, as a CpwlFunction of them would."""
        _, _, two = two_hats()
        _, cert = is_extremal(two)
        values = two.values.copy()
        values[0] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(MeshError, match="non-finite"):
            extremal._algebra(two.mesh).reduce(values, cert.witness, support_mask_by_jump(two))
        with pytest.raises(MeshError, match="non-finite"):
            extremal._algebra(two.mesh).energy(values)

    def test_strictly_decreasing_support_length(self):
        rng = np.random.default_rng(20)
        mesh = random_lattice_mesh(rng, n_interior=8)
        g = CpwlFunction(mesh, rng.standard_normal(mesh.n_vertices))
        rep = affine_normalized(g)
        lengths = [support_length(rep, 1e-10)]
        for _ in range(len(mesh.interior_edge_array) + 2):
            verdict, _ = is_extremal(rep)
            if verdict:
                break
            _, _, rep = reduction_step(rep)
            lengths.append(support_length(rep, 1e-10))
        else:
            pytest.fail("reduction did not reach an extremal function")
        assert all(b < a for a, b in zip(lengths, lengths[1:]))


class TestFindExtremal:
    def test_hat_returns_itself_normalized(self):
        g = grid_hat(4, 2, 2)
        rep = affine_normalized(g)
        t = g.with_values(extremal._extremal_in_support(g.mesh, rep.values))
        total = htv_cpwl(t).total
        assert abs(total - 1.0) <= 1e-12
        expected = rep.values / htv_cpwl(g).total
        sign = math.copysign(1.0, t.values @ expected)
        assert np.max(np.abs(sign * t.values - expected)) <= 1e-10

    def test_two_hat_returns_one_hat(self):
        a, b, two = two_hats()
        t = two.with_values(
            extremal._extremal_in_support(two.mesh, affine_normalized(two).values))
        st = support_mask_by_jump(t)
        assert any(np.array_equal(st, support_mask_by_jump(h)) for h in (a, b))

    def test_random_result_is_extremal(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            mesh = random_lattice_mesh(rng)
            g = CpwlFunction(mesh, rng.standard_normal(mesh.n_vertices))
            t = g.with_values(extremal._extremal_in_support(mesh, affine_normalized(g).values))
            assert is_extremal(t)[0]
            assert not (support_mask_by_jump(t) & ~support_mask_by_jump(g)).any()


class TestSolveCount:
    """The greedy loop solves for one constrained space per step: the
    extremality test's certificate drives the reduction, and the support
    the reduction checked is the next step's support."""

    def test_one_solve_per_step(self, monkeypatch):
        rng = np.random.default_rng(23)
        mesh = random_lattice_mesh(rng, n_interior=8)
        g = CpwlFunction(mesh, rng.standard_normal(mesh.n_vertices))
        rep = affine_normalized(g)
        start = rep.values
        steps = 0
        while not is_extremal(rep)[0]:
            _, _, rep = reduction_step(rep)
            steps += 1
        assert steps == 8
        calls = []
        solve = extremal.constrained_space
        monkeypatch.setattr(extremal, "constrained_space",
                            lambda *args: calls.append(args) or solve(*args))
        t = extremal._extremal_in_support(mesh, start)
        assert len(calls) == steps + 1
        # Same floats as the step-by-step route.
        np.testing.assert_array_equal(t, rep.values / htv_cpwl(rep).total)
        monkeypatch.undo()
        assert len(decompose(g).terms) == 9  # as before the solves were shared


def loop_jump_operators(mesh):
    """Reference (full, normal) jump operators: one edge, triangle and slot
    at a time, second triangle (+) before first (-)."""
    fv = mesh.float_vertices
    tris = mesh.triangle_array
    full = np.zeros((2 * len(mesh.interior_edge_array), mesh.n_vertices))
    normal = np.zeros((len(mesh.interior_edge_array), mesh.n_vertices))
    for ei, ((u, v), (t1, t2)) in enumerate(zip(mesh.interior_edge_array.tolist(),
                                                mesh.interior_tri_array.tolist())):
        dx, dy = fv[v, 0] - fv[u, 0], fv[v, 1] - fv[u, 1]
        ln = math.hypot(dx, dy)
        nux, nuy = -dy / ln, dx / ln
        for sign, t in ((1.0, t2), (-1.0, t1)):
            a, b, c = fv[tris[t]]
            e1, e2 = b - a, c - a
            det = e1[0] * e2[1] - e1[1] * e2[0]
            gx = ((e1[1] - e2[1]) / det, e2[1] / det, -e1[1] / det)
            gy = ((e2[0] - e1[0]) / det, -e2[0] / det, e1[0] / det)
            for slot in range(3):
                col = tris[t, slot]
                full[2 * ei, col] += sign * gx[slot]
                full[2 * ei + 1, col] += sign * gy[slot]
                normal[ei, col] += sign * (gx[slot] * nux + gy[slot] * nuy)
    return full, normal


class TestLoopReferences:
    """The array expressions of the greedy loop against per-edge loops: the
    arithmetic is unchanged, so the results must be equal bit for bit."""

    def test_jump_operators(self):
        rng = np.random.default_rng(25)
        for mesh in (random_lattice_mesh(rng), random_lattice_mesh(rng, 32),
                     uniform_diagonal_mesh(3, "anti")):
            full, normal = extremal._algebra(mesh).jump_operators
            ref_full, ref_normal = loop_jump_operators(mesh)
            assert np.array_equal(full, ref_full)
            assert np.array_equal(normal, ref_normal)

    def test_reduction_ratio(self):
        """lambda is the smallest |ratio| over usable support edges, the
        first one on ties."""
        rng = np.random.default_rng(26)
        mesh = random_lattice_mesh(rng)
        g = affine_normalized(CpwlFunction(mesh, rng.standard_normal(mesh.n_vertices)))
        _, normal = loop_jump_operators(mesh)
        for _ in range(3):
            support = support_mask_by_jump(g).tolist()
            h, lam, nxt = reduction_step(g)
            jn_g, jn_h = normal @ g.values, normal @ h.values
            h_thr = 1e-9 * float(np.abs(jn_h).max())
            ref = None
            for ei in range(len(mesh.interior_edge_array)):
                if support[ei] and abs(jn_h[ei]) > h_thr:
                    cand = jn_g[ei] / jn_h[ei]
                    if ref is None or abs(cand) < abs(ref):
                        ref = cand
            assert lam == float(ref)
            g = nxt


class TestDecompose:
    def test_scaled_hat_single_term(self):
        g = grid_hat(4, 2, 2)
        total = htv_cpwl(g).total
        g3 = g.with_values(3.0 * g.values / total)  # energy exactly 3
        dec = decompose(g3)
        assert len(dec.terms) == 1
        assert dec.coefficients[0] == pytest.approx(3.0, abs=1e-10)

    def test_two_hat_coefficients(self):
        a, b, two = two_hats(2.0, 5.0)
        dec = decompose(two)
        assert len(dec.terms) == 2
        ha = htv_cpwl(a).total  # energy of the 2x hat
        hb = htv_cpwl(b).total  # energy of the 5x hat
        assert sorted(dec.coefficients) == pytest.approx(sorted((ha, hb)), abs=1e-9)
        assert dec.coefficient_sum == pytest.approx(ha + hb, abs=1e-9)

    def test_random_decompositions(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            mesh = random_lattice_mesh(rng)
            g = CpwlFunction(mesh, rng.standard_normal(mesh.n_vertices))
            total = htv_cpwl(g).total
            dec = decompose(g, 1e-8)
            assert dec.residual <= 1e-8
            assert dec.value_residual <= 1e-8
            assert abs(dec.coefficient_sum - total) <= 1e-8
            recon = sum(c * t.values for c, t in zip(dec.coefficients, dec.terms))
            rep = affine_normalized(g)
            assert np.max(np.abs(recon - rep.values)) <= 1e-8
            for t in dec.terms:
                assert is_extremal(t)[0]

    def test_affine_rejected(self):
        mesh = uniform_diagonal_mesh(2)
        fv = mesh.float_vertices
        with pytest.raises(ExtremalError):
            decompose(CpwlFunction(mesh, fv[:, 0]))

    def test_tolerances_that_switch_checks_off(self):
        """A NaN tolerance turned off the sign and stall checks: a random
        4x4-grid function ran to the loop cap, 42 terms against 22."""
        g = CpwlFunction(uniform_diagonal_mesh(4), np.random.default_rng(0).standard_normal(25))
        assert len(decompose(g).terms) == 22
        for tol in (math.nan, math.inf, -1e-8):
            with pytest.raises(ExtremalError, match="tolerance"):
                decompose(g, tol)

    def test_zero_tolerance_named_in_the_error(self):
        """At tol=0 a round-off-level negative jump ratio fails the sign
        check: the error names the ratio and the tolerance, not a numerical
        rank failure."""
        g = CpwlFunction(uniform_diagonal_mesh(4), np.random.default_rng(0).standard_normal(25))
        with pytest.raises(ExtremalError,
                           match=r"jump ratio -\d\.\d{3}e-\d+ is below .* at tolerance 0\.0$"):
            decompose(g, 0.0)

    def test_no_positive_jump_ratio(self, monkeypatch):
        """A greedy step whose direction has no jump leaves no ratio to
        peel by."""
        monkeypatch.setattr(extremal, "_extremal_in_support",
                            lambda mesh, values: np.zeros_like(values))
        with pytest.raises(ExtremalError, match="no positive jump ratio: numerical "
                           "rank failure$"):
            decompose(grid_hat(4, 2, 2))

    def test_stalled_decomposition(self, monkeypatch):
        """A greedy step that trades one hat for the other keeps the energy
        constant (16, a unit hat's), so the loop runs out of steps and reports
        the residual."""
        a, b, _ = two_hats()
        ia, ib = int(np.argmax(a.values)), int(np.argmax(b.values))

        def swap(mesh, values):
            return a.values - b.values if values[ia] > values[ib] else b.values - a.values

        monkeypatch.setattr(extremal, "_extremal_in_support", swap)
        with pytest.raises(ExtremalError, match=r"^decomposition stalled: achieved "
                           r"energy residual 1\.600e\+01 > 1\.0e-08$"):
            decompose(a)

    def test_builds_few_functions(self, monkeypatch, stencils):
        """The greedy loop runs on value vectors against one per-mesh kernel:
        decompose on the 36-vertex input of test_cli's digest builds one
        CpwlFunction per returned term and one gradient stencil in all."""
        rng = np.random.default_rng(5)
        mesh = random_lattice_mesh(rng, n_interior=32)
        g = CpwlFunction(mesh, rng.standard_normal(mesh.n_vertices))
        built = []
        init = CpwlFunction.__post_init__
        monkeypatch.setattr(CpwlFunction, "__post_init__",
                            lambda self: built.append(1) or init(self))
        dec = decompose(g)
        assert len(dec.terms) == 33
        assert len(built) == len(dec.terms)
        assert len(stencils) == 1


class TestScaleEquivariance:
    """decompose and is_extremal run on the input scaled exactly by a power of
    two into [1/2, 1): the totals below 1e-8 read "input is affine", totals
    below 1 lost terms (31 for 33 at 2^-20), and the witness norm overflowed
    from about 1e155 and underflowed to a NaN witness at 1e-300."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(4, 10), st.integers(-900, 900))
    def test_decompose_scales_by_powers_of_two(self, seed, n_interior, k):
        rng = np.random.default_rng(seed)
        mesh = random_lattice_mesh(rng, n_interior, 32)
        values = rng.standard_normal(mesh.n_vertices)
        base = decompose(CpwlFunction(mesh, values))
        dec = decompose(CpwlFunction(mesh, np.ldexp(values, k)))
        assert len(dec.terms) == len(base.terms)
        for t, t0 in zip(dec.terms, base.terms):
            assert np.array_equal(t.values, t0.values)
        assert dec.coefficients == [math.ldexp(c, k) for c in base.coefficients]
        assert (dec.total, dec.residual, dec.value_residual) == tuple(
            math.ldexp(v, k) for v in (base.total, base.residual, base.value_residual))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("apex", [1e-300, 1e200])
    def test_pyramid_witness_at_extreme_scales(self, pyramid, apex):
        verdict, cert = is_extremal(pyramid.with_values(np.array([0.0, 0, 0, 0, apex])))
        assert not verdict and cert.space.dim == 2
        w = cert.witness
        assert np.isfinite(w).all()
        assert np.linalg.norm(w) == pytest.approx(1.0, rel=1e-12)


class TestRigidity:
    """Additive totals force additive edges: for f and g whose energies add
    up, every interior edge splits its contribution additively."""

    @staticmethod
    def assert_additive_per_edge(f, g):
        cf, cg, cs = (htv_cpwl(h).contributions
                      for h in (f, g, f.with_values(f.values + g.values)))
        tf, tg, ts = (float(np.sum(c)) for c in (cf, cg, cs))
        scale = max(1.0, tf + tg)
        assert abs(ts - tf - tg) <= 1e-10 * scale
        assert np.max(np.abs(cs - cf - cg)) <= 1e-9 * scale

    def test_collinear(self):
        g = grid_hat(4, 2, 2)
        self.assert_additive_per_edge(g, g.with_values(2.0 * g.values))

    def test_disjoint_supports(self):
        a, b, _ = two_hats(2.0, 5.0)
        self.assert_additive_per_edge(a, b)


class TestKernelRoute:
    def test_checks_reuse_the_mesh_kernel(self, stencils):
        """After decompose has seen a mesh, the perturbation check on it
        builds no gradient stencil (it built 4 through htv_cpwl)."""
        a, _, two = two_hats(2.0, 5.0)
        decompose(two)
        assert len(stencils) == 1
        assert perturbation_identity_check(two, a) <= 1e-10
        assert len(stencils) == 1


# -- relations any correct extremality solver satisfies ---------------------------


def oracle_inputs() -> list[CpwlFunction]:
    """Small functions (V <= 36) of both verdicts: hats and a two-hat sum on
    the 5x5 grid, and a hat, a two-hat sum and random values on random
    lattice meshes over den 32."""
    rng = np.random.default_rng(31)
    out = [grid_hat(5, 2, 2), grid_hat(5, 1, 1).with_values(
        grid_hat(5, 1, 1).values + 0.5 * grid_hat(5, 3, 3).values)]
    for n_interior in (6, 10, 12):
        mesh = random_lattice_mesh(rng, n_interior, 32)
        hat = np.zeros(mesh.n_vertices)
        hat[4] = 1.0
        other = np.zeros(mesh.n_vertices)
        other[mesh.n_vertices - 5] = rng.uniform(0.5, 2.0)
        out += [CpwlFunction(mesh, hat), CpwlFunction(mesh, hat + other),
                CpwlFunction(mesh, rng.standard_normal(mesh.n_vertices))]
    return out


def verdict(g: CpwlFunction) -> tuple[bool, int]:
    extremal, cert = is_extremal(g)
    return extremal, cert.space.dim


def mapped(g: CpwlFunction, fn) -> CpwlFunction:
    """g carried by the exact lattice map (X, Y) -> fn(X, Y, den) of its
    integer numerators; vertex ids, triangles and values are kept."""
    mesh = g.mesh
    verts = [fn(x, y, mesh.den) for x, y in mesh.numerators.tolist()]
    return CpwlFunction(Triangulation(verts, mesh.triangle_array, mesh.den), g.values)


SYMMETRIES = {
    "quarter turn": lambda x, y, d: (d - y, x),
    "reflection in x = 1/2": lambda x, y, d: (d - x, y),
    "reflection in y = x": lambda x, y, d: (y, x),
}


class TestSolverIndependentRelations:
    """Relations that hold for any correct solver: they pin no term count,
    coefficient or basis, only invariances of the verdict, dim and energy."""

    def test_inputs_cover_both_verdicts(self):
        inputs = oracle_inputs()
        assert {verdict(g)[0] for g in inputs} == {True, False}
        assert all(g.mesh.n_vertices <= 36 for g in inputs)

    @pytest.mark.parametrize("name", sorted(SYMMETRIES))
    def test_exact_symmetries(self, name):
        for g in oracle_inputs():
            h = mapped(g, SYMMETRIES[name])
            assert verdict(h) == verdict(g), name
            assert htv_cpwl(h).total == pytest.approx(htv_cpwl(g).total, rel=1e-12, abs=0)

    def test_affine_shift_and_positive_scale(self):
        for g in oracle_inputs():
            x, y = g.mesh.float_vertices.T
            shifted = g.with_values(g.values + (0.7 - 1.3 * x + 2.1 * y))
            assert verdict(shifted) == verdict(g)
            dec, dec_shifted = decompose(g), decompose(shifted)
            assert dec_shifted.total == pytest.approx(dec.total, rel=1e-9)
            for d in (dec, dec_shifted):
                assert abs(d.coefficient_sum - d.total) <= 1e-8 * max(1.0, d.total)
            for s in (0.25, 3.5):
                dec_s = decompose(g.with_values(s * g.values))
                assert dec_s.total == pytest.approx(s * dec.total, rel=1e-9)
                assert dec_s.coefficient_sum == pytest.approx(s * dec.coefficient_sum,
                                                              rel=1e-8)

    def test_midpoint_refinement_keeps_verdict_dim_and_total(self):
        for g in oracle_inputs():
            fine = refine_midpoints(g)
            assert fine.mesh.den == 2 * g.mesh.den
            assert verdict(fine) == verdict(g)
            assert htv_cpwl(fine).total == pytest.approx(htv_cpwl(g).total, rel=1e-12, abs=0)

    def test_decompose_after_refinement(self):
        """On refined inputs (V <= 12 before, <= 41 after) the coefficients
        sum to the energy and every term is extremal with support inside
        the input's."""
        rng = np.random.default_rng(37)
        for n_interior in (5, 8):
            mesh = random_lattice_mesh(rng, n_interior, 32)
            fine = refine_midpoints(CpwlFunction(mesh, rng.standard_normal(mesh.n_vertices)))
            assert fine.mesh.n_vertices <= 41
            dec = decompose(fine)
            assert dec.total == pytest.approx(htv_cpwl(fine).total, rel=1e-12)
            assert abs(dec.coefficient_sum - dec.total) <= 1e-8 * max(1.0, dec.total)
            support = support_mask_by_jump(fine)
            for t in dec.terms:
                assert is_extremal(t)[0]
                assert not (support_mask_by_jump(t) & ~support).any()
