import hashlib
import math
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from hstv.approx import (
    RationalAngle,
    SquarePlan,
    _band_master,
    _numerators,
    _square_local_mesh,
    assemble_global,
    build_frames,
    convergence_experiment,
    interpolate,
    plan_mesh,
    rational_angle_approx,
)
import hstv.approx
from conftest import (
    assemble_reference,
    evaluate_on_grid,
    fraction_pairs,
    numbering_text,
    reference_frames,
    triangulate_square,
)
from hstv.acceptance import _ANGLE_POOL, DEFAULT_SEED, synthetic_frames
from hstv.errors import HstvError, MeshError, PlanError
from hstv.fields import builtin_field, parse_field
from hstv.htv import htv_cpwl
from hstv.mesh import min_angle
from hstv.schatten import schatten_norms


def rotation_gap(angle: RationalAngle, theta_hat: float) -> float:
    """Schatten-1 distance between the rotations by angle and theta_hat."""
    c, s = angle.rotation()
    dc, ds = c - math.cos(theta_hat), s - math.sin(theta_hat)
    return float(schatten_norms(dc, -ds, ds, dc, 1))


def lattice_step(sp, plan) -> tuple[Fraction, Fraction]:
    """The lattice step hv of one cell type, read off the local mesh that
    _square_local_mesh builds: the first inner triangle is (p00, p10, p01),
    after the mirror of a reflected type is undone (it is an involution)."""
    verts, tris, _ = _square_local_mesh(sp, plan)
    if sp.reflected:
        verts, tris = (plan.den >> plan.N) - verts[:, ::-1], tris[:, [0, 2, 1]]
    m0 = plan.spacing.denominator >> (plan.N + plan.K)
    _, master_tris = _band_master(sp.pp, sp.qq, m0)
    p00, p10 = verts[tris[4 * (1 << plan.K) * len(master_tris)][:2]].tolist()
    return Fraction(p10[0] - p00[0], plan.den), Fraction(p10[1] - p00[1], plan.den)


class TestRationalAngles:
    def test_invariants(self):
        with pytest.raises(HstvError):
            RationalAngle(1, 1)
        with pytest.raises(HstvError):
            RationalAngle(2, 4)
        with pytest.raises(HstvError):
            RationalAngle(0, 1)
        a = RationalAngle(2, 1)
        assert a.reduced() == (1, 2, True)
        assert RationalAngle(1, 2).reduced() == (1, 2, False)

    def test_exactly_rational_target(self):
        assert rational_angle_approx(math.atan(0.5), 1e-6) == RationalAngle(2, 1)

    def test_scaled_inverse_rotation_has_integer_entries(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            p = int(rng.integers(1, 30))
            q = int(rng.integers(1, 30))
            if p == q or math.gcd(p, q) != 1:
                continue
            c, s = RationalAngle(p, q).rotation()
            scale = math.hypot(p, q)
            # the inverse rotation [[c, s], [-s, c]]
            for entry in (c, s, -s, c):
                assert abs(entry * scale - round(entry * scale)) <= 1e-9

    def test_quarter_pi_excluded_but_approximated(self):
        for eps in (1.0, 0.25, 0.05):
            a = rational_angle_approx(math.pi / 4, eps)
            assert a.p != a.q
            assert rotation_gap(a, math.pi / 4) <= eps

    def test_zero_target_minimal_complexity(self):
        # Independent search oracle: smallest p+q among all admissible pairs
        # meeting the bound.
        for eps in (1.0, 0.5, 0.1):
            a = rational_angle_approx(0.0, eps)
            assert rotation_gap(a, 0.0) <= eps
            best = min(
                p + q
                for p in range(1, 200) for q in range(1, 6)
                if p != q and math.gcd(p, q) == 1
                and 4 * abs(math.sin(0.5 * math.atan2(q, p))) <= eps
            )
            assert a.p + a.q == best

    def test_random_targets_meet_bound(self):
        rng = np.random.default_rng(18)
        for _ in range(100):
            theta = float(rng.uniform(0, math.pi / 2 * 0.999))
            eps = float(10 ** rng.uniform(-3, 0))
            a = rational_angle_approx(theta, eps)
            assert math.gcd(a.p, a.q) == 1
            assert a.p != a.q
            assert rotation_gap(a, theta) <= eps + 1e-12

    def test_bad_inputs(self):
        with pytest.raises(HstvError):
            rational_angle_approx(-0.1, 1.0)
        with pytest.raises(HstvError):
            rational_angle_approx(0.3, 0.0)


class TestFrames:
    def test_isotropic_field_ties(self):
        fld = builtin_field("quadratic", 1, 0, 1)
        frames = build_frames(fld, 1)
        assert len(frames) == 4
        for fr in frames:
            assert (fr.angle.p, fr.angle.q) == (2, 1)
            assert abs(fr.diag[0] - 1.0) <= 1e-12
            assert abs(fr.diag[1] - 1.0) <= 1e-12
            assert fr.deviation <= 1e-12

    def test_rotated_quadratic_alignment(self):
        fld = builtin_field("rotated_quadratic", 2, 1, math.atan(0.5))
        frames = build_frames(fld, 1)
        for fr in frames:
            assert (fr.angle.p, fr.angle.q) == (2, 1)
            assert abs(fr.diag[0] - 2.0) <= 1e-10
            assert abs(fr.diag[1] - 1.0) <= 1e-10
            assert fr.deviation <= 1e-10

    def test_gaussian_deviation_shrinks_with_level(self):
        fld = builtin_field("gaussian_bump", 0.3, 0.45, 0.55)
        devs = []
        for n in (1, 2, 3, 4):
            frames = build_frames(fld, n)
            devs.append(max(fr.deviation for fr in frames))
        assert all(b < a + 1e-12 for a, b in zip(devs, devs[1:]))
        assert devs[-1] < devs[0]


FRAME_FIELDS = {
    "iso": "quadratic:iso",
    "rotated": "rotated-quadratic:2,1,0.4636",
    "sine": "product-sine",
    "bump": "gaussian-bump:0.3,0.45,0.55",
}


def ulps(a: float, b: float) -> float:
    return abs(a - b) / np.spacing(max(abs(a), abs(b)))


class TestFramesReference:
    """The array build_frames against the scalar loop in conftest."""

    @pytest.mark.parametrize("N", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("name", sorted(FRAME_FIELDS))
    def test_matches_scalar_loop(self, name, N):
        fld = parse_field(FRAME_FIELDS[name])
        got = build_frames(fld, N)
        want = reference_frames(fld, N)
        assert len(got) == len(want) == 4**N
        for g, w in zip(got, want):
            assert (g.index, g.ix, g.iy, g.x0, g.y0, g.side) == (
                w.index, w.ix, w.iy, w.x0, w.y0, w.side)
            assert g.angle == w.angle
            # bit for bit, signed zeros included
            assert np.array_equal(np.array(g.center + g.diag).view(np.int64),
                                  np.array(w.center + w.diag).view(np.int64))
            assert ulps(g.deviation, w.deviation) <= 4

    def test_batches_do_not_change_values(self, monkeypatch):
        fld = parse_field(FRAME_FIELDS["bump"])
        whole = build_frames(fld, 3)
        monkeypatch.setattr(hstv.approx, "_SAMPLE_BATCH", 3 * 9 * 9)  # 3 cells
        batched = build_frames(fld, 3)
        assert [f.deviation for f in batched] == [f.deviation for f in whole]

    def test_level_guard_rejects_before_cell_work(self, monkeypatch):
        # 4^10 cells x 16 points = 2^24 is the ceiling; N = 11 is over it.
        def no_hessians(*args):
            raise AssertionError("per-cell work started")

        fld = parse_field("quadratic:iso")
        monkeypatch.setattr(fld, "hess_components", no_hessians)
        for N in (11, 12, 40):
            with pytest.raises(PlanError, match="lattice points"):
                build_frames(fld, N)


class TestPlans:
    def test_single_square_frozen_numbers(self):
        frames = synthetic_frames(0, [RationalAngle(2, 1)])
        plan = plan_mesh(frames, 0, 0)
        sp = plan.squares[0]
        # reduced pair (1, 2); spacing 1/2; pitch 1/sqrt(5)
        assert (sp.pp, sp.qq, sp.reflected) == (1, 2, True)
        assert plan.spacing == Fraction(1, 2)
        hv = lattice_step(sp, plan)
        assert hv == (Fraction(1, 5), Fraction(2, 5))
        assert hv[0] ** 2 + hv[1] ** 2 == Fraction(1, 5)

    def test_lcm_same_angle(self):
        frames = synthetic_frames(1, [RationalAngle(1, 2)] * 4)
        plan = plan_mesh(frames, 1, 0)
        assert plan.spacing == Fraction(1, 4)  # 2^-1 / lcm(q) = 1/(2 * 2)
        assert assemble_global(plan).covers_bbox_exactly()

    def test_mixed_denominators(self):
        angles = [RationalAngle(1, 2), RationalAngle(2, 3),
                  RationalAngle(3, 2), RationalAngle(1, 2)]
        frames = synthetic_frames(1, angles)
        plan = plan_mesh(frames, 1, 0)
        assert plan.spacing == Fraction(1, 2 * 6)
        for sp in plan.squares:
            # pitch / sin(theta) == spacing, exactly
            hv = lattice_step(sp, plan)
            assert (plan.spacing * sp.qq) ** 2 == (sp.pp**2 + sp.qq**2) * (hv[0] ** 2 + hv[1] ** 2)

    def test_overflow_guard(self):
        # Distinct primes: their lcm is their product, about 2^93.
        primes = [RationalAngle(1, q) for q in (7, 11, 13, 17, 19, 23, 29, 31,
                                                37, 41, 43, 47, 53, 59, 61, 67)]
        frames = synthetic_frames(2, primes)
        with pytest.raises(PlanError, match="2\\^-40"):
            plan_mesh(frames, 2, 0)

    def test_spacing_refusal_names_huge_lcm_by_bits(self):
        """The lcm of the 1,499 odd primes up to 12,553 has over 4,300
        decimal digits, more than int-to-str converts; the refusal still
        comes as a PlanError, and quickly."""
        odd_primes = [q for q in range(3, 12_554, 2)
                      if all(q % d for d in range(3, math.isqrt(q) + 1, 2))]
        assert len(odd_primes) == 1499
        frames = synthetic_frames(6, [RationalAngle(1, q) for q in odd_primes])
        t0 = time.perf_counter()
        with pytest.raises(PlanError, match="2\\^-40") as exc:
            plan_mesh(frames, 6, 0)
        assert time.perf_counter() - t0 < 1.0
        assert "[3, 5, 7, 11, " in str(exc.value)
        assert f"lcm of {math.lcm(*odd_primes).bit_length()} bits" in str(exc.value)

    def test_error_names_each_denominator_once(self):
        """A plan error lists the distinct angle denominators, not one per
        cell, so it stays short for 4^6 cells above the lattice ceiling."""
        frames = synthetic_frames(6, [RationalAngle(1, q) for q in (2, 3, 5)])
        with pytest.raises(PlanError, match="lattice points") as exc:
            plan_mesh(frames, 6, 1)
        assert "angle denominators [2, 3, 5]" in str(exc.value)
        assert len(str(exc.value)) < 1024

    @pytest.mark.parametrize("frames, types", [
        (lambda: build_frames(parse_field("quadratic:iso"), 2), 1),
        (lambda: synthetic_frames(2, criterion_4_angle_sets()[2][2]), None),
        (lambda: synthetic_frames(2, [RationalAngle(pp, 64) for pp in range(1, 32, 2)]), 16),
    ], ids=["iso-N2", "mixed-N2", "wide-den-N2"])
    def test_cells_of_one_type_share_one_plan(self, frames, types):
        frames = frames()
        plan = plan_mesh(frames, 2, 1)
        assert [(sp.pp, sp.qq, sp.reflected) for sp in plan.squares] == [
            f.angle.reduced() for f in frames]
        distinct = {(sp.pp, sp.qq, sp.reflected) for sp in plan.squares}
        assert len({id(sp) for sp in plan.squares}) == len(distinct) == (types or len(distinct))
        # int64 corners while den fits, Python ints beyond (the wide-den plan).
        assert plan.corners.dtype == (np.int64 if plan.den < 2**63 else object)
        assert plan.corners.shape == (16, 2)
        for f, corner in zip(frames, plan.corners.tolist()):
            assert corner == _numerators(plan.den, f.x0, f.y0)

    def test_validation(self):
        frames = synthetic_frames(0, [RationalAngle(1, 2)])
        with pytest.raises(PlanError):
            plan_mesh([], 0, 0)
        with pytest.raises(PlanError):
            plan_mesh(frames, 0, -1)
        # Sum of (m + n + 1)^2 over the four cells: 9,449,476 at K=9,
        # 37,773,316 at K=10 and 151,044,100 at K=11.
        iso = build_frames(parse_field("quadratic:iso"), 1)
        plan_mesh(iso, 1, 9)
        for K in (10, 11):
            with pytest.raises(PlanError, match="lattice points"):
                plan_mesh(iso, 1, K)

    def test_refusals_before_geometry(self):
        # (2, 1) reduces to (1, 2): 2 << 12 = 8192 intervals per side.
        frames = synthetic_frames(0, [RationalAngle(2, 1)])
        with pytest.raises(PlanError, match=r"^8192 boundary intervals per cell side: "
                           r"plan too fine to realize \(angle denominators \[2\], K=12\)$"):
            plan_mesh(frames, 0, 12)
        with pytest.raises(PlanError, match=r"^frame 0 has side 1/2, expected 2\^-0$"):
            plan_mesh(synthetic_frames(1, [RationalAngle(2, 1)]), 0, 0)


class TestTriangulateSquare:
    def test_single_square_layout(self):
        """Level-0 layout: four transition blocks around a tilted inner grid."""
        frames = synthetic_frames(0, [RationalAngle(2, 1)])
        plan = plan_mesh(frames, 0, 0)
        mesh = triangulate_square(frames[0], plan)
        assert mesh.covers_bbox_exactly()
        sp = plan.squares[0]
        m = plan.spacing.denominator  # boundary intervals per cell side, N = K = 0
        _, master_tris = _band_master(sp.pp, sp.qq, m)
        # 4 band copies around a tilted central block of grid cells whose
        # side is m (qq - pp) / qq lattice steps
        side_cells = m * (sp.qq - sp.pp) // sp.qq
        assert side_cells == 1
        assert mesh.n_triangles == 4 * len(master_tris) + 2 * side_cells**2

    def test_band_counts_double_and_area_halves(self):
        frames = synthetic_frames(0, [RationalAngle(1, 2)])
        _, master_tris = _band_master(1, 2, 2)
        master_area = Fraction(1, 2) * Fraction(2, 5)  # legs sin*cos of unit square
        stats = {}
        for K in (0, 1, 2, 3):
            plan = plan_mesh(frames, 0, K)
            mesh = triangulate_square(frames[0], plan)
            # pitch^2 = spacing^2 qq^2 / (pp^2 + qq^2) with (pp, qq) = (1, 2)
            pitch_sq = plan.spacing ** 2 * Fraction(4, 5)
            band_tris = 4 * (1 << K) * len(master_tris)
            inner_tris = mesh.n_triangles - band_tris
            inner_area = Fraction(inner_tris, 2) * pitch_sq
            band_area = Fraction(1) - inner_area
            stats[K] = (band_tris, band_area)
            assert band_area == 4 * master_area / (1 << K)
        for K in (0, 1, 2):
            assert stats[K + 1][0] == 2 * stats[K][0]
            assert stats[K + 1][1] == stats[K][1] / 2

    def test_min_angle_invariant_across_K(self):
        frames = synthetic_frames(0, [RationalAngle(3, 2)])
        minima = []
        shapes = []
        for K in (0, 1, 2):
            plan = plan_mesh(frames, 0, K)
            mesh = triangulate_square(frames[0], plan)
            minima.append(min_angle(mesh))
            fv = mesh.float_vertices
            classes = set()
            for a, b, c in mesh.triangle_array:
                pa, pb, pc = fv[a], fv[b], fv[c]
                angs = []
                for p, q, r in ((pa, pb, pc), (pb, pc, pa), (pc, pa, pb)):
                    u, v = q - p, r - p
                    angs.append(round(math.atan2(abs(u[0]*v[1]-u[1]*v[0]),
                                                 u[0]*v[0]+u[1]*v[1]), 9))
                classes.add(tuple(sorted(angs)))
            shapes.append(classes)
        assert minima[0] == minima[1] == minima[2]
        assert shapes[0] == shapes[1] == shapes[2]

    def test_boundary_vertices_on_common_spacing(self):
        angles = [RationalAngle(1, 2), RationalAngle(2, 1),
                  RationalAngle(2, 3), RationalAngle(1, 3)]
        frames = synthetic_frames(1, angles)
        plan = plan_mesh(frames, 1, 1)
        for fr in frames:
            mesh = triangulate_square(fr, plan)
            x0, y0 = fr.x0, fr.y0
            x1, y1 = x0 + fr.side, y0 + fr.side
            for (px, py) in fraction_pairs(mesh):
                on = (px in (x0, x1)) or (py in (y0, y1))
                if not on:
                    continue
                if px in (x0, x1):
                    assert (py - y0) % plan.spacing == 0
                if py in (y0, y1):
                    assert (px - x0) % plan.spacing == 0

    def test_frame_plan_mismatch(self):
        frames = synthetic_frames(0, [RationalAngle(1, 2)])
        other = synthetic_frames(0, [RationalAngle(1, 3)])
        plan = plan_mesh(frames, 0, 0)
        with pytest.raises(PlanError):
            triangulate_square(other[0], plan)


class TestAssembleGlobal:
    def test_uniform_angles_conforming(self):
        frames = synthetic_frames(1, [RationalAngle(1, 2)] * 4)
        mesh = assemble_global(plan_mesh(frames, 1, 1))
        assert mesh.covers_bbox_exactly()
        assert mesh.numerators.min(axis=0).tolist() == [0, 0]
        assert mesh.numerators.max(axis=0).tolist() == [mesh.den] * 2

    def test_mixed_angles_conforming(self):
        frames = synthetic_frames(1, [RationalAngle(1, 2), RationalAngle(2, 3),
                                      RationalAngle(3, 1), RationalAngle(2, 1)])
        mesh = assemble_global(plan_mesh(frames, 1, 1))
        assert mesh.covers_bbox_exactly()

    def test_corrupted_pitch_detected(self):
        """A plan holds no pitch; the pitch follows from each type's pair and
        the plan's spacing and den, and corrupting those is detected."""
        frames = synthetic_frames(1, [RationalAngle(1, 2)] * 4)
        plan = plan_mesh(frames, 1, 1)
        # A type whose denominator 3 does not divide the plan's m0 = 2.
        plan.squares[2] = SquarePlan(1, 3, False)
        with pytest.raises(PlanError, match="^inconsistent master counts$"):
            assemble_global(plan)
        plan = plan_mesh(frames, 1, 1)
        with pytest.raises(MeshError, match="^plan coordinates are not multiples of 1/8$"):
            assemble_global(replace(plan, den=plan.den // 5))


class TestExactChecks:
    """Each exact check of the local and global assembly fires on a plan, or
    a band master, corrupted past the earlier ones."""

    @staticmethod
    def plan():
        return plan_mesh(synthetic_frames(1, [RationalAngle(1, 2)] * 4), 1, 1)

    @staticmethod
    def move_master_corner(monkeypatch, shift):
        """Make _band_master return its block with the corner E (point 2 m0)
        moved by shift, in numerators over the master's unit."""
        def moved(pp, qq, m0):
            pts, tris = _band_master(pp, qq, m0)
            pts = pts.copy()
            pts[2 * m0] += shift
            return pts, tris

        monkeypatch.setattr(hstv.approx, "_band_master", moved)

    def test_band_corner_off_the_lattice(self, monkeypatch):
        self.move_master_corner(monkeypatch, (1, 0))
        with pytest.raises(MeshError, match="^band corner off the rotated lattice$"):
            assemble_global(self.plan())

    def test_inner_cells_and_band_tile_the_cell(self, monkeypatch):
        # E one step hw = (-qq^2, qq pp) away, for the plan's pair (1, 2), stays
        # on the lattice, but the band area changes.
        self.move_master_corner(monkeypatch, (-4, 2))
        with pytest.raises(MeshError, match=r"^inner cells and transition band do not "
                           r"tile the cell exactly \(got 1/5, want 1/4\)$"):
            assemble_global(self.plan())

    def test_cell_boundaries_match(self):
        plan = self.plan()
        plan.corners[3] = plan.corners[0]  # two cells on one square
        with pytest.raises(MeshError, match="^cell boundaries do not match: "
                           "duplicate vertex coordinates"):
            assemble_global(plan)

    def test_assembled_mesh_tiles_the_domain(self):
        plan = self.plan()
        plan.corners[3] += plan.den // 2  # the last cell moves off the square
        with pytest.raises(MeshError, match="^assembled mesh does not tile the domain"):
            assemble_global(plan)


def criterion_4_angle_sets():
    """The mixed angle sets criterion 4 draws with the default seed."""
    rng = np.random.default_rng(DEFAULT_SEED)
    sets = []
    for N in (1, 2):
        for trial in range(2):
            sets.append((N, trial, [_ANGLE_POOL[int(rng.integers(len(_ANGLE_POOL)))]
                                    for _ in range(4**N)]))
    return sets


class TestTypeReuse:
    """assemble_global builds each cell type once; the result must equal the
    cell-by-cell reference assembly exactly."""

    @pytest.mark.parametrize("K", range(4))
    @pytest.mark.parametrize("N, trial, angles", criterion_4_angle_sets(),
                             ids=lambda v: str(v) if isinstance(v, int) else "angles")
    def test_mixed_plans_match_reference(self, N, trial, angles, K):
        plan = plan_mesh(synthetic_frames(N, angles), N, K)
        reflected = {sp.reflected for sp in plan.squares}
        if N == 2:
            assert reflected == {False, True}
        self.assert_same(assemble_global(plan), assemble_reference(plan))

    def test_iso_matches_reference(self):
        plan = plan_mesh(build_frames(parse_field("quadratic:iso"), 2), 2, 2)
        self.assert_same(assemble_global(plan), assemble_reference(plan))

    def test_python_int_assembly_matches_reference(self):
        # qq = 64 puts the local lattice products above int64: the local
        # meshes, the cell placement and the assembled mesh hold Python ints.
        frames = synthetic_frames(1, [RationalAngle(pp, 64) for pp in (1, 3, 5, 7)])
        plan = plan_mesh(frames, 1, 0)
        assert all(_square_local_mesh(sp, plan)[0].dtype == object for sp in plan.squares)
        got = assemble_global(plan)
        assert got.numerators.dtype == object
        self.assert_same(got, assemble_reference(plan))

    @staticmethod
    def assert_same(got, want):
        assert got.den == want.den
        assert np.array_equal(got.numerators, want.numerators)
        assert np.array_equal(got.triangle_array, want.triangle_array)

    @pytest.mark.parametrize("frames, N, types", [
        (lambda: build_frames(parse_field("quadratic:iso"), 2), 2, 1),
        (lambda: synthetic_frames(2, criterion_4_angle_sets()[2][2]), 2, None),
    ], ids=["iso-N2", "mixed-N2"])
    def test_one_build_per_type(self, monkeypatch, frames, N, types):
        builds = []
        original = hstv.approx._square_local_mesh

        def counting(sp, plan):
            builds.append(sp)
            return original(sp, plan)

        monkeypatch.setattr(hstv.approx, "_square_local_mesh", counting)
        plan = plan_mesh(frames(), N, 1)
        assemble_global(plan)
        distinct = {(sp.pp, sp.qq, sp.reflected) for sp in plan.squares}
        assert len(plan.squares) == 16
        assert len(builds) == len(distinct) == (types or len(distinct))
        assert {(sp.pp, sp.qq, sp.reflected) for sp in builds} == distinct


class TestFrozenNumbering:
    """Vertex and triangle numbering pinned by digest: htv_cpwl sums edge
    contributions in edge-id order, so any renumbering changes CSV bits."""

    # Criterion 4's first N=2 mixed-angle draw, as indices into its pool.
    MIXED = [0, 0, 1, 5, 5, 1, 1, 1, 4, 1, 0, 0, 5, 5, 4, 4]

    @pytest.mark.parametrize("frames, N, K, digest", [
        (lambda: build_frames(parse_field("quadratic:iso"), 1), 1, 3,
         "55a9f53c5b235fc061470f7621131023b450d70b61bdacc0194ab116c7782382"),
        (lambda: build_frames(parse_field("rotated-quadratic:2,1,0.4636"), 2), 2, 2,
         "879e72a6aa26eaccc6089568312641a769fd6298484d40d493239361af0e34a6"),
        (lambda: build_frames(parse_field("product-sine"), 2), 2, 1,
         "393f12a0615ee5d71d8c36cf304d02ba6ef9d739fb1d9eb4286b4dd254926018"),
        (lambda: synthetic_frames(2, [_ANGLE_POOL[i] for i in TestFrozenNumbering.MIXED]),
         2, 1, "7724a7ff80b1d18f583f5830766cd1482409297a96365727db59353366df472b"),
    ], ids=["iso-N1-K3", "rotated-N2-K2", "sine-N2-K1", "mixed-N2-K1"])
    def test_mesh_digest(self, frames, N, K, digest):
        mesh = assemble_global(plan_mesh(frames(), N, K))
        text = numbering_text(mesh)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestFrozenLocalMeshes:
    """Every distinct cell type's local mesh (vertex numerators and dtype,
    triangles, cell-boundary mask) pinned by digest over a range of K.  The
    reference assembly in conftest calls _square_local_mesh itself, so only
    a digest catches a change inside it, such as a wrong band mask."""

    @pytest.mark.parametrize("frames, N, ks, digest", [
        (lambda: build_frames(parse_field("quadratic:iso"), 1), 1, range(6),
         "b3f69cff7d47e4ca8f37982b00b10af385bb8d2ffe367f92ee4f814b08a7c03b"),
        (lambda: build_frames(parse_field("rotated-quadratic:2,1,0.4636"), 2), 2, range(5),
         "72ab7a7bfa0ebf6db79f7157d4fb41a532cfc4649c89d28efdce15dfdcf56306"),
        (lambda: build_frames(parse_field("product-sine"), 2), 2, range(4),
         "24d86f2b8cbe37df2a2530927f679d18c20d4790157ec3415a3a34b908a56180"),
        (lambda: build_frames(parse_field("gaussian-bump:0.3,0.4,0.6"), 2), 2, range(3),
         "fa1d6f560ef1907d3a4fccd10bfaef5bd42293332fa17dce85809b63a450dfab"),
        (lambda: synthetic_frames(2, [_ANGLE_POOL[i] for i in TestFrozenNumbering.MIXED]),
         2, range(3),
         "94a0ed4540adc2c4545e6ce94e91fa1d0fa84d06591e805d8a769223337aad8e"),
        (lambda: synthetic_frames(1, [RationalAngle(pp, 64) for pp in (1, 3, 5, 7)]),
         1, range(1),
         "aa202e22426503d63374d4db97c9b7ecf7b32105b182a758e65893c06e829140"),
    ], ids=["iso-N1", "rotated-N2", "sine-N2", "bump-N2", "mixed-N2", "object-N1"])
    def test_local_mesh_digest(self, frames, N, ks, digest):
        h = hashlib.sha256()
        cells = frames()
        for K in ks:
            plan = plan_mesh(cells, N, K)
            for sp in dict.fromkeys(plan.squares):
                verts, tris, boundary = _square_local_mesh(sp, plan)
                h.update(repr((K, sp.pp, sp.qq, sp.reflected, str(verts.dtype), verts.tolist(),
                               tris.tolist(), boundary.tolist())).encode())
        assert h.hexdigest() == digest


class TestInterpolation:
    def test_affine_interpolant_is_flat(self):
        fld = builtin_field("quadratic", 0, 0, 0, 2.0, -1.0, 0.5)
        frames = synthetic_frames(0, [RationalAngle(1, 2)])
        mesh = assemble_global(plan_mesh(frames, 0, 1))
        g = interpolate(fld, mesh)
        assert htv_cpwl(g).total <= 1e-10

    def test_quadratic_vertex_values(self):
        fld = builtin_field("quadratic", 1, 0, 1)
        frames = build_frames(fld, 0)
        mesh = assemble_global(plan_mesh(frames, 0, 0))
        g = interpolate(fld, mesh)
        fv = mesh.float_vertices
        assert np.allclose(g.values, 0.5 * (fv[:, 0] ** 2 + fv[:, 1] ** 2),
                           rtol=0, atol=1e-15)

    def test_probe_grid_error_rate(self):
        fld = builtin_field("quadratic", 1, 0, 1)
        frames = build_frames(fld, 0)
        errs = []
        for K in (0, 1, 2):
            mesh = assemble_global(plan_mesh(frames, 0, K))
            g = interpolate(fld, mesh)
            _, _, zz = evaluate_on_grid(g, 256)
            xs = (np.arange(256) + 0.5) / 256
            exact = 0.5 * (xs[:, None] ** 2 + xs[None, :] ** 2)
            errs.append(float(np.max(np.abs(zz - exact))))
        assert errs[0] / errs[1] >= 2.8
        assert errs[1] / errs[2] >= 2.8


class TestExperiment:
    def test_table_and_validation(self):
        fld = builtin_field("quadratic", 1, 0, 1)
        table = convergence_experiment(fld, 0, [0, 1, 2], ref_resolution=64)
        assert [r.K for r in table.rows] == [0, 1, 2]
        csv = table.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "K,vertices,triangles,min_angle,sup_error,htv_cpwl,htv_reference"
        assert len(lines) == 4
        assert table.rows[-1].htv_reference == pytest.approx(2.0)
        assert table.rows[-1].htv_cpwl == pytest.approx(2.0, abs=0.2)
        with pytest.raises(HstvError):
            convergence_experiment(fld, 0, [])
        with pytest.raises(HstvError):
            convergence_experiment(fld, 0, [2, 1])
