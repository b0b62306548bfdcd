import math
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import grid_sample, quadrature_reference, subprocess_env, zero_padded_convolution
from hstv.errors import FieldError
from hstv.fields import (
    MAX_LATTICE_POINTS,
    GridSample,
    builtin_field,
    bump_kernel,
    discrete_htv,
    extend_reflection,
    htv_quadrature,
    mollify,
    parse_field,
)
from hstv.schatten import INF, sym_eigen_frame


def hess(fld, x, y) -> tuple[float, float, float]:
    """The Hessian entries (fxx, fxy, fyy) of fld at one point."""
    return tuple(float(v) for v in fld.hess_components(x, y))


ALL_FIELDS = [
    builtin_field("quadratic", 1.5, 0.25, 0.75, 0.1, -0.2, 0.3),
    builtin_field("rotated_quadratic", 2, 1, math.atan(0.5)),
    builtin_field("gaussian_bump", 0.25, 0.4, 0.6),
    builtin_field("product_sine", 2.5),
]


def test_builtin_quadratic_identity_hessian():
    fld = builtin_field("quadratic", 1, 0, 1)
    for x, y in ((0.1, 0.2), (0.9, 0.5), (0.33, 0.71)):
        assert hess(fld, x, y) == (1.0, 0.0, 1.0)
        assert abs(fld.eval(x, y) - 0.5 * (x * x + y * y)) <= 1e-15


def test_builtin_rotated_quadratic_eigenvalues():
    fld = builtin_field("rotated_quadratic", 2, 1, math.atan(0.5))
    for x, y in ((0.2, 0.3), (0.8, 0.1)):
        (d1, d2), theta = sym_eigen_frame(*hess(fld, x, y))
        assert abs(d1 - 2.0) <= 1e-12
        assert abs(d2 - 1.0) <= 1e-12
        assert abs(theta - math.atan(0.5)) <= 1e-12


def test_gaussian_bump_laplacian():
    # Independent formula: lap = (r^2/s^2 - 2)/s^2 * exp(-r^2/(2 s^2)).
    sigma, cx, cy = 0.25, 0.4, 0.6
    fld = builtin_field("gaussian_bump", sigma, cx, cy)
    s2 = sigma * sigma
    for x, y in ((0.1, 0.9), (0.5, 0.5), (0.42, 0.58)):
        hxx, _, hyy = hess(fld, x, y)
        r2 = (x - cx) ** 2 + (y - cy) ** 2
        expect = (r2 / s2 - 2.0) / s2 * math.exp(-r2 / (2 * s2))
        assert abs((hxx + hyy) - expect) <= 1e-12


def test_unknown_field_rejected():
    with pytest.raises(FieldError):
        builtin_field("sombrero")
    with pytest.raises(FieldError):
        parse_field("quadratic:1,2")  # wrong arity


# A valid parameter list per builtin, covering every parameter it takes.
FULL_PARAMS = {
    "quadratic": (1.5, 0.25, 0.75, 0.1, -0.2, 0.3),
    "rotated_quadratic": (2.0, 1.0, 0.4636),
    "gaussian_bump": (0.25, 0.4, 0.6),
    "product_sine": (2.5,),
}


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("name, index", [
    (name, i) for name, params in FULL_PARAMS.items() for i in range(len(params))])
def test_non_finite_parameters_rejected(name, index, bad):
    params = list(FULL_PARAMS[name])
    builtin_field(name, *params)
    params[index] = bad
    with pytest.raises(FieldError, match="non-finite"):
        builtin_field(name, *params)
    text = ",".join(repr(v) for v in params)
    with pytest.raises(FieldError, match="non-finite"):
        parse_field(f"{name.replace('_', '-')}:{text}")


@pytest.mark.parametrize("params", [(1e-200,), (1e-160,), (1e-80,), (0.2, 1e308, 0.5),
                                    (0.2, 0.5, -1e200)])
def test_gaussian_bump_out_of_range_rejected(params):
    # sigma^4 underflows, or reach^2 / sigma^4 overflows
    with pytest.raises(FieldError, match="gaussian_bump"):
        builtin_field("gaussian_bump", *params)


@pytest.mark.parametrize("make, message", [
    (lambda: builtin_field("gaussian_bump", 0.0), "gaussian_bump needs sigma > 0"),
    (lambda: builtin_field("gaussian_bump", -0.2), "gaussian_bump needs sigma > 0"),
    (lambda: parse_field("quadratic:1,x,1"),
     "bad field descriptor 'quadratic:1,x,1': could not convert string to float: 'x'"),
    (lambda: GridSample(0.1, np.zeros(5)), "samples must be a 2D array"),
    (lambda: GridSample(0.1, np.zeros((2, 2, 2))), "samples must be a 2D array"),
    (lambda: GridSample(0.0, np.zeros((5, 5))), "spacing must be positive"),
    (lambda: GridSample(-0.1, np.zeros((5, 5))), "spacing must be positive"),
    (lambda: discrete_htv(GridSample(0.1, np.zeros((6, 9))), 1, margin=2),
     "grid too small for the requested margin"),
    (lambda: extend_reflection(np.zeros((5, 5))), "extend_reflection expects a SmoothField"),
    (lambda: extend_reflection(GridSample(0.1, np.zeros((5, 5)))),
     "extend_reflection expects a SmoothField"),
], ids=["sigma-0", "sigma-negative", "non-numeric", "1-d", "3-d", "spacing-0",
        "spacing-negative", "margin", "ndarray", "grid-sample"])
def test_field_input_refusals(make, message):
    with pytest.raises(FieldError) as exc:
        make()
    assert str(exc.value) == message


def test_parse_field_descriptors():
    """The descriptor picks the builtin and passes its parameters on: seen
    through the values and Hessians the fields compute."""
    iso = parse_field("quadratic:iso")
    assert iso.eval(0.6, 0.8) == pytest.approx(0.5)
    fld = parse_field("rotated-quadratic:2,1,0.4636")
    ref = builtin_field("rotated_quadratic", 2, 1, 0.4636)
    for x, y in ((0.2, 0.3), (0.8, 0.1)):
        assert hess(fld, x, y) == hess(ref, x, y)
    assert hess(parse_field("gaussian_bump"), 0.5, 0.5)[0] == -1 / (0.2 * 0.2)


def fd_hessian(fld, x, y, h) -> tuple[float, float, float]:
    """Central second differences of fld's values at (x, y), the mixed
    entry by the four-point stencil."""
    def f(u, v):
        return float(fld.eval(u, v))
    c = f(x, y)
    hxx = (f(x + h, y) - 2 * c + f(x - h, y)) / (h * h)
    hyy = (f(x, y + h) - 2 * c + f(x, y - h)) / (h * h)
    hxy = (f(x + h, y + h) - f(x + h, y - h) - f(x - h, y + h) + f(x - h, y - h)) / (4 * h * h)
    return hxx, hxy, hyy


@pytest.mark.parametrize("fld", ALL_FIELDS,
                         ids=["quadratic", "rotated_quadratic", "gaussian_bump", "product_sine"])
def test_derivatives_match_finite_differences(fld):
    rng = np.random.default_rng(11)
    for _ in range(25):
        x, y = rng.uniform(0.1, 0.9, size=2)
        m11, m12, m22 = hess(fld, x, y)
        hxx, hxy, hyy = fd_hessian(fld, x, y, 1e-4)
        hscale = max(1.0, abs(m11), abs(m22))
        assert abs(m11 - hxx) <= 1e-5 * hscale
        assert abs(m12 - hxy) <= 1e-5 * hscale
        assert abs(m22 - hyy) <= 1e-5 * hscale


def test_htv_quadrature_reference_values():
    iso = builtin_field("quadratic", 1, 0, 1)
    assert abs(htv_quadrature(iso, 1, 256) - 2.0) <= 1e-6
    assert abs(htv_quadrature(iso, 2, 256) - math.sqrt(2)) <= 1e-6
    affine = builtin_field("quadratic", 0, 0, 0, 1.0, -2.0, 0.5)
    for p in (1, 2, INF):
        assert htv_quadrature(affine, p, 64) == 0.0


def test_htv_quadrature_frozen_values():
    # Bits of the reference column of `hstv approx`, pinned at resolution 512.
    expect = {
        "quadratic:iso": ["2.0", "1.4142135623730956", "1.0", "1.5034066538560547"],
        "rotated-quadratic:2,1,0.4636": [
            "3.0", "2.23606797749979", "2.0", "2.341968267846189",
        ],
        "product-sine": [
            "12.566331187814809", "9.455983128877747", "8.000025099749198", "9.89866425367374",
        ],
        "product-sine:7.3": [
            "68.01375222154662", "51.29280133813397", "43.54253509012341", "53.66655290399471",
        ],
        "gaussian-bump": [
            "13.845951207247575", "10.749915182046891", "9.663358336937005", "11.16273023840703",
        ],
    }
    for descriptor, reprs in expect.items():
        fld = parse_field(descriptor)
        got = [repr(htv_quadrature(fld, p, 512)) for p in (1, 2, INF, 1.7)]
        assert got == reprs


def test_htv_quadrature_blocks_match_whole_grid():
    """Row blocks change neither the norms nor their summation: equal bits
    to the whole-grid evaluation, also where the block size does not divide
    the resolution, and for a reflected field, whose branches broadcast on
    the open grid of a block."""
    fields = [parse_field(d) for d in (
        "quadratic:iso", "quadratic:1,0.3,2", "rotated-quadratic:2,1,0.4636", "product-sine",
        "product-sine:7.3", "gaussian-bump", "gaussian-bump:0.15,0.3,0.7")]
    fields.append(extend_reflection(parse_field("product-sine")))
    for fld in fields:
        for resolution in (2, 37, 100, 512):
            for p in (1, 2, INF, 1.5, 3):
                assert htv_quadrature(fld, p, resolution) == quadrature_reference(
                    fld, p, resolution), (fld, resolution, p)


def test_htv_quadrature_p_ordering():
    for fld in ALL_FIELDS:
        q1 = htv_quadrature(fld, 1, 128)
        qi = htv_quadrature(fld, INF, 128)
        assert q1 >= qi - 1e-12


def test_htv_quadrature_richardson():
    fld = builtin_field("gaussian_bump", 0.2, 0.45, 0.55)
    q = {r: htv_quadrature(fld, 2, r) for r in (64, 128, 256, 512)}
    gaps = [abs(q[128] - q[64]), abs(q[256] - q[128]), abs(q[512] - q[256])]
    assert gaps[0] / gaps[1] >= 2.5
    assert gaps[1] / gaps[2] >= 2.5


def test_htv_quadrature_validation():
    """Fewer than 2 points a side is refused, and so is a grid of more than
    MAX_LATTICE_POINTS points, before it is allocated: 4097^2 is just past
    2^24, and 10^12 would need 8e24 bytes."""
    with pytest.raises(FieldError):
        htv_quadrature(ALL_FIELDS[0], 1, 1)
    assert 4096 * 4096 == MAX_LATTICE_POINTS
    for resolution in (4097, 10**12):
        start = time.perf_counter()
        with pytest.raises(FieldError, match="grid points"):
            htv_quadrature(ALL_FIELDS[0], 1, resolution)
        assert time.perf_counter() - start < 2.0


def test_mollify_matches_plain_convolution():
    """mollify equals the zero-padded convolution with the bump kernel,
    computed by a plain loop, to 1e-13 relative on seeded grids and radii,
    non-square grids and kernels wider than the grid included."""
    rng = np.random.default_rng(7)
    for n0, n1, r in ((9, 9, 1), (12, 7, 2), (6, 11, 3), (5, 5, 4), (10, 13, 2)):
        u = GridSample(0.1, rng.standard_normal((n0, n1)))
        got = mollify(u, r * 0.1 + 1e-9).samples
        want = zero_padded_convolution(u.samples, bump_kernel(r))
        assert got.shape == (n0, n1)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (n0, n1, r)


def test_mollify_leaves_scipy_unloaded():
    """mollify runs on numpy alone: a call imports no scipy module."""
    code = ("import sys, numpy as np; from hstv.fields import GridSample, mollify; "
            "mollify(GridSample(0.1, np.ones((8, 8))), 0.25); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=subprocess_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


def test_mollify_constant_interior():
    u = GridSample(0.05, np.full((40, 40), 3.25))
    sm = mollify(u, 0.15)
    r = 3
    assert np.max(np.abs(sm.samples[r:-r, r:-r] - 3.25)) <= 1e-12


def test_mollify_spike_mass_and_spread():
    u = np.zeros((41, 41))
    u[20, 20] = 7.0
    gs = GridSample(0.1, u)
    sm = mollify(gs, 0.35)
    assert abs(sm.samples.sum() - 7.0) <= 1e-10
    assert (np.abs(sm.samples) > 1e-14).sum() > 1
    with pytest.raises(FieldError):
        mollify(gs, 0.05)


def test_mollify_energy_inequality_quadratic():
    fld = builtin_field("quadratic", 1, 0, 1)
    u = grid_sample(fld, 41)
    sm = mollify(u, 3 * u.spacing)
    assert discrete_htv(sm, 1, margin=3) <= discrete_htv(u, 1, margin=0) + 1e-6


def test_mollify_energy_inequality_random():
    rng = np.random.default_rng(12)
    for _ in range(10):
        n = int(rng.integers(30, 50))
        u = GridSample(1.0 / n, rng.standard_normal((n, n)))
        r = int(rng.integers(2, 5))
        sm = mollify(u, r * u.spacing)
        assert discrete_htv(sm, 1, margin=r) <= discrete_htv(u, 1, margin=0) + 1e-6


def test_discrete_htv_quadratic_sanity():
    fld = builtin_field("quadratic", 1, 0, 1)
    u = grid_sample(fld, 65)
    # |hess|_1 = 2 at every one of the 63^2 interior nodes, each weighing h^2
    inner = (63.0 / 64.0) ** 2
    assert abs(discrete_htv(u, 1) - 2.0 * inner) <= 1e-9


def test_extend_reflection_affine_and_constant():
    affine = builtin_field("quadratic", 0, 0, 0, 1.0, 0.0, 0.0)  # f = x
    ext = extend_reflection(affine)
    for t in (0.1, 0.25, 0.49):
        assert abs(float(ext.eval(-t, 0.3)) - (-t)) <= 1e-15
    one = builtin_field("quadratic", 0, 0, 0, 0.0, 0.0, 1.0)
    extc = extend_reflection(one)
    assert float(extc.eval(-0.3, 0.9)) == 1.0


def test_extend_reflection_c1_matching():
    h = 1e-4
    for fld in (builtin_field("gaussian_bump", 0.2, 0.3, 0.5),
                builtin_field("product_sine", 2.0)):
        ext = extend_reflection(fld)
        for y in (0.2, 0.7):
            right = (-3 * float(ext.eval(0, y)) + 4 * float(ext.eval(h, y))
                     - float(ext.eval(2 * h, y))) / (2 * h)
            left = (3 * float(ext.eval(0, y)) - 4 * float(ext.eval(-h, y))
                    + float(ext.eval(-2 * h, y))) / (2 * h)
            assert abs(right - left) <= 1e-5


def test_extend_reflection_is_linear():
    f1 = builtin_field("quadratic", 1, 0, 0)
    f2 = builtin_field("quadratic", 0, 0, 1)
    f12 = builtin_field("quadratic", 1, 0, 2)  # f1 + 2*f2
    e1, e2, e12 = (extend_reflection(f) for f in (f1, f2, f12))
    for x, y in ((-0.4, 0.2), (-0.1, 0.8), (0.6, 0.3)):
        combo = float(e1.eval(x, y)) + 2.0 * float(e2.eval(x, y))
        assert abs(float(e12.eval(x, y)) - combo) <= 1e-14


def test_extend_reflection_domain_guard():
    ext = extend_reflection(builtin_field("gaussian_bump"))
    with pytest.raises(FieldError):
        ext.eval(-0.51, 0.5)
    with pytest.raises(FieldError):
        ext.eval(1.2, 0.5)


def test_extend_reflection_analytic_derivatives_match_fd():
    """The chain-rule Hessian of the extension against second differences
    of its values on the reflected side."""
    ext = extend_reflection(builtin_field("gaussian_bump", 0.3, 0.4, 0.5))
    for x, y in ((-0.3, 0.4), (-0.12, 0.7)):
        m11, m12, m22 = hess(ext, x, y)
        hxx, hxy, hyy = fd_hessian(ext, x, y, 1e-4)
        hscale = max(1.0, abs(m11), abs(m22))
        assert abs(m11 - hxx) <= 1e-6 * hscale
        assert abs(m12 - hxy) <= 1e-6 * hscale
        assert abs(m22 - hyy) <= 1e-6 * hscale
