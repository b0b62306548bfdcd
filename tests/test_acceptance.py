"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line (use -s to see them as they complete)."""

import numpy as np
import pytest

import conftest
from hstv import acceptance


@pytest.fixture(scope="module")
def ctx():
    return {}


# Each criterion's detail line at the default seed, as `hstv selftest`
# prints it (without the timing).  Criterion 5 runs `decompose` and
# `is_extremal`, criterion 7 the reflection extension.
DETAILS = {
    1: "htv={1: 1.9375, 2: 1.96875, 3: 1.984375, 4: 1.992188, 5: 1.996094, 6: 1.998047}, "
       "reference=2.0, sup-error rate 4.00x/step",
    2: "p-spread max 0.00e+00, smooth Frobenius energy 1.414214 vs CPWL >= 1.9",
    3: "reference 3.000000, pipeline {4: 2.9883, 5: 2.9941, 6: 2.9971}, "
       "axis-aligned (288x288 grid) 4.5868",
    4: "N=1#0: min_angle=0.321751; N=1#1: min_angle=0.358771; "
       "N=2#0: min_angle=0.358771; N=2#1: min_angle=0.321751",
    5: "hat dim=1, two-hat refuted; 100 decompositions: worst |sum-htv|=1.14e-13, "
       "residual=2.52e-14, perturbation=4.00e-15",
    6: "unitary=1.78e-15, submult=0.00e+00, dual=0.00e+00, rank1=8.88e-16, sym=8.88e-16",
    7: "C1 mismatch 1.35e-06, worst mollification energy gain -4.98e+03",
}


def _run(criterion, ctx):
    result = criterion(ctx)
    print(result.line())
    assert result.passed, result.line()
    assert result.detail == DETAILS[result.number]
    return result


def test_criterion_1_isotropic_density(ctx):
    _run(acceptance.criterion_1, ctx)


def test_criterion_2_seminorm_gap(ctx):
    _run(acceptance.criterion_2, ctx)


def test_criterion_3_anisotropic_alignment(ctx):
    _run(acceptance.criterion_3, ctx)


def test_criterion_4_alignment_exactness(ctx):
    _run(acceptance.criterion_4, ctx)


def test_criterion_5_extremality_suite(ctx):
    _run(acceptance.criterion_5, ctx)


def test_criterion_6_schatten_suite(ctx):
    _run(acceptance.criterion_6, ctx)


def test_criterion_7_field_calculus(ctx):
    _run(acceptance.criterion_7, ctx)


@pytest.mark.parametrize("module, build", [
    (acceptance, acceptance.random_cpwl),
    (conftest, conftest.random_lattice_mesh),
], ids=["random_cpwl", "random_lattice_mesh"])
def test_random_mesh_retries_only_mesh_errors(monkeypatch, module, build):
    """Only a MeshError (a Delaunay mesh that fails validation) means draw
    again; any other error propagates instead of retrying forever."""
    calls = []

    def fake_triangulation(*args):
        calls.append(args)
        if len(calls) == 1:
            raise TypeError("not a mesh error")
        pytest.fail("retried after a TypeError")

    monkeypatch.setattr(module, "Triangulation", fake_triangulation)
    with pytest.raises(TypeError, match="not a mesh error"):
        build(np.random.default_rng(0))
    assert len(calls) == 1
