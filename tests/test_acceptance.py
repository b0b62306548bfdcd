"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line (use -s to see them as they complete)."""

import numpy as np
import pytest

import conftest
from hstv import acceptance


@pytest.fixture(scope="module")
def ctx():
    return {}


def _run(criterion, ctx, **kw):
    result = criterion(ctx, **kw) if kw or criterion in (
        acceptance.criterion_4, acceptance.criterion_5,
        acceptance.criterion_6, acceptance.criterion_7,
    ) else criterion(ctx)
    print(result.line())
    assert result.passed, result.line()
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
