import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    grid_hat,
    jittered_document,
    non_tiling_documents,
    random_lattice_mesh,
    subprocess_env,
)
from hstv.cli import build_parser, main
from hstv.errors import MeshError
from hstv.htv import htv_cpwl
from hstv.mesh import (
    CpwlFunction,
    Triangulation,
    cpwl_from_document,
    load_mesh,
    mesh_document,
    save_mesh,
    uniform_diagonal_mesh,
)


@pytest.fixture
def hat_file(tmp_path):
    path = tmp_path / "hat.json"
    save_mesh(grid_hat(4, 2, 2), path)
    return path


@pytest.fixture
def two_hat_file(tmp_path):
    mesh = uniform_diagonal_mesh(6)
    vals = np.zeros(mesh.n_vertices)
    vals[2 * 7 + 2] = 2.0
    vals[4 * 7 + 2] = 5.0
    path = tmp_path / "two.json"
    save_mesh(CpwlFunction(mesh, vals), path)
    return path


def _leaf_options(parser, path=()):
    """{subcommand path: its positionals' names and option strings, in order}."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {" ".join(path): [opt for a in parser._actions if a.dest != "help"
                                 for opt in (a.option_strings or [a.dest])]}
    return {leaf: opts for name, sub in subs[0].choices.items()
            for leaf, opts in _leaf_options(sub, path + (name,)).items()}


def test_cli_options():
    """The CLI surface, pinned: a new option must come with an edit here."""
    assert _leaf_options(build_parser()) == {
        "htv": ["mesh", "--p", "--report", "--out"],
        "approx": ["--field", "--N", "--K", "--p", "--ref-resolution", "--out",
                   "--emit-mesh", "--emit-svg"],
        "extremal test": ["mesh", "--tol"],
        "extremal decompose": ["mesh", "--tol", "--out"],
        "mesh render": ["mesh", "--out"],
        "selftest": ["--only", "--seed"],
    }


def test_version_runs_as_script():
    out = subprocess.run(
        [sys.executable, "-m", "hstv.cli", "--version"],
        capture_output=True, text=True, env=subprocess_env(),
    )
    assert out.returncode == 0
    assert out.stdout.startswith("hstv ")


def test_import_leaves_scipy_unloaded():
    """scipy is imported by the one function that uses it (the acceptance
    suite's random meshes), not by `import hstv`."""
    code = ("import sys, hstv, hstv.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=subprocess_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


def test_import_leaves_acceptance_unloaded():
    """The acceptance suite is imported by `hstv selftest` alone, so the other
    commands do not compile or load it."""
    code = "import sys, hstv, hstv.cli; print('hstv.acceptance' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=subprocess_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False\n"


def test_selftest_seed_default(capsys):
    from hstv.acceptance import DEFAULT_SEED

    details = []
    for extra in ([], ["--seed", str(DEFAULT_SEED)]):
        assert main(["selftest", "--only", "6", *extra]) == 0
        details.append(capsys.readouterr().out.rsplit(" (", 1)[0])
    assert details[0].startswith("criterion 6 [PASS]")
    assert details[0] == details[1]


@pytest.mark.parametrize("only", ["x", "1,,2", "0", "9"])
def test_selftest_only_usage_errors(only, capsys):
    """A token that is not a criterion number exited 1 with a ValueError
    traceback, and 0 or 9 ran nothing and exited 0: each is a usage error
    naming the valid numbers, and no criterion runs."""
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--only", only])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "criterion numbers from 1 to 7" in captured.err
    assert "Traceback" not in captured.err


def test_selftest_only_accepts_every_criterion(monkeypatch):
    """--only takes any of the suite's numbers 1-7, spaces around a number
    included, and hands them to run_all as a set."""
    import hstv.acceptance

    assert len(hstv.acceptance.ALL_CRITERIA) == 7
    asked = []

    def run_all(numbers, seed):
        asked.append(numbers)
        return []

    monkeypatch.setattr(hstv.acceptance, "run_all", run_all)
    assert main(["selftest", "--only", "1,2,3,4,5,6,7"]) == 0
    assert main(["selftest", "--only", " 7, 1"]) == 0
    assert asked == [set(range(1, 8)), {1, 7}]


@pytest.mark.parametrize("exc", [MemoryError(), MemoryError("Unable to allocate 9.0 GiB")])
def test_memory_error_exits_1_without_traceback(exc, monkeypatch, capsys):
    import hstv.cli

    def out_of_memory(args):
        raise exc

    monkeypatch.setattr(hstv.cli, "_cmd_approx", out_of_memory)
    assert main(["approx", "--field", "quadratic:iso", "--N", "0", "--K", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: out of memory: ")
    assert str(exc) in captured.err and "Traceback" not in captured.err


def test_htv_total_and_csv(hat_file, tmp_path, capsys):
    rc = main(["htv", str(hat_file), "--p", "1"])
    assert rc == 0
    total_line = capsys.readouterr().out.strip()
    assert total_line.startswith("htv_total=")
    total = float(total_line.split("=", 1)[1])
    g = load_mesh(hat_file)
    assert total == htv_cpwl(g).total

    out_csv = tmp_path / "edges.csv"
    rc = main(["htv", str(hat_file), "--p", "inf", "--report", "csv",
               "--out", str(out_csv)])
    assert rc == 0
    capsys.readouterr()
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0] == "edge,x1,y1,x2,y2,jump_norm,length,contribution"
    contribs = [float(l.split(",")[-1]) for l in lines[1:]]
    assert abs(sum(contribs) - total) <= 1e-10
    # every cell parses as a plain number (no stray numpy scalar reprs)
    for line in lines[1:]:
        for cell in line.split(",")[1:]:
            float(cell)


def test_htv_out_needs_csv_report(hat_file, tmp_path, capsys):
    """`--out` without `--report csv` wrote nothing and exited 0; it is a
    usage error naming `--report csv`, and no file is written."""
    out_csv = tmp_path / "edges.csv"
    with pytest.raises(SystemExit) as exc:
        main(["htv", str(hat_file), "--out", str(out_csv)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--report csv" in captured.err
    assert not out_csv.exists()


def test_mesh_file_not_utf8_exits_cleanly(tmp_path, capsys):
    """A mesh file holding a byte that is not UTF-8 ended in a
    UnicodeDecodeError traceback; every command that reads one exits 1
    with an `error: ` line."""
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"vertices": [], "triangles": [], "values": ["\xff"]}\n')
    for argv in (["htv", str(path)], ["extremal", "test", str(path)],
                 ["extremal", "decompose", str(path), "--out", str(tmp_path / "d.json")],
                 ["mesh", "render", str(path), "--out", str(tmp_path / "m.svg")]):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read mesh file {path}: "), argv
        assert "Traceback" not in captured.err


def test_approx_csv_and_determinism(tmp_path, capsys):
    args = ["approx", "--field", "quadratic:iso", "--N", "0", "--K", "0..2",
            "--ref-resolution", "64", "--out", str(tmp_path / "a.csv")]
    assert main(args) == 0
    first = (tmp_path / "a.csv").read_bytes()
    args[-1] = str(tmp_path / "b.csv")
    assert main(args) == 0
    assert first == (tmp_path / "b.csv").read_bytes()
    lines = first.decode().strip().split("\n")
    assert len(lines) == 4


def test_approx_reference_row(tmp_path):
    out = tmp_path / "t.csv"
    rc = main(["approx", "--field", "quadratic:iso", "--N", "1", "--K", "1..5",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 6  # header + 5 rows
    last = lines[-1].split(",")
    htv_val = float(last[5])
    assert abs(htv_val - 2.0) <= 0.05 * 2.0


def test_approx_emits_artifacts(tmp_path):
    rc = main(["approx", "--field", "rotated-quadratic:2,1,0.4636",
               "--N", "0", "--K", "1", "--ref-resolution", "64",
               "--out", str(tmp_path / "t.csv"),
               "--emit-mesh", str(tmp_path / "m"),
               "--emit-svg", str(tmp_path / "s")])
    assert rc == 0
    g = load_mesh(tmp_path / "m" / "mesh_K1.json")
    assert g.mesh.covers_bbox_exactly()
    svg = (tmp_path / "s" / "mesh_K1.svg").read_text()
    assert svg.count("<polygon") == g.mesh.n_triangles


@pytest.mark.parametrize("field, n, k, digest", [
    ("gaussian-bump:0.3,0.4,0.6", "2", "0..1",
     "10c3749c1b82f9d50165dfab2c579727b31e2c6835993fb9c025bff238e48704"),
    ("rotated-quadratic:2,1,0.4636", "2", "0..2",
     "91b1530f45703ca638fdd312829711777abd23597b9e6baf100454c6e33ced19"),
], ids=["bump-7-types", "rotated"])
def test_approx_output_digest(tmp_path, field, n, k, digest):
    """`hstv approx` bytes pinned by digest: the CSV and every --emit-mesh
    and --emit-svg file, each hashed with its relative path, in path order.
    The bump request has seven cell types.  Captured with numpy 2.4.6 on
    OpenBLAS 0.3.31."""
    assert main(["approx", "--field", field, "--N", n, "--K", k, "--ref-resolution", "64",
                 "--out", str(tmp_path / "t.csv"), "--emit-mesh", str(tmp_path / "mesh"),
                 "--emit-svg", str(tmp_path / "svg")]) == 0
    h = hashlib.sha256()
    for path in sorted(p for p in tmp_path.rglob("*") if p.is_file()):
        h.update(path.relative_to(tmp_path).as_posix().encode() + b"\0" + path.read_bytes())
    assert h.hexdigest() == digest


def test_extremal_test_verdicts(hat_file, two_hat_file, capsys):
    assert main(["extremal", "test", str(hat_file)]) == 0
    assert capsys.readouterr().out.strip() == "extremal (dim=1)"
    assert main(["extremal", "test", str(two_hat_file)]) == 0
    assert capsys.readouterr().out.strip() == "not extremal (dim=2)"


def test_extremal_decompose(two_hat_file, tmp_path, capsys):
    out = tmp_path / "decomp.json"
    rc = main(["extremal", "decompose", str(two_hat_file), "--tol", "1e-8",
               "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["components"]) == 2
    assert len(doc["coefficients"]) == 2
    assert float(doc["residual"]) <= 1e-8
    total = float(doc["total"])
    assert abs(sum(float(c) for c in doc["coefficients"]) - total) <= 1e-8
    for comp in doc["components"]:
        g = load_mesh_from_doc(comp)
        assert abs(htv_cpwl(g).total - 1.0) <= 1e-9


def test_extremal_decompose_digest(tmp_path, capsys):
    """`extremal decompose` bytes pinned by digest on a seeded 36-vertex
    random Delaunay function: the greedy loop's floats reach the document
    unchanged, so any change to the operands or order of its linear algebra
    shows here.  Captured with numpy 2.4.6 on OpenBLAS 0.3.31."""
    rng = np.random.default_rng(5)
    mesh = random_lattice_mesh(rng, n_interior=32)
    assert mesh.n_vertices == 36
    src = tmp_path / "g.json"
    save_mesh(CpwlFunction(mesh, rng.standard_normal(mesh.n_vertices)), src)
    out = tmp_path / "decomp.json"
    assert main(["extremal", "decompose", str(src), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("terms=33 ")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "c5286d98378f10f2b790ec216f2dc0ef31644e6d52068ca0c901530da5b94a3d")
    assert hashlib.sha256(stdout.encode()).hexdigest() == (
        "d9e8c7935c40c25bf56ac1f7bbc4fbe9e57f264c09ef80f90aff3436918a7c93")


def test_extremal_decompose_digest_68(tmp_path, capsys):
    """`extremal decompose` bytes pinned on a seeded 68-vertex random Delaunay
    function of the 1/128 lattice: 65 greedy steps, each with a wide
    constraint matrix at first and a tall one at the end.  Captured with
    numpy 2.4.6 on OpenBLAS 0.3.31."""
    rng = np.random.default_rng(6)
    mesh = random_lattice_mesh(rng, n_interior=64, denom=128)
    assert mesh.n_vertices == 68
    src = tmp_path / "g.json"
    save_mesh(CpwlFunction(mesh, rng.standard_normal(mesh.n_vertices)), src)
    out = tmp_path / "decomp.json"
    assert main(["extremal", "decompose", str(src), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("terms=65 ")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "218af2963e3ad6901c9ae7ef3f5d411b6ef334d23a8fa4d02c9f5e631864436c")
    assert hashlib.sha256(stdout.encode()).hexdigest() == (
        "3218e49b07e62ebfba2685050133f5241169fdf0c8e1089a955e58174838bbf9")


def test_extremal_decompose_scaled_file(tmp_path, capsys):
    """The 36-vertex digest input scaled by 2^-40 (energy about 4e-10) was
    refused as affine; it decomposes into the same terms, with a coefficient
    sum exactly 2^-40 times the unscaled one."""
    rng = np.random.default_rng(5)
    mesh = random_lattice_mesh(rng, n_interior=32)
    values = rng.standard_normal(mesh.n_vertices)
    lines = []
    for scale in (1.0, 2.0**-40):
        src, out = tmp_path / "g.json", tmp_path / "decomp.json"
        save_mesh(CpwlFunction(mesh, values * scale), src)
        assert main(["extremal", "decompose", str(src), "--out", str(out)]) == 0
        lines.append(dict(kv.split("=") for kv in capsys.readouterr().out.split()))
        lines[-1]["components"] = json.loads(out.read_text())["components"]
    base, scaled = lines
    assert scaled["terms"] == base["terms"] == "33"
    assert float(scaled["coefficient_sum"]) == float(base["coefficient_sum"]) * 2.0**-40
    assert scaled["components"] == base["components"]


@pytest.mark.parametrize("seed, n_interior, denom, expected", [
    (5, 32, 64, "not extremal (dim=33)\n"),
    (6, 64, 128, "not extremal (dim=65)\n"),
], ids=["v36", "v68"])
def test_extremal_test_stdout(tmp_path, capsys, seed, n_interior, denom, expected):
    """`extremal test` stdout on the 36- and 68-vertex digest inputs."""
    rng = np.random.default_rng(seed)
    mesh = random_lattice_mesh(rng, n_interior=n_interior, denom=denom)
    src = tmp_path / "g.json"
    save_mesh(CpwlFunction(mesh, rng.standard_normal(mesh.n_vertices)), src)
    assert main(["extremal", "test", str(src)]) == 0
    assert capsys.readouterr().out == expected


def test_htv_csv_report_digest(tmp_path, capsys):
    """`htv --report csv` bytes pinned by digest on seeded jittered n x n-cell
    meshes with denominators 2..12 x n: every coordinate, jump, length and
    contribution repr reaches the CSV, so a change to the parser, the edge
    order or the row format shows here.  The 48 x 48 mesh has more interior
    edges than one written chunk.  A CPWL jump is rank one, so --p 1 and
    --p inf print the same bytes, and --out holds the bytes stdout shows
    before the total.  Captured with numpy 2.4.6."""
    src = tmp_path / "g.json"
    out = tmp_path / "report.csv"
    for cells, edges, digest in (
            (8, 176, "c27170f5b4e7774bc41ce00dee10aacaaa5bb5c510dfa1d766ad28c7744b18e1"),
            (48, 6816, "7112fbf8804175480aec9bf70ab5ddbaae1734d0ff2a7b32374cccca9cb46617")):
        src.write_text(json.dumps(jittered_document(np.random.default_rng(7), cells)))
        for p in ("1", "inf"):
            assert main(["htv", str(src), "--p", p, "--report", "csv"]) == 0
            stdout = capsys.readouterr().out
            assert stdout.count("\n") == 1 + edges + 1  # header, interior edges, total
            assert hashlib.sha256(stdout.encode()).hexdigest() == digest, (cells, p)
            assert main(["htv", str(src), "--p", p, "--report", "csv",
                         "--out", str(out)]) == 0
            total = capsys.readouterr().out
            assert total.startswith("htv_total=") and stdout.endswith(total)
            assert out.read_text() + total == stdout, (cells, p)


def load_mesh_from_doc(doc):
    from hstv.mesh import cpwl_from_document

    return cpwl_from_document(doc)


def test_mesh_render(hat_file, tmp_path):
    out = tmp_path / "hat.svg"
    assert main(["mesh", "render", str(hat_file), "--out", str(out)]) == 0
    assert out.read_text().startswith("<svg")


def test_exit_codes(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["htv", "x.json", "--frobnicate"])
    assert exc.value.code == 2
    assert main(["htv", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["htv", str(bad)]) == 1
    bad.write_text(json.dumps({
        "vertices": [["0", "1", "0", "1"], ["1", "1", "0", "1"], ["0", "1", "1", "1"]],
        "triangles": [[0, 1]],
    }))
    assert main(["htv", str(bad)]) == 1
    capsys.readouterr()
    # float() would read the booleans as 1.0 and 0.0
    bad.write_text(json.dumps({
        "vertices": [["0", "1", "0", "1"], ["1", "1", "0", "1"], ["1", "1", "1", "1"],
                     ["0", "1", "1", "1"]],
        "triangles": [[0, 1, 2], [0, 2, 3]], "values": [True, False, 0, 1],
    }))
    assert main(["htv", str(bad)]) == 1
    assert "bool" in capsys.readouterr().err
    # rejected by the plan's lattice-size ceiling before any geometry
    assert main(["approx", "--field", "quadratic:iso", "--N", "1", "--K", "11"]) == 1
    capsys.readouterr()
    # 4^N cells above the ceiling even at the smallest cell: rejected before
    # any per-cell work, at once (N=10000 printed 4^N, 6,021 digits, a
    # ValueError); so is a boundary spacing below 2^-40 (K=10^20 and K of
    # 4,300 nines overflowed the shift 1 << (N + K))
    for n, k in (("11", "0"), ("40", "0"), ("10000", "0"), ("1", "99999999999999999999"),
                 ("1", "9" * 4300)):
        t0 = time.perf_counter()
        assert main(["approx", "--field", "quadratic:iso", "--N", n, "--K", k]) == 1
        assert time.perf_counter() - t0 < 2.0
        assert capsys.readouterr().err.startswith("error: ")
    # a K range of more than 41 levels is a usage error (a range of 10^20
    # levels was listed before any check)
    with pytest.raises(SystemExit) as exit_info:
        main(["approx", "--field", "quadratic:iso", "--N", "1", "--K", "0..99999999999999999999"])
    assert exit_info.value.code == 2
    assert "more than 41 levels" in capsys.readouterr().err
    # a negative seed is a usage error (it exited 1 with numpy's ValueError
    # traceback), and no criterion runs
    with pytest.raises(SystemExit) as exit_info:
        main(["selftest", "--only", "6", "--seed", "-1"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --seed: expected an integer >= 0, got '-1'" in captured.err
    assert "Traceback" not in captured.err
    with pytest.raises(SystemExit) as exit_info:
        main(["selftest", "--only", "6", "--seed", "x"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --seed: expected an integer >= 0, got 'x'" in captured.err
    assert main(["approx", "--field", "rotated-quadratic:1,1,inf", "--N", "1", "--K", "0"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    # Finite parameters whose derivatives underflow or overflow: sigma^4 is 0
    # for the first two bumps, |x - cx|^2 overflows for the third, and the
    # Hessian (or its eigenvalues) is not finite for the last two.
    for field in ("gaussian-bump:1e-200", "gaussian-bump:1e-160",
                  "gaussian-bump:0.2,1e308,0.5", "product-sine:1e200",
                  "quadratic:1e308,1e308,1e308"):
        assert main(["approx", "--field", field, "--N", "0", "--K", "0"]) == 1, field
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, err
    # JSON nested deeper than the decoder follows
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 10**5 + "]" * 10**5)
    for argv in (["htv", str(deep)], ["mesh", "render", str(deep), "--out",
                                      str(tmp_path / "deep.svg")],
                 ["extremal", "test", str(deep)]):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, err


def test_float_degenerate_triangles_exit_1(tmp_path):
    """Two vertices 2^-70 apart, (1/2, 1/2) and (1/2 + 2^-70, 1/2), pass
    every exact check but round to one float: every command that
    differentiates on the mesh exits 1 with an error line and no warning."""
    den, half = str(2**70), str(2**69)
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({
        "vertices": [["0", "1", "0", "1"], ["1", "1", "0", "1"], ["1", "1", "1", "1"],
                     ["0", "1", "1", "1"], [half, den, half, den],
                     [str(2**69 + 1), den, half, den]],
        "triangles": [[0, 1, 5], [1, 2, 5], [2, 3, 4], [3, 0, 4], [0, 5, 4], [2, 4, 5]],
        "values": ["0.0", "0.0", "0.0", "0.0", "1.0", "1.0"],
    }))
    assert load_mesh(path).mesh.covers_bbox_exactly()
    for argv in (["htv", path], ["extremal", "test", path],
                 ["extremal", "decompose", path, "--out", tmp_path / "d.json"]):
        out = subprocess.run([sys.executable, "-m", "hstv.cli", *map(str, argv)],
                             capture_output=True, text=True, env=subprocess_env())
        assert out.returncode == 1, (argv, out.stdout)
        assert out.stderr.startswith("error: "), out.stderr
        assert "RuntimeWarning" not in out.stderr, out.stderr


def test_float_degenerate_square_refused(tmp_path, capsys):
    """The square [2^60, 2^60 + 1] x [0, 1] is exact and tiles its bounding
    square, but its x-coordinates round to one float: the gradient stencil
    refuses it, in process and from `hstv htv`, with the same message."""
    x = 2**60
    g = CpwlFunction(Triangulation([[x, 0], [x + 1, 0], [x + 1, 1], [x, 1]],
                                   [[0, 1, 2], [0, 2, 3]]), np.zeros(4))
    assert g.mesh.covers_bbox_exactly()
    message = "triangle [0, 1, 2] has zero area in floating point"
    for call in (g.gradients, lambda: htv_cpwl(g)):
        with pytest.raises(MeshError, match=re.escape(message)):
            call()
    path = tmp_path / "flat.json"
    save_mesh(g, path)
    assert main(["htv", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.filterwarnings("error")
def test_huge_square_keeps_its_energy(tmp_path, capsys):
    """The diagonal square with corner numerator 10^200 and value 1 at one
    corner has the energy 2 of the unit square.  Its float coordinates are
    finite but their products are not: the gradient determinant overflowed,
    numpy warned, every gradient read 0 and `htv` printed htv_total=0.0
    with exit 0.  The stencil works on coordinates scaled by a power of two."""
    n = 10**200
    g = CpwlFunction(Triangulation([[0, 0], [n, 0], [n, n], [0, n]], [[0, 1, 2], [0, 2, 3]]),
                     [0.0, 0.0, 0.0, 1.0])
    path = tmp_path / "huge.json"
    save_mesh(g, path)
    assert main(["htv", str(path)]) == 0
    out, err = capsys.readouterr()
    total = float(re.fullmatch(r"htv_total=(\S+)\n", out).group(1))
    assert total == pytest.approx(2.0, rel=1e-15) and err == ""
    assert main(["extremal", "test", str(path)]) == 0
    assert capsys.readouterr() == ("extremal (dim=1)\n", "")


def test_value_count_refused(hat_file, capsys):
    """A mesh document with one value fewer than its vertices is refused
    before a function is built, and `hstv htv` on it exits 1."""
    doc = json.loads(hat_file.read_text())
    doc["values"].pop()
    message = "values array length does not match vertex count"
    with pytest.raises(MeshError, match=f"^{message}$"):
        cpwl_from_document(doc)
    hat_file.write_text(json.dumps(doc))
    assert main(["htv", str(hat_file)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("values", [[0, 0, 0, 0, 1e308], [1e308, -1e308, 1e308, -1e308, 0],
                                    [1e308] * 4 + [-1e308]],
                         ids=["apex", "alternating", "sum"])
def test_overflowing_values_exit_1(pyramid, values, tmp_path, capsys):
    """Finite values whose gradient jumps or energy overflow float: `htv`
    printed htv_total=inf (or nan), `extremal decompose` exited 0 with
    residual=inf and `extremal test` called the function affine.  Each
    command exits 1 with one error line, and numpy warns of nothing.
    `mesh render` needs no derivative: it draws one polygon per triangle
    (a triangle's value sum overflowed to a NaN colour before)."""
    path = tmp_path / "big.json"
    save_mesh(pyramid.with_values(values), path)
    svg = tmp_path / "big.svg"
    assert main(["mesh", "render", str(path), "--out", str(svg)]) == 0
    assert svg.read_text().count("<polygon ") == pyramid.mesh.n_triangles
    assert capsys.readouterr() == ("", "")
    for argv in (["htv", path], ["extremal", "test", path],
                 ["extremal", "decompose", path, "--out", tmp_path / "d.json"]):
        assert main([str(a) for a in argv]) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: vertex values overflow float: "
                                "gradient jumps or energy not finite\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("field, message", [
    ("rotated-quadratic:1e308,1,0", "smooth energy overflows float: quadrature sum inf"),
    ("quadratic:1,0,1,1e308,0,0", "interpolation error overflows float: probe error inf"),
], ids=["quadrature", "sup-error"])
def test_approx_refuses_overflowing_fields(field, message, tmp_path, capsys):
    """The first field's quadrature sum overflowed to htv_reference=inf; the
    second's values (about 1e308 x) made sup_error=inf.  Both were written
    to the CSV with exit code 0; now each exits 1 with one error line."""
    out = tmp_path / "t.csv"
    assert main(["approx", "--field", field, "--N", "1", "--K", "0", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_extremal_refuses_non_tiling_meshes(tmp_path, capsys):
    """A 4x4 grid hat with a stray triangle inside one cell, or with a
    corner triangle dropped, does not tile the square: `htv` and both
    extremal commands refuse it with one error line."""
    path = tmp_path / "mesh.json"
    for bad in non_tiling_documents():
        path.write_text(json.dumps(bad))
        for argv in (["htv", path], ["extremal", "test", path],
                     ["extremal", "decompose", path, "--out", tmp_path / "d.json"]):
            assert main(list(map(str, argv))) == 1, argv
            out, err = capsys.readouterr()
            assert out == ""
            assert err == ("error: mesh does not cover its bounding square: "
                           "CPWL energy needs a full tiling\n")


def test_extremal_refuses_tolerances_that_switch_checks_off(hat_file, tmp_path, capsys):
    """A NaN, infinite or negative `--tol`, or a relative `extremal test`
    tolerance of 1 or more, exits 1 with an error line: such a tolerance
    turns off the sign and stall checks of `decompose` (a random 4x4-grid
    function ran to the loop cap, 42 terms against 22) or empties every
    support in `test`.  A zero tolerance is kept."""
    path = tmp_path / "g.json"
    save_mesh(CpwlFunction(uniform_diagonal_mesh(4),
                           np.random.default_rng(0).standard_normal(25)), path)
    cases = [["decompose", path, "--tol", tol, "--out", tmp_path / "d.json"]
             for tol in ("nan", "inf", "-1")]
    cases += [["test", f, "--tol", tol]
              for f in (path, hat_file) for tol in ("nan", "inf", "1e300", "1", "-1")]
    for argv in cases:
        assert main(["extremal", *map(str, argv)]) == 1, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: tolerance "), err
    assert not (tmp_path / "d.json").exists()
    assert main(["extremal", "test", str(hat_file), "--tol", "0"]) == 0
    assert capsys.readouterr().out == "extremal (dim=1)\n"


def test_extremal_names_the_tolerance_that_failed(tmp_path, capsys):
    """Allowed tolerances that fail on a random 4x4-grid function: `decompose
    --tol 0` rejects a round-off-level negative jump ratio and `test --tol
    0.99` drops 39 of 40 edges with a nonzero jump.  Each exits 1 with an
    error line that names the tolerance, not a numerical rank failure."""
    path = tmp_path / "g.json"
    save_mesh(CpwlFunction(uniform_diagonal_mesh(4),
                           np.random.default_rng(0).standard_normal(25)), path)
    for argv, text in ((["decompose", path, "--tol", "0", "--out", tmp_path / "d.json"],
                        "at tolerance 0.0"),
                       (["test", path, "--tol", "0.99"], "tolerance 0.99 left 39 edges")):
        assert main(["extremal", *map(str, argv)]) == 1, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and text in err and "numerical" not in err, err
    assert not (tmp_path / "d.json").exists()


FIELD_FAMILIES = ("quadratic", "rotated-quadratic", "gaussian-bump", "product-sine")
FIELD_PARAMETERS = (0.0, -0.0, -1.0, 0.5, 3.0, 5e-324, -5e-324, 1e-308, 1e-160, 1e154,
                    1e308, -1e308, math.nan, math.inf, -math.inf)
_parameter = st.one_of(st.sampled_from(FIELD_PARAMETERS), st.floats()).map(repr)
_field = st.one_of(
    st.just("quadratic:iso"),
    st.sampled_from(FIELD_FAMILIES),
    st.builds(lambda name, ps: f"{name}:{','.join(ps)}",
              st.sampled_from(FIELD_FAMILIES), st.lists(_parameter, max_size=7)))
_p = st.one_of(st.sampled_from(["1", "2", "inf", "Infinity", "-inf", "nan", "0", "0.5",
                                "1e400", "abc", ""]),
               st.floats().map(repr))
_k = st.one_of(
    st.integers(-3, 1).map(str),
    st.builds(lambda a, b: f"{a}..{b}", st.integers(-2, 1), st.integers(-2, 1)),
    st.sampled_from(["a", "1..", "..1", "", "1e0", "99999999999999999999",
                     "0..99999999999999999999", "-99999999999999999999..0"]))


# --N: the levels that run, then refused ones; --ref-resolution: refused
# values, the two that run, then values past the 2^24-point grid ceiling.
_n = st.sampled_from(["0", "1", "11", "12", "10000", "-1"])
_resolution = st.sampled_from(["-5", "0", "1", "2", "64", "4097", str(10**12)])


@settings(max_examples=60, deadline=None)
@given(_field, _p, _k, _n, _resolution)
@example("quadratic:iso", "1", "99999999999999999999", "1", "64")
@example("quadratic:iso", "1", "0..99999999999999999999", "1", "64")
@example("product-sine:1e155", "inf", "0..1", "1", "64")
@example("quadratic:iso", "1", "0..1", "1", str(10**12))
@example("quadratic:iso", "1", "0", "11", "2")
def test_cli_approx_arguments_exit_cleanly(field, p, k, n, resolution):
    """`hstv approx` on any field descriptor (every family, with extreme,
    zero, negative and non-finite parameters and wrong counts), `--p`, `--K`,
    `--N` and `--ref-resolution` string exits 0, 1 or 2, prints no
    traceback, and prints `error:` when it exits 1.  A run that succeeds has
    N <= 1, K <= 1 and resolution <= 64; every refusal takes under 2 s."""
    argv = ["approx", f"--field={field}", f"--N={n}", f"--K={k}", f"--p={p}",
            f"--ref-resolution={resolution}"]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    elapsed = time.perf_counter() - start
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert "error: " in err.getvalue(), (argv, err.getvalue())
    if code != 0:
        assert elapsed < 2.0, (argv, elapsed)


def test_threads_env_validation(hat_file, monkeypatch, capsys):
    monkeypatch.setenv("HTV_THREADS", "4")
    assert main(["htv", str(hat_file)]) == 0
    capsys.readouterr()
    # A bad value exited 2 with nothing on stderr; it is named in one line,
    # before any argument is read.
    for raw in ("0", "lots"):
        monkeypatch.setenv("HTV_THREADS", raw)
        for argv in (["htv", str(hat_file)], ["--version"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: HTV_THREADS must be a positive integer, got '{raw}'\n"


# A valid 3 x 3-cell grid document with random values, the seed of the
# corrupt-file fuzz below.
BASE_DOCUMENT = mesh_document(CpwlFunction(
    uniform_diagonal_mesh(3), np.random.default_rng(5).standard_normal(16)))

NOT_AN_ENTRY = st.sampled_from([
    0.5, 1.0, -2.0, float("nan"), float("inf"), True, False, None, "", "x", "1.5", "0x1",
    [], [1], [[0]], ["0", "1"], {}, 2**64, -(2**63) - 1, 10**400,
])


def with_vertex_entry(entry) -> str:
    """The JSON text of BASE_DOCUMENT with `entry` as its first vertex numerator."""
    doc = json.loads(json.dumps(BASE_DOCUMENT))
    doc["vertices"][0][0] = entry
    return json.dumps(doc)


@st.composite
def corrupt_documents(draw) -> str:
    """The JSON text of BASE_DOCUMENT after one mutation: truncated; a
    float, bool, string, nested list or other non-entry in place of a
    key's value, a row or an entry; a dropped key; a negative or
    out-of-range triangle index; a duplicate vertex; or a dropped triangle,
    which leaves the mesh short of covering its square."""
    doc = json.loads(json.dumps(BASE_DOCUMENT))
    kind = draw(st.sampled_from(["truncate", "replace", "drop", "index", "duplicate",
                                 "uncover"]))
    key = draw(st.sampled_from(["vertices", "triangles", "values"]))
    if kind == "truncate":
        text = json.dumps(doc)
        return text[:draw(st.integers(0, len(text) - 1))]
    if kind == "replace":
        rows = doc[key]
        i = draw(st.integers(0, len(rows) - 1))
        level = draw(st.sampled_from(["key", "row", "entry"]))
        if level == "key":
            doc[key] = draw(NOT_AN_ENTRY)
        elif level == "row" or key == "values":
            rows[i] = draw(NOT_AN_ENTRY)
        else:
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(NOT_AN_ENTRY)
    elif kind == "drop":
        del doc[key]
    elif kind == "index":
        tri = doc["triangles"][draw(st.integers(0, len(doc["triangles"]) - 1))]
        tri[draw(st.integers(0, 2))] = draw(
            st.integers(-(2**63), -1) | st.integers(16, 2**63 - 1) | st.sampled_from([-1, 16]))
    elif kind == "duplicate":
        a, b = draw(st.lists(st.integers(0, len(doc["vertices"]) - 1), min_size=2,
                             max_size=2, unique=True))
        doc["vertices"][b] = list(doc["vertices"][a])
    else:
        del doc["triangles"][draw(st.integers(0, len(doc["triangles"]) - 1))]
    return json.dumps(doc)


@settings(max_examples=150, deadline=None)
@given(corrupt_documents())
@example(with_vertex_entry(10**400))  # a coordinate beyond float range
def test_cli_corrupt_mesh_files_exit_cleanly(text):
    """Every command that reads a mesh file exits 0 or 1 on a corrupt file,
    prints no traceback, and prints `error:` when it exits 1."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mesh.json")
        with open(path, "w") as f:
            f.write(text)
        for argv in (["htv", path], ["extremal", "test", path],
                     ["extremal", "decompose", path, "--out", os.path.join(tmp, "d.json")],
                     ["mesh", "render", path, "--out", os.path.join(tmp, "m.svg")]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1), (argv, code)
            assert "Traceback" not in err.getvalue()
            if code == 1:
                assert "error: " in err.getvalue(), (argv, err.getvalue())
