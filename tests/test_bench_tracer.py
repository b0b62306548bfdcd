"""The names the benchmark's tracer reads from hstv.

`hstvbench/spans.py` wraps hstv's public functions and, after each traced
call, reads attributes of its result or arguments (`HtvReport.edges`,
`load_mesh(...).mesh`, `MeshPlan.squares`, `Decomposition.terms`, ...).  A
rename or deletion of one of them makes every traced request of the
benchmark fail while the untraced code still works.  This test runs one
request of each benchmark workload under the tracer, as the benchmark's
worker does, and checks what the worker checks.
"""

import contextlib
import io
import sys
import time
from pathlib import Path

import numpy as np

import hstv
import hstv.cli
from hstv.mesh import CpwlFunction, save_mesh, uniform_diagonal_mesh

BENCH = str(Path(__file__).resolve().parents[1] / "hstvbench")
sys.path.insert(0, BENCH)
try:
    from spans import Tracer, layer_metrics
finally:
    sys.path.remove(BENCH)


def test_traced_requests_account_for_their_time(tmp_path):
    mesh_path = tmp_path / "mesh.json"
    mesh = uniform_diagonal_mesh(6)
    save_mesh(CpwlFunction(mesh, np.random.default_rng(3).standard_normal(mesh.n_vertices)),
              mesh_path)
    m = str(mesh_path)

    def cli(*argv):
        # Looked up at call time, as the worker does: the tracer rebinds the
        # names in hstv's modules, not in this one.
        return hstv.cli.main(list(argv))

    requests = {
        "htv_csv": lambda: cli("htv", m, "--report", "csv", "--out", str(tmp_path / "e.csv")),
        "p_independence": lambda: 0 if hstv.p_independence_check(hstv.load_mesh(m)) <= 1e-12
        else 1,
        "decompose": lambda: cli("extremal", "decompose", m, "--out", str(tmp_path / "d.json")),
        "test": lambda: cli("extremal", "test", m),
        "approx": lambda: cli("approx", "--field", "quadratic:iso", "--N", "1", "--K", "1",
                              "--out", str(tmp_path / "table.csv")),
    }
    tracer = Tracer()
    for rid, run in requests.items():
        tracer.request = rid
        tracer.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                code = run()
                seconds = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        assert code == 0, rid
        gap = abs(seconds - sum(tracer.request_layers(rid).values()))
        assert gap <= 1e-3 * seconds + 1e-4, (rid, gap, seconds)
    layers = layer_metrics(tracer, set(requests))
    for name in ("htv.htv_cpwl.ns_per_edge", "extremal.decompose.terms", "approx.vertices"):
        assert layers[name] > 0, name
