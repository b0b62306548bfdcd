"""The measured process: one session of a workload's requests.

run.py starts it in a fresh interpreter with hstv's ``src`` on PYTHONPATH,
so the band-master cache and every mesh's cached operators start cold, as
they do for a CLI user; the session's requests then share the process, as a
library user's calls would.

    worker.py MANIFEST RESULT TRACED SPANS

It times its set-up (``import hstv`` plus reading the inputs), runs each
request once, in order, checks its outputs and writes the timings to RESULT;
with TRACED=1 every request runs under the tracer and, unless SPANS is
empty, the spans are written there.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import resource
import sys
import time
import traceback
from fractions import Fraction

T_START = time.perf_counter()


def _load(manifest_path):
    with open(manifest_path) as f:
        manifest = json.load(f)
    import hstv
    import hstv.cli

    src = os.path.realpath(manifest["src"])
    if not os.path.realpath(hstv.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported hstv from {hstv.__file__}, not from {src}")
    for path in sorted({p for r in manifest["requests"] for p in r.get("inputs", [])}):
        with open(path) as f:
            json.load(f)
    return manifest


# -- requests ---------------------------------------------------------------------


def _frames(angles, N):
    from hstv import RationalAngle, SquareFrame

    side = Fraction(1, 2**N)
    frames = []
    for k, (p, q) in enumerate(angles):
        iy, ix = divmod(k, 2**N)
        frames.append(SquareFrame(
            index=k, ix=ix, iy=iy, x0=ix * side, y0=iy * side, side=side,
            center=(float((ix + Fraction(1, 2)) * side), float((iy + Fraction(1, 2)) * side)),
            diag=(1.0, 1.0), angle=RationalAngle(p, q), deviation=0.0,
        ))
    return frames


def execute(req) -> tuple[float, int, str, object]:
    """Run one request: (seconds, exit code, stdout, library result)."""
    import hstv
    import hstv.cli

    out = io.StringIO()
    err = io.StringIO()
    result = None
    if req["kind"] == "frames":
        fld = hstv.parse_field(req["field"])
        frames = _frames(req["angles"], req["N"])
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            if req["kind"] == "cli":
                code = hstv.cli.main(req["argv"])
            elif req["kind"] == "frames":
                result = hstv.convergence_experiment(fld, req["N"], req["K"], frames=frames)
                code = 0
            else:
                # Hold the mesh until the clock stops, as the caller would.
                mesh = hstv.load_mesh(req["mesh"])
                result = hstv.p_independence_check(mesh)
                code = 0
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash fails the request, not the benchmark
            traceback.print_exc()
            code = 1
        seconds = time.perf_counter() - t0
    if req["kind"] == "p_independence" and result is not None:
        out.write(f"{result!r}\n")
    if req["kind"] == "frames" and result is not None:
        with open(req["files"][0], "w") as f:
            f.write(result.to_csv())
    if code:
        sys.stderr.write(f"{req['id']}: exit {code}: {err.getvalue()[-2000:]}\n")
    return seconds, code, out.getvalue(), result


def _total(stdout):
    m = re.fullmatch(r"htv_total=(\S+)\n", stdout)
    return m.group(1) if m else None


def check(req, stdout, result, state) -> tuple[list[str], float]:
    """(failed checks, work units) for one finished request's outputs."""
    kind = req["check"]
    bad = []
    units = req.get("units", 0)
    if kind == "approx":
        with open(req["files"][0]) as f:
            rows = list(csv.DictReader(f))
        units = sum(int(r["vertices"]) for r in rows)
        if len({r["min_angle"] for r in rows}) != 1:
            bad.append("min_angle differs across K")
        top = rows[-1]
        ref = float(top["htv_reference"])
        if req["quadratic"] and abs(float(top["htv_cpwl"]) - ref) > 0.05 * ref:
            bad.append(f"top-K htv {top['htv_cpwl']} not within 5% of {ref}")
    elif kind == "htv_csv":
        total = _total(stdout)
        with open(req["files"][0]) as f:
            contribs = [float(r["contribution"]) for r in csv.DictReader(f)]
        if total is None:
            bad.append("no htv_total line")
        elif abs(math.fsum(contribs) - float(total)) > 1e-12 * abs(float(total)):
            bad.append("CSV contributions do not sum to htv_total")
        if len(contribs) != req["units"]:
            bad.append(f"{len(contribs)} CSV rows, expected {req['units']} interior edges")
        state[req["id"]] = total
    elif kind == "htv_total":
        total = _total(stdout)
        if total is None or total != state.get(req["same_total_as"]):
            bad.append(f"--p inf total {total} differs from --p 1")
    elif kind == "p_spread":
        if not (result is not None and 0.0 <= result <= 1e-12):
            bad.append(f"p-spread {result} above 1e-12")
    elif kind == "decompose":
        with open(req["files"][0]) as f:
            doc = json.load(f)
        total = float(doc["total"])
        coeffs = [float(c) for c in doc["coefficients"]]
        units = len(coeffs)
        gap = abs(math.fsum(coeffs) + float(doc["residual"]) - total)
        if not gap <= 1e-8 * total:
            bad.append(f"identity gap {gap} above 1e-8 * total")
        if not stdout.startswith(f"terms={units} "):
            bad.append("stdout term count differs from the JSON")
    elif kind == "extremal_test":
        if not re.fullmatch(r"(not )?extremal \(dim=\d+\)\n", stdout):
            bad.append(f"unexpected verdict line {stdout!r}")
    return bad, units


def _digest(req, stdout) -> tuple[str, int]:
    """SHA-256 over stdout and every output file, and the bytes written."""
    h = hashlib.sha256(stdout.encode())
    size = len(stdout.encode())
    for path in req["files"]:
        with open(path, "rb") as f:
            data = f.read()
        h.update(data)
        size += len(data)
    return h.hexdigest(), size


def session(manifest, traced: bool, spans_path: str) -> dict:
    """One pass over the workload's requests, in order, in this process.

    With `traced`, every request runs under the tracer; the spans go to
    `spans_path` and the result carries the per-layer metrics.
    """
    tracer = None
    if traced:
        from spans import Tracer, layer_metrics

        tracer = Tracer()
    requests: dict[str, dict] = {}
    failures: list[str] = []
    per_request = []
    worst_gap = 0.0
    state: dict[str, object] = {}
    for req in manifest["requests"]:
        if tracer is not None:
            tracer.request = req["id"]
            tracer.install()
        try:
            seconds, code, stdout, result = execute(req)
        finally:
            if tracer is not None:
                tracer.uninstall()
        bad = [f"exit code {code}"] if code else []
        units, digest, size = 0, None, 0
        if not code:
            try:
                found, units = check(req, stdout, result, state)
                digest, size = _digest(req, stdout)
            except (OSError, ValueError, KeyError) as exc:
                found = [f"unreadable output: {exc!r}"]
            bad += found
        if tracer is not None:
            layers = tracer.request_layers(req["id"])
            gap = abs(seconds - sum(layers.values()))
            worst_gap = max(worst_gap, gap / seconds)
            if gap > 1e-3 * seconds + 1e-4:
                bad.append(f"layer self times miss {gap:.2e} s of {seconds:.3f} s")
            per_request.append({"request": req["id"], "wall_s": seconds, "self_s": layers})
        if bad:
            failures.append(f"{req['id']}: {'; '.join(bad)}")
        requests[req["id"]] = {"seconds": seconds, "units": units, "digest": digest,
                               "cli_bytes": size if req["kind"] == "cli" else 0}
    doc = {"requests": requests, "failures": failures,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        doc["layers"] = layer_metrics(tracer, set(requests))
        doc["per_request"] = per_request
        doc["unaccounted_max"] = worst_gap
        if spans_path:
            tracer.dump(spans_path)
    return doc


def main(argv) -> int:
    manifest_path, result_path, traced, spans_path = argv
    manifest = _load(manifest_path)
    setup_s = time.perf_counter() - T_START
    doc = session(manifest, traced=traced == "1", spans_path=spans_path)
    doc["setup_s"] = setup_s
    with open(result_path, "w") as f:
        json.dump(doc, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
