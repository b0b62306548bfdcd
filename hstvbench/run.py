"""hstv benchmark: run one workload from a source checkout and print its metrics.

    python3 hstvbench/run.py --workload energy --seed 1 --seconds 36 --trace 0

Steps: pin the BLAS/OpenMP thread pools to one thread; write the workload's
seeded inputs under ``.hstvbench_work/``; then run sessions for about
``--seconds`` (at least three).  A session is a fresh worker
process -- cold caches, as for a CLI user -- that times its own set-up
(``import hstv`` plus reading the inputs), sends the workload's requests one
after another (a closed loop with one client) and checks every output.
With ``--trace 1`` sessions alternate traced and untraced, and the run
reports per-layer metrics instead of the end-to-end ones.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A full record (environment, input and output
digests, latencies, per-request layer times) goes to ``.hstvbench_results/``.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, here and (inherited) in every child process.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MIN_SESSIONS = 3  # so the set-up median drops one stalled session
DEADLINE_S = 170.0  # the whole run, input generation included

END_TO_END_UNITS = {"setup_s": "s", "request_p50_s": "s", "work_per_s": "1/s",
                    "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    for suffix, unit in ((".s", "s"), ("_s", "s"), (".us_per_vertex", "us/vertex"),
                         (".ns_per_edge", "ns/edge"), (".us_per_edge", "us/edge"),
                         (".ms_per_call", "ms/call"), ("_ratio", "ratio"),
                         ("_gap", "ratio"), ("_bytes", "bytes"), ("_bits", "bits")):
        if name.endswith(suffix):
            return unit
    return "count"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {**PINNED, "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas}


def session(manifest: str, result: str, traced: bool, spans: str, deadline: float) -> dict:
    """Run one worker session in a fresh interpreter and return its result."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), manifest, result,
         "1" if traced else "0", spans],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    if proc.returncode:
        raise SystemExit(f"worker session exited with code {proc.returncode}")
    with open(result) as f:
        return json.load(f)


def end_to_end(sessions: list[dict]) -> dict:
    """Per request, its mean latency over sessions; then request_p50_s is
    the median of those, and work_per_s the run's work over its total
    request time.

    The host's speed flips between two levels about 1.5x apart for seconds
    at a time, so each request's latency is bimodal over a run's few
    sessions: a mean follows the share of slow time smoothly, where a
    median or minimum of three jumps between the levels.
    """
    ids = sessions[0]["requests"]
    typical = [statistics.fmean(s["requests"][rid]["seconds"] for s in sessions)
               for rid in ids]
    work = sum(r["units"] for s in sessions for r in s["requests"].values())
    busy = sum(r["seconds"] for s in sessions for r in s["requests"].values())
    return {
        "setup_s": statistics.median(s["setup_s"] for s in sessions),
        "request_p50_s": statistics.median(typical),
        "work_per_s": work / busy,
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in sessions),
    }


def per_layer(sessions: list[dict]) -> dict:
    """The first (traced, cold) session's layers; the overhead ratio is the
    median over traced/untraced session pairs of their request time."""
    metrics = dict(sessions[0]["layers"])
    metrics["cli.output_bytes"] = sum(r["cli_bytes"] for r in sessions[0]["requests"].values())
    busy = [sum(r["seconds"] for r in s["requests"].values()) for s in sessions]
    metrics["trace.overhead_ratio"] = statistics.median(
        t / u for t, u in zip(busy[0::2], busy[1::2]))
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "hstv", "__init__.py")):
        print(f"error: no hstv sources under {SRC}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(ROOT, ".hstvbench_work", f"{tag}-{os.getpid()}")
    results = os.path.join(ROOT, ".hstvbench_results")
    os.makedirs(work)
    os.makedirs(results, exist_ok=True)
    sessions = []
    try:
        requests, inputs_digest = workloads.build(args.workload, args.seed, work)
        manifest = os.path.join(work, "manifest.json")
        with open(manifest, "w") as f:
            json.dump({"src": SRC, "requests": requests}, f)
        start = time.monotonic()
        spans = os.path.join(results, f"{tag}-spans.json")
        # Traced runs need one traced/untraced pair and end on a whole pair.
        least = 2 if args.trace else MIN_SESSIONS
        lengths: list[float] = []
        # Start another session only if it should end within --seconds.
        while (len(sessions) < least or (args.trace and len(sessions) % 2)
               or time.monotonic() - start + statistics.median(lengths) <= args.seconds):
            traced = bool(args.trace) and len(sessions) % 2 == 0
            began = time.monotonic()
            sessions.append(session(manifest, os.path.join(work, "result.json"), traced,
                                    spans if not sessions else "", deadline))
            lengths.append(time.monotonic() - began)
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {DEADLINE_S:.0f} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [f for s in sessions for f in s["failures"]]
    digests = {rid: r["digest"] for rid, r in sessions[0]["requests"].items()}
    for k, s in enumerate(sessions[1:], 1):
        failures += [f"{rid}: output of session {k} differs from session 0"
                     for rid, r in s["requests"].items()
                     if r["digest"] is not None and r["digest"] != digests[rid]]
    attempted = sum(len(s["requests"]) for s in sessions)
    metrics = per_layer(sessions) if args.trace else end_to_end(sessions)
    units = {m: layer_unit(m) for m in metrics} if args.trace else END_TO_END_UNITS
    outputs_digest = hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()
    throughput = workloads.WORK_UNITS[args.workload]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "inputs_sha256": inputs_digest, "outputs_sha256": outputs_digest,
        "output_digests": digests, "attempted": attempted, "failed": len(failures),
        "failed_ratio": len(failures) / attempted, "failures": failures[:50],
        "throughput": throughput, "metrics": metrics, "sessions": sessions,
    }
    record_path = os.path.join(results, f"{tag}.json")
    with open(record_path, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")

    print(f"workload {args.workload}  seed {args.seed}  sessions {len(sessions)}  "
          f"requests {attempted}  failed {len(failures)}")
    for failure in failures:
        print(f"  FAILED {failure}")
    for name, value in metrics.items():
        alias = f" ({throughput})" if name == "work_per_s" else ""
        print(f"  {name}{alias} = {value:.6g} {units[name]}")
    print(f"  failed_ratio = {record['failed_ratio']:.6g} ratio")
    print(f"inputs sha256 {inputs_digest}\noutputs sha256 {outputs_digest}\n"
          f"record {os.path.relpath(record_path, ROOT)}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
