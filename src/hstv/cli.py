"""Command-line interface: energy reports, the approximation pipeline,
extremality tools, mesh rendering and the acceptance selftest.

All outputs are machine readable (CSV/JSON/SVG) and byte-identical across
identical invocations.  Exit codes: 0 success, 1 domain error, 2 usage.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

from . import __version__
from .approx import MAX_SPACING_BITS, convergence_experiment
from .errors import HstvError
from .extremal import DECOMPOSE_TOL, decompose, is_extremal
from .fields import parse_field
from .htv import SUPPORT_REL_TOL, htv_cpwl
from .mesh import load_mesh, mesh_document, render_svg, save_mesh
from .schatten import INF


def _parse_p(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity"):
        return INF
    try:
        p = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad Schatten exponent {text!r}")
    if not p >= 1:
        raise argparse.ArgumentTypeError("Schatten exponent must be >= 1")
    return p


def _parse_k_range(text: str) -> list[int]:
    if ".." in text:
        a, _, b = text.partition("..")
        lo, hi = int(a), int(b)
        if hi < lo:
            raise argparse.ArgumentTypeError(f"empty K range {text!r}")
        # Only K in 0..MAX_SPACING_BITS can be planned; a wider range is
        # refused before its list is built.
        if hi - lo > MAX_SPACING_BITS:
            raise argparse.ArgumentTypeError(
                f"K range {text!r} has more than {MAX_SPACING_BITS + 1} levels")
        return list(range(lo, hi + 1))
    return [int(text)]


def _parse_only(text: str) -> set[int]:
    # The numbers of acceptance.ALL_CRITERIA, checked without loading the suite.
    if not re.fullmatch(r"\s*[1-7]\s*(,\s*[1-7]\s*)*", text):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated criterion numbers from 1 to 7, got {text!r}")
    return set(map(int, text.split(",")))


def _parse_seed(text: str) -> int:
    # numpy's default_rng takes only seeds >= 0.
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return seed


def _check_threads_env() -> None:
    raw = os.environ.get("HTV_THREADS")
    if raw is None:
        return
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        print(f"error: HTV_THREADS must be a positive integer, got {raw!r}", file=sys.stderr)
        raise SystemExit(2)
    # Computation is deterministic and single-threaded; any positive cap is
    # honored trivially.


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="hstv",
        description="Hessian-Schatten total variation toolbox for the unit square",
    )
    parser.add_argument("--version", action="version", version=f"hstv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_htv = sub.add_parser("htv", help="CPWL energy of a mesh file")
    p_htv.add_argument("mesh", help="mesh JSON with values")
    p_htv.add_argument("--p", type=_parse_p, default=1.0)
    p_htv.add_argument("--report", choices=["csv"], default=None)
    p_htv.add_argument("--out", default=None, help="write the CSV report here")

    p_ap = sub.add_parser("approx", help="run the CPWL approximation pipeline")
    p_ap.add_argument("--field", required=True, help="field descriptor, e.g. quadratic:iso")
    p_ap.add_argument("--N", type=int, required=True, help="dyadic partition level")
    p_ap.add_argument("--K", type=_parse_k_range, required=True,
                      help="band level or range a..b")
    p_ap.add_argument("--p", type=_parse_p, default=1.0)
    p_ap.add_argument("--ref-resolution", type=int, default=512)
    p_ap.add_argument("--out", default=None, help="write the CSV table here")
    p_ap.add_argument("--emit-mesh", default=None, metavar="DIR",
                      help="save the interpolant mesh JSON per K")
    p_ap.add_argument("--emit-svg", default=None, metavar="DIR",
                      help="render the mesh SVG per K")

    p_ex = sub.add_parser("extremal", help="extreme-point analysis")
    ex_sub = p_ex.add_subparsers(dest="subcommand", required=True)
    p_t = ex_sub.add_parser("test", help="extremality verdict for a mesh file")
    p_t.add_argument("mesh")
    p_t.add_argument("--tol", type=float, default=SUPPORT_REL_TOL)
    p_d = ex_sub.add_parser("decompose", help="decompose into extremal directions")
    p_d.add_argument("mesh")
    p_d.add_argument("--tol", type=float, default=DECOMPOSE_TOL)
    p_d.add_argument("--out", required=True, help="decomposition JSON path")

    p_m = sub.add_parser("mesh", help="mesh utilities")
    m_sub = p_m.add_subparsers(dest="subcommand", required=True)
    p_r = m_sub.add_parser("render", help="render a mesh file as SVG")
    p_r.add_argument("mesh")
    p_r.add_argument("--out", required=True)

    p_s = sub.add_parser("selftest", help="run the acceptance suite")
    p_s.add_argument("--only", type=_parse_only, default=None,
                     help="comma-separated criterion numbers from 1 to 7, e.g. 1,5")
    p_s.add_argument("--seed", type=_parse_seed, default=None)
    return parser


# Interior edges per written block of the CSV report.
_CSV_CHUNK_EDGES = 4096


def _write_edge_csv(f, g, report) -> None:
    """Write the per-edge CSV report to f, one block of rows at a time."""
    f.write("edge,x1,y1,x2,y2,jump_norm,length,contribution\n")
    # Each vertex is an endpoint of several edges: format it once.
    xs, ys = (list(map(repr, c)) for c in g.mesh.float_vertices.T.tolist())
    for lo in range(0, len(report.edge_array), _CSV_CHUNK_EDGES):
        block = slice(lo, lo + _CSV_CHUNK_EDGES)
        u, v = report.edge_array[block].T.tolist()
        jx, jy = report.jumps[block].T.tolist()
        # math.hypot: np.hypot differs in the last bit, and the report digest pins it.
        f.write("".join(
            f"{a}-{b},{xs[a]},{ys[a]},{xs[b]},{ys[b]},"
            f"{math.hypot(x, y)!r},{length!r},{contribution!r}\n"
            for a, b, x, y, length, contribution in zip(
                u, v, jx, jy, report.lengths[block].tolist(),
                report.contributions[block].tolist())))


def _cmd_htv(args) -> int:
    g = load_mesh(args.mesh)
    report = htv_cpwl(g)  # the same for every --p: each jump has rank one
    if args.report == "csv":
        if args.out:
            with open(args.out, "w") as f:
                _write_edge_csv(f, g, report)
        else:
            _write_edge_csv(sys.stdout, g, report)
    print(f"htv_total={report.total!r}")
    return 0


def _cmd_approx(args) -> int:
    fld = parse_field(args.field)
    collected = {}
    table = convergence_experiment(
        fld, args.N, args.K, p=args.p,
        ref_resolution=args.ref_resolution,
        collect=collected.__setitem__ if (args.emit_mesh or args.emit_svg) else None,
    )
    text = table.to_csv()
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    for K, g in sorted(collected.items()):
        if args.emit_mesh:
            os.makedirs(args.emit_mesh, exist_ok=True)
            save_mesh(g, os.path.join(args.emit_mesh, f"mesh_K{K}.json"))
        if args.emit_svg:
            os.makedirs(args.emit_svg, exist_ok=True)
            render_svg(g, os.path.join(args.emit_svg, f"mesh_K{K}.svg"))
    return 0


def _cmd_extremal(args) -> int:
    g = load_mesh(args.mesh)
    if args.subcommand == "test":
        verdict, cert = is_extremal(g, args.tol)
        if verdict:
            print(f"extremal (dim={cert.dim})")
        else:
            print(f"not extremal (dim={cert.dim})")
        return 0
    dec = decompose(g, args.tol)
    doc = {
        "total": repr(dec.total),
        "residual": repr(dec.residual),
        "value_residual": repr(dec.value_residual),
        "coefficients": [repr(c) for c in dec.coefficients],
        "components": [mesh_document(t) for t in dec.terms],
    }
    with open(args.out, "w") as f:
        f.write(json.dumps(doc))
        f.write("\n")
    print(f"terms={len(dec.terms)} coefficient_sum={dec.coefficient_sum!r} "
          f"residual={dec.residual!r}")
    return 0


def _cmd_selftest(args) -> int:
    # The suite's module is compiled and imported only when it runs.
    from .acceptance import DEFAULT_SEED, run_all

    results = run_all(args.only, seed=DEFAULT_SEED if args.seed is None else args.seed)
    for r in results:
        print(r.line())
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    _check_threads_env()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "htv" and args.out is not None and args.report is None:
        parser.error("htv --out writes the CSV report: it needs --report csv")
    try:
        if args.command == "htv":
            return _cmd_htv(args)
        if args.command == "approx":
            return _cmd_approx(args)
        if args.command == "extremal":
            return _cmd_extremal(args)
        if args.command == "mesh":
            g = load_mesh(args.mesh)
            render_svg(g, args.out)
            return 0
        return _cmd_selftest(args)  # the last of the required subcommands
    except (HstvError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
