"""The benchmark's workloads and their seeded inputs, built without hstv.

Each workload is a list of request specs; a worker session runs them once,
in order, as a single closed-loop client.
Mesh files use hstv's JSON format -- vertices as exact rationals
``[num_x, den_x, num_y, den_y]`` (decimal strings), triangles as index
triples and values as float reprs -- and are checked here in integer
arithmetic (positive orientation, exact tiling of the unit square), so no
input depends on the code being measured.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np
from scipy.spatial import Delaunay

# Reduced (pp, qq) families of criterion 4's six-angle pool and how many of
# the 16 cells each family gets.  Every seed therefore builds the same number
# of vertices; the seed picks the arrangement and each cell's orientation
# ((p, q) or its mirror (q, p)), which decides the set of cell types.
MIXED_FAMILIES = [((1, 2), 6), ((1, 3), 5), ((2, 3), 5)]

# Denominator multipliers of the jittered energy meshes.
ENERGY_DENOMS = np.array([2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12])


def _rat(num: int, den: int) -> list[str]:
    g = math.gcd(num, den)
    return [str(num // g), str(den // g)]


def _write_mesh(path: str, verts: list[list[str]], tris, values) -> None:
    doc = {
        "vertices": verts,
        "triangles": [[int(a), int(b), int(c)] for a, b, c in tris],
        "values": [repr(float(v)) for v in values],
    }
    with open(path, "w") as f:
        json.dump(doc, f)
        f.write("\n")


def jittered_grid_mesh(path: str, rng, n: int) -> int:
    """Write an n x n-cell mesh of the unit square; return its interior edges.

    Node (i, j) sits at ((i + a/b) / n, (j + c/d) / n) with b, d drawn from
    ENERGY_DENOMS and |a/b|, |c/d| <= 0.2; boundary nodes move only along
    their side.  Each jittered quad stays strictly convex, so either
    diagonal splits it into two positively oriented triangles; the diagonal
    is drawn at random.
    """
    size = (n + 1, n + 1)
    bx = ENERGY_DENOMS[rng.integers(len(ENERGY_DENOMS), size=size)]
    by = ENERGY_DENOMS[rng.integers(len(ENERGY_DENOMS), size=size)]
    ax = rng.integers(-(bx // 5), bx // 5 + 1)  # |a| <= b // 5, so |a/b| <= 0.2
    ay = rng.integers(-(by // 5), by // 5 + 1)
    ax[[0, n], :] = 0
    ay[:, [0, n]] = 0
    verts = [
        _rat(i * int(bx[i, j]) + int(ax[i, j]), n * int(bx[i, j]))
        + _rat(j * int(by[i, j]) + int(ay[i, j]), n * int(by[i, j]))
        for j in range(n + 1) for i in range(n + 1)
    ]
    anti = rng.integers(2, size=(n, n))
    tris = []
    for j in range(n):
        for i in range(n):
            p00 = j * (n + 1) + i
            p10, p01, p11 = p00 + 1, p00 + n + 1, p00 + n + 2
            if anti[i, j]:
                tris += [(p00, p10, p01), (p10, p11, p01)]
            else:
                tris += [(p00, p10, p11), (p00, p11, p01)]
    _write_mesh(path, verts, tris, rng.standard_normal(len(verts)))
    return 3 * n * n - 2 * n


def random_delaunay_mesh(path: str, rng, n_interior: int, denom: int) -> None:
    """Write the corners plus random interior points of the 1/denom lattice.

    Connectivity is scipy's Delaunay triangulation; a draw whose triangles
    are not all positively oriented or do not tile the square exactly (in
    integers) is discarded and drawn again.
    """
    while True:
        pts = {(0, 0), (denom, 0), (denom, denom), (0, denom)}
        while len(pts) < 4 + n_interior:
            pts.add((int(rng.integers(1, denom)), int(rng.integers(1, denom))))
        ordered = np.array(sorted(pts), dtype=np.int64)
        simplices = Delaunay(ordered.astype(float)).simplices
        a, b, c = (ordered[simplices[:, k]] for k in range(3))
        cross = ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                 - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))
        if (cross > 0).all() and int(cross.sum()) == 2 * denom * denom:
            break
    verts = [_rat(int(x), denom) + _rat(int(y), denom) for x, y in ordered]
    _write_mesh(path, verts, simplices.tolist(), rng.standard_normal(len(verts)))


def mixed_angles(rng) -> list[list[int]]:
    """16 (p, q) angles: MIXED_FAMILIES in seeded order and orientation."""
    cells = [pq for pq, count in MIXED_FAMILIES for _ in range(count)]
    out = []
    for k in rng.permutation(len(cells)):
        p, q = cells[int(k)]
        out.append([p, q] if rng.integers(2) else [q, p])
    return out


# -- request cycles --------------------------------------------------------------


def _approx_cli(rid, work, field, N, ks, quadratic):
    out = os.path.join(work, f"{rid}.csv")
    return {
        "id": rid, "kind": "cli",
        "argv": ["approx", "--field", field, "--N", str(N), "--K", ks, "--out", out],
        "files": [out], "check": "approx", "quadratic": quadratic,
    }


def approx_shared(rng, work):
    # Inputs are fixed; the seed is not used.
    return [
        _approx_cli("iso", work, "quadratic:iso", 1, "1..5", True),
        _approx_cli("rotated", work, "rotated-quadratic:2,1,0.4636", 2, "1..4", True),
        _approx_cli("sine", work, "product-sine", 2, "1..3", False),
    ]


def approx_mixed(rng, work):
    reqs = []
    for name in ("mixed_a", "mixed_b"):
        reqs.append({
            "id": name, "kind": "frames", "field": "quadratic:iso", "N": 2,
            "K": [0, 1, 2], "angles": mixed_angles(rng),
            "files": [os.path.join(work, f"{name}.csv")],
            "check": "approx", "quadratic": True,
        })
    reqs.append(_approx_cli("bump", work, "gaussian-bump:0.3,0.4,0.6", 2, "0..1", False))
    return reqs


def energy(rng, work):
    mesh = os.path.join(work, "grid128.json")
    edges = jittered_grid_mesh(mesh, rng, 128)
    csv = os.path.join(work, "grid128.csv")
    return [
        {"id": "p1", "kind": "cli", "units": edges, "inputs": [mesh],
         "argv": ["htv", mesh, "--p", "1", "--report", "csv", "--out", csv],
         "files": [csv], "check": "htv_csv"},
        {"id": "pinf", "kind": "cli", "units": edges, "inputs": [mesh],
         "argv": ["htv", mesh, "--p", "inf"],
         "files": [], "check": "htv_total", "same_total_as": "p1"},
        {"id": "spread", "kind": "p_independence", "units": edges,
         "inputs": [mesh], "mesh": mesh, "files": [], "check": "p_spread"},
    ]


def extremal(rng, work):
    reqs = []
    meshes = [(f"v36_{i}", 32, 64) for i in range(5)] + [("v68", 64, 128)]
    for name, n_interior, denom in meshes:
        mesh = os.path.join(work, f"{name}.json")
        random_delaunay_mesh(mesh, rng, n_interior, denom)
        out = os.path.join(work, f"{name}.decomp.json")
        reqs.append({"id": f"{name}_decompose", "kind": "cli", "inputs": [mesh],
                     "argv": ["extremal", "decompose", mesh, "--out", out],
                     "files": [out], "check": "decompose"})
        if name in ("v36_0", "v68"):
            reqs.append({"id": f"{name}_test", "kind": "cli", "inputs": [mesh],
                         "argv": ["extremal", "test", mesh], "units": 0,
                         "files": [], "check": "extremal_test"})
    return reqs


WORKLOADS = {
    "approx-shared": approx_shared,
    "approx-mixed": approx_mixed,
    "energy": energy,
    "extremal": extremal,
}

# What one unit of work_per_s counts, per workload.
WORK_UNITS = {
    "approx-shared": "vertices_per_s",
    "approx-mixed": "vertices_per_s",
    "energy": "edges_per_s",
    "extremal": "terms_per_s",
}


def build(workload: str, seed: int, work: str) -> tuple[list[dict], str]:
    """Write the workload's inputs under `work`; return (requests, digest).

    The digest covers the request specs with paths made relative to `work`
    and every input file's bytes, so equal digests mean equal inputs.
    """
    rng = np.random.default_rng(seed)
    reqs = WORKLOADS[workload](rng, work)
    h = hashlib.sha256()
    h.update(json.dumps(reqs, sort_keys=True).replace(work, "").encode())
    for path in sorted({p for r in reqs for p in r.get("inputs", [])}):
        with open(path, "rb") as f:
            h.update(f.read())
    return reqs, h.hexdigest()
