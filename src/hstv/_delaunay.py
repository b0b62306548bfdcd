"""Exact incremental Delaunay triangulation for small integer point sets.

Bowyer-Watson with exact integer predicates.  Used to fix the interior
triangulation of the transition-band building block, where collinear runs
of boundary points make float predicates unreliable.  Deterministic:
points are inserted in lexicographic order and cocircular ties never
excavate (strict in-circle test).
"""

from __future__ import annotations

from .errors import MeshError

Point = tuple[int, int]


def orient2d(pa: Point, pb: Point, pc: Point) -> int:
    return (pb[0] - pa[0]) * (pc[1] - pa[1]) - (pb[1] - pa[1]) * (pc[0] - pa[0])


def in_circumcircle(pa: Point, pb: Point, pc: Point, pd: Point) -> int:
    """Positive iff pd is strictly inside the circumcircle of CCW (pa, pb, pc)."""
    adx, ady = pa[0] - pd[0], pa[1] - pd[1]
    bdx, bdy = pb[0] - pd[0], pb[1] - pd[1]
    cdx, cdy = pc[0] - pd[0], pc[1] - pd[1]
    ad2 = adx * adx + ady * ady
    bd2 = bdx * bdx + bdy * bdy
    cd2 = cdx * cdx + cdy * cdy
    return (
        adx * (bdy * cd2 - cdy * bd2)
        - ady * (bdx * cd2 - cdx * bd2)
        + ad2 * (bdx * cdy - cdx * bdy)
    )


def delaunay(points: list[Point]) -> list[tuple[int, int, int]]:
    """CCW triangles of the Delaunay triangulation of distinct integer points.

    Every input point appears as a vertex (collinear points on hull edges
    subdivide them).  Intended for small inputs; O(n^2) triangle scans.
    """
    n = len(points)
    if n < 3:
        raise MeshError("need at least 3 points")
    if len(set(points)) != n:
        raise MeshError("duplicate points")

    # Doubled coordinates keep the bounding-box center integral; the
    # predicates' signs do not change under scaling.
    pts = [(2 * x, 2 * y) for x, y in points]
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    cx = min(xs) + max(xs)
    cy = min(ys) + max(ys)
    # Far super-triangle; distance 2^20 * extent (the x extent counted twice)
    # keeps near-hull cavities honest and scales with the points.
    big = (2 * (max(xs) - min(xs)) + max(ys) - min(ys)) * (1 << 21)
    pts += [
        (cx - 3 * big, cy - big),
        (cx + 3 * big, cy - big),
        (cx, cy + 3 * big),
    ]
    tris: set[tuple[int, int, int]] = {(n, n + 1, n + 2)}

    for idx in sorted(range(n), key=lambda i: pts[i]):
        p = pts[idx]
        bad = [t for t in tris
               if in_circumcircle(pts[t[0]], pts[t[1]], pts[t[2]], p) > 0]
        if not bad:
            raise MeshError("point outside triangulation (super-triangle too small)")
        boundary: dict[tuple[int, int], bool] = {}
        for a, b, c in bad:
            for u, v in ((a, b), (b, c), (c, a)):
                if (v, u) in boundary:
                    del boundary[(v, u)]
                else:
                    boundary[(u, v)] = True
        tris.difference_update(bad)
        for u, v in boundary:
            if orient2d(pts[u], pts[v], p) <= 0:
                raise MeshError("degenerate cavity fan (unexpected collinearity)")
            tris.add((u, v, idx))

    return sorted(t for t in tris if max(t) < n)
