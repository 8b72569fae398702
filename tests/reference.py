"""Reference constructions the tests check the package against.

Each is a direct, ``Fraction``-based spelling of a rule the package computes
another way: affine combinations (the reference for ``midpoint`` and
``reflect_through``), point-line distances, sample points on a line and the
second intersection of a line with a conic, with which the tests generate
conic points.  ``frame_local`` and ``frame_base`` map into and out of a
triangle's barycentrics, checking the triangle on every call, and
``taylor_center`` finds X389 by a search over the six Taylor points.
``split_args`` splits a center expression's argument list character by
character, as the parser once did for every body.
``dense_trace_segments`` is the renderer's marching squares as a plain scan
of every cell over the whole sign grid held at once.
``bareiss_eliminate`` is the fit's fraction-free elimination with every
row below the pivot updated at every step.  ``RETIRED_FITS`` names the 9
points each reference cubic of the scenarios was fitted through before it
was built as a pivotal cubic.
"""

import math
from fractions import Fraction
from itertools import combinations, count as count_from, islice

from tricurves.centers import _taylor_points
from tricurves.curves import Conic
from tricurves.kernel import (
    DegenerateFrame,
    GeometryError,
    HomLine,
    HomPoint,
    LineAtInfinity,
    Metric,
    PointAtInfinity,
    adjugate3,
    det3,
    equidistant_point,
    mat_vec,
    span_points,
    squared_distance,
)

# the scenario points each reference cubic was fitted through, in fit order
RETIRED_FITS = {
    "darboux": ("A", "B", "C", "I", "O", "H", "L", "Be", "I1"),
    "thomson": ("A", "B", "C", "M1", "M2", "M3", "I1", "I2", "I3"),
    "thomson_orthic": ("H1", "H2", "H3", "Mh1", "Mh2", "Mh3", "A", "B", "C"),
    "darboux_orthic": ("H1", "H2", "H3", "A", "B", "C", "H",
                       "center(orthic,X3)", "center(orthic,X20)"),
    "lucas": ("A", "B", "C", *(f"vertex(anticomplementary,{i})" for i in range(3)),
              "M", "H", "Ge"),
}


class WeightSumNotOne(GeometryError):
    """Weights of an affine combination must sum to exactly one."""


def normalize_affine(p: HomPoint) -> tuple[Fraction, Fraction, Fraction]:
    """Scale so the coordinates sum to one; rejects points at infinity."""
    s = sum(p.triple)
    if s == 0:
        raise PointAtInfinity(f"{p} is a direction, not an affine point")
    return (Fraction(p.x, s), Fraction(p.y, s), Fraction(p.z, s))


def affine_combine(terms) -> HomPoint:
    """Exact affine combination of ``(point, weight)`` pairs; the weights
    must sum to one."""
    weights = [Fraction(w) for _, w in terms]
    if sum(weights) != 1:
        raise WeightSumNotOne(f"weights sum to {sum(weights)}, not 1")
    acc = [Fraction(0)] * 3
    for (p, _), w in zip(terms, weights):
        n = normalize_affine(p)
        for i in range(3):
            acc[i] += w * n[i]
    return HomPoint(*acc)


def sample_line_points(l: HomLine, count: int) -> list[HomPoint]:
    """The first ``count`` finite points r0 + k*r1, k = 0, 1, ..., of a line
    other than the line at infinity, r0 and r1 its two span points."""
    if l.is_line_at_infinity():
        raise LineAtInfinity("the line at infinity has no finite points")
    r0, r1 = (p.triple for p in span_points(l))
    line = (HomPoint(*(u + k * w for u, w in zip(r0, r1))) for k in count_from(0))
    return list(islice((p for p in line if not p.is_infinite()), count))


def two_points_on(l: HomLine) -> tuple[HomPoint, HomPoint]:
    """Two distinct finite points on a line other than the line at infinity."""
    return tuple(sample_line_points(l, 2))


def point_line_distance_sq(p: HomPoint, l: HomLine, m: Metric) -> Fraction:
    """Exact squared distance from a finite point to a line, from two sample
    points on the line; the result does not depend on which are taken."""
    if l.is_line_at_infinity():
        raise LineAtInfinity("distance to the line at infinity is undefined")
    if p.is_infinite():
        raise PointAtInfinity("point at infinity has no distance to a line")
    q1, q2 = two_points_on(l)
    d = det3((p.triple, q1.triple, q2.triple))
    if d == 0:
        return Fraction(0)
    sp, s1, s2 = sum(p.triple), sum(q1.triple), sum(q2.triple)
    det_norm_sq = Fraction(d * d, (sp * s1 * s2) ** 2)
    return det_norm_sq * m.S2 / squared_distance(q1, q2, m)


def conic_second_intersection(c: Conic, p: HomPoint, q: HomPoint) -> HomPoint:
    """Second intersection of the line p q with the conic, p on the conic.

    Returns q if q is also on the conic, and p itself when the line is
    tangent at p.
    """
    if c.evaluate(p) != 0:
        raise ValueError("first point must lie on the conic")
    if p == q:
        raise ValueError("need two distinct points to span a line")
    fq = c.evaluate(q)
    if fq == 0:
        return q
    mq = mat_vec(c.matrix(), q.triple)
    b = sum(pc * w for pc, w in zip(p.triple, mq))
    if b == 0:
        return p
    # root t of F(p + t q) = 2 t b + t^2 F(q)
    return HomPoint(*(pc * fq - 2 * b * qc for pc, qc in zip(p.triple, q.triple)))


def _frame_rows(v1: HomPoint, v2: HomPoint, v3: HomPoint):
    for v in (v1, v2, v3):
        if v.is_infinite():
            raise DegenerateFrame(f"frame vertex {v} is at infinity")
    rows = ((v1.x, v2.x, v3.x), (v1.y, v2.y, v3.y), (v1.z, v2.z, v3.z))
    if det3(rows) == 0:
        raise DegenerateFrame("frame points are affinely dependent")
    return rows


def frame_local(p: HomPoint, v1: HomPoint, v2: HomPoint, v3: HomPoint) -> HomPoint:
    """Barycentrics of ``p`` relative to the triangle v1 v2 v3: the adjugate
    of the vertex matrix applied to ``p``, each entry times its vertex's
    coordinate sum."""
    w = [sum(r[j] * p.triple[j] for j in range(3))
         for r in adjugate3(_frame_rows(v1, v2, v3))]
    s = [sum(v.triple) for v in (v1, v2, v3)]
    return HomPoint(s[0] * w[0], s[1] * w[1], s[2] * w[2])


def frame_base(q: HomPoint, v1: HomPoint, v2: HomPoint, v3: HomPoint) -> HomPoint:
    """The point with barycentrics ``q`` relative to the triangle v1 v2 v3:
    each vertex scaled to coordinate sum one, weighted by ``q``."""
    _frame_rows(v1, v2, v3)
    s1, s2, s3 = (sum(v.triple) for v in (v1, v2, v3))
    w1, w2, w3 = q.x * s2 * s3, q.y * s1 * s3, q.z * s1 * s2
    return HomPoint(*(w1 * a + w2 * b + w3 * c
                      for a, b, c in zip(v1.triple, v2.triple, v3.triple)))


def taylor_center(m: Metric) -> HomPoint:
    """X389 as the point equidistant from the first triple of distinct
    Taylor points (projections of each altitude foot onto the other two
    sides) that has one."""
    pts = _taylor_points(m)
    for i, j, k in combinations(range(6), 3):
        if pts[i] == pts[j] or pts[j] == pts[k] or pts[i] == pts[k]:
            continue
        try:
            return equidistant_point(pts[i], pts[j], pts[k], m)
        except GeometryError:
            continue
    raise GeometryError("projection points admit no equidistant point")


def split_args(body: str) -> list[str]:
    """The comma-separated parts of ``body`` at nesting depth 0, each
    stripped, read one character at a time; a last part that is empty
    before stripping is dropped."""
    parts, depth, cur = [], 0, []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur).strip())
    return parts


def _line_cubic(f, vertical, fixed, centre, half):
    """``f`` on a grid line as a function of the point: the cubic through
    its values at the offsets -1, -1/2, 1/2, 1 of ``half`` from ``centre``."""
    nodes = (-1.0, -0.5, 0.5, 1.0)
    if vertical:
        gm1, gmh, gph, gp1 = (f(fixed, centre + s * half) for s in nodes)
    else:
        gm1, gmh, gph, gp1 = (f(centre + s * half, fixed) for s in nodes)
    e1, e2, o1, o2 = gp1 + gm1, gph + gmh, gp1 - gm1, gph - gmh
    a0, a1 = (4 * e2 - e1) / 6, (8 * o2 - o1) / 6
    a2, a3 = (e1 - e2) * (2 / 3), (2 * o1 - 4 * o2) / 3

    def g(px, py):
        s = ((py if vertical else px) - centre) / half
        return ((a3 * s + a2) * s + a1) * s + a0

    return g


def _refine_root(g, p0, p1, v0, v1, cap=64, width=2.0 ** -50):
    """Illinois steps for the sign change of ``g`` on p0-p1 (v0 = g(p0),
    v1 = g(p1)); the bracket end with the smaller |g| when they stop."""
    if v0 == 0.0:
        return p0
    if v1 == 0.0:
        return p1
    (x, y), ex, ey = p0, p1[0] - p0[0], p1[1] - p0[1]
    up = v0 > 0
    lo, hi, flo, fhi = 0.0, 1.0, v0, v1
    wlo, whi, kept = v0, v1, 0
    for _ in range(cap):
        if hi - lo <= width:
            break
        t = hi - whi * (hi - lo) / (whi - wlo)
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
        ft = g(x + t * ex, y + t * ey)
        if ft == 0.0:
            return (x + t * ex, y + t * ey)
        if (ft > 0) == up:
            lo, flo, wlo = t, ft, ft
            if kept < 0:
                whi *= 0.5
            kept = -1
        else:
            hi, fhi, whi = t, ft, ft
            if kept > 0:
                wlo *= 0.5
            kept = 1
    t = hi if abs(fhi) < abs(flo) or math.isnan(flo) else lo
    return (x + t * ex, y + t * ey)


def dense_trace_segments(f, viewport, grid):
    """Marching squares read off one cubic per grid line: every cell of the
    (grid + 1)^2 sign grid is scanned, in order of column then row; a cell
    whose four corners share one strict sign is skipped, each other edge
    with a sign change is refined once and shared by its two cells, and a
    saddle cell is split by the sign of ``f`` at its centre."""
    x0, y0, x1, y1 = viewport
    dx, dy = (x1 - x0) / grid, (y1 - y0) / grid
    xs = [x0 + i * dx for i in range(grid + 1)]
    ys = [y0 + j * dy for j in range(grid + 1)]
    cy, hy = 0.5 * (y0 + y1), 0.5 * (y1 - y0)
    cx, hx = 0.5 * (x0 + x1), 0.5 * (x1 - x0)
    columns = [_line_cubic(f, True, x, cy, hy) for x in xs]
    values = [[g(x, y) for y in ys] for x, g in zip(xs, columns)]
    rows, memo = {}, {}

    def crossing(a, b):
        key = (a, b) if a < b else (b, a)
        if key not in memo:
            (i, j), (k, m) = key
            if i == k:
                g = columns[i]
            else:
                if j not in rows:
                    rows[j] = _line_cubic(f, False, ys[j], cx, hx)
                g = rows[j]
            memo[key] = _refine_root(g, (xs[i], ys[j]), (xs[k], ys[m]),
                                     values[i][j], values[k][m])
        return memo[key]

    segments = []
    for i in range(grid):
        for j in range(grid):
            corners = ((i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1))
            vals = [values[a][b] for a, b in corners]
            if all(v > 0 for v in vals) or all(v < 0 for v in vals):
                continue
            crossings = []
            for k in range(4):
                a, b = corners[k], corners[(k + 1) % 4]
                if vals[k] == 0.0:
                    crossings.append((xs[a[0]], ys[a[1]]))
                elif (vals[k] > 0) != (vals[(k + 1) % 4] > 0):
                    crossings.append(crossing(a, b))
            if len(crossings) == 4:
                a, b, c, d = crossings
                up = f(x0 + (i + 0.5) * dx, y0 + (j + 0.5) * dy) > 0
                segments += [(a, d), (b, c)] if up == (vals[0] > 0) else [(a, b), (c, d)]
            elif len(crossings) >= 2:
                segments.append((crossings[0], crossings[1]))
    return segments


def bareiss_eliminate(rows):
    """Fraction-free forward elimination that updates every row below the
    pivot at every step, as ``tricurves.linalg._eliminate`` returns it: the
    rank, the sorted original indices of the pivot rows, the echelon
    matrix, its pivot columns and the row-swap sign."""
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0]) if m else 0
    origin = list(range(nrows))
    cols = []
    sign, prev = 1, 1
    for col in range(ncols):
        r = len(cols)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            origin[r], origin[piv] = origin[piv], origin[r]
            sign = -sign
        prow = m[r]
        pivot = prow[col]
        for row in m[r + 1:]:
            f = row[col]
            row[col] = 0
            for j in range(col + 1, ncols):
                row[j] = (pivot * row[j] - f * prow[j]) // prev
        prev = pivot
        cols.append(col)
    r = len(cols)
    return r, sorted(origin[:r]), m, cols, sign
