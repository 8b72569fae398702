"""Figure emission: Cartesian embedding, marching squares, SVG and CSV.

This is the only module that touches floating point.  The exact core hands
over canonical points and curve coefficient vectors; everything here is a
rendering concern and nothing in the verification pipeline imports it.

One evaluator per degree, from ``curve_function``, reads a line, conic or
cubic in the Cartesian chart, and marching squares reads it on a
(grid + 1)^2 lattice; that sign grid alone decides which cells hold a
crossing and how a saddle cell splits.  The chart is affine, so along any
grid line the form is one univariate polynomial of degree at most 3: it
is recovered from four values on each grid column, and the column's
signs are that cubic by Horner.  The columns stream in one at a time,
their signs as bitmasks read off the IEEE sign bits of the packed column
(a column that holds an exact zero, or a nan, whose sign bit is
arbitrary, is still read by comparison with 0.0), so only the live cells,
which a crossing can pass, are visited and memory is O(grid).  Each grid edge with a sign
change is refined once, by bracketed Illinois steps on its grid line's
cubic (a row's cubic is built the first time one of its edges is
refined), and the two cells that share the edge share its endpoint, so a
closed curve traces a watertight polyline whose CSV row for that endpoint
is formatted once.
"""

from __future__ import annotations

import math
import struct
import sys
from fractions import Fraction
from typing import NamedTuple, Sequence


class RenderConfig:
    def __init__(self, width: int = 640, height: int = 640, grid: int = 256,
                 margin: float = 0.25, labels: bool = True):
        # a trace reads (grid + 1)^2 nodes, indexed by int (bool is no grid)
        if type(grid) is not int or not 16 <= grid <= 4096:
            raise ValueError(f"grid must be an int from 16 to 4096, got {grid!r}")
        # the SVG scales by float(width) and float(height) (bool is no size)
        for name, size in (("width", width), ("height", height)):
            if type(size) is not int or not 64 <= size <= sys.float_info.max:
                raise ValueError(f"{name} must be an int from 64 to float range")
        if not (math.isfinite(margin) and margin >= 0):
            raise ValueError(f"margin must be finite and non-negative, got {margin}")
        self.width = width
        self.height = height
        self.grid = grid
        self.margin = margin
        self.labels = labels


def embed_triangle(t) -> tuple[tuple[float, float], ...]:
    """Cartesian embedding: A at the origin, B on the x-axis.

    Raises ``ValueError`` naming ``t`` when a squared side does not convert
    to a finite float or the embedded triangle has zero or non-finite area
    (sides beyond or below float range).
    """
    try:
        a2, b2, c2 = float(t.a2), float(t.b2), float(t.c2)
    except OverflowError:
        raise ValueError(f"{t!r} has squared sides beyond float range") from None
    if c2 > 0 and math.isfinite(a2 + b2 + c2):
        c = math.sqrt(c2)
        cx = (b2 + c2 - a2) / (2 * c)
        cy = math.sqrt(max(b2 - cx * cx, 0.0))
        if 0 < c * cy < math.inf:
            return ((0.0, 0.0), (c, 0.0), (cx, cy))
    raise ValueError(f"{t!r} has no float embedding of finite nonzero area")


def point_xy(p, corners) -> tuple[float, float]:
    """Cartesian image of a finite homogeneous point."""
    x, y, z = p.triple
    s = x + y + z
    if s == 0:
        raise ValueError(f"{p} is at infinity")
    (ax, ay), (bx, by), (cx, cy) = corners
    try:
        xy = ((x * ax + y * bx + z * cx) / s, (x * ay + y * by + z * cy) / s)
        if math.isfinite(xy[0]) and math.isfinite(xy[1]):
            return xy
    except OverflowError:
        pass
    # a coordinate or a product beyond float range: round each exact weight
    # once; only a point beyond float range itself is refused
    try:
        wx, wy, wz = (float(Fraction(w, s)) for w in (x, y, z))
    except OverflowError:
        raise ValueError(f"{p} lies beyond float range") from None
    xy = (wx * ax + wy * bx + wz * cx, wx * ay + wy * by + wz * cy)
    if not (math.isfinite(xy[0]) and math.isfinite(xy[1])):
        raise ValueError(f"{p} lies beyond float range")
    return xy


def _floats(coeffs) -> list[float]:
    """Coefficients as floats, all scaled by one power of two if need be."""
    try:
        return [float(c) for c in coeffs]
    except OverflowError:
        # one power of two brings the largest into range (int / int rounds
        # correctly); coefficients below float resolution of it become 0
        scale = 1 << max(abs(c) for c in coeffs).bit_length()
        return [c / scale for c in coeffs]


def curve_function(curve, corners):
    """Float evaluator of a line, conic or cubic in the Cartesian chart.

    One closure per degree (3, 6 or 10 coefficients) with the chart
    (X, Y) -> (1 - l2 - l3, l2, l3) written into it: l2 and l3 by Cramer
    against the edge vectors B - A and C - A, which are hoisted out of the
    closure.  Each value is the same float expression, term for term.
    """
    (ax, ay), (bx, by), (cx, cy) = corners
    ux, uy, vx, vy = bx - ax, by - ay, cx - ax, cy - ay
    det = ux * vy - vx * uy
    coeffs = _floats(curve.coeffs)
    if len(coeffs) == 3:
        l1, l2, l3 = coeffs

        def f(px: float, py: float) -> float:
            px, py = px - ax, py - ay
            y = (px * vy - vx * py) / det
            z = (ux * py - px * uy) / det
            return l1 * (1.0 - y - z) + l2 * y + l3 * z
    elif len(coeffs) == 6:
        q11, q22, q33, q12, q13, q23 = coeffs

        def f(px: float, py: float) -> float:
            px, py = px - ax, py - ay
            y = (px * vy - vx * py) / det
            z = (ux * py - px * uy) / det
            x = 1.0 - y - z
            return (q11 * x * x + q22 * y * y + q33 * z * z
                    + 2 * (q12 * x * y + q13 * x * z + q23 * y * z))
    elif len(coeffs) == 10:
        c0, c1, c2, c3, c4, c5, c6, c7, c8, c9 = coeffs

        def f(px: float, py: float) -> float:
            px, py = px - ax, py - ay
            y = (px * vy - vx * py) / det
            z = (ux * py - px * uy) / det
            x = 1.0 - y - z
            return (c0 * x**3 + c1 * x * x * y + c2 * x * x * z
                    + c3 * x * y * y + c4 * x * y * z + c5 * x * z * z
                    + c6 * y**3 + c7 * y * y * z + c8 * y * z * z + c9 * z**3)
    else:
        raise ValueError(f"{len(coeffs)} coefficients: not a line, conic or cubic")
    return f


# Illinois steps per edge before the bracket end with the smaller |f| is
# taken; smooth crossings stop far sooner, on the width below
_REFINE_CAP = 64
_REFINE_WIDTH = 2.0 ** -50
_VALUE_LIMIT = 2.0 ** 1019   # a 32nd of float range, so a grid line's cubic stays finite


def _refine(line, p0, p1, v0, v1):
    """Sign change on the grid edge p0-p1 of ``line`` (see ``_restriction``),
    where v0 and v1, its cubic at p0 and p1, lie on opposite sides of ``> 0``.

    Bracketed Illinois (modified regula falsi) steps on the parameter of
    p0 + t (p1 - p0): a secant point strictly inside the bracket, else its
    midpoint (which covers inf and nan values); the end kept twice in a row
    has its value halved for the next secant.  Stops on an exact zero, on a
    bracket narrower than ``_REFINE_WIDTH``, or after ``_REFINE_CAP``
    evaluations of the cubic, and then returns the bracket end with the
    smaller |value|.  An end whose value is 0.0 is returned as it is.
    """
    if v0 == 0.0:
        return p0
    if v1 == 0.0:
        return p1
    (a0, a1, a2, a3), centre, half, axis, fixed = line
    c = p0[axis]
    e = p1[axis] - c
    up = v0 > 0
    lo, hi, flo, fhi = 0.0, 1.0, v0, v1   # bracket and the values there
    wlo, whi, kept = v0, v1, 0            # secant weights; last end moved
    for _ in range(_REFINE_CAP):
        if hi - lo <= _REFINE_WIDTH:
            break
        t = hi - whi * (hi - lo) / (whi - wlo)
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
        s = ((c + t * e) - centre) / half
        ft = ((a3 * s + a2) * s + a1) * s + a0
        if ft == 0.0:
            lo = hi = t   # an exact zero: the search ends there
            break
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
    r = c + t * e
    return (fixed, r) if axis else (r, fixed)


def _restriction(f, vertical: bool, fixed: float, centre: float, half: float):
    """``f`` on the grid line x = fixed (``vertical``) or y = fixed, as the
    cubic a0 + a1*s + a2*s^2 + a3*s^3 in the offset s = (t - centre) / half
    of the running coordinate t; returns the line as ``_refine`` reads it:
    ((a0, a1, a2, a3), centre, half, the axis of t, fixed + 0.0).

    The coefficients come from the values at the nodes centre + s * half,
    s = -1, -1/2, 1/2, 1 (centre - h is centre + (-h) bit for bit), in
    closed form: at s = 1 and s = 1/2 the even part is a0 + a2 and
    a0 + a2/4 and the odd part a1 + a3 and a1/2 + a3/8.  The last entry,
    fixed + t * 0.0 for every t >= 0, is the fixed coordinate of every point
    ``_refine`` finds inside an edge of the line.
    """
    h = 0.5 * half
    m1, mh, ph, p1 = centre - half, centre - h, centre + h, centre + half
    if vertical:
        gm1, gmh, gph, gp1 = f(fixed, m1), f(fixed, mh), f(fixed, ph), f(fixed, p1)
    else:
        gm1, gmh, gph, gp1 = f(m1, fixed), f(mh, fixed), f(ph, fixed), f(p1, fixed)
    e1, e2, o1, o2 = gp1 + gm1, gph + gmh, gp1 - gm1, gph - gmh
    a0, a1 = (4 * e2 - e1) / 6, (8 * o2 - o1) / 6
    a2, a3 = (e1 - e2) * (2 / 3), (2 * o1 - 4 * o2) / 3
    return (a0, a1, a2, a3), centre, half, int(vertical), fixed + 0.0


def _columns(f, viewport, grid: int):
    """The grid columns x = x0 + i * dx in order, one at a time: x, the
    restriction of ``f`` to it and that cubic, by Horner, at y0 + j * dy."""
    x0, y0, x1, y1 = viewport
    dx = (x1 - x0) / grid
    dy = (y1 - y0) / grid
    centre, half = 0.5 * (y0 + y1), 0.5 * (y1 - y0)
    offsets = [(y0 + j * dy - centre) / half for j in range(grid + 1)]
    for i in range(grid + 1):
        x = x0 + i * dx
        line = _restriction(f, True, x, centre, half)
        a0, a1, a2, a3 = line[0]
        yield x, line, [((a3 * s + a2) * s + a1) * s + a0 for s in offsets]


def trace_segments(f, viewport, grid: int):
    """Marching squares over a sign grid; returns refined segment endpoints.

    ``f`` must be a polynomial of degree at most 3 along every grid line,
    as every barycentric line, conic or cubic is in the affine Cartesian
    chart.  It is evaluated at four points of each grid column, and the
    sign grid is read off those column cubics; a grid row's cubic is built
    the same way, the first time one of its edges is refined.  So ``f`` is
    called at most 8 * (grid + 1) times, plus once per saddle cell.

    The columns stream in one at a time, so memory is O(grid).  Each
    column's signs are a bitmask, the sign bits of its values packed as
    IEEE doubles, and bit operations on the masks of two neighbouring
    columns pick the live cells: those whose four corner values do not
    share one strict sign.  A column holding an exact zero makes every
    cell beside it live; one whose sum is not finite may hold a nan, whose
    sign bit is arbitrary, so it is compared against 0.0 node by node, and
    nan reads as negative, as the cells read it.  Live cells are visited
    in order of column, then row, and each reads its four edges in
    straight-line code.
    Every grid edge of a live cell with a sign change is refined once, on
    its grid line's cubic, from its lower to its higher grid index, and
    both cells that share it get the same endpoint object (a right or top
    edge is new to the cell that meets it; a bottom or left edge is looked
    up in its memo).  An ambiguous saddle cell is split by the sign of
    ``f`` at its centre.
    """
    x0, y0, x1, y1 = viewport
    dx = (x1 - x0) / grid
    dy = (y1 - y0) / grid
    ys = [y0 + j * dy for j in range(grid + 1)]
    centre, half = 0.5 * (x0 + x1), 0.5 * (x1 - x0)
    cells = int.from_bytes(b"\1" * grid, "little")   # bit 8j: cell or node j
    nodes = cells | 1 << 8 * grid
    signs = nodes << 7   # bit 8j + 7 of a column's high bytes: node j's sign
    pack = struct.Struct(f"<{grid + 1}d").pack
    rows = {}
    segments = []
    for i, (xr, rline, right) in enumerate(_columns(f, viewport, grid)):
        rmemo = {}
        if 0.0 in right:   # an exact zero: every cell beside it is live
            rpos = rneg = 0
        elif math.isfinite(sum(right)):   # no nan: the sign bits are the signs
            rneg = (int.from_bytes(pack(*right)[7::8], "little") & signs) >> 7
            rpos = nodes ^ rneg
        else:              # nan counts as negative: the cells read it as not > 0
            rpos = int.from_bytes(bytes(map((0.0).__lt__, right)), "little")
            rneg = nodes ^ rpos
        if i:
            hmemo = {}
            pos, neg = lpos & rpos, lneg & rneg
            dead = pos & pos >> 8 | neg & neg >> 8   # corners of one strict sign
            live = (cells & ~dead).to_bytes(grid, "little")
            j = live.find(1)
            while j >= 0:
                # edges bottom, right, top, left; only a bottom or left one
                # can have been refined already, by a cell visited before
                bl, br, tr, tl = left[j], right[j], right[j + 1], left[j + 1]
                yb, yt = ys[j], ys[j + 1]
                crossings = []
                if bl == 0.0:
                    crossings.append((xl, yb))
                elif (bl > 0) != (br > 0):
                    p = hmemo.get(j)
                    if p is None:
                        line = rows.get(j) or rows.setdefault(
                            j, _restriction(f, False, yb, centre, half))
                        p = hmemo[j] = _refine(line, (xl, yb), (xr, yb), bl, br)
                    crossings.append(p)
                if br == 0.0:
                    crossings.append((xr, yb))
                elif (br > 0) != (tr > 0):
                    p = rmemo[j] = _refine(rline, (xr, yb), (xr, yt), br, tr)
                    crossings.append(p)
                if tr == 0.0:
                    crossings.append((xr, yt))
                elif (tr > 0) != (tl > 0):
                    line = rows.get(j + 1) or rows.setdefault(
                        j + 1, _restriction(f, False, yt, centre, half))
                    p = hmemo[j + 1] = _refine(line, (xl, yt), (xr, yt), tl, tr)
                    crossings.append(p)
                if tl == 0.0:
                    crossings.append((xl, yt))
                elif (tl > 0) != (bl > 0):
                    p = lmemo.get(j)
                    if p is None:
                        p = lmemo[j] = _refine(lline, (xl, yb), (xl, yt), bl, tl)
                    crossings.append(p)
                if len(crossings) == 4:
                    # ambiguous saddle: split by the center sign
                    up = f(x0 + (i - 0.5) * dx, y0 + (j + 0.5) * dy) > 0
                    if up == (bl > 0):
                        segments.append((crossings[0], crossings[3]))
                        segments.append((crossings[1], crossings[2]))
                    else:
                        segments.append((crossings[0], crossings[1]))
                        segments.append((crossings[2], crossings[3]))
                elif len(crossings) >= 2:
                    segments.append((crossings[0], crossings[1]))
                j = live.find(1, j + 1)
        xl, lline, left, lmemo, lpos, lneg = xr, rline, right, rmemo, rpos, rneg
    return segments


def compute_viewport(corners, extra_points: Sequence[tuple[float, float]],
                     margin: float):
    xs = [p[0] for p in corners] + [p[0] for p in extra_points]
    ys = [p[1] for p in corners] + [p[1] for p in extra_points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    w = max(x1 - x0, 1e-9)
    h = max(y1 - y0, 1e-9)
    side = max(w, h)
    padx = margin * side + (side - w) / 2
    pady = margin * side + (side - h) / 2
    return (x0 - padx, y0 - pady, x1 + padx, y1 + pady)


_PALETTE = ("#c0392b", "#2980b9", "#27ae60", "#8e44ad", "#d35400", "#16a085")


def _frame(t, figure: dict, config: RenderConfig):
    """Triangle corners and a viewport holding them and the finite points;
    a viewport beyond float range (a huge margin) is a ``ValueError``."""
    corners = embed_triangle(t)
    pts = [point_xy(p, corners) for _, p in figure.get("points", [])
           if sum(p.triple) != 0]
    viewport = compute_viewport(corners, pts, config.margin)
    if not all(map(math.isfinite, viewport)):
        raise ValueError(f"viewport {viewport} lies beyond float range")
    return corners, viewport


class Traced(NamedTuple):
    """A figure with every curve traced once, which both writers read."""

    figure: dict
    config: RenderConfig
    corners: tuple
    viewport: tuple
    curves: list


def _trace(curve, corners, viewport, grid: int) -> list:
    """The segments of a figure's line or curve.  A value beyond ``_VALUE_LIMIT``
    (at a huge margin; inf, nan, or a cube that raises) is a ``ValueError``."""
    f = curve_function(curve, corners)

    def finite(px: float, py: float) -> float:
        if -_VALUE_LIMIT <= (v := f(px, py)) <= _VALUE_LIMIT:   # nan is neither
            return v
        raise OverflowError(v)
    try:
        return trace_segments(finite, viewport, grid)
    except OverflowError:
        raise ValueError(f"a curve overflows float range in {viewport}") from None


def trace_figure(t, figure: dict, config: RenderConfig) -> Traced:
    """The :func:`_frame` of the figure and each curve's label and :func:`_trace`."""
    corners, viewport = _frame(t, figure, config)
    curves = [(label, _trace(curve, corners, viewport, config.grid))
              for label, curve in figure.get("curves", [])]
    return Traced(figure, config, corners, viewport, curves)


def write_svg(traced: Traced, path: str) -> bool:
    """Write an SVG of a traced figure and of its lines, traced here before
    the file is opened; returns False when no curve has a locus."""
    figure, config, corners, viewport, curves = traced
    x0, y0, x1, y1 = viewport
    scale = config.width / (x1 - x0)
    if not math.isfinite(scale):  # a huge width over a viewport under 1 wide
        raise ValueError(f"the SVG scale over a viewport {x1 - x0:g} wide "
                         "overflows float range")

    def to_px(p):
        return ((p[0] - x0) * scale, config.height - (p[1] - y0) * scale)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{config.width}" '
        f'height="{config.height}" viewBox="0 0 {config.width} {config.height}">',
        f'<rect width="{config.width}" height="{config.height}" fill="white"/>',
    ]
    tri = [to_px(c) for c in corners]
    tri_path = " ".join(f"{p[0]:.2f},{p[1]:.2f}" for p in tri)
    out.append(f'<polygon points="{tri_path}" fill="none" stroke="#555" '
               'stroke-width="1.2"/>')

    def draw(segs, style: str) -> bool:
        for p0, p1 in segs:
            a, b = to_px(p0), to_px(p1)
            out.append(f'<line x1="{a[0]:.2f}" y1="{a[1]:.2f}" x2="{b[0]:.2f}" '
                       f'y2="{b[1]:.2f}" {style}/>')
        return bool(segs)

    for _, line in figure.get("lines", []):
        draw(_trace(line, corners, viewport, max(config.grid // 4, 16)),
             'stroke="#999" stroke-width="0.8" stroke-dasharray="4 3"')
    drew_curve = False
    for idx, (_, segs) in enumerate(curves):
        color = _PALETTE[idx % len(_PALETTE)]
        drew_curve |= draw(segs, f'stroke="{color}" stroke-width="1.4"')
    for label, p in figure.get("points", []):
        if sum(p.triple) == 0:
            continue
        px = to_px(point_xy(p, corners))
        out.append(f'<circle cx="{px[0]:.2f}" cy="{px[1]:.2f}" r="3" '
                   'fill="#111"/>')
        if config.labels:
            out.append(f'<text x="{px[0] + 5:.2f}" y="{px[1] - 5:.2f}" '
                       f'font-size="11" font-family="sans-serif">{label}</text>')
    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
    return drew_curve or not figure.get("curves")


def sample_csv(t, figure: dict, config: RenderConfig, path: str) -> int:
    """Write curve trace samples as CSV rows (curve, x, y); returns row count."""
    return write_csv(trace_figure(t, figure, config), path)


def write_csv(traced: Traced, path: str) -> int:
    """:func:`sample_csv` of a traced figure, written in one go.  The row of
    an endpoint that two segments share is formatted once; it is looked up
    by object identity, as (0.0, y) == (-0.0, y) by value."""
    out = ["curve,x,y\n"]
    for label, segments in traced.curves:
        rows = {}
        for seg in segments:
            for p in seg:
                row = rows.get(id(p))
                if row is None:
                    row = rows[id(p)] = f"{label},{p[0]!r},{p[1]!r}\n"
                out.append(row)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(out))
    return len(out) - 1
