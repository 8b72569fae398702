"""Figure emission: Cartesian embedding, marching squares, SVG and CSV.

This is the only module that touches floating point.  The exact core hands
over canonical points and curve coefficient vectors; everything here is a
rendering concern and nothing in the verification pipeline imports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass
class RenderConfig:
    width: int = 640
    height: int = 640
    grid: int = 256
    margin: float = 0.25
    labels: bool = True

    def __post_init__(self):
        if self.grid < 16:
            raise ValueError("grid must be at least 16")
        if self.width < 64 or self.height < 64:
            raise ValueError("width and height must be at least 64")
        if not (math.isfinite(self.margin) and self.margin >= 0):
            raise ValueError(
                f"margin must be finite and non-negative, got {self.margin}")


def embed_triangle(t) -> tuple[tuple[float, float], ...]:
    """Cartesian embedding: A at the origin, B on the x-axis."""
    a2, b2, c2 = float(t.a2), float(t.b2), float(t.c2)
    c = math.sqrt(c2)
    cx = (b2 + c2 - a2) / (2 * c)
    cy = math.sqrt(max(b2 - cx * cx, 0.0))
    return ((0.0, 0.0), (c, 0.0), (cx, cy))


def point_xy(p, corners) -> tuple[float, float]:
    """Cartesian image of a finite homogeneous point."""
    x, y, z = p.triple
    s = x + y + z
    if s == 0:
        raise ValueError(f"{p} is at infinity")
    (ax, ay), (bx, by), (cx, cy) = corners
    return ((x * ax + y * bx + z * cx) / s, (x * ay + y * by + z * cy) / s)


def _barycentric_chart(corners):
    """Affine map (X, Y) -> normalized barycentrics, as float rows."""
    (ax, ay), (bx, by), (cx, cy) = corners
    det = (bx - ax) * (cy - ay) - (cx - ax) * (by - ay)
    # lambda_2, lambda_3 by Cramer against the edge vectors; lambda_1 closes
    def chart(px: float, py: float) -> tuple[float, float, float]:
        l2 = ((px - ax) * (cy - ay) - (cx - ax) * (py - ay)) / det
        l3 = ((bx - ax) * (py - ay) - (px - ax) * (by - ay)) / det
        return (1.0 - l2 - l3, l2, l3)

    return chart


def curve_function(curve, corners):
    """Float evaluator of a barycentric form in the Cartesian chart."""
    chart = _barycentric_chart(corners)
    try:
        coeffs = [float(c) for c in curve.coeffs]
    except OverflowError:
        # one power of two brings the largest into range (int / int rounds
        # correctly); coefficients below float resolution of it become 0
        scale = 1 << max(abs(c) for c in curve.coeffs).bit_length()
        coeffs = [c / scale for c in curve.coeffs]
    if len(coeffs) == 6:
        q11, q22, q33, q12, q13, q23 = coeffs

        def f(px: float, py: float) -> float:
            x, y, z = chart(px, py)
            return (q11 * x * x + q22 * y * y + q33 * z * z
                    + 2 * (q12 * x * y + q13 * x * z + q23 * y * z))

        return f
    if len(coeffs) == 10:
        c0, c1, c2, c3, c4, c5, c6, c7, c8, c9 = coeffs

        def f(px: float, py: float) -> float:
            x, y, z = chart(px, py)
            return (c0 * x**3 + c1 * x * x * y + c2 * x * x * z
                    + c3 * x * y * y + c4 * x * y * z + c5 * x * z * z
                    + c6 * y**3 + c7 * y * y * z + c8 * y * z * z + c9 * z**3)

        return f
    raise ValueError("curve must have 6 (conic) or 10 (cubic) coefficients")


def line_function(line, corners):
    chart = _barycentric_chart(corners)
    l1, l2, l3 = (float(c) for c in line.triple)

    def f(px: float, py: float) -> float:
        x, y, z = chart(px, py)
        return l1 * x + l2 * y + l3 * z

    return f


def _refine_root(f, p0, p1, v0, v1, iters: int = 52):
    """Bisect a sign change along the segment p0-p1 to near machine epsilon."""
    lo, hi = 0.0, 1.0
    flo = v0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        pm = (p0[0] + mid * (p1[0] - p0[0]), p0[1] + mid * (p1[1] - p0[1]))
        fm = f(*pm)
        if fm == 0.0:
            return pm
        if (flo > 0) == (fm > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    return (p0[0] + mid * (p1[0] - p0[0]), p0[1] + mid * (p1[1] - p0[1]))


def trace_segments(f, viewport, grid: int):
    """Marching squares over a sign grid; returns refined segment endpoints."""
    x0, y0, x1, y1 = viewport
    dx = (x1 - x0) / grid
    dy = (y1 - y0) / grid
    values = [[f(x0 + i * dx, y0 + j * dy) for j in range(grid + 1)]
              for i in range(grid + 1)]
    segments = []
    for i in range(grid):
        for j in range(grid):
            corners = (
                (x0 + i * dx, y0 + j * dy),
                (x0 + (i + 1) * dx, y0 + j * dy),
                (x0 + (i + 1) * dx, y0 + (j + 1) * dy),
                (x0 + i * dx, y0 + (j + 1) * dy),
            )
            vals = (values[i][j], values[i + 1][j],
                    values[i + 1][j + 1], values[i][j + 1])
            crossings = []
            for k in range(4):
                va, vb = vals[k], vals[(k + 1) % 4]
                if va == 0.0:
                    crossings.append(corners[k])
                elif (va > 0) != (vb > 0):
                    crossings.append(_refine_root(
                        f, corners[k], corners[(k + 1) % 4], va, vb))
            if len(crossings) >= 2:
                if len(crossings) == 4:
                    # ambiguous saddle: split by the center sign
                    cx = x0 + (i + 0.5) * dx
                    cy = y0 + (j + 0.5) * dy
                    if (f(cx, cy) > 0) == (vals[0] > 0):
                        segments.append((crossings[0], crossings[3]))
                        segments.append((crossings[1], crossings[2]))
                    else:
                        segments.append((crossings[0], crossings[1]))
                        segments.append((crossings[2], crossings[3]))
                else:
                    segments.append((crossings[0], crossings[1]))
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
    """Triangle corners and a viewport holding them and the finite points."""
    corners = embed_triangle(t)
    pts = [point_xy(p, corners) for _, p in figure.get("points", [])
           if sum(p.triple) != 0]
    return corners, compute_viewport(corners, pts, config.margin)


def render_svg(t, figure: dict, config: RenderConfig, path: str) -> bool:
    """Write an SVG of the figure; returns False when no curve has a locus."""
    corners, viewport = _frame(t, figure, config)
    x0, y0, x1, y1 = viewport
    scale = config.width / (x1 - x0)

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

    drew_curve = False
    for idx, (label, line) in enumerate(figure.get("lines", [])):
        f = line_function(line, corners)
        for p0, p1 in trace_segments(f, viewport, max(config.grid // 4, 16)):
            a, b = to_px(p0), to_px(p1)
            out.append(f'<line x1="{a[0]:.2f}" y1="{a[1]:.2f}" x2="{b[0]:.2f}" '
                       f'y2="{b[1]:.2f}" stroke="#999" stroke-width="0.8" '
                       'stroke-dasharray="4 3"/>')
    for idx, (label, curve) in enumerate(figure.get("curves", [])):
        color = _PALETTE[idx % len(_PALETTE)]
        f = curve_function(curve, corners)
        segs = trace_segments(f, viewport, config.grid)
        if segs:
            drew_curve = True
        for p0, p1 in segs:
            a, b = to_px(p0), to_px(p1)
            out.append(f'<line x1="{a[0]:.2f}" y1="{a[1]:.2f}" x2="{b[0]:.2f}" '
                       f'y2="{b[1]:.2f}" stroke="{color}" stroke-width="1.4"/>')
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
    corners, viewport = _frame(t, figure, config)
    rows = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("curve,x,y\n")
        for label, curve in figure.get("curves", []):
            f = curve_function(curve, corners)
            for p0, p1 in trace_segments(f, viewport, config.grid):
                for p in (p0, p1):
                    fh.write(f"{label},{p[0]!r},{p[1]!r}\n")
                    rows += 1
    return rows
