import csv
import math

import pytest

from tricurves.curves import Conic
from tricurves.kernel import HomPoint, RefTriangle
from tricurves.render import (
    RenderConfig,
    curve_function,
    embed_triangle,
    point_xy,
    render_svg,
    sample_csv,
    trace_segments,
    compute_viewport,
)


def circumcircle(t):
    return Conic(0, 0, 0, t.c2, t.b2, t.a2)


class TestEmbedding:
    def test_side_lengths(self):
        t = RefTriangle(6, 9, 13)
        a, b, c = embed_triangle(t)
        def d(p, q):
            return math.hypot(p[0] - q[0], p[1] - q[1])
        assert d(b, c) == pytest.approx(6.0)
        assert d(a, c) == pytest.approx(9.0)
        assert d(a, b) == pytest.approx(13.0)

    def test_point_mapping(self):
        t = RefTriangle(6, 9, 13)
        corners = embed_triangle(t)
        assert point_xy(HomPoint(1, 0, 0), corners) == corners[0]
        cx, cy = point_xy(HomPoint(1, 1, 1), corners)
        assert cx == pytest.approx(sum(p[0] for p in corners) / 3)
        assert cy == pytest.approx(sum(p[1] for p in corners) / 3)

    def test_infinite_point_rejected(self):
        t = RefTriangle(6, 9, 13)
        with pytest.raises(ValueError):
            point_xy(HomPoint(1, -1, 0), embed_triangle(t))


class TestConfig:
    def test_grid_floor(self):
        with pytest.raises(ValueError):
            RenderConfig(grid=8)

    def test_size_floor(self):
        with pytest.raises(ValueError):
            RenderConfig(width=32)

    @pytest.mark.parametrize("margin", [math.nan, math.inf, -math.inf])
    def test_margin_finite(self, margin):
        with pytest.raises(ValueError):
            RenderConfig(margin=margin)

    @pytest.mark.parametrize("margin", [-5.0, -0.6, -1e-9])
    def test_margin_non_negative(self, margin):
        # a negative margin inverts the viewport (x0 > x1)
        with pytest.raises(ValueError):
            RenderConfig(margin=margin)

    def test_zero_margin_fits_the_triangle(self):
        corners = embed_triangle(RefTriangle(3, 4, 6))
        x0, y0, x1, y1 = compute_viewport(corners, [], RenderConfig(margin=0).margin)
        assert x0 < x1 and y0 < y1


class TestTracing:
    def test_circle_segments_nonempty_and_accurate(self):
        t = RefTriangle(3, 4, 6)
        corners = embed_triangle(t)
        f = curve_function(circumcircle(t), corners)
        viewport = compute_viewport(corners, [], 0.4)
        segs = trace_segments(f, viewport, 128)
        assert segs
        for p0, p1 in segs:
            assert abs(f(*p0)) < 1e-9
            assert abs(f(*p1)) < 1e-9

    def test_grid_refinement_consistency(self):
        # coarse and fine grids trace the same closed loop (one circle)
        t = RefTriangle(3, 4, 6)
        corners = embed_triangle(t)
        f = curve_function(circumcircle(t), corners)
        viewport = compute_viewport(corners, [], 0.4)
        for grid in (16, 64, 256):
            segs = trace_segments(f, viewport, grid)
            assert segs
            # every traced endpoint is on the circle, so the locus is consistent
            assert all(abs(f(*p)) < 1e-6 for s in segs for p in s)


class TestCsvResidual:
    def test_circumcircle_grid_512(self, tmp_path):
        t = RefTriangle(3, 4, 6)
        corners = embed_triangle(t)
        (ax, ay), (bx, by), (cx, cy) = corners
        figure = {"points": [], "curves": [("circ", circumcircle(t))],
                  "lines": []}
        path = tmp_path / "pts.csv"
        rows = sample_csv(t, figure, RenderConfig(grid=512), str(path))
        assert rows > 100
        # Cartesian circle through the three embedded vertices
        d = 2 * ((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))
        ux = ((bx**2 - ax**2 + by**2 - ay**2) * (cy - ay)
              - (cx**2 - ax**2 + cy**2 - ay**2) * (by - ay)) / d
        uy = ((cx**2 - ax**2 + cy**2 - ay**2) * (bx - ax)
              - (bx**2 - ax**2 + by**2 - ay**2) * (cx - ax)) / d
        r2 = (ax - ux) ** 2 + (ay - uy) ** 2
        with open(path) as fh:
            for row in csv.DictReader(fh):
                x, y = float(row["x"]), float(row["y"])
                residual = abs((x - ux) ** 2 + (y - uy) ** 2 - r2) / r2
                assert residual <= 1e-6


class TestSvg:
    def test_points_only_figure(self, tmp_path):
        t = RefTriangle(6, 9, 13)
        figure = {"points": [("I", HomPoint(6, 9, 13))], "curves": [],
                  "lines": []}
        path = tmp_path / "f.svg"
        assert render_svg(t, figure, RenderConfig(grid=16), str(path))
        content = path.read_text()
        assert "<circle" in content
        assert ">I</text>" in content

    def test_no_locus_warns_via_return(self, tmp_path):
        # imaginary conic x^2 + y^2 + z^2 = 0 has no real points
        t = RefTriangle(6, 9, 13)
        figure = {"points": [], "curves": [("ghost", Conic(1, 1, 1, 0, 0, 0))],
                  "lines": []}
        path = tmp_path / "f.svg"
        assert render_svg(t, figure, RenderConfig(grid=32), str(path)) is False
        assert path.exists()

    def test_labels_toggle(self, tmp_path):
        t = RefTriangle(6, 9, 13)
        figure = {"points": [("I", HomPoint(6, 9, 13))], "curves": [],
                  "lines": []}
        path = tmp_path / "f.svg"
        render_svg(t, figure, RenderConfig(grid=16, labels=False), str(path))
        assert "<text" not in path.read_text()
