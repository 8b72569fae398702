import collections
import csv
import functools
import hashlib
import importlib.util
import math
import pathlib
import sys
import tracemalloc
import types
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import tricurves.render as render
from tricurves.centers import random_triangle
from tricurves.curves import Conic
from tricurves.kernel import HomLine, HomPoint, RefTriangle
from tricurves.render import (
    RenderConfig,
    curve_function,
    embed_triangle,
    point_xy,
    sample_csv,
    trace_figure,
    trace_segments,
    compute_viewport,
    write_svg,
)
from tricurves.scenarios import REGISTRY, build_figure

from reference import dense_trace_segments


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

    @pytest.mark.parametrize("sides", [
        (10**200,) * 3,                      # squared sides overflow a float
        (Fraction(1, 10**200),) * 3,         # squared sides underflow to 0
        (1, 1, 2 - Fraction(1, 10**20)),     # the float area rounds to 0
    ])
    def test_outside_float_range_refused(self, sides):
        with pytest.raises(ValueError, match=r"RefTriangle\("):
            embed_triangle(RefTriangle(*sides))

    @pytest.mark.parametrize("big", [10**307, 10**400], ids=["1e307", "1e400"])
    def test_point_with_coordinates_beyond_float_range(self, big):
        # x * ax overflows (to inf, or converting x); the weights x/s, y/s,
        # z/s are ordinary floats
        corners = embed_triangle(RefTriangle(6, 9, 13))
        x, y = point_xy(HomPoint(big, big, big + 3), corners)
        assert x == pytest.approx(sum(p[0] for p in corners) / 3)
        assert y == pytest.approx(sum(p[1] for p in corners) / 3)

    def test_point_beyond_float_range_refused(self):
        corners = embed_triangle(RefTriangle(6, 9, 13))
        with pytest.raises(ValueError, match="beyond float range"):
            point_xy(HomPoint(10**400, 1 - 10**400, 0), corners)


class TestConfig:
    def test_grid_floor(self):
        with pytest.raises(ValueError):
            RenderConfig(grid=8)

    @pytest.mark.parametrize("grid", [4097, 100_000, 10**9])
    def test_grid_ceiling(self, grid):
        # refused before a trace scans (grid + 1)^2 nodes
        with pytest.raises(ValueError, match="4096"):
            RenderConfig(grid=grid)

    def test_grid_ceiling_inclusive(self):
        assert RenderConfig(grid=4096).grid == 4096

    @pytest.mark.parametrize("grid", [64.0, 16.0, Fraction(64), True],
                             ids=["64.0", "16.0", "Fraction", "True"])
    def test_grid_must_be_an_int(self, grid):
        # 64.0 passed and then failed inside the trace with a TypeError
        with pytest.raises(ValueError, match="int"):
            RenderConfig(grid=grid)

    @pytest.mark.parametrize("margin", [1e308, 1.7e308])
    def test_viewport_beyond_float_range_refused(self, margin):
        # the padding overflows: the viewport was (-inf, -inf, inf, inf)
        t = RefTriangle(3, 4, 6)
        figure = {"points": [], "curves": [("c", circumcircle(t))]}
        with pytest.raises(ValueError, match="viewport"):
            render._frame(t, figure, RenderConfig(margin=margin))

    def test_curve_values_beyond_float_range_refused(self):
        # the viewport is finite, but a cubic's cubes at its first column's
        # nodes raised OverflowError out of the trace
        t = RefTriangle(6, 9, 13)
        figure = build_figure("thm3-darboux-excentral", t)
        with pytest.raises(ValueError, match="overflows float range"):
            trace_figure(t, figure, RenderConfig(grid=16, margin=1e300))

    def test_cubic_values_near_float_range_refused(self):
        # every node value is finite, but the grid lines' cubics overflowed
        # to inf and nan, whose signs the trace read as negative
        t = RefTriangle(6, 9, 13)
        figure = build_figure("thm3-darboux-excentral", t)
        with pytest.raises(ValueError, match="overflows float range"):
            trace_figure(t, figure, RenderConfig(grid=64, margin=1.6e99))

    def test_conic_values_beyond_float_range_refused(self):
        # a conic's squares overflow to inf without raising: the trace found
        # no crossing and the figure came out empty
        t = RefTriangle(6, 9, 13)
        figure = {"points": [], "curves": [("c", circumcircle(t))], "lines": []}
        f = curve_function(circumcircle(t), embed_triangle(t))
        assert math.isnan(f(1e200, 1e200))   # inf - inf; the evaluator still reads it
        with pytest.raises(ValueError, match="overflows float range"):
            trace_figure(t, figure, RenderConfig(grid=16, margin=1e200))

    def test_line_values_beyond_float_range_refused(self, tmp_path):
        # write_svg traces the lines itself; a line's overflow must be
        # refused there too, before the file is opened
        t = RefTriangle(6, 9, 13)
        figure = {"points": [], "curves": [], "lines": [("l", HomLine(10**20, 1, 1))]}
        config = RenderConfig(grid=16, margin=1e300)
        path = tmp_path / "f.svg"
        traced = trace_figure(t, figure, config)
        with pytest.raises(ValueError, match="overflows float range"):
            write_svg(traced, str(path))
        assert not path.exists()

    def test_size_floor(self):
        with pytest.raises(ValueError):
            RenderConfig(width=32)

    @pytest.mark.parametrize("size", [math.nan, math.inf, 64.5, 640.0,
                                      Fraction(640), True, 10**400],
                             ids=["nan", "inf", "64.5", "640.0", "Fraction",
                                  "True", "10**400"])
    @pytest.mark.parametrize("name", ["width", "height"])
    def test_size_must_be_an_int_within_float_range(self, name, size):
        # nan wrote an SVG of nan coordinates; 10**400 overflowed in write_svg
        with pytest.raises(ValueError, match=name):
            RenderConfig(**{name: size})

    def test_scale_beyond_float_range_refused(self, tmp_path):
        # a width within float range over a viewport under 1 wide: the scale
        # overflowed and the SVG was written with inf and nan coordinates
        t = RefTriangle(Fraction(3, 1000), Fraction(4, 1000), Fraction(6, 1000))
        figure = {"points": [], "curves": [("c", circumcircle(t))], "lines": []}
        path = tmp_path / "f.svg"
        traced = trace_figure(t, figure, RenderConfig(width=10**308, grid=16))
        with pytest.raises(ValueError, match="scale"):
            write_svg(traced, str(path))
        assert not path.exists()

    def test_size_ceiling_inclusive(self):
        top = int(sys.float_info.max)
        config = RenderConfig(width=top, height=top)
        assert (config.width, config.height) == (top, top)

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
        assert write_svg(trace_figure(t, figure, RenderConfig(grid=16)), str(path))
        content = path.read_text()
        assert "<circle" in content
        assert ">I</text>" in content

    def test_no_locus_warns_via_return(self, tmp_path):
        # imaginary conic x^2 + y^2 + z^2 = 0 has no real points
        t = RefTriangle(6, 9, 13)
        figure = {"points": [], "curves": [("ghost", Conic(1, 1, 1, 0, 0, 0))],
                  "lines": []}
        path = tmp_path / "f.svg"
        assert write_svg(trace_figure(t, figure, RenderConfig(grid=32)), str(path)) is False
        assert path.exists()

    def test_labels_toggle(self, tmp_path):
        t = RefTriangle(6, 9, 13)
        figure = {"points": [("I", HomPoint(6, 9, 13))], "curves": [],
                  "lines": []}
        path = tmp_path / "f.svg"
        write_svg(trace_figure(t, figure, RenderConfig(grid=16, labels=False)), str(path))
        assert "<text" not in path.read_text()


def _reference_chart(corners):
    """The barycentric chart as its own closure: the float expression, term
    for term, that ``curve_function`` feeds to the form of each degree."""
    (ax, ay), (bx, by), (cx, cy) = corners
    det = (bx - ax) * (cy - ay) - (cx - ax) * (by - ay)

    def chart(px, py):
        l2 = ((px - ax) * (cy - ay) - (cx - ax) * (py - ay)) / det
        l3 = ((bx - ax) * (py - ay) - (px - ax) * (by - ay)) / det
        return (1.0 - l2 - l3, l2, l3)

    return chart


def _reference_value(coeffs, x, y, z):
    if len(coeffs) == 3:
        l1, l2, l3 = coeffs
        return l1 * x + l2 * y + l3 * z
    if len(coeffs) == 6:
        q11, q22, q33, q12, q13, q23 = coeffs
        return (q11 * x * x + q22 * y * y + q33 * z * z
                + 2 * (q12 * x * y + q13 * x * z + q23 * y * z))
    c0, c1, c2, c3, c4, c5, c6, c7, c8, c9 = coeffs
    return (c0 * x**3 + c1 * x * x * y + c2 * x * x * z
            + c3 * x * y * y + c4 * x * y * z + c5 * x * z * z
            + c6 * y**3 + c7 * y * y * z + c8 * y * z * z + c9 * z**3)


_coord = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
_xy = st.tuples(_coord, _coord)


class TestEvaluatorsBitIdentical:
    @settings(max_examples=200, deadline=None)
    @given(corners=st.tuples(_xy, _xy, _xy),
           coeffs=st.sampled_from([3, 6, 10]).flatmap(lambda n: st.lists(
               st.integers(-10**6, 10**6), min_size=n, max_size=n)),
           points=st.lists(_xy, min_size=1, max_size=8))
    def test_inlined_chart_matches_reference(self, corners, coeffs, points):
        (ax, ay), (bx, by), (cx, cy) = corners
        assume((bx - ax) * (cy - ay) - (cx - ax) * (by - ay) != 0)
        f = curve_function(types.SimpleNamespace(coeffs=coeffs), corners)
        chart = _reference_chart(corners)
        floats = [float(c) for c in coeffs]

        def outcome(fn, *args):  # x**3 raises OverflowError on thin corners
            try:
                return fn(*args).hex()
            except OverflowError:
                return "OverflowError"

        for px, py in points:
            assert outcome(f, px, py) == outcome(
                lambda: _reference_value(floats, *chart(px, py)))

    def test_line_coefficients_beyond_float_range_scale_exactly(self):
        # 2^1100 and 2^1100 + 1 both round to 1/2 once divided by 2^1101
        corners = embed_triangle(RefTriangle(6, 9, 13))
        big = curve_function(HomLine(2**1100, -(2**1100 + 1), 0), corners)
        small = curve_function(HomLine(1, -1, 0), corners)
        for p in ((0.5, 0.25), (3.0, -7.0), (11.5, 2.0)):
            assert big(*p) == 0.5 * small(*p)

    @pytest.mark.parametrize("n", [2, 4, 9])
    def test_other_coefficient_counts_refused(self, n):
        corners = embed_triangle(RefTriangle(6, 9, 13))
        with pytest.raises(ValueError, match=f"{n} coefficients"):
            curve_function(types.SimpleNamespace(coeffs=(1,) * n), corners)


# Segment counts at grid 64 of every curve of the curve-bearing figures on
# the triangles below.  The sign grid and the saddle tests decide them, not
# the refinement of a crossing, so no change to refinement may move them.
_PINNED_TRIANGLES = (RefTriangle(6, 9, 13), random_triangle(1),
                     random_triangle(2), random_triangle(3))
SEGMENT_COUNTS = {
    "thm1-jerabek-excentral": [[125], [134], [131], [130]],
    "thm2-thomson-excentral": [[254], [259], [257], [224]],
    "thm3-darboux-excentral": [[244], [225], [224], [240]],
    "thm4-yff-medial": [[155, 159], [159, 162], [158, 160], [145, 158]],
    "thm5-darboux-medial": [[251], [253], [258], [238]],
    "thm6-lucas-medial": [[202], [243], [239], [237]],
    "thm7-darboux-euler": [[251], [253], [258], [238]],
    "thm8-jerabek-midarc": [[127], [139], [138], [133]],
    "cor1": [[125], [133], [129], [136]],
    "cor2": [[125], [133], [129], [136]],
    "cor3": [[126], [139], [138], [139]],
    "cor4": [[126], [139], [138], [139]],
    "cor5-euler-line-component": [[244, 251], [225, 253], [224, 258], [240, 238]],
    "defs-sanity": [[128, 202, 214], [134, 243, 214], [130, 239, 212],
                    [129, 237, 221]],
}


@functools.lru_cache(maxsize=None)
def _figure(sid, k):
    return build_figure(sid, _PINNED_TRIANGLES[k])


def _traced(sid, k, grid=64):
    """(f, viewport, segments) per curve, in the frame ``sample_csv`` uses."""
    t, fig = _PINNED_TRIANGLES[k], _figure(sid, k)
    corners, viewport = render._frame(t, fig, RenderConfig(grid=grid))
    out = []
    for _, curve in fig["curves"]:
        f = curve_function(curve, corners)
        out.append((f, viewport, trace_segments(f, viewport, grid)))
    return out


def _circle(margin):
    t = RefTriangle(3, 4, 6)
    corners = embed_triangle(t)
    return (curve_function(circumcircle(t), corners),
            compute_viewport(corners, [], margin))


def _grid_lines(viewport, grid):
    x0, y0, x1, y1 = viewport
    dx = (x1 - x0) / grid
    dy = (y1 - y0) / grid
    return ([x0 + i * dx for i in range(grid + 1)],
            [y0 + j * dy for j in range(grid + 1)])


class TestTopologyPinned:
    def test_circumcircle_grids(self):
        f, viewport = _circle(0.4)
        assert {g: len(trace_segments(f, viewport, g)) for g in (16, 64, 256)} \
            == {16: 32, 64: 134, 256: 546}

    def test_every_curve_bearing_scenario_pinned(self):
        assert sorted(SEGMENT_COUNTS) == sorted(
            sid for sid in REGISTRY if _figure(sid, 0)["curves"])

    @pytest.mark.parametrize("sid", sorted(SEGMENT_COUNTS))
    def test_figure_segment_counts(self, sid):
        got = [[len(segs) for _, _, segs in _traced(sid, k)]
               for k in range(len(_PINNED_TRIANGLES))]
        assert got == SEGMENT_COUNTS[sid]


class TestRefinement:
    @pytest.mark.parametrize("grid", [16, 64, 256])
    def test_endpoints_on_grid_lines(self, grid):
        f, viewport = _circle(0.4)
        traced = [(f, viewport, trace_segments(f, viewport, grid))]
        if grid == 64:
            traced += _traced("defs-sanity", 0) + _traced("thm4-yff-medial", 1)
        for f, viewport, segs in traced:
            xs, ys = map(set, _grid_lines(viewport, grid))
            for seg in segs:
                for x, y in seg:
                    assert x in xs or y in ys

    @pytest.mark.parametrize("grid", [16, 64, 256])
    def test_closed_curve_is_watertight(self, grid):
        f, viewport = _circle(1.0)
        x0, y0, x1, y1 = viewport
        points = [p for seg in trace_segments(f, viewport, grid) for p in seg]
        # the circle stays inside the viewport, so it closes there
        assert all(x0 < x < x1 and y0 < y < y1 for x, y in points)
        counts = collections.Counter(points)
        assert set(counts.values()) == {2}
        # the two cells on an edge share one endpoint object
        assert len({id(p) for p in points}) == len(counts)

    def test_each_crossing_edge_refined_once(self, monkeypatch):
        calls = []
        refine = render._refine

        def counting(line, p0, p1, v0, v1):
            calls.append((p0, p1))
            return refine(line, p0, p1, v0, v1)

        monkeypatch.setattr(render, "_refine", counting)
        grid = 64
        for f, viewport in (_circle(0.4), _traced("thm4-yff-medial", 0)[0][:2]):
            calls.clear()
            trace_segments(f, viewport, grid)
            xs, ys = _grid_lines(viewport, grid)
            pos = [[f(x, y) > 0 for y in ys] for x in xs]
            changes = sum(pos[i][j] != pos[i + 1][j]
                          for i in range(grid) for j in range(grid + 1))
            changes += sum(pos[i][j] != pos[i][j + 1]
                           for i in range(grid + 1) for j in range(grid))
            assert changes > 0
            assert len(calls) == len(set(calls)) == changes

    # On the integer grid of (0, 0, 16, 16): the factors x - 5.3 and y - 7.6
    # cross inside the cell (5, 7), a saddle, and y - 7.6 also crosses the
    # first column; x + y - 16 passes through a diagonal of nodes.
    @pytest.mark.parametrize("case", ["circle", "saddle-cubic", "through-nodes"])
    def test_refine_inputs(self, monkeypatch, case):
        calls = []
        refine = render._refine

        def recording(line, p0, p1, v0, v1):
            calls.append((line, p0, p1, v0, v1))
            return refine(line, p0, p1, v0, v1)

        monkeypatch.setattr(render, "_refine", recording)
        if case == "circle":
            (f, viewport), grid = _circle(0.4), 64
        else:
            f = {"saddle-cubic": lambda x, y: (x - 5.3) * (y - 7.6) * (x + 2 * y + 50),
                 "through-nodes": lambda x, y: x + y - 16}[case]
            viewport, grid = (0.0, 0.0, 16.0, 16.0), 16
        trace_segments(f, viewport, grid)
        columns = list(render._columns(f, viewport, grid))
        xs, ys = _grid_lines(viewport, grid)
        col, row = {x: i for i, x in enumerate(xs)}, {y: j for j, y in enumerate(ys)}
        x0, _, x1, _ = viewport
        edges = set()
        for line, p0, p1, v0, v1 in calls:
            (i, j), (k, m) = (col[p0[0]], row[p0[1]]), (col[p1[0]], row[p1[1]])
            # one grid edge, from its lower grid index to its higher one
            assert (k, m) in ((i + 1, j), (i, j + 1))
            edges.add((i, j, k, m))
            # v0 and v1: the column cubics at the two nodes, either side of > 0
            assert (v0, v1) == (columns[i][2][j], columns[k][2][m])
            assert (v0 > 0) != (v1 > 0)
            # the line: the column's own cubic, or the row's, built alike
            assert line == (columns[i][1] if k == i else render._restriction(
                f, False, ys[j], 0.5 * (x0 + x1), 0.5 * (x1 - x0)))
        assert len(edges) == len(calls) > 0
        if case == "saddle-cubic":
            assert {(5, 7, 6, 7), (6, 7, 6, 8), (5, 8, 6, 8), (5, 7, 5, 8)} <= edges
            assert (0, 7, 0, 8) in edges   # a left edge of the first column
        if case == "through-nodes":
            assert any(0.0 in (v0, v1) for *_, v0, v1 in calls)

    @staticmethod
    def _line(a0, a1, a2, a3):
        """The grid line y = 2 whose cubic is a0 + a1 x + a2 x^2 + a3 x^3 (a
        centre of 0 and a half-length of 1 make the offset s equal to x),
        and a count of the evaluations of that cubic."""
        n = [0]

        class Counted(float):  # Horner starts each evaluation with a3 * s
            def __mul__(self, other):
                n[0] += 1
                return float(self) * other

        return ((a0, a1, a2, Counted(a3)), 0.0, 1.0, 0, 2.0), n

    @pytest.mark.parametrize("v0, v1, want", [
        (0.0, 1.0, (0.0, 2.0)), (-1.0, 0.0, (1.0, 2.0)),
    ])
    def test_zero_endpoint_returned_unevaluated(self, v0, v1, want):
        line, n = self._line(0.0, 1.0, 0.0, 0.0)
        assert render._refine(line, (0.0, 2.0), (1.0, 2.0), v0, v1) == want
        assert n[0] == 0

    def test_exact_zero_inside_returns_at_once(self):
        line, n = self._line(-0.5, 1.0, 0.0, 0.0)
        assert render._refine(line, (0.0, 2.0), (1.0, 2.0), -0.5, 0.5) == (0.5, 2.0)
        assert n[0] == 1

    # The nan and inf cases give those values at the bracket ends, as a
    # form that overflows at a grid node hands them over; in the last case
    # the cubic's own Horner steps overflow to inf beyond x = 0.8.
    @pytest.mark.parametrize("coeffs, ends, root, tol", [
        ((-0.7, 1.0, 0.0, 0.0), (math.nan, 0.3), 0.7, 1e-15),
        ((-0.7, 1.0, 0.0, 0.0), (-math.inf, 0.3), 0.7, 1e-15),
        ((-0.7, 1.0, 0.0, 0.0), (-math.inf, math.inf), 0.7, 1e-15),
        ((-1 / 27, 1 / 3, -1.0, 1.0), (-1 / 27, 8 / 27), 1 / 3, 1e-5),  # (x - 1/3)^3
        ((-0.7e-300, 1e-300, 0.0, 0.0), (-0.7e-300, 0.3e-300), 0.7, 1e-15),
        # 0.97^3 - (1 - x)^3: steep near x = 0, flat near x = 1
        ((0.97**3 - 1, 3.0, -3.0, 1.0), (0.97**3 - 1, 0.97**3), 0.03, 1e-15),
        ((-3.75e307, 0.0, 1e308, 1e308), (-3.75e307, math.inf), 0.5, 1e-15),
    ], ids=["nan", "-inf", "inf-both-ends", "triple-root", "tiny", "steep",
            "inf-overflow"])
    def test_terminates_within_cap(self, coeffs, ends, root, tol):
        line, n = self._line(*coeffs)
        x, y = render._refine(line, (0.0, 2.0), (1.0, 2.0), *ends)
        assert n[0] <= render._REFINE_CAP
        assert y == 2.0
        assert abs(x - root) <= tol


def _bench_workloads():
    root = pathlib.Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", root / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestFiguresGuard:
    """The figures benchmark's check at tier 1: the backward error of every
    CSV row (``bench/workloads.relative_residual``) is at most 1e-6."""

    @pytest.mark.parametrize("k", range(len(_PINNED_TRIANGLES)))
    def test_backward_error_of_every_row(self, k, tmp_path):
        workloads = _bench_workloads()
        t = _PINNED_TRIANGLES[k]
        (ax, ay), (bx, by), (cx, cy) = workloads.embed(t)
        det = (bx - ax) * (cy - ay) - (cx - ax) * (by - ay)
        for sid, counts in SEGMENT_COUNTS.items():
            fig = _figure(sid, k)
            path = tmp_path / f"{sid}.csv"
            rows = sample_csv(t, fig, RenderConfig(grid=64), str(path))
            lines = path.read_text(encoding="utf-8").splitlines()
            assert len(lines) == rows + 1 == 2 * sum(counts[k]) + 1
            coeffs = {label: c.coeffs for label, c in fig["curves"]}
            for line in lines[1:]:
                label, x, y = line.split(",")
                px, py = float(x), float(y)
                l2 = ((px - ax) * (cy - ay) - (cx - ax) * (py - ay)) / det
                l3 = ((bx - ax) * (py - ay) - (px - ax) * (by - ay)) / det
                assert workloads.relative_residual(
                    coeffs[label], (1.0 - l2 - l3, l2, l3)) <= 1e-6, (sid, line)


def _on_line(line, x, y):
    """The cubic of a grid line (see ``render._restriction``) at a point of
    the line, by the float expression ``render._refine`` evaluates."""
    (a0, a1, a2, a3), centre, half, axis, _ = line
    s = ((x, y)[axis] - centre) / half
    return ((a3 * s + a2) * s + a1) * s + a0


class TestGridLineRestrictions:
    """``trace_segments`` reads ``f`` off one cubic per grid line."""

    @pytest.mark.parametrize("case", ["circumcircle", "thm4-yff-medial"])
    def test_calls_linear_in_grid(self, case):
        grid = 64
        if case == "circumcircle":
            traced = [_circle(0.4)]
        else:
            traced = [(f, viewport) for f, viewport, _ in _traced(case, 0)]
        for f, viewport in traced:
            calls = [0]

            def counted(x, y):
                calls[0] += 1
                return f(x, y)

            trace_segments(counted, viewport, grid)
            xs, ys = _grid_lines(viewport, grid)
            pos = [[f(x, y) > 0 for y in ys] for x in xs]
            saddles = sum(pos[i][j] == pos[i + 1][j + 1] != pos[i + 1][j] == pos[i][j + 1]
                          for i in range(grid) for j in range(grid))
            assert 0 < calls[0] <= 8 * (grid + 1) + saddles

    # values near -9e307 and -2.2e307: finite, but the column and row cubics
    # built from them overflowed to nan and -inf
    @example(corners=((0.0, 0.0), (1.581214347582179e-05, 0.0),
                      (0.0, 1.1890704503957294e-156)),
             coeffs=[0, 0, 0, 0, 451860, 0])
    @example(corners=((0.0, 0.0), (1.581214347582179e-05, 0.0),
                      (0.0, 1.1890704503957294e-156)),
             coeffs=[0, 0, 0, 0, 112965, 0])
    @settings(max_examples=200, deadline=None)
    @given(corners=st.tuples(_xy, _xy, _xy),
           coeffs=st.sampled_from([3, 6, 10]).flatmap(lambda n: st.lists(
               st.integers(-10**6, 10**6), min_size=n, max_size=n)))
    def test_interpolated_values_match_the_form(self, corners, coeffs):
        # Each value may differ from the term-for-term f by a few rounding
        # errors of f itself, which scale with the terms, not with f: on a
        # thin triangle 1 - l2 - l3 cancels, and f = 45 * (x + y + z) comes
        # out as 45 +- 3e-11.  So the bound is 1e-12 times the largest
        # sum |c_i| * max(|x|, |y|, |z|)^degree on the grid line, the
        # denominator of the figures guard's backward error.
        (ax, ay), (bx, by), (cx, cy) = corners
        assume((bx - ax) * (cy - ay) - (cx - ax) * (by - ay) != 0)
        f = curve_function(types.SimpleNamespace(coeffs=coeffs), corners)
        if len(coeffs) == 3:
            weights, degree = (1, 1, 1), 1
        else:
            weights = (1, 1, 1, 2, 2, 2) if len(coeffs) == 6 else (1,) * 10
            degree = 2 if len(coeffs) == 6 else 3
        grid = 16
        viewport = compute_viewport(corners, [], 0.25)
        xs, ys = _grid_lines(viewport, grid)
        try:
            columns = list(render._columns(f, viewport, grid))
            exact = [[f(x, y) for y in ys] for x in xs]
        except OverflowError:  # x**3 on a thin triangle
            assume(False)
        # a trace refuses a value beyond the limit, past which a grid line's
        # cubic can overflow although the value itself is finite
        assume(all(abs(v) <= render._VALUE_LIMIT for col in exact for v in col))
        chart, norm = _reference_chart(corners), sum(
            abs(c) * w for c, w in zip(coeffs, weights))
        terms = [[norm * max(map(abs, chart(x, y))) ** degree for y in ys] for x in xs]
        x0, _, x1, _ = viewport
        rows = [render._restriction(f, False, y, 0.5 * (x0 + x1), 0.5 * (x1 - x0))
                for y in ys]
        assert [x for x, _, _ in columns] == xs
        for i, (x, line, values) in enumerate(columns):
            bound = 1e-12 * max(terms[i])
            for j, y in enumerate(ys):
                assert abs(values[j] - exact[i][j]) <= bound
                assert values[j] == _on_line(line, x, y)
        for j, (y, row) in enumerate(zip(ys, rows)):
            bound = 1e-12 * max(terms[i][j] for i in range(grid + 1))
            for i, x in enumerate(xs):
                assert abs(_on_line(row, x, y) - exact[i][j]) <= bound


class TestSvgLines:
    """The dashed lines of ``write_svg``: every traced endpoint lies on its
    exact line within a backward error of 1e-6, measured as
    ``TestFiguresGuard`` measures the CSV rows."""

    @pytest.mark.parametrize("k", range(len(_PINNED_TRIANGLES)))
    @pytest.mark.parametrize("grid", [64, 256])
    def test_endpoints_on_their_lines(self, k, grid):
        workloads = _bench_workloads()
        t = _PINNED_TRIANGLES[k]
        (ax, ay), (bx, by), (cx, cy) = workloads.embed(t)
        det = (bx - ax) * (cy - ay) - (cx - ax) * (by - ay)
        config = RenderConfig(grid=grid)
        traced = 0
        for sid in REGISTRY:
            fig = _figure(sid, k)
            corners, viewport = render._frame(t, fig, config)
            for label, line in fig["lines"]:
                assert isinstance(line, HomLine)
                segs = trace_segments(curve_function(line, corners), viewport,
                                      max(config.grid // 4, 16))
                assert segs, (sid, label)
                traced += 1
                l1, l2, l3 = (float(c) for c in line.triple)
                for px, py in (p for seg in segs for p in seg):
                    y = ((px - ax) * (cy - ay) - (cx - ax) * (py - ay)) / det
                    z = ((bx - ax) * (py - ay) - (px - ax) * (by - ay)) / det
                    x = 1.0 - y - z
                    error = abs(l1 * x + l2 * y + l3 * z) / (
                        (abs(l1) + abs(l2) + abs(l3)) * max(abs(x), abs(y), abs(z)))
                    assert error <= 1e-6, (sid, label, px, py)
        assert traced >= 4


# SHA-256 of the CSV and then the SVG bytes that ``sample_csv`` and
# ``write_svg`` write at grid 64 for each curve-bearing figure, chained
# over the triangles of ``_PINNED_TRIANGLES`` in order; and of the two
# files for the (3, 4, 6) circumcircle alone at grids 16 and 256.
FIGURE_DIGESTS = {
    "cor1": "f159f01bb1131934e21d5da296d677cf2f6e0f0fe857ebb5259c638a1de06f5c",
    "cor2": "f159f01bb1131934e21d5da296d677cf2f6e0f0fe857ebb5259c638a1de06f5c",
    "cor3": "2f4c73a0ffe5370057ede7415154df2e1f29f5901ab838de1f10869bc005e44d",
    "cor4": "2f4c73a0ffe5370057ede7415154df2e1f29f5901ab838de1f10869bc005e44d",
    "cor5-euler-line-component":
        "1fe46b560c7c869c1a1b729e2693906137b192d65fd3fdc20b1d2a6d749408fe",
    "defs-sanity": "d7358b588d893a904be1179af4301e99a70d00e505efa770b4d91ffdd97128ad",
    "thm1-jerabek-excentral":
        "d842597989dcc51aa40838c1fed668f54ebf90f14f1d699fbcb1248adb430433",
    "thm2-thomson-excentral":
        "7b556a9729253dcb8cd63c495c58833f5e9978cb4ac88347c0efcc8443f25bf7",
    "thm3-darboux-excentral":
        "034740dc93be7ffe95446a27f35a23bf1c5b5c502a546e9b0e2d7366f49e8aa2",
    "thm4-yff-medial": "57238542e978ac9f08bdf11169950a7b42fb9645807d8c5ab1419daef50385ce",
    "thm5-darboux-medial":
        "7de94b2b222db05d717a3faaaa75a524c754fad4d466b873a6a166fb731766ed",
    "thm6-lucas-medial": "ea9281156c565b5c8b24df7750a5827071036b4ddd6e4445643ac5606f028ef6",
    "thm7-darboux-euler":
        "515e5127b483870df47fed5b7d6e9a3905a8ce7ba13066d056bd5d3058d1d1eb",
    "thm8-jerabek-midarc":
        "7e9c0dc7ff05d79a9077114a70ad706a84f008b6bc3c8082100ff71add728247",
}
CIRCUMCIRCLE_DIGESTS = {
    16: "ccfa4cb999af612e902fcf95e83f93960e1ef97bf8b560b495e9af9c15359072",
    256: "fb83330ceaf5d6594d25564f3966b61cb1b6abd89ab0a3f465fdb5d9766991c4",
}


def _file_digest(t, figure, grid, tmp_path):
    config = RenderConfig(grid=grid)
    csv_path, svg_path = tmp_path / "f.csv", tmp_path / "f.svg"
    sample_csv(t, figure, config, str(csv_path))
    write_svg(trace_figure(t, figure, config), str(svg_path))
    return hashlib.sha256(csv_path.read_bytes() + svg_path.read_bytes()).hexdigest()


class TestBytesPinned:
    """The renderer's output bytes, CSV and SVG, are fixed."""

    def test_every_curve_bearing_scenario_pinned(self):
        assert sorted(FIGURE_DIGESTS) == sorted(SEGMENT_COUNTS)

    @pytest.mark.parametrize("sid", sorted(FIGURE_DIGESTS))
    def test_figure_bytes(self, sid, tmp_path):
        h = hashlib.sha256()
        for k, t in enumerate(_PINNED_TRIANGLES):
            h.update(_file_digest(t, _figure(sid, k), 64, tmp_path).encode())
        assert h.hexdigest() == FIGURE_DIGESTS[sid]

    @pytest.mark.parametrize("grid", sorted(CIRCUMCIRCLE_DIGESTS))
    def test_circumcircle_bytes(self, grid, tmp_path):
        t = RefTriangle(3, 4, 6)
        figure = {"points": [], "curves": [("circ", circumcircle(t))], "lines": []}
        assert _file_digest(t, figure, grid, tmp_path) == CIRCUMCIRCLE_DIGESTS[grid]


class TestLiveCells:
    """``trace_segments`` visits only the cells a crossing can pass and holds
    two columns at a time, yet returns what the dense scan returns."""

    def test_memory_linear_in_grid(self):
        f, viewport = _circle(0.4)
        tracemalloc.start()
        try:
            segments = trace_segments(f, viewport, 1024)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert segments
        assert peak < 4 * 2**20

    @staticmethod
    def _outcome(trace, f, viewport, grid):
        try:
            return repr(trace(f, viewport, grid))
        except OverflowError:  # x**3 on a thin triangle
            return "OverflowError"

    @settings(max_examples=150, deadline=None)
    @given(corners=st.tuples(_xy, _xy, _xy),
           coeffs=st.sampled_from([3, 6, 10]).flatmap(lambda n: st.lists(
               st.integers(-10**6, 10**6), min_size=n, max_size=n)))
    def test_curves_match_the_dense_scan(self, corners, coeffs):
        (ax, ay), (bx, by), (cx, cy) = corners
        assume((bx - ax) * (cy - ay) - (cx - ax) * (by - ay) != 0)
        f = curve_function(types.SimpleNamespace(coeffs=coeffs), corners)
        viewport = compute_viewport(corners, [], 0.25)
        assert self._outcome(trace_segments, f, viewport, 16) == self._outcome(
            dense_trace_segments, f, viewport, 16)

    # Products of lines a x + b y + c with small integer coefficients on the
    # integer grid of (0, 0, 16, 16): a factor linear along a grid line is
    # interpolated exactly, so nodes, edges and whole columns read 0.0.  The
    # column x = ``poison`` (none for -1) reads nan or an infinity instead
    # (x = 0, 4, 12 or 16 reaches every row's cubic too), and a large scale
    # overflows.
    @settings(max_examples=300, deadline=None)
    @given(factors=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                                      st.integers(-24, 24)), min_size=1, max_size=3),
           poison=st.integers(-1, 16),
           value=st.sampled_from([math.nan, math.inf, -math.inf]),
           scale=st.sampled_from([1.0, -1.0, 1e-300, 1e300]))
    def test_zero_nan_and_inf_nodes_match_the_dense_scan(self, factors, poison,
                                                        value, scale):
        def f(x, y):
            if x == poison:
                return value
            v = scale
            for a, b, c in factors:
                v *= a * x + b * y + c
            return v

        viewport = (0.0, 0.0, 16.0, 16.0)
        assert repr(trace_segments(f, viewport, 16)) == repr(
            dense_trace_segments(f, viewport, 16))

    @pytest.mark.parametrize("f", [
        lambda x, y: (x - 5) * (y - 7),          # a zero column and a zero row
        lambda x, y: x + y - 16,                 # zeros on a diagonal of nodes
        lambda x, y: math.nan if x == 4 else y - 8.5,
        # the column x = 4 below reads, node by node: -5e-324 (read off the
        # sign bits); -0.0 at y = 4 and 8 and 0.0 at y = 12 (an exact zero);
        # inf, or -inf (a sum that is not finite); finite values from -2e307
        # to 2.7e307 whose sum overflows
        lambda x, y: -5e-324 if x == 4 else y - 8.5,
        lambda x, y: ((-0.0 if y in (4, 12) else 3 * (y - 8) / 8) if x == 4
                      else y - 8.5),
        lambda x, y: 5e307 if x == 4 else y - 8.5,
        lambda x, y: -5e307 if x == 4 else y - 8.5,
        lambda x, y: ((-2e307 if y == 0 else 2e307) if x == 4
                      else y - 8.5),
    ], ids=["cross", "diagonal", "nan-column", "negative-subnormal-column",
            "negative-zero-node", "inf-column", "minus-inf-column",
            "overflowing-sum-column"])
    def test_masked_columns_match_the_dense_scan(self, f):
        viewport = (0.0, 0.0, 16.0, 16.0)
        got = trace_segments(f, viewport, 16)
        assert got
        assert repr(got) == repr(dense_trace_segments(f, viewport, 16))


class TestCsvText:
    def test_signed_zeros_keep_their_spelling(self, tmp_path, monkeypatch):
        # equal by value, so a row cache keyed by value would merge them
        a, b, c = (0.0, 1.5), (-0.0, 1.5), (1.5, -0.0)
        monkeypatch.setattr(render, "trace_segments",
                            lambda f, viewport, grid: [(a, b), (b, c), (c, a)])
        t = RefTriangle(3, 4, 6)
        figure = {"points": [], "curves": [("circ", circumcircle(t))], "lines": []}
        path = tmp_path / "zeros.csv"
        assert sample_csv(t, figure, RenderConfig(grid=16), str(path)) == 6
        assert path.read_text(encoding="utf-8").splitlines() == [
            "curve,x,y", "circ,0.0,1.5", "circ,-0.0,1.5", "circ,-0.0,1.5",
            "circ,1.5,-0.0", "circ,1.5,-0.0", "circ,0.0,1.5"]
