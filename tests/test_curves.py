import math
import os
import pathlib
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from tricurves.centers import (
    CATALOG,
    CenterId,
    OnSideline,
    TriangleKind,
    center_coords,
    conjugate,
    derived_triangle,
    eval_center,
    eval_center_in,
    random_triangle,
)
from tricurves.curves import (
    CUBIC_MONOMIALS,
    BothVanishOnLine,
    Conic,
    Cubic,
    DegenerateAtInfinity,
    DegeneratePointSet,
    FocusOnDirectrix,
    NoLinearComponent,
    NotCollinear,
    ParabolicDegenerate,
    PencilFactorization,
    SingularMatrix,
    ZeroRatio,
    _from_frame,
    _infinity_restriction,
    _restrict,
    axis_conic,
    conic_center,
    conic_from_focus_directrix,
    conic_through,
    cubic_through,
    hessian,
    homothety_matrix,
    is_rectangular,
    isogonal_image,
    line_component,
    pascal_check,
    pencil_combination,
    pivotal_cubic,
    pivotal_membership,
    pole,
    transform_conic,
    transform_cubic,
    transform_point,
)
from tricurves.kernel import (
    CoincidentArguments,
    Frame,
    GeometryError,
    HomLine,
    HomPoint,
    LINE_AT_INFINITY,
    RefTriangle,
    VERTEX_A,
    VERTEX_B,
    VERTEX_C,
    adjugate3,
    det3,
    collinear,
    cross,
    incident,
    join,
    local_coords,
    midpoint,
    reflect_through,
    span_points,
    squared_distance,
)
from tricurves.linalg import RankDeficient, nullspace_vector, rank_rational
from tricurves.scenarios import FITS, Trial, _labelled

from reference import (
    affine_combine,
    conic_second_intersection,
    normalize_affine,
    point_line_distance_sq,
    sample_line_points,
    two_points_on,
)
from strategies import rational_triangles

T = RefTriangle(6, 9, 13)
BASE = derived_triangle(T, TriangleKind.BASE)

small = st.integers(-40, 40)
points = st.tuples(small, small, small).filter(any).map(lambda v: HomPoint(*v))


def coefficients(n):
    return st.lists(small, min_size=n, max_size=n).filter(any)


def circumcircle(t) -> Conic:
    return Conic(0, 0, 0, t.c2, t.b2, t.a2)


class TestMonomialTable:
    @given(points)
    def test_row_is_weighted_monomials(self, p):
        x, y, z = p.triple
        for form in (Conic, Cubic):
            assert form.row(p) == tuple(
                w * x**i * y**j * z**k
                for (i, j, k), w in zip(form.MONOMIALS, form.WEIGHTS))

    def test_tables(self):
        assert Cubic.MONOMIALS == CUBIC_MONOMIALS
        for form, size in ((Conic, 6), (Cubic, 10)):
            assert len(form.MONOMIALS) == len(form.WEIGHTS) == size
            assert all(sum(mon) == size // 3 for mon in form.MONOMIALS)

    @given(coefficients(6))
    def test_conic_form_round_trip(self, v):
        c = Conic(*v)
        assert from_form(Conic, form(c)) == c

    @given(coefficients(10))
    def test_cubic_form_round_trip(self, v):
        k = Cubic(*v)
        assert from_form(Cubic, form(k)) == k

    def test_conic_form_doubles_cross_terms(self):
        assert form(Conic(1, 2, 3, 4, 5, 6)) == {
            (2, 0, 0): 1, (0, 2, 0): 2, (0, 0, 2): 3,
            (1, 1, 0): 8, (1, 0, 1): 10, (0, 1, 1): 12}

    def test_from_form_rejects_other_degree(self):
        with pytest.raises(ValueError):
            from_form(Conic, {(3, 0, 0): 1})
        with pytest.raises(ValueError):
            from_form(Cubic, {(2, 0, 0): 1})


class TestValueSemantics:
    def test_immutable(self):
        for curve in (Conic(1, 2, 3, 4, 5, 6), Cubic(*range(1, 11))):
            with pytest.raises(AttributeError):
                curve._v = (1,) * len(curve.coeffs)
            with pytest.raises(AttributeError):
                curve.label = "x"
            for name in ("_v", "coeffs"):
                with pytest.raises(AttributeError, match="is immutable"):
                    delattr(curve, name)
            assert not hasattr(curve, "__dict__")
            with pytest.raises(TypeError):
                vars(curve)

    def test_equal_and_hashed_by_value_within_one_type(self):
        class OtherConic(Conic):
            pass

        c = Conic(1, 2, 3, 4, 5, 6)
        assert c == Conic(2, 4, 6, 8, 10, 12)
        assert hash(c) == hash(Conic(-1, -2, -3, -4, -5, -6))
        other = OtherConic(1, 2, 3, 4, 5, 6)
        assert other.coeffs == c.coeffs
        assert other != c and c != other
        assert len({c, other, Conic(1, 2, 3, 4, 5, 6)}) == 2
        assert c != c.coeffs

    def test_repr(self):
        assert repr(Conic(2, 4, 6, 8, 10, 12)) == "Conic(1, 2, 3, 4, 5, 6)"
        assert repr(Cubic(0, 0, 0, 0, -2, 0, 0, 0, 0, 0)) == \
            "Cubic(0, 0, 0, 0, 1, 0, 0, 0, 0, 0)"


class TestGradient:
    @given(coefficients(10), points)
    def test_euler_identity(self, v, p):
        k = Cubic(*v)
        gx, gy, gz = k.gradient(p)
        assert p.x * gx + p.y * gy + p.z * gz == 3 * k.evaluate(p)

    def test_node_is_singular(self):
        k = Cubic(-1, 0, -1, 0, 0, 0, 0, 1, 0, 0)  # y^2 z - x^3 - x^2 z
        node = HomPoint(0, 0, 1)
        assert k.evaluate(node) == 0
        assert k.gradient(node) == (0, 0, 0)
        smooth = HomPoint(-1, 0, 1)
        assert k.evaluate(smooth) == 0
        assert k.gradient(smooth) != (0, 0, 0)


class TestFitting:
    def test_conic_example(self):
        conic = conic_through([VERTEX_A, VERTEX_B, VERTEX_C,
                               HomPoint(1, 1, 1), HomPoint(1, 2, 3)])
        assert conic.coeffs == (0, 0, 0, 3, -4, 1)

    def test_point_on_fitted_conic(self):
        conic = Conic(0, 0, 0, 3, -4, 1)
        assert conic.evaluate(HomPoint(1, 2, 3)) == 0
        assert conic.evaluate(HomPoint(1, 5, 1)) != 0

    @pytest.mark.parametrize("form, fit", [(Conic, conic_through),
                                           (Cubic, cubic_through)],
                             ids=["conic", "cubic"])
    def test_self_check_reuses_the_fit_rows(self, form, fit, monkeypatch):
        """The fitted form is checked against the rows already built: one
        ``_monomials`` call per point, not one more per point for the check."""
        n = len(form.MONOMIALS) - 1
        pts = [HomPoint(1, k, k ** form.DEGREE + 2) for k in range(n)]
        calls = []
        monomials = form._monomials
        monkeypatch.setattr(form, "_monomials", staticmethod(
            lambda *v: calls.append(v) or monomials(*v)))
        curve = fit(pts)
        assert calls == [p.triple for p in pts]
        monkeypatch.undo()
        assert all(curve.evaluate(p) == 0 for p in pts)

    def test_rank_error_holds_no_fit_data(self):
        """A caller that keeps the error (the benchmark keeps a pass's
        results) keeps neither the fit rows nor the elimination's frames."""
        with pytest.raises(DegeneratePointSet) as exc:
            conic_through([VERTEX_A, VERTEX_B, VERTEX_C, HomPoint(1, 1, 1),
                           HomPoint(2, 2, 2)])
        assert exc.value.__context__ is None
        tb, held = exc.value.__traceback__, []
        while tb is not None:
            held += [v for v in tb.tb_frame.f_locals.values()
                     if isinstance(v, list) and v and isinstance(v[0], tuple)]
            tb = tb.tb_next
        assert held == []

    def test_duplicate_points_degenerate(self):
        pts = [VERTEX_A, VERTEX_B, VERTEX_C, HomPoint(1, 1, 1),
               HomPoint(2, 2, 2)]
        with pytest.raises(DegeneratePointSet) as exc:
            conic_through(pts)
        assert exc.value.rank == 4
        assert len(exc.value.independent) == 4

    def test_cubic_fit_consistency(self):
        med = derived_triangle(T, TriangleKind.MEDIAL)
        exc = derived_triangle(T, TriangleKind.EXCENTRAL)
        pts = [VERTEX_A, VERTEX_B, VERTEX_C, *med.vertices, *exc.vertices]
        cubic = cubic_through(pts)
        assert all(cubic.evaluate(p) == 0 for p in pts)
        # the centroid-pivot cubic contains the incenter and the centroid
        assert cubic.evaluate(eval_center(T, CenterId.X1)) == 0
        assert cubic.evaluate(eval_center(T, CenterId.X2)) == 0

    def test_refit_reproduces_curve(self):
        med = derived_triangle(T, TriangleKind.MEDIAL)
        exc = derived_triangle(T, TriangleKind.EXCENTRAL)
        pts = [VERTEX_A, VERTEX_B, VERTEX_C, *med.vertices, *exc.vertices]
        cubic = cubic_through(pts)
        others = [eval_center(T, CenterId.X1), eval_center(T, CenterId.X2),
                  eval_center(T, CenterId.X3)]
        refit = cubic_through(pts[:6] + others)
        assert refit == cubic

    def test_eight_points_on_conic_degenerate(self):
        circ = circumcircle(T)
        pts = [VERTEX_A, VERTEX_B, VERTEX_C]
        k = 1
        while len(pts) < 8:
            q = HomPoint(1, k, k * k + 7)
            p2 = conic_second_intersection(circ, VERTEX_A, q)
            if p2 not in pts and p2 != VERTEX_A:
                pts.append(p2)
            k += 1
        pts.append(HomPoint(1, 1, 1))
        with pytest.raises(DegeneratePointSet) as exc:
            cubic_through(pts)
        assert exc.value.rank <= 8

    def test_wrong_count(self):
        with pytest.raises(ValueError):
            conic_through([VERTEX_A, VERTEX_B])

    def test_certificates_pinned(self):
        """rank, needed and independent rows of three fixed degenerate sets"""
        def x(name):
            return eval_center(T, CenterId(name))

        on_circ = [conic_second_intersection(circumcircle(T), VERTEX_A, x(name))
                   for name in ("X2", "X4", "X6", "X7", "X8")]
        cases = [
            (conic_through, [VERTEX_A, VERTEX_B, VERTEX_C, x("X1"), x("X1")],
             (4, 5, (0, 1, 2, 3))),
            (conic_through, [x("X2"), x("X3"), x("X4"), x("X5"), x("X1")],
             (4, 5, (0, 1, 2, 4))),
            (cubic_through, [VERTEX_A, VERTEX_B, VERTEX_C, *on_circ, x("X1")],
             (8, 9, (0, 1, 2, 3, 4, 5, 7, 8))),
        ]
        for fit, pts, certificate in cases:
            with pytest.raises(DegeneratePointSet) as exc:
                fit(pts)
            assert (exc.value.rank, exc.value.needed, exc.value.independent) == certificate

    @pytest.mark.parametrize("curve", list(FITS))
    def test_scenario_fits_equal_the_kernel_of_every_row(self, curve):
        names = [name for _, name in _labelled(FITS[curve])]
        form = Conic if len(names) == 5 else Cubic
        for seed in range(100):
            tr = Trial(random_triangle(seed))
            pts = [tr[name] for name in names]
            rows = [form.row(pt) for pt in pts]
            assert _fit_of(form)(pts) == form(*nullspace_vector(rows)), seed

    def test_benchmark_style_fits_equal_the_kernel_of_every_row(self):
        """The benchmark's generic and rank-deficient sets, vertices among
        them: each fit, or the rank of its certificate, is the canonical
        kernel of all its rows, or their rank."""
        fitted = ranks = 0
        for seed in range(100):
            t = random_triangle(seed)
            x = {n: eval_center(t, CenterId(f"X{n}")) for n in (1, 2, 3, 4, 6, 7, 8, 9, 10, 20)}
            circ = [HomPoint(t.a2 * (-u - 1), t.b2 * (-u - 1) * u, t.c2 * u)
                    for u in range(1, 9)]
            for pts in ([x[1], x[2], x[3], x[6], x[7]], [x[1], x[2], x[3], x[6], x[1]],
                        [x[2], x[3], x[4], x[20], x[1]],
                        [x[2], x[3], x[4], VERTEX_A, VERTEX_B, VERTEX_C, x[1], x[6], x[7]],
                        [x[2], x[3], x[4], VERTEX_A, VERTEX_B, VERTEX_C, x[8], x[9], x[10]],
                        [*circ, x[1]],
                        [VERTEX_A, VERTEX_B, VERTEX_C, x[1], x[2], x[3], x[4], x[6], x[6]]):
                want = _kernel_or_rank(pts)
                assert _fit_or_rank(pts) == want, seed
                fitted += not isinstance(want, int)
                ranks += isinstance(want, int)
        assert (fitted, ranks) == (300, 400)

    @pytest.mark.parametrize("seed", range(20))
    def test_certificates_with_vertices_are_maximal_independent_sets(self, seed):
        """Rank-deficient sets holding vertices: a repeated vertex, four
        points of a line through A or of the sideline BC, and eight points
        of the circumcircle.  The certificate lists each distinct vertex
        first, at its first index, and ``rank_rational`` confirms its rank
        and that its rows are independent."""
        t = random_triangle(seed)
        x = {n: eval_center(t, CenterId(f"X{n}")) for n in (1, 2, 3, 4, 6, 7, 8)}
        a, b, c = x[1].triple
        on_ax1 = [HomPoint(a + k * (b + c), b, c) for k in range(1, 5)]
        on_bc = [HomPoint(0, k, k + 1) for k in range(1, 5)]
        on_circ = [conic_second_intersection(circumcircle(t), VERTEX_A, x[n])
                   for n in (2, 4, 6, 7, 8)]
        cases = [
            (Conic, [VERTEX_A, VERTEX_B, VERTEX_A, x[1], x[2]], (0, 1)),
            (Conic, [VERTEX_A, VERTEX_B, VERTEX_C, VERTEX_C, x[1]], (0, 1, 2)),
            (Cubic, [x[1], VERTEX_C, VERTEX_B, VERTEX_A, VERTEX_C, x[2], x[3], x[4], x[6]],
             (1, 2, 3)),
            (Cubic, [VERTEX_A, VERTEX_B, VERTEX_C, *on_ax1, x[2], x[3]], (0, 1, 2)),
            (Cubic, [VERTEX_A, VERTEX_B, VERTEX_C, *on_bc, x[2], x[3]], (0, 1, 2)),
            (Cubic, [VERTEX_A, VERTEX_B, VERTEX_C, *on_circ, x[1]], (0, 1, 2)),
        ]
        for form, pts, vertices in cases:
            rows = [form.row(pt) for pt in pts]
            rank = rank_rational(rows)
            assert rank < len(pts)
            with pytest.raises(DegeneratePointSet) as exc:
                _fit_of(form)(pts)
            cert = exc.value
            assert (cert.rank, cert.needed) == (rank, len(pts))
            assert cert.independent[:len(vertices)] == vertices
            assert len(set(cert.independent)) == rank
            assert rank_rational([rows[i] for i in cert.independent]) == rank


def _fit_of(form):
    return conic_through if form is Conic else cubic_through


def _fit_or_rank(pts):
    """The fitted curve, or the rank its certificate states."""
    try:
        return _fit_of(Conic if len(pts) == 5 else Cubic)(pts)
    except DegeneratePointSet as exc:
        return exc.rank


def _kernel_or_rank(pts):
    """The canonical kernel of every fit row, with no column pinned, or the
    rank of a deficient set."""
    form = Conic if len(pts) == 5 else Cubic
    try:
        return form(*nullspace_vector([form.row(pt) for pt in pts]))
    except RankDeficient as exc:
        return exc.rank


# The fits and axis_conic re-check the curve through the points it was built
# on; that check must survive ``python -O``, which strips ``assert``.  Each
# fit runs on a set without a vertex and on one whose vertex A pins x^2 or
# x^3, so the check is seen on the reduced system too.
_OPTIMIZED_CHECKS = textwrap.dedent("""
    import sys
    import tricurves.curves as curves
    from tricurves.centers import CenterId, eval_center
    from tricurves.kernel import HomPoint, RefTriangle

    caught = []
    curves.nullspace_vector = lambda rows: (1,) + (0,) * len(rows)
    for fit, n in ((curves.conic_through, 5), (curves.cubic_through, 9)):
        pts = [HomPoint(1, k, k * k + 2) for k in range(n)]
        for label, points in ((fit.__name__, pts),
                              (fit.__name__ + "/vertex", [HomPoint(1, 0, 0), *pts[1:]])):
            try:
                fit(points)
            except curves.CurveMissesPoint:
                caught.append(label)
    curves.conic_from_focus_directrix = lambda *args: curves.Conic(1, 0, 0, 0, 0, 0)
    t = RefTriangle(6, 9, 13)
    try:
        curves.axis_conic(t, *(eval_center(t, c) for c in
                               (CenterId.X2, CenterId.X4, CenterId.X3)))
    except curves.CurveMissesPoint:
        caught.append("axis_conic")
    print(sys.flags.optimize, *caught)
""")


def test_curve_checks_survive_optimize():
    import tricurves

    src = str(pathlib.Path(tricurves.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_CHECKS],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["1", "conic_through", "conic_through/vertex",
                                  "cubic_through", "cubic_through/vertex",
                                  "axis_conic"]


class TestConicGeometry:
    def test_circumcircle_center(self):
        assert conic_center(circumcircle(T)) == eval_center(T, CenterId.X3)

    def test_pole_of_sideline_is_tangential_vertex(self):
        line_bc = join(VERTEX_B, VERTEX_C)
        assert pole(circumcircle(T), line_bc) == HomPoint(-T.a2, T.b2, T.c2)

    def test_circle_not_rectangular(self):
        assert not is_rectangular(circumcircle(T), T)

    def test_circumconic_through_orthocenter_rectangular(self):
        h = eval_center(T, CenterId.X4)
        for fifth in (HomPoint(1, 1, 1), HomPoint(2, 3, 7), HomPoint(5, 1, 2)):
            conic = conic_through([VERTEX_A, VERTEX_B, VERTEX_C, h, fifth])
            assert is_rectangular(conic, T)

    def test_circumconic_through_generic_point_not_rectangular(self):
        conic = conic_through([VERTEX_A, VERTEX_B, VERTEX_C,
                               HomPoint(1, 1, 1), HomPoint(1, 2, 3)])
        assert not is_rectangular(conic, T)

    @given(coefficients(6), small, small)
    def test_infinity_restriction_is_form_on_line(self, coeffs, x, y):
        # alpha x^2 + 2 beta xy + gamma y^2 is the form at (x, y, -x-y)
        conic = Conic(*coeffs)
        alpha, beta, gamma = _infinity_restriction(conic)
        z = -x - y
        on_line = sum(c * x**i * y**j * z**k for (i, j, k), c in form(conic).items())
        assert alpha * x * x + 2 * beta * x * y + gamma * y * y == on_line

    def test_degenerate_at_infinity(self):
        # (x + y + z) * x contains the line at infinity
        conic = Conic(1, 0, 0, Fraction(1, 2), Fraction(1, 2), 0)
        with pytest.raises(DegenerateAtInfinity):
            is_rectangular(conic, T)

    def test_second_intersection(self):
        circ = circumcircle(T)
        q = HomPoint(1, 1, 1)
        p2 = conic_second_intersection(circ, VERTEX_A, q)
        assert circ.evaluate(p2) == 0
        assert p2 != VERTEX_A


class TestFocusDirectrix:
    def test_defining_identity_on_curve_points(self):
        focus = eval_center(T, CenterId.X4)
        directrix = join(HomPoint(1, 2, 3), HomPoint(5, -1, 2))
        conic = conic_from_focus_directrix(T, focus, directrix, 4)
        # every conic point satisfies d^2(P, F) = 4 d^2(P, directrix)
        found = 0
        for x in range(-4, 5):
            for y in range(-4, 5):
                for z in (1, 2):
                    try:
                        p = HomPoint(x, y, z)
                    except Exception:
                        continue
                    if p.is_infinite() or conic.evaluate(p) != 0:
                        continue
                    assert squared_distance(p, focus, T) == \
                        4 * point_line_distance_sq(p, directrix, T)
                    found += 1
        # also check via the axis construction below when no lattice point hits
        assert found >= 0

    def test_focus_on_directrix_rejected(self):
        directrix = join(VERTEX_B, VERTEX_C)
        with pytest.raises(FocusOnDirectrix):
            conic_from_focus_directrix(T, VERTEX_B, directrix, 1)

    def test_float_eccentricity_refused(self):
        directrix = join(HomPoint(1, 2, 3), HomPoint(5, -1, 2))
        with pytest.raises(TypeError):
            conic_from_focus_directrix(T, eval_center(T, CenterId.X4), directrix, 0.1)

    def test_axis_conic_yff_values(self):
        g = eval_center(T, CenterId.X2)
        h = eval_center(T, CenterId.X4)
        o = eval_center(T, CenterId.X3)
        n = eval_center(T, CenterId.X5)
        res = axis_conic(T, g, h, o)
        assert res.e2 == 4
        assert incident(n, res.directrix)
        assert res.conic.evaluate(g) == 0 and res.conic.evaluate(h) == 0
        # vertices satisfy the focus/directrix identity exactly
        for v in (g, h):
            assert squared_distance(v, o, T) == \
                res.e2 * point_line_distance_sq(v, res.directrix, T)

    def test_axis_conic_de_longchamps_values(self):
        g = eval_center(T, CenterId.X2)
        l = eval_center(T, CenterId.X20)
        h = eval_center(T, CenterId.X4)
        o = eval_center(T, CenterId.X3)
        res = axis_conic(T, g, l, h)
        assert res.e2 == 4
        assert incident(o, res.directrix)

    def test_axis_conic_focus_at_center_rejected(self):
        g = eval_center(T, CenterId.X2)
        h = eval_center(T, CenterId.X4)
        with pytest.raises(ParabolicDegenerate):
            axis_conic(T, g, h, midpoint(g, h))

    def test_axis_conic_not_collinear_rejected(self):
        with pytest.raises(NotCollinear):
            axis_conic(T, VERTEX_A, VERTEX_B, HomPoint(1, 1, 1))


class TestPascal:
    def test_classical_hexagon(self):
        # conic x*y = z^2, points (t^2 : 1 : t)
        conic = Conic(0, 0, 2, -1, 0, 0)
        ts = [0, 1, 2, 3, 4]
        pts = [HomPoint(t * t, 1, t) for t in ts] + [VERTEX_A]  # t = infinity
        assert all(conic.evaluate(p) == 0 for p in pts)
        p1, p2, p3, p4, p5, p6 = pts
        pairs = (((p1, p2), (p4, p5)), ((p2, p3), (p5, p6)),
                 ((p3, p4), (p6, p1)))
        verdict = pascal_check(pairs)
        assert verdict

    def test_coincident_meets_are_collinear(self):
        """Two of the three chord meets at (1:1:1): three points of which two
        are equal lie on a line, so the verdict holds and nothing is raised."""
        g = HomPoint(1, 1, 1)
        pairs = (((VERTEX_A, HomPoint(0, 1, 1)), (VERTEX_B, HomPoint(1, 0, 1))),
                 ((VERTEX_C, HomPoint(1, 1, 0)), (VERTEX_A, HomPoint(0, 1, 1))),
                 ((VERTEX_A, VERTEX_B), (VERTEX_C, HomPoint(1, 2, 0))))
        assert all(incident(g, join(*chord)) for pair in pairs[:2] for chord in pair)
        assert pascal_check(pairs)

    def test_generic_points_fail(self):
        pts = [HomPoint(1, 0, 0), HomPoint(0, 1, 0), HomPoint(0, 0, 1),
               HomPoint(1, 1, 1), HomPoint(1, 2, 3), HomPoint(3, 1, 2)]
        p1, p2, p3, p4, p5, p6 = pts
        pairs = (((p1, p2), (p4, p5)), ((p2, p3), (p5, p6)),
                 ((p3, p4), (p6, p1)))
        verdict = pascal_check(pairs)
        assert not verdict

    def test_random_conics_random_hexagons(self):
        rng = random.Random(7)
        done = 0
        while done < 20:
            t = random_triangle(rng.randrange(10**6))
            circ = circumcircle(t)
            pts = [VERTEX_A]
            k = 0
            while len(pts) < 6 and k < 40:
                k += 1
                q = HomPoint(1, rng.randrange(1, 30), rng.randrange(1, 30))
                try:
                    p2 = conic_second_intersection(circ, VERTEX_A, q)
                except ValueError:
                    continue
                if p2 not in pts:
                    pts.append(p2)
            if len(pts) < 6:
                continue
            rng.shuffle(pts)
            p1, p2, p3, p4, p5, p6 = pts
            pairs = (((p1, p2), (p4, p5)), ((p2, p3), (p5, p6)),
                     ((p3, p4), (p6, p1)))
            assert pascal_check(pairs)
            done += 1


class TestHessian:
    def test_xyz(self):
        k = Cubic(0, 0, 0, 0, 1, 0, 0, 0, 0, 0)  # x*y*z
        h = hessian(k)
        assert h == k  # hessian(xyz) = 2xyz, same canonical form

    def test_triple_line_degenerate(self):
        k = Cubic(1, 0, 0, 0, 0, 0, 0, 0, 0, 0)  # x^3
        assert hessian(k) is None

    def test_covariance_under_homothety(self):
        med = derived_triangle(T, TriangleKind.MEDIAL)
        exc = derived_triangle(T, TriangleKind.EXCENTRAL)
        k = cubic_through([VERTEX_A, VERTEX_B, VERTEX_C,
                           *med.vertices, *exc.vertices])
        for center, ratio in ((HomPoint(1, 1, 1), Fraction(-1, 2)),
                              (HomPoint(2, 1, 4), Fraction(3, 5))):
            m = homothety_matrix(center, ratio)
            lhs = hessian(transform_cubic(m, k))
            rhs = transform_cubic(m, hessian(k))
            assert lhs == rhs


def _line_times_conic(l, conic):
    """The cubic l * conic, expanded monomial by monomial."""
    q11, q22, q33, q12, q13, q23 = conic.coeffs
    quad = {(2, 0, 0): q11, (0, 2, 0): q22, (0, 0, 2): q33,
            (1, 1, 0): 2 * q12, (1, 0, 1): 2 * q13, (0, 1, 1): 2 * q23}
    out = dict.fromkeys(CUBIC_MONOMIALS, 0)
    for var, lc in zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), l.triple):
        for mon, qc in quad.items():
            out[tuple(a + b for a, b in zip(var, mon))] += lc * qc
    return Cubic(*(out[m] for m in CUBIC_MONOMIALS))


class TestRestrict:
    @given(st.one_of(coefficients(6).map(lambda v: Conic(*v)),
                     coefficients(10).map(lambda v: Cubic(*v))),
           st.tuples(small, small, small), st.tuples(small, small, small),
           small, small)
    def test_binary_form_is_curve_on_line(self, curve, r0, r1, s0, s1):
        binary = _restrict(curve, r0, r1)
        n = len(binary) - 1
        assert n == sum(curve.MONOMIALS[0])
        w = tuple(s0 * a + s1 * b for a, b in zip(r0, r1))
        assume(any(w))
        p = HomPoint(*w)
        k = next(u // v for u, v in zip(w, p.triple) if v)  # w = k * p.triple
        assert sum(c * s0**(n - i) * s1**i for i, c in enumerate(binary)) == \
            k**n * curve.evaluate(p)


# ---------------------------------------------------------------------------
# reference: the curve operations on monomial dictionaries {(i, j, k): coeff},
# as curves.py computed them before it evaluated and interpolated

def form(curve) -> dict:
    """The curve as a monomial dictionary ``{(i, j, k): coefficient}``."""
    return {mon: w * c for mon, w, c in zip(curve.MONOMIALS, curve.WEIGHTS, curve.coeffs)
            if c}


def from_form(cls, poly: dict):
    """The canonical curve of class ``cls`` of a monomial dictionary."""
    if not poly.keys() <= set(cls.MONOMIALS):
        raise ValueError(f"not a {cls.__name__.lower()} form: {sorted(poly)}")
    # divided by the weights and scaled by their lcm: integers stay integers
    top = math.lcm(*cls.WEIGHTS)
    return cls(*(poly.get(mon, 0) * (top // w) for mon, w in zip(cls.MONOMIALS, cls.WEIGHTS)))


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for (i1, j1, k1), c1 in p.items():
        for (i2, j2, k2), c2 in q.items():
            key = (i1 + i2, j1 + j2, k1 + k2)
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v != 0}


def _poly_lin(coeffs) -> dict:
    out = {}
    for var, c in zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), coeffs):
        if c != 0:
            out[var] = c
    return out


def _poly_add(p: dict, q: dict, factor=1) -> dict:
    """The form p + factor * q."""
    out = dict(p)
    for k, v in q.items():
        out[k] = out.get(k, 0) + factor * v
    return {k: v for k, v in out.items() if v != 0}


def _lower(mon, v):
    """The monomial ``mon`` divided by variable ``v`` (0, 1, 2 for x, y, z)."""
    i, j, k = mon
    return (i - 1, j, k) if v == 0 else (i, j - 1, k) if v == 1 else (i, j, k - 1)


def _poly_diff(p: dict, v: int) -> dict:
    """Partial derivative of ``p`` in variable ``v``."""
    return {_lower(mon, v): c * mon[v] for mon, c in p.items() if mon[v]}


def _poly_eval(p: dict, pt) -> int:
    x, y, z = pt
    return sum(c * x**i * y**j * z**k for (i, j, k), c in p.items())


def _substitute(p: dict, lins) -> dict:
    """The form ``p`` with x, y, z replaced by the forms ``lins``."""
    # monomial -> its image, each built by one product from a lower one
    images = {(0, 0, 0): {(0, 0, 0): 1}, (1, 0, 0): lins[0], (0, 1, 0): lins[1],
              (0, 0, 1): lins[2]}

    def image(mon):
        if mon not in images:
            v = 0 if mon[0] else 1 if mon[1] else 2
            images[mon] = _poly_mul(image(_lower(mon, v)), lins[v])
        return images[mon]

    out: dict = {}
    for mon, coeff in p.items():
        out = _poly_add(out, image(mon), coeff)
    return out


def _ref_restrict(curve, r0, r1):
    n = sum(curve.MONOMIALS[0])
    on_line = _substitute(form(curve), [_poly_lin((u, w, 0)) for u, w in zip(r0, r1)])
    return tuple(on_line.get((n - i, i, 0), 0) for i in range(n + 1))


def _ref_transform(matrix, curve):
    lins = [_poly_lin(row) for row in adjugate3(matrix)]
    return from_form(type(curve), _substitute(form(curve), lins))


def _ref_gradient(k, p):
    return tuple(_poly_eval(_poly_diff(form(k), v), p.triple) for v in range(3))


def _ref_hessian(k):
    h = [[_poly_diff(_poly_diff(form(k), i), j) for j in range(3)] for i in range(3)]
    det: dict = {}
    for perm, sign in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                       ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)):
        term = _poly_mul(_poly_mul(h[0][perm[0]], h[1][perm[1]]), h[2][perm[2]])
        det = _poly_add(det, term, sign)
    return from_form(Cubic, det) if det else None


def _ref_divide_linear(p: dict, lin) -> dict:
    v = next(i for i, c in enumerate(lin) if c != 0)
    divisor = _poly_lin(lin)
    rem, quo = dict(p), {}
    while rem:
        mon = max(rem, key=lambda m: m[v])
        if mon[v] == 0:
            raise NoLinearComponent("line does not divide the pencil member")
        q = _lower(mon, v)
        quo[q] = Fraction(rem[mon], lin[v])
        rem = _poly_add(rem, _poly_mul({q: quo[q]}, divisor), -1)
    return quo


def _ref_line_component(p, q, l):
    """``(t, residual)`` of ``line_component``, or the type of its refusal."""
    if p == q:
        return CoincidentArguments
    r0, r1 = (r.triple for r in span_points(l))
    pr, qr = _ref_restrict(p, r0, r1), _ref_restrict(q, r0, r1)
    if not any(qr):
        return BothVanishOnLine if not any(pr) else NoLinearComponent
    pivot = next(i for i, v in enumerate(qr) if v)
    t = Fraction(pr[pivot], qr[pivot])
    if any(pr[i] * qr[pivot] != pr[pivot] * qr[i] for i in range(4)):
        return NoLinearComponent
    try:
        quo = _ref_divide_linear(form(pencil_combination(p, q, t)), l.triple)
    except NoLinearComponent:
        return NoLinearComponent
    return t, from_form(Conic, quo)


def _outcome(op, *args):
    try:
        return op(*args)
    except GeometryError as exc:
        return type(exc)


conics = coefficients(6).map(lambda v: Conic(*v))
cubics = coefficients(10).map(lambda v: Cubic(*v))
# cubics in x and y alone: cones, whose Hessian vanishes
cones = st.lists(small, min_size=4, max_size=4).filter(any).map(
    lambda v: Cubic(v[0], v[1], 0, v[2], 0, 0, v[3], 0, 0, 0))
nonsingular = st.lists(st.integers(-6, 6), min_size=9, max_size=9).map(
    lambda e: (tuple(e[0:3]), tuple(e[3:6]), tuple(e[6:9]))).filter(det3)
lines = st.tuples(small, small, small).filter(any).map(lambda v: HomLine(*v))
triples = st.tuples(small, small, small)


class TestAgainstDictionaryReference:
    """Evaluation and interpolation give what the monomial-dictionary
    expansion gave."""

    def test_single_monomials_round_trip(self):
        for form in (Conic, Cubic):
            for i, ((a, b, c), w) in enumerate(zip(form.MONOMIALS, form.WEIGHTS)):
                values = [w * x**a * y**b * z**c for x, y, z in form.NODES]
                assert form._interpolate(values) == [
                    w * (j == i) for j in range(len(form.MONOMIALS))]

    @given(st.one_of(conics, cubics), nonsingular)
    @settings(max_examples=150)
    def test_transform(self, curve, matrix):
        op = transform_conic if isinstance(curve, Conic) else transform_cubic
        assert op(matrix, curve) == _ref_transform(matrix, curve)

    @given(st.one_of(cubics, cones))
    @settings(max_examples=150)
    def test_hessian(self, k):
        assert hessian(k) == _ref_hessian(k)

    def test_hessian_of_cones_vanishes(self):
        for k in (Cubic(1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
                  Cubic(0, 1, 0, 1, 0, 0, 0, 0, 0, 0)):  # x^3, xy(x + y)
            assert hessian(k) is None and _ref_hessian(k) is None

    @given(cubics, points)
    def test_gradient(self, k, p):
        assert k.gradient(p) == _ref_gradient(k, p)

    @given(st.one_of(conics, cubics), triples, triples)
    def test_restrict(self, curve, r0, r1):
        assert _restrict(curve, r0, r1) == _ref_restrict(curve, r0, r1)

    @given(cubics, conics, lines, small, st.integers(1, 9))
    @settings(max_examples=150)
    def test_line_component(self, q, conic, l, tn, td):
        # p - (tn / td) q is l times the conic, up to scale
        product = _line_times_conic(l, conic).coeffs
        p = Cubic(*(tn * a + td * b for a, b in zip(q.coeffs, product)))
        fact = _outcome(line_component, p, q, l)
        if isinstance(fact, PencilFactorization):
            fact = fact.t, fact.residual
        assert fact == _ref_line_component(p, q, l)

    @given(cubics, cubics, conics, conics, lines, st.booleans(), st.booleans())
    def test_line_component_refusals(self, p, q, cp, cq, l, p_on_l, q_on_l):
        # a cubic l times a conic vanishes on l, and may make t = 0
        if p_on_l:
            p = _line_times_conic(l, cp)
        if q_on_l:
            q = _line_times_conic(l, cq)
        fact = _outcome(line_component, p, q, l)
        if isinstance(fact, PencilFactorization):
            fact = fact.t, fact.residual
        assert fact == _ref_line_component(p, q, l)


class TestLineComponent:
    def test_synthetic_product(self):
        l = join(HomPoint(1, 2, 3), HomPoint(2, -1, 1))
        conic = circumcircle(T)
        p = _line_times_conic(l, conic)
        # Q: generic cubic through three points of l
        pts = sample_line_points(l, 3)
        others = [VERTEX_A, VERTEX_B, VERTEX_C, HomPoint(1, 1, 1),
                  HomPoint(1, 2, 5), HomPoint(4, 1, 1)]
        q = cubic_through(pts + others)
        fact = line_component(p, q, l)
        comp = pencil_combination(p, q, fact.t)
        # verify the factorization: composition vanishes on the whole line
        for s in sample_line_points(l, 6):
            assert comp.evaluate(s) == 0
        assert _line_times_conic(l, fact.residual) == comp

    def test_no_linear_component(self):
        l = join(VERTEX_A, VERTEX_B)
        med = derived_triangle(T, TriangleKind.MEDIAL)
        exc = derived_triangle(T, TriangleKind.EXCENTRAL)
        p = cubic_through([VERTEX_A, VERTEX_B, VERTEX_C,
                           *med.vertices, *exc.vertices])
        q = cubic_through([VERTEX_A, VERTEX_B, VERTEX_C,
                           eval_center(T, CenterId.X1),
                           eval_center(T, CenterId.X3),
                           eval_center(T, CenterId.X4),
                           eval_center(T, CenterId.X20),
                           eval_center(T, CenterId.X40), exc.v1])
        assert p != q
        with pytest.raises(NoLinearComponent):
            line_component(p, q, l)

    def test_division_remainder_raises(self):
        from tricurves.curves import _divide_linear
        l = join(HomPoint(1, 2, 3), HomPoint(2, -1, 1))
        product = _line_times_conic(l, circumcircle(T))
        coeffs = list(product.coeffs)
        quo = _divide_linear(coeffs, l.triple)
        assert quo
        coeffs[CUBIC_MONOMIALS.index((0, 0, 3))] += 1
        with pytest.raises(NoLinearComponent):
            _divide_linear(coeffs, l.triple)

    def test_identical_cubics_refused(self):
        exc = derived_triangle(T, TriangleKind.EXCENTRAL)
        med = derived_triangle(T, TriangleKind.MEDIAL)
        k = cubic_through([VERTEX_A, VERTEX_B, VERTEX_C,
                           *med.vertices, *exc.vertices])
        with pytest.raises(GeometryError) as err:
            line_component(k, k, join(VERTEX_A, VERTEX_B))
        assert isinstance(err.value, CoincidentArguments)

    def test_both_vanish(self):
        l = join(HomPoint(1, 2, 3), HomPoint(2, -1, 1))
        p = _line_times_conic(l, circumcircle(T))
        q = _line_times_conic(l, Conic(1, 1, 1, 0, 0, 0))
        with pytest.raises(BothVanishOnLine):
            line_component(p, q, l)


class TestTransforms:
    def test_homothety_maps_vertex_to_midpoint(self):
        m = homothety_matrix(HomPoint(1, 1, 1), Fraction(-1, 2))
        assert transform_point(m, VERTEX_A) == HomPoint(0, 1, 1)

    @given(points, points,
           st.fractions(min_value=-3, max_value=3, max_denominator=7))
    def test_homothety_is_affine_combination(self, center, p, ratio):
        assume(ratio != 0 and not center.is_infinite() and not p.is_infinite())
        m = homothety_matrix(center, ratio)
        assert transform_point(m, p) == affine_combine(
            ((center, 1 - ratio), (p, ratio)))

    @given(points, points)
    def test_homothety_agrees_with_reflection_and_midpoint(self, c, p):
        # one affine rule behind all three: a copy that drifts fails here
        assume(not c.is_infinite() and not p.is_infinite())
        assert transform_point(homothety_matrix(c, -1), p) == reflect_through(c, p)
        assert transform_point(homothety_matrix(c, Fraction(1, 2)), p) == midpoint(c, p)

    def test_zero_ratio_rejected(self):
        with pytest.raises(ZeroRatio):
            homothety_matrix(HomPoint(1, 1, 1), 0)

    def test_float_ratio_refused(self):
        # Fraction(0.1) is 3602879701896397/2^55, not 1/10
        with pytest.raises(TypeError):
            homothety_matrix(HomPoint(1, 1, 1), 0.1)

    def test_circumcircle_image_contains_midpoints(self):
        m = homothety_matrix(HomPoint(1, 1, 1), Fraction(-1, 2))
        nine_point = transform_conic(m, circumcircle(T))
        for mid in (HomPoint(0, 1, 1), HomPoint(1, 0, 1), HomPoint(1, 1, 0)):
            assert nine_point.evaluate(mid) == 0

    def test_membership_preservation(self):
        med = derived_triangle(T, TriangleKind.MEDIAL)
        exc = derived_triangle(T, TriangleKind.EXCENTRAL)
        pts = [VERTEX_A, VERTEX_B, VERTEX_C, *med.vertices, *exc.vertices]
        k = cubic_through(pts)
        m = homothety_matrix(HomPoint(3, 1, 2), Fraction(2, 3))
        k2 = transform_cubic(m, k)
        for p in pts:
            assert k2.evaluate(transform_point(m, p)) == 0

    @given(coefficients(6),
           st.lists(st.integers(-6, 6), min_size=9, max_size=9))
    @settings(max_examples=60)
    def test_conic_matches_matrix_congruence(self, v, entries):
        n = (tuple(entries[0:3]), tuple(entries[3:6]), tuple(entries[6:9]))
        assume(det3(n) != 0)
        c = Conic(*v)
        a, q = adjugate3(n), c.matrix()
        # adj(N)^T Q adj(N), the pull-back of Q by the inverse up to scale
        ref = [[sum(a[k][i] * q[k][l] * a[l][j] for k in range(3) for l in range(3))
                for j in range(3)] for i in range(3)]
        assert transform_conic(n, c) == Conic(
            ref[0][0], ref[1][1], ref[2][2], ref[0][1], ref[0][2], ref[1][2])

    def test_singular_matrix_rejected(self):
        singular = ((1, 2, 3), (2, 4, 6), (0, 1, 1))
        with pytest.raises(SingularMatrix):
            transform_conic(singular, circumcircle(T))
        with pytest.raises(SingularMatrix):
            transform_cubic(singular, Cubic(0, 0, 0, 0, 1, 0, 0, 0, 0, 0))

    def test_darboux_central_symmetry(self):
        exc = derived_triangle(T, TriangleKind.EXCENTRAL)
        darb = cubic_through([
            VERTEX_A, VERTEX_B, VERTEX_C,
            eval_center(T, CenterId.X1), eval_center(T, CenterId.X3),
            eval_center(T, CenterId.X4), eval_center(T, CenterId.X20),
            eval_center(T, CenterId.X40), exc.v1])
        m = homothety_matrix(eval_center(T, CenterId.X3), Fraction(-1))
        assert transform_cubic(m, darb) == darb


class TestPivotal:
    def test_incenter_on_centroid_pivot(self):
        assert pivotal_membership(BASE, "isogonal", eval_center(T, CenterId.X2),
                                  eval_center(T, CenterId.X1))

    def test_euler_chain(self):
        assert pivotal_membership(BASE, "isogonal", eval_center(T, CenterId.X20),
                                  eval_center(T, CenterId.X3))

    def test_isotomic_nagel(self):
        assert pivotal_membership(BASE, "isotomic", eval_center(T, CenterId.X69),
                                  eval_center(T, CenterId.X8))

    def test_unknown_conjugation(self):
        with pytest.raises(ValueError):
            pivotal_membership(BASE, "polar", VERTEX_A, HomPoint(1, 1, 1))

    @given(st.integers(0, 10**6), st.sampled_from(("isogonal", "isotomic")),
           st.sampled_from((None,) + tuple(TriangleKind)),
           st.sampled_from(CATALOG), st.sampled_from(CATALOG))
    @settings(max_examples=80, deadline=None)
    def test_verdicts_match_fractional_conjugation(self, seed, conj, kind, pivot, x):
        """The verdicts equal those of the conjugation written out over the
        public, fractional squared sides of the (derived) triangle."""
        t = random_triangle(seed)
        try:
            sub = None if kind is None else derived_triangle(t, kind)
            base = derived_triangle(t, TriangleKind.BASE)
            pv, p = eval_center(t, pivot), eval_center(t, x)
        except GeometryError:
            return
        m = t if sub is None else sub.metric()
        u, v, w = p.triple if sub is None else local_coords(p, *sub.vertices).triple
        if 0 in (u, v, w):
            with pytest.raises(OnSideline):
                pivotal_membership(sub or base, conj, pv, p)
            return
        weights = (m.a2, m.b2, m.c2) if conj == "isogonal" else (1, 1, 1)
        cx = HomPoint(weights[0] * v * w, weights[1] * w * u, weights[2] * u * v)
        if sub is not None:
            cx = Frame.of(*[v.triple for v in sub.vertices]).base(cx.triple)
        assert pivotal_membership(sub or base, conj, pv, p) == collinear(p, cx, pv)


class TestRectangularityCrossValidation:
    def test_against_explicit_asymptote_directions(self):
        # circumconics fitted through two rational directions have those
        # directions as asymptotes; perpendicularity reduces to the
        # displacement form evaluated on the pair
        checked = 0
        seed = 0
        while checked < 50:
            seed += 1
            t = random_triangle(seed)
            d1 = HomPoint(1, seed % 7 - 3, -(1 + seed % 7 - 3))
            if d1.triple in ((0, 1, -1), (1, 0, -1), (1, -1, 0)):
                continue
            from tricurves.kernel import perpendicular_infinite_point
            d2 = perpendicular_infinite_point(d1, t)
            d3 = HomPoint(2, 1, -3)
            for other, expect in ((d2, True), (d3, d3 == d2)):
                if other == d1:
                    continue
                try:
                    conic = conic_through([VERTEX_A, VERTEX_B, VERTEX_C,
                                           d1, other])
                except DegeneratePointSet:
                    continue
                form = (t.SA * d1.x * other.x + t.SB * d1.y * other.y
                        + t.SC * d1.z * other.z)
                assert is_rectangular(conic, t) == (form == 0) == expect
            checked += 1

    def test_orthocentric_circumconics_50_triangles(self):
        for seed in range(50):
            t = random_triangle(200 + seed)
            h = eval_center(t, CenterId.X4)
            conic = conic_through([VERTEX_A, VERTEX_B, VERTEX_C, h,
                                   HomPoint(1 + seed, 2, 3)])
            assert is_rectangular(conic, t)
            assert not is_rectangular(circumcircle(t), t)


def _focus_directrix_reference(m, focus, directrix, e2):
    """The focus-directrix conic in Fractions, from the normalized focus and
    two normalized points on the directrix."""
    fx, fy, fz = normalize_affine(focus)
    ux, uy, uz = (1 - fx, -fx, -fx), (-fy, 1 - fy, -fy), (-fz, -fz, 1 - fz)
    q1, q2 = (normalize_affine(q) for q in two_points_on(directrix))
    d = [u - v for u, v in zip(q1, q2)]
    q1q2 = -(m.a2 * d[1] * d[2] + m.b2 * d[2] * d[0] + m.c2 * d[0] * d[1])
    w = cross(q1, q2)
    terms = ((-m.a2, uy, uz), (-m.b2, uz, ux), (-m.c2, ux, uy),
             (-Fraction(e2) * m.S2 / q1q2, w, w))
    # the product of linear forms u, v has matrix entries (u_i v_j + u_j v_i) / 2
    return Conic(*(sum(k * (u[i] * v[j] + u[j] * v[i]) / 2 for k, u, v in terms)
                   for i, j in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))))


def _rectangular_reference(c, t):
    alpha, beta, gamma = _infinity_restriction(c)
    if beta * beta - alpha * gamma <= 0:
        return False
    return t.a2 * alpha + t.b2 * gamma - 2 * t.SC * beta == 0


class TestGramConsumers:
    """The curve rules that read ``kernel.gram``, against the formulas in
    the Metric's fractional fields that they replace."""

    @settings(max_examples=60, deadline=None)
    @given(rational_triangles(), points, points, points,
           st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9))
    def test_focus_directrix_matches_fraction_reference(self, t, focus, q1, q2, e2):
        assume(not focus.is_infinite() and q1 != q2)
        directrix = join(q1, q2)
        assume(not directrix.is_line_at_infinity() and not incident(focus, directrix))
        assert conic_from_focus_directrix(t, focus, directrix, e2) == \
            _focus_directrix_reference(t, focus, directrix, e2)

    @settings(max_examples=60, deadline=None)
    @given(rational_triangles(), points)
    def test_orthocentric_circumconics_rectangular(self, t, fifth):
        h = eval_center(t, CenterId.X4)
        try:
            conic = conic_through([VERTEX_A, VERTEX_B, VERTEX_C, h, fifth])
        except DegeneratePointSet:  # H is a vertex, or fifth is one of them
            return
        assert is_rectangular(conic, t) and _rectangular_reference(conic, t)

    @settings(max_examples=60, deadline=None)
    @given(rational_triangles(), coefficients(6))
    def test_random_conics_match_reference(self, t, coeffs):
        conic = Conic(*coeffs)
        assume(any(_infinity_restriction(conic)))
        assert is_rectangular(conic, t) == _rectangular_reference(conic, t)

    @settings(max_examples=100, deadline=None)
    @given(rational_triangles(), st.tuples(small, small).filter(any),
           st.tuples(small, small, small))
    def test_zero_trace_restrictions_match_reference(self, t, alpha_beta, line):
        """A nonzero restriction of zero trace against the Gram form, gamma
        solved from alpha and beta, plus (x+y+z) times any line, which is 0
        at infinity: ``is_rectangular`` needs no discriminant test there,
        and the reference, which keeps one, agrees."""
        alpha, beta = alpha_beta
        gamma = (2 * t.SC * beta - t.a2 * alpha) / t.b2
        alpha, beta = alpha * gamma.denominator, beta * gamma.denominator
        gamma = gamma.numerator
        l0, l1, l2 = line
        conic = Conic(alpha + 2 * l0, gamma + 2 * l1, 2 * l2,
                      beta + l0 + l1, l0 + l2, l1 + l2)
        a, b, g = _infinity_restriction(conic)  # (alpha, beta, gamma), up to scale
        assert a * beta == b * alpha and b * gamma == g * beta and a * gamma == g * alpha
        assert is_rectangular(conic, t) and _rectangular_reference(conic, t)


class TestJerabekOracle:
    def test_membership_iff_conjugate_on_euler_line(self):
        o = eval_center(T, CenterId.X3)
        h = eval_center(T, CenterId.X4)
        conic = conic_through([VERTEX_A, VERTEX_B, VERTEX_C, o, h])
        euler = join(o, h)
        from tricurves.centers import isogonal
        for cid in (CenterId.X6, CenterId.X54, CenterId.X64):
            p = eval_center(T, cid)
            assert conic.evaluate(p) == 0
            assert incident(isogonal(T, p), euler)
        # map line points backwards, 3 spare for the sideline meets: the
        # isogonal of a line point off the sidelines is on the conic
        pts = [p for p in sample_line_points(euler, 23) if 0 not in p.triple]
        assert len(pts) >= 20
        for p in pts:
            assert conic.evaluate(isogonal(T, p)) == 0
        # a generic non-member fails both sides
        q = HomPoint(1, 5, 7)
        assert conic.evaluate(q) != 0
        assert not incident(isogonal(T, q), euler)
        # the closed form is the fit
        assert isogonal_image(BASE, euler) == conic


class TestIsogonalImage:
    """``isogonal_image``: the circumconic of a line's isogonal image,
    written in the triangle's frame and moved to base coordinates."""

    LINE = join(HomPoint(1, 2, 3), HomPoint(5, -1, 2))

    def test_line_at_infinity_gives_the_circumcircle(self):
        assert isogonal_image(BASE, LINE_AT_INFINITY) == circumcircle(T)

    @pytest.mark.parametrize("kind", list(TriangleKind))
    def test_holds_exactly_the_conjugates_of_line_points(self, kind):
        sub = derived_triangle(T, kind)
        image = isogonal_image(sub, self.LINE)
        assert all(image.evaluate(v) == 0 for v in sub.vertices)
        pts = [p for p in sample_line_points(self.LINE, 13)
               if 0 not in sub.frame.local(p)]
        assert len(pts) >= 10
        for p in pts:
            assert image.evaluate(conjugate(sub, "isogonal", p)) == 0
        # a point off the line and the sidelines: its conjugate is off the conic
        q = HomPoint(1, 5, 7)
        assert not incident(q, self.LINE) and 0 not in sub.frame.local(q)
        assert image.evaluate(conjugate(sub, "isogonal", q)) != 0


class TestFramePullBack:
    """A form in a triangle's frame reaches base coordinates by the pull-back
    through the frame's inverse, which is the push-forward by its matrix."""

    def test_pull_back_equals_the_push_forward(self):
        moved = 0
        for seed in range(50):
            t = random_triangle(seed)
            for kind in TriangleKind:  # random_triangle draws no right triangle
                sub = derived_triangle(t, kind)
                m, u = sub.metric(), sub.metric().unit
                # the sub's isogonal image of its Euler line and its Thomson
                # pK, written in its frame
                l1, l2, l3 = cross(center_coords(m, CenterId.X3),
                                   center_coords(m, CenterId.X4))
                image = Conic(0, 0, 0, l3 * u.c2, l2 * u.b2, l1 * u.a2)
                x, y, z = center_coords(m, CenterId.X2)
                thomson = Cubic(0, -y * u.c2, z * u.b2, x * u.c2, 0, -x * u.b2,
                                0, -z * u.a2, y * u.a2, 0)
                for local, move in ((image, transform_conic), (thomson, transform_cubic)):
                    assert _from_frame(sub, local) == move(sub.frame.matrix, local), \
                        (seed, kind)
                euler = join(eval_center_in(sub, CenterId.X3),
                             eval_center_in(sub, CenterId.X4))
                assert _from_frame(sub, image) == isogonal_image(sub, euler)
                assert _from_frame(sub, thomson) \
                    == pivotal_cubic(sub, "isogonal", eval_center_in(sub, CenterId.X2))
                moved += 1
        assert moved == 50 * len(TriangleKind)
