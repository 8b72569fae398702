import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from tricurves import kernel
from tricurves.curves import Conic, Cubic
from tricurves.kernel import (
    CoincidentArguments,
    DegenerateFrame,
    Frame,
    HomLine,
    HomPoint,
    InvalidTriangle,
    LINE_AT_INFINITY,
    LineAtInfinity,
    Metric,
    NotADirection,
    PointAtInfinity,
    RefTriangle,
    VERTEX_A,
    VERTEX_B,
    VERTEX_C,
    ZeroVector,
    affine_point,
    bisector_line,
    bit_high_water,
    canonical_ints,
    collinear,
    dot,
    equidistant_point,
    foot_of_perpendicular,
    gram,
    incident,
    infinite_point,
    join,
    local_coords,
    mat_vec,
    meet,
    midpoint,
    perpendicular_infinite_point,
    perpendicular_line_through,
    reflect_through,
    reset_bit_high_water,
    squared_distance,
)

from reference import (
    WeightSumNotOne,
    affine_combine,
    frame_base,
    frame_local,
    normalize_affine,
    point_line_distance_sq,
    sample_line_points,
    two_points_on,
)
from strategies import rational_triangles

T = RefTriangle(6, 9, 13)

nonzero_triples = st.tuples(
    st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30)
).filter(lambda t: any(t))


def rational_point(draw_ints):
    return HomPoint(*draw_ints)


class TestCanonical:
    def test_gcd_and_sign_rule(self):
        assert HomPoint(2, -4, 6).triple == (1, -2, 3)

    def test_clears_denominators(self):
        assert HomPoint(Fraction(1, 2), Fraction(1, 3), 0).triple == (3, 2, 0)

    def test_single_axis(self):
        assert HomPoint(0, 0, 5).triple == (0, 0, 1)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            HomPoint(0, 0, 0)

    def test_floats_rejected(self):
        """One check, the exact core's, refuses a float everywhere."""
        for build in (lambda: HomPoint(0.5, 1, 1), lambda: Conic(1, 1, 1, 0.5, 0, 0),
                      lambda: Metric(9, 16.0, 25), lambda: RefTriangle(3, 4, 5.0)):
            with pytest.raises(TypeError) as exc:
                build()
            assert str(exc.value) == "exact core accepts int/Fraction only, got float"

    @given(nonzero_triples)
    def test_idempotent(self, t):
        p = HomPoint(*t)
        assert HomPoint(*p.triple) == p

    @given(nonzero_triples, st.integers(1, 7))
    def test_scale_invariant(self, t, k):
        assert HomPoint(*t) == HomPoint(*(k * v for v in t))
        assert HomPoint(*t) == HomPoint(*(-k * v for v in t))

    @given(st.lists(st.integers(-10**30, 10**30), min_size=1, max_size=10).filter(any))
    def test_int_fast_path_matches_fractions(self, values):
        ints = canonical_ints(values)
        assert ints == canonical_ints([Fraction(v) for v in values])
        assert all(type(v) is int for v in ints)

    def test_bools_take_the_checked_path(self):
        ints = canonical_ints((True, False, 2))
        assert ints == (1, 0, 2) and all(type(v) is int for v in ints)

    @pytest.mark.parametrize("values", [(1, 2.0, 3), (2.0, 4.0), (0.5, 1, 1)])
    def test_float_among_ints_rejected(self, values):
        with pytest.raises(TypeError) as exc:
            canonical_ints(values)
        assert str(exc.value) == "exact core accepts int/Fraction only, got float"

    @pytest.mark.parametrize("values", [(0, 0, 0), (0,), (Fraction(0), 0)])
    def test_all_zero_rejected(self, values):
        with pytest.raises(ZeroVector):
            canonical_ints(values)


def _spy_clear_denominators(monkeypatch):
    """Record each tuple ``canonical_ints`` sends to ``_clear_denominators``."""
    seen = []
    real = kernel._clear_denominators

    def spy(values):
        seen.append(tuple(values))
        return real(values)

    monkeypatch.setattr(kernel, "_clear_denominators", spy)
    return seen


huge_ints = st.integers(-10**40, 10**40)


class TestCanonicalTriplePath:
    """An all-``int`` triple takes its own path; it must agree with the
    general one, ``Fraction`` input included, and record the same bit
    high-water mark."""

    @staticmethod
    def check(t):
        reset_bit_high_water()
        ints = canonical_ints(t)
        assert ints == canonical_ints(tuple(Fraction(v) for v in t))
        assert all(type(v) is int for v in ints)
        reset_bit_high_water()
        assert canonical_ints(t) == ints
        assert bit_high_water() == max(abs(v).bit_length() for v in ints)
        return ints

    @given(st.tuples(huge_ints, huge_ints, huge_ints).filter(any))
    def test_matches_fractions_and_high_water(self, t):
        self.check(t)

    @given(st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
           .filter(any), st.integers(2, 10**25))
    def test_common_factor_divided_out(self, t, k):
        assert self.check(tuple(k * v for v in t)) == self.check(t)

    @pytest.mark.parametrize("t, expected", [
        ((-4, 6, 0), (2, -3, 0)),             # negative first entry, gcd 2
        ((0, -5, 10), (0, 1, -2)),            # first nonzero entry negative
        ((0, 0, -7), (0, 0, 1)),
        ((6, 0, 0), (1, 0, 0)),
        ((3, 5, 7), (3, 5, 7)),               # already canonical
        ((-(2**200), 3 * 2**200, 0), (1, -3, 0)),
        ((2**300 + 1, -1, 0), (2**300 + 1, -1, 0)),
    ])
    def test_fixed_cases(self, t, expected):
        assert self.check(t) == expected

    def test_int_triple_skips_denominators(self, monkeypatch):
        seen = _spy_clear_denominators(monkeypatch)
        assert canonical_ints((4, -6, 8)) == (2, -3, 4)
        assert HomLine(0, 3, -9).coeffs == (0, 1, -3)
        assert seen == []

    @pytest.mark.parametrize("t, expected", [
        ((True, False, 2), (1, 0, 2)),
        ((Fraction(1, 2), 1, 0), (1, 2, 0)),
        ((Fraction(-2), Fraction(4), Fraction(6)), (1, -2, -3)),
    ])
    def test_other_triples_keep_checked_path(self, monkeypatch, t, expected):
        seen = _spy_clear_denominators(monkeypatch)
        assert canonical_ints(t) == expected
        assert seen == [t]


class TestVectorSlot:
    """``triple`` and ``coeffs`` read the ``_v`` slot itself, and no
    assignment or deletion reaches it."""

    def test_assignment_raises(self):
        for vec in (HomPoint(2, -4, 6), HomLine(1, -1, 0), Cubic(*range(1, 11))):
            before = vec._v
            for name in ("triple", "coeffs", "_v"):
                with pytest.raises(AttributeError):
                    setattr(vec, name, (1, 1, 1))
                with pytest.raises(AttributeError, match="is immutable"):
                    delattr(vec, name)
            assert vec._v is before
            assert not hasattr(vec, "__dict__")
            with pytest.raises(TypeError):
                vars(vec)
        assert HomPoint(2, -4, 6).triple == (1, -2, 3)

    def test_triple_and_coeffs_are_the_slot(self):
        assert HomPoint.triple is HomLine.coeffs is Conic.coeffs is Cubic.coeffs \
            is kernel._CanonicalVector._v


class TestIncidence:
    def test_join_side_ab(self):
        assert join(VERTEX_A, VERTEX_B) == HomLine(0, 0, 1)

    def test_meet_duality(self):
        assert meet(HomLine(0, 0, 1), HomLine(0, 1, 0)) == VERTEX_A

    def test_join_coincident(self):
        with pytest.raises(CoincidentArguments):
            join(VERTEX_A, HomPoint(2, 0, 0))

    def test_euler_line_collinear(self):
        # centroid, circumcenter, orthocenter
        o = HomPoint(Fraction(1926), Fraction(2511), Fraction(-2197))
        h = HomPoint(806, 1391, -3317)
        assert collinear(HomPoint(1, 1, 1), o, h)

    @given(nonzero_triples, nonzero_triples, nonzero_triples)
    @settings(max_examples=50)
    def test_meet_join_duality(self, a, b, c):
        p, q, r = HomPoint(*a), HomPoint(*b), HomPoint(*c)
        if p == q or p == r or collinear(p, q, r):
            return
        assert meet(join(p, q), join(p, r)) == p

    def test_two_points_on_line(self):
        l = join(HomPoint(1, 2, 3), HomPoint(2, -1, 1))
        p, q = two_points_on(l)
        assert p != q
        assert incident(p, l) and incident(q, l)
        assert not p.is_infinite() and not q.is_infinite()

    def test_two_points_on_infinity_rejected(self):
        with pytest.raises(LineAtInfinity):
            two_points_on(LINE_AT_INFINITY)

    def test_sample_line_points_distinct(self):
        l = join(VERTEX_A, HomPoint(1, 1, 1))
        pts = sample_line_points(l, 10)
        assert len(set(pts)) == 10
        assert all(incident(p, l) and not p.is_infinite() for p in pts)


class TestAffine:
    def test_normalize_centroid(self):
        assert normalize_affine(HomPoint(1, 1, 1)) == (
            Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))

    def test_normalize_vertex(self):
        assert normalize_affine(HomPoint(2, 0, 0)) == (1, 0, 0)

    def test_normalize_direction_rejected(self):
        with pytest.raises(PointAtInfinity):
            normalize_affine(HomPoint(1, -1, 0))

    def test_midpoint_of_vertices(self):
        assert midpoint(VERTEX_A, VERTEX_B) == HomPoint(1, 1, 0)

    def test_midpoint_identity(self):
        p = HomPoint(3, 5, -1)
        assert midpoint(p, p) == p

    def test_weights_must_sum_to_one(self):
        with pytest.raises(WeightSumNotOne):
            affine_combine(((VERTEX_A, 1), (VERTEX_B, 1)))

    def test_reflection(self):
        c = HomPoint(1, 1, 1)
        p = VERTEX_A
        q = reflect_through(c, p)
        assert midpoint(p, q) == HomPoint(*normalize_affine(c))

    @given(nonzero_triples, nonzero_triples)
    @settings(max_examples=200)
    def test_integer_weights_match_affine_combine(self, a, b):
        p, q = HomPoint(*a), HomPoint(*b)
        if p.is_infinite() or q.is_infinite():
            return
        half = Fraction(1, 2)
        assert midpoint(p, q) == affine_combine(((p, half), (q, half)))
        assert reflect_through(p, q) == affine_combine(((p, 2), (q, -1)))

    def test_negative_coordinate_sums(self):
        p, q = HomPoint(1, -4, 2), HomPoint(1, 2, 4)
        assert sum(p.triple) < 0 < sum(q.triple)
        half = Fraction(1, 2)
        assert midpoint(p, q) == affine_combine(((p, half), (q, half)))
        assert reflect_through(p, q) == affine_combine(((p, 2), (q, -1)))
        assert reflect_through(q, p) == affine_combine(((q, 2), (p, -1)))

    @given(nonzero_triples, nonzero_triples, st.integers(-9, 9), st.integers(1, 9))
    def test_affine_point_matches_affine_combine(self, a, b, n, d):
        assume(sum(a) != 0 and sum(b) != 0)
        r = Fraction(n, d)
        assert HomPoint(*affine_point(a, b, n, d)) == affine_combine(
            ((HomPoint(*a), 1 - r), (HomPoint(*b), r)))

    @pytest.mark.parametrize("op", [midpoint, reflect_through])
    def test_direction_rejected(self, op):
        d = HomPoint(1, -1, 0)
        for args in ((d, VERTEX_A), (VERTEX_A, d)):
            with pytest.raises(PointAtInfinity):
                op(*args)


class TestTriangleValidation:
    def test_triangle_inequality(self):
        with pytest.raises(InvalidTriangle):
            RefTriangle(1, 2, 5)

    def test_degenerate(self):
        with pytest.raises(InvalidTriangle):
            RefTriangle(2, 3, 5)

    def test_positive_sides(self):
        with pytest.raises(InvalidTriangle):
            RefTriangle(-1, 2, 2)

    def test_conway_symbols(self):
        assert (T.SA, T.SB, T.SC) == (107, 62, -26)
        assert T.S2 == 2240

    def test_conway_identity_vs_heron(self):
        for sides in ((6, 9, 13), (3, 4, 5), (5, 7, 11)):
            t = RefTriangle(*sides)
            a2, b2, c2 = t.a2, t.b2, t.c2
            heron = (2 * (a2 * b2 + b2 * c2 + c2 * a2)
                     - (a2 * a2 + b2 * b2 + c2 * c2)) / 4
            assert t.S2 == heron

    def test_right_triangle_is_valid_reftriangle(self):
        t = RefTriangle(3, 4, 5)
        assert t.is_right()
        assert t.S2 > 0


side_triples = st.tuples(
    st.integers(1, 40), st.integers(1, 40), st.integers(1, 40)
).filter(lambda s: 2 * max(s) < sum(s))


class TestMetricValue:
    def test_assignment_raises(self):
        t = RefTriangle(6, 9, 13)
        metrics = (t, Metric(36, 81, 169))
        for m in metrics + tuple(m.rot() for m in metrics):
            for name in Metric.__slots__ + ("extra",):
                with pytest.raises(AttributeError):
                    setattr(m, name, 1)
                with pytest.raises(AttributeError, match="is immutable"):
                    delattr(m, name)
            assert not hasattr(m, "__dict__")
        assert t.a2 == 36 and t.sides == (6, 9, 13)

    @given(side_triples, st.booleans())
    @settings(max_examples=60)
    def test_rot_matches_revalidated(self, sides, with_sides):
        a, b, c = sides
        m = RefTriangle(a, b, c) if with_sides else Metric(a * a, b * b, c * c)
        r = m.rot()
        again = RefTriangle(b, c, a) if with_sides else Metric(b * b, c * c, a * a)
        for name in Metric.__slots__:
            assert getattr(r, name) == getattr(again, name)
        rrr = r.rot().rot()
        for name in Metric.__slots__:
            assert getattr(rrr, name) == getattr(m, name)

    def test_rot_of_reftriangle(self):
        r = T.rot()
        assert type(r) is Metric
        assert (r.a2, r.b2, r.c2) == (81, 169, 36)
        assert (r.SA, r.SB, r.SC, r.S2) == (T.SB, T.SC, T.SA, T.S2)
        assert r.sides == (9, 13, 6)
        assert (r.a, r.b, r.c) == (9, 13, 6)

    def test_side_properties_on_any_metric_with_sides(self):
        m = RefTriangle(3, 4, 5)
        assert (m.a, m.b, m.c) == (3, 4, 5)
        assert (m.rot().a, m.rot().b, m.rot().c) == (4, 5, 3)
        with pytest.raises(TypeError):   # only where has_sides
            Metric(9, 16, 25).a

    def test_rot_skips_validation(self, monkeypatch):
        m = RefTriangle(6, 9, 13)

        def refuse(self, *args, **kwargs):
            raise AssertionError("rot() must not revalidate")

        monkeypatch.setattr(Metric, "__init__", refuse)
        assert m.rot().rot().rot().sides == m.sides


rational_sides = st.tuples(
    *(st.fractions(min_value=1, max_value=40, max_denominator=9),) * 3
).filter(lambda s: 2 * max(s) < sum(s))
rational_squares = st.tuples(
    *(st.fractions(min_value=1, max_value=200, max_denominator=12),) * 3)


class TestIntegralView:
    def _check(self, m):
        u = m.unit
        q = u.q
        assert (u.a2, u.b2, u.c2) == (m.a2 * q, m.b2 * q, m.c2 * q)
        assert (u.SA, u.SB, u.SC) == (m.SA * q, m.SB * q, m.SC * q)
        assert u.S2 == m.S2 * q * q
        if m.has_sides:
            k = math.isqrt(q)
            assert k * k == q
            assert u.sides == tuple(s * k for s in m.sides)
        else:
            assert u.sides is None
        assert all(type(v) is int for v in u[:7] + (q,) + (u.sides or ()))
        assert m.rot().unit == m.unit.rot()
        assert m.rot().rot().rot().unit == m.unit

    @given(st.one_of(side_triples, rational_sides), st.booleans())
    @settings(max_examples=100)
    def test_scaled_fields_from_sides(self, sides, with_sides):
        a, b, c = sides
        self._check(RefTriangle(a, b, c) if with_sides else Metric(a * a, b * b, c * c))

    @given(rational_squares)
    @settings(max_examples=100)
    def test_scaled_fields_from_squares(self, squares):
        try:
            m = Metric(*squares)
        except InvalidTriangle:
            return
        self._check(m)

    def test_scaled_is_the_fieldwise_definition(self):
        """``scaled(n, d)``: squared sides and SA, SB, SC times n^2, S2 times
        n^4, the sides times n, q times d^2 and k times d, on seeded views
        with sides and without."""
        rng = random.Random(45)
        checked = 0
        while checked < 40:
            a, b, c = (Fraction(rng.randint(1, 60), rng.randint(1, 6)) for _ in range(3))
            if 2 * max(a, b, c) >= a + b + c:
                continue
            for m in (RefTriangle(a, b, c), Metric(a * a, b * b, c * c)):
                u, n, d = m.unit, rng.randint(1, 9), rng.randint(1, 9)
                want = {"a2": n ** 2 * u.a2, "b2": n ** 2 * u.b2, "c2": n ** 2 * u.c2,
                        "SA": n ** 2 * u.SA, "SB": n ** 2 * u.SB, "SC": n ** 2 * u.SC,
                        "S2": n ** 4 * u.S2,
                        "sides": None if u.sides is None else tuple(n * s for s in u.sides),
                        "q": d ** 2 * u.q, "k": None if u.k is None else d * u.k}
                got = u.scaled(n, d)
                assert type(got) is kernel.IntegralView
                assert got._asdict() == want, (m, n, d)
                checked += 1

    def test_reftriangle(self):
        t = RefTriangle(Fraction(3, 2), 2, Fraction(5, 2))
        assert t.unit.sides == (6, 8, 10) and t.unit.q == 16
        assert repr(t) == "RefTriangle(3/2, 2, 5/2)"
        self._check(t)


class TestMetricOps:
    def test_side_lengths(self):
        assert squared_distance(VERTEX_A, VERTEX_B, T) == 169
        assert squared_distance(VERTEX_B, VERTEX_C, T) == 36
        assert squared_distance(VERTEX_C, VERTEX_A, T) == 81

    def test_zero_on_equal_points(self):
        p = HomPoint(2, 3, 5)
        assert squared_distance(p, p, T) == 0

    def test_median_length(self):
        # m_a^2 = (2b^2 + 2c^2 - a^2) / 4 = 116 for (6, 9, 13)
        m = midpoint(VERTEX_B, VERTEX_C)
        assert squared_distance(VERTEX_A, m, T) == 116

    def test_infinite_point_rejected(self):
        with pytest.raises(PointAtInfinity):
            squared_distance(HomPoint(1, -1, 0), VERTEX_A, T)

    def test_altitude_foot_distance(self):
        # h_a^2 = S2 / a^2 = 2240/36 = 560/9
        bc = join(VERTEX_B, VERTEX_C)
        assert point_line_distance_sq(VERTEX_A, bc, T) == Fraction(560, 9)

    def test_distance_zero_on_line(self):
        l = join(VERTEX_B, VERTEX_C)
        assert point_line_distance_sq(VERTEX_B, l, T) == 0

    def test_distance_independent_of_samples(self):
        l = join(HomPoint(1, 2, 3), HomPoint(5, -1, 2))
        p = HomPoint(7, 1, 1)
        expected = point_line_distance_sq(p, l, T)
        pts = sample_line_points(l, 4)
        from tricurves.kernel import det3
        for q1, q2 in ((pts[0], pts[1]), (pts[1], pts[2]), (pts[0], pts[3])):
            d = det3((p.triple, q1.triple, q2.triple))
            s = ((p.x + p.y + p.z) * sum(q1.triple) * sum(q2.triple))
            val = Fraction(d * d, s * s) * T.S2 / squared_distance(q1, q2, T)
            assert val == expected


class TestPerpendicularity:
    def test_infinite_point_of_side(self):
        assert infinite_point(join(VERTEX_B, VERTEX_C)) == HomPoint(0, 1, -1)

    def test_perpendicular_direction_example(self):
        d = perpendicular_infinite_point(HomPoint(0, 1, -1), T)
        assert d == HomPoint(18, 13, -31)

    def test_not_a_direction(self):
        with pytest.raises(NotADirection):
            perpendicular_infinite_point(VERTEX_A, T)

    def test_altitude_contains_foot(self):
        bc = join(VERTEX_B, VERTEX_C)
        alt = perpendicular_line_through(bc, VERTEX_A, T)
        foot = HomPoint(0, T.SC, T.SB)
        assert incident(foot, alt)
        assert foot_of_perpendicular(VERTEX_A, bc, T) == foot

    @given(st.tuples(st.integers(-20, 20), st.integers(-20, 20)))
    @settings(max_examples=40)
    def test_involution(self, xy):
        x, y = xy
        if x == 0 and y == 0:
            return
        d = HomPoint(x, y, -x - y)
        dd = perpendicular_infinite_point(
            perpendicular_infinite_point(d, T), T)
        assert dd == d

    def test_perpendicularity_symmetric(self):
        d1 = HomPoint(0, 1, -1)
        d2 = perpendicular_infinite_point(d1, T)
        form = (T.SA * d1.x * d2.x + T.SB * d1.y * d2.y + T.SC * d1.z * d2.z)
        assert form == 0

    def test_bisector_is_perpendicular_through_midpoint(self):
        p, q = HomPoint(1, 2, 3), HomPoint(4, 1, 1)
        bl = bisector_line(p, q, T)
        assert incident(midpoint(p, q), bl)
        d_axis = infinite_point(join(p, q))
        d_bl = infinite_point(bl)
        assert perpendicular_infinite_point(d_axis, T) == d_bl

    def test_equidistant_point(self):
        p1, p2, p3 = VERTEX_A, VERTEX_B, HomPoint(1, 1, 1)
        c = equidistant_point(p1, p2, p3, T)
        d = squared_distance(c, p1, T)
        assert squared_distance(c, p2, T) == d
        assert squared_distance(c, p3, T) == d

    def test_equidistant_collinear_rejected(self):
        with pytest.raises(DegenerateFrame):
            equidistant_point(VERTEX_A, VERTEX_B, HomPoint(1, 1, 0), T)


finite_points = st.tuples(st.integers(-9, 9), st.integers(-9, 9),
                          st.integers(-9, 9)).filter(sum).map(lambda v: HomPoint(*v))
directions = st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(any).map(
    lambda v: HomPoint(v[0], v[1], -v[0] - v[1]))


def _diagonal_form(t, d, e):
    """SA dx ex + SB dy ey + SC dz ez: the dot product of two displacements."""
    return t.SA * d[0] * e[0] + t.SB * d[1] * e[1] + t.SC * d[2] * e[2]


class TestGramForm:
    """The rules that read ``gram``, against references that do not."""

    @settings(max_examples=60, deadline=None)
    @given(rational_triangles(), directions, directions)
    def test_gram_is_q_times_dot_product(self, t, d, e):
        assert dot(d.triple, gram(e.triple, t)) == t.unit.q * _diagonal_form(
            t, d.triple, e.triple)

    @settings(max_examples=60, deadline=None)
    @given(rational_triangles(), directions)
    def test_perpendicular_direction_against_diagonal_form(self, t, d):
        e = perpendicular_infinite_point(d, t)
        assert e.is_infinite()
        assert _diagonal_form(t, d.triple, e.triple) == 0

    @settings(max_examples=60, deadline=None)
    @given(rational_triangles(), finite_points, finite_points)
    def test_bisector_points_equidistant(self, t, p, q):
        if p == q:
            return
        bl = bisector_line(p, q, t)
        assert incident(midpoint(p, q), bl)
        for x in sample_line_points(bl, 3):
            assert squared_distance(x, p, t) == squared_distance(x, q, t)


FRAMES = (
    (HomPoint(-6, 9, 13), HomPoint(6, -9, 13), HomPoint(6, 9, -13)),
    (HomPoint(0, 1, 1), HomPoint(1, 0, 1), HomPoint(1, 1, 0)),
    (HomPoint(2, 5, 1), HomPoint(7, 1, 3), HomPoint(1, 1, 4)),
)


class TestLocalFrames:
    FRAME = FRAMES[0]

    def test_frame_vertex(self):
        assert local_coords(self.FRAME[0], *self.FRAME) == VERTEX_A

    def test_centroid_maps_to_centroid(self):
        cen = affine_combine([(v, Fraction(1, 3)) for v in self.FRAME])
        assert local_coords(cen, *self.FRAME) == HomPoint(1, 1, 1)

    @given(nonzero_triples, st.sampled_from(FRAMES))
    @settings(max_examples=120)
    def test_round_trip(self, t, frame):
        p = HomPoint(*t)
        lc = local_coords(p, *frame)
        rows = [v.triple for v in frame]
        assert Frame.of(*rows).base(lc.triple) == p
        rt = local_coords(Frame.of(*rows).base(p.triple), *frame)
        assert rt == p

    def test_degenerate_frame_rejected(self):
        with pytest.raises(DegenerateFrame):
            local_coords(VERTEX_A, VERTEX_A, VERTEX_B, HomPoint(1, 1, 0))

    def test_infinite_frame_vertex_rejected(self):
        with pytest.raises(DegenerateFrame):
            local_coords(VERTEX_A, HomPoint(1, -1, 0), VERTEX_B, VERTEX_C)

    def test_directions_stay_directions(self):
        d = HomPoint(2, -5, 3)
        assert d.is_infinite()
        assert local_coords(d, *self.FRAME).is_infinite()

    @given(nonzero_triples, st.sampled_from(FRAMES))
    @settings(max_examples=120)
    def test_frame_maps_equal_one_shot_formulas(self, t, vertices):
        p, frame = HomPoint(*t), Frame.of(*[v.triple for v in vertices])
        assert (HomPoint(*frame.local(p)) == frame_local(p, *vertices)
                == local_coords(p, *vertices))
        assert frame.base(p.triple) == frame_base(p, *vertices)

    @pytest.mark.parametrize("vertices", [
        (VERTEX_A, VERTEX_B, HomPoint(1, 1, 0)),  # collinear
        (HomPoint(1, -1, 0), VERTEX_B, VERTEX_C),  # at infinity
    ])
    def test_degenerate_frame_rejected_once(self, vertices):
        for check in (lambda: Frame.of(*[v.triple for v in vertices]),
                      lambda: local_coords(VERTEX_A, *vertices)):
            with pytest.raises(DegenerateFrame):
                check()

    def test_degenerate_frame_messages(self):
        """Rows of any scale are canonicalized, so an infinite vertex is
        named as its point."""
        for rows, message in (
                (((1, 0, 0), (0, 1, 0), (2, 2, 0)),
                 "frame points are affinely dependent"),
                (((2, -2, 0), (0, 1, 0), (0, 0, 1)),
                 "frame vertex 1:-1:0 is at infinity"),
                (((1, 0, 0), (0, -3, 3), (0, 0, 1)),
                 "frame vertex 0:1:-1 is at infinity")):
            with pytest.raises(DegenerateFrame) as exc:
                Frame.of(*rows)
            assert str(exc.value) == message

    @given(st.lists(st.integers(-2**70, 2**70), min_size=12, max_size=12))
    def test_mat_vec_is_sum_of_products(self, ints):
        rows, v = (ints[0:3], ints[3:6], ints[6:9]), ints[9:]
        assert mat_vec(rows, v) == tuple(sum(r[j] * v[j] for j in range(3))
                                         for r in rows)
