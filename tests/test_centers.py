import hashlib
import itertools
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import tricurves.centers as centers
import tricurves.kernel as kernel
import tricurves.scenarios as scenarios
from tricurves.centers import (
    ALIASES,
    Anticomplement,
    CATALOG,
    Catalog,
    CenterExpr,
    CenterId,
    CenterOf,
    CenterParseError,
    Complement,
    ConjugateIn,
    EQUIDISTANT,
    ExhaustedRetries,
    IDENTITIES,
    MAX_NESTING,
    MidpointOf,
    ODD_CENTERS,
    ON_LINES,
    OddCenterWithoutSides,
    OnSideline,
    ReflectThrough,
    RightTriangle,
    SubTriangle,
    TriangleKind,
    VertexOf,
    anticomplement,
    center_coords,
    complement,
    conjugate,
    derived_subtriangle,
    derived_triangle,
    eval_center,
    eval_center_in,
    eval_expr,
    isogonal,
    isogonal_in,
    parse_center,
    random_triangle,
    validate_center_oracles,
)
from tricurves.kernel import (
    Frame,
    GeometryError,
    HomPoint,
    Metric,
    RefTriangle,
    VERTEX_A,
    VERTEX_B,
    VERTEX_C,
    local_coords,
    mat_vec,
    midpoint,
    reflect_through,
    squared_distance,
)

from reference import frame_base, frame_local, split_args, taylor_center
from strategies import rational_triangles

T = RefTriangle(6, 9, 13)
T_ACUTE = RefTriangle(6, 8, 9)
BASE = derived_triangle(T, TriangleKind.BASE)

nonzero_triples = st.tuples(
    st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20)
).filter(lambda t: any(t))

offside_triples = st.tuples(
    st.integers(1, 20), st.integers(1, 20), st.integers(1, 20))


class TestCatalogValues:
    def test_incenter_345(self):
        assert eval_center(RefTriangle(3, 4, 5), CenterId.X1) == HomPoint(3, 4, 5)

    def test_circumcenter_frozen(self):
        assert eval_center(T, CenterId.X3) == HomPoint(1926, 2511, -2197)

    def test_orthocenter_frozen(self):
        assert eval_center(T, CenterId.X4) == HomPoint(806, 1391, -3317)

    def test_de_longchamps_frozen(self):
        assert eval_center(T, CenterId.X20) == HomPoint(1366, 1951, -2757)

    def test_isogonal_of_centroid(self):
        assert isogonal(T, HomPoint(1, 1, 1)) == HomPoint(36, 81, 169)

    def test_isotomic_formula(self):
        assert conjugate(BASE, "isotomic", HomPoint(1, 2, 3)) == HomPoint(6, 3, 2)

    def test_all_oracles_on_sample(self):
        assert all(ok for _, ok in validate_center_oracles(T))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_all_oracles_on_random(self, seed):
        t = random_triangle(seed)
        assert all(ok for _, ok in validate_center_oracles(t))

    def test_odd_center_requires_sides(self):
        exc = derived_triangle(T, TriangleKind.EXCENTRAL)
        with pytest.raises(OddCenterWithoutSides):
            eval_center_in(exc, CenterId.X1)

    def test_even_center_without_sides_ok(self):
        exc = derived_triangle(T, TriangleKind.EXCENTRAL)
        eval_center_in(exc, CenterId.X6)  # no error


def _named_centers(expr) -> set:
    """The catalog centers an expression names, at any depth."""
    named = {expr.cid} if isinstance(expr, (Catalog, CenterOf)) else set()
    for value in expr:
        if isinstance(value, CenterExpr):
            named |= _named_centers(value)
    return named


# the centers whose oracle fails on a triangle (the rest hold)
PINNED_ORACLE_FAILURES = [
    ((Fraction(28, 5), 12, 16), {CenterId.X54}),  # X5 on a sideline
    ((3, 4, 5), {CenterId.X69, CenterId.X389}),  # right: X4 is a vertex
    ((5, 12, 13), {CenterId.X69, CenterId.X389}),
    ((Fraction(3, 2), 2, Fraction(5, 2)), {CenterId.X69, CenterId.X389}),
    ((5, 5, 5), {CenterId.X21}),  # equilateral: no Euler line
    ((5, 5, 6), set()),
    ((5, 5, 8), set()),
    ((6, 9, 13), set()),
]


class TestOracles:
    def test_every_center_in_exactly_one_table(self):
        for cid in CenterId:
            rows = [cid in table for table in (IDENTITIES, ON_LINES, EQUIDISTANT)]
            assert rows.count(True) == 1, cid

    @pytest.mark.parametrize("cid", list(IDENTITIES))
    def test_identity_names_only_other_centers(self, cid):
        assert cid not in _named_centers(IDENTITIES[cid])

    def test_named_centers_walks_nested_nodes(self):
        assert _named_centers(IDENTITIES[CenterId.X5]) == {CenterId.X3, CenterId.X4}
        deep = parse_center("reflect(X3,isogonal(excentral,midpoint(X1,center(medial,X4))))")
        assert _named_centers(deep) == {CenterId.X3, CenterId.X1, CenterId.X4}

    @pytest.mark.parametrize("cid", list(CenterId))
    def test_wrong_point_falsifies_its_oracle(self, monkeypatch, cid):
        # every other center keeps its value, so only this formula is wrong
        true_eval = centers.eval_center
        right = true_eval(T, cid)
        wrong = next(q for q in (HomPoint(1, 2, 4), HomPoint(2, 1, 4)) if q != right)
        monkeypatch.setattr(centers, "eval_center",
                            lambda t, c: wrong if c is cid else true_eval(t, c))
        assert dict(validate_center_oracles(T))[cid] is False

    @pytest.mark.parametrize("sides,failing", PINNED_ORACLE_FAILURES)
    def test_pinned_verdicts(self, sides, failing):
        verdicts = validate_center_oracles(RefTriangle(*sides))
        assert [cid for cid, _ in verdicts] == list(CATALOG)
        assert {cid for cid, ok in verdicts if not ok} == failing

    @given(rational_triangles())
    @settings(max_examples=60, deadline=None)
    def test_x25_oracle_holds_on_every_kind(self, t):
        # right triangles too, whose orthic and tangential triangles are
        # degenerate: the foot-to-tangential-vertex lines still meet at X25
        assert dict(validate_center_oracles(t))[CenterId.X25] is True


class TestConjugations:
    def test_complement_of_vertex(self):
        assert complement(VERTEX_A) == HomPoint(0, 1, 1)

    @given(nonzero_triples)
    @settings(max_examples=60)
    def test_complement_anticomplement_inverse(self, t):
        p = HomPoint(*t)
        assert anticomplement(complement(p)) == p
        assert complement(anticomplement(p)) == p

    @given(offside_triples)
    @settings(max_examples=60)
    def test_isogonal_involution(self, t):
        p = HomPoint(*t)
        assert isogonal(T, isogonal(T, p)) == p

    @given(offside_triples)
    @settings(max_examples=60)
    def test_isotomic_involution(self, t):
        p = HomPoint(*t)
        assert conjugate(BASE, "isotomic", conjugate(BASE, "isotomic", p)) == p

    def test_on_sideline_rejected(self):
        with pytest.raises(OnSideline):
            isogonal(T, HomPoint(0, 1, 1))
        with pytest.raises(OnSideline):
            conjugate(BASE, "isotomic", HomPoint(1, 0, 1))

    @pytest.mark.parametrize("kind", [None] + [
        k for k in TriangleKind if k is not TriangleKind.BASE])
    def test_conjugate_dispatch(self, kind):
        # X1 has no zero local coordinate in any derived triangle of T
        sub = None if kind is None else derived_triangle(T, kind)
        p = eval_center(T, CenterId.X1)
        if sub is None:
            x, y, z = p.triple
            want = (isogonal(T, p), HomPoint(y * z, z * x, x * y))
        else:
            local = local_coords(p, *sub.vertices)
            assert 0 not in local.triple
            x, y, z = local.triple
            frame = Frame.of(*[v.triple for v in sub.vertices])
            want = (frame.base(isogonal(sub.metric(), local).triple),
                    frame.base((y * z, z * x, x * y)))
        sub = sub or BASE
        assert (conjugate(sub, "isogonal", p), conjugate(sub, "isotomic", p)) == want
        with pytest.raises(ValueError):
            conjugate(sub, "polar", p)


class TestDerivedTriangles:
    def test_medial(self):
        med = derived_triangle(T, TriangleKind.MEDIAL)
        assert med.vertices == (HomPoint(0, 1, 1), HomPoint(1, 0, 1),
                                HomPoint(1, 1, 0))
        m = med.metric()
        assert (m.a2, m.b2, m.c2) == (Fraction(9), Fraction(81, 4), Fraction(169, 4))
        assert m.sides == (Fraction(3), Fraction(9, 2), Fraction(13, 2))

    @pytest.mark.parametrize("kind,ratio", [
        (TriangleKind.BASE, 1), (TriangleKind.MEDIAL, Fraction(1, 2)),
        (TriangleKind.EULER, Fraction(1, 2)), (TriangleKind.ANTICOMPLEMENTARY, 2)])
    def test_exact_sides_scaled_by_ratio(self, kind, ratio):
        m = derived_triangle(T, kind).metric()
        assert (m.a, m.b, m.c) == tuple(ratio * s for s in T.sides)
        # and again inside a derived triangle with exact sides
        inner = derived_subtriangle(derived_triangle(T, TriangleKind.MEDIAL), kind)
        assert inner.metric().sides == tuple(ratio * s / 2 for s in T.sides)

    @pytest.mark.parametrize("kind", [
        TriangleKind.EXCENTRAL, TriangleKind.ORTHIC, TriangleKind.MIDARC,
        TriangleKind.TANGENTIAL])
    def test_no_exact_sides_off_ratio(self, kind):
        m = derived_triangle(T, kind).metric()
        assert not m.has_sides
        # nor in a derived triangle of a triangle without them
        inner = derived_subtriangle(derived_triangle(T, kind), TriangleKind.MEDIAL)
        assert not inner.metric().has_sides

    def test_subtriangle_sq_sides_match_distances(self):
        for kind in (TriangleKind.EXCENTRAL, TriangleKind.ORTHIC,
                     TriangleKind.EULER, TriangleKind.MIDARC,
                     TriangleKind.TANGENTIAL):
            sub = derived_triangle(T, kind)
            m = sub.metric()
            assert (m.a2, m.b2, m.c2) == (
                squared_distance(sub.v2, sub.v3, T),
                squared_distance(sub.v3, sub.v1, T),
                squared_distance(sub.v1, sub.v2, T))

    def test_metric_built_once(self):
        kinds = TriangleKind
        odd = RefTriangle(Fraction(5, 3), Fraction(7, 5), Fraction(9, 7))
        for t in (T, odd):
            exc, med, anti = (derived_triangle(t, kind) for kind in (
                kinds.EXCENTRAL, kinds.MEDIAL, kinds.ANTICOMPLEMENTARY))
            subs = [derived_triangle(t, kind) for kind in TriangleKind]
            for frame, kind in ((exc, kinds.ORTHIC), (med, kinds.MIDARC),
                                (anti, kinds.ANTICOMPLEMENTARY), (anti, kinds.MEDIAL),
                                (med, kinds.EULER)):
                subs.append(derived_subtriangle(frame, kind))
            for sub in subs:
                m = sub.metric()
                assert sub.metric() is m
                ref = Metric(squared_distance(sub.v2, sub.v3, t),
                             squared_distance(sub.v3, sub.v1, t),
                             squared_distance(sub.v1, sub.v2, t))
                for name in ("a2", "b2", "c2", "SA", "SB", "SC", "S2"):
                    assert getattr(m, name) == getattr(ref, name), (sub.kind, name)
                if m.has_sides:
                    assert tuple(s * s for s in m.sides) == (m.a2, m.b2, m.c2)

    def test_subtriangle_holds_one_metric(self):
        names = set(SubTriangle.__slots__) | set(vars(SubTriangle))
        assert {"v1", "v2", "v3", "own_metric", "metric"} <= names
        assert "sq_sides" not in names and "sides" not in names
        med = derived_triangle(T, TriangleKind.MEDIAL)
        v1 = med.v1
        with pytest.raises(AttributeError):
            med.v1 = VERTEX_A
        with pytest.raises(AttributeError):
            med.sides = (1, 1, 1)
        assert med.v1 is v1 and v1 != VERTEX_A
        assert not hasattr(med, "sides") and not hasattr(med, "__dict__")
        vertices, other = med.vertices, derived_triangle(T, TriangleKind.EULER)
        for name, value in (("kind", other.kind), ("own_metric", other.own_metric),
                            ("frame", other.frame), ("_vertices", other.vertices)):
            with pytest.raises(AttributeError):
                setattr(med, name, value)
            with pytest.raises(AttributeError, match="is immutable"):
                delattr(med, name)
            assert getattr(med, name) is not value
        assert med.vertices is vertices and vertices != other.vertices
        assert repr(med) == f"SubTriangle(kind={TriangleKind.MEDIAL!r}, frame={med.frame!r})"
        with pytest.raises(AttributeError):
            med.metric().a2 = 1

    def test_orthic_rejects_right(self):
        with pytest.raises(RightTriangle):
            derived_triangle(RefTriangle(3, 4, 5), TriangleKind.ORTHIC)

    def test_tangential_rejects_right(self):
        with pytest.raises(RightTriangle):
            derived_triangle(RefTriangle(3, 4, 5), TriangleKind.TANGENTIAL)

    def test_midarc_vertex_canonical(self):
        ma = derived_triangle(T, TriangleKind.MIDARC)
        assert ma.v1 == HomPoint(-36, 198, 286)
        assert ma.v1.triple == (18, -99, -143)

    def test_midarc_vertices_on_circumcircle_and_bisectors(self):
        ma = derived_triangle(T, TriangleKind.MIDARC)
        incenter = eval_center(T, CenterId.X1)
        from tricurves.kernel import incident, join
        for v, vertex in zip(ma.vertices, (VERTEX_A, VERTEX_B, VERTEX_C)):
            x, y, z = v.triple
            assert T.a2 * y * z + T.b2 * z * x + T.c2 * x * y == 0
            assert incident(v, join(vertex, incenter))

    def test_euler_vertices_are_orthocenter_midpoints(self):
        eul = derived_triangle(T, TriangleKind.EULER)
        h = eval_center(T, CenterId.X4)
        assert eul.vertices == tuple(
            midpoint(v, h) for v in (VERTEX_A, VERTEX_B, VERTEX_C))

    def test_midarc_vertices_are_incenter_excenter_midpoints(self):
        # the homothety through X1, ratio 1/2, that the midarc view rests on
        checked = 0
        for t in [random_triangle(seed) for seed in range(100)] + [T_RATIONAL]:
            ma, exc = (derived_triangle(t, kind)
                       for kind in (TriangleKind.MIDARC, TriangleKind.EXCENTRAL))
            incenter = eval_center(t, CenterId.X1)
            for i in range(3):
                assert ma.vertices[i] == midpoint(incenter, exc.vertices[i]), (t, i)
                checked += 1
        assert checked == 303

    def test_orthic_of_excentral_is_base(self):
        exc = derived_triangle(T, TriangleKind.EXCENTRAL)
        oexc = derived_subtriangle(exc, TriangleKind.ORTHIC)
        assert set(oexc.vertices) == {VERTEX_A, VERTEX_B, VERTEX_C}


# the kinds whose side ratio to their parent is irrational, so whose view, in
# their row of centers._KINDS, is built from closed-form squared sides, in two
# homothetic pairs: orthic and tangential, excentral and midarc
OFF_RATIO = (TriangleKind.EXCENTRAL, TriangleKind.ORTHIC, TriangleKind.MIDARC,
             TriangleKind.TANGENTIAL)
T_RATIONAL = RefTriangle(Fraction(5, 3), Fraction(7, 5), Fraction(9, 7))


class TestIntegerDerivation:
    """A derived triangle's view is built in integers, without a Metric."""

    def _parents(self, t):
        yield derived_triangle, t
        for kind in (TriangleKind.MEDIAL, TriangleKind.ANTICOMPLEMENTARY):
            yield derived_subtriangle, derived_triangle(t, kind)

    @pytest.mark.parametrize("triangles", [
        [T], [T_RATIONAL], [random_triangle(seed) for seed in range(50)]],
        ids=["integer", "rational", "random"])
    @pytest.mark.parametrize("kind", OFF_RATIO, ids=lambda k: k.value)
    def test_view_equals_metric_of_squared_distances(self, triangles, kind):
        """The closed-form view is the Metric of the squared distances
        between the vertices, from the base and from parents of five kinds;
        the excentral and midarc children of a parent without sides are
        refused."""
        refused = 0
        for t in triangles:
            parents = [*self._parents(t), *(
                (derived_subtriangle, derived_triangle(t, parent_kind))
                for parent_kind in (TriangleKind.EXCENTRAL, TriangleKind.ORTHIC,
                                    TriangleKind.EULER))]
            for derive, parent in parents:
                m = parent.metric() if isinstance(parent, SubTriangle) else parent
                if kind in (TriangleKind.EXCENTRAL, TriangleKind.MIDARC) and \
                        not m.has_sides:
                    with pytest.raises(OddCenterWithoutSides, match="exact side lengths"):
                        derive(parent, kind)
                    refused += 1
                    continue
                sub = derive(parent, kind)
                ref = Metric(squared_distance(sub.v2, sub.v3, t),
                             squared_distance(sub.v3, sub.v1, t),
                             squared_distance(sub.v1, sub.v2, t))
                assert sub.metric().unit == ref.unit, (parent, kind)
        odd = kind in (TriangleKind.EXCENTRAL, TriangleKind.MIDARC)
        assert refused == (2 * len(triangles) if odd else 0)

    def test_every_kind_derives_without_metric_init(self, monkeypatch):
        parents = [pair for t in (T, T_RATIONAL) for pair in self._parents(t)]

        def refuse(self, *args):
            raise AssertionError("Metric.__init__ called")

        monkeypatch.setattr(kernel.Metric, "__init__", refuse)
        for derive, parent in parents:
            for kind in TriangleKind:
                assert derive(parent, kind).kind is kind

    def test_derived_triangle_builds_one_subtriangle(self, monkeypatch):
        built = []

        def counting(*args):
            built.append(SubTriangle(*args))
            return built[-1]

        monkeypatch.setattr(centers, "SubTriangle", counting)
        for kind in TriangleKind:
            built.clear()
            sub = derived_triangle(T, kind)
            assert len(built) == 1 and built[0] is sub, kind


CLASSICAL_IDENTITIES = [
    (TriangleKind.EXCENTRAL, CenterId.X4, CenterId.X1),
    (TriangleKind.EXCENTRAL, CenterId.X5, CenterId.X3),
    (TriangleKind.EXCENTRAL, CenterId.X3, CenterId.X40),
    (TriangleKind.EXCENTRAL, CenterId.X6, CenterId.X9),
    (TriangleKind.MIDARC, CenterId.X4, CenterId.X1),
    (TriangleKind.MIDARC, CenterId.X3, CenterId.X3),
]


class TestCommutations:
    @pytest.mark.parametrize("kind,sub_id,base_id", CLASSICAL_IDENTITIES)
    def test_classical_identity(self, kind, sub_id, base_id):
        for t in (T, T_ACUTE, random_triangle(17)):
            sub = derived_triangle(t, kind)
            assert eval_center_in(sub, sub_id) == eval_center(t, base_id)

    @pytest.mark.parametrize("cid", [c for c in CATALOG
                                     if not c.value.startswith("Vertex")])
    def test_medial_commutation(self, cid):
        med = derived_triangle(T, TriangleKind.MEDIAL)
        assert eval_center_in(med, cid) == complement(eval_center(T, cid))

    @pytest.mark.parametrize("cid", [c for c in CATALOG
                                     if not c.value.startswith("Vertex")])
    def test_euler_commutation(self, cid):
        eul = derived_triangle(T, TriangleKind.EULER)
        h = eval_center(T, CenterId.X4)
        assert eval_center_in(eul, cid) == midpoint(h, eval_center(T, cid))

    def test_antipode_is_circumcenter_reflection(self):
        med = derived_triangle(T, TriangleKind.MEDIAL)
        n5 = eval_center_in(med, CenterId.X3)
        got = eval_expr(T, parse_center("antipode(medial,0)"))
        assert got == reflect_through(n5, med.v1)

    def test_antipode_parses_as_reflection(self):
        for kind in TriangleKind:
            for i in range(3):
                assert (parse_center(f"antipode({kind.value},{i})") == parse_center(
                    f"reflect(center({kind.value},X3),vertex({kind.value},{i}))"))


class TestExpressions:
    def test_midpoint_expr(self):
        e = MidpointOf(Catalog(CenterId.X1), Catalog(CenterId.X4))
        assert eval_expr(T, e) == midpoint(eval_center(T, CenterId.X1),
                                           eval_center(T, CenterId.X4))

    def test_reflection_gives_de_longchamps(self):
        e = ReflectThrough(Catalog(CenterId.X3), Catalog(CenterId.X4))
        assert eval_expr(T, e) == eval_center(T, CenterId.X20)

    def test_isogonal_of_bevan_is_x84(self):
        e = ConjugateIn("isogonal", TriangleKind.BASE, Catalog(CenterId.X40))
        assert eval_expr(T, e) == eval_center(T, CenterId.X84)

    def test_complement_of_third_brocard_is_brocard_midpoint(self):
        e = Complement(Catalog(CenterId.X76))
        assert eval_expr(T, e) == eval_center(T, CenterId.X39)

    def test_anticomplement_roundtrip(self):
        e = Anticomplement(Complement(Catalog(CenterId.X9)))
        assert eval_expr(T, e) == eval_center(T, CenterId.X9)

    def test_vertex_of(self):
        assert eval_expr(T, VertexOf(TriangleKind.EXCENTRAL, 0)) == \
            HomPoint(-6, 9, 13)

    def test_center_of_medial(self):
        e = CenterOf(TriangleKind.MEDIAL, CenterId.X1)
        assert eval_expr(T, e) == eval_center(T, CenterId.X10)

    def test_isogonal_in_subtriangle_involution(self):
        exc = derived_triangle(T, TriangleKind.EXCENTRAL)
        p = eval_center(T, CenterId.X9)
        assert isogonal_in(T, exc, isogonal_in(T, exc, p)) == p

    def test_nodes_equal_only_within_one_type(self):
        """Nodes are tuples, but equal and hash-equal only to nodes of their
        own type: no two node types of one shape, and no plain tuple, match."""
        e = Catalog(CenterId.X2)
        nodes = [e, MidpointOf(e, e), ReflectThrough(e, e), Complement(e),
                 Anticomplement(e), ConjugateIn("isogonal", TriangleKind.BASE, e),
                 CenterOf(TriangleKind.MEDIAL, CenterId.X2),
                 VertexOf(TriangleKind.MEDIAL, 1)]
        for node in nodes:
            twin = type(node)(*node)
            assert node == twin and not node != twin and hash(node) == hash(twin)
            plain = tuple(node)
            assert node != plain and plain != node
            assert not node == plain and not plain == node
            assert plain not in {node} and node not in {plain}
        for one, other in [(Complement(e), Anticomplement(e)),
                           (MidpointOf(e, e), ReflectThrough(e, e))]:
            assert tuple(one) == tuple(other)
            assert one != other and not one == other
            assert hash(one) != hash(other)
            assert {one: 1}.get(other) is None
        assert len(set(nodes)) == len(nodes)


# the malformed texts of the parser and CLI tests
MALFORMED = (
    ["Nope", "Zed", "midpoint(I)", "vertex(base,7)", "vertex(base,x)",
     "vertex(base,-1)", "antipode(base,3)",
     "complement(" * (MAX_NESTING + 1) + "O" + ")" * (MAX_NESTING + 1),
     "complement(" * 1500 + "O" + ")" * 1500]
    + [f"{fn}(orthic,{index})" for fn in ("vertex", "antipode")
       for index in ("3", "-1", "x", "1.0", "")])


class TestAliasesAndParsing:
    @pytest.mark.parametrize("name", sorted(ALIASES))
    def test_alias_evaluates(self, name):
        eval_expr(T, ALIASES[name])

    def test_alias_values(self):
        assert eval_expr(T, ALIASES["I"]) == eval_center(T, CenterId.X1)
        assert eval_expr(T, ALIASES["Be"]) == eval_center(T, CenterId.X40)
        assert eval_expr(T, ALIASES["BeP"]) == eval_center(T, CenterId.X84)
        assert eval_expr(T, ALIASES["SyA"]) == anticomplement(
            eval_center(T, CenterId.X6))

    def test_parse_tag(self):
        assert parse_center("X40") == Catalog(CenterId.X40)

    def test_parse_alias(self):
        assert parse_center("M_IH") == ALIASES["M_IH"]

    def test_parse_expression(self):
        e = parse_center("midpoint(Mi, I)")
        assert eval_expr(T, e) == midpoint(eval_center(T, CenterId.X9),
                                           eval_center(T, CenterId.X1))

    def test_parse_nested(self):
        e = parse_center("isogonal(excentral, complement(X76))")
        assert eval_expr(T, e) == isogonal_in(
            T, derived_triangle(T, TriangleKind.EXCENTRAL),
            eval_center(T, CenterId.X39))

    def test_parse_nesting_limit(self):
        at_limit = "complement(" * MAX_NESTING + "O" + ")" * MAX_NESTING
        e = parse_center(at_limit)
        p = eval_center(T, CenterId.X3)
        for _ in range(MAX_NESTING):
            p = complement(p)
        assert eval_expr(T, e) == p
        deeper = "complement(" + at_limit + ")"
        with pytest.raises(CenterParseError, match="nests deeper"):
            parse_center(deeper)
        with pytest.raises(CenterParseError):
            parse_center("complement(" * 1500 + "O" + ")" * 1500)

    def test_parse_balanced_tree_beyond_paren_count(self):
        """A balanced tree of midpoints holds more than ``MAX_NESTING`` "("
        but nests only 7 deep, so it parses."""
        names = ["X2", "X3", "X4", "X6", "X5", "X20"]
        leaves = [names[i % len(names)] for i in range(2 ** 7)]
        texts, points = leaves, [eval_center(T, CenterId(n)) for n in leaves]
        while len(texts) > 1:
            texts = [f"midpoint({x},{y})" for x, y in zip(texts[::2], texts[1::2])]
            points = [midpoint(p, q) for p, q in zip(points[::2], points[1::2])]
        assert texts[0].count("(") == 2 ** 7 - 1 > MAX_NESTING
        assert eval_expr(T, parse_center(texts[0])) == points[0]

    @given(st.one_of(
        st.text(),
        st.lists(st.sampled_from([
            "(", ")", ",", " ", "midpoint", "reflect", "complement",
            "anticomplement", "isogonal", "isotomic", "center", "vertex",
            "antipode", "base", "orthic", "excentral", "0", "2", "3", "O",
            "K", "X54", "M_IH", "Nope"])).map("".join)))
    @settings(max_examples=300)
    def test_parse_returns_expression_or_refuses(self, text):
        try:
            e = parse_center(text)
        except CenterParseError:
            return
        assert isinstance(e, CenterExpr)

    def test_parse_unknown(self):
        with pytest.raises(CenterParseError):
            parse_center("Nope")
        with pytest.raises(CenterParseError):
            parse_center("midpoint(I)")

    @pytest.mark.parametrize("index", ["3", "-1", "x", "1.0", ""])
    def test_parse_vertex_index_out_of_range(self, index):
        for fn in ("vertex", "antipode"):
            with pytest.raises(CenterParseError):
                parse_center(f"{fn}(orthic,{index})")

    @given(st.one_of(
        st.text(alphabet="ab ,()"),
        st.lists(st.sampled_from(["", ",", " ", "(", ")", "X1", " X2 ", "base",
                                  "midpoint(X1,X2)", "isogonal(orthic, X3)"]))
        .map("".join)))
    @example("")
    @example("X1,")
    @example("X1, ")
    @example("a),b")
    @example(" base , X3 ")
    @settings(max_examples=300)
    def test_split_args_equals_the_character_loop(self, body):
        assert centers._split_args(body) == split_args(body)

    @pytest.mark.parametrize("text", MALFORMED, ids=lambda text: text[:24])
    def test_malformed_text_refused_as_before(self, text, monkeypatch):
        """Each malformed text of the parser and CLI tests is refused with
        the type and message that the character loop gives."""
        with pytest.raises(CenterParseError) as new:
            parse_center(text)
        monkeypatch.setattr(centers, "_split_args", split_args)
        with pytest.raises(CenterParseError) as old:
            parse_center(text)
        assert (type(new.value), str(new.value)) == (type(old.value), str(old.value))


ISOGONAL_PARTNERS = [
    (CenterId.X54, CenterId.X5),
    (CenterId.X57, CenterId.X9),
    (CenterId.X64, CenterId.X20),
    (CenterId.X84, CenterId.X40),
]


def _metrics(t):
    """The base, its rotation, and every derived metric that exists for t."""
    out = [t, t.rot()]
    for kind in TriangleKind:
        try:
            out.append(derived_triangle(t, kind).metric())
        except RightTriangle:
            pass
    return out


class TestIntegralCenters:
    @pytest.mark.parametrize("sides", [
        (6, 9, 13), (Fraction(3, 2), 2, Fraction(5, 2)), (Fraction(28, 5), 12, 16)])
    def test_center_coords_are_ints(self, sides):
        """The center layer runs on each metric's integral view: no rule
        hands a Fraction to canonicalization."""
        t = RefTriangle(*sides)
        metrics = [t]
        for kind in (TriangleKind.ORTHIC, TriangleKind.EXCENTRAL):
            try:
                metrics.append(derived_triangle(t, kind).own_metric)
            except RightTriangle:
                pass
        evaluated = 0
        for m in metrics:
            for cid in CATALOG:
                try:
                    coords = center_coords(m, cid)
                except (OddCenterWithoutSides, RightTriangle):
                    continue
                assert all(type(v) is int for v in coords), (m, cid, coords)
                evaluated += 1
        assert evaluated >= len(CATALOG) - 1


class TestIsogonalPartners:
    @pytest.mark.parametrize("cid,partner", ISOGONAL_PARTNERS)
    @pytest.mark.parametrize("seed", range(12))
    def test_equals_isogonal_of_partner(self, cid, partner, seed):
        checked = 0
        for m in _metrics(random_triangle(seed)):
            if cid in ODD_CENTERS and not m.has_sides:
                with pytest.raises(OddCenterWithoutSides, match=cid.value):
                    eval_center(m, cid)
                continue
            q = eval_center(m, partner)
            if 0 in q.triple:
                continue
            assert eval_center(m, cid) == isogonal(m, q)
            checked += 1
        assert checked >= 3


def _derivations(t: RefTriangle) -> list:
    """(parent metric, parent frame, derived triangle) for every derived
    triangle of ``t`` and every derived triangle of those (right and
    side-less cases refused)."""
    out = []
    for kind in TriangleKind:
        try:
            out.append((t, kernel._IDENTITY, derived_triangle(t, kind)))
        except GeometryError:
            continue
    for _, _, parent in list(out):
        for kind in TriangleKind:
            try:
                out.append((parent.metric(), parent.frame,
                            derived_subtriangle(parent, kind)))
            except GeometryError:
                continue
    return out


def _nested_subtriangles(t: RefTriangle) -> list:
    """Every derived triangle of ``t`` and every derived triangle of those."""
    return [sub for _, _, sub in _derivations(t)]


def _integer_multiple(frame: Frame, of: Frame) -> int:
    """The nonzero integer k with ``frame``'s matrix and inverse k times
    those of ``of``, or 0 where there is none."""
    ours = [x for rows in frame for row in rows for x in row]
    theirs = [x for rows in of for row in rows for x in row]
    k = next(j for j, x in enumerate(theirs) if x)
    scale, rest = divmod(ours[k], theirs[k])
    return scale if not rest and ours == [scale * x for x in theirs] else 0


class TestFrames:
    def test_checked_once_per_kind(self, monkeypatch):
        calls = []
        of = kernel.Frame.of
        monkeypatch.setattr(kernel.Frame, "of",
                            lambda *vs: calls.append(vs) or of(*vs))
        # the 17 even ids other than X389 (which builds an orthic triangle
        # of its own), the first 8 twice
        ids = 2 * [cid.value for cid in CenterId
                   if cid not in ODD_CENTERS and cid is not CenterId.X389]
        ids = ids[:25]
        subs = {}
        for text in ([f"isogonal(excentral,{cid})" for cid in ids]
                     + [f"center(orthic,{cid})" for cid in ids]):
            try:
                eval_expr(T, parse_center(text), subs)
            except GeometryError:
                pass
        assert len(ids) == 25
        assert set(subs) == {TriangleKind.EXCENTRAL, TriangleKind.ORTHIC}
        # one check per derived triangle, not one per map
        assert len(calls) == 2

    @given(rational_triangles(), nonzero_triples)
    @settings(max_examples=25, deadline=None)
    def test_maps_equal_one_shot_formulas(self, t, triple):
        p = HomPoint(*triple)
        for sub in _nested_subtriangles(t):
            frame = sub.frame
            # the frame of the canonical vertices, times one nonzero integer
            assert _integer_multiple(frame, kernel.Frame.of(*[v.triple for v in sub.vertices]))
            local = HomPoint(*frame.local(p))
            assert local == frame_local(p, *sub.vertices)
            assert frame.base(p.triple) == frame_base(p, *sub.vertices)
            assert frame.base(local.triple) == p
            assert HomPoint(*frame.local(frame.base(p.triple))) == p

    def test_derived_off_a_derived_frame_takes_canonical_rows(self):
        """A kind of a kind other than the base, derived through its
        parent's frame, does not carry that frame's scale: its frame is the
        frame of its canonical vertices."""
        checked = 0
        for seed in range(10):
            for _, frame, sub in _derivations(random_triangle(seed)):
                if frame != kernel._IDENTITY and sub.kind is not TriangleKind.BASE:
                    vertices = (v.triple for v in sub.vertices)
                    assert sub.frame == kernel.Frame.of(*vertices), (seed, sub.kind)
                    checked += 1
        assert checked == 410


# Imports the package 4 times, each after dropping every tricurves module,
# and prints how many generations' eval_center are still alive.
_REIMPORTS = """
import gc, sys, weakref
alive = []
for _ in range(4):
    for name in [m for m in sys.modules if m.partition(".")[0] == "tricurves"]:
        del sys.modules[name]
    import tricurves.cli, tricurves.render
    alive.append(weakref.ref(tricurves.centers.eval_center))
gc.collect()
print(sum(ref() is not None for ref in alive))
"""


class TestNodeTypes:
    """Every node type comes from one factory, and none is held by ``typing``."""

    def test_every_node_type_from_the_factory(self):
        assert isinstance(CenterExpr, tuple) and len(CenterExpr) == 8
        for node in CenterExpr:
            assert node.__eq__ is centers._node_eq and node.__hash__ is centers._node_hash
            assert node.__module__ == centers.__name__

    def test_repr_and_fields(self):
        e = ConjugateIn("isogonal", TriangleKind.BASE, Catalog(CenterId.X9))
        assert repr(e) == ("ConjugateIn(conj='isogonal', kind=<TriangleKind.BASE: "
                           "'base'>, e=Catalog(cid=<CenterId.X9: 'X9'>))")
        assert ReflectThrough._fields == ("through", "point")
        assert VertexOf(TriangleKind.MEDIAL, 2).index == 2

    def test_reimport_frees_the_old_modules(self):
        # in a child process: reimporting here would split the modules that
        # other tests patch; a typing.Union over the node types kept all 4
        src = str(pathlib.Path(centers.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        out = subprocess.run([sys.executable, "-c", _REIMPORTS], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["1"]


class TestRuleTable:
    """``eval_expr`` reads one rule per node type from ``centers._RULES``."""

    def test_one_rule_per_node_type(self):
        assert set(centers._RULES) == set(CenterExpr)

    @pytest.mark.parametrize("e", ["X3", ("X3",), tuple(Catalog(CenterId.X3)), None],
                             ids=repr)
    def test_non_node_is_refused(self, e):
        with pytest.raises(TypeError) as exc:
            eval_expr(T, e)
        assert str(exc.value) == f"not a center expression: {e!r}"
        with pytest.raises(TypeError) as inner:
            eval_expr(T, MidpointOf(Catalog(CenterId.X3), e))
        assert str(inner.value) == str(exc.value)

    def test_rules_call_through_module_globals(self, monkeypatch):
        """A rule that bound its callee at import would slip past a rebinding
        (a tracer's or this test's) and leave its count short."""
        texts = ("midpoint(X3,X4)", "isogonal(excentral,X5)", "center(medial,X3)")
        expected = [eval_expr(T, parse_center(text)) for text in texts]
        calls = []
        for name in ("eval_center", "derived_triangle", "conjugate", "eval_center_in"):
            def counting(*args, _name=name, _fn=getattr(centers, name)):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(centers, name, counting)
        seen = []
        for text, want in zip(texts, expected):
            calls.clear()
            assert eval_expr(T, parse_center(text)) == want
            seen.append(sorted(calls))
        assert seen == [["eval_center", "eval_center"],
                        ["conjugate", "derived_triangle", "eval_center"],
                        ["derived_triangle", "eval_center_in"]]


# the general maps
IDENTITY_ROWS = Frame.of(VERTEX_A.triple, VERTEX_B.triple, VERTEX_C.triple)


class TestIdentityFrame:
    """The base's frame is a plain ``Frame`` of the unit rows, so its maps
    are the general ones; only ``_derive`` and ``_from_frame`` skip its
    products, and give what the general frame of the same vertices gives."""

    def test_base_frame_is_a_plain_frame(self):
        assert type(kernel._IDENTITY) is Frame
        assert kernel._IDENTITY == IDENTITY_ROWS

    @given(nonzero_triples)
    @settings(max_examples=200, deadline=None)
    def test_maps_equal_the_general_frame(self, triple):
        p = HomPoint(*triple)
        assert kernel._IDENTITY == IDENTITY_ROWS
        assert kernel._IDENTITY.base(triple) == IDENTITY_ROWS.base(triple)
        assert kernel._IDENTITY.local(p) == IDENTITY_ROWS.local(p)

    def test_derivations_equal_the_general_frame(self):
        """The general path, through a frame equal to the base's, makes its
        mapped rows canonical; the base's takes the raw rows.  So both give
        the same triangle, and the shortcut's matrix and inverse are one
        nonzero integer times those of the general frame, which is the
        frame of the canonical vertices."""
        compared = 0
        for seed in range(50):
            t = random_triangle(seed)
            for kind in TriangleKind:  # random_triangle draws no right triangle
                ref = centers._derive(t, IDENTITY_ROWS, kind)
                sub = derived_triangle(t, kind)
                assert sub.__slots__ == ref.__slots__
                assert (sub.kind, sub.v1, sub.v2, sub.v3) == (
                    ref.kind, ref.v1, ref.v2, ref.v3), (seed, kind)
                assert sub.own_metric.unit == ref.own_metric.unit, (seed, kind)
                assert _integer_multiple(sub.frame, ref.frame), (seed, kind)
                assert ref.frame == Frame.of(*(v.triple for v in ref.vertices)), (seed, kind)
                # the inverse times the matrix, column by column: k I, k != 0
                nm = [mat_vec(sub.frame.inverse, col) for col in zip(*sub.frame.matrix)]
                k = nm[0][0]
                assert k and nm == [(k, 0, 0), (0, k, 0), (0, 0, k)], (seed, kind)
                compared += 1
        assert compared == 50 * len(TriangleKind)

    def test_base_triangle_keeps_its_parents_frame(self):
        assert derived_triangle(T, TriangleKind.BASE).frame is kernel._IDENTITY
        for kind in TriangleKind:
            parent = derived_triangle(T, kind)
            assert derived_subtriangle(parent, TriangleKind.BASE).frame is parent.frame


class TestOneCanonicalization:
    """A frame maps raw integer triples; only ``Frame.base`` canonicalizes."""

    def _counted(self, monkeypatch):
        calls = []
        canonical = kernel.canonical_ints
        counted = lambda values: calls.append(1) or canonical(values)
        monkeypatch.setattr(kernel, "canonical_ints", counted)
        monkeypatch.setattr(centers, "canonical_ints", counted)
        return calls

    def test_derived_conjugate_and_center_canonicalize_once(self, monkeypatch):
        exc = derived_triangle(T, TriangleKind.EXCENTRAL)
        x9 = eval_center(T, CenterId.X9)
        calls = self._counted(monkeypatch)
        conjugate(exc, "isogonal", x9)
        assert len(calls) == 1
        eval_center_in(exc, CenterId.X6)
        assert len(calls) == 2

    def test_each_derivation_canonicalizes_its_vertices_once(self, monkeypatch):
        """Every kind from the base takes its raw rows into a frame of rows
        at any scale, and canonicalizes nothing; nor does the base kind,
        which keeps its parent's frame, or the medial and anticomplementary
        triangles of the base, whose frames are built once, at import.
        Every other kind from the excentral triangle maps its rows out
        through the parent's frame and makes them canonical: three calls,
        one per row.  A vertex is canonicalized where it is read: three
        calls, one per vertex, on the first read of ``vertices``, and none
        on the next."""
        exc = derived_triangle(T, TriangleKind.EXCENTRAL)
        calls = self._counted(monkeypatch)
        derived = 0
        for derive, parent in ((derived_triangle, T), (derived_subtriangle, exc)):
            for kind in TriangleKind:
                calls.clear()
                try:
                    sub = derive(parent, kind)
                except OddCenterWithoutSides:  # the excentral triangle's sides
                    continue
                mapped = 3 if parent is exc and kind is not TriangleKind.BASE else 0
                assert len(calls) == mapped, (parent, kind)
                sub.vertices
                assert len(calls) == mapped + 3, (parent, kind)
                sub.vertices
                assert len(calls) == mapped + 3, (parent, kind)
                derived += 1
        assert derived == 2 * len(TriangleKind) - 2

    @pytest.mark.parametrize("kind", [TriangleKind.MEDIAL, TriangleKind.ANTICOMPLEMENTARY])
    def test_constant_frames_are_built_once(self, kind):
        """Off the base, the medial and anticomplementary triangles of two
        triangles share one frame, the frame of the kind's constant rows;
        off another triangle the kind builds its own."""
        first = derived_triangle(T, kind).frame
        assert derived_triangle(RefTriangle(Fraction(3, 2), 2, Fraction(7, 3)),
                                kind).frame is first
        assert first == Frame.of(*centers._KINDS[kind][0](T.unit))
        exc = derived_triangle(T, TriangleKind.EXCENTRAL)
        assert derived_subtriangle(exc, kind).frame is not first

    def test_base_is_one_derived_triangle(self, monkeypatch):
        calls = []
        derive = centers.derived_triangle

        def counting(t, kind):
            calls.append(kind)
            return derive(t, kind)

        monkeypatch.setattr(centers, "derived_triangle", counting)
        monkeypatch.setattr(scenarios, "derived_triangle", counting)
        tr = scenarios.Trial(T)
        assert tr["isogonal(X9)"] == eval_center(T, CenterId.X57)
        assert tr["isogonal(base,X6)"] == eval_center(T, CenterId.X2)
        assert tr["center(base,X3)"] == eval_center(T, CenterId.X3)
        assert calls == [TriangleKind.BASE]
        assert tr["base"].frame.local(VERTEX_B) == (0, 1, 0)


class TestWhatAQueryBuilds:
    """A center or conjugate query in a derived triangle builds the points
    it reads and returns, and no vertex; vertices are built when read."""

    def _counted_points(self, monkeypatch):
        built = []
        init = kernel._Homogeneous.__init__

        def counting(self, *args):
            if type(self) is HomPoint:
                built.append(1)
            init(self, *args)

        monkeypatch.setattr(kernel._Homogeneous, "__init__", counting)
        return built

    @pytest.mark.parametrize("text, points", [
        ("center({},X3)", 1),  # the answer
        ("isogonal({},X9)", 2),  # X9 and the answer
    ], ids=["center", "isogonal"])
    def test_fresh_query_builds_no_vertex(self, text, points, monkeypatch):
        built = self._counted_points(monkeypatch)
        counted = refused = 0
        for seed in range(10):
            t = random_triangle(seed)
            for kind in TriangleKind:
                e = parse_center(text.format(kind.value))
                built.clear()
                try:
                    eval_expr(t, e)
                except GeometryError:
                    refused += 1
                    continue
                assert len(built) == points, (seed, kind)
                counted += 1
        assert counted + refused == 10 * len(TriangleKind) and counted > refused

    def test_center_coords_builds_no_view(self, monkeypatch):
        """A catalog center applies its rule to the metric's integral view in
        the three cyclic orders: it neither rotates nor builds a view."""
        metrics = []
        for t in [random_triangle(seed) for seed in range(10)] + [T_RATIONAL]:
            metrics.append(t)
            for kind in TriangleKind:
                try:
                    metrics.append(derived_triangle(t, kind).metric())
                except GeometryError:
                    continue
        built = []
        new, rot = kernel.IntegralView.__new__, kernel.IntegralView.rot

        def counting_new(cls, *args, **kwargs):
            built.append("__new__")
            return new(cls, *args, **kwargs)

        def counting_rot(self):
            built.append("rot")
            return rot(self)

        monkeypatch.setattr(kernel.IntegralView, "__new__", counting_new)
        monkeypatch.setattr(kernel.IntegralView, "rot", counting_rot)
        counted = refused = 0
        for m in metrics:
            for cid in CenterId:
                try:
                    center_coords(m, cid)
                except GeometryError:
                    refused += 1
                    continue
                counted += 1
                assert not built, (m.unit, cid, built)
        assert counted + refused == len(metrics) * len(CenterId)
        assert counted > 5 * refused > 0

    @pytest.mark.parametrize("t", [T, T_RATIONAL, random_triangle(3)], ids=repr)
    def test_vertices_built_once_as_the_mapped_rows(self, t, monkeypatch):
        """Read twice, a derived triangle's vertices are built once, and are
        its raw rows mapped out through its parent's frame, canonicalized."""
        built = self._counted_points(monkeypatch)
        derivations = _derivations(t)
        assert len(derivations) > len(TriangleKind)
        for m, frame, sub in derivations:
            want = tuple(frame.base(row)
                         for row in centers._derived_rows(m, sub.kind))
            built.clear()
            first = sub.vertices
            assert sub.vertices is first and len(built) == 3, sub.kind
            assert first == want and (sub.v1, sub.v2, sub.v3) == want, sub.kind
            assert len(built) == 3


# triangles on which X389 is checked against the Taylor-point search:
# scalene, isosceles, rational with X5 on a sideline, and right
TAYLOR_TRIANGLES = [random_triangle(seed) for seed in range(60)] + [
    RefTriangle(*sides) for sides in (
        (6, 9, 13), (5, 5, 6), (Fraction(28, 5), 12, 16), (3, 4, 5))]


def _taylor_outcome(t: RefTriangle, kind: TriangleKind):
    """The search's X389 of the ``kind`` triangle, in base coordinates, or
    the type of the exception it raises."""
    try:
        if kind is TriangleKind.BASE:
            return taylor_center(t)
        sub = derived_triangle(t, kind)
        return frame_base(taylor_center(sub.metric()), *sub.vertices)
    except GeometryError as exc:
        return type(exc)


class TestTaylorCenter:
    @pytest.mark.parametrize("t", TAYLOR_TRIANGLES, ids=repr)
    def test_equals_taylor_point_search(self, t):
        for kind in TriangleKind:
            try:
                got = eval_expr(t, CenterOf(kind, CenterId.X389))
            except GeometryError as exc:
                got = type(exc)
            assert got == _taylor_outcome(t, kind), kind

    def test_right_triangle_refused(self):
        with pytest.raises(RightTriangle):
            eval_center(RefTriangle(3, 4, 5), CenterId.X389)

    def test_independent_of_taylor_points(self, monkeypatch):
        want = taylor_center(T)

        def refuse(m):
            raise GeometryError("Taylor points withheld")

        monkeypatch.setattr(centers, "_taylor_points", refuse)
        monkeypatch.setitem(centers.EQUIDISTANT, CenterId.X389, refuse)
        assert eval_center(T, CenterId.X389) == want
        assert dict(validate_center_oracles(T))[CenterId.X389] is False


X389_CONSTRUCTION = parse_center("midpoint(X3,center(orthic,X4))")  # X3 and X52


class TestTaylorFormula:
    @pytest.mark.parametrize("t", TAYLOR_TRIANGLES, ids=repr)
    def test_equals_midpoint_of_x3_and_x52(self, t):
        """The formula row against the construction, on the base and in its
        own frame on every derived triangle; right triangles refuse both."""
        for m in _metrics(t):
            if m.is_right():
                for evaluate in (lambda: eval_center(m, CenterId.X389),
                                 lambda: eval_expr(m, X389_CONSTRUCTION)):
                    with pytest.raises(RightTriangle):
                        evaluate()
            else:
                assert eval_center(m, CenterId.X389) == eval_expr(m, X389_CONSTRUCTION)

    @pytest.mark.parametrize("sides", [(6, 9, 13), (Fraction(28, 5), 12, 16)])
    def test_catalog_builds_no_metric_or_frame(self, sides, monkeypatch):
        """Every catalog center reads the metric it is given: none builds
        a Metric or a Frame of its own."""
        metrics = _metrics(RefTriangle(*sides))
        built = []

        def counted(name, build):
            def wrapper(*args, **kwargs):
                built.append(name)
                return build(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(Metric, "__init__", counted("Metric", Metric.__init__))
        monkeypatch.setattr(Frame, "of", staticmethod(counted("Frame", Frame.of)))
        evaluated = 0
        for m in metrics:
            for cid in CATALOG:
                try:
                    eval_center(m, cid)
                except GeometryError:
                    continue
                evaluated += 1
        assert evaluated > len(CATALOG)
        assert built == []


# SHA-256 of one "<triangle> <expression> <outcome>" line per expression,
# outcome the canonical point or the refusal's type name, as the center
# layer gave them before its rules were each written once
OUTCOMES_SHA256 = "86b250216d3085d935e1da8c7697509109c78cdfb0a2824d99a56ff851c368d9"
OUTCOME_TRIANGLES = (
    (6, 9, 13), (Fraction(3, 2), 2, Fraction(5, 2)), (5, 5, 6), (3, 4, 5),
    (Fraction(28, 5), 12, 16))


def _outcome_expressions(kind: str) -> list[str]:
    return ([f"{fn}({kind},{cid.value})" for fn in ("center", "isogonal", "isotomic")
             for cid in CenterId]
            + [f"{fn}({kind},{i})" for fn in ("vertex", "antipode") for i in range(3)])


def _outcome(t: RefTriangle, text: str) -> str:
    try:
        return str(eval_expr(t, parse_center(text)))
    except GeometryError as exc:
        return type(exc).__name__


class TestOutcomesPinned:
    def test_every_kind_center_conjugate_vertex_pinned(self):
        """center/isogonal/isotomic of every catalog id, and every vertex and
        antipode, in every derived triangle of right, isosceles, rational and
        seeded triangles: 5,760 outcomes."""
        triangles = ([RefTriangle(*sides) for sides in OUTCOME_TRIANGLES]
                     + [random_triangle(seed) for seed in (1, 2, 3)])
        lines = [f"{t!r} {text} {_outcome(t, text)}" for t in triangles
                 for kind in TriangleKind for text in _outcome_expressions(kind.value)]
        assert len(lines) == 5760
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == OUTCOMES_SHA256


# SHA-256 of one line per derivation, the derived triangle's integral view,
# frame matrix and inverse, or the refusal's type and message, as the
# derivations gave them when each kind's view was first read in closed form,
# its frame first took its vertex rows uncanonicalized, and a derivation off
# a derived triangle first made its mapped rows canonical (each time every
# matrix and inverse one nonzero integer times the other pair, here the
# earlier pair that times the new one; every view and refusal unchanged)
DERIVATIONS_SHA256 = "9dc4e466266eebe98b660d539054a46aa3952dc39937308b4e3f8536c0a5d90d"
DERIVATION_TRIANGLES = (
    (Fraction(28, 5), 12, 16), (3, 4, 5), (5, 5, 6),
    (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)),
    (10**20 + 11, 10**20 + 17, 10**20 + 29))


def _derivation(label: str, derive) -> tuple:
    """(the triangle or None, its line) for one derivation."""
    try:
        sub = derive()
    except GeometryError as exc:
        return None, f"{label} {type(exc).__name__}: {exc}"
    f = sub.frame
    return sub, f"{label} {tuple(sub.own_metric.unit)} {f.matrix} {f.inverse}"


class TestDerivationsPinned:
    def test_one_row_per_kind(self):
        assert set(centers._KINDS) == set(TriangleKind)
        assert set(centers._NEEDS_SIDES) == {TriangleKind.EXCENTRAL, TriangleKind.MIDARC}

    def test_every_kind_and_kind_of_kind_pinned(self):
        """Every kind, and every kind of every kind, of seeded, rational,
        right, isosceles and 10^20-sided triangles: 7,544 derivations."""
        triangles = ([random_triangle(seed) for seed in range(100)]
                     + [RefTriangle(*sides) for sides in DERIVATION_TRIANGLES])
        lines = []
        for t in triangles:
            for kind in TriangleKind:
                parent, line = _derivation(f"{t!r} {kind.value}",
                                           lambda: derived_triangle(t, kind))
                lines.append(line)
                if parent is not None:
                    lines += [_derivation(f"{t!r} {kind.value} {child.value}",
                                          lambda: derived_subtriangle(parent, child))[1]
                              for child in TriangleKind]
        assert len(lines) == 7544
        assert sum(": " in line for line in lines) == 846
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == DERIVATIONS_SHA256


class TestRandomTriangle:
    def test_deterministic(self):
        t1 = random_triangle(1)
        t2 = random_triangle(1)
        assert (t1.a, t1.b, t1.c) == (t2.a, t2.b, t2.c)

    @pytest.mark.parametrize("seed", range(25))
    def test_constraints(self, seed):
        t = random_triangle(seed)
        a, b, c = t.a, t.b, t.c
        assert 5 <= a < b < c <= 80
        assert a + b > c
        assert a * a + b * b != c * c

    @pytest.mark.parametrize("seed", range(10))
    def test_acute_constraint(self, seed):
        """A draw is obtuse where SA, SB or SC is negative, the sign the
        obtuse counts read: with a < b < c only SC can be, by the side test."""
        t = random_triangle(seed)
        u = t.unit
        assert u.SA > 0 and u.SB > 0
        assert (u.SC > 0) == (t.a * t.a + t.b * t.b > t.c * t.c)

    @staticmethod
    def _replay(monkeypatch, draws):
        """Make ``random_triangle``'s generator replay ``draws``, checking
        that every side is drawn in [5, 80]."""
        draws = iter(draws)

        class Replay:
            def __init__(self, seed):
                pass

            def randint(self, lo, hi):
                assert (lo, hi) == (5, 80)
                return next(draws)

        monkeypatch.setattr(centers.random, "Random", Replay)

    def test_never_3_4_5(self, monkeypatch):
        """A right draw (5-12-13, or 6-8-10 of shape 3-4-5) and an isosceles
        one are drawn again."""
        self._replay(monkeypatch, [13, 5, 12, 7, 10, 7, 8, 6, 10, 9, 13, 6])
        t = random_triangle(0)
        assert (t.a, t.b, t.c) == (6, 9, 13)

    def test_exhausted(self, monkeypatch):
        self._replay(monkeypatch, itertools.repeat(7))
        with pytest.raises(ExhaustedRetries):
            random_triangle(0)
