import dataclasses
import hashlib
import typing
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
    AntipodeOf,
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
    midpoint,
    reflect_through,
    squared_distance,
)

from reference import frame_base, frame_local, taylor_center
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
    for field in dataclasses.fields(expr):
        value = getattr(expr, field.name)
        if dataclasses.is_dataclass(value):
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
            frame = Frame.of(*sub.vertices)
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
        names = [f.name for f in dataclasses.fields(SubTriangle)]
        assert "sq_sides" not in names and "sides" not in names
        med = derived_triangle(T, TriangleKind.MEDIAL)
        with pytest.raises(dataclasses.FrozenInstanceError):
            med.v1 = VERTEX_A
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

    def test_orthic_of_excentral_is_base(self):
        exc = derived_triangle(T, TriangleKind.EXCENTRAL)
        oexc = derived_subtriangle(exc, TriangleKind.ORTHIC)
        assert set(oexc.vertices) == {VERTEX_A, VERTEX_B, VERTEX_C}


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
        got = eval_expr(T, AntipodeOf(TriangleKind.MEDIAL, 0))
        assert got == reflect_through(n5, med.v1)


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
        assert isinstance(e, typing.get_args(CenterExpr))

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


def _nested_subtriangles(t: RefTriangle) -> list:
    """Every derived triangle of ``t`` and every derived triangle of those
    (right and side-less cases refused), in base coordinates."""
    subs = []
    for kind in TriangleKind:
        try:
            subs.append(derived_triangle(t, kind))
        except GeometryError:
            continue
    for sub in list(subs):
        for kind in TriangleKind:
            try:
                subs.append(derived_subtriangle(sub, kind))
            except GeometryError:
                continue
    return subs


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
            assert frame == kernel.Frame.of(*sub.vertices)
            local = HomPoint(*frame.local(p))
            assert local == frame_local(p, *sub.vertices)
            assert frame.base(p.triple) == frame_base(p, *sub.vertices)
            assert frame.base(local.triple) == p
            assert HomPoint(*frame.local(frame.base(p.triple))) == p


class TestOneCanonicalization:
    """A frame maps raw integer triples; only ``Frame.base`` canonicalizes."""

    def _counted(self, monkeypatch):
        calls = []
        canonical = kernel.canonical_ints
        monkeypatch.setattr(kernel, "canonical_ints",
                            lambda values: calls.append(1) or canonical(values))
        return calls

    def test_derived_conjugate_and_center_canonicalize_once(self, monkeypatch):
        exc = derived_triangle(T, TriangleKind.EXCENTRAL)
        x9 = eval_center(T, CenterId.X9)
        calls = self._counted(monkeypatch)
        conjugate(exc, "isogonal", x9)
        assert len(calls) == 1
        eval_center_in(exc, CenterId.X6)
        assert len(calls) == 2

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
        t = random_triangle(seed, require_acute=True)
        assert t.is_acute()

    def test_never_3_4_5(self):
        for seed in range(50):
            t = random_triangle(seed, min_side=3, max_side=6)
            assert (t.a, t.b, t.c) != (3, 4, 5)

    def test_exhausted(self):
        with pytest.raises(ExhaustedRetries):
            random_triangle(0, min_side=1, max_side=2)

    def test_bad_range(self):
        with pytest.raises(ValueError):
            random_triangle(0, min_side=5, max_side=5)
