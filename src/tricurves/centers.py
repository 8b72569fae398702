"""Triangle-center catalog, derived triangles, conjugations, and oracles.

Every center carries two independent things: an evaluation rule (a closed
barycentric formula or an explicit construction, rational in the side
lengths) and a defining-property oracle that re-derives the center from
first principles.  :func:`validate_center_oracles` runs the oracles; a
formula that disagrees with its oracle is a bug in the formula.

Centers are classified by parity: EVEN centers depend only on the squared
side lengths and can therefore be evaluated on any derived triangle (whose
squared sides are always rational); odd centers need the unsquared sides
and are only available where those are exact (the base, medial, Euler and
anticomplementary triangles).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import accumulate, combinations
from typing import Callable, Optional, Union

from .kernel import (
    GeometryError,
    HomLine,
    HomPoint,
    Metric,
    Rat,
    RefTriangle,
    VERTEX_A,
    VERTEX_B,
    VERTEX_C,
    equidistant_point,
    foot_of_perpendicular,
    from_local,
    incident,
    join,
    local_coords,
    midpoint,
    orthocenter_of,
    perpendicular_line_through,
    reflect_through,
    squared_distance,
)


class OnSideline(GeometryError):
    """Conjugation of a point with a zero coordinate is undefined."""


class RightTriangle(GeometryError):
    """The construction degenerates on right triangles."""


class OddCenterWithoutSides(GeometryError):
    """An odd-parity center was requested where exact sides are unavailable."""


class ExhaustedRetries(GeometryError):
    """The random-triangle constraints could not be satisfied in range."""


class CenterId(str, Enum):
    X1 = "X1"     # incenter
    X2 = "X2"     # centroid
    X3 = "X3"     # circumcenter
    X4 = "X4"     # orthocenter
    X5 = "X5"     # nine-point center
    X6 = "X6"     # symmedian (Lemoine) point
    X7 = "X7"     # Gergonne point
    X8 = "X8"     # Nagel point
    X9 = "X9"     # mittenpunkt
    X10 = "X10"   # Spieker center
    X20 = "X20"   # de Longchamps point
    X21 = "X21"   # Schiffler point
    X25 = "X25"   # homothety center of orthic and tangential triangles
    X39 = "X39"   # Brocard midpoint
    X40 = "X40"   # Bevan point
    X54 = "X54"   # Kosnita point
    X57 = "X57"   # isogonal conjugate of the mittenpunkt
    X64 = "X64"   # isogonal conjugate of the de Longchamps point
    X69 = "X69"   # isotomic conjugate of the orthocenter
    X76 = "X76"   # third Brocard point
    X84 = "X84"   # isogonal conjugate of the Bevan point
    X355 = "X355"  # Fuhrmann center
    X389 = "X389"  # Taylor center
    OMEGA1 = "BrocardOmega1"
    OMEGA2 = "BrocardOmega2"
    VERTEX_A = "VertexA"
    VERTEX_B = "VertexB"
    VERTEX_C = "VertexC"


class TriangleKind(str, Enum):
    BASE = "base"
    EXCENTRAL = "excentral"
    MEDIAL = "medial"
    ORTHIC = "orthic"
    ANTICOMPLEMENTARY = "anticomplementary"
    EULER = "euler"
    MIDARC = "midarc"
    TANGENTIAL = "tangential"


# ---------------------------------------------------------------------------
# evaluation rules

def _a(m: Metric) -> Fraction:
    return m.sides[0]


def _b(m: Metric) -> Fraction:
    return m.sides[1]


def _c(m: Metric) -> Fraction:
    return m.sides[2]


_FIRST: dict[CenterId, Callable[[Metric], Fraction]] = {
    CenterId.X1: lambda m: _a(m),
    CenterId.X2: lambda m: Fraction(1),
    CenterId.X3: lambda m: m.a2 * m.SA,
    CenterId.X4: lambda m: m.SB * m.SC,
    CenterId.X5: lambda m: m.S2 + m.SB * m.SC,
    CenterId.X6: lambda m: m.a2,
    CenterId.X7: lambda m: (_c(m) + _a(m) - _b(m)) * (_a(m) + _b(m) - _c(m)),
    CenterId.X8: lambda m: _b(m) + _c(m) - _a(m),
    CenterId.X9: lambda m: _a(m) * (_b(m) + _c(m) - _a(m)),
    CenterId.X10: lambda m: _b(m) + _c(m),
    CenterId.X20: lambda m: m.a2 * m.SA - m.SB * m.SC,
    CenterId.X21: lambda m: _a(m) * (_b(m) + _c(m) - _a(m)) * (_a(m) + _b(m)) * (_a(m) + _c(m)),
    CenterId.X25: lambda m: m.a2 * m.SB * m.SC,
    CenterId.X39: lambda m: m.a2 * (m.b2 + m.c2),
    CenterId.X40: lambda m: _a(m) * ((_a(m) + _b(m) + _c(m)) * _a(m) * m.SA - m.S2),
    CenterId.X69: lambda m: m.SA,
    CenterId.X76: lambda m: m.b2 * m.c2,
    CenterId.X355: lambda m: (_a(m) + _b(m) + _c(m)) * m.SB * m.SC
    + (_b(m) + _c(m) - _a(m)) * m.S2,
}

# centers evaluated as the isogonal conjugate of a partner center
_ISOGONAL_OF = {CenterId.X54: CenterId.X5, CenterId.X57: CenterId.X9,
                CenterId.X64: CenterId.X20, CenterId.X84: CenterId.X40}

# centers whose rule needs the unsquared sides
ODD_CENTERS = frozenset({
    CenterId.X1, CenterId.X7, CenterId.X8, CenterId.X9, CenterId.X10,
    CenterId.X21, CenterId.X40, CenterId.X57, CenterId.X84, CenterId.X355,
})

CATALOG = tuple(CenterId)


def _taylor_points(m: Metric) -> list[HomPoint]:
    """Projections of each altitude foot onto the other two sides (6 points)."""
    if m.is_right():
        raise RightTriangle("altitude-foot projections degenerate on right triangles")
    sides = (
        join(VERTEX_B, VERTEX_C),
        join(VERTEX_C, VERTEX_A),
        join(VERTEX_A, VERTEX_B),
    )
    feet = (
        HomPoint(0, m.SC, m.SB),
        HomPoint(m.SC, 0, m.SA),
        HomPoint(m.SB, m.SA, 0),
    )
    pts = []
    for i in range(3):
        for j in range(3):
            if j != i:
                pts.append(foot_of_perpendicular(feet[i], sides[j], m))
    return pts


def _taylor_center(m: Metric) -> HomPoint:
    pts = _taylor_points(m)
    for i, j, k in combinations(range(6), 3):
        if pts[i] == pts[j] or pts[j] == pts[k] or pts[i] == pts[k]:
            continue
        try:
            return equidistant_point(pts[i], pts[j], pts[k], m)
        except GeometryError:
            continue
    raise GeometryError("projection points admit no equidistant point")


def center_coords(m: Metric, cid: CenterId) -> tuple[Rat, Rat, Rat]:
    """Raw homogeneous coordinates of a catalog center in the frame of ``m``."""
    if cid is CenterId.VERTEX_A:
        return (1, 0, 0)
    if cid is CenterId.VERTEX_B:
        return (0, 1, 0)
    if cid is CenterId.VERTEX_C:
        return (0, 0, 1)
    if cid is CenterId.OMEGA1:
        return (m.a2 * m.c2, m.a2 * m.b2, m.b2 * m.c2)
    if cid is CenterId.OMEGA2:
        return (m.a2 * m.b2, m.b2 * m.c2, m.c2 * m.a2)
    if cid is CenterId.X389:
        return _taylor_center(m).triple
    if cid in ODD_CENTERS and not m.has_sides:
        raise OddCenterWithoutSides(
            f"{cid.value} needs exact side lengths, which this triangle lacks")
    if cid in _ISOGONAL_OF:
        # not isogonal(): that refuses a partner on a sideline
        u, v, w = center_coords(m, _ISOGONAL_OF[cid])
        return (m.a2 * v * w, m.b2 * w * u, m.c2 * u * v)
    f = _FIRST[cid]
    r = m.rot()
    return (f(m), f(r), f(r.rot()))


def eval_center(m: Metric, cid: CenterId) -> HomPoint:
    """Catalog center as a canonical point (in the frame ``m`` describes)."""
    return HomPoint(*center_coords(m, cid))


# ---------------------------------------------------------------------------
# conjugations

def complement(p: HomPoint) -> HomPoint:
    x, y, z = p.triple
    return HomPoint(y + z, z + x, x + y)


def anticomplement(p: HomPoint) -> HomPoint:
    x, y, z = p.triple
    return HomPoint(-x + y + z, x - y + z, x + y - z)


def isogonal(m: Metric, p: HomPoint) -> HomPoint:
    x, y, z = p.triple
    if x == 0 or y == 0 or z == 0:
        raise OnSideline(f"isogonal conjugate of {p} (on a sideline) is undefined")
    return HomPoint(m.a2 * y * z, m.b2 * z * x, m.c2 * x * y)


def isotomic(p: HomPoint) -> HomPoint:
    x, y, z = p.triple
    if x == 0 or y == 0 or z == 0:
        raise OnSideline(f"isotomic conjugate of {p} (on a sideline) is undefined")
    return HomPoint(y * z, z * x, x * y)


# ---------------------------------------------------------------------------
# derived triangles

@dataclass(frozen=True)
class SubTriangle:
    """A derived triangle: vertices in base coordinates plus its own metric."""

    kind: TriangleKind
    v1: HomPoint
    v2: HomPoint
    v3: HomPoint
    own_metric: Metric

    @property
    def vertices(self) -> tuple[HomPoint, HomPoint, HomPoint]:
        return (self.v1, self.v2, self.v3)

    def metric(self) -> Metric:
        return self.own_metric


def _derived_local(m: Metric, kind: TriangleKind):
    """Vertex coordinate triples of the derived triangle, in the frame of ``m``.

    Also returns the exact side lengths of the derived triangle when those
    are rational multiples of the frame's sides.
    """
    if kind is TriangleKind.BASE:
        return ((1, 0, 0), (0, 1, 0), (0, 0, 1)), m.sides
    if kind is TriangleKind.EXCENTRAL:
        if not m.has_sides:
            raise OddCenterWithoutSides("excenters need exact side lengths")
        a, b, c = m.sides
        return ((-a, b, c), (a, -b, c), (a, b, -c)), None
    if kind is TriangleKind.MEDIAL:
        sides = None if not m.has_sides else tuple(s / 2 for s in m.sides)
        return ((0, 1, 1), (1, 0, 1), (1, 1, 0)), sides
    if kind is TriangleKind.ORTHIC:
        if m.is_right():
            raise RightTriangle("orthic triangle of a right triangle is degenerate")
        return ((0, m.SC, m.SB), (m.SC, 0, m.SA), (m.SB, m.SA, 0)), None
    if kind is TriangleKind.ANTICOMPLEMENTARY:
        sides = None if not m.has_sides else tuple(2 * s for s in m.sides)
        return ((-1, 1, 1), (1, -1, 1), (1, 1, -1)), sides
    if kind is TriangleKind.EULER:
        # midpoints of each vertex with the orthocenter
        sbc, sca, sab = m.SB * m.SC, m.SC * m.SA, m.SA * m.SB
        sides = None if not m.has_sides else tuple(s / 2 for s in m.sides)
        return (
            (m.S2 + sbc, sca, sab),
            (sbc, m.S2 + sca, sab),
            (sbc, sca, m.S2 + sab),
        ), sides
    if kind is TriangleKind.MIDARC:
        # second intersections of the internal bisectors with the circumcircle
        if not m.has_sides:
            raise OddCenterWithoutSides("arc midpoints need exact side lengths")
        a, b, c = m.sides
        return (
            (-m.a2, b * (b + c), c * (b + c)),
            (a * (c + a), -m.b2, c * (c + a)),
            (a * (a + b), b * (a + b), -m.c2),
        ), None
    if kind is TriangleKind.TANGENTIAL:
        if m.is_right():
            raise RightTriangle("tangential triangle of a right triangle is degenerate")
        return ((-m.a2, m.b2, m.c2), (m.a2, -m.b2, m.c2), (m.a2, m.b2, -m.c2)), None
    raise ValueError(f"unknown triangle kind {kind}")


def _make_subtriangle(base: Metric, kind, points, sides) -> SubTriangle:
    own = Metric(squared_distance(points[1], points[2], base),
                 squared_distance(points[2], points[0], base),
                 squared_distance(points[0], points[1], base), sides=sides)
    return SubTriangle(kind, *points, own)


def derived_triangle(t: RefTriangle, kind: TriangleKind) -> SubTriangle:
    """A derived triangle of the base, with vertices in base coordinates."""
    locals_, sides = _derived_local(t, kind)
    points = tuple(HomPoint(*v) for v in locals_)
    return _make_subtriangle(t, kind, points, sides)


def derived_subtriangle(t: RefTriangle, sub: SubTriangle,
                        kind: TriangleKind) -> SubTriangle:
    """A derived triangle of a derived triangle, mapped to base coordinates."""
    lm = sub.metric()
    locals_, sides = _derived_local(lm, kind)
    points = tuple(
        from_local(HomPoint(*v), sub.v1, sub.v2, sub.v3) for v in locals_
    )
    return _make_subtriangle(t, kind, points, sides)


def eval_center_in(t: RefTriangle, sub: SubTriangle, cid: CenterId) -> HomPoint:
    """Catalog center of a derived triangle, mapped back to base coordinates."""
    local = HomPoint(*center_coords(sub.metric(), cid))
    return from_local(local, sub.v1, sub.v2, sub.v3)


def isogonal_in(t: RefTriangle, sub: SubTriangle, p: HomPoint) -> HomPoint:
    """Isogonal conjugate relative to a derived triangle, in base coordinates."""
    lc = local_coords(p, sub.v1, sub.v2, sub.v3)
    conj = isogonal(sub.metric(), lc)
    return from_local(conj, sub.v1, sub.v2, sub.v3)


def isotomic_in(t: RefTriangle, sub: SubTriangle, p: HomPoint) -> HomPoint:
    lc = local_coords(p, sub.v1, sub.v2, sub.v3)
    conj = isotomic(lc)
    return from_local(conj, sub.v1, sub.v2, sub.v3)


# ---------------------------------------------------------------------------
# composite center expressions

@dataclass(frozen=True)
class Catalog:
    cid: CenterId


@dataclass(frozen=True)
class MidpointOf:
    e1: "CenterExpr"
    e2: "CenterExpr"


@dataclass(frozen=True)
class ReflectThrough:
    through: "CenterExpr"
    point: "CenterExpr"


@dataclass(frozen=True)
class Complement:
    e: "CenterExpr"


@dataclass(frozen=True)
class Anticomplement:
    e: "CenterExpr"


@dataclass(frozen=True)
class IsogonalIn:
    kind: TriangleKind
    e: "CenterExpr"


@dataclass(frozen=True)
class IsotomicIn:
    kind: TriangleKind
    e: "CenterExpr"


@dataclass(frozen=True)
class CenterOf:
    kind: TriangleKind
    cid: CenterId


@dataclass(frozen=True)
class VertexOf:
    kind: TriangleKind
    index: int


@dataclass(frozen=True)
class AntipodeOf:
    kind: TriangleKind
    index: int


CenterExpr = Union[
    Catalog, MidpointOf, ReflectThrough, Complement, Anticomplement,
    IsogonalIn, IsotomicIn, CenterOf, VertexOf, AntipodeOf,
]


def eval_expr(t: RefTriangle, e: CenterExpr,
              _subs: Optional[dict] = None) -> HomPoint:
    """Evaluate a composite center expression on the base triangle."""
    subs = _subs if _subs is not None else {}

    def sub_of(kind: TriangleKind) -> SubTriangle:
        if kind not in subs:
            subs[kind] = derived_triangle(t, kind)
        return subs[kind]

    def rec(expr: CenterExpr) -> HomPoint:
        if isinstance(expr, Catalog):
            return eval_center(t, expr.cid)
        if isinstance(expr, MidpointOf):
            return midpoint(rec(expr.e1), rec(expr.e2))
        if isinstance(expr, ReflectThrough):
            return reflect_through(rec(expr.through), rec(expr.point))
        if isinstance(expr, Complement):
            return complement(rec(expr.e))
        if isinstance(expr, Anticomplement):
            return anticomplement(rec(expr.e))
        if isinstance(expr, IsogonalIn):
            p = rec(expr.e)
            if expr.kind is TriangleKind.BASE:
                return isogonal(t, p)
            return isogonal_in(t, sub_of(expr.kind), p)
        if isinstance(expr, IsotomicIn):
            p = rec(expr.e)
            if expr.kind is TriangleKind.BASE:
                return isotomic(p)
            return isotomic_in(t, sub_of(expr.kind), p)
        if isinstance(expr, CenterOf):
            if expr.kind is TriangleKind.BASE:
                return eval_center(t, expr.cid)
            return eval_center_in(t, sub_of(expr.kind), expr.cid)
        if isinstance(expr, VertexOf):
            return sub_of(expr.kind).vertices[expr.index]
        if isinstance(expr, AntipodeOf):
            sub = sub_of(expr.kind)
            o = eval_center_in(t, sub, CenterId.X3)
            return reflect_through(o, sub.vertices[expr.index])
        raise TypeError(f"not a center expression: {expr!r}")

    return rec(e)


# aliases accepted by the CLI and serializations
ALIASES: dict[str, CenterExpr] = {
    "I": Catalog(CenterId.X1),
    "M": Catalog(CenterId.X2),
    "O": Catalog(CenterId.X3),
    "H": Catalog(CenterId.X4),
    "E": Catalog(CenterId.X5),
    "Sy": Catalog(CenterId.X6),
    "Ge": Catalog(CenterId.X7),
    "Na": Catalog(CenterId.X8),
    "Mi": Catalog(CenterId.X9),
    "Sp": Catalog(CenterId.X10),
    "L": Catalog(CenterId.X20),
    "S": Catalog(CenterId.X21),
    "GOT": Catalog(CenterId.X25),
    "MB": Catalog(CenterId.X39),
    "Be": Catalog(CenterId.X40),
    "K": Catalog(CenterId.X54),
    "B3": Catalog(CenterId.X76),
    "F": Catalog(CenterId.X355),
    "Ta": Catalog(CenterId.X389),
    "LP": IsogonalIn(TriangleKind.BASE, Catalog(CenterId.X20)),
    "BeP": IsogonalIn(TriangleKind.BASE, Catalog(CenterId.X40)),
    "MiP": IsogonalIn(TriangleKind.BASE, Catalog(CenterId.X9)),
    "MiPP": IsogonalIn(TriangleKind.EXCENTRAL, Catalog(CenterId.X9)),
    "SyA": Anticomplement(Catalog(CenterId.X6)),
    "HA": IsogonalIn(TriangleKind.MEDIAL, CenterOf(TriangleKind.MEDIAL, CenterId.X20)),
    "M_IH": MidpointOf(Catalog(CenterId.X1), Catalog(CenterId.X4)),
    "M_MH": MidpointOf(Catalog(CenterId.X2), Catalog(CenterId.X4)),
    "M_MiI": MidpointOf(Catalog(CenterId.X9), Catalog(CenterId.X1)),
}

_KIND_NAMES = {k.value: k for k in TriangleKind}
MAX_NESTING = 64  # parentheses parse_center accepts; the scenarios nest 3 deep


class CenterParseError(GeometryError):
    """Unknown center name or malformed center expression."""


def _split_args(body: str) -> list[str]:
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


def parse_center(text: str) -> CenterExpr:
    """Parse a center name, alias, or functional expression.

    Grammar: NAME | fn(args) with fn in {midpoint, reflect, complement,
    anticomplement, isogonal, isotomic, center, vertex, antipode}; triangle
    kinds are named base/excentral/medial/orthic/anticomplementary/euler/
    midarc/tangential; vertex and antipode take a kind and an index 0-2.
    Expressions nested more than ``MAX_NESTING`` deep are refused.
    """
    text = text.strip()
    if not text:
        raise CenterParseError("empty center expression")
    if max(accumulate((ch == "(") - (ch == ")") for ch in text)) > MAX_NESTING:
        raise CenterParseError(f"center expression nests deeper than {MAX_NESTING}")
    if "(" not in text:
        if text in ALIASES:
            return ALIASES[text]
        for cid in CenterId:
            if cid.value == text:
                return Catalog(cid)
        raise CenterParseError(f"unknown center name {text!r}")
    if not text.endswith(")"):
        raise CenterParseError(f"malformed expression {text!r}")
    fn, body = text.split("(", 1)
    fn = fn.strip().lower()
    args = _split_args(body[:-1])

    def kind_of(s: str) -> TriangleKind:
        if s not in _KIND_NAMES:
            raise CenterParseError(f"unknown triangle kind {s!r}")
        return _KIND_NAMES[s]

    def cid_of(s: str) -> CenterId:
        e = parse_center(s)
        if not isinstance(e, Catalog):
            raise CenterParseError(f"{s!r} is not a catalog center")
        return e.cid

    def index_of(s: str) -> int:
        if s not in ("0", "1", "2"):
            raise CenterParseError(f"vertex index must be 0, 1 or 2, got {s!r}")
        return int(s)

    if fn == "midpoint" and len(args) == 2:
        return MidpointOf(parse_center(args[0]), parse_center(args[1]))
    if fn == "reflect" and len(args) == 2:
        return ReflectThrough(parse_center(args[0]), parse_center(args[1]))
    if fn == "complement" and len(args) == 1:
        return Complement(parse_center(args[0]))
    if fn == "anticomplement" and len(args) == 1:
        return Anticomplement(parse_center(args[0]))
    if fn == "isogonal":
        if len(args) == 1:
            return IsogonalIn(TriangleKind.BASE, parse_center(args[0]))
        if len(args) == 2:
            return IsogonalIn(kind_of(args[0]), parse_center(args[1]))
    if fn == "isotomic":
        if len(args) == 1:
            return IsotomicIn(TriangleKind.BASE, parse_center(args[0]))
        if len(args) == 2:
            return IsotomicIn(kind_of(args[0]), parse_center(args[1]))
    if fn == "center" and len(args) == 2:
        return CenterOf(kind_of(args[0]), cid_of(args[1]))
    if fn == "vertex" and len(args) == 2:
        return VertexOf(kind_of(args[0]), index_of(args[1]))
    if fn == "antipode" and len(args) == 2:
        return AntipodeOf(kind_of(args[0]), index_of(args[1]))
    raise CenterParseError(f"cannot parse center expression {text!r}")


# ---------------------------------------------------------------------------
# defining-property oracles

def _orc_x1(t: RefTriangle) -> bool:
    p = eval_center(t, CenterId.X1)
    feet = (
        HomPoint(0, t.b, t.c),
        HomPoint(t.a, 0, t.c),
        HomPoint(t.a, t.b, 0),
    )
    return all(incident(p, join(v, f))
               for v, f in zip((VERTEX_A, VERTEX_B, VERTEX_C), feet))


def _orc_x2(t: RefTriangle) -> bool:
    p = eval_center(t, CenterId.X2)
    mids = (midpoint(VERTEX_B, VERTEX_C), midpoint(VERTEX_C, VERTEX_A),
            midpoint(VERTEX_A, VERTEX_B))
    return all(incident(p, join(v, f))
               for v, f in zip((VERTEX_A, VERTEX_B, VERTEX_C), mids))


def _orc_x3(t: RefTriangle) -> bool:
    p = eval_center(t, CenterId.X3)
    da = squared_distance(p, VERTEX_A, t)
    return (da == squared_distance(p, VERTEX_B, t)
            and da == squared_distance(p, VERTEX_C, t))


def _orc_x4(t: RefTriangle) -> bool:
    p = eval_center(t, CenterId.X4)
    verts = (VERTEX_A, VERTEX_B, VERTEX_C)
    for i in range(3):
        side = join(verts[(i + 1) % 3], verts[(i + 2) % 3])
        if not incident(p, perpendicular_line_through(side, verts[i], t)):
            return False
    return True


def _orc_x5(t: RefTriangle) -> bool:
    return eval_center(t, CenterId.X5) == midpoint(
        eval_center(t, CenterId.X3), eval_center(t, CenterId.X4))


def _orc_x6(t: RefTriangle) -> bool:
    return eval_center(t, CenterId.X6) == isogonal(t, eval_center(t, CenterId.X2))


def _orc_x7(t: RefTriangle) -> bool:
    p = eval_center(t, CenterId.X7)
    s = (t.a + t.b + t.c) / 2
    touches = (
        HomPoint(0, s - t.c, s - t.b),
        HomPoint(s - t.c, 0, s - t.a),
        HomPoint(s - t.b, s - t.a, 0),
    )
    return all(incident(p, join(v, f))
               for v, f in zip((VERTEX_A, VERTEX_B, VERTEX_C), touches))


def _orc_x8(t: RefTriangle) -> bool:
    p = eval_center(t, CenterId.X8)
    s = (t.a + t.b + t.c) / 2
    touches = (
        HomPoint(0, s - t.b, s - t.c),
        HomPoint(s - t.a, 0, s - t.c),
        HomPoint(s - t.a, s - t.b, 0),
    )
    return all(incident(p, join(v, f))
               for v, f in zip((VERTEX_A, VERTEX_B, VERTEX_C), touches))


def _orc_x9(t: RefTriangle) -> bool:
    medial = derived_triangle(t, TriangleKind.MEDIAL)
    return eval_center_in(t, medial, CenterId.X7) == eval_center(t, CenterId.X9)


def _orc_x10(t: RefTriangle) -> bool:
    return eval_center(t, CenterId.X10) == complement(eval_center(t, CenterId.X1))


def _orc_x20(t: RefTriangle) -> bool:
    return eval_center(t, CenterId.X20) == reflect_through(
        eval_center(t, CenterId.X3), eval_center(t, CenterId.X4))


def _euler_line_of(p1: HomPoint, p2: HomPoint, p3: HomPoint, m: Metric) -> HomLine:
    return join(equidistant_point(p1, p2, p3, m), orthocenter_of(p1, p2, p3, m))


def _orc_x21(t: RefTriangle) -> bool:
    p = eval_center(t, CenterId.X21)
    i = eval_center(t, CenterId.X1)
    triples = (
        (i, VERTEX_B, VERTEX_C),
        (i, VERTEX_C, VERTEX_A),
        (i, VERTEX_A, VERTEX_B),
        (VERTEX_A, VERTEX_B, VERTEX_C),
    )
    return all(incident(p, _euler_line_of(*tr, t)) for tr in triples)


def _orc_x25(t: RefTriangle) -> bool:
    p = eval_center(t, CenterId.X25)
    feet = (
        HomPoint(0, t.SC, t.SB),
        HomPoint(t.SC, 0, t.SA),
        HomPoint(t.SB, t.SA, 0),
    )
    tang = (
        HomPoint(-t.a2, t.b2, t.c2),
        HomPoint(t.a2, -t.b2, t.c2),
        HomPoint(t.a2, t.b2, -t.c2),
    )
    return all(incident(p, join(f, g)) for f, g in zip(feet, tang))


def _orc_x39(t: RefTriangle) -> bool:
    return eval_center(t, CenterId.X39) == midpoint(
        eval_center(t, CenterId.OMEGA1), eval_center(t, CenterId.OMEGA2))


def _orc_x40(t: RefTriangle) -> bool:
    return eval_center(t, CenterId.X40) == reflect_through(
        eval_center(t, CenterId.X3), eval_center(t, CenterId.X1))


def _conj_oracle(cid: CenterId, partner: CenterId, conj: str):
    def orc(t: RefTriangle) -> bool:
        q = eval_center(t, partner)
        image = isogonal(t, q) if conj == "isogonal" else isotomic(q)
        return eval_center(t, cid) == image

    return orc


def _orc_x355(t: RefTriangle) -> bool:
    return eval_center(t, CenterId.X355) == midpoint(
        eval_center(t, CenterId.X4), eval_center(t, CenterId.X8))


def _orc_x389(t: RefTriangle) -> bool:
    p = eval_center(t, CenterId.X389)
    pts = _taylor_points(t)
    d0 = squared_distance(p, pts[0], t)
    return all(squared_distance(p, q, t) == d0 for q in pts[1:])


def _orc_omega(t: RefTriangle) -> bool:
    o1 = eval_center(t, CenterId.OMEGA1)
    o2 = eval_center(t, CenterId.OMEGA2)
    return isogonal(t, o1) == o2 and isogonal(t, o2) == o1


ORACLES: dict[CenterId, Callable[[RefTriangle], bool]] = {
    CenterId.X1: _orc_x1,
    CenterId.X2: _orc_x2,
    CenterId.X3: _orc_x3,
    CenterId.X4: _orc_x4,
    CenterId.X5: _orc_x5,
    CenterId.X6: _orc_x6,
    CenterId.X7: _orc_x7,
    CenterId.X8: _orc_x8,
    CenterId.X9: _orc_x9,
    CenterId.X10: _orc_x10,
    CenterId.X20: _orc_x20,
    CenterId.X21: _orc_x21,
    CenterId.X25: _orc_x25,
    CenterId.X39: _orc_x39,
    CenterId.X40: _orc_x40,
    CenterId.X54: _conj_oracle(CenterId.X54, CenterId.X5, "isogonal"),
    CenterId.X57: _conj_oracle(CenterId.X57, CenterId.X9, "isogonal"),
    CenterId.X64: _conj_oracle(CenterId.X64, CenterId.X20, "isogonal"),
    CenterId.X69: _conj_oracle(CenterId.X69, CenterId.X4, "isotomic"),
    CenterId.X76: _conj_oracle(CenterId.X76, CenterId.X6, "isotomic"),
    CenterId.X84: _conj_oracle(CenterId.X84, CenterId.X40, "isogonal"),
    CenterId.X355: _orc_x355,
    CenterId.X389: _orc_x389,
    CenterId.OMEGA1: _orc_omega,
    CenterId.OMEGA2: _orc_omega,
    CenterId.VERTEX_A: lambda t: eval_center(t, CenterId.VERTEX_A) == VERTEX_A,
    CenterId.VERTEX_B: lambda t: eval_center(t, CenterId.VERTEX_B) == VERTEX_B,
    CenterId.VERTEX_C: lambda t: eval_center(t, CenterId.VERTEX_C) == VERTEX_C,
}


def validate_center_oracles(t: RefTriangle) -> list[tuple[CenterId, bool]]:
    """Run every center's defining-property oracle; report falsified entries."""
    out = []
    for cid in CATALOG:
        try:
            ok = ORACLES[cid](t)
        except GeometryError:
            ok = False
        out.append((cid, ok))
    return out


# ---------------------------------------------------------------------------
# triangle generation

def random_triangle(seed: int, min_side: int = 5, max_side: int = 80,
                    require_acute: bool = False) -> RefTriangle:
    """Deterministic scalene non-right integer triangle from a seed."""
    if not 0 < min_side < max_side:
        raise ValueError("need 0 < min_side < max_side")
    rng = random.Random(seed)
    for _ in range(20000):
        a, b, c = sorted(rng.randint(min_side, max_side) for _ in range(3))
        if a == b or b == c:
            continue
        if a + b <= c:
            continue
        if a * a + b * b == c * c:
            continue
        if require_acute and a * a + b * b < c * c:
            continue
        return RefTriangle(a, b, c)
    raise ExhaustedRetries(
        f"no admissible triangle with sides in [{min_side}, {max_side}]")
