"""Triangle-center catalog, derived triangles, conjugations, and oracles.

Every center carries two independent things: an evaluation rule (a closed
barycentric formula or an explicit construction, rational in the side
lengths) and a defining-property oracle that re-derives the center from
first principles.  X389, for one, is the formula a^2 (S^4 - SA^2 SB SC)
of Kimberling's ETC, the midpoint of X3 and X52 (the orthic triangle's
orthocenter), and is checked as the point equidistant from the six Taylor
points.  Each oracle is one row of one of three tables: an identity in the
center-expression language (``IDENTITIES``, e.g. X5 is
``midpoint(X3,X4)``), lines the center lies on (``ON_LINES``: cevians,
altitudes, Euler lines) or points it is equidistant from (``EQUIDISTANT``).
A row names only other centers.  :func:`validate_center_oracles` runs the
oracles; a formula that disagrees with its oracle is a bug in the formula.

Centers are classified by parity: EVEN centers depend only on the squared
side lengths and can therefore be evaluated on any derived triangle (whose
squared sides are always rational); odd centers need the unsquared sides
and are only available where those are exact (the base, medial, Euler and
anticomplementary triangles).  The base is the ``BASE`` derived triangle, its
frame the identity; each frame is checked once, when built, and maps the raw
triples of centers, conjugates and vertices, canonicalized once on the way out.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from typing import Callable, Optional, Sequence, Union

from .kernel import (
    Frame,
    GeometryError,
    HomLine,
    HomPoint,
    IntegralView,
    Metric,
    RefTriangle,
    VERTEX_A,
    VERTEX_B,
    VERTEX_C,
    equidistant_point,
    foot_of_perpendicular,
    incident,
    join,
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

# first barycentric of each center, read on a metric's integral view (every
# rule is homogeneous in the sides, so the view's scale drops out)
_FIRST: dict[CenterId, Callable[[IntegralView], int]] = {
    CenterId.X1: lambda m: m.a,
    CenterId.X2: lambda m: 1,
    CenterId.X3: lambda m: m.a2 * m.SA,
    CenterId.X4: lambda m: m.SB * m.SC,
    CenterId.X5: lambda m: m.S2 + m.SB * m.SC,
    CenterId.X6: lambda m: m.a2,
    CenterId.X7: lambda m: (m.c + m.a - m.b) * (m.a + m.b - m.c),
    CenterId.X8: lambda m: m.b + m.c - m.a,
    CenterId.X9: lambda m: m.a * (m.b + m.c - m.a),
    CenterId.X10: lambda m: m.b + m.c,
    CenterId.X20: lambda m: m.a2 * m.SA - m.SB * m.SC,
    CenterId.X21: lambda m: m.a * (m.b + m.c - m.a) * (m.a + m.b) * (m.a + m.c),
    CenterId.X25: lambda m: m.a2 * m.SB * m.SC,
    CenterId.X39: lambda m: m.a2 * (m.b2 + m.c2),
    CenterId.X40: lambda m: m.a * ((m.a + m.b + m.c) * m.a * m.SA - m.S2),
    CenterId.X69: lambda m: m.SA,
    CenterId.X76: lambda m: m.b2 * m.c2,
    CenterId.X355: lambda m: (m.a + m.b + m.c) * m.SB * m.SC
    + (m.b + m.c - m.a) * m.S2,
    CenterId.X389: lambda m: m.a2 * (m.S2 * m.S2 - m.SA * m.SA * m.SB * m.SC),
    CenterId.OMEGA1: lambda m: m.a2 * m.c2,
    CenterId.OMEGA2: lambda m: m.a2 * m.b2,
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

_VERTICES = (VERTEX_A, VERTEX_B, VERTEX_C)
_VERTEX_OF = dict(zip((CenterId.VERTEX_A, CenterId.VERTEX_B, CenterId.VERTEX_C),
                       _VERTICES))
_SIDE_PAIRS = ((VERTEX_B, VERTEX_C), (VERTEX_C, VERTEX_A), (VERTEX_A, VERTEX_B))
_SIDELINES = tuple(join(*pair) for pair in _SIDE_PAIRS)


def _refuse_right(m: Metric, kind: TriangleKind) -> None:
    """The orthic and tangential triangles of a right triangle are degenerate."""
    if kind in (TriangleKind.ORTHIC, TriangleKind.TANGENTIAL) and m.is_right():
        raise RightTriangle(f"{kind.value} triangle of a right triangle is degenerate")


def _taylor_points(m: Metric) -> list[HomPoint]:
    """Projections of each altitude foot onto the other two sides (6 points)."""
    _refuse_right(m, TriangleKind.ORTHIC)
    feet = [HomPoint(*v) for v in _derived_rows(m, TriangleKind.ORTHIC)[0]]
    return [foot_of_perpendicular(feet[i], _SIDELINES[j], m)
            for i in range(3) for j in range(3) if j != i]


def center_coords(m: Metric, cid: CenterId) -> tuple[int, int, int]:
    """Raw homogeneous coordinates of a catalog center in the frame of ``m``."""
    if cid in _VERTEX_OF:
        return _VERTEX_OF[cid].triple
    if cid is CenterId.X389:
        _refuse_right(m, TriangleKind.ORTHIC)
    if cid in ODD_CENTERS and not m.has_sides:
        raise OddCenterWithoutSides(
            f"{cid.value} needs exact side lengths, which this triangle lacks")
    u = m.unit
    if cid in _ISOGONAL_OF:
        # unchecked, unlike isogonal(), which refuses a partner on a sideline
        return _conjugate((u.a2, u.b2, u.c2), center_coords(m, _ISOGONAL_OF[cid]))
    f = _FIRST[cid]
    r = u.rot()
    return (f(u), f(r), f(r.rot()))


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


def _conjugate(weights: Sequence[int], triple: Sequence[int]) -> tuple[int, int, int]:
    """The conjugate (u*y*z : v*z*x : w*x*y) of (x : y : z) for weights (u, v, w)."""
    (u, v, w), (x, y, z) = weights, triple
    return (u * y * z, v * z * x, w * x * y)


def _conjugate_point(conj: str, m: Metric, triple: Sequence[int]) -> tuple[int, int, int]:
    """The raw conjugate of the point ``triple`` for the isogonal weights a2,
    b2, c2 (read on the integral view of ``m``) or the isotomic weights 1, 1, 1."""
    if conj == "isogonal":
        u = m.unit
        weights = (u.a2, u.b2, u.c2)
    elif conj == "isotomic":
        weights = (1, 1, 1)
    else:
        raise ValueError(f"unknown conjugation {conj!r}")
    if 0 in triple:
        raise OnSideline(f"{conj} conjugate of {HomPoint(*triple)} (on a sideline) "
                         "is undefined")
    return _conjugate(weights, triple)


def isogonal(m: Metric, p: HomPoint) -> HomPoint:
    return HomPoint(*_conjugate_point("isogonal", m, p.triple))


# ---------------------------------------------------------------------------
# derived triangles

@dataclass(frozen=True)
class SubTriangle:
    """A derived triangle: vertices in base coordinates, its own metric and
    the frame of its vertices, which maps points into and out of it."""

    kind: TriangleKind
    v1: HomPoint
    v2: HomPoint
    v3: HomPoint
    own_metric: Metric
    frame: Frame

    @property
    def vertices(self) -> tuple[HomPoint, HomPoint, HomPoint]:
        return (self.v1, self.v2, self.v3)

    def metric(self) -> Metric:
        return self.own_metric


def _derived_rows(m: Metric, kind: TriangleKind):
    """Vertex coordinate triples of the derived triangle, in the frame of
    ``m`` (read on its integral view), and the ratio n/d of the derived
    triangle's sides to the frame's as the pair (n, d), (1, 1), (1, 2) or
    (2, 1), where it is rational, else ``None``.  No right triangle is
    refused here."""
    u = m.unit
    if kind is TriangleKind.BASE:
        return ((1, 0, 0), (0, 1, 0), (0, 0, 1)), (1, 1)
    if kind is TriangleKind.EXCENTRAL:
        if not m.has_sides:
            raise OddCenterWithoutSides("excenters need exact side lengths")
        a, b, c = u.sides
        return ((-a, b, c), (a, -b, c), (a, b, -c)), None
    if kind is TriangleKind.MEDIAL:
        return ((0, 1, 1), (1, 0, 1), (1, 1, 0)), (1, 2)
    if kind is TriangleKind.ORTHIC:
        return ((0, u.SC, u.SB), (u.SC, 0, u.SA), (u.SB, u.SA, 0)), None
    if kind is TriangleKind.ANTICOMPLEMENTARY:
        return ((-1, 1, 1), (1, -1, 1), (1, 1, -1)), (2, 1)
    if kind is TriangleKind.EULER:
        # midpoints of each vertex with the orthocenter
        sbc, sca, sab = u.SB * u.SC, u.SC * u.SA, u.SA * u.SB
        return (
            (u.S2 + sbc, sca, sab),
            (sbc, u.S2 + sca, sab),
            (sbc, sca, u.S2 + sab),
        ), (1, 2)
    if kind is TriangleKind.MIDARC:
        # second intersections of the internal bisectors with the circumcircle
        if not m.has_sides:
            raise OddCenterWithoutSides("arc midpoints need exact side lengths")
        a, b, c = u.sides
        return (
            (-u.a2, b * (b + c), c * (b + c)),
            (a * (c + a), -u.b2, c * (c + a)),
            (a * (a + b), b * (a + b), -u.c2),
        ), None
    if kind is TriangleKind.TANGENTIAL:
        return ((-u.a2, u.b2, u.c2), (u.a2, -u.b2, u.c2), (u.a2, u.b2, -u.c2)), None
    raise ValueError(f"unknown triangle kind {kind}")


def _rescaled(u: IntegralView, n: int, d: int) -> IntegralView:
    """The view of a triangle with sides n/d times those of ``u``, without
    division: squared sides and SA, SB, SC times n^2, S2 times n^4, q times
    d^2, k times d and the sides times n."""
    n2 = n * n
    return IntegralView(n2 * u.a2, n2 * u.b2, n2 * u.c2, n2 * u.SA, n2 * u.SB,
                        n2 * u.SC, n2 * n2 * u.S2,
                        None if u.sides is None else tuple(n * s for s in u.sides),
                        d * d * u.q, None if u.k is None else d * u.k)


def _derive(m: Metric, kind: TriangleKind, frame: Optional[Frame]) -> SubTriangle:
    """The ``kind`` triangle of the triangle ``m`` describes, whose frame in
    base coordinates is ``frame`` (``None`` for the base itself); the orthic
    and tangential triangles of a right triangle raise :class:`RightTriangle`.
    Its metric is ``m``'s view rescaled where the side ratio is rational,
    else read off the squared distances between its vertices in ``m``,
    which no frame changes; the vertices are mapped out after that."""
    _refuse_right(m, kind)
    local, ratio = _derived_rows(m, kind)
    points = tuple(HomPoint(*v) for v in local)
    if ratio is not None:
        own = Metric.of_view(_rescaled(m.unit, *ratio))
    else:
        own = Metric(squared_distance(points[1], points[2], m),
                     squared_distance(points[2], points[0], m),
                     squared_distance(points[0], points[1], m))
    if frame is not None:
        points = tuple(frame.base(v) for v in local)
    return SubTriangle(kind, *points, own, Frame.of(*points))


def derived_triangle(t: RefTriangle, kind: TriangleKind) -> SubTriangle:
    """A derived triangle of the base, with vertices in base coordinates;
    the ``BASE`` kind is the base itself, whose frame is the identity."""
    return _derive(t, kind, None)


def derived_subtriangle(sub: SubTriangle, kind: TriangleKind) -> SubTriangle:
    """A derived triangle of a derived triangle, mapped to base coordinates."""
    return _derive(sub.metric(), kind, sub.frame)


def eval_center_in(sub: SubTriangle, cid: CenterId) -> HomPoint:
    """Catalog center of a derived triangle, mapped back to base coordinates."""
    return sub.frame.base(center_coords(sub.metric(), cid))


def conjugate(sub: SubTriangle, conj: str, p: HomPoint) -> HomPoint:
    """The ``conj`` ("isogonal" or "isotomic") conjugate of ``p`` relative to
    ``sub``, in base coordinates: taken in its frame and mapped back."""
    return sub.frame.base(_conjugate_point(conj, sub.metric(), sub.frame.local(p)))


def isogonal_in(t: RefTriangle, sub: SubTriangle, p: HomPoint) -> HomPoint:
    """Isogonal conjugate relative to a derived triangle, in base coordinates."""
    return conjugate(sub, "isogonal", p)


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
class ConjugateIn:
    conj: str  # "isogonal" or "isotomic"
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
    ConjugateIn, CenterOf, VertexOf, AntipodeOf,
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
        if isinstance(expr, ConjugateIn):
            p = rec(expr.e)
            return conjugate(sub_of(expr.kind), expr.conj, p)
        if isinstance(expr, CenterOf):
            return eval_center_in(sub_of(expr.kind), expr.cid)
        if isinstance(expr, VertexOf):
            return sub_of(expr.kind).vertices[expr.index]
        if isinstance(expr, AntipodeOf):
            sub = sub_of(expr.kind)
            o = eval_center_in(sub, CenterId.X3)
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
    "LP": ConjugateIn("isogonal", TriangleKind.BASE, Catalog(CenterId.X20)),
    "BeP": ConjugateIn("isogonal", TriangleKind.BASE, Catalog(CenterId.X40)),
    "MiP": ConjugateIn("isogonal", TriangleKind.BASE, Catalog(CenterId.X9)),
    "MiPP": ConjugateIn("isogonal", TriangleKind.EXCENTRAL, Catalog(CenterId.X9)),
    "SyA": Anticomplement(Catalog(CenterId.X6)),
    "HA": ConjugateIn("isogonal", TriangleKind.MEDIAL,
                      CenterOf(TriangleKind.MEDIAL, CenterId.X20)),
    "M_IH": MidpointOf(Catalog(CenterId.X1), Catalog(CenterId.X4)),
    "M_MH": MidpointOf(Catalog(CenterId.X2), Catalog(CenterId.X4)),
    "M_MiI": MidpointOf(Catalog(CenterId.X9), Catalog(CenterId.X1)),
}

# every bare name parse_center accepts; an alias wins over a catalog id
_NAMES: dict[str, CenterExpr] = {**{cid.value: Catalog(cid) for cid in CenterId},
                                 **ALIASES}
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
    # checked once: an argument never nests deeper than the text around it
    depth = max(accumulate(((ch == "(") - (ch == ")") for ch in text), initial=0))
    if depth > MAX_NESTING:
        raise CenterParseError(f"center expression nests deeper than {MAX_NESTING}")
    return _parse(text)


def _parse(text: str) -> CenterExpr:
    text = text.strip()
    if not text:
        raise CenterParseError("empty center expression")
    if "(" not in text:
        if text in _NAMES:
            return _NAMES[text]
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
        e = _parse(s)
        if not isinstance(e, Catalog):
            raise CenterParseError(f"{s!r} is not a catalog center")
        return e.cid

    def index_of(s: str) -> int:
        if s not in ("0", "1", "2"):
            raise CenterParseError(f"vertex index must be 0, 1 or 2, got {s!r}")
        return int(s)

    if fn == "midpoint" and len(args) == 2:
        return MidpointOf(_parse(args[0]), _parse(args[1]))
    if fn == "reflect" and len(args) == 2:
        return ReflectThrough(_parse(args[0]), _parse(args[1]))
    if fn == "complement" and len(args) == 1:
        return Complement(_parse(args[0]))
    if fn == "anticomplement" and len(args) == 1:
        return Anticomplement(_parse(args[0]))
    if fn in ("isogonal", "isotomic") and len(args) in (1, 2):
        kind = kind_of(args[0]) if len(args) == 2 else TriangleKind.BASE
        return ConjugateIn(fn, kind, _parse(args[-1]))
    if fn == "center" and len(args) == 2:
        return CenterOf(kind_of(args[0]), cid_of(args[1]))
    if fn == "vertex" and len(args) == 2:
        return VertexOf(kind_of(args[0]), index_of(args[1]))
    if fn == "antipode" and len(args) == 2:
        return AntipodeOf(kind_of(args[0]), index_of(args[1]))
    raise CenterParseError(f"cannot parse center expression {text!r}")


# ---------------------------------------------------------------------------
# defining-property oracles
#
# Each center's oracle is one row of exactly one of three tables, after the
# defining properties in Kimberling's Encyclopedia of Triangle Centers.  A
# row names only other centers, so an oracle never consults the formula it
# checks.

# the center equals the expression
IDENTITIES: dict[CenterId, CenterExpr] = {cid: parse_center(text) for cid, text in {
    CenterId.X5: "midpoint(X3,X4)",
    CenterId.X6: "isogonal(X2)",
    CenterId.X9: "center(medial,X7)",
    CenterId.X10: "complement(X1)",
    CenterId.X20: "reflect(X3,X4)",
    CenterId.X39: "midpoint(BrocardOmega1,BrocardOmega2)",
    CenterId.X40: "reflect(X3,X1)",
    CenterId.X54: "isogonal(X5)",
    CenterId.X57: "isogonal(X9)",
    CenterId.X64: "isogonal(X20)",
    CenterId.X69: "isotomic(X4)",
    CenterId.X76: "isotomic(X6)",
    CenterId.X84: "isogonal(X40)",
    CenterId.X355: "midpoint(X4,X8)",
    CenterId.OMEGA1: "isogonal(BrocardOmega2)",
    CenterId.OMEGA2: "isogonal(BrocardOmega1)",
    CenterId.VERTEX_A: "vertex(base,0)",
    CenterId.VERTEX_B: "vertex(base,1)",
    CenterId.VERTEX_C: "vertex(base,2)",
}.items()}


def _cevians(weights: Callable[[RefTriangle], tuple]) -> Callable[[RefTriangle], list]:
    """Lines from each vertex to the feet (0:v:w), (u:0:w), (u:v:0) of the
    weights (u, v, w)."""
    def lines(t: RefTriangle) -> list[HomLine]:
        u, v, w = weights(t)
        feet = (HomPoint(0, v, w), HomPoint(u, 0, w), HomPoint(u, v, 0))
        return [join(vertex, foot) for vertex, foot in zip(_VERTICES, feet)]
    return lines


def _euler_line_of(p1: HomPoint, p2: HomPoint, p3: HomPoint, m: Metric) -> HomLine:
    return join(equidistant_point(p1, p2, p3, m), orthocenter_of(p1, p2, p3, m))


# the center lies on every line
ON_LINES: dict[CenterId, Callable[[RefTriangle], list[HomLine]]] = {
    CenterId.X1: _cevians(lambda t: t.sides),  # angle bisectors
    CenterId.X2: _cevians(lambda t: (1, 1, 1)),  # medians
    CenterId.X4: lambda t: [perpendicular_line_through(side, vertex, t)
                            for vertex, side in zip(_VERTICES, _SIDELINES)],
    # cevians to the incircle touch points, (0 : s-c : s-b), ..., and to the
    # excircle touch points, (0 : s-b : s-c), ...
    CenterId.X7: _cevians(lambda t: (
        1 / (t.b + t.c - t.a), 1 / (t.c + t.a - t.b), 1 / (t.a + t.b - t.c))),
    CenterId.X8: _cevians(lambda t: (t.b + t.c - t.a, t.c + t.a - t.b, t.a + t.b - t.c)),
    # Euler lines of IBC, ICA, IAB and ABC
    CenterId.X21: lambda t: [_euler_line_of(*tri, t) for tri in (
        *((eval_center(t, CenterId.X1), *pair) for pair in _SIDE_PAIRS), _VERTICES)],
    # each altitude foot joined to the opposite tangential vertex; on a right
    # triangle, where both triangles degenerate, the lines still meet at X25
    CenterId.X25: lambda t: [join(HomPoint(*f), HomPoint(*g)) for f, g in zip(
        _derived_rows(t, TriangleKind.ORTHIC)[0],
        _derived_rows(t, TriangleKind.TANGENTIAL)[0])],
}

# the center is equidistant from every point
EQUIDISTANT: dict[CenterId, Callable[[RefTriangle], Sequence[HomPoint]]] = {
    CenterId.X3: lambda t: _VERTICES,
    CenterId.X389: _taylor_points,
}


def _oracle_holds(t: RefTriangle, cid: CenterId) -> bool:
    p = eval_center(t, cid)
    if cid in IDENTITIES:
        return p == eval_expr(t, IDENTITIES[cid])
    if cid in ON_LINES:
        return all(incident(p, line) for line in ON_LINES[cid](t))
    d0, *rest = (squared_distance(p, q, t) for q in EQUIDISTANT[cid](t))
    return all(d == d0 for d in rest)


def validate_center_oracles(t: RefTriangle) -> list[tuple[CenterId, bool]]:
    """Run every center's defining-property oracle; report falsified entries."""
    out = []
    for cid in CATALOG:
        try:
            ok = _oracle_holds(t, cid)
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
