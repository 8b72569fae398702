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

Centers are classified by parity: EVEN centers depend only on the squared side
lengths and can therefore be evaluated on any derived triangle (whose squared
sides are always rational); odd centers need the unsquared sides and are only
available where those are exact (the base, medial, Euler and anticomplementary
triangles).  Each kind is one row of one table, ``_KINDS``: its vertex rows
and its view, both read in integers on its parent's integral view.  The
medial, Euler and anticomplementary triangles rescale that view by their
rational side ratio, and the other four have closed-form squared sides, as
two homothetic pairs, the orthic and tangential triangles (through X25) and
the excentral and midarc triangles (through X1, in the ratio 1/2).  A
triangle's base triangle is itself: it keeps its parent's metric and frame,
the frame of the reference triangle being the identity, which multiplies
nothing, and the medial and anticomplementary frames off the base are
constants, built once at import.  Every other frame is built and checked
once, from its vertices' rows at the scale they come in: the raw rows off
the base's frame, and off any other frame the rows mapped out through it,
made canonical.  It maps the raw triples of centers and conjugates,
canonicalized once on the way out, and gives the vertices back, read off
its matrix, only to a caller that asks for them.
One factory makes the center-expression node types, one table their rules.
"""

from __future__ import annotations

import random
from enum import Enum
from itertools import accumulate
from typing import Callable, NamedTuple, Optional, Sequence

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
    _Frozen,
    _IDENTITY,
    _squares_view,
    canonical_ints,
    collinear,
    equidistant_point,
    foot_of_perpendicular,
    incident,
    join,
    mat_vec,
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

# first barycentric f(a, b, c) of each center, in ETC's notation, on a
# metric's integral view: each rule takes the view's ten cyclic quantities a2,
# b2, c2, SA, SB, SC, S2, a, b, c positionally (the sides None where the view
# has none), and center_coords applies it in the three cyclic orders (every
# rule is homogeneous in the sides, so the view's scale drops out)
_FIRST: dict[CenterId, Callable[..., int]] = {
    CenterId.X1: lambda a2, b2, c2, SA, SB, SC, S2, a, b, c: a,
    CenterId.X2: lambda a2, b2, c2, SA, SB, SC, S2, a, b, c: 1,
    CenterId.X3: lambda a2, b2, c2, SA, SB, SC, S2, a, b, c: a2 * SA,
    CenterId.X4: lambda a2, b2, c2, SA, SB, SC, S2, a, b, c: SB * SC,
    CenterId.X5: lambda a2, b2, c2, SA, SB, SC, S2, a, b, c: S2 + SB * SC,
    CenterId.X6: lambda a2, b2, c2, SA, SB, SC, S2, a, b, c: a2,
    CenterId.X7: lambda a2, b2, c2, SA, SB, SC, S2, a, b, c: (c + a - b) * (a + b - c),
    CenterId.X8: lambda a2, b2, c2, SA, SB, SC, S2, a, b, c: b + c - a,
    CenterId.X9: lambda a2, b2, c2, SA, SB, SC, S2, a, b, c: a * (b + c - a),
    CenterId.X10: lambda a2, b2, c2, SA, SB, SC, S2, a, b, c: b + c,
    CenterId.X20: lambda a2, b2, c2, SA, SB, SC, S2, a, b, c: a2 * SA - SB * SC,
    CenterId.X21: lambda a2, b2, c2, SA, SB, SC, S2, a, b, c:
        a * (b + c - a) * (a + b) * (a + c),
    CenterId.X25: lambda a2, b2, c2, SA, SB, SC, S2, a, b, c: a2 * SB * SC,
    CenterId.X39: lambda a2, b2, c2, SA, SB, SC, S2, a, b, c: a2 * (b2 + c2),
    CenterId.X40: lambda a2, b2, c2, SA, SB, SC, S2, a, b, c:
        a * ((a + b + c) * a * SA - S2),
    CenterId.X54: lambda a2, b2, c2, SA, SB, SC, S2, a, b, c:
        a2 * (S2 + SC * SA) * (S2 + SA * SB),
    CenterId.X57: lambda a2, b2, c2, SA, SB, SC, S2, a, b, c: a * (c + a - b) * (a + b - c),
    CenterId.X64: lambda a2, b2, c2, SA, SB, SC, S2, a, b, c:
        a2 * (b2 * SB - SC * SA) * (c2 * SC - SA * SB),
    CenterId.X69: lambda a2, b2, c2, SA, SB, SC, S2, a, b, c: SA,
    CenterId.X76: lambda a2, b2, c2, SA, SB, SC, S2, a, b, c: b2 * c2,
    CenterId.X84: lambda a2, b2, c2, SA, SB, SC, S2, a, b, c:
        a * ((a + b + c) * b * SB - S2) * ((a + b + c) * c * SC - S2),
    CenterId.X355: lambda a2, b2, c2, SA, SB, SC, S2, a, b, c:
        (a + b + c) * SB * SC + (b + c - a) * S2,
    CenterId.X389: lambda a2, b2, c2, SA, SB, SC, S2, a, b, c:
        a2 * (S2 * S2 - SA * SA * SB * SC),
    CenterId.OMEGA1: lambda a2, b2, c2, SA, SB, SC, S2, a, b, c: a2 * c2,
    CenterId.OMEGA2: lambda a2, b2, c2, SA, SB, SC, S2, a, b, c: a2 * b2,
}

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
    feet = [HomPoint(*v) for v in _derived_rows(m, TriangleKind.ORTHIC)]
    return [foot_of_perpendicular(feet[i], _SIDELINES[j], m)
            for i in range(3) for j in range(3) if j != i]


def center_coords(m: Metric, cid: CenterId) -> tuple[int, int, int]:
    """Raw homogeneous coordinates of a catalog center in the frame of ``m``."""
    if cid in _VERTEX_OF:
        return _VERTEX_OF[cid].triple
    if cid is CenterId.X389:
        _refuse_right(m, TriangleKind.ORTHIC)
    a2, b2, c2, SA, SB, SC, S2, sides, _, _ = m.unit
    if sides is None and cid in ODD_CENTERS:
        raise OddCenterWithoutSides(
            f"{cid.value} needs exact side lengths, which this triangle lacks")
    a, b, c = sides or (None, None, None)
    f = _FIRST[cid]
    return (f(a2, b2, c2, SA, SB, SC, S2, a, b, c),
            f(b2, c2, a2, SB, SC, SA, S2, b, c, a),
            f(c2, a2, b2, SC, SA, SB, S2, c, a, b))


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


def _conjugate_point(conj: str, m: Metric, triple: Sequence[int]) -> tuple[int, int, int]:
    """The raw conjugate (u*y*z : v*z*x : w*x*y) of the point ``triple`` =
    (x : y : z) for the isogonal weights u, v, w = a2, b2, c2 (read on the
    integral view of ``m``) or the isotomic weights 1, 1, 1."""
    if conj == "isogonal":
        u, v, w, *_ = m.unit
    elif conj == "isotomic":
        u = v = w = 1
    else:
        raise ValueError(f"unknown conjugation {conj!r}")
    if 0 in triple:
        raise OnSideline(f"{conj} conjugate of {HomPoint(*triple)} (on a sideline) "
                         "is undefined")
    x, y, z = triple
    return (u * y * z, v * z * x, w * x * y)


def isogonal(m: Metric, p: HomPoint) -> HomPoint:
    return HomPoint(*_conjugate_point("isogonal", m, p.triple))


# ---------------------------------------------------------------------------
# derived triangles

class SubTriangle(_Frozen):
    """A derived triangle: its own metric and the frame of its vertices,
    which maps points into and out of it.  The frame is the one record of
    the vertices: they are read off it, in base coordinates, when first
    asked for, and kept; this is the one place a derived vertex is
    canonicalized."""

    __slots__ = ("kind", "own_metric", "frame", "_vertices")

    def __init__(self, kind: TriangleKind, own_metric: Metric, frame: Frame):
        _set_kind(self, kind)
        _set_metric(self, own_metric)
        _set_frame(self, frame)
        _set_vertices(self, None)

    def __repr__(self) -> str:
        return f"SubTriangle(kind={self.kind!r}, frame={self.frame!r})"

    @property
    def vertices(self) -> tuple[HomPoint, HomPoint, HomPoint]:
        """The frame's base points of the unit rows (its matrix's columns,
        at the scale of the rows the frame was built of), canonicalized
        there; two threads that race both store equal points."""
        vs = self._vertices
        if vs is None:
            base = self.frame.base
            vs = (base((1, 0, 0)), base((0, 1, 0)), base((0, 0, 1)))
            _set_vertices(self, vs)
        return vs

    v1 = property(lambda self: self.vertices[0])
    v2 = property(lambda self: self.vertices[1])
    v3 = property(lambda self: self.vertices[2])

    def metric(self) -> Metric:
        return self.own_metric


# the slots' own setters, past _Frozen
_set_kind, _set_metric, _set_frame, _set_vertices = (
    getattr(SubTriangle, name).__set__ for name in SubTriangle.__slots__)


def _euler_rows(u: IntegralView):
    """Midpoints of each vertex with the orthocenter."""
    sbc, sca, sab = u.SB * u.SC, u.SC * u.SA, u.SA * u.SB
    return ((u.S2 + sbc, sca, sab), (sbc, u.S2 + sca, sab), (sbc, sca, u.S2 + sab))


def _excentral_rows(u: IntegralView):
    """The excenters."""
    a, b, c = u.sides
    return ((-a, b, c), (a, -b, c), (a, b, -c))


def _midarc_rows(u: IntegralView):
    """Second intersections of the internal bisectors with the circumcircle."""
    a, b, c = u.sides
    return ((-u.a2, b * (b + c), c * (b + c)), (a * (c + a), -u.b2, c * (c + a)),
            (a * (a + b), b * (a + b), -u.c2))


def _orthic_squares(u: IntegralView) -> tuple[int, int, int]:
    """(a2*SA)**2, cyclically: the orthic triangle's squared sides,
    a^2 cos^2 A = a^2 SA^2/(b^2 c^2), times q*a2*b2*c2."""
    return ((u.a2 * u.SA) ** 2, (u.b2 * u.SB) ** 2, (u.c2 * u.SC) ** 2)


def _excentral_squares(u: IntegralView) -> tuple[int, int, int]:
    """2*a2*bc*(bc + SA), cyclically: the excentral triangle's squared
    sides, 16 R^2 cos^2(A/2) = 2 a^2 b c (b c + SA)/S2, times q*S2."""
    a, b, c = u.sides
    bc, ca, ab = b * c, c * a, a * b
    return (2 * u.a2 * bc * (bc + u.SA), 2 * u.b2 * ca * (ca + u.SB),
            2 * u.c2 * ab * (ab + u.SC))


# each kind's vertex rows, in its parent's frame, and its view, both read on
# the parent's view.  The view is the parent's rescaled by the side ratio n/d
# where it is rational, else closed-form squared sides over one denominator,
# reduced by _squares_view, as two homothetic pairs: the tangential triangle
# is the orthic one's image through X25, in the ratio a2*b2*c2/(2*SA*SB*SC),
# and the midarc triangle the excentral one's image through X1, ratio 1/2.
_KINDS: dict[TriangleKind, tuple[Callable, Callable[[IntegralView], IntegralView]]] = {
    TriangleKind.BASE: (lambda u: ((1, 0, 0), (0, 1, 0), (0, 0, 1)), lambda u: u),
    TriangleKind.MEDIAL: (lambda u: ((0, 1, 1), (1, 0, 1), (1, 1, 0)),
                          lambda u: u.scaled(1, 2)),
    TriangleKind.EULER: (_euler_rows, lambda u: u.scaled(1, 2)),
    TriangleKind.ANTICOMPLEMENTARY: (lambda u: ((-1, 1, 1), (1, -1, 1), (1, 1, -1)),
                                     lambda u: u.scaled(2, 1)),
    TriangleKind.ORTHIC: (
        lambda u: ((0, u.SC, u.SB), (u.SC, 0, u.SA), (u.SB, u.SA, 0)),
        lambda u: _squares_view(_orthic_squares(u), u.q * u.a2 * u.b2 * u.c2)),
    TriangleKind.TANGENTIAL: (
        lambda u: ((-u.a2, u.b2, u.c2), (u.a2, -u.b2, u.c2), (u.a2, u.b2, -u.c2)),
        lambda u: _squares_view([n * u.a2 * u.b2 * u.c2 for n in _orthic_squares(u)],
                                4 * u.q * (u.SA * u.SB * u.SC) ** 2)),
    TriangleKind.EXCENTRAL: (_excentral_rows,
                             lambda u: _squares_view(_excentral_squares(u), u.q * u.S2)),
    TriangleKind.MIDARC: (_midarc_rows,
                          lambda u: _squares_view(_excentral_squares(u), 4 * u.q * u.S2)),
}

# the kinds whose rows and view read the sides, and what their vertices are
_NEEDS_SIDES = {TriangleKind.EXCENTRAL: "excenters", TriangleKind.MIDARC: "arc midpoints"}

# the frames of the kinds whose rows off the base are constants, built once
# from their _KINDS rows, as the base's own frame is
_BASE_FRAMES = {kind: Frame.of(*_KINDS[kind][0](None))
                for kind in (TriangleKind.MEDIAL, TriangleKind.ANTICOMPLEMENTARY)}


def _derived_rows(m: Metric, kind: TriangleKind):
    """Vertex coordinate triples of the ``kind`` triangle in the frame of
    ``m``, by its row of ``_KINDS``; a kind of ``_NEEDS_SIDES`` refuses a
    parent without sides, and no kind a right one."""
    if kind in _NEEDS_SIDES and not m.has_sides:
        raise OddCenterWithoutSides(f"{_NEEDS_SIDES[kind]} need exact side lengths")
    return _KINDS[kind][0](m.unit)


def _derive(m: Metric, frame: Frame, kind: TriangleKind) -> SubTriangle:
    """The ``kind`` triangle of the triangle with metric ``m`` and ``frame``;
    the orthic and tangential triangles of a right triangle raise
    :class:`RightTriangle`.  A triangle's base triangle is itself: it keeps
    ``m`` and ``frame``.  Any other kind's rows and view are read off ``m``'s
    by its row of ``_KINDS``.  The new frame takes its rows at the scale they
    come in: the raw rows where ``frame`` is the base's, else the rows
    mapped out through ``frame``'s matrix and made canonical, so that it
    does not carry the scale of ``frame``.  The medial and
    anticomplementary triangles of a triangle in the base's frame take
    their frame, a constant, from ``_BASE_FRAMES``."""
    _refuse_right(m, kind)
    if kind is TriangleKind.BASE:
        return SubTriangle(kind, m, frame)
    if frame is _IDENTITY and kind in _BASE_FRAMES:
        return SubTriangle(kind, Metric.of_view(_KINDS[kind][1](m.unit)),
                           _BASE_FRAMES[kind])
    local, own = _derived_rows(m, kind), _KINDS[kind][1](m.unit)
    rows = (local if frame is _IDENTITY
            else [canonical_ints(mat_vec(frame.matrix, row)) for row in local])
    return SubTriangle(kind, Metric.of_view(own), Frame.of(*rows))


def derived_subtriangle(parent: SubTriangle, kind: TriangleKind) -> SubTriangle:
    """The ``kind`` triangle of ``parent``, with vertices in base coordinates."""
    return _derive(parent.metric(), parent.frame, kind)


def derived_triangle(t: RefTriangle, kind: TriangleKind) -> SubTriangle:
    """The ``kind`` triangle of the base, whose frame is the identity."""
    return _derive(t, _IDENTITY, kind)


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

def _node_eq(self, other) -> bool:
    return type(other) is type(self) and tuple.__eq__(self, other)


def _node_ne(self, other) -> bool:
    return not _node_eq(self, other)


def _node_hash(self) -> int:
    return hash((type(self).__name__, *self))


def _node(name: str, *fields: tuple[str, object]) -> type:
    """The ``NamedTuple`` node type of the (name, type) ``fields``: equal and
    hash-equal only to nodes of its own type, unlike two equal bare tuples."""
    cls = NamedTuple(name, fields)
    cls.__eq__, cls.__ne__, cls.__hash__ = _node_eq, _node_ne, _node_hash
    return cls


_E = "CenterExpr"  # the type of a field that holds a node

Catalog = _node("Catalog", ("cid", CenterId))
MidpointOf = _node("MidpointOf", ("e1", _E), ("e2", _E))
ReflectThrough = _node("ReflectThrough", ("through", _E), ("point", _E))
Complement = _node("Complement", ("e", _E))
Anticomplement = _node("Anticomplement", ("e", _E))
# conj is "isogonal" or "isotomic"
ConjugateIn = _node("ConjugateIn", ("conj", str), ("kind", TriangleKind), ("e", _E))
CenterOf = _node("CenterOf", ("kind", TriangleKind), ("cid", CenterId))
VertexOf = _node("VertexOf", ("kind", TriangleKind), ("index", int))

# the node types, for isinstance; a typing.Union would keep old imports alive
CenterExpr = (Catalog, MidpointOf, ReflectThrough, Complement, Anticomplement,
              ConjugateIn, CenterOf, VertexOf)


def _sub(t: RefTriangle, kind: TriangleKind, memo: dict) -> SubTriangle:
    """The ``kind`` triangle of ``t``, derived once per memo."""
    if (sub := memo.get(kind)) is None:
        memo[kind] = sub = derived_triangle(t, kind)
    return sub


def _conjugate_rule(t: RefTriangle, e: ConjugateIn, memo: dict) -> HomPoint:
    p = _eval(t, e.e, memo)  # first: a refusal here derives no triangle
    return conjugate(_sub(t, e.kind, memo), e.conj, p)


# one rule per node type; each reads its callees as globals per call, for rebinding
_RULES: dict[type, Callable[[RefTriangle, CenterExpr, dict], HomPoint]] = {
    Catalog: lambda t, e, memo: eval_center(t, e.cid),
    MidpointOf: lambda t, e, memo: midpoint(_eval(t, e.e1, memo), _eval(t, e.e2, memo)),
    ReflectThrough: lambda t, e, memo: reflect_through(
        _eval(t, e.through, memo), _eval(t, e.point, memo)),
    Complement: lambda t, e, memo: complement(_eval(t, e.e, memo)),
    Anticomplement: lambda t, e, memo: anticomplement(_eval(t, e.e, memo)),
    ConjugateIn: _conjugate_rule,
    CenterOf: lambda t, e, memo: eval_center_in(_sub(t, e.kind, memo), e.cid),
    VertexOf: lambda t, e, memo: _sub(t, e.kind, memo).vertices[e.index],
}


def _eval(t: RefTriangle, e: CenterExpr, memo: dict) -> HomPoint:
    rule = _RULES.get(type(e))
    if rule is None:
        raise TypeError(f"not a center expression: {e!r}")
    return rule(t, e, memo)


def eval_expr(t: RefTriangle, e: CenterExpr, _subs: Optional[dict] = None) -> HomPoint:
    """Evaluate a composite center expression on the base triangle."""
    return _eval(t, e, {} if _subs is None else _subs)


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
    """The comma-separated arguments of ``body`` at nesting depth 0, each
    stripped; a last part that is empty before stripping is dropped.  A
    piece between commas opens a new part while the count of ``(`` less
    ``)`` before it is 0, and joins the open part otherwise."""
    parts, depth = [], 0
    for piece in body.split(","):
        if depth:
            parts[-1] += "," + piece
        else:
            parts.append(piece)
        if "(" in piece or ")" in piece:
            depth += piece.count("(") - piece.count(")")
    if not parts[-1]:
        parts.pop()
    return [part.strip() for part in parts]


def _kind_of(s: str) -> TriangleKind:
    if s not in _KIND_NAMES:
        raise CenterParseError(f"unknown triangle kind {s!r}")
    return _KIND_NAMES[s]


def _cid_of(s: str) -> CenterId:
    e = _parse(s)
    if not isinstance(e, Catalog):
        raise CenterParseError(f"{s!r} is not a catalog center")
    return e.cid


def _index_of(s: str) -> int:
    if s not in ("0", "1", "2"):
        raise CenterParseError(f"vertex index must be 0, 1 or 2, got {s!r}")
    return int(s)


def parse_center(text: str) -> CenterExpr:
    """Parse a center name, alias, or functional expression.

    Grammar: NAME | fn(args) with fn in {midpoint, reflect, complement,
    anticomplement, isogonal, isotomic, center, vertex, antipode}; triangle
    kinds are named base/excentral/medial/orthic/anticomplementary/euler/
    midarc/tangential; vertex and antipode take a kind and an index 0-2, and
    ``antipode(k,i)`` is the reflection ``reflect(center(k,X3),vertex(k,i))``.
    Expressions nested more than ``MAX_NESTING`` deep are refused.
    """
    # checked once: an argument never nests deeper than the text around it,
    # and the text never deeper than its count of "("
    if text.count("(") > MAX_NESTING and max(accumulate(
            ((ch == "(") - (ch == ")") for ch in text), initial=0)) > MAX_NESTING:
        raise CenterParseError(f"center expression nests deeper than {MAX_NESTING}")
    return _parse(text)


def _parse(text: str) -> CenterExpr:
    e = _NAMES.get(text)  # a bare name holds no space or "(" to strip or split
    if e is not None:
        return e
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
    if fn == "midpoint" and len(args) == 2:
        return MidpointOf(_parse(args[0]), _parse(args[1]))
    if fn == "reflect" and len(args) == 2:
        return ReflectThrough(_parse(args[0]), _parse(args[1]))
    if fn == "complement" and len(args) == 1:
        return Complement(_parse(args[0]))
    if fn == "anticomplement" and len(args) == 1:
        return Anticomplement(_parse(args[0]))
    if fn in ("isogonal", "isotomic") and len(args) in (1, 2):
        kind = _kind_of(args[0]) if len(args) == 2 else TriangleKind.BASE
        return ConjugateIn(fn, kind, _parse(args[-1]))
    if fn == "center" and len(args) == 2:
        return CenterOf(_kind_of(args[0]), _cid_of(args[1]))
    if fn == "vertex" and len(args) == 2:
        return VertexOf(_kind_of(args[0]), _index_of(args[1]))
    if fn == "antipode" and len(args) == 2:
        kind = _kind_of(args[0])
        return ReflectThrough(CenterOf(kind, CenterId.X3),
                              VertexOf(kind, _index_of(args[1])))
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


def _kosnita_lines(t: RefTriangle) -> list[HomLine]:
    """Lines from each vertex to the circumcenter of O and the opposite
    side, which meet at X54; on a right triangle O lies on the hypotenuse,
    and that side's line is dropped."""
    o = eval_center(t, CenterId.X3)
    return [join(v, equidistant_point(o, p, q, t))
            for v, (p, q) in zip(_VERTICES, _SIDE_PAIRS) if not collinear(o, p, q)]


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
    CenterId.X54: _kosnita_lines,
    # each altitude foot joined to the opposite tangential vertex; on a right
    # triangle, where both triangles degenerate, the lines still meet at X25
    CenterId.X25: lambda t: [join(HomPoint(*f), HomPoint(*g)) for f, g in zip(
        _derived_rows(t, TriangleKind.ORTHIC),
        _derived_rows(t, TriangleKind.TANGENTIAL))],
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

def random_triangle(seed: int) -> RefTriangle:
    """Deterministic scalene non-right integer triangle from a seed, its
    sides drawn in [5, 80]."""
    rng = random.Random(seed)
    for _ in range(20000):
        a, b, c = sorted(rng.randint(5, 80) for _ in range(3))
        if a == b or b == c or a + b <= c or a * a + b * b == c * c:
            continue
        return RefTriangle(a, b, c)
    raise ExhaustedRetries("no admissible triangle with sides in [5, 80]")
