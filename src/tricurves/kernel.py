"""Exact projective and affine geometry over homogeneous rational coordinates.

Points and lines are homogeneous integer triples relative to a reference
triangle given by rational side lengths; the triangle's vertices are
(1:0:0), (0:1:0) and (0:0:1).  Every triple is kept in canonical form
(coprime integers, first nonzero entry positive), so equality of values is
equality of the geometric objects they represent.

Metric predicates are routed through the symbols

    SA = (b^2 + c^2 - a^2) / 2      (and cyclically SB, SC)
    S2 = SA*SB + SB*SC + SC*SA      (square of twice the area)

which make squared distances, perpendicular feet and perpendicularity of
directions rational functions of the squared side lengths.  The module is
floating-point free: all arithmetic is ``int`` / ``fractions.Fraction``.

Each ``Metric`` also carries ``unit``, one integral view of the same
triangle (an :class:`IntegralView`, built once in ``__init__`` and permuted
by ``rot()``): its squared sides, SA, SB, SC and S2 are integers.  Squared
distances, perpendicular directions and bisectors here, and the center
formulas, conjugation weights and derived-triangle vertices in
``tricurves.centers``, read it instead of the fractional fields; each of
those formulas is homogeneous in the sides, so the view's scale drops out
of every canonical result.  The public fields keep the given scale, and
``squared_distance`` divides the scale back out.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

Rat = Union[int, Fraction]


class GeometryError(Exception):
    """Base class for every error raised by the exact-geometry core."""


class ZeroVector(GeometryError):
    """A homogeneous tuple with all entries zero was produced or supplied."""


class CoincidentArguments(GeometryError):
    """Two arguments that must be distinct canonical objects coincide."""


class PointAtInfinity(GeometryError):
    """A finite point was required but the coordinates sum to zero."""


class LineAtInfinity(GeometryError):
    """The line at infinity is not a valid argument here."""


class WeightSumNotOne(GeometryError):
    """Weights of an affine combination must sum to exactly one."""


class NotADirection(GeometryError):
    """Expected a point at infinity (coordinate sum zero)."""


class DegenerateFrame(GeometryError):
    """Three supposed frame points are affinely dependent or unusable."""


class InvalidTriangle(GeometryError):
    """Side lengths do not describe a nondegenerate triangle."""


# ---------------------------------------------------------------------------
# canonicalization

_bit_high_water = 0


def reset_bit_high_water() -> None:
    """Reset the running maximum of canonicalized integer bit lengths."""
    global _bit_high_water
    _bit_high_water = 0


def bit_high_water() -> int:
    """Largest bit length seen in any canonicalized tuple since the last reset."""
    return _bit_high_water


def _fraction(v: Rat) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"exact core accepts int/Fraction only, got {type(v).__name__}")


def _clear_denominators(vals: tuple) -> tuple[int, ...]:
    for v in vals:
        if not isinstance(v, (int, Fraction)):
            raise TypeError(
                f"exact core accepts int/Fraction only, got {type(v).__name__}")
    den = math.lcm(*(v.denominator for v in vals))
    return tuple(v.numerator * (den // v.denominator) for v in vals)


def canonical_ints(values: Iterable[Rat]) -> tuple[int, ...]:
    """Clear denominators, divide by the gcd, make the first nonzero entry positive."""
    vals = tuple(values)
    for v in vals:
        if type(v) is not int:  # a Fraction or bool, or a type refused there
            vals = _clear_denominators(vals)
            break
    g = math.gcd(*vals)
    if g == 0:
        raise ZeroVector("all coordinates are zero")
    if next(filter(None, vals)) < 0:
        g = -g
    if g != 1:
        vals = tuple([v // g for v in vals])
    global _bit_high_water
    bits = max(max(vals), -min(vals)).bit_length()
    if bits > _bit_high_water:
        _bit_high_water = bits
    return vals


class _CanonicalVector:
    """Immutable vector of ``canonical_ints``, equal only within one type;
    base of points, lines and curves."""

    __slots__ = ("_v",)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other._v == self._v

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._v))

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self._v!r}"


class _Homogeneous(_CanonicalVector):
    """Canonical homogeneous integer triple; base of points and lines."""

    __slots__ = ()

    def __init__(self, u: Rat, v: Rat, w: Rat):
        object.__setattr__(self, "_v", canonical_ints((u, v, w)))

    @property
    def triple(self) -> tuple[int, int, int]:
        return self._v

    def __str__(self) -> str:
        return f"{self._v[0]}:{self._v[1]}:{self._v[2]}"


class HomPoint(_Homogeneous):
    """Point in homogeneous barycentric coordinates (canonical integer triple)."""

    @property
    def x(self) -> int:
        return self._v[0]

    @property
    def y(self) -> int:
        return self._v[1]

    @property
    def z(self) -> int:
        return self._v[2]

    def is_infinite(self) -> bool:
        return sum(self._v) == 0


class HomLine(_Homogeneous):
    """Line {l*x + m*y + n*z = 0} as a canonical integer coefficient triple."""

    @property
    def coeffs(self) -> tuple[int, int, int]:
        return self._v

    def is_line_at_infinity(self) -> bool:
        return self._v == (1, 1, 1)


VERTEX_A = HomPoint(1, 0, 0)
VERTEX_B = HomPoint(0, 1, 0)
VERTEX_C = HomPoint(0, 0, 1)
LINE_AT_INFINITY = HomLine(1, 1, 1)


# ---------------------------------------------------------------------------
# incidence

def cross(u: Sequence[int], v: Sequence[int]) -> tuple[int, int, int]:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def det3(rows: Sequence[Sequence[int]]) -> int:
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def adjugate3(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, int, int], ...]:
    (a, b, c), (d, e, f), (g, h, i) = rows
    return (
        (e * i - f * h, c * h - b * i, b * f - c * e),
        (f * g - d * i, a * i - c * g, c * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
    )


def mat_vec(rows: Sequence[Sequence[int]], v: Sequence[int]) -> tuple[int, ...]:
    return tuple(sum(r[j] * v[j] for j in range(3)) for r in rows)


def join(p: HomPoint, q: HomPoint) -> HomLine:
    """The unique line through two distinct points."""
    if p == q:
        raise CoincidentArguments(f"join of coincident points {p}")
    return HomLine(*cross(p.triple, q.triple))


def meet(l: HomLine, m: HomLine) -> HomPoint:
    """The unique common point of two distinct lines."""
    if l == m:
        raise CoincidentArguments(f"meet of coincident lines {l}")
    return HomPoint(*cross(l.triple, m.triple))


def collinear(p: HomPoint, q: HomPoint, r: HomPoint) -> bool:
    return det3((p.triple, q.triple, r.triple)) == 0


def incident(p: HomPoint, l: HomLine) -> bool:
    return sum(a * b for a, b in zip(p.triple, l.triple)) == 0


def span_points(l: HomLine) -> tuple[HomPoint, HomPoint]:
    """Two distinct (possibly infinite) points spanning the line."""
    found: list[HomPoint] = []
    for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        w = cross(l.triple, e)
        if w == (0, 0, 0):
            continue
        p = HomPoint(*w)
        if p not in found:
            found.append(p)
        if len(found) == 2:
            return found[0], found[1]
    raise ZeroVector("line has no two distinct points (zero coefficients?)")


def two_points_on(l: HomLine) -> tuple[HomPoint, HomPoint]:
    """Two distinct finite points on a line other than the line at infinity."""
    return tuple(sample_line_points(l, 2))


def sample_line_points(
    l: HomLine,
    count: int,
    accept: Optional[Callable[[HomPoint], bool]] = None,
) -> list[HomPoint]:
    """Deterministically sample ``count`` distinct finite points on ``l``.

    Optionally filter with ``accept``; raises if the filter never lets
    enough points through (bounded scan).
    """
    if l.is_line_at_infinity():
        raise LineAtInfinity("cannot sample finite points on the line at infinity")
    r0, r1 = span_points(l)
    pts: list[HomPoint] = []
    k = 0
    limit = 16 * count + 64
    while len(pts) < count and k < limit:
        cand = HomPoint(r0.x + k * r1.x, r0.y + k * r1.y, r0.z + k * r1.z)
        k += 1
        if cand.is_infinite():
            continue
        if accept is not None and not accept(cand):
            continue
        pts.append(cand)
    if len(pts) < count:
        raise GeometryError(f"could not sample {count} admissible points on {l}")
    return pts


# ---------------------------------------------------------------------------
# affine structure

def _affine_sum(p: HomPoint) -> int:
    s = p.x + p.y + p.z
    if s == 0:
        raise PointAtInfinity(f"{p} is a direction, not an affine point")
    return s


def normalize_affine(p: HomPoint) -> tuple[Fraction, Fraction, Fraction]:
    """Scale so the coordinates sum to one; rejects points at infinity."""
    s = _affine_sum(p)
    return (Fraction(p.x, s), Fraction(p.y, s), Fraction(p.z, s))


def affine_combine(terms: Sequence[tuple[HomPoint, Rat]]) -> HomPoint:
    """Exact affine combination; the weights must sum to one."""
    weights = [_fraction(w) for _, w in terms]
    if sum(weights) != 1:
        raise WeightSumNotOne(f"weights sum to {sum(weights)}, not 1")
    acc = [Fraction(0)] * 3
    for (p, _), w in zip(terms, weights):
        n = normalize_affine(p)
        for i in range(3):
            acc[i] += w * n[i]
    return HomPoint(*acc)


def midpoint(p: HomPoint, q: HomPoint) -> HomPoint:
    """p/sp + q/sq, scaled by sp*sq to stay in integers."""
    sp, sq = _affine_sum(p), _affine_sum(q)
    return HomPoint(*(sq * u + sp * v for u, v in zip(p.triple, q.triple)))


def reflect_through(center: HomPoint, p: HomPoint) -> HomPoint:
    """Point reflection of ``p`` through ``center``: 2*c/sc - p/sp, scaled
    by sc*sp."""
    sc, sp = _affine_sum(center), _affine_sum(p)
    return HomPoint(*(2 * sp * c - sc * u for c, u in zip(center.triple, p.triple)))


# ---------------------------------------------------------------------------
# metric context

class IntegralView(NamedTuple):
    """A Metric's fields scaled to integers, for formulas homogeneous in the
    sides: ``a2 == m.a2 * q`` (likewise ``b2``, ``c2``, ``SA``, ``SB``,
    ``SC``), ``S2 == m.S2 * q**2`` and, where the metric has sides,
    ``sides == m.sides * k`` with ``q == k**2``."""

    a2: int
    b2: int
    c2: int
    SA: int
    SB: int
    SC: int
    S2: int
    sides: Optional[tuple[int, int, int]]
    q: int

    @property
    def a(self) -> int:
        return self.sides[0]

    @property
    def b(self) -> int:
        return self.sides[1]

    @property
    def c(self) -> int:
        return self.sides[2]

    def rot(self) -> "IntegralView":
        """Cyclic relabel (a, b, c) -> (b, c, a), as :meth:`Metric.rot`."""
        sides = None if self.sides is None else (self.sides[1], self.sides[2], self.sides[0])
        return IntegralView(self.b2, self.c2, self.a2, self.SB, self.SC, self.SA,
                            self.S2, sides, self.q)


class Metric:
    """Squared-side-length context for metric computations.

    Carries the squared sides (a2, b2, c2), the derived symbols SA, SB, SC
    and S2, and optionally the exact (unsquared) sides when those are
    rational.  Derived triangles whose sides involve square roots have a
    perfectly good Metric (their squared sides are rational) but no
    ``sides`` attribute.  A Metric is immutable and validated once, in
    ``__init__``; :meth:`rot` permutes the validated fields.

    ``unit`` is the same triangle in integers (an :class:`IntegralView`):
    the sides times k = 2*lcm(side denominators) where the metric has
    sides, else the squared sides times q = 4*lcm(their denominators).
    Either way the scaled squared sides are multiples of 4, so SA, SB, SC
    and S2 come out integral.  The public fields keep the given scale.
    """

    __slots__ = ("a2", "b2", "c2", "SA", "SB", "SC", "S2", "sides", "unit")

    def __init__(self, a2: Rat, b2: Rat, c2: Rat,
                 sides: Optional[Sequence[Rat]] = None):
        squares = _fraction(a2), _fraction(b2), _fraction(c2)
        if any(v <= 0 for v in squares):
            raise InvalidTriangle("squared side lengths must be positive")
        if sides is None:
            q = 4 * math.lcm(*(v.denominator for v in squares))
            whole = None
            ua2, ub2, uc2 = (v.numerator * (q // v.denominator) for v in squares)
        else:
            sides = tuple(_fraction(s) for s in sides)
            if len(sides) != 3 or any(s <= 0 for s in sides):
                raise InvalidTriangle("sides must be three positive rationals")
            k = 2 * math.lcm(*(s.denominator for s in sides))
            whole = tuple(s.numerator * (k // s.denominator) for s in sides)
            q = k * k
            ua2, ub2, uc2 = (s * s for s in whole)
            if any(u * v.denominator != v.numerator * q
                   for u, v in zip((ua2, ub2, uc2), squares)):
                raise InvalidTriangle("sides inconsistent with squared sides")
        SA = (ub2 + uc2 - ua2) // 2
        SB = (uc2 + ua2 - ub2) // 2
        SC = (ua2 + ub2 - uc2) // 2
        S2 = SA * SB + SB * SC + SC * SA
        if S2 <= 0:
            raise InvalidTriangle("degenerate triangle: S^2 <= 0")
        self._fill(*squares, Fraction(SA, q), Fraction(SB, q), Fraction(SC, q),
                   Fraction(S2, q * q), sides,
                   IntegralView(ua2, ub2, uc2, SA, SB, SC, S2, whole, q))

    def _fill(self, *values) -> None:
        for name, value in zip(Metric.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def has_sides(self) -> bool:
        return self.sides is not None

    @property
    def a(self) -> Fraction:
        """Side length a, only where ``has_sides``; likewise ``b`` and ``c``."""
        return self.sides[0]

    @property
    def b(self) -> Fraction:
        return self.sides[1]

    @property
    def c(self) -> Fraction:
        return self.sides[2]

    def rot(self) -> "Metric":
        """Cyclic relabel (a, b, c) -> (b, c, a); used to close formulas cyclically."""
        sides = None if self.sides is None else (self.sides[1], self.sides[2], self.sides[0])
        r = object.__new__(Metric)
        r._fill(self.b2, self.c2, self.a2, self.SB, self.SC, self.SA, self.S2, sides,
                self.unit.rot())
        return r

    def is_right(self) -> bool:
        u = self.unit
        return u.SA == 0 or u.SB == 0 or u.SC == 0

    def is_acute(self) -> bool:
        u = self.unit
        return u.SA > 0 and u.SB > 0 and u.SC > 0


class RefTriangle(Metric):
    """Reference triangle given by rational side lengths a, b, c."""

    __slots__ = ()

    def __init__(self, a: Rat, b: Rat, c: Rat):
        a, b, c = _fraction(a), _fraction(b), _fraction(c)
        if a <= 0 or b <= 0 or c <= 0:
            raise InvalidTriangle("side lengths must be positive")
        if a + b <= c or b + c <= a or c + a <= b:
            raise InvalidTriangle(f"triangle inequality fails for ({a}, {b}, {c})")
        super().__init__(a * a, b * b, c * c, sides=(a, b, c))

    def __repr__(self) -> str:
        return f"RefTriangle({self.a}, {self.b}, {self.c})"


# ---------------------------------------------------------------------------
# metric operations

def squared_distance(p: HomPoint, q: HomPoint, m: Metric) -> Fraction:
    """Exact squared distance between two finite points."""
    sp = p.x + p.y + p.z
    sq = q.x + q.y + q.z
    if sp == 0 or sq == 0:
        raise PointAtInfinity("squared_distance requires finite points")
    u = p.x * sq - q.x * sp
    v = p.y * sq - q.y * sp
    w = p.z * sq - q.z * sp
    i = m.unit
    num = -(i.a2 * v * w + i.b2 * w * u + i.c2 * u * v)
    return Fraction(num, i.q * sp * sp * sq * sq)


def point_line_distance_sq(p: HomPoint, l: HomLine, m: Metric) -> Fraction:
    """Exact squared distance from a finite point to a line.

    Computed from two sample points on the line; the result does not
    depend on which sample points are taken.  Kept as a test reference.
    """
    if l.is_line_at_infinity():
        raise LineAtInfinity("distance to the line at infinity is undefined")
    if p.is_infinite():
        raise PointAtInfinity("point at infinity has no distance to a line")
    q1, q2 = two_points_on(l)
    d = det3((p.triple, q1.triple, q2.triple))
    if d == 0:
        return Fraction(0)
    sp = p.x + p.y + p.z
    s1 = q1.x + q1.y + q1.z
    s2 = q2.x + q2.y + q2.z
    det_norm_sq = Fraction(d * d, (sp * s1 * s2) ** 2)
    return det_norm_sq * m.S2 / squared_distance(q1, q2, m)


def infinite_point(l: HomLine) -> HomPoint:
    """The direction of a line (its point on the line at infinity)."""
    if l.is_line_at_infinity():
        raise LineAtInfinity("the line at infinity has no single direction")
    return meet(l, LINE_AT_INFINITY)


def perpendicular_infinite_point(d: HomPoint, m: Metric) -> HomPoint:
    """The unique direction perpendicular to the direction ``d``.

    Perpendicularity of directions (x,y,z), (x',y',z') with zero coordinate
    sums is SA*x*x' + SB*y*y' + SC*z*z' = 0.
    """
    if not d.is_infinite():
        raise NotADirection(f"{d} has nonzero coordinate sum")
    u = m.unit
    w = cross(canonical_ints((u.SA * d.x, u.SB * d.y, u.SC * d.z)), (1, 1, 1))
    return HomPoint(*w)


def perpendicular_line_through(l: HomLine, p: HomPoint, m: Metric) -> HomLine:
    """The perpendicular to ``l`` through ``p``."""
    return join(p, perpendicular_infinite_point(infinite_point(l), m))


def foot_of_perpendicular(p: HomPoint, l: HomLine, m: Metric) -> HomPoint:
    return meet(l, perpendicular_line_through(l, p, m))


def bisector_line(p: HomPoint, q: HomPoint, m: Metric) -> HomLine:
    """Perpendicular bisector: locus of equal squared distance to p and q.

    Written for p/sp and q/sq, then scaled by (sp*sq)**2 and by the
    integral view's q to stay in integers."""
    if p == q:
        raise CoincidentArguments("bisector of coincident points")
    sp, sq = _affine_sum(p), _affine_sum(q)
    (p0, p1, p2), (q0, q1, q2) = p.triple, q.triple
    d0, d1, d2 = q0 * sp - p0 * sq, q1 * sp - p1 * sq, q2 * sp - p2 * sq
    u = m.unit
    s, pp, qq = sp * sq, sq * sq, sp * sp
    c0 = -(
        u.a2 * (p1 * p2 * pp - q1 * q2 * qq)
        + u.b2 * (p2 * p0 * pp - q2 * q0 * qq)
        + u.c2 * (p0 * p1 * pp - q0 * q1 * qq)
    )
    return HomLine(c0 - (u.b2 * d2 + u.c2 * d1) * s,
                   c0 - (u.a2 * d2 + u.c2 * d0) * s,
                   c0 - (u.a2 * d1 + u.b2 * d0) * s)


def equidistant_point(p1: HomPoint, p2: HomPoint, p3: HomPoint, m: Metric) -> HomPoint:
    """The point equidistant from three non-collinear finite points."""
    try:
        center = meet(bisector_line(p1, p2, m), bisector_line(p1, p3, m))
    except CoincidentArguments as exc:
        raise DegenerateFrame("equidistant point undefined (collinear inputs)") from exc
    if center.is_infinite():
        raise DegenerateFrame("equidistant point at infinity (collinear inputs)")
    return center


def orthocenter_of(p1: HomPoint, p2: HomPoint, p3: HomPoint, m: Metric) -> HomPoint:
    """Orthocenter of the triangle p1 p2 p3 (any finite non-collinear triple)."""
    alt1 = perpendicular_line_through(join(p2, p3), p1, m)
    alt2 = perpendicular_line_through(join(p1, p3), p2, m)
    return meet(alt1, alt2)


# ---------------------------------------------------------------------------
# frames

def _frame_matrix(v1: HomPoint, v2: HomPoint, v3: HomPoint):
    for v in (v1, v2, v3):
        if v.is_infinite():
            raise DegenerateFrame(f"frame vertex {v} is at infinity")
    rows = (
        (v1.x, v2.x, v3.x),
        (v1.y, v2.y, v3.y),
        (v1.z, v2.z, v3.z),
    )
    if det3(rows) == 0:
        raise DegenerateFrame("frame points are affinely dependent")
    return rows


def local_coords(p: HomPoint, v1: HomPoint, v2: HomPoint, v3: HomPoint) -> HomPoint:
    """Barycentric coordinates of ``p`` relative to the triangle v1 v2 v3."""
    rows = _frame_matrix(v1, v2, v3)
    w = mat_vec(adjugate3(rows), p.triple)
    s1, s2, s3 = (sum(v.triple) for v in (v1, v2, v3))
    return HomPoint(s1 * w[0], s2 * w[1], s3 * w[2])


def from_local(q: HomPoint, v1: HomPoint, v2: HomPoint, v3: HomPoint) -> HomPoint:
    """Inverse of :func:`local_coords`: map frame barycentrics back."""
    _frame_matrix(v1, v2, v3)
    s1, s2, s3 = (sum(v.triple) for v in (v1, v2, v3))
    w1 = q.x * s2 * s3
    w2 = q.y * s1 * s3
    w3 = q.z * s1 * s2
    return HomPoint(
        w1 * v1.x + w2 * v2.x + w3 * v3.x,
        w1 * v1.y + w2 * v2.y + w3 * v3.y,
        w1 * v1.z + w2 * v2.z + w3 * v3.z,
    )
