"""Exact projective and affine geometry over homogeneous rational coordinates.

Points and lines are homogeneous integer triples relative to a reference
triangle given by rational side lengths; the triangle's vertices are
(1:0:0), (0:1:0) and (0:0:1).  Every triple is kept in canonical form
(coprime integers, first nonzero entry positive), so equality of values is
equality of the geometric objects they represent.

Distances and perpendicularity read one bilinear form, the Gram matrix
G = -1/2 [[0, c^2, b^2], [c^2, 0, a^2], [b^2, a^2, 0]] of :func:`gram`; on
displacements (coordinate sum zero) it is the dot product.  Center formulas
use SA = (b^2 + c^2 - a^2) / 2 (and cyclically SB, SC) and
S2 = SA*SB + SB*SC + SC*SA, the square of twice the area.  The module is
floating-point free: all arithmetic is ``int`` / ``fractions.Fraction``.

A ``Metric`` holds one field, ``unit``: the triangle in integers (an
:class:`IntegralView`, built once: in ``__init__``, or for a derived
triangle from its parent's view, without a Fraction, by ``scaled()`` or
by closed-form squared sides over one denominator that ``_squares_view``
reduces, in ``tricurves.centers``; relabelled by ``rot()``).  Its squared
sides, SA, SB, SC and S2 are integers at a scale q, and its sides, where
rational, at k, q = k^2.  :func:`gram`, and the center formulas,
conjugation weights and derived-triangle vertices in
``tricurves.centers``, read it; each of those formulas is homogeneous in
the sides, so the scale drops out of every canonical result.  The
Metric's named fields read the view back as Fractions at the given scale,
and ``squared_distance`` divides it out.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence, Union

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


def _clear_denominators(values: Iterable[Rat]) -> tuple[tuple[int, ...], int]:
    """The values times the lcm of their denominators, and that lcm."""
    vals = [_fraction(v) for v in values]
    den = math.lcm(*(v.denominator for v in vals))
    return tuple([v.numerator * (den // v.denominator) for v in vals]), den


def canonical_ints(values: Iterable[Rat]) -> tuple[int, ...]:
    """Clear denominators, divide by the gcd, make the first nonzero entry positive.

    An all-``int`` triple (every point and line) takes one path on three
    locals.  Any other input takes the general path, where a value that is
    not an ``int`` (a ``Fraction``, a bool, or a type refused there with
    one ``TypeError``) sends the whole tuple through
    ``_clear_denominators`` first.  Both paths record the result's
    largest bit length for :func:`bit_high_water`.
    """
    global _bit_high_water
    vals = tuple(values)
    if len(vals) == 3:
        a, b, c = vals
        if type(a) is int and type(b) is int and type(c) is int:
            g = math.gcd(a, b, c)
            if g == 0:
                raise ZeroVector("all coordinates are zero")
            if (a or b or c) < 0:
                g = -g
            if g != 1:
                vals = a, b, c = a // g, b // g, c // g
            bits = (abs(a) | abs(b) | abs(c)).bit_length()
            if bits > _bit_high_water:
                _bit_high_water = bits
            return vals
    for v in vals:
        if type(v) is not int:  # a Fraction or bool, or a type refused there
            vals = _clear_denominators(vals)[0]
            break
    g = math.gcd(*vals)
    if g == 0:
        raise ZeroVector("all coordinates are zero")
    if next(filter(None, vals)) < 0:
        g = -g
    if g != 1:
        vals = tuple([v // g for v in vals])
    bits = max(max(vals), -min(vals)).bit_length()
    if bits > _bit_high_water:
        _bit_high_water = bits
    return vals


class _Frozen:
    """Base of the core's immutable values: their slots are set only through
    each slot's own setter, and assignment and deletion raise."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class _CanonicalVector(_Frozen):
    """Immutable vector of ``canonical_ints``, equal only within one type;
    base of points, lines and curves."""

    __slots__ = ("_v",)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other._v == self._v

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._v))

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self._v!r}"


_set_v = _CanonicalVector._v.__set__  # the slot's own setter, past _Frozen


class _Homogeneous(_CanonicalVector):
    """Canonical homogeneous integer triple; base of points and lines.
    ``triple`` is the ``_v`` slot itself, read without a property call."""

    __slots__ = ()

    def __init__(self, u: Rat, v: Rat, w: Rat):
        _set_v(self, canonical_ints((u, v, w)))

    triple = _CanonicalVector._v

    def __str__(self) -> str:
        return f"{self._v[0]}:{self._v[1]}:{self._v[2]}"


class HomPoint(_Homogeneous):
    """Point in homogeneous barycentric coordinates (canonical integer triple)."""

    __slots__ = ()

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

    __slots__ = ()
    coeffs = _CanonicalVector._v

    def is_line_at_infinity(self) -> bool:
        return self._v == (1, 1, 1)


VERTEX_A = HomPoint(1, 0, 0)
VERTEX_B = HomPoint(0, 1, 0)
VERTEX_C = HomPoint(0, 0, 1)
LINE_AT_INFINITY = HomLine(1, 1, 1)


# ---------------------------------------------------------------------------
# incidence

def dot(u: Sequence[int], v: Sequence[int]) -> int:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


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


def mat_vec(rows: Sequence[Sequence[int]], v: Sequence[int]) -> tuple[int, int, int]:
    (a, b, c), (d, e, f), (g, h, i) = rows
    x, y, z = v
    return (a * x + b * y + c * z, d * x + e * y + f * z, g * x + h * y + i * z)


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
    return dot(p.triple, l.triple) == 0


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


# ---------------------------------------------------------------------------
# affine structure

def _affine_sum(p: HomPoint) -> int:
    s = p.x + p.y + p.z
    if s == 0:
        raise PointAtInfinity(f"{p} is a direction, not an affine point")
    return s


def affine_point(p: Sequence[int], q: Sequence[int], n: int,
                 d: int) -> tuple[int, int, int]:
    """(1 - n/d)*p/sp + (n/d)*q/sq for finite raw triples p, q of coordinate
    sums sp, sq, times d*sp*sq to stay in integers: (d - n)*sq*p + n*sp*q."""
    (px, py, pz), (qx, qy, qz) = p, q
    u, v = (d - n) * (qx + qy + qz), n * (px + py + pz)
    return (u * px + v * qx, u * py + v * qy, u * pz + v * qz)


def midpoint(p: HomPoint, q: HomPoint) -> HomPoint:
    """The affine point of ratio 1/2 from p to q; a direction is refused."""
    _affine_sum(p), _affine_sum(q)
    return HomPoint(*affine_point(p.triple, q.triple, 1, 2))


def reflect_through(center: HomPoint, p: HomPoint) -> HomPoint:
    """Point reflection of ``p`` through ``center``: the affine point of
    ratio -1 from the center to p; a direction is refused."""
    _affine_sum(center), _affine_sum(p)
    return HomPoint(*affine_point(center.triple, p.triple, -1, 1))


# ---------------------------------------------------------------------------
# metric context

class IntegralView(NamedTuple):
    """A triangle in integers: the squared sides, SA, SB and SC over ``q``,
    S2 over ``q**2`` and, where the sides are rational, ``sides`` over ``k``
    (then ``q == k**2``) are the triangle's own values."""

    a2: int
    b2: int
    c2: int
    SA: int
    SB: int
    SC: int
    S2: int
    sides: Optional[tuple[int, int, int]]
    q: int
    k: Optional[int]

    def rot(self) -> "IntegralView":
        """Cyclic relabel (a, b, c) -> (b, c, a), behind :meth:`Metric.rot`."""
        sides = None if self.sides is None else (self.sides[1], self.sides[2], self.sides[0])
        return IntegralView(self.b2, self.c2, self.a2, self.SB, self.SC, self.SA,
                            self.S2, sides, self.q, self.k)

    def scaled(self, n: int, d: int) -> "IntegralView":
        """The view of a triangle with sides n/d times these, without
        division: squared sides and SA, SB, SC times n^2, S2 times n^4, q
        times d^2, k times d and the sides times n."""
        a2, b2, c2, SA, SB, SC, S2, sides, q, k = self
        n2 = n * n
        return IntegralView(n2 * a2, n2 * b2, n2 * c2, n2 * SA, n2 * SB, n2 * SC,
                            n2 * n2 * S2,
                            None if sides is None else (n * sides[0], n * sides[1],
                                                        n * sides[2]),
                            d * d * q, None if k is None else d * k)


def _read_back(field: str, power: int = 1) -> property:
    """A Metric field: ``field`` of its view over q**power, as a Fraction."""
    return property(lambda m: Fraction(getattr(m.unit, field), m.unit.q ** power))


def _view(a2: int, b2: int, c2: int, sides: Optional[tuple[int, int, int]],
          q: int, k: Optional[int]) -> IntegralView:
    """The view of scaled squared sides that are multiples of 4 (so SA, SB,
    SC and S2 come out integral); a degenerate triangle is refused."""
    SA = (b2 + c2 - a2) // 2
    SB = (c2 + a2 - b2) // 2
    SC = (a2 + b2 - c2) // 2
    S2 = SA * SB + SB * SC + SC * SA
    if S2 <= 0:
        raise InvalidTriangle("degenerate triangle: S^2 <= 0")
    return IntegralView(a2, b2, c2, SA, SB, SC, S2, sides, q, k)


def _squares_view(squares: Sequence[int], den: int) -> IntegralView:
    """The view of the squared sides a2/den, b2/den and c2/den (den > 0):
    all four divided by their gcd g and scaled by 4, so q = 4*den/g, the
    least q that clears the reduced Fractions (lcm(den/g_i) = den/gcd(g_i)).
    A side that is not positive, or a degenerate triangle, is refused."""
    a2, b2, c2 = squares
    if a2 <= 0 or b2 <= 0 or c2 <= 0:
        raise InvalidTriangle("squared side lengths must be positive")
    g = math.gcd(a2, b2, c2, den)
    return _view(4 * a2 // g, 4 * b2 // g, 4 * c2 // g, None, 4 * den // g, None)


class Metric(_Frozen):
    """Squared-side-length context for metric computations.

    Its one field, ``unit``, is the triangle in integers (an
    :class:`IntegralView`).  A Metric built from squared sides scales them
    by q = 4*lcm(their denominators), so they are multiples of 4 and it has
    no ``sides``: derived triangles whose sides involve square roots have a
    perfectly good Metric (their squared sides are rational).  Only a
    :class:`RefTriangle` knows rational sides, and builds its view from
    them.  The squared sides (a2, b2, c2), SA, SB, SC, S2 and, where
    ``has_sides``, ``sides`` (a, b, c) read back as Fractions at the given
    scale.  A Metric is immutable and validated once, when it is built.
    """

    __slots__ = ("unit",)

    def __init__(self, a2: Rat, b2: Rat, c2: Rat):
        _set_unit(self, _squares_view(*_clear_denominators((a2, b2, c2))))

    @staticmethod
    def of_view(unit: IntegralView) -> "Metric":
        """The Metric of an already valid view, built without validation."""
        m = object.__new__(Metric)
        _set_unit(m, unit)
        return m

    a2, b2, c2 = _read_back("a2"), _read_back("b2"), _read_back("c2")
    SA, SB, SC = _read_back("SA"), _read_back("SB"), _read_back("SC")
    S2 = _read_back("S2", 2)

    @property
    def sides(self) -> Optional[tuple[Fraction, Fraction, Fraction]]:
        u = self.unit
        return None if u.sides is None else tuple(Fraction(s, u.k) for s in u.sides)

    @property
    def has_sides(self) -> bool:
        return self.unit.sides is not None

    # side lengths, only where has_sides
    a = property(lambda self: self.sides[0])
    b = property(lambda self: self.sides[1])
    c = property(lambda self: self.sides[2])

    def rot(self) -> "Metric":
        """Cyclic relabel (a, b, c) -> (b, c, a): :meth:`IntegralView.rot`."""
        return Metric.of_view(self.unit.rot())

    def is_right(self) -> bool:
        u = self.unit
        return u.SA == 0 or u.SB == 0 or u.SC == 0


class RefTriangle(Metric):
    """Reference triangle given by rational side lengths a, b, c.  Its view
    holds the sides times k = 2*lcm(their denominators), so the squared
    sides, at q = k**2, are multiples of 4."""

    __slots__ = ()

    def __init__(self, a: Rat, b: Rat, c: Rat):
        whole, den = _clear_denominators((a, b, c))
        x, y, z = sides = tuple([2 * s for s in whole])
        if x <= 0 or y <= 0 or z <= 0:
            raise InvalidTriangle("side lengths must be positive")
        if x + y <= z or y + z <= x or z + x <= y:
            raise InvalidTriangle(f"triangle inequality fails for ({a}, {b}, {c})")
        k = 2 * den
        _set_unit(self, _view(x * x, y * y, z * z, sides, k * k, k))

    def __repr__(self) -> str:
        return f"RefTriangle({self.a}, {self.b}, {self.c})"


_set_unit = Metric.unit.__set__  # the slot's own setter, past _Frozen


# ---------------------------------------------------------------------------
# metric operations

def gram(v: Sequence[int], m: Metric) -> tuple[int, int, int]:
    """G v for the Gram matrix G = -1/2 [[0, c2, b2], [c2, 0, a2], [b2, a2, 0]]
    of ``m.unit``, whose squared sides are multiples of 4, so the halving is
    exact.  For displacements d, e, d.G.e is unit.q times their dot product."""
    u = m.unit
    x, y, z = v
    return ((u.c2 * y + u.b2 * z) // -2, (u.c2 * x + u.a2 * z) // -2,
            (u.b2 * x + u.a2 * y) // -2)


def squared_distance(p: HomPoint, q: HomPoint, m: Metric) -> Fraction:
    """Exact squared distance between two finite points p and q: d.G.d
    over m.unit.q*(sp*sq)**2, for d = sq*p - sp*q, sp and sq their sums."""
    (px, py, pz), (qx, qy, qz) = p.triple, q.triple
    sp, sq = px + py + pz, qx + qy + qz
    if sp == 0 or sq == 0:
        raise PointAtInfinity("squared_distance requires finite points")
    d = (px * sq - qx * sp, py * sq - qy * sp, pz * sq - qz * sp)
    return Fraction(dot(d, gram(d, m)), m.unit.q * sp * sp * sq * sq)


def infinite_point(l: HomLine) -> HomPoint:
    """The direction of a line (its point on the line at infinity)."""
    if l.is_line_at_infinity():
        raise LineAtInfinity("the line at infinity has no single direction")
    return meet(l, LINE_AT_INFINITY)


def perpendicular_infinite_point(d: HomPoint, m: Metric) -> HomPoint:
    """The unique direction perpendicular to the direction ``d``: the
    direction e with e.G.d = 0 (:func:`gram`)."""
    if not d.is_infinite():
        raise NotADirection(f"{d} has nonzero coordinate sum")
    return HomPoint(*cross(gram(d.triple, m), (1, 1, 1)))


def perpendicular_line_through(l: HomLine, p: HomPoint, m: Metric) -> HomLine:
    """The perpendicular to ``l`` through ``p``."""
    return join(p, perpendicular_infinite_point(infinite_point(l), m))


def foot_of_perpendicular(p: HomPoint, l: HomLine, m: Metric) -> HomPoint:
    return meet(l, perpendicular_line_through(l, p, m))


def bisector_line(p: HomPoint, q: HomPoint, m: Metric) -> HomLine:
    """Perpendicular bisector: locus of equal squared distance to p and q.

    Coefficient i is sq^2 C_p[i,i] - sp^2 C_q[i,i], vertex i's squared
    distance to p less that to q, times q (sp sq)^2, where C_f[i,i] =
    (s_f e_i - f).G.(s_f e_i - f) = f.G.f - 2 s_f (G f)_i."""
    if p == q:
        raise CoincidentArguments("bisector of coincident points")
    sp, sq = _affine_sum(p), _affine_sum(q)
    gp, gq = gram(p.triple, m), gram(q.triple, m)
    c0 = sq * sq * dot(p.triple, gp) - sp * sp * dot(q.triple, gq)
    return HomLine(*(c0 - 2 * sp * sq * (sq * u - sp * v) for u, v in zip(gp, gq)))


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

class Frame(NamedTuple):
    """The triangle of the vertices v1, v2, v3, checked once to be finite
    and affinely independent.  ``base`` applies ``matrix`` M, the vertex
    rows as columns scaled to one coordinate sum s1*s2*s3; ``local``
    applies ``inverse`` diag(s1, s2, s3) adj(V), V the unscaled columns, a
    nonzero multiple of M^-1.  So M's columns are the vertices, and
    ``base`` of a unit row reads one back.  The rows are taken at the
    scale they come in: rows l1, l2, l3 times the canonical vertices give
    M and the inverse l1*l2*l3 times those of the canonical rows, the same
    maps, as ``base`` canonicalizes every point it hands out."""

    matrix: tuple[tuple[int, int, int], ...]
    inverse: tuple[tuple[int, int, int], ...]

    @classmethod
    def of(cls, r1: Sequence[int], r2: Sequence[int], r3: Sequence[int]) -> "Frame":
        """The frame of the vertices with the integer triples r1, r2, r3
        (any scale), used as given; only a refusal canonicalizes them, to
        name an infinite vertex as its point."""
        (a, d, g), (b, e, h), (c, f, i) = r1, r2, r3
        s1, s2, s3 = a + d + g, b + e + h, c + f + i
        if not (s1 and s2 and s3):
            vs = [canonical_ints(r) for r in (r1, r2, r3)]
            v = vs[(s1, s2, s3).index(0)]
            raise DegenerateFrame("frame vertex {}:{}:{} is at infinity".format(*v))
        n11, n12, n13 = e * i - f * h, c * h - b * i, b * f - c * e  # adj(V)[0]
        if a * n11 + d * n12 + g * n13 == 0:  # det(V)
            raise DegenerateFrame("frame points are affinely dependent")
        t1, t2, t3 = s2 * s3, s1 * s3, s1 * s2
        return cls(((a * t1, b * t2, c * t3), (d * t1, e * t2, f * t3),
                    (g * t1, h * t2, i * t3)),
                   ((s1 * n11, s1 * n12, s1 * n13),
                    (s2 * (f * g - d * i), s2 * (a * i - c * g), s2 * (c * d - a * f)),
                    (s3 * (d * h - e * g), s3 * (b * g - a * h), s3 * (a * e - b * d))))

    def local(self, p: HomPoint) -> tuple[int, int, int]:
        """Barycentric coordinates of ``p`` relative to the frame, up to scale."""
        return mat_vec(self.inverse, p.triple)

    def base(self, q: Sequence[int]) -> HomPoint:
        """The canonical point with frame barycentrics ``q`` (any scale)."""
        return HomPoint(*mat_vec(self.matrix, q))


_IDENTITY = Frame.of((1, 0, 0), (0, 1, 0), (0, 0, 1))  # the frame of the base


def local_coords(p: HomPoint, v1: HomPoint, v2: HomPoint, v3: HomPoint) -> HomPoint:
    """Barycentric coordinates of ``p`` relative to the triangle v1 v2 v3."""
    return HomPoint(*Frame.of(v1.triple, v2.triple, v3.triple).local(p))
