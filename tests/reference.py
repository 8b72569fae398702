"""Reference constructions the tests check the package against.

Each is a direct, ``Fraction``-based spelling of a rule the package computes
another way: affine combinations (the reference for ``midpoint`` and
``reflect_through``), point-line distances, sample points on a line and the
second intersection of a line with a conic, with which the tests generate
conic points.
"""

from fractions import Fraction

from tricurves.curves import Conic
from tricurves.kernel import (
    GeometryError,
    HomLine,
    HomPoint,
    LineAtInfinity,
    Metric,
    PointAtInfinity,
    det3,
    mat_vec,
    sample_line_points,
    squared_distance,
)


class WeightSumNotOne(GeometryError):
    """Weights of an affine combination must sum to exactly one."""


def normalize_affine(p: HomPoint) -> tuple[Fraction, Fraction, Fraction]:
    """Scale so the coordinates sum to one; rejects points at infinity."""
    s = sum(p.triple)
    if s == 0:
        raise PointAtInfinity(f"{p} is a direction, not an affine point")
    return (Fraction(p.x, s), Fraction(p.y, s), Fraction(p.z, s))


def affine_combine(terms) -> HomPoint:
    """Exact affine combination of ``(point, weight)`` pairs; the weights
    must sum to one."""
    weights = [Fraction(w) for _, w in terms]
    if sum(weights) != 1:
        raise WeightSumNotOne(f"weights sum to {sum(weights)}, not 1")
    acc = [Fraction(0)] * 3
    for (p, _), w in zip(terms, weights):
        n = normalize_affine(p)
        for i in range(3):
            acc[i] += w * n[i]
    return HomPoint(*acc)


def two_points_on(l: HomLine) -> tuple[HomPoint, HomPoint]:
    """Two distinct finite points on a line other than the line at infinity."""
    return tuple(sample_line_points(l, 2))


def point_line_distance_sq(p: HomPoint, l: HomLine, m: Metric) -> Fraction:
    """Exact squared distance from a finite point to a line, from two sample
    points on the line; the result does not depend on which are taken."""
    if l.is_line_at_infinity():
        raise LineAtInfinity("distance to the line at infinity is undefined")
    if p.is_infinite():
        raise PointAtInfinity("point at infinity has no distance to a line")
    q1, q2 = two_points_on(l)
    d = det3((p.triple, q1.triple, q2.triple))
    if d == 0:
        return Fraction(0)
    sp, s1, s2 = sum(p.triple), sum(q1.triple), sum(q2.triple)
    det_norm_sq = Fraction(d * d, (sp * s1 * s2) ** 2)
    return det_norm_sq * m.S2 / squared_distance(q1, q2, m)


def conic_second_intersection(c: Conic, p: HomPoint, q: HomPoint) -> HomPoint:
    """Second intersection of the line p q with the conic, p on the conic.

    Returns q if q is also on the conic, and p itself when the line is
    tangent at p.
    """
    if c.evaluate(p) != 0:
        raise ValueError("first point must lie on the conic")
    if p == q:
        raise ValueError("need two distinct points to span a line")
    fq = c.evaluate(q)
    if fq == 0:
        return q
    mq = mat_vec(c.matrix(), q.triple)
    b = sum(pc * w for pc, w in zip(p.triple, mq))
    if b == 0:
        return p
    # root t of F(p + t q) = 2 t b + t^2 F(q)
    return HomPoint(*(pc * fq - 2 * b * qc for pc, qc in zip(p.triple, q.triple)))
