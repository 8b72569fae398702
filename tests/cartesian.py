"""A second model of the triangle that shares nothing with ``tricurves``:
Cartesian first principles on Heronian lattice triangles.

Every Heronian triangle is a lattice triangle (Yiu 2001).
``heronian_triangles`` builds scalene, non-right ones with integer vertices
by gluing two Pythagorean triangles along a common leg, which becomes an
altitude: apex (0, h) over the feet (-p, 0) and (q, 0), one on each side of
the altitude's foot, or over (p, 0) and (q, 0), both on one side.  On them
``CENTERS`` builds eleven catalog centers by classical constructions in
``Fraction`` coordinates, with no barycentric formula: X1, the meet of two
angle bisectors; X2, the mean of the vertices; X3, the meet of two
perpendicular bisectors; X4, the meet of two altitudes; X6, the meet of two
medians each reflected in its angle bisector; X7 and X8, the meets of two
cevians to the touch points of the incircle and of the excircles; X5 and
X10, the circumcenter and the incenter of the medial triangle; X20 and X40,
the reflections of X4 and X1 in X3.  The model does not build the other
catalog centers: X9, X21, X25, X39, X54, X57, X64, X69, X76, X84, X355,
X389 and the two Brocard points.  ``areal`` reads a point's barycentrics off signed areas,
for comparison with another model's, ``squared_length`` and ``foot`` give
squared distances and perpendicular feet by coordinates, and ``DERIVED``
builds the medial, anticomplementary and Euler triangles with lattice
vertices, each over a copy of the triangle scaled so that they are: the
medial triangle B + C, C + A, A + B over 2A, 2B, 2C, the anticomplementary
B + C - A and its cyclic copies over A, B, C, and the Euler triangle, the
midpoints of the vertices and the orthocenter H, over kA, kB, kC for k
twice the common denominator of H.  Scaling changes no areal coordinates.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import add


def _sub(p, q):
    return (p[0] - q[0], p[1] - q[1])


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1]


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _perp(u):
    return (-u[1], u[0])


def _mid(p, q):
    return (Fraction(p[0] + q[0], 2), Fraction(p[1] + q[1], 2))


def _length(p, q):
    """The distance between two lattice points, which must be an integer."""
    d2 = _dot(_sub(p, q), _sub(p, q))
    d = isqrt(d2)
    assert d * d == d2, (p, q)
    return d


def _meet(p, u, q, v):
    """The meet of the lines p + s*u and q + t*v, which are not parallel."""
    s = Fraction(_cross(_sub(q, p), v)) / _cross(u, v)
    return (p[0] + s * u[0], p[1] + s * u[1])


def _bisector(apex, p, q):
    """The direction of the internal bisector at ``apex`` of the angle to
    ``p`` and ``q``: the sum of the unit vectors along its two sides."""
    u, v = _sub(p, apex), _sub(q, apex)
    lu, lv = _length(p, apex), _length(q, apex)
    return (Fraction(u[0], lu) + Fraction(v[0], lv),
            Fraction(u[1], lu) + Fraction(v[1], lv))


def _symmedian(apex, p, q):
    """The direction of the median from ``apex`` reflected in its bisector."""
    m, w = _sub(_mid(p, q), apex), _bisector(apex, p, q)
    k = 2 * _dot(m, w) / _dot(w, w)
    return (k * w[0] - m[0], k * w[1] - m[1])


def incenter(A, B, C):
    return _meet(A, _bisector(A, B, C), B, _bisector(B, C, A))


def centroid(A, B, C):
    return (Fraction(A[0] + B[0] + C[0], 3), Fraction(A[1] + B[1] + C[1], 3))


def circumcenter(A, B, C):
    return _meet(_mid(A, B), _perp(_sub(B, A)), _mid(A, C), _perp(_sub(C, A)))


def orthocenter(A, B, C):
    return _meet(A, _perp(_sub(C, B)), B, _perp(_sub(C, A)))


def symmedian_point(A, B, C):
    return _meet(A, _symmedian(A, B, C), B, _symmedian(B, C, A))


def _reflect(P, Q):
    """The reflection of ``P`` in ``Q``."""
    return (2 * Q[0] - P[0], 2 * Q[1] - P[1])


def nine_point_center(A, B, C):
    """The circumcenter of the medial triangle."""
    return circumcenter(_mid(B, C), _mid(C, A), _mid(A, B))


def spieker_center(A, B, C):
    """The incenter of the medial triangle, found as half the incenter of
    B + C, C + A, A + B, whose sides a, b, c are integers."""
    x, y = incenter(_sum(B, C), _sum(C, A), _sum(A, B))
    return (x / 2, y / 2)


def de_longchamps_point(A, B, C):
    """The reflection of the orthocenter in the circumcenter."""
    return _reflect(orthocenter(A, B, C), circumcenter(A, B, C))


def bevan_point(A, B, C):
    """The reflection of the incenter in the circumcenter."""
    return _reflect(incenter(A, B, C), circumcenter(A, B, C))


def _along(P, Q, d, length):
    """The point at distance ``d`` from ``P`` on the segment PQ of the
    given length."""
    s = Fraction(d) / length
    return (P[0] + s * (Q[0] - P[0]), P[1] + s * (Q[1] - P[1]))


def _cevian_meet(A, B, C, from_b, from_c):
    """The meet of the cevians from A and B to the points on BC at distance
    ``from_b`` from B and on CA at distance ``from_c`` from C."""
    a, b, _ = sides(A, B, C)
    D, E = _along(B, C, from_b, a), _along(C, A, from_c, b)
    return _meet(A, _sub(D, A), B, _sub(E, B))


def gergonne_point(A, B, C):
    """The meet of the cevians to the incircle's touch points, the one on
    BC at distance s - b from B and the one on CA at s - c from C, for the
    semiperimeter s."""
    a, b, c = sides(A, B, C)
    s = Fraction(a + b + c, 2)
    return _cevian_meet(A, B, C, s - b, s - c)


def nagel_point(A, B, C):
    """The meet of the cevians to the excircles' touch points, the one on
    BC at distance s - c from B and the one on CA at s - a from C."""
    a, b, c = sides(A, B, C)
    s = Fraction(a + b + c, 2)
    return _cevian_meet(A, B, C, s - c, s - a)


CENTERS = {"X1": incenter, "X2": centroid, "X3": circumcenter, "X4": orthocenter,
           "X5": nine_point_center, "X6": symmedian_point, "X7": gergonne_point,
           "X8": nagel_point, "X10": spieker_center, "X20": de_longchamps_point,
           "X40": bevan_point}


def squared_length(p, q):
    """The squared distance between two points."""
    return _dot(_sub(p, q), _sub(p, q))


def foot(P, Q, R):
    """The foot of the perpendicular from ``P`` to the line QR."""
    u = _sub(R, Q)
    s = Fraction(_dot(_sub(P, Q), u), _dot(u, u))
    return (Q[0] + s * u[0], Q[1] + s * u[1])


def _scale(k, points):
    return tuple((k * x, k * y) for x, y in points)


def _sum(p, q):
    return tuple(map(add, p, q))


def medial(A, B, C):
    """(2A, 2B, 2C) and its medial triangle B + C, C + A, A + B."""
    return _scale(2, (A, B, C)), (_sum(B, C), _sum(C, A), _sum(A, B))


def anticomplementary(A, B, C):
    """(A, B, C) and its anticomplementary triangle B + C - A, C + A - B,
    A + B - C."""
    return (A, B, C), (_sub(_sum(B, C), A), _sub(_sum(C, A), B), _sub(_sum(A, B), C))


def euler(A, B, C):
    """(kA, kB, kC) and the midpoints of its vertices with its orthocenter
    kH, for k twice the common denominator of H: lattice points, as kH and
    the scaled vertices have even coordinates."""
    H = orthocenter(A, B, C)
    k = 2 * lcm(*(v.denominator for v in H))
    tri, h = _scale(k, (A, B, C)), tuple(int(k * v) for v in H)
    return tri, tuple(((x + h[0]) // 2, (y + h[1]) // 2) for x, y in tri)


DERIVED = {"medial": medial, "anticomplementary": anticomplementary, "euler": euler}


def areal(P, A, B, C):
    """The barycentrics of ``P``: twice the signed areas of PBC, APC and ABP."""
    return (_cross(_sub(B, P), _sub(C, P)), _cross(_sub(C, P), _sub(A, P)),
            _cross(_sub(A, P), _sub(B, P)))


def sides(A, B, C):
    """The side lengths a = |BC|, b = |CA| and c = |AB|."""
    return (_length(B, C), _length(C, A), _length(A, B))


def _pythagorean_legs(limit):
    """Both leg orders (p, h) of the primitive triples p^2 + h^2 = r^2 of
    Euclid's formula with m < limit."""
    for m in range(2, limit):
        for n in range(1, m):
            if (m - n) % 2 and gcd(m, n) == 1:
                x, y = m * m - n * n, 2 * m * n
                yield (x, y)
                yield (y, x)


def heronian_triangles(count, limit=6):
    """The first ``count`` pairwise dissimilar, scalene, non-right lattice
    triangles (A, B, C) glued from two Pythagorean triangles with legs
    from Euclid's formula with m < ``limit``."""
    legs = list(_pythagorean_legs(limit))
    out, shapes = [], set()
    for i, (p1, h1) in enumerate(legs):
        for p2, h2 in legs[i:]:
            h = lcm(h1, h2)
            p, q = p1 * h // h1, p2 * h // h2
            for B in ((-p, 0), (p, 0)):
                if B[0] == q:
                    continue
                tri = ((0, h), B, (q, 0))
                a, b, c = sides(*tri)
                g = gcd(a, b, c)
                shape = tuple(sorted((a // g, b // g, c // g)))
                if len(set(shape)) < 3 or shape in shapes or any(
                        _dot(_sub(tri[j - 1], tri[j]), _sub(tri[j - 2], tri[j])) == 0
                        for j in range(3)):
                    continue
                shapes.add(shape)
                out.append(tri)
                if len(out) == count:
                    return out
    raise ValueError(f"fewer than {count} triangles with m < {limit}")
