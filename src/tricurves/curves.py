"""Exact conics and cubics in homogeneous barycentric coordinates.

Curves are coefficient vectors up to scale, canonicalized like points
(coprime integers, first nonzero entry positive), so curve equality is
tuple equality.  A fit reads the kernel vector off one fraction-free
elimination of the rows and columns its vertices leave; rank-deficient
inputs raise :class:`DegeneratePointSet` carrying a rank certificate, and
a fit that misses one of its own points raises :class:`CurveMissesPoint`.

Each curve class holds one monomial table (``MONOMIALS`` and ``WEIGHTS``).
Conic coefficient order is (q11, q22, q33, q12, q13, q23) for the form
q11*x^2 + q22*y^2 + q33*z^2 + 2*q12*x*y + 2*q13*x*z + 2*q23*y*z; cubic
coefficients follow the lexicographic monomial order x^3, x^2*y, x^2*z,
x*y^2, x*y*z, x*z^2, y^3, y^2*z, y*z^2, z^3.  A form written in a triangle's
frame reaches base coordinates by the pull-back through the frame's
``inverse``; a push-forward is the pull-back through an adjugate.  Pull-backs,
Hessians and line restrictions evaluate the form at a few fixed integer
points and read the coefficients back by closed-form exact rules; Hessians
read the second partials off a table derived from the monomial order, and
gradients apply half of them at a point to it (Euler's identity); the
pencil quotient is an integer synthetic division of the coefficient vector.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import lcm
from operator import itemgetter, mul
from typing import Callable, NamedTuple, Optional, Sequence

from . import centers as _centers
from .kernel import (
    CoincidentArguments,
    GeometryError,
    HomLine,
    HomPoint,
    LINE_AT_INFINITY,
    LineAtInfinity,
    Metric,
    PointAtInfinity,
    Rat,
    _CanonicalVector,
    _IDENTITY,
    _fraction,
    _set_v,
    adjugate3,
    affine_point,
    canonical_ints,
    collinear,
    cross,
    det3,
    dot,
    gram,
    incident,
    join,
    mat_vec,
    meet,
    midpoint,
    perpendicular_line_through,
    span_points,
    squared_distance,
)
from .linalg import RankDeficient, nullspace_vector


class DegeneratePointSet(GeometryError):
    """Fit input of deficient rank; carries rank and an independent subset.

    ``independent`` is a maximal independent subset of the fit rows, by
    index: the rows of the vertices that pin a coefficient, in order, then
    the independent rows of the reduced system, sorted (see ``_fit``)."""

    def __init__(self, rank: int, independent: Sequence[int], needed: int):
        self.rank = rank
        self.independent = tuple(independent)
        self.needed = needed
        super().__init__(
            f"point set has rank {rank} < {needed}; "
            f"independent subset {self.independent}")


class CurveMissesPoint(GeometryError):
    """A constructed curve fails to pass through a point it was built on."""


class DegenerateConic(GeometryError):
    """The conic's adjugate annihilates the requested line."""


class DegenerateAtInfinity(GeometryError):
    """The conic contains the line at infinity; no asymptote data."""


class FocusOnDirectrix(GeometryError):
    """A focus lying on its directrix defines no conic."""


class NotCollinear(GeometryError):
    """Axis construction requires collinear vertices and focus."""


class ParabolicDegenerate(GeometryError):
    """Axis construction requires focus distinct from center and vertices."""


class NoLinearComponent(GeometryError):
    """No pencil member contains the requested line."""


class BothVanishOnLine(GeometryError):
    """Both cubics already contain the line; factorization is not unique."""


class ZeroRatio(GeometryError):
    """Homothety ratio must be nonzero."""


class SingularMatrix(GeometryError):
    """The transformation matrix is not invertible."""


CUBIC_MONOMIALS = (
    (3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1),
    (1, 0, 2), (0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3),
)

_UNITS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
_BINARY_NODES = ((1, 0), (0, 1), (1, 1), (1, -1))


def _binary(n: int, f10: int, f01: int, f11: int, f1m: int = 0) -> tuple[int, ...]:
    """Coefficients of s0^n, s0^(n-1)*s1, ..., s1^n of a binary form of
    degree n (2 or 3) from its values at (1, 0), (0, 1), (1, 1) and, for
    n = 3, (1, -1).  Both halvings are exact: f11 - f1m and f11 + f1m are
    twice the odd and the even coefficient sums."""
    if n == 2:
        return f10, f11 - f10 - f01, f01
    return f10, (f11 - f1m) // 2 - f01, (f11 + f1m) // 2 - f10, f01


def _node(mon: tuple[int, int, int]) -> tuple[int, int, int]:
    """The interpolation node of a monomial: the indicator of its variables,
    negated on each variable of higher power than the first.  So x_v^n
    takes e_v, x_a^2*x_b and x_a*x_b take e_a + e_b, x_a*x_b^2 takes
    e_a - e_b and xyz takes (1, 1, 1)."""
    first = next(e for e in mon if e)
    return tuple(0 if not e else -1 if e > first else 1 for e in mon)


def _reduction(width: int, pinned: Sequence[int]) -> tuple[Callable, itemgetter]:
    """The getter of a fit row's columns other than ``pinned``, and the
    getter that spreads a vector on those columns, with a 0 appended, over
    all ``width`` columns.  With no column pinned, a row is its own
    reduction, and ``tuple`` returns it."""
    kept = [c for c in range(width) if c not in pinned]
    spread = [kept.index(c) if c in kept else len(kept) for c in range(width)]
    return itemgetter(*kept) if pinned else tuple, itemgetter(*spread)


class _FormVector(_CanonicalVector):
    """Canonical integer coefficient vector of a form, up to scale.

    ``MONOMIALS`` lists the exponent triples in coefficient order and
    ``WEIGHTS`` the factor each coefficient carries in the form.  Each
    subclass spells the weighted monomials at a triple out once, in its
    static ``_monomials(x, y, z)``; the fit row and evaluation derive from
    the table.  So do the interpolation ``NODES``, one per monomial: a form
    is recovered from its values there by the binary rule on each edge of
    the coordinate triangle, then xyz, which lies on no edge, as the value
    at (1, 1, 1) less every other coefficient.
    """

    __slots__ = ()
    MONOMIALS: tuple[tuple[int, int, int], ...] = ()
    WEIGHTS: tuple[int, ...] = ()
    DEGREE: int
    NODES: tuple[tuple[int, int, int], ...]
    _REDUCTIONS: dict[tuple[int, ...], tuple[Callable, itemgetter]]

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        n = cls.DEGREE = sum(cls.MONOMIALS[0])
        cls.NODES = tuple(_node(mon) for mon in cls.MONOMIALS)
        node_index = {node: i for i, node in enumerate(cls.NODES)}
        mon_index = {mon: i for i, mon in enumerate(cls.MONOMIALS)}
        edges = []
        for a, b in ((0, 1), (0, 2), (1, 2)):
            ea, eb = _UNITS[a], _UNITS[b]
            at = tuple(node_index[tuple(s0 * u + s1 * w for u, w in zip(ea, eb))]
                       for s0, s1 in _BINARY_NODES[:n + 1])
            mons = tuple(mon_index[tuple((n - k) * u + k * w for u, w in zip(ea, eb))]
                         for k in range(n + 1))
            edges.append((at, mons))
        cls._EDGES = tuple(edges)
        cls._CENTER = node_index.get((1, 1, 1))
        # a fit's reduction by the columns its vertices pin, in pin order
        powers = [i for i, mon in enumerate(cls.MONOMIALS) if mon.count(0) == 2]
        cls._REDUCTIONS = {pinned: _reduction(len(cls.MONOMIALS), pinned)
                           for k in range(len(powers) + 1)
                           for pinned in permutations(powers, k)}

    def __init__(self, *coeffs: Rat):
        if len(coeffs) != len(self.MONOMIALS):
            raise ValueError(
                f"{type(self).__name__} needs {len(self.MONOMIALS)} coefficients")
        _set_v(self, canonical_ints(coeffs))

    coeffs = _CanonicalVector._v

    def serialize(self) -> list[str]:
        return [str(c) for c in self._v]

    @classmethod
    def row(cls, p: HomPoint) -> tuple[int, ...]:
        """The weighted monomials at p: the fit row."""
        return cls._monomials(*p.triple)

    def evaluate(self, p: HomPoint) -> int:
        return sum(map(mul, self._v, self._monomials(*p.triple)))

    def _at(self, v: Sequence[int]) -> int:
        """The form at the integer triple v."""
        return sum(map(mul, self._v, self._monomials(*v)))

    @classmethod
    def _unweighted(cls, form: Sequence[int]):
        """The curve of the form's coefficients, in ``MONOMIALS`` order."""
        # divided by the weights and scaled by their lcm: integers stay integers
        top = lcm(*cls.WEIGHTS)
        return cls(*(c * (top // w) for c, w in zip(form, cls.WEIGHTS)))

    @classmethod
    def _interpolate(cls, values: Sequence[int]) -> list[int]:
        """The coefficients, in ``MONOMIALS`` order, of the form that takes
        ``values`` at ``NODES``."""
        form = [0] * len(values)
        for at, mons in cls._EDGES:
            for m, c in zip(mons, _binary(cls.DEGREE, *[values[i] for i in at])):
                form[m] = c
        if cls._CENTER is not None:
            form[cls._CENTER] = values[cls._CENTER] - sum(form)
        return form


class Conic(_FormVector):
    MONOMIALS = ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1))
    WEIGHTS = (1, 1, 1, 2, 2, 2)

    @staticmethod
    def _monomials(x: int, y: int, z: int) -> tuple[int, ...]:
        return (x * x, y * y, z * z, 2 * x * y, 2 * x * z, 2 * y * z)

    def matrix(self) -> tuple[tuple[int, int, int], ...]:
        q11, q22, q33, q12, q13, q23 = self._v
        return ((q11, q12, q13), (q12, q22, q23), (q13, q23, q33))


class Cubic(_FormVector):
    MONOMIALS = CUBIC_MONOMIALS
    WEIGHTS = (1,) * 10

    @staticmethod
    def _monomials(x: int, y: int, z: int) -> tuple[int, ...]:
        xx, yy, zz = x * x, y * y, z * z
        return (xx * x, xx * y, xx * z, x * yy, x * y * z, x * zz,
                yy * y, yy * z, y * zz, zz * z)

    def gradient(self, p: HomPoint) -> tuple[int, int, int]:
        """Half the second partials at p applied to p (Euler's identity;
        each first partial is a quadratic form, so the halving is exact)."""
        x, y, z = p.triple
        c = self._v
        hxx, hyy, hzz, hxy, hxz, hyz = [f * c[i] * x + g * c[j] * y + h * c[k] * z
                                        for (i, f), (j, g), (k, h) in _SECOND_PARTIALS]
        return ((hxx * x + hxy * y + hxz * z) // 2, (hxy * x + hyy * y + hyz * z) // 2,
                (hxz * x + hyz * y + hzz * z) // 2)


# ---------------------------------------------------------------------------
# fitting

def _fit(form: type, points: Sequence[HomPoint]) -> _FormVector:
    """The form through one point fewer than it has coefficients: the kernel
    of their rows.

    A vertex's row has one nonzero entry, at its pure power, so the vertex
    pins that coefficient to 0.  The other points' rows, without the pinned
    columns, go to one elimination, and its kernel vector, with zeros at the
    pinned columns, is the form: the kernel of all the rows, as a vertex
    row is zero on every kept column.  A repeated vertex pins nothing more;
    its kept row is zero.  A set without a vertex keeps every column.  The
    form is checked against every row.  A rank-deficient set's certificate
    lists the pinning vertices' rows, in order, then the independent rows
    of the reduced system by their indices in ``points``; its rank is the
    pins plus the reduced rank, and the rows listed are a maximal
    independent subset."""
    n = len(form.MONOMIALS) - 1
    if len(points) != n:
        raise ValueError(f"{form.__name__.lower()}_through needs exactly {n} points")
    rows = [form.row(p) for p in points]
    pins: dict[int, int] = {}  # pinned column -> its vertex's index
    others = []
    for i, row in enumerate(rows):
        # most rows hold no 0; a vertex row's one nonzero entry is its sum
        if 0 in row and row.count(0) == n and (col := row.index(sum(row))) not in pins:
            pins[col] = i
        else:
            others.append(i)
    take, spread = form._REDUCTIONS[(*pins,)]
    reduced = list(map(take, map(rows.__getitem__, others)))
    try:
        v = nullspace_vector(reduced)
    except RankDeficient as exc:
        certificate = (len(pins) + exc.rank,
                       (*pins.values(), *(others[j] for j in exc.independent)))
    else:
        curve = form(*spread((*v, 0)))
        if any(sum(map(mul, curve.coeffs, row)) for row in rows):
            raise CurveMissesPoint(f"fitted {curve!r} misses one of its points")
        return curve
    del rows, reduced  # kept off the error's traceback, as the handler's frames are
    raise DegeneratePointSet(*certificate, n)


def conic_through(points: Sequence[HomPoint]) -> Conic:
    """The unique conic through five points in general position."""
    return _fit(Conic, points)


def cubic_through(points: Sequence[HomPoint]) -> Cubic:
    """The unique cubic through nine points in general position."""
    return _fit(Cubic, points)


# ---------------------------------------------------------------------------
# poles, centers, asymptotic data

def pole(c: Conic, l: HomLine) -> HomPoint:
    """Pole of a line: adjugate of the conic matrix applied to the line."""
    v = mat_vec(adjugate3(c.matrix()), l.triple)
    if v == (0, 0, 0):
        raise DegenerateConic(f"adjugate of {c} annihilates {l}")
    return HomPoint(*v)


def conic_center(c: Conic) -> HomPoint:
    """Center of a conic: the pole of the line at infinity."""
    return pole(c, LINE_AT_INFINITY)


_CHART = ((1, 0, -1), (0, 1, -1))  # spans the line at infinity, z = -x - y


def _infinity_restriction(c: Conic) -> tuple[int, int, int]:
    """Coefficients (alpha, beta, gamma) of the conic on z = -x - y, where
    it reads alpha x^2 + 2 beta xy + gamma y^2."""
    alpha, two_beta, gamma = _restrict(c, *_CHART)
    return alpha, two_beta // 2, gamma


def is_rectangular(c: Conic, m: Metric) -> bool:
    """Whether the conic is a hyperbola with perpendicular asymptotes.

    Decided rationally: the restriction (alpha, beta, gamma) to the line at
    infinity has zero trace gamma r0.G.r0 - 2 beta r0.G.r1 + alpha r1.G.r1
    against the Gram form G on the chart rows r0, r1; G is positive definite
    on directions, so that implies beta^2 > alpha*gamma (two real points).
    """
    alpha, beta, gamma = _infinity_restriction(c)
    if alpha == 0 and beta == 0 and gamma == 0:
        raise DegenerateAtInfinity("conic contains the line at infinity")
    r0, r1 = _CHART
    g0, g1 = gram(r0, m), gram(r1, m)
    return gamma * dot(r0, g0) - 2 * beta * dot(r0, g1) + alpha * dot(r1, g1) == 0


# ---------------------------------------------------------------------------
# focus/directrix conics

def conic_from_focus_directrix(m: Metric, focus: HomPoint, directrix: HomLine,
                               e2: Rat) -> Conic:
    """Locus of squared distance to the focus = e2 times squared distance
    to the directrix l, homogenized by (x + y + z)^2: N C - s^2 e2 S2 (l.P)^2,
    where s is the focus's coordinate sum, C[i][j] = (s e_i - F).G.(s e_j - F)
    and N = delta.G.delta for the directrix direction delta."""
    e2 = _fraction(e2)
    if e2 <= 0:
        raise ValueError("squared eccentricity must be positive")
    if focus.is_infinite():
        raise PointAtInfinity("focus must be finite")
    if directrix.is_line_at_infinity():
        raise LineAtInfinity("directrix cannot be the line at infinity")
    if incident(focus, directrix):
        raise FocusOnDirectrix(f"{focus} lies on {directrix}")
    f, l, s = focus.triple, directrix.triple, sum(focus.triple)
    rows = [tuple(s * (i == j) - fj for j, fj in enumerate(f)) for i in range(3)]
    g_rows = [gram(r, m) for r in rows]
    delta = cross(l, (1, 1, 1))
    focus_weight = dot(delta, gram(delta, m)) * e2.denominator
    line_weight = s * s * e2.numerator * m.unit.S2
    return Conic(*(focus_weight * dot(rows[i], g_rows[j]) - line_weight * l[i] * l[j]
                   for i, j in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))))


class AxisConic(NamedTuple):
    conic: Conic
    e2: Fraction
    directrix: HomLine


def axis_conic(m: Metric, v1: HomPoint, v2: HomPoint, focus: HomPoint) -> AxisConic:
    """Conic with vertices v1, v2 and the given focus on their common line.

    Center is the midpoint of the vertices; the directrix is perpendicular
    to the axis at the point dividing center-to-focus in ratio a^2 : c^2.
    """
    if v1 == v2 or v1 == focus or v2 == focus:
        raise NotCollinear("vertices and focus must be pairwise distinct")
    if not collinear(v1, v2, focus):
        raise NotCollinear(f"{v1}, {v2}, {focus} are not collinear")
    center = midpoint(v1, v2)
    a2_param = squared_distance(v1, v2, m) / 4
    c2_param = squared_distance(focus, center, m)
    if c2_param == 0 or c2_param == a2_param:
        raise ParabolicDegenerate(
            "focus coincides with the center or a vertex-distance focus")
    e2 = c2_param / a2_param
    ratio = a2_param / c2_param
    # (1 - ratio) center + ratio focus; squared_distance refused an infinite focus
    d_point = HomPoint(*affine_point(center.triple, focus.triple,
                                     ratio.numerator, ratio.denominator))
    directrix = perpendicular_line_through(join(v1, v2), d_point, m)
    conic = conic_from_focus_directrix(m, focus, directrix, e2)
    if conic.evaluate(v1) or conic.evaluate(v2):
        raise CurveMissesPoint(f"axis conic {conic!r} misses a vertex")
    return AxisConic(conic, e2, directrix)


# ---------------------------------------------------------------------------
# Pascal lines

Segment = tuple[HomPoint, HomPoint]


def pascal_check(pairs: Sequence[tuple[Segment, Segment]]) -> bool:
    """Whether the meets of three pairs of chords are collinear."""
    if len(pairs) != 3:
        raise ValueError("pascal_check needs exactly 3 pairs of segments")
    meets = [meet(join(p, q), join(r, s)) for (p, q), (r, s) in pairs]
    return collinear(*meets)


# ---------------------------------------------------------------------------
# forms by evaluation and interpolation

def _restrict(curve: _FormVector, r0, r1) -> tuple[int, ...]:
    """Binary form of the curve on the line through the triples r0, r1:
    the coefficients of s0^n, s0^(n-1)*s1, ..., s1^n in the form at
    s0*r0 + s1*r1, n the degree."""
    n = curve.DEGREE
    return _binary(n, *[curve._at([s0 * u + s1 * w for u, w in zip(r0, r1)])
                        for s0, s1 in _BINARY_NODES[:n + 1]])


def _division_steps(v: int):
    """Synthetic division of a cubic by a linear form with nonzero x_v
    coefficient, one step per cubic monomial that x_v divides, from the
    highest power of x_v down: (monomial index, quotient monomial index,
    indices of the quotient monomial times x, y, z)."""
    steps = []
    for mon in sorted((m for m in CUBIC_MONOMIALS if m[v]), key=lambda m: -m[v]):
        quotient = tuple(e - (i == v) for i, e in enumerate(mon))
        steps.append((CUBIC_MONOMIALS.index(mon), Conic.MONOMIALS.index(quotient), tuple(
            CUBIC_MONOMIALS.index(tuple(e + (i == w) for i, e in enumerate(quotient)))
            for w in range(3))))
    return tuple(steps)


_DIVISION_STEPS = tuple(_division_steps(v) for v in range(3))


def _divide_linear(coeffs: Sequence[int], lin) -> Conic:
    """The conic Q with L*Q the cubic of coefficient vector ``coeffs``, for
    the linear form L = ``lin``.

    Divides lin[v]^3 times the cubic, v the first variable of L: the
    quotient's coefficients of x_v-degree d have denominators dividing
    lin[v]^(3 - d), so every step divides exactly in integers.  A nonzero
    remainder raises :class:`NoLinearComponent`.
    """
    v = next(i for i, c in enumerate(lin) if c != 0)
    lead = lin[v]
    rem = [c * lead ** 3 for c in coeffs]
    quo = [0] * len(Conic.MONOMIALS)
    for m, q, targets in _DIVISION_STEPS[v]:
        c = quo[q] = rem[m] // lead
        for t, l in zip(targets, lin):
            rem[t] -= c * l
    if any(rem):
        raise NoLinearComponent("line does not divide the pencil member")
    return Conic._unweighted(quo)


def _second_partial(i: int, j: int, k: int) -> tuple[int, int]:
    """(monomial index, factor): the second partial by x_i and x_j of a
    cubic holds x_k with that monomial's coefficient times the factor."""
    mon = [(v == i) + (v == j) + (v == k) for v in range(3)]
    return CUBIC_MONOMIALS.index(tuple(mon)), mon[i] * (mon[j] - (i == j))


# the six second partials, by xx, yy, zz, xy, xz and yz, as linear forms
_SECOND_PARTIALS = tuple(tuple(_second_partial(i, j, k) for k in range(3))
                         for i, j in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)))


def hessian(k: Cubic) -> Optional[Cubic]:
    """Hessian cubic (determinant of second partials); None if it vanishes."""
    c = k.coeffs
    partials = [tuple(f * c[m] for m, f in row) for row in _SECOND_PARTIALS]
    values = []
    for node in Cubic.NODES:
        hxx, hyy, hzz, hxy, hxz, hyz = (dot(h, node) for h in partials)
        values.append(hxx * (hyy * hzz - hyz * hyz) - hxy * (hxy * hzz - hyz * hxz)
                      + hxz * (hxy * hyz - hyy * hxz))
    return Cubic._unweighted(Cubic._interpolate(values)) if any(values) else None


# ---------------------------------------------------------------------------
# pencils with a line component

class PencilFactorization(NamedTuple):
    t: Fraction
    line: HomLine
    residual: Conic


def pencil_combination(p: Cubic, q: Cubic, t: Fraction) -> Cubic:
    """The pencil member p - t q as a canonical cubic."""
    tn, td = t.numerator, t.denominator
    vec = tuple(td * a - tn * b for a, b in zip(p.coeffs, q.coeffs))
    return Cubic(*vec)


def line_component(p: Cubic, q: Cubic, l: HomLine) -> PencilFactorization:
    """Find t with p - t q divisible by the line l, and the residual conic.

    The restrictions of both cubics to l must be proportional binary
    cubics; the residual is the exact quotient of p - t q by the linear
    form of l, and a nonzero remainder raises :class:`NoLinearComponent`.
    """
    if p == q:
        raise CoincidentArguments("cubics must be independent forms")
    r0, r1 = (r.triple for r in span_points(l))
    pr = _restrict(p, r0, r1)
    qr = _restrict(q, r0, r1)
    p_zero = all(v == 0 for v in pr)
    q_zero = all(v == 0 for v in qr)
    if p_zero and q_zero:
        raise BothVanishOnLine(f"both cubics contain {l}")
    if q_zero:
        raise NoLinearComponent(
            "second cubic vanishes on the line but the first does not")
    if p_zero:
        t = Fraction(0)
    else:
        pivot = next(i for i, v in enumerate(qr) if v != 0)
        t = Fraction(pr[pivot], qr[pivot])
        if any(pr[i] * qr[pivot] != pr[pivot] * qr[i] for i in range(4)):
            raise NoLinearComponent(
                "restrictions to the line are not proportional")
    # p != q are canonical, so no member of their pencil is the zero form
    residual = _divide_linear(pencil_combination(p, q, t).coeffs, l.triple)
    return PencilFactorization(t, l, residual)


# ---------------------------------------------------------------------------
# projective transforms (homotheties, their action on curves, isogonal images)

def homothety_matrix(center: HomPoint, ratio: Rat):
    """Integer matrix acting on homogeneous coordinates as the homothety
    with the given center and ratio (on normalized barycentrics)."""
    ratio = _fraction(ratio)
    if ratio == 0:
        raise ZeroRatio("homothety ratio must be nonzero")
    if center.is_infinite():
        raise PointAtInfinity("homothety center must be finite")
    # column j, listed j-th, is the image of e_j: (1 - ratio) center + ratio e_j
    n, d, c = ratio.numerator, ratio.denominator, center.triple
    ints = canonical_ints([v for e in _UNITS for v in affine_point(c, e, n, d)])
    return (ints[0::3], ints[1::3], ints[2::3])


def transform_point(matrix, p: HomPoint) -> HomPoint:
    return HomPoint(*mat_vec(matrix, p.triple))


def _pull(curve: _FormVector, inverse) -> _FormVector:
    """The form of p -> F(inverse p), interpolated from its values at the
    nodes."""
    form = type(curve)
    return form._unweighted(form._interpolate([curve._at(mat_vec(inverse, node))
                                               for node in form.NODES]))


def _transform(matrix, curve: _FormVector) -> _FormVector:
    """Push-forward: the pull-back through adj(matrix)."""
    if det3(matrix) == 0:
        raise SingularMatrix("transformation matrix is singular")
    return _pull(curve, adjugate3(matrix))


def transform_conic(matrix, c: Conic) -> Conic:
    """Push-forward: p on c iff matrix*p on the result."""
    return _transform(matrix, c)


def transform_cubic(matrix, k: Cubic) -> Cubic:
    """Push-forward: p on k iff matrix*p on the result."""
    return _transform(matrix, k)


def _from_frame(sub, curve: _FormVector) -> _FormVector:
    """The curve whose form is ``curve`` in the frame of the triangle ``sub``
    (a ``SubTriangle``, the base included), in base coordinates: pulled back
    through the frame's ``inverse``.  The base's frame moves nothing; the
    frame is tested, not the kind, since the base kind of a derived
    triangle keeps its parent's frame."""
    if sub.frame is _IDENTITY:
        return curve
    return _pull(curve, sub.frame.inverse)


def isogonal_image(sub, line: HomLine) -> Conic:
    """The isogonal image of ``line`` in the triangle ``sub`` (a
    ``SubTriangle``, the base included): the circumconic
    l1*a2*y*z + l2*b2*z*x + l3*c2*x*y = 0 of the line's coordinates
    (l1, l2, l3) in the frame of ``sub``, M^T l for the frame's ``matrix`` M."""
    u = sub.metric().unit
    l1, l2, l3 = mat_vec(tuple(zip(*sub.frame.matrix)), line.triple)
    return _from_frame(sub, Conic(0, 0, 0, l3 * u.c2, l2 * u.b2, l1 * u.a2))


# ---------------------------------------------------------------------------
# pivotal cubics

def pivotal_cubic(sub, conj: str, pivot: HomPoint) -> Cubic:
    """The pivotal cubic pK(W, P) of the triangle ``sub`` (a ``SubTriangle``,
    the base included): the points X collinear with their ``conj``
    ("isogonal" or "isotomic") conjugate and the pivot P, a base point.  In
    the frame of ``sub``, with P = u:v:w and the pole W = p:q:r the
    conjugate of 1:1:1 (a2:b2:c2 or 1:1:1), it is
    det[P; X; (p*y*z, q*z*x, r*x*y)] = 0, moved to base coordinates."""
    u, v, w = sub.frame.local(pivot)
    p, q, r = _centers._conjugate_point(conj, sub.metric(), (1, 1, 1))
    # x^3, x^2y, x^2z, xy^2, xyz, xz^2, y^3, y^2z, yz^2, z^3
    return _from_frame(sub, Cubic(0, -v * r, w * q, u * r, 0, -u * q,
                                  0, -w * p, v * p, 0))


def pivotal_membership(sub, conj: str, pivot: HomPoint, x: HomPoint) -> bool:
    """Whether x, its ``conj`` ("isogonal" or "isotomic") conjugate in the
    triangle ``sub`` (a ``SubTriangle``, the base included) and the pivot,
    a base point, are collinear."""
    return collinear(x, _centers.conjugate(sub, conj, x), pivot)
