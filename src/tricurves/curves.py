"""Exact conics and cubics in homogeneous barycentric coordinates.

Curves are coefficient vectors up to scale, canonicalized like points
(coprime integers, first nonzero entry positive), so curve equality is
tuple equality.  A fit reads the kernel vector off one fraction-free
elimination; rank-deficient inputs raise :class:`DegeneratePointSet`
carrying a rank certificate, and a fit that misses one of its own points
raises :class:`CurveMissesPoint`.

Each curve class holds one monomial table (``MONOMIALS`` and ``WEIGHTS``).
Conic coefficient order is (q11, q22, q33, q12, q13, q23) for the form
q11*x^2 + q22*y^2 + q33*z^2 + 2*q12*x*y + 2*q13*x*z + 2*q23*y*z; cubic
coefficients follow the lexicographic monomial order x^3, x^2*y, x^2*z,
x*y^2, x*y*z, x*z^2, y^3, y^2*z, y*z^2, z^3.  Push-forwards, Hessians,
gradients and pencil quotients work on the form as a monomial dictionary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import NamedTuple, Optional, Sequence

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
    adjugate3,
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
    affine_combine,
    perpendicular_line_through,
    span_points,
    squared_distance,
)
from .linalg import RankDeficient, nullspace_vector


class DegeneratePointSet(GeometryError):
    """Fit input of deficient rank; carries rank and an independent subset."""

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


class _FormVector(_CanonicalVector):
    """Canonical integer coefficient vector of a form, up to scale.

    ``MONOMIALS`` lists the exponent triples in coefficient order and
    ``WEIGHTS`` the factor each coefficient carries in the form.  Each
    subclass spells the weighted monomials at a point out once, in its
    static ``row(p)`` (the fit row); evaluation, the monomial dictionary
    ``form()`` and everything built on it derive from the table.
    """

    __slots__ = ()
    MONOMIALS: tuple[tuple[int, int, int], ...] = ()
    WEIGHTS: tuple[int, ...] = ()

    def __init__(self, *coeffs: Rat):
        if len(coeffs) != len(self.MONOMIALS):
            raise ValueError(
                f"{type(self).__name__} needs {len(self.MONOMIALS)} coefficients")
        object.__setattr__(self, "_v", canonical_ints(coeffs))

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._v

    def serialize(self) -> list[str]:
        return [str(c) for c in self._v]

    def evaluate(self, p: HomPoint) -> int:
        return sum(map(mul, self._v, self.row(p)))

    def form(self) -> dict:
        """The form as a monomial dictionary ``{(i, j, k): coefficient}``."""
        return {mon: w * c for mon, w, c in zip(self.MONOMIALS, self.WEIGHTS, self._v)
                if c}

    @classmethod
    def from_form(cls, poly: dict):
        """The canonical curve of a monomial dictionary of this degree."""
        if not poly.keys() <= set(cls.MONOMIALS):
            raise ValueError(f"not a {cls.__name__.lower()} form: {sorted(poly)}")
        # divided by the weights and scaled by their lcm: integers stay integers
        top = lcm(*cls.WEIGHTS)
        return cls(*(poly.get(mon, 0) * (top // w)
                     for mon, w in zip(cls.MONOMIALS, cls.WEIGHTS)))


class Conic(_FormVector):
    MONOMIALS = ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1))
    WEIGHTS = (1, 1, 1, 2, 2, 2)

    @staticmethod
    def row(p: HomPoint) -> tuple[int, ...]:
        x, y, z = p.triple
        return (x * x, y * y, z * z, 2 * x * y, 2 * x * z, 2 * y * z)

    def matrix(self) -> tuple[tuple[int, int, int], ...]:
        q11, q22, q33, q12, q13, q23 = self._v
        return ((q11, q12, q13), (q12, q22, q23), (q13, q23, q33))


class Cubic(_FormVector):
    MONOMIALS = CUBIC_MONOMIALS
    WEIGHTS = (1,) * 10

    @staticmethod
    def row(p: HomPoint) -> tuple[int, ...]:
        x, y, z = p.triple
        xx, yy, zz = x * x, y * y, z * z
        return (xx * x, xx * y, xx * z, x * yy, x * y * z, x * zz,
                yy * y, yy * z, y * zz, zz * z)

    def gradient(self, p: HomPoint) -> tuple[int, int, int]:
        form = self.form()
        return tuple(_poly_eval(_poly_diff(form, v), p) for v in range(3))


def on_conic(p: HomPoint, c: Conic) -> bool:
    return c.evaluate(p) == 0


def on_cubic(p: HomPoint, k: Cubic) -> bool:
    return k.evaluate(p) == 0


# ---------------------------------------------------------------------------
# fitting

def _fit(form: type, points: Sequence[HomPoint]) -> _FormVector:
    """The form through one point fewer than it has coefficients: the kernel
    of their rows."""
    n = len(form.MONOMIALS) - 1
    if len(points) != n:
        raise ValueError(f"{form.__name__.lower()}_through needs exactly {n} points")
    try:
        curve = form(*nullspace_vector([form.row(p) for p in points]))
    except RankDeficient as exc:
        certificate = exc.rank, exc.independent
    else:
        if any(curve.evaluate(p) for p in points):
            raise CurveMissesPoint(f"fitted {curve!r} misses one of its points")
        return curve
    # raised outside the handler, so the error holds no elimination frames
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

    Decided rationally: real distinct infinite points (beta^2 > alpha*gamma)
    perpendicular in the Gram form G, which on the chart rows r0, r1 reads
    gamma r0.G.r0 - 2 beta r0.G.r1 + alpha r1.G.r1 = 0.
    """
    alpha, beta, gamma = _infinity_restriction(c)
    if alpha == 0 and beta == 0 and gamma == 0:
        raise DegenerateAtInfinity("conic contains the line at infinity")
    if beta * beta - alpha * gamma <= 0:
        return False
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
    e2 = Fraction(e2)
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
    d_point = affine_combine(((center, 1 - ratio), (focus, ratio)))
    directrix = perpendicular_line_through(join(v1, v2), d_point, m)
    conic = conic_from_focus_directrix(m, focus, directrix, e2)
    if conic.evaluate(v1) or conic.evaluate(v2):
        raise CurveMissesPoint(f"axis conic {conic!r} misses a vertex")
    return AxisConic(conic, e2, directrix)


def conic_second_intersection(c: Conic, p: HomPoint, q: HomPoint) -> HomPoint:
    """Second intersection of the line p q with the conic, p on the conic.

    Returns q if q is also on the conic, and p itself when the line is
    tangent at p.  Kept for the tests, which generate conic points with it.
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


# ---------------------------------------------------------------------------
# Pascal lines

Segment = tuple[HomPoint, HomPoint]


def pascal_check(pairs: Sequence[tuple[Segment, Segment]]) -> tuple[HomLine, bool]:
    """Meets of three pairs of chords; returns their line and collinearity."""
    if len(pairs) != 3:
        raise ValueError("pascal_check needs exactly 3 pairs of segments")
    meets = []
    for (p, q), (r, s) in pairs:
        meets.append(meet(join(p, q), join(r, s)))
    line = join(meets[0], meets[1])
    return line, collinear(meets[0], meets[1], meets[2])


# ---------------------------------------------------------------------------
# ternary forms as monomial dictionaries {(i, j, k): coefficient}

def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for (i1, j1, k1), c1 in p.items():
        for (i2, j2, k2), c2 in q.items():
            key = (i1 + i2, j1 + j2, k1 + k2)
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v != 0}


def _poly_lin(coeffs) -> dict:
    out = {}
    for var, c in zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), coeffs):
        if c != 0:
            out[var] = c
    return out


def _poly_add(p: dict, q: dict, factor: Rat = 1) -> dict:
    """The form p + factor * q."""
    out = dict(p)
    for k, v in q.items():
        out[k] = out.get(k, 0) + factor * v
    return {k: v for k, v in out.items() if v != 0}


def _lower(mon: tuple[int, int, int], v: int) -> tuple[int, int, int]:
    """The monomial ``mon`` divided by variable ``v`` (0, 1, 2 for x, y, z)."""
    i, j, k = mon
    return (i - 1, j, k) if v == 0 else (i, j - 1, k) if v == 1 else (i, j, k - 1)


def _poly_diff(p: dict, v: int) -> dict:
    """Partial derivative of ``p`` in variable ``v``."""
    return {_lower(mon, v): c * mon[v] for mon, c in p.items() if mon[v]}


def _poly_eval(p: dict, pt: HomPoint) -> int:
    x, y, z = pt.triple
    return sum(c * x**i * y**j * z**k for (i, j, k), c in p.items())


def _substitute(p: dict, lins) -> dict:
    """The form ``p`` with x, y, z replaced by the forms ``lins``."""
    # monomial -> its image, each built by one product from a lower one
    images = {(0, 0, 0): {(0, 0, 0): 1}, (1, 0, 0): lins[0], (0, 1, 0): lins[1],
              (0, 0, 1): lins[2]}

    def image(mon):
        if mon not in images:
            v = 0 if mon[0] else 1 if mon[1] else 2
            images[mon] = _poly_mul(image(_lower(mon, v)), lins[v])
        return images[mon]

    out: dict = {}
    for mon, coeff in p.items():
        out = _poly_add(out, image(mon), coeff)
    return out


def _restrict(curve: _FormVector, r0, r1) -> tuple[int, ...]:
    """Binary form of the curve on the line through the triples r0, r1:
    the coefficients of s0^n, s0^(n-1)*s1, ..., s1^n in the form at
    s0*r0 + s1*r1, n the degree."""
    n = sum(curve.MONOMIALS[0])
    on_line = _substitute(curve.form(), [_poly_lin((u, w, 0)) for u, w in zip(r0, r1)])
    return tuple(on_line.get((n - i, i, 0), 0) for i in range(n + 1))


def _divide_linear(p: dict, lin) -> dict:
    """Exact quotient of the form ``p`` by the linear form ``lin``.

    Eliminates monomials from the highest power of one variable of ``lin``
    down; a nonzero remainder raises :class:`NoLinearComponent`.
    """
    v = next(i for i, c in enumerate(lin) if c != 0)
    divisor = _poly_lin(lin)
    rem, quo = dict(p), {}
    while rem:
        mon = max(rem, key=lambda m: m[v])
        if mon[v] == 0:
            raise NoLinearComponent("line does not divide the pencil member")
        q = _lower(mon, v)
        quo[q] = Fraction(rem[mon], lin[v])
        rem = _poly_add(rem, _poly_mul({q: quo[q]}, divisor), -1)
    return quo


def hessian(k: Cubic) -> Optional[Cubic]:
    """Hessian cubic (determinant of second partials); None if it vanishes."""
    grad = [_poly_diff(k.form(), i) for i in range(3)]
    h = [[_poly_diff(g, j) for j in range(3)] for g in grad]
    det: dict = {}
    for perm, sign in (
        ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
        ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1),
    ):
        term = _poly_mul(_poly_mul(h[0][perm[0]], h[1][perm[1]]), h[2][perm[2]])
        det = _poly_add(det, term, sign)
    return Cubic.from_form(det) if det else None


# ---------------------------------------------------------------------------
# pencils with a line component

@dataclass(frozen=True)
class PencilFactorization:
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
    quo = _divide_linear(pencil_combination(p, q, t).form(), l.triple)
    return PencilFactorization(t, l, Conic.from_form(quo))


# ---------------------------------------------------------------------------
# projective transforms (homotheties and their action on curves)

def homothety_matrix(center: HomPoint, ratio: Rat):
    """Integer matrix acting on homogeneous coordinates as the homothety
    with the given center and ratio (on normalized barycentrics)."""
    ratio = Fraction(ratio)
    if ratio == 0:
        raise ZeroRatio("homothety ratio must be nonzero")
    if center.is_infinite():
        raise PointAtInfinity("homothety center must be finite")
    # d times the entries (1 - n/d) * c_i + (n/d) * sum(c) * [i == j]
    n, d, sc = ratio.numerator, ratio.denominator, sum(center.triple)
    ints = canonical_ints([(d - n) * c + (n * sc if i == j else 0)
                           for i, c in enumerate(center.triple) for j in range(3)])
    return (ints[0:3], ints[3:6], ints[6:9])


def transform_point(matrix, p: HomPoint) -> HomPoint:
    return HomPoint(*mat_vec(matrix, p.triple))


def _transform(matrix, curve: _FormVector) -> _FormVector:
    """Push-forward: substitute the rows of adj(matrix) into the form."""
    if det3(matrix) == 0:
        raise SingularMatrix("transformation matrix is singular")
    lins = [_poly_lin(row) for row in adjugate3(matrix)]
    return type(curve).from_form(_substitute(curve.form(), lins))


def transform_conic(matrix, c: Conic) -> Conic:
    """Push-forward: p on c iff matrix*p on the result."""
    return _transform(matrix, c)


def transform_cubic(matrix, k: Cubic) -> Cubic:
    """Push-forward: p on k iff matrix*p on the result."""
    return _transform(matrix, k)


# ---------------------------------------------------------------------------
# pivotal cubic membership

def pivotal_membership(t, pivot: HomPoint, conj: str, x: HomPoint,
                       sub=None) -> bool:
    """Whether x, its conjugate, and the pivot are collinear.

    ``conj`` is "isogonal" or "isotomic"; ``sub`` selects the derived
    triangle whose conjugation is used (base triangle when omitted).
    """
    return collinear(x, _centers.conjugate(t, conj, sub, x), pivot)
