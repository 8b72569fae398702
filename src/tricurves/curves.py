"""Exact conics and cubics in homogeneous barycentric coordinates.

Curves are coefficient vectors up to scale, canonicalized like points
(coprime integers, first nonzero entry positive), so curve equality is
tuple equality.  A fit reads the kernel vector off one fraction-free
elimination; rank-deficient inputs raise :class:`DegeneratePointSet`
carrying a rank certificate, and a fit that misses one of its own points
raises :class:`CurveMissesPoint`.

Conic coefficient order is (q11, q22, q33, q12, q13, q23) for the form
q11*x^2 + q22*y^2 + q33*z^2 + 2*q12*x*y + 2*q13*x*z + 2*q23*y*z; cubic
coefficients follow the lexicographic monomial order x^3, x^2*y, x^2*z,
x*y^2, x*y*z, x*z^2, y^3, y^2*z, y*z^2, z^3.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from . import centers as _centers
from .kernel import (
    GeometryError,
    HomLine,
    HomPoint,
    LINE_AT_INFINITY,
    LineAtInfinity,
    Metric,
    PointAtInfinity,
    Rat,
    adjugate3,
    canonical_ints,
    collinear,
    cross,
    det3,
    incident,
    join,
    mat_vec,
    meet,
    midpoint,
    normalize_affine,
    affine_combine,
    perpendicular_line_through,
    span_points,
    squared_distance,
    two_points_on,
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


class _FormVector:
    """Canonical integer coefficient vector of a form, up to scale."""

    __slots__ = ("_v",)
    SIZE = 0

    def __init__(self, *coeffs: Rat):
        if len(coeffs) != self.SIZE:
            raise ValueError(f"{type(self).__name__} needs {self.SIZE} coefficients")
        object.__setattr__(self, "_v", canonical_ints(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._v

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other._v == self._v

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._v))

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self._v!r}"

    def serialize(self) -> list[str]:
        return [str(c) for c in self._v]


class Conic(_FormVector):
    SIZE = 6

    def matrix(self) -> tuple[tuple[int, int, int], ...]:
        q11, q22, q33, q12, q13, q23 = self._v
        return ((q11, q12, q13), (q12, q22, q23), (q13, q23, q33))

    def evaluate(self, p: HomPoint) -> int:
        q11, q22, q33, q12, q13, q23 = self._v
        x, y, z = p.triple
        return (q11 * x * x + q22 * y * y + q33 * z * z
                + 2 * (q12 * x * y + q13 * x * z + q23 * y * z))


class Cubic(_FormVector):
    SIZE = 10

    def evaluate(self, p: HomPoint) -> int:
        x, y, z = p.triple
        c = self._v
        return (c[0] * x**3 + c[1] * x * x * y + c[2] * x * x * z
                + c[3] * x * y * y + c[4] * x * y * z + c[5] * x * z * z
                + c[6] * y**3 + c[7] * y * y * z + c[8] * y * z * z
                + c[9] * z**3)

    def gradient(self, p: HomPoint) -> tuple[int, int, int]:
        x, y, z = p.triple
        c = self._v
        gx = (3 * c[0] * x * x + 2 * c[1] * x * y + 2 * c[2] * x * z
              + c[3] * y * y + c[4] * y * z + c[5] * z * z)
        gy = (c[1] * x * x + 2 * c[3] * x * y + c[4] * x * z
              + 3 * c[6] * y * y + 2 * c[7] * y * z + c[8] * z * z)
        gz = (c[2] * x * x + c[4] * x * y + 2 * c[5] * x * z
              + c[7] * y * y + 2 * c[8] * y * z + 3 * c[9] * z * z)
        return (gx, gy, gz)


def on_conic(p: HomPoint, c: Conic) -> bool:
    return c.evaluate(p) == 0


def on_cubic(p: HomPoint, k: Cubic) -> bool:
    return k.evaluate(p) == 0


# ---------------------------------------------------------------------------
# fitting

def _fit(form: type, points: Sequence[HomPoint], row) -> _FormVector:
    """The form through ``form.SIZE - 1`` points: the kernel of their rows."""
    n = form.SIZE - 1
    if len(points) != n:
        raise ValueError(f"{form.__name__.lower()}_through needs exactly {n} points")
    try:
        curve = form(*nullspace_vector([row(*p.triple) for p in points]))
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
    return _fit(Conic, points, lambda x, y, z: (
        x * x, y * y, z * z, 2 * x * y, 2 * x * z, 2 * y * z))


def cubic_through(points: Sequence[HomPoint]) -> Cubic:
    """The unique cubic through nine points in general position."""
    return _fit(Cubic, points, lambda x, y, z: tuple(
        x**i * y**j * z**k for (i, j, k) in CUBIC_MONOMIALS))


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


def _infinity_restriction(c: Conic) -> tuple[int, int, int]:
    """Coefficients (alpha, beta, gamma) of the conic on z = -x - y."""
    q11, q22, q33, q12, q13, q23 = c.coeffs
    alpha = q11 + q33 - 2 * q13
    gamma = q22 + q33 - 2 * q23
    beta = q33 + q12 - q13 - q23
    return alpha, beta, gamma


def is_rectangular(c: Conic, m: Metric) -> bool:
    """Whether the conic is a hyperbola with perpendicular asymptotes.

    Decided rationally: real distinct infinite points (beta^2 > alpha*gamma)
    whose directions satisfy the perpendicularity form, which reduces to
    a^2*alpha + b^2*gamma - 2*SC*beta = 0.
    """
    alpha, beta, gamma = _infinity_restriction(c)
    if alpha == 0 and beta == 0 and gamma == 0:
        raise DegenerateAtInfinity("conic contains the line at infinity")
    if beta * beta - alpha * gamma <= 0:
        return False
    return m.a2 * alpha + m.b2 * gamma - 2 * m.SC * beta == 0


# ---------------------------------------------------------------------------
# focus/directrix conics

def _quad_of_linear_product(u, v) -> tuple:
    """Coefficient vector of the product of two linear forms."""
    return (
        u[0] * v[0],
        u[1] * v[1],
        u[2] * v[2],
        Fraction(u[0] * v[1] + u[1] * v[0], 2),
        Fraction(u[0] * v[2] + u[2] * v[0], 2),
        Fraction(u[1] * v[2] + u[2] * v[1], 2),
    )


def conic_from_focus_directrix(m: Metric, focus: HomPoint, directrix: HomLine,
                               e2: Rat) -> Conic:
    """Locus of squared distance to the focus = e2 times squared distance
    to the directrix, homogenized by (x + y + z)^2."""
    e2 = Fraction(e2)
    if e2 <= 0:
        raise ValueError("squared eccentricity must be positive")
    if focus.is_infinite():
        raise PointAtInfinity("focus must be finite")
    if directrix.is_line_at_infinity():
        raise LineAtInfinity("directrix cannot be the line at infinity")
    if incident(focus, directrix):
        raise FocusOnDirectrix(f"{focus} lies on {directrix}")
    fx, fy, fz = normalize_affine(focus)
    ux = (1 - fx, -fx, -fx)
    uy = (-fy, 1 - fy, -fy)
    uz = (-fz, -fz, 1 - fz)
    c1 = [Fraction(0)] * 6
    for side2, (lin1, lin2) in zip(
        (m.a2, m.b2, m.c2), ((uy, uz), (uz, ux), (ux, uy))
    ):
        q = _quad_of_linear_product(lin1, lin2)
        for i in range(6):
            c1[i] -= side2 * q[i]
    q1, q2 = two_points_on(directrix)
    n1 = normalize_affine(q1)
    n2 = normalize_affine(q2)
    w = cross(n1, n2)
    scale = e2 * m.S2 / squared_distance(q1, q2, m)
    qw = _quad_of_linear_product(w, w)
    vec = [c1[i] - scale * qw[i] for i in range(6)]
    return Conic(*vec)


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


def _poly_add(p: dict, q: dict, sign: int = 1) -> dict:
    out = dict(p)
    for k, v in q.items():
        out[k] = out.get(k, 0) + sign * v
    return {k: v for k, v in out.items() if v != 0}


def _cubic_vector(poly: dict) -> tuple:
    return tuple(poly.get(mon, 0) for mon in CUBIC_MONOMIALS)


def _substitute(coeffs, lins) -> dict:
    """The cubic ``coeffs`` with x, y, z replaced by the forms ``lins``."""
    out: dict = {}
    for coeff, powers in zip(coeffs, CUBIC_MONOMIALS):
        if coeff == 0:
            continue
        term = {(0, 0, 0): coeff}
        for lin, power in zip(lins, powers):
            for _ in range(power):
                term = _poly_mul(term, lin)
        out = _poly_add(out, term)
    return out


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
        q = tuple(e - (i == v) for i, e in enumerate(mon))
        quo[q] = Fraction(rem[mon], lin[v])
        rem = _poly_add(rem, _poly_mul({q: quo[q]}, divisor), -1)
    return quo


def hessian(k: Cubic) -> Optional[Cubic]:
    """Hessian cubic (determinant of second partials); None if it vanishes."""
    c = k.coeffs
    h = {
        (0, 0): (6 * c[0], 2 * c[1], 2 * c[2]),
        (0, 1): (2 * c[1], 2 * c[3], c[4]),
        (0, 2): (2 * c[2], c[4], 2 * c[5]),
        (1, 1): (2 * c[3], 6 * c[6], 2 * c[7]),
        (1, 2): (c[4], 2 * c[7], 2 * c[8]),
        (2, 2): (2 * c[5], 2 * c[8], 6 * c[9]),
    }

    def entry(i, j):
        return _poly_lin(h[(min(i, j), max(i, j))])

    det = {}
    for perm, sign in (
        ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
        ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1),
    ):
        term = _poly_mul(_poly_mul(entry(0, perm[0]), entry(1, perm[1])),
                         entry(2, perm[2]))
        det = _poly_add(det, term, sign)
    vec = _cubic_vector(det)
    if all(v == 0 for v in vec):
        return None
    return Cubic(*vec)


# ---------------------------------------------------------------------------
# pencils with a line component

@dataclass(frozen=True)
class PencilFactorization:
    t: Fraction
    line: HomLine
    residual: Conic


def _restrict_cubic(k: Cubic, r0: HomPoint, r1: HomPoint) -> tuple[int, int, int, int]:
    """Binary cubic of k on the line spanned by r0, r1 (parameters s0, s1)."""
    form = _substitute(k.coeffs, [_poly_lin((u, w, 0))
                                  for u, w in zip(r0.triple, r1.triple)])
    return tuple(form.get((3 - i, i, 0), 0) for i in range(4))


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
        raise ValueError("cubics must be independent forms")
    r0, r1 = span_points(l)
    pr = _restrict_cubic(p, r0, r1)
    qr = _restrict_cubic(q, r0, r1)
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
    tn, td = t.numerator, t.denominator
    comp = [td * a - tn * b for a, b in zip(p.coeffs, q.coeffs)]
    if all(v == 0 for v in comp):
        raise ValueError("cubics are proportional forms")
    quo = _divide_linear({m: c for m, c in zip(CUBIC_MONOMIALS, comp) if c},
                         l.triple)
    residual = Conic(*(quo.get(m, 0) for m in ((2, 0, 0), (0, 2, 0), (0, 0, 2))),
                     *(Fraction(quo.get(m, 0), 2)
                       for m in ((1, 1, 0), (1, 0, 1), (0, 1, 1))))
    return PencilFactorization(t, l, residual)


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
    sc = center.x + center.y + center.z
    flat = []
    for i in range(3):
        for j in range(3):
            val = (1 - ratio) * center.triple[i]
            if i == j:
                val += ratio * sc
            flat.append(val)
    ints = canonical_ints(flat)
    return (ints[0:3], ints[3:6], ints[6:9])


def transform_point(matrix, p: HomPoint) -> HomPoint:
    return HomPoint(*mat_vec(matrix, p.triple))


def _checked_adjugate(matrix):
    if det3(matrix) == 0:
        raise SingularMatrix("transformation matrix is singular")
    return adjugate3(matrix)


def transform_conic(matrix, c: Conic) -> Conic:
    """Push-forward: p on c iff matrix*p on the result."""
    n = _checked_adjugate(matrix)
    q = c.matrix()
    nt = tuple(zip(*n))
    tmp = tuple(tuple(sum(nt[i][k] * q[k][j] for k in range(3)) for j in range(3))
                for i in range(3))
    out = tuple(tuple(sum(tmp[i][k] * n[k][j] for k in range(3)) for j in range(3))
                for i in range(3))
    return Conic(out[0][0], out[1][1], out[2][2], out[0][1], out[0][2], out[1][2])


def transform_cubic(matrix, k: Cubic) -> Cubic:
    """Push-forward: p on k iff matrix*p on the result."""
    n = _checked_adjugate(matrix)
    return Cubic(*_cubic_vector(_substitute(k.coeffs, [_poly_lin(row) for row in n])))


# ---------------------------------------------------------------------------
# pivotal cubic membership

def pivotal_membership(t, pivot: HomPoint, conj: str, x: HomPoint,
                       sub=None) -> bool:
    """Whether x, its conjugate, and the pivot are collinear.

    ``conj`` is "isogonal" or "isotomic"; ``sub`` selects the derived
    triangle whose conjugation is used (base triangle when omitted).
    """
    if conj == "isogonal":
        cx = (_centers.isogonal(t, x) if sub is None
              else _centers.isogonal_in(t, sub, x))
    elif conj == "isotomic":
        cx = (_centers.isotomic(x) if sub is None
              else _centers.isotomic_in(t, sub, x))
    else:
        raise ValueError(f"unknown conjugation {conj!r}")
    return collinear(x, cx, pivot)
