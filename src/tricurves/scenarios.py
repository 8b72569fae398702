"""Executable verification scenarios over seeded random triangles.

Each scenario encodes one correspondence table, theorem, or corollary as a
list of exact claims.  Claims are split by expectation: ``must-pass``
claims follow from classical identities (a failure means a bug in this
package), while ``verdict-only`` claims are the novel assertions under
test; their failures are first-class results and carry full counterexample
certificates (triangle sides plus both canonical values compared).

Everything here is exact; a claim is pass or fail, never approximately so.

How a scenario is declared: it is data over one table of names, resolved
and stored per triangle by its :class:`Trial`.  A name is a point (a
:data:`ALIASES` entry such as ``"Be"``, a vertex name from ``_POINTS`` such
as ``"I1"``, or any :func:`parse_center` expression such as
``"center(excentral,X25)"``), a derived triangle (its kind, e.g.
``"orthic"``), a fitted curve from ``FITS`` (the curves under test), or
another entry of ``CONSTRUCTIONS``, such as a reference curve built by
definition: ``"jerabek"``, the base isogonal image of the Euler line
(:func:`isogonal_image`, the one rule for the image of a line in any
triangle), or ``"thomson"``, ``"darboux"``, ``"lucas"``,
``"thomson_orthic"`` and ``"darboux_orthic"``, pivotal cubics of the base
or the orthic triangle (:func:`pivotal_cubic`), each given its pivot as
the point named in its collinearity claim (``"M"``, ``"L"``, ...);
``"ax1.conic"`` reads an attribute of a construction.
:func:`_scenario` takes the names ``setup`` resolves eagerly on the Trial
it is given, in order (a degenerate triangle is skipped or refused where
that construction fails), the claims (made by the builders below from
names), and the figure as ``(label, name)`` entries (a bare name is its
own label), which only :func:`build_figure` resolves.  :func:`evaluate` is
the one rule for a single triangle (setup, then each check's value or
exception); :func:`run_scenario` folds its outcomes.

Every scenario reads largely the same names on the same seeded triangles,
so :func:`shared_run` scopes one :class:`Run` to a block: inside it,
:func:`run_scenario` takes each seeded triangle's :class:`Trial` from the
run by cursor, so the triangle is drawn once and each name is resolved
once on it, whichever scenario asks first.  Only values are stored; a
name that raised is resolved (and raises) again.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple, Optional

from .centers import (
    _KIND_NAMES,
    CenterExpr,
    CenterId,
    OnSideline,
    TriangleKind,
    derived_subtriangle,
    derived_triangle,
    eval_center_in,
    eval_expr,
    parse_center,
    random_triangle,
)
from .curves import (
    BothVanishOnLine,
    Conic,
    Cubic,
    DegeneratePointSet,
    NoLinearComponent,
    axis_conic,
    conic_center,
    conic_through,
    cubic_through,
    hessian,
    homothety_matrix,
    is_rectangular,
    isogonal_image,
    line_component,
    pascal_check,
    pencil_combination,
    pivotal_cubic,
    pivotal_membership,
    transform_conic,
    transform_cubic,
)
from .kernel import (
    CoincidentArguments,
    GeometryError,
    RefTriangle,
    incident,
    join,
)

MUST = "must-pass"
VERDICT = "verdict-only"

SKIP = object()  # claim not applicable on this trial


class Failure(NamedTuple):
    lhs: str
    rhs: str
    detail: str = ""


@dataclass(frozen=True)
class Claim:
    id: str
    kind: str
    expectation: str
    check: Callable[["Trial"], object]


@dataclass(frozen=True)
class Scenario:
    id: str
    description: str
    setup: Callable[["Trial"], "Trial"]  # resolves its names, returns the Trial
    claims: tuple[Claim, ...]
    figure: tuple  # points, curves, lines: each a tuple of (label, name)


class UnknownScenario(GeometryError):
    """No scenario registered under the requested id."""


class TooManySkips(GeometryError):
    """``setup`` refused ``SKIP_LIMIT`` times the trial count of seeded
    triangles, so the run stops instead of drawing forever."""


SKIP_LIMIT = 100  # skipped triangles allowed per requested trial


# ---------------------------------------------------------------------------
# names

# vertices of the base and derived triangles, and the orthic side midpoints,
# as parse_center text
_POINTS: dict[str, str] = {
    "A": "VertexA", "B": "VertexB", "C": "VertexC",
    **{f"{prefix}{i + 1}": f"vertex({kind},{i})"
       for prefix, kind in (("I", "excentral"), ("A", "midarc"), ("E", "euler"),
                            ("H", "orthic"), ("M", "medial"))
       for i in range(3)},
    "Mh1": "midpoint(vertex(orthic,1),vertex(orthic,2))",
    "Mh2": "midpoint(vertex(orthic,2),vertex(orthic,0))",
    "Mh3": "midpoint(vertex(orthic,0),vertex(orthic,1))",
}


@lru_cache(maxsize=None)
def _expr(name: str) -> CenterExpr:
    return parse_center(_POINTS.get(name, name))


def _labelled(entries) -> tuple[tuple[str, str], ...]:
    """(label, name) pairs; a bare name is its own label."""
    return tuple((e, e) if isinstance(e, str) else tuple(e) for e in entries)


_THM5_POINTS = ("M1", "M2", "M3",
                *(f"reflect(E,vertex(medial,{i}))" for i in range(3)),
                "Sp", "E", "O")

# fitted curves: name -> the 5 (conic) or 9 (cubic) points, in fit order
FITS = {
    "exc_conic": ("I1", "I2", "I3", "Be", "I"),
    "midarc_conic": ("A1", "A2", "A3", "O", "I"),
    "thm2_cubic": ("A", "B", "C", "H1", "H2", "H3", "H", "E",
                   ("M(orthic)", "center(orthic,X2)")),
    "thm3_cubic": ("A", "B", "C", "H1", "H2", "H3", "H", "E", "O"),
    "thm5_cubic": tuple((f"P{i + 1}", n) for i, n in enumerate(_THM5_POINTS)),
    "thm6_cubic": ("A", "B", "C", "M1", "M2", "M3", "M", "O", "I"),
    "thm7_cubic": ("E1", "E2", "E3", "M1", "M2", "M3", "M_IH", "E", "H"),
}


def _fit(entries):
    names = [name for _, name in _labelled(entries)]

    def fit(tr: "Trial"):
        # looked up per call, so rebinding the module's fitters takes effect
        fitter = conic_through if len(names) == 5 else cubic_through
        return fitter([tr[n] for n in names])

    return fit


CONSTRUCTIONS: dict[str, Callable[["Trial"], object]] = {
    **{name: _fit(points) for name, points in FITS.items()},
    "jerabek": lambda tr: isogonal_image(tr["base"], tr["euler_line"]),
    "thomson": lambda tr: pivotal_cubic(tr["base"], "isogonal", tr["M"]),
    "darboux": lambda tr: pivotal_cubic(tr["base"], "isogonal", tr["L"]),
    "lucas": lambda tr: pivotal_cubic(tr["base"], "isotomic", tr["X69"]),
    "thomson_orthic": lambda tr: pivotal_cubic(tr["orthic"], "isogonal",
                                               tr["center(orthic,X2)"]),
    "darboux_orthic": lambda tr: pivotal_cubic(tr["orthic"], "isogonal",
                                               tr["center(orthic,X20)"]),
    "oexc": lambda tr: derived_subtriangle(tr["excentral"], TriangleKind.ORTHIC),
    "oexc_symmedian": lambda tr: eval_center_in(tr["oexc"], CenterId.X6),
    "oi": lambda tr: join(tr["O"], tr["I"]),
    "euler_line": lambda tr: join(tr["O"], tr["H"]),
    "exc_conic_center": lambda tr: conic_center(tr["exc_conic"]),
    "ax1": lambda tr: axis_conic(tr.t, tr["M"], tr["L"], tr["H"]),
    "ax2": lambda tr: axis_conic(tr.t, tr["M"], tr["H"], tr["O"]),
    "fact": lambda tr: line_component(tr["thm3_cubic"], tr["thm5_cubic"],
                                      tr["euler_line"]),
    "composition": lambda tr: pencil_combination(
        tr["thm3_cubic"], tr["thm5_cubic"], tr["fact"].t),
}


class Trial(dict):
    """The memo of one triangle ``t``: each value by name, resolved on first
    use and stored (a name that raises stores nothing).  A derived triangle
    is stored under its kind, a ``str`` enum equal to its name, so
    ``eval_expr``, which gets the Trial as its memo, and ``tr["excentral"]``
    read the same entry.  A :class:`Run` hands every scenario on one seeded
    triangle the same Trial."""

    def __init__(self, t: RefTriangle):
        self.t = t

    def __missing__(self, name: str):
        owner, dot, attr = name.partition(".")
        if name in _KIND_NAMES:
            value = derived_triangle(self.t, _KIND_NAMES[name])
        elif name in CONSTRUCTIONS:
            value = CONSTRUCTIONS[name](self)
        elif dot:
            value = getattr(self[owner], attr)
        else:
            value = eval_expr(self.t, _expr(name), self)
        self[name] = value
        return value


# ---------------------------------------------------------------------------
# claim builders (a value is named; eq_claim's may be a function of the Trial)

def _shown(v) -> str:
    """A curve as its coefficient list, any other value as ``str``."""
    return ",".join(v.serialize()) if isinstance(v, (Conic, Cubic)) else str(v)


def eq_claim(cid: str, expectation: str, lhs, rhs, kind: str = "point-equality",
             detail: str = "values differ") -> Claim:
    """``lhs`` equals ``rhs``, each a name or a function of the Trial."""
    left, right = (x if callable(x) else itemgetter(x) for x in (lhs, rhs))

    def check(tr: Trial):
        a, b = left(tr), right(tr)
        if a == b:
            return None
        return Failure(_shown(a), _shown(b), detail)

    return Claim(cid, kind, expectation, check)


def membership_claim(cid: str, expectation: str, curve: str, points) -> Claim:
    entries = _labelled(points)

    def check(tr: Trial):
        c = tr[curve]
        pts = [(lbl, tr[n]) for lbl, n in entries]
        bad = [(lbl, p) for lbl, p in pts if c.evaluate(p) != 0]
        if not bad:
            return None
        labels = ", ".join(lbl for lbl, _ in bad)
        return Failure(str(bad[0][1]), "0", f"off the curve: {labels}")

    return Claim(cid, "membership", expectation, check)


def fit_claim(curve: str) -> Claim:
    """Must-pass: the fitted curve passes through every point it was fit to."""
    return membership_claim("fit-consistency", MUST, curve, FITS[curve])


def curve_eq_claim(cid: str, lhs, rhs) -> Claim:
    return eq_claim(cid, MUST, lhs, rhs, "curve-equality",
                    "coefficient vectors differ")


def pushforward_claim(cid: str, source: str, center: str, ratio: Fraction,
                      target: str) -> Claim:
    """Must-pass: the homothety (center, ratio) maps ``source`` to ``target``."""
    def image(tr: Trial):
        curve = tr[source]
        move = transform_conic if isinstance(curve, Conic) else transform_cubic
        return move(homothety_matrix(tr[center], ratio), curve)

    return curve_eq_claim(cid, image, target)


def rectangular_claim(curve: str) -> Claim:
    def check(tr: Trial):
        c = tr[curve]
        if is_rectangular(c, tr.t):
            return None
        return Failure(_shown(c), "rectangular",
                       "asymptotes are not real perpendicular directions")

    return Claim("rectangular", "rectangularity", MUST, check)


def characterization_claim(cid: str, conic: str, line: str, points, tri: str,
                           what: str = "characterization",
                           on_curve: bool = False) -> Claim:
    """Must-pass: a point is on the conic iff its isogonal conjugate in
    ``tri`` is on the line (and, with ``on_curve``, every point is on it).

    The point names must be :func:`parse_center` text, since the conjugate
    is resolved as ``isogonal(<tri>,<name>)``."""
    entries = _labelled(points)

    def check(tr: Trial):
        c, l = tr[conic], tr[line]
        for lbl, name in entries:
            lhs = c.evaluate(tr[name]) == 0
            rhs = incident(tr[f"isogonal({tri},{name})"], l)
            if lhs != rhs or (on_curve and not lhs):
                return Failure(f"on_conic={lhs}", f"conjugate_on_line={rhs}",
                               f"{what} breaks at {lbl}")
        return None

    return Claim(cid, "membership", MUST, check)


def pivotal_claim(cid: str, tri: str, conj: str, pivot: str, points,
                  what: str) -> Claim:
    """Must-pass: each point, its conjugate in the ``tri`` triangle and the
    pivot are collinear; a point on a sideline of ``tri``, which has no
    conjugate, is passed over."""
    entries = _labelled(points)

    def check(tr: Trial):
        pv, sub = tr[pivot], tr[tri]
        for lbl, name in entries:
            p = tr[name]
            try:
                on = pivotal_membership(sub, conj, pv, p)
            except OnSideline:  # p has no conjugate, so no collinearity to check
                continue
            if not on:
                return Failure(str(p), str(pv),
                               f"{lbl} breaks the {what} collinearity")
        return None

    return Claim(cid, "collinearity", MUST, check)


def pascal_claims(conic: str, hexagon, pairs) -> tuple[Claim, Claim]:
    """Hexagon membership, and the Pascal line of the chord pairs (a, b, c,
    d): the meets of a-b with c-d must align.  A hexagon off the conic, or
    with two coinciding chords or points, is skipped."""
    entries = _labelled(hexagon)

    def pascal_line(tr: Trial):
        pts = {lbl: tr[n] for lbl, n in entries}
        if any(tr[conic].evaluate(p) for p in pts.values()):
            return SKIP
        try:
            verdict = pascal_check(tuple(((pts[a], pts[b]), (pts[c], pts[d]))
                                         for a, b, c, d in pairs))
        except CoincidentArguments:  # a degenerate hexagon has no Pascal line
            return SKIP
        if verdict:
            return None
        return Failure("meets not collinear", "collinear",
                       "three chord intersections fail to align")

    return (membership_claim("hexagon-on-conic", VERDICT, conic, hexagon),
            Claim("pascal-line", "collinearity", VERDICT, pascal_line))


# ---------------------------------------------------------------------------
# bespoke checks

def _directrix_through(axis: str, point: str, lbl: str):
    def check(tr: Trial):
        p, directrix = tr[point], tr[axis].directrix
        if incident(p, directrix):
            return None
        return Failure(str(directrix), str(p), f"directrix misses {lbl}")

    return check


def _antipodes(tr: Trial):
    for i in range(3):
        got, want = tr[f"reflect(E,vertex(euler,{i}))"], tr[f"M{i + 1}"]
        if got != want:
            return Failure(str(got), str(want),
                           "reflection in the nine-point center is not "
                           "the opposite side midpoint")
    return None


def _factorization(tr: Trial):
    try:
        tr["composition"]
    except (NoLinearComponent, BothVanishOnLine) as exc:
        return Failure("no factorization", "line divides pencil member",
                       str(exc))
    return None


def _hessian_membership(tr: Trial):
    try:  # the factorization claim records why there is none
        comp = tr["composition"]
    except GeometryError:
        return SKIP
    hes = hessian(comp)
    if hes is None:
        return Failure("hessian vanishes identically", "cubic",
                       "degenerate composition")
    for lbl in ("O", "H", "E"):
        pnt = tr[lbl]
        if comp.evaluate(pnt) or hes.evaluate(pnt):
            return Failure(str(pnt), "0",
                           f"{lbl} misses the composition or its hessian")
    return None


def _smooth(tr: Trial):
    try:
        comp = tr["composition"]
    except GeometryError:
        return SKIP
    singular = [lbl for lbl in ("O", "H", "E")
                if comp.gradient(tr[lbl]) == (0, 0, 0)]
    if not singular:
        return None
    return Failure(", ".join(singular), "smooth (inflection)",
                   "gradient vanishes: singular intersection with the "
                   "residual conic, not an inflection")


# ---------------------------------------------------------------------------
# scenario definitions

def _scenario(sid: str, description: str, build, claims, points=(), curves=(),
              lines=()) -> Scenario:
    """Compile a declared scenario: ``setup`` builds ``build`` in order;
    the figure stays names."""
    def setup(tr: Trial) -> Trial:
        for name in build:
            tr[name]
        return tr

    figure = tuple(_labelled(part) for part in (points, curves, lines))
    return Scenario(sid, description, setup, tuple(claims), figure)


def _rows(kind: str, rows):
    """Correspondence rows: the ``kind`` triangle's center equals ``rhs``."""
    return [eq_claim(cid, exp, f"center({kind},{sub})", rhs)
            for cid, exp, sub, rhs in rows]


_EXC_HEXAGON = ("I1", "I2", "Be", "Mi", "I",
                ("L", "isogonal(excentral,center(excentral,X20))"))
_MIDARC_HEXAGON = ("A2", "A3", ("Be", "isogonal(midarc,center(midarc,X20))"),
                   "I", "S", "O")

_COR_NOTE = (
    "  The sixth point is the conjugate, in the derived triangle, of that "
    "triangle's de Longchamps point (the point the conic construction "
    "actually contains)."
)


def _pascal_scenario(sid: str, description: str, conic: str, hexagon,
                     pairs) -> Scenario:
    return _scenario(
        sid, description + _COR_NOTE,
        build=(conic, *(name for _, name in _labelled(hexagon))),
        claims=pascal_claims(conic, hexagon, pairs),
        points=hexagon, curves=[("conic", conic)])


_SCENARIOS = (
    _scenario(
        "corr-excentral",
        "Center correspondences between the base triangle and its excentral "
        "triangle: orthocenter, nine-point center, circumcenter and symmedian "
        "rows are classical; the centroid, Taylor-center and "
        "conjugate-of-mittenpunkt rows are tested verbatim as claimed.",
        build=("excentral", "oexc"),
        claims=[
            *_rows("excentral", (
                ("incenter-is-excentral-orthocenter", MUST, "X4", "I"),
                ("circumcenter-is-excentral-ninepoint", MUST, "X5", "O"),
                ("bevan-is-excentral-circumcenter", MUST, "X3", "Be"),
                ("mittenpunkt-is-excentral-symmedian", MUST, "X6", "Mi"))),
            eq_claim("isogonal-mittenpunkt-vs-excentral-centroid", VERDICT,
                     "isogonal(Mi)", "center(excentral,X2)"),
            eq_claim("spieker-vs-excentral-taylor-center", VERDICT,
                     "Sp", "center(excentral,X389)"),
            eq_claim("symmedian-of-excentral-orthic", MUST,
                     "oexc_symmedian", "Sy"),
            eq_claim("excentral-conjugate-of-mittenpunkt-vs-homothety-center",
                     VERDICT, "isogonal(excentral,Mi)", "center(excentral,X25)"),
        ],
        points=("I", "O", "Be", "Mi", "Sp", "I1", "I2", "I3")),
    _scenario(
        "thm1-jerabek-excentral",
        "Rectangular circumconic of the excentral triangle fitted through the "
        "excenters, the Bevan point and the incenter; tests mittenpunkt and "
        "de Longchamps membership, the center-at-circumcenter claim, and that "
        "the conic is the excentral isogonal image of the line through the "
        "incenter and circumcenter.",
        build=("exc_conic", "oi"),
        claims=[
            fit_claim("exc_conic"),
            membership_claim("contains-mittenpunkt", VERDICT, "exc_conic", ["Mi"]),
            membership_claim("contains-de-longchamps", VERDICT, "exc_conic", ["L"]),
            eq_claim("center-at-circumcenter", VERDICT, "exc_conic_center", "O",
                     kind="conic-center",
                     detail="conic center is not the circumcenter"),
            rectangular_claim("exc_conic"),
            eq_claim("isogonal-image-of-oi-line", VERDICT, "exc_conic",
                     lambda tr: isogonal_image(tr["excentral"], tr["oi"]),
                     "curve-equality", "conic is not the excentral isogonal image of OI"),
            characterization_claim("isogonal-characterization", "exc_conic",
                                   "oi", ("Be", "I", "Mi", "L"), "excentral"),
        ],
        points=("I1", "I2", "I3", "Be", "I", "Mi", "L"),
        curves=[("conic", "exc_conic")], lines=[("OI", "oi")]),
    _scenario(
        "thm2-thomson-excentral",
        "Cubic fitted through the vertices, the altitude feet, the "
        "orthocenter, the nine-point center and the orthic centroid; it must "
        "coincide with the Thomson cubic of the orthic triangle, and "
        "membership of the orthic side midpoints, both symmedian points and "
        "the orthic-tangential homothety center is reported.",
        build=("thm2_cubic", "Mh1", "Mh2", "Mh3", "thomson_orthic"),
        claims=[
            fit_claim("thm2_cubic"),
            membership_claim("contains-orthic-side-midpoints", VERDICT,
                             "thm2_cubic", ["Mh1", "Mh2", "Mh3"]),
            membership_claim("contains-symmedian-point", VERDICT, "thm2_cubic",
                             ["Sy"]),
            membership_claim("contains-orthic-symmedian", VERDICT, "thm2_cubic",
                             [("Sy(orthic)", "center(orthic,X6)")]),
            membership_claim("contains-orthic-tangential-homothety-center",
                             VERDICT, "thm2_cubic", ["GOT"]),
            curve_eq_claim("equals-thomson-of-orthic", "thm2_cubic",
                           "thomson_orthic"),
        ],
        points=("H", "E", "Sy"), curves=[("cubic", "thm2_cubic")]),
    _scenario(
        "thm3-darboux-excentral",
        "Cubic exactly determined by the vertices, altitude feet, "
        "orthocenter, nine-point center and circumcenter; it must equal the "
        "Darboux cubic of the orthic triangle, whose pivotal-collinearity "
        "oracle is checked on all non-vertex points.",
        build=("thm3_cubic", "darboux_orthic"),
        claims=[
            fit_claim("thm3_cubic"),
            curve_eq_claim("equals-darboux-of-orthic", "thm3_cubic",
                           "darboux_orthic"),
            pivotal_claim("orthic-pivotal-oracle", "orthic", "isogonal",
                          "center(orthic,X20)", ("A", "B", "C", "H", "E", "O"),
                          "orthic pivotal"),
        ],
        points=("H", "E", "O"), curves=[("cubic", "thm3_cubic")]),
    _scenario(
        "corr-medial",
        "Medial-triangle correspondence rows, each an instance of the "
        "complement commutation: centers of the medial triangle equal the "
        "complements of the base centers.  The Bevan row is skipped as "
        "self-referential (it names the Bevan point of the medial triangle "
        "on both sides).",
        build=("medial",),
        claims=[
            *_rows("medial", (
                ("incenter-to-spieker", MUST, "X1", "Sp"),
                ("centroid-fixed", MUST, "X2", "M"),
                ("circumcenter-to-ninepoint", MUST, "X3", "E"),
                ("orthocenter-to-circumcenter", MUST, "X4", "O"),
                ("de-longchamps-to-orthocenter", MUST, "X20", "H"),
                ("nagel-to-incenter", MUST, "X8", "I"),
                ("gergonne-to-mittenpunkt", MUST, "X7", "Mi"))),
            eq_claim("anticomplementary-symmedian-to-symmedian", MUST,
                     "anticomplement(center(medial,X6))", "Sy"),
            eq_claim("third-brocard-to-brocard-midpoint", MUST,
                     "center(medial,X76)", "MB"),
        ],
        points=("Sp", "M", "E", "O", "H", "I", "Mi")),
    _scenario(
        "thm4-yff-medial",
        "Axis conic with vertices at the centroid and the de Longchamps "
        "point and focus at the orthocenter: squared eccentricity exactly 4, "
        "directrix through the circumcenter; the centroid/orthocenter conic "
        "with focus at the circumcenter is its image under the homothety at "
        "the centroid with ratio -1/2 (directrix through the nine-point "
        "center).",
        build=("ax1", "ax2"),
        claims=[
            eq_claim("eccentricity-squared-is-four", MUST, "ax1.e2", lambda tr: 4,
                     "eccentricity-value", "squared eccentricity differs"),
            Claim("directrix-through-circumcenter", "directrix-incidence",
                  VERDICT, _directrix_through("ax1", "O", "the circumcenter")),
            eq_claim("base-eccentricity-squared-is-four", VERDICT, "ax2.e2",
                     lambda tr: 4, "eccentricity-value", "squared eccentricity differs"),
            Claim("base-directrix-through-ninepoint", "directrix-incidence",
                  VERDICT, _directrix_through("ax2", "E", "the nine-point center")),
            pushforward_claim("homothety-pushforward", "ax1.conic", "M",
                              Fraction(-1, 2), "ax2.conic"),
        ],
        points=("M", "L", "H", "O", "E"),
        curves=[("conic", "ax1.conic"), ("base-conic", "ax2.conic")],
        lines=[("directrix", "ax1.directrix")]),
    _scenario(
        "thm5-darboux-medial",
        "Cubic fitted through the side midpoints, their reflections in the "
        "nine-point center, the Spieker center, the nine-point center and "
        "the circumcenter; must equal the image of the Darboux cubic under "
        "the homothety at the centroid with ratio -1/2, and membership of "
        "the orthocenter and of the medial isogonal conjugate of the medial "
        "de Longchamps point is reported.",
        build=("thm5_cubic", "darboux"),
        claims=[
            fit_claim("thm5_cubic"),
            membership_claim("contains-orthocenter", VERDICT, "thm5_cubic", ["H"]),
            membership_claim("contains-medial-conjugate-of-orthocenter",
                             VERDICT, "thm5_cubic", ["HA"]),
            pushforward_claim("equals-darboux-pushforward", "darboux", "M",
                              Fraction(-1, 2), "thm5_cubic"),
        ],
        points=("Sp", "E", "O", "H"), curves=[("cubic", "thm5_cubic")]),
    _scenario(
        "thm6-lucas-medial",
        "Cubic fitted through the vertices, side midpoints, centroid, "
        "circumcenter and incenter; must equal the image of the Lucas cubic "
        "under the homothety at the centroid with ratio -1/2, every "
        "designated point satisfying the medial isotomic pivotal "
        "collinearity; symmedian point, mittenpunkt and orthocenter "
        "membership is reported.",
        build=("thm6_cubic", "lucas", "center(medial,X69)"),
        claims=[
            fit_claim("thm6_cubic"),
            membership_claim("contains-symmedian-point", VERDICT, "thm6_cubic",
                             ["Sy"]),
            membership_claim("contains-mittenpunkt", VERDICT, "thm6_cubic", ["Mi"]),
            membership_claim("contains-orthocenter", VERDICT, "thm6_cubic", ["H"]),
            pushforward_claim("equals-lucas-pushforward", "lucas", "M",
                              Fraction(-1, 2), "thm6_cubic"),
            pivotal_claim("medial-isotomic-pivotal-oracle", "medial", "isotomic",
                          "center(medial,X69)",
                          ("A", "B", "C", "M", "O", "I", "Sy", "Mi", "H"),
                          "medial isotomic"),
        ],
        points=("Sy", "M", "O", "Mi", "I", "H"), curves=[("cubic", "thm6_cubic")]),
    _scenario(
        "corr-euler",
        "Correspondence rows for the triangle of vertex-orthocenter "
        "midpoints, each an instance of the half-turn-free homothety at the "
        "orthocenter with ratio 1/2 acting on centers.",
        build=("euler",),
        claims=_rows("euler", (
            ("incenter-to-incenter-orthocenter-midpoint", MUST, "X1", "M_IH"),
            ("centroid-to-centroid-orthocenter-midpoint", MUST, "X2", "M_MH"),
            ("circumcenter-to-ninepoint", MUST, "X3", "E"),
            ("orthocenter-fixed", MUST, "X4", "H"),
            ("nagel-to-fuhrmann", MUST, "X8", "F"),
            ("de-longchamps-to-circumcenter", MUST, "X20", "O"))),
        points=("E1", "E2", "E3", "E", "H", "O", "F")),
    _scenario(
        "thm7-darboux-euler",
        "Cubic fitted through the vertex-orthocenter midpoints, the side "
        "midpoints, the incenter-orthocenter midpoint, the nine-point center "
        "and the orthocenter; must equal the image of the Darboux cubic "
        "under the homothety at the orthocenter with ratio 1/2, with "
        "circumcenter membership reported.",
        build=("thm7_cubic", "darboux"),
        claims=[
            fit_claim("thm7_cubic"),
            Claim("antipode-consistency", "point-equality", MUST, _antipodes),
            membership_claim("contains-circumcenter", VERDICT, "thm7_cubic", ["O"]),
            pushforward_claim("equals-darboux-pushforward", "darboux", "H",
                              Fraction(1, 2), "thm7_cubic"),
        ],
        points=("M_IH", "E", "H", "O"), curves=[("cubic", "thm7_cubic")]),
    _scenario(
        "corr-midarc",
        "Correspondence rows between the arc-midpoint triangle and the base "
        "triangle: circumcenter and orthocenter rows are classical; the "
        "symmedian, de Longchamps and Kosnita rows are tested verbatim as "
        "claimed.",
        build=("midarc",),
        claims=_rows("midarc", (
            ("circumcenter-fixed", MUST, "X3", "O"),
            ("orthocenter-to-incenter", MUST, "X4", "I"),
            ("symmedian-to-mittenpunkt-incenter-midpoint", VERDICT, "X6", "M_MiI"),
            ("de-longchamps-to-bevan", VERDICT, "X20", "Be"),
            ("kosnita-to-schiffler", VERDICT, "X54", "S"))),
        points=("A1", "A2", "A3", "O", "I", "Be", "S")),
    _scenario(
        "thm8-jerabek-midarc",
        "Rectangular circumconic of the arc-midpoint triangle fitted through "
        "its vertices, the circumcenter and the incenter; membership of the "
        "mittenpunkt-incenter midpoint, the Schiffler point and the base "
        "isogonal conjugate of the Bevan point is reported, and the conic "
        "must be the arc-midpoint isogonal image of the line through the "
        "circumcenter and incenter.",
        build=("midarc_conic", "oi", "M_MiI"),
        claims=[
            fit_claim("midarc_conic"),
            membership_claim("contains-mittenpunkt-incenter-midpoint", VERDICT,
                             "midarc_conic", ["M_MiI"]),
            membership_claim("contains-schiffler", VERDICT, "midarc_conic", ["S"]),
            membership_claim("contains-bevan-conjugate", VERDICT, "midarc_conic",
                             [("BeP", "X84")]),
            rectangular_claim("midarc_conic"),
            characterization_claim("isogonal-characterization", "midarc_conic",
                                   "oi", ("O", "I", "M_MiI", "S", ("BeP", "X84")),
                                   "midarc"),
        ],
        points=("A1", "A2", "A3", "O", "I", "M_MiI", "S"),
        curves=[("conic", "midarc_conic")], lines=[("OI", "oi")]),
    _pascal_scenario(
        "cor1",
        "Pascal line for the hexagon (I2, Be, Mi, I, L, I1) on the "
        "excentral rectangular circumconic: the meets of I2-Be with L-I, "
        "Be-Mi with I1-L, and Mi-I with I2-I1 must align.",
        "exc_conic", _EXC_HEXAGON,
        (("I2", "Be", "L", "I"), ("Be", "Mi", "I1", "L"), ("Mi", "I", "I2", "I1"))),
    _pascal_scenario(
        "cor2",
        "Pascal line for the hexagon (I2, Mi, L, Be, I1, I) on the "
        "excentral rectangular circumconic: the meets of I2-Mi with Be-I1, "
        "Mi-L with I1-I, and L-Be with I-I2 must align.  The third pair is "
        "the unique hexagon-consistent correction of a duplicated I-I2 "
        "pairing.",
        "exc_conic", _EXC_HEXAGON,
        (("I2", "Mi", "Be", "I1"), ("Mi", "L", "I1", "I"), ("L", "Be", "I", "I2"))),
    _pascal_scenario(
        "cor3",
        "Pascal line for the hexagon (A2, Be, A3, I, S, O) on the "
        "arc-midpoint rectangular circumconic, S the Schiffler point: the "
        "meets of A2-Be with S-I, I-A3 with O-A2, and Be-A3 with O-S must "
        "align.",
        "midarc_conic", _MIDARC_HEXAGON,
        (("A2", "Be", "S", "I"), ("I", "A3", "O", "A2"), ("Be", "A3", "O", "S"))),
    _pascal_scenario(
        "cor4",
        "Pascal line for the hexagon (Be, S, A3, A2, I, O) on the "
        "arc-midpoint rectangular circumconic: the meets of Be-O with "
        "A3-A2, Be-S with I-A2, and A3-S with I-O must align.  The third "
        "pair is the unique hexagon-consistent correction of a duplicated "
        "I-A2 pairing.",
        "midarc_conic", _MIDARC_HEXAGON,
        (("Be", "S", "A2", "I"), ("S", "A3", "I", "O"), ("A3", "A2", "O", "Be"))),
    _scenario(
        "cor5-euler-line-component",
        "The pencil of the altitude-feet cubic and the midpoint cubic has a "
        "member divisible by the Euler line (both cubics share the "
        "circumcenter, orthocenter and nine-point center, which are "
        "collinear); those three points must lie on the composition and on "
        "its Hessian, and each is classified as an inflection (smooth) or a "
        "singular point of the composition.",
        build=("thm3_cubic", "thm5_cubic", "euler_line"),
        claims=[
            Claim("euler-line-factorization", "factorization", VERDICT,
                  _factorization),
            Claim("hessian-membership", "hessian-membership", MUST,
                  _hessian_membership),
            Claim("euler-points-are-inflections", "hessian-membership", VERDICT,
                  _smooth),
        ],
        points=("O", "H", "E"),
        curves=[("first-cubic", "thm3_cubic"), ("second-cubic", "thm5_cubic")],
        lines=[("euler", "euler_line")]),
    _scenario(
        "defs-sanity",
        "Base-triangle curve definitions: the isogonal-image circumconic of "
        "the Euler line, the cubic through the vertices, side midpoints and "
        "excenters (centroid pivot), and the cubic through the vertices, "
        "incenter, circumcenter, orthocenter and reflections (de Longchamps "
        "pivot) each contain every designated center, verified by the "
        "conjugation oracles.",
        build=("jerabek", "thomson", "darboux", "euler_line"),
        claims=[
            membership_claim("isogonal-conic-members", MUST, "jerabek",
                             ["Sy", ("LP", "X64")]),
            characterization_claim("isogonal-conic-characterization", "jerabek",
                                   "euler_line", ("Sy", ("LP", "X64")), "base",
                                   what="isogonal characterization",
                                   on_curve=True),
            membership_claim("median-cubic-members", MUST, "thomson",
                             ["I", "M", "O", "Sy", "Mi", ("MiP", "X57")]),
            pivotal_claim("median-cubic-pivotal-oracle", "base", "isogonal", "M",
                          ("I", "O", "Sy", "Mi", ("MiP", "X57")),
                          "centroid-pivot"),
            membership_claim("reflection-cubic-members", MUST, "darboux",
                             ["I", "O", "Be", "I2", "I3"]),
            pivotal_claim("reflection-cubic-pivotal-oracle", "base", "isogonal", "L",
                          ("I", "O", "H", "Be", "I2", "I3"),
                          "de-Longchamps-pivot"),
        ],
        points=("O", "H", "Sy", "I", "M"),
        curves=[("isogonal-conic", "jerabek"), ("median-cubic", "thomson"),
                ("reflection-cubic", "darboux")]),
)

REGISTRY: dict[str, Scenario] = {sc.id: sc for sc in _SCENARIOS}


def list_scenarios() -> list[tuple[str, str, int]]:
    """Registry entries as (id, description, claim count), stable order."""
    return [(s.id, s.description, len(s.claims)) for s in REGISTRY.values()]


# ---------------------------------------------------------------------------
# runner

class ClaimResult(NamedTuple):
    """One claim's outcome over a run, built once its trials are done;
    ``failures`` holds its certificates."""

    id: str
    kind: str
    expectation: str
    status: str
    failures: list[dict]


class Report(NamedTuple):
    scenario: str
    description: str
    trials: int
    seed: int
    skipped: int
    claims: list[ClaimResult]
    elapsed_ms: int

    def to_dict(self) -> dict:
        """The report as fresh JSON-ready containers, keys in field order."""
        return {**self._asdict(), "claims": [{
            **c._asdict(),
            # a certificate's one container is its triangle, a tuple shared
            # by every certificate of one trial, handed out as a fresh list
            "failures": [{**f, "triangle": list(f["triangle"])} for f in c.failures],
        } for c in self.claims]}

    @property
    def must_pass_ok(self) -> bool:
        return all(c.status == "pass" for c in self.claims
                   if c.expectation == MUST)

    @property
    def has_error(self) -> bool:
        return any(c.status == "error" for c in self.claims)

    @property
    def verdict_failures(self) -> list[str]:
        return [c.id for c in self.claims
                if c.expectation == VERDICT and c.status != "pass"]


class Run(dict):
    """What the scenarios of one run share: the :class:`Trial` of each
    seeded triangle, by cursor, drawn on first use.  It lives as long as
    the :func:`shared_run` block that made it, or the one
    :func:`run_scenario` call outside such a block."""

    def __missing__(self, cursor: int) -> Trial:
        tr = self[cursor] = Trial(random_triangle(cursor))
        return tr


_RUN: ContextVar[Optional[Run]] = ContextVar("tricurves_run", default=None)


@contextmanager
def shared_run() -> Iterator[Run]:
    """Make every :func:`run_scenario` call in the block share one
    :class:`Run`; on leaving the block (normally or by an exception) the
    run and everything it holds are dropped."""
    run = Run()
    token = _RUN.set(run)
    try:
        yield run
    finally:
        _RUN.reset(token)


def evaluate(sc: Scenario, tr: Trial) -> list:
    """Run ``sc.setup(tr)`` (a refusal propagates), then give each claim's
    outcome on the triangle, in claim order: what its check returns or the
    exception it raised, traceback cleared."""
    sc.setup(tr)
    outcomes = []
    for claim in sc.claims:
        try:
            outcomes.append(claim.check(tr))
        except Exception as exc:  # an outcome; the remaining claims still run
            outcomes.append(exc.with_traceback(None))
    return outcomes


def run_scenario(scenario_id: str, trials: int, seed: int) -> Report:
    """Fold :func:`evaluate` of a scenario over ``trials`` seeded triangles.

    Triangles on which ``setup`` meets a rank-deficient fit, coinciding
    arguments or a conjugate of a point on a sideline are skipped,
    replaced and counted; after ``SKIP_LIMIT * trials`` skips the run
    raises :class:`TooManySkips`.  A claim that raises is recorded as
    ``status: error`` with the exception type in the certificate's detail.
    Deterministic for fixed (id, trials, seed), inside a
    :func:`shared_run` block or not.
    """
    if scenario_id not in REGISTRY:
        raise UnknownScenario(f"unknown scenario {scenario_id!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    sc = REGISTRY[scenario_id]
    run = _RUN.get()
    if run is None:  # not `or`: an empty Run is falsy
        run = Run()
    t0 = time.perf_counter()
    certificates = [[] for _ in sc.claims]
    raised = set()  # indices of the claims that raised on some trial
    skipped = 0
    cursor = seed
    for _ in range(trials):
        while True:
            tr = run[cursor]
            cursor += 1
            try:
                outcomes = evaluate(sc, tr)
            except (DegeneratePointSet, CoincidentArguments, OnSideline):
                skipped += 1
                if skipped >= SKIP_LIMIT * trials:
                    raise TooManySkips(
                        f"{scenario_id}: setup refused {skipped} seeded "
                        f"triangles for {trials} trial(s)") from None
                continue
            break
        triangle = None  # the sides as text, shared by this triangle's certificates
        for k, outcome in enumerate(outcomes):
            if outcome is SKIP or outcome is None:
                continue
            if isinstance(outcome, Exception):
                raised.add(k)
                outcome = Failure("", "", f"error: {type(outcome).__name__}: {outcome}")
            if triangle is None:
                a, b, c = tr.t.sides
                triangle = (str(a), str(b), str(c))
            certificates[k].append({"triangle": triangle,
                                    "lhs": outcome.lhs, "rhs": outcome.rhs,
                                    "detail": outcome.detail})
    results = [ClaimResult(c.id, c.kind, c.expectation,
                           "error" if k in raised else "fail" if certs else "pass", certs)
               for k, (c, certs) in enumerate(zip(sc.claims, certificates))]
    elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return Report(sc.id, sc.description, trials, seed, skipped, results,
                  elapsed_ms)


def run_all(trials: int, seed: int) -> list[Report]:
    """Run every registered scenario (registry order) with the same seed,
    in one :func:`shared_run`."""
    with shared_run():
        return [run_scenario(sid, trials, seed) for sid in REGISTRY]


def build_figure(scenario_id: str, t: RefTriangle) -> dict:
    """Exact figure payload (points, curves, lines) for rendering.

    Runs the scenario's ``setup`` first, so a triangle it refuses is refused
    here too; the figure's names are resolved only after that.
    """
    if scenario_id not in REGISTRY:
        raise UnknownScenario(f"unknown scenario {scenario_id!r}")
    sc = REGISTRY[scenario_id]
    tr = sc.setup(Trial(t))
    return {part: [(lbl, tr[name]) for lbl, name in entries]
            for part, entries in zip(("points", "curves", "lines"), sc.figure)}
