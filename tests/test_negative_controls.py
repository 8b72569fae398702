"""Negative controls: each claim that passes in the pinned run can fail.

A claim's "100/100" shows something only if its check can fail (DeMillo,
Lipton and Sayward 1978).  One rule covers the claims: a recording Trial
logs the names a claim's check reads, and each is tried from the last read
back, preset in a fresh Trial to another value of the same type
(``STAND_INS``): a point to one of nine centers, a line to the Euler line
or OI, a conic or a cubic to another curve of ``CONSTRUCTIONS`` (the
``FITS`` among them) of the same degree.  Some preset must make the claim
fail with both sides shown on each of the first five seeds from 0 up that
setup accepts; a preset that setup refuses, or on which the check raises,
counts for nothing.  No such preset breaks a claim of ``HAND``, for the
reason given there; each has its own wrong value below.  The claims of
``FAILING`` fail in the pinned run (``verify all --trials 100 --seed 42``).
"""

import collections
import itertools

import pytest

from tricurves import scenarios
from tricurves.centers import random_triangle
from tricurves.curves import Conic, Cubic, axis_conic, isogonal_image
from tricurves.kernel import (
    LINE_AT_INFINITY, VERTEX_A, VERTEX_B, VERTEX_C, GeometryError, HomLine, HomPoint,
    join)
from tricurves.scenarios import (
    CONSTRUCTIONS, REGISTRY, SKIP, Failure, Trial, evaluate)

# the names whose values may stand in for a value of each type
STAND_INS = {HomPoint: ("H", "O", "M", "I", "K", "E", "L", "X7", "X8"),
             HomLine: ("euler_line", "oi"), Conic: CONSTRUCTIONS, Cubic: CONSTRUCTIONS}
SEEDS = 5

FAILING = {
    ("corr-excentral", "isogonal-mittenpunkt-vs-excentral-centroid"),
    ("corr-excentral", "excentral-conjugate-of-mittenpunkt-vs-homothety-center"),
    ("thm1-jerabek-excentral", "contains-de-longchamps"),
    ("thm1-jerabek-excentral", "center-at-circumcenter"),
    ("thm8-jerabek-midarc", "contains-bevan-conjugate"),
}
_RECTANGULAR = "every conic of CONSTRUCTIONS is a rectangular hyperbola"
_ECCENTRICITY = ("reads an axis conic and its e2, neither a point, a line nor a "
                 "curve; the other axis conic has e^2 = 4 too")
_PASCAL = ("Pascal's theorem holds for any six points on a conic, and a point "
           "or conic preset that takes a point off it makes the claim not apply")
HAND = {
    ("thm1-jerabek-excentral", "rectangular"): _RECTANGULAR,
    ("thm8-jerabek-midarc", "rectangular"): _RECTANGULAR,
    ("thm4-yff-medial", "eccentricity-squared-is-four"): _ECCENTRICITY,
    ("thm4-yff-medial", "base-eccentricity-squared-is-four"): _ECCENTRICITY,
    **{(sid, "pascal-line"): _PASCAL for sid in ("cor1", "cor2", "cor3", "cor4")},
    ("cor5-euler-line-component", "euler-points-are-inflections"):
        "only a cubic singular at a point it reads breaks it, and no cubic of "
        "CONSTRUCTIONS is singular at O, H, E or a point of STAND_INS",
}
CLAIMS = [(sid, claim.id) for sid, sc in REGISTRY.items() for claim in sc.claims]
GENERATED = [row for row in CLAIMS if row not in FAILING and row not in HAND]


def test_every_claim_is_failing_generated_or_hand_listed():
    assert len(set(CLAIMS)) == len(CLAIMS) == 86
    assert FAILING | HAND.keys() <= set(CLAIMS)
    assert (len(FAILING), len(GENERATED), len(HAND)) == (5, 72, 9)


class Recorder(Trial):
    """A Trial that logs each name read through it, in the order the reads
    finish, so a read's nested reads come before it."""

    def __init__(self, t):
        super().__init__(t)
        self.reads = []

    def __getitem__(self, name):
        value = super().__getitem__(name)
        self.reads.append(name)
        return value


def _claim(sid, cid):
    return next(c for c in REGISTRY[sid].claims if c.id == cid)


def _breaks(sid, cid, tr) -> bool:
    """Whether :func:`evaluate` on ``tr`` fails the claim with both sides shown."""
    sc = REGISTRY[sid]
    try:
        outcomes = evaluate(sc, tr)
    except GeometryError:  # setup refused the preset
        return False
    outcome = outcomes[sc.claims.index(_claim(sid, cid))]
    return isinstance(outcome, Failure) and bool(outcome.lhs) and bool(outcome.rhs)


def _accepted(sid):
    """(seed, Recorder after setup) for each seed from 0 up that setup accepts."""
    for seed in itertools.count():
        recorder = Recorder(random_triangle(seed))
        try:
            REGISTRY[sid].setup(recorder)
        except GeometryError:
            continue
        del recorder.reads[:]
        yield seed, recorder


def _presets(recorder):
    """For each name ``recorder`` logged, from the last read back, and each
    other value of its type that may stand in, a fresh Trial holding it."""
    source = Trial(recorder.t)
    for name in dict.fromkeys(reversed(recorder.reads)):
        value = recorder[name]
        for other in STAND_INS.get(type(value), ()):
            try:
                wrong = source[other]
            except GeometryError:
                continue
            if type(wrong) is type(value) and wrong != value:
                tr = Trial(recorder.t)
                tr[name] = wrong
                yield tr


def _some_preset_breaks(sid, cid, recorder) -> bool:
    """Whether a preset of what the claim's passing check read breaks it."""
    assert _claim(sid, cid).check(recorder) is None
    return any(_breaks(sid, cid, tr) for tr in _presets(recorder))


def _ids(rows):
    return [f"{sid}:{cid}" for sid, cid in rows]


@pytest.mark.parametrize("sid, cid", GENERATED, ids=_ids(GENERATED))
def test_a_same_type_preset_fails_the_claim(sid, cid):
    for seed, recorder in itertools.islice(_accepted(sid), SEEDS):
        assert _some_preset_breaks(sid, cid, recorder), seed


@pytest.mark.parametrize("sid, cid", list(HAND), ids=_ids(HAND))
def test_no_same_type_preset_fails_a_hand_listed_claim(sid, cid):
    # on the first seed that setup accepts: the reason in HAND holds there
    _, recorder = next(_accepted(sid))
    assert not _some_preset_breaks(sid, cid, recorder)


def _triangle_circumcircle(tri):
    """The circumcircle of ``tri``: the isogonal image of the line at infinity."""
    return lambda tr: isogonal_image(tr[tri], LINE_AT_INFINITY)


def _swapped_axis_conic(tr):
    """thm4's axis conic with the de Longchamps point and the orthocenter
    swapped: vertices at the centroid and the orthocenter, focus at the de
    Longchamps point.  On the Euler line O = 0, M = 1, H = 3 and L = -3,
    so the center is 2, a = 1 and c = 5: e^2 = 25."""
    return axis_conic(tr.t, tr["M"], tr["H"], tr["L"])


def _lines_through_circumcenter(tr):
    """The product of the lines from O to the vertices: a cubic singular at O."""
    l, m, n = (join(tr["O"], v).triple for v in (VERTEX_A, VERTEX_B, VERTEX_C))
    form = collections.Counter()
    for ijk in itertools.product(range(3), repeat=3):  # a variable from each line
        form[tuple(map(ijk.count, range(3)))] += l[ijk[0]] * m[ijk[1]] * n[ijk[2]]
    return Cubic(*(form[mon] for mon in Cubic.MONOMIALS))


WRONG = [  # (scenario, claim, name, a function of the Trial giving its wrong value)
    ("thm1-jerabek-excentral", "rectangular", "exc_conic",
     _triangle_circumcircle("excentral")),
    ("thm8-jerabek-midarc", "rectangular", "midarc_conic",
     _triangle_circumcircle("midarc")),
    ("thm4-yff-medial", "eccentricity-squared-is-four", "ax1", _swapped_axis_conic),
    ("thm4-yff-medial", "base-eccentricity-squared-is-four", "ax2", _swapped_axis_conic),
    ("cor5-euler-line-component", "euler-points-are-inflections", "composition",
     _lines_through_circumcenter),
]


@pytest.mark.parametrize("sid, cid, name, wrong", WRONG, ids=_ids(r[:2] for r in WRONG))
def test_wrong_value_fails_the_hand_listed_claim(sid, cid, name, wrong):
    for seed in range(SEEDS):
        tr = Trial(random_triangle(seed))
        tr[name] = wrong(tr)
        assert _breaks(sid, cid, tr), seed


PASCAL = {"cor1": "Mi", "cor2": "Mi", "cor3": "S", "cor4": "S"}  # a hexagon point each


@pytest.mark.parametrize("sid, point", PASCAL.items())
def test_hexagon_point_off_the_conic(sid, point):
    # the conic is fitted without the point, so H takes it off the conic
    for seed in range(SEEDS):
        tr = Trial(random_triangle(seed))
        tr[point] = tr["H"]
        assert _breaks(sid, "hexagon-on-conic", tr), seed
        assert _claim(sid, "pascal-line").check(tr) is SKIP, seed


@pytest.mark.parametrize("sid", list(PASCAL))
def test_pascal_line_not_collinear(sid, monkeypatch):
    monkeypatch.setattr(scenarios, "pascal_check", lambda pairs: False)
    assert all(_breaks(sid, "pascal-line", Trial(random_triangle(seed)))
               for seed in range(SEEDS))
