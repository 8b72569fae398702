"""Metamorphic checks: a relabelled, reversed or scaled triangle gives the
same verdicts, a failing claim's certificate gives the same points, its
catalog centers are the same points, and the squared distances between
them are the same, or 9 times as large on a triangle scaled 3 times.

The cyclic relabel (a, b, c) -> (b, c, a) makes B, C and A the vertices
A', B' and C' of the new triangle, so a point (x : y : z) reads
(y : z : x) there.  The reversal (a, b, c) -> (b, a, c) swaps A and B, so
the point reads (y : x : z), and, as it reverses the orientation, it swaps
the two Brocard points.  Scaling the sides moves no point.  A derived
triangle's vertices follow the base's, so its centers move the same way.

A projective map M moves a fitted curve too: the curve through the points
M p is the push-forward of the curve through the points p.  So a claim that
a point lies on a curve or a line, or that three chord meets align, has the
same verdict on the values moved by M.  The order of the points moves
nothing: a fit through them reversed or shuffled is the same curve, and a
rank-deficient set has the same rank in every order.
"""

import dataclasses
import random
from itertools import combinations

import pytest

from tricurves.centers import (
    CATALOG,
    Catalog,
    CenterId,
    CenterOf,
    TriangleKind,
    eval_expr,
    random_triangle,
)
from tricurves.curves import (
    Conic,
    Cubic,
    DegeneratePointSet,
    conic_through,
    cubic_through,
    transform_conic,
    transform_cubic,
)
from tricurves.kernel import (
    GeometryError,
    HomLine,
    HomPoint,
    RefTriangle,
    adjugate3,
    det3,
    mat_vec,
    squared_distance,
)
from tricurves.scenarios import FITS, REGISTRY, SKIP, Failure, Trial, _labelled, evaluate

from reference import RETIRED_FITS

_A, _B, _C = CenterId.VERTEX_A, CenterId.VERTEX_B, CenterId.VERTEX_C
_W1, _W2 = CenterId.OMEGA1, CenterId.OMEGA2

# name: (the triangle, the point's new coordinates from its old ones, and
# the catalog entry of the base that each entry of the new triangle is)
TRANSFORMS = {
    "relabel": (lambda t: RefTriangle(t.b, t.c, t.a),
                lambda x, y, z: (y, z, x), {_A: _B, _B: _C, _C: _A}),
    "reversal": (lambda t: RefTriangle(t.b, t.a, t.c),
                 lambda x, y, z: (y, x, z), {_A: _B, _B: _A, _W1: _W2, _W2: _W1}),
    "scaling": (lambda t: RefTriangle(3 * t.a, 3 * t.b, 3 * t.c),
                lambda x, y, z: (x, y, z), {}),
}

VERDICT_SEEDS = range(30)
CENTER_SEEDS = range(200)
DERIVED_SEEDS = range(30)
FIT_SEEDS = range(20)
# the scenarios' fits and the point sets the reference cubics, now built by
# definition, were once fitted through: each is a 5- or 9-point fit to check
POINT_SETS = {**FITS, **RETIRED_FITS}


def _verdicts(sc, tr):
    """Each claim's verdict by :func:`evaluate` on the Trial ``tr``: pass,
    fail, n/a, or the type of a claim's error; or the type of the setup's
    refusal."""
    try:
        outcomes = evaluate(sc, tr)
    except GeometryError as exc:
        return type(exc).__name__
    return ["n/a" if res is SKIP else "pass" if res is None
            else type(res).__name__ if isinstance(res, Exception) else "fail"
            for res in outcomes]


def _center(t, expr, memo):
    """The point of a center expression, or the type of its refusal."""
    try:
        return eval_expr(t, expr, memo)
    except GeometryError as exc:
        return type(exc).__name__


def _moved_centers(name, seeds, node):
    """Each (seed, center) whose ``node(cid)`` on the moved triangle is not
    ``node`` of the entry it comes from, moved; a refusal must recur."""
    move, permute, source = TRANSFORMS[name]
    wrong = []
    for seed in seeds:
        t = random_triangle(seed)
        moved, memo, moved_memo = move(t), {}, {}
        for cid in CATALOG:
            want = _center(t, node(source.get(cid, cid)), memo)
            if isinstance(want, HomPoint):
                want = HomPoint(*permute(*want.triple))  # canonical again
            if _center(moved, node(cid), moved_memo) != want:
                wrong.append((seed, str(node(cid))))
    return wrong


@pytest.mark.parametrize("sid", list(REGISTRY))
def test_verdicts_survive_relabel_reversal_and_scaling(sid):
    sc = REGISTRY[sid]
    for seed in VERDICT_SEEDS:
        t = random_triangle(seed)
        want = _verdicts(sc, Trial(t))
        for name, (move, _, _) in TRANSFORMS.items():
            assert _verdicts(sc, Trial(move(t))) == want, (seed, name)


# the claims that fail on seeds 0-29, each on every one of them, by scenario;
# every certificate they give is a point, or "0" for a curve's value there
FAILING_CLAIMS = {
    "corr-excentral": {"isogonal-mittenpunkt-vs-excentral-centroid",
                       "excentral-conjugate-of-mittenpunkt-vs-homothety-center"},
    "thm1-jerabek-excentral": {"contains-de-longchamps", "center-at-circumcenter"},
    "thm8-jerabek-midarc": {"contains-bevan-conjugate"},
}


def _failures(sc, t):
    """Each claim's :class:`Failure` on the triangle ``t``, by claim id."""
    return {claim.id: res for claim, res in zip(sc.claims, evaluate(sc, Trial(t)))
            if isinstance(res, Failure)}


def _certificate(text, permute=lambda x, y, z: (x, y, z)):
    """A certificate value read back: "0" as it is, a point ``x:y:z`` as
    the canonical point of its coordinates moved by ``permute``."""
    return text if text == "0" else HomPoint(*permute(*map(int, text.split(":"))))


def test_failing_claims_are_listed():
    for sid, sc in REGISTRY.items():
        for seed in VERDICT_SEEDS:
            try:
                failing = set(_failures(sc, random_triangle(seed)))
            except GeometryError:  # setup refused the triangle
                continue
            assert failing == FAILING_CLAIMS.get(sid, set()), (sid, seed)


@pytest.mark.parametrize("name", list(TRANSFORMS))
def test_failure_certificates_move_with_the_vertices(name):
    """A failing claim fails on the moved triangle too, with its certificate
    values moved by the transform's coordinate map and the same detail."""
    move, permute, _ = TRANSFORMS[name]
    for sid in FAILING_CLAIMS:
        sc = REGISTRY[sid]
        for seed in VERDICT_SEEDS:
            t = random_triangle(seed)
            base, moved = _failures(sc, t), _failures(sc, move(t))
            assert set(moved) == set(base) == FAILING_CLAIMS[sid], (sid, seed)
            for cid, want in base.items():
                got = moved[cid]
                assert (_certificate(got.lhs), _certificate(got.rhs), got.detail) == (
                    _certificate(want.lhs, permute), _certificate(want.rhs, permute),
                    want.detail), (sid, cid, seed)


@pytest.mark.parametrize("name", list(TRANSFORMS))
def test_catalog_centers_move_with_the_vertices(name):
    assert _moved_centers(name, CENTER_SEEDS, Catalog) == []


@pytest.mark.parametrize("kind", [k for k in TriangleKind if k is not TriangleKind.BASE])
@pytest.mark.parametrize("name", list(TRANSFORMS))
def test_derived_centers_move_with_the_vertices(name, kind):
    # reads each derived triangle's metric, which the base's centers do not
    assert _moved_centers(name, DERIVED_SEEDS, lambda cid: CenterOf(kind, cid)) == []


def _finite_centers(t):
    """Each catalog entry of ``t`` that is a finite point, by its id."""
    points, memo = {}, {}
    for cid in CATALOG:
        p = _center(t, Catalog(cid), memo)
        if isinstance(p, HomPoint) and not p.is_infinite():
            points[cid] = p
    return points


@pytest.mark.parametrize("name", list(TRANSFORMS))
def test_squared_distances_move_with_the_vertices(name):
    """Between every two finite catalog centers or vertices, the squared
    distance is the same on the relabelled and the reversed triangle and
    9 times as large on the 3x scaled one.  The verdicts cannot show every
    metric error: a Gram form with c2 and b2 swapped in its first row makes
    thm1 and thm8 ``rectangular`` fail on both labellings alike."""
    move, _, source = TRANSFORMS[name]
    factor = 9 if name == "scaling" else 1
    for seed in VERDICT_SEEDS:
        t = random_triangle(seed)
        moved = move(t)
        base, points = _finite_centers(t), _finite_centers(moved)
        assert len(points) == len(base) > 3, seed
        for p, q in combinations(points, 2):
            want = squared_distance(base[source.get(p, p)], base[source.get(q, q)], t)
            assert squared_distance(points[p], points[q], moved) == factor * want, (
                seed, p, q)


def test_every_catalog_center_is_defined_somewhere():
    """The comparisons above compare points, not only refusals."""
    t, memo = random_triangle(0), {}
    assert all(isinstance(_center(t, Catalog(cid), memo), HomPoint)
               for cid in CATALOG)


def _projective_map(rng):
    """A random nonsingular integer matrix with entries in -5..5."""
    while True:
        m = tuple(tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(3))
        if det3(m):
            return m


@pytest.mark.parametrize("curve", list(POINT_SETS))
def test_fits_move_with_a_projective_map(curve):
    # every fit is defined on these seeds, so each case compares two curves
    names = [name for _, name in _labelled(POINT_SETS[curve])]
    fit, push = ((conic_through, transform_conic) if len(names) == 5
                 else (cubic_through, transform_cubic))
    for seed in FIT_SEEDS:
        tr, m = Trial(random_triangle(seed)), _projective_map(random.Random(seed))
        points = [tr[n] for n in names]
        moved = [HomPoint(*mat_vec(m, p.triple)) for p in points]
        assert fit(moved) == push(m, fit(points)), seed


def test_fits_do_not_depend_on_point_order():
    # with its last point replaced by its first, each set is rank-deficient
    for seed in FIT_SEEDS:
        tr, rng = Trial(random_triangle(seed)), random.Random(seed)
        for curve, entries in POINT_SETS.items():
            points = [tr[name] for _, name in _labelled(entries)]
            fit = conic_through if len(points) == 5 else cubic_through
            assert fit(points[::-1]) == fit(rng.sample(points, len(points))) \
                == fit(points), (curve, seed)
            repeated = points[:-1] + points[:1]
            ranks = set()
            for order in (repeated, repeated[::-1], rng.sample(repeated, len(repeated))):
                with pytest.raises(DegeneratePointSet) as exc:
                    fit(order)
                ranks.add(exc.value.rank)
            assert len(ranks) == 1, (curve, seed, ranks)


# the claims a projective map need not keep: each conjugates in a triangle
# inside its check, and conjugation is metric (the pivotal collinearities)
METRIC_CLAIMS = {
    "orthic-pivotal-oracle", "medial-isotomic-pivotal-oracle",
    "median-cubic-pivotal-oracle", "reflection-cubic-pivotal-oracle",
}


def _moved(m, value):
    """``value`` moved by the map ``m``: a point by ``mat_vec``, a line by
    the transposed adjugate, a curve by its push-forward; None otherwise."""
    if isinstance(value, HomPoint):
        return HomPoint(*mat_vec(m, value.triple))
    if isinstance(value, HomLine):
        return HomLine(*mat_vec(tuple(zip(*adjugate3(m))), value.coeffs))
    if isinstance(value, Conic):
        return transform_conic(m, value)
    if isinstance(value, Cubic):
        return transform_cubic(m, value)
    return None


def test_memberships_and_pascal_lines_move_with_a_projective_map():
    projective = [dataclasses.replace(sc, claims=tuple(
        c for c in sc.claims if c.kind in ("membership", "collinearity")
        and c.id not in METRIC_CLAIMS)) for sc in REGISTRY.values()]
    assert METRIC_CLAIMS <= {c.id for sc in REGISTRY.values() for c in sc.claims}
    compared = set()
    for seed in FIT_SEEDS:
        tr, m = Trial(random_triangle(seed)), _projective_map(random.Random(seed))
        want = [_verdicts(sc, tr) for sc in projective]
        # only what the claims read, moved; a claim reading anything else
        # meets a KeyError, which no claim gives on the triangle itself
        moved = {name: _moved(m, v) for name, v in tr.items()}
        moved = {name: v for name, v in moved.items() if v is not None}
        for sc, verdicts in zip(projective, want):
            if isinstance(verdicts, str):  # setup refused the triangle
                continue
            on_moved = _verdicts(dataclasses.replace(sc, setup=lambda tr: tr), moved)
            assert on_moved == verdicts, (sc.id, seed)
            compared.update(verdicts)
    assert compared == {"pass", "fail"}
