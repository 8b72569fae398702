"""The engine's catalog centers, derived-triangle centers, squared
distances and perpendicular feet against an independent model: the
classical constructions of ``tests/cartesian.py`` on Heronian lattice
triangles."""

from itertools import combinations

import pytest

from cartesian import (
    CENTERS,
    DERIVED,
    areal,
    foot,
    heronian_triangles,
    sides,
    squared_length,
)
from tricurves.centers import CenterId, eval_center, eval_expr, parse_center
from tricurves.kernel import (
    VERTEX_A,
    VERTEX_B,
    VERTEX_C,
    RefTriangle,
    foot_of_perpendicular,
    join,
    squared_distance,
)

TRIANGLES = heronian_triangles(100)
ENGINE = [RefTriangle(*sides(*tri)) for tri in TRIANGLES]


def _proportional(u, v) -> bool:
    """Whether two nonzero triples are equal up to a nonzero factor."""
    return any(u) and any(v) and all(
        u[i] * v[j] == u[j] * v[i] for i, j in ((0, 1), (1, 2), (0, 2)))


def test_triangles_are_scalene_non_right_and_dissimilar():
    shapes = set()
    for t in ENGINE:
        a2, b2, c2 = sorted(s * s for s in t.sides)
        assert a2 < b2 < c2 and a2 + b2 != c2, t.sides
        shapes.add(tuple(sorted(s / min(t.sides) for s in t.sides)))
    assert len(shapes) == len(TRIANGLES) == 100


@pytest.mark.parametrize("name", list(CENTERS))
def test_center_matches_the_construction(name):
    cid = CenterId(name)
    for tri, t in zip(TRIANGLES, ENGINE):
        want = areal(CENTERS[name](*tri), *tri)
        assert _proportional(eval_center(t, cid).triple, want), (tri, name)


def test_each_construction_matches_only_its_own_center():
    """The comparison can fail: on each triangle the eleven constructions
    are eleven points, and each is proportional to one engine center alone."""
    for tri, t in zip(TRIANGLES[:20], ENGINE[:20]):
        got = {name: eval_center(t, CenterId(name)).triple for name in CENTERS}
        for name, construct in CENTERS.items():
            want = areal(construct(*tri), *tri)
            assert [n for n in CENTERS if _proportional(got[n], want)] == [name], tri


@pytest.mark.parametrize("kind", list(DERIVED))
@pytest.mark.parametrize("name", list(CENTERS))
def test_derived_center_matches_the_construction(kind, name):
    """``center(kind,Xn)`` is the construction on the derived triangle's
    lattice vertices, read in areal coordinates of the base."""
    expr = parse_center(f"center({kind},{name})")
    for tri, t in zip(TRIANGLES, ENGINE):
        base, vertices = DERIVED[kind](*tri)
        want = areal(CENTERS[name](*vertices), *base)
        assert _proportional(eval_expr(t, expr).triple, want), (tri, kind, name)


@pytest.mark.parametrize("kind", list(DERIVED))
def test_each_derived_construction_matches_only_its_own_center(kind):
    for tri, t in zip(TRIANGLES[:20], ENGINE[:20]):
        base, vertices = DERIVED[kind](*tri)
        got = {name: eval_expr(t, parse_center(f"center({kind},{name})")).triple
               for name in CENTERS}
        for name, construct in CENTERS.items():
            want = areal(construct(*vertices), *base)
            assert [n for n in CENTERS if _proportional(got[n], want)] == [name], (
                tri, kind)


VERTICES = (VERTEX_A, VERTEX_B, VERTEX_C)


def _points(tri, t):
    """The vertices and the eleven centers, by construction and in the engine."""
    built = dict(zip("ABC", tri), **{n: c(*tri) for n, c in CENTERS.items()})
    engine = dict(zip("ABC", VERTICES),
                  **{n: eval_center(t, CenterId(n)) for n in CENTERS})
    return built, engine


def test_squared_distances_match_the_construction():
    """Between every two of the vertices and the eleven centers, the engine's
    ``squared_distance`` is the squared length by coordinates; X3 is
    equidistant from the vertices, |X3A|^2 = |X3B|^2 = |X3C|^2."""
    for tri, t in zip(TRIANGLES, ENGINE):
        built, engine = _points(tri, t)
        for p, q in combinations(built, 2):
            assert squared_distance(engine[p], engine[q], t) == squared_length(
                built[p], built[q]), (tri, p, q)
        radii = {squared_length(built["X3"], v) for v in tri}
        assert len(radii) == 1, tri


def test_perpendicular_feet_match_the_construction():
    """The foot of each vertex and center on each sideline, by the engine's
    ``foot_of_perpendicular``, is the foot by coordinates; the altitude
    feet lie on the lines through their vertices and X4."""
    for tri, t in zip(TRIANGLES, ENGINE):
        built, engine = _points(tri, t)
        sidelines = [(tri[i - 2], tri[i - 1], join(VERTICES[i - 2], VERTICES[i - 1]))
                     for i in range(3)]  # BC, CA and AB
        for name, P in built.items():
            for Q, R, line in sidelines:
                want = areal(foot(P, Q, R), *tri)
                got = foot_of_perpendicular(engine[name], line, t)
                assert _proportional(got.triple, want), (tri, name, Q, R)
        H = built["X4"]
        for i, V in enumerate(tri):
            F = foot(V, tri[i - 2], tri[i - 1])
            assert areal(F, *tri)[i] == 0
            assert (F[0] - V[0]) * (H[1] - V[1]) == (F[1] - V[1]) * (H[0] - V[0]), tri
