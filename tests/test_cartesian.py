"""The engine's catalog centers against an independent model: the classical
constructions of ``tests/cartesian.py`` on Heronian lattice triangles."""

import pytest

from cartesian import CENTERS, areal, heronian_triangles, sides
from tricurves.centers import CenterId, eval_center
from tricurves.kernel import RefTriangle

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
    """The comparison can fail: on each triangle the five constructions are
    five points, and each is proportional to one engine center alone."""
    for tri, t in zip(TRIANGLES[:20], ENGINE[:20]):
        got = {name: eval_center(t, CenterId(name)).triple for name in CENTERS}
        for name, construct in CENTERS.items():
            want = areal(construct(*tri), *tri)
            assert [n for n in CENTERS if _proportional(got[n], want)] == [name], tri
