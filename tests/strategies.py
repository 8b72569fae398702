"""Hypothesis strategies shared by the test modules."""

from fractions import Fraction

from hypothesis import strategies as st

from tricurves.kernel import RefTriangle


def rational_triangles():
    """Right, isosceles, equilateral and scalene triangles with rational
    sides; ``random_triangle`` draws none of the first three."""
    scale = st.fractions(min_value=Fraction(1, 3), max_value=12,
                         max_denominator=5)
    right = st.builds(lambda sides, k: RefTriangle(*(k * s for s in sides)),
                      st.sampled_from(((3, 4, 5), (5, 12, 13), (8, 15, 17),
                                       (7, 24, 25), (20, 21, 29))), scale)
    isosceles = st.builds(
        lambda k, r: RefTriangle(k, k, k * r), scale,
        st.fractions(min_value=Fraction(1, 5), max_value=Fraction(15, 8),
                     max_denominator=8))
    equilateral = st.builds(lambda k: RefTriangle(k, k, k), scale)
    scalene = st.tuples(scale, scale, scale).map(sorted).filter(
        lambda s: s[0] + s[1] > s[2]).map(lambda s: RefTriangle(*s))
    return st.one_of(right, isosceles, equilateral, scalene)
