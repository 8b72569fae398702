from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tricurves.linalg import (
    det_int,
    nullspace_vector,
    rank_profile_int,
    rank_rational,
)

small_ints = st.integers(-9, 9)


def matrix_strategy(rows, cols):
    return st.lists(
        st.lists(small_ints, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows)


class TestDeterminant:
    def test_identity(self):
        assert det_int(((1, 0, 0), (0, 1, 0), (0, 0, 1))) == 1

    def test_known_value(self):
        assert det_int(((2, 3), (1, 4))) == 5

    def test_singular(self):
        assert det_int(((1, 2, 3), (2, 4, 6), (0, 1, 1))) == 0

    @given(matrix_strategy(4, 4))
    @settings(max_examples=60)
    def test_matches_fraction_rank(self, m):
        d = det_int(m)
        r = rank_rational([[Fraction(x) for x in row] for row in m])
        assert (d != 0) == (r == 4)


class TestRankProfile:
    @given(matrix_strategy(5, 6))
    @settings(max_examples=60)
    def test_matches_rational_rank(self, m):
        rank, rows = rank_profile_int(m)
        assert rank == rank_rational(m)
        assert len(rows) == rank
        if rank:
            sub = [m[i] for i in rows]
            assert rank_rational(sub) == rank

    def test_duplicate_rows(self):
        m = [(1, 2, 3), (1, 2, 3), (0, 1, 1)]
        rank, rows = rank_profile_int(m)
        assert rank == 2
        assert rows == [0, 2]


class TestNullspace:
    def test_requires_shape(self):
        with pytest.raises(ValueError):
            nullspace_vector([(1, 2, 3)])

    def test_orthogonal_to_rows(self):
        m = [(1, 2, 3, 4), (0, 1, 1, 0), (2, 0, 1, -1)]
        v = nullspace_vector(m)
        assert any(v)
        for row in m:
            assert sum(a * b for a, b in zip(row, v)) == 0

    def test_rank_deficient_raises(self):
        m = [(1, 2, 3, 4), (2, 4, 6, 8), (0, 1, 1, 0)]
        with pytest.raises(ValueError):
            nullspace_vector(m)

    @given(matrix_strategy(4, 5))
    @settings(max_examples=60)
    def test_property(self, m):
        rank, _ = rank_profile_int(m)
        if rank < 4:
            with pytest.raises(ValueError):
                nullspace_vector(m)
            return
        v = nullspace_vector(m)
        for row in m:
            assert sum(a * b for a, b in zip(row, v)) == 0

