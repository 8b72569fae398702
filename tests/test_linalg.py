import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tricurves.curves import Conic, Cubic
from tricurves.linalg import (
    RankDeficient,
    _eliminate,
    det_int,
    nullspace_vector,
    rank_profile_int,
    rank_rational,
)

from reference import bareiss_eliminate

small_ints = st.integers(-9, 9)


def matrix_strategy(rows, cols, entries=small_ints):
    return st.lists(
        st.lists(entries, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows)


def leibniz_det(m):
    """Exact determinant by cofactor expansion along the first row."""
    if not m:
        return Fraction(1)
    return sum((-1) ** j * Fraction(m[0][j])
               * leibniz_det([r[:j] + r[j + 1:] for r in m[1:]])
               for j in range(len(m)))


# mostly zero entries, so that rank-deficient matrices are common
sparse_ints = st.sampled_from([0, 0, 0, 1, -1, 2, 7])


def cofactor_vector(m):
    """The kernel of an n x (n+1) matrix by signed maximal minors:
    entry j is (-1)^j times the determinant with column j deleted, each
    expanded along its rows in turn, memoized on the columns left (about
    n 2^n products for the whole vector, where Leibniz takes n!)."""
    n = len(m)

    @functools.cache
    def minor(cols):
        """The determinant of the last len(cols) rows on the columns cols."""
        if not cols:
            return 1
        row = m[n - len(cols)]
        return sum((-1) ** k * row[c] * minor(cols[:k] + cols[k + 1:])
                   for k, c in enumerate(cols) if row[c])

    every = tuple(range(n + 1))
    return tuple((-1) ** j * minor(every[:j] + every[j + 1:]) for j in range(n + 1))


def reference_certificate(m):
    """Rank and sorted pivot rows of plain rational elimination that takes,
    in each column, the first nonzero row at or below the current rank."""
    rows = [[Fraction(x) for x in r] for r in m]
    origin = list(range(len(rows)))
    r = 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        origin[r], origin[piv] = origin[piv], origin[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][col] / rows[r][col]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r, tuple(sorted(origin[:r]))


class TestDeterminant:
    def test_identity(self):
        assert det_int(((1, 0, 0), (0, 1, 0), (0, 0, 1))) == 1

    def test_known_value(self):
        assert det_int(((2, 3), (1, 4))) == 5

    def test_singular(self):
        assert det_int(((1, 2, 3), (2, 4, 6), (0, 1, 1))) == 0

    def test_empty_matrix_is_one(self):
        assert det_int([]) == 1
        assert det_int(()) == 1

    @given(matrix_strategy(4, 4))
    @settings(max_examples=60)
    def test_matches_fraction_rank(self, m):
        d = det_int(m)
        r = rank_rational([[Fraction(x) for x in row] for row in m])
        assert (d != 0) == (r == 4)

    @given(st.integers(1, 5).flatmap(lambda n: matrix_strategy(n, n, sparse_ints)))
    @settings(max_examples=120)
    def test_matches_leibniz(self, m):
        assert det_int(m) == leibniz_det(m)

    @given(matrix_strategy(3, 3, st.integers(-10**30, 10**30)))
    @settings(max_examples=40)
    def test_matches_leibniz_large_entries(self, m):
        assert det_int(m) == leibniz_det(m)

    def test_row_swaps_change_sign(self):
        assert det_int(((0, 1), (1, 0))) == -1
        assert det_int(((0, 0, 1), (0, 1, 0), (1, 0, 0))) == -1
        assert det_int(((0, 1, 0), (0, 0, 1), (1, 0, 0))) == 1

    def test_requires_square(self):
        with pytest.raises(ValueError):
            det_int(((1, 2, 3), (4, 5, 6)))


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

    def test_rank_error_certificate(self):
        m = [(1, 2, 3, 4), (2, 4, 6, 8), (0, 1, 1, 0)]
        with pytest.raises(RankDeficient) as exc:
            nullspace_vector(m)
        assert exc.value.rank == 2
        assert exc.value.independent == (0, 2)

    def test_free_column_first(self):
        v = nullspace_vector([(0, 1, 2), (0, 3, 5)])
        assert v[1:] == (0, 0) and v[0] != 0

    @given(matrix_strategy(4, 5, sparse_ints))
    @settings(max_examples=120)
    def test_rank_error_agrees_with_rational_rank(self, m):
        rank = rank_rational(m)
        if rank == 4:
            v = nullspace_vector(m)
            assert any(v)
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in m)
            return
        with pytest.raises(RankDeficient) as exc:
            nullspace_vector(m)
        cert = exc.value
        assert cert.rank == rank
        assert len(cert.independent) == rank
        assert list(cert.independent) == sorted(set(cert.independent))
        assert rank_rational([m[i] for i in cert.independent]) == rank

    @given(st.one_of(
        st.integers(1, 5).flatmap(lambda n: matrix_strategy(n, n + 1, sparse_ints)),
        matrix_strategy(3, 4, st.integers(-10**30, 10**30))))
    @settings(max_examples=200)
    def test_equals_cofactor_vector(self, m):
        """Not only the direction: the kernel vector is exactly the signed
        cofactor vector, up to sign."""
        c = cofactor_vector(m)
        if not any(c):
            return  # rank below n
        assert nullspace_vector(m) in (c, tuple(-x for x in c))

    @given(st.integers(1, 5).flatmap(
        lambda n: matrix_strategy(n, n + 1, sparse_ints)))
    @settings(max_examples=150)
    def test_certificate_matches_reference(self, m):
        rank, independent = reference_certificate(m)
        if rank == len(m):
            assert any(nullspace_vector(m))
            return
        with pytest.raises(RankDeficient) as exc:
            nullspace_vector(m)
        assert (exc.value.rank, exc.value.independent) == (rank, independent)

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


# a row of 0s in columns 0 and 1 is skipped at both steps and then becomes
# the pivot (row 2); row 3 is skipped twice and then updated, row 4 is
# updated at every step; no pivot is 1, so no scaling is trivial
SKIPPED_THEN_PIVOT = [
    (2, 1, 3, 4, 5, 1),
    (0, 3, 1, 2, 7, 2),
    (0, 0, 5, 1, 2, 3),
    (0, 0, 1, 1, 1, 4),
    (1, 1, 1, 1, 1, 1),
]


class TestSkippingElimination:
    """Skipping the rows with a zero multiplier leaves every output of the
    elimination equal to the one that updates every row at every step."""

    @given(st.one_of(
        st.integers(1, 9).flatmap(lambda n: matrix_strategy(n, n + 1, sparse_ints)),
        st.integers(1, 6).flatmap(lambda n: matrix_strategy(n, n, sparse_ints)),
        matrix_strategy(6, 3, sparse_ints),
        matrix_strategy(3, 7, sparse_ints),
        matrix_strategy(4, 5, st.integers(-10**20, 10**20))))
    @settings(max_examples=300)
    def test_matches_reference(self, m):
        assert _eliminate(m) == bareiss_eliminate(m)

    def test_row_skipped_twice_becomes_pivot(self):
        m = SKIPPED_THEN_PIVOT
        result = _eliminate(m)
        assert result == bareiss_eliminate(m)
        rank, independent, echelon, cols, sign = result
        assert (rank, independent, cols, sign) == (5, [0, 1, 2, 3, 4], [0, 1, 2, 3, 4], 1)
        assert echelon[2][2] == 2 * 3 * 5  # caught up by prev / since = 6 / 1
        assert nullspace_vector(m) in (cofactor_vector(m),
                                       tuple(-x for x in cofactor_vector(m)))
        assert det_int([r[:5] for r in m]) == leibniz_det([r[:5] for r in m])


# the points a fit sees: vertices, points with a zero coordinate, repeated
# points, and coordinates of 17 to 67 bits, so that cubic rows hold entries
# of about 50 to 200 bits
_big = st.integers(2**16, 2**67) | st.integers(-2**67, -2**16)
_nonzero = st.integers(-3, -1) | st.integers(1, 3) | _big
_general = st.tuples(_nonzero, _nonzero, _nonzero)
_points = st.one_of(
    st.sampled_from(((1, 0, 0), (0, 1, 0), (0, 0, 1))),
    st.tuples(_nonzero, _big).flatmap(lambda t: st.permutations((*t, 0))).map(tuple),
    _general, _general, _general)


def fit_rows(form):
    """The rows of a fit of ``form`` through one point fewer than it has
    coefficients: n distinct triples, in order or picked with repeats."""
    n = len(form.MONOMIALS) - 1
    picks = st.just(range(n)) | st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    return st.tuples(st.lists(_points, min_size=n, max_size=n, unique=True), picks).map(
        lambda drawn: [form._monomials(*drawn[0][i]) for i in drawn[1]])


class TestFitShapedRows:
    """The 5 x 6 conic and 9 x 10 cubic rows of the fits: the elimination is
    Bareiss's, the kernel vector the cofactor vector and the certificate
    that of plain rational elimination."""

    @given(fit_rows(Conic) | fit_rows(Cubic))
    @settings(max_examples=150)
    def test_matches_reference(self, m):
        assert _eliminate(m) == bareiss_eliminate(m)
        rank, independent = reference_certificate(m)
        if rank == len(m):
            c = cofactor_vector(m)
            assert nullspace_vector(m) in (c, tuple(-x for x in c))
            return
        with pytest.raises(RankDeficient) as exc:
            nullspace_vector(m)
        assert (exc.value.rank, exc.value.independent) == (rank, independent)
