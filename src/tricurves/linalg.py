"""Exact dense linear algebra for small systems.

One fraction-free forward elimination over the integers (Bareiss 1968)
gives determinants, rank profiles and, followed by exact integer
back-substitution, the kernel vector of an (n) x (n+1) system, plus a
plain rational rank as an independent cross-check.  The elimination
skips a row whose multiplier is zero, so each row it holds is a nonzero
multiple of its Bareiss row until the row is next updated or becomes the
pivot; the echelon matrix it returns is Bareiss's.  Everything is exact;
matrices are lists/tuples of ``int`` rows (``Fraction`` rows for
:func:`rank_rational`).
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Sequence


class RankDeficient(ValueError):
    """Rank below the one needed; carries the independent-row certificate."""

    def __init__(self, rank: int, independent: Sequence[int]):
        self.rank, self.independent = rank, tuple(independent)
        super().__init__(f"rank {rank}; independent rows {self.independent}")


def _eliminate(rows: Sequence[Sequence[int]]):
    """Fraction-free forward elimination, pivoting on rows in column order.

    In each column the pivot is the first nonzero row at or below the
    current rank.  Returns the rank, the sorted original indices of the
    pivot rows, the echelon matrix, its pivot columns and the row-swap
    sign.  Row i of the echelon matrix is zero left of its pivot column;
    only rows below a pivot are updated.  Every entry of the echelon
    matrix is a minor of the input, and the last pivot times the sign is
    the determinant of a nonsingular square input.

    A row whose entry in the pivot column is 0 is skipped: Bareiss would
    only rescale it by pivot/prev.  ``since[i]`` holds the pivot row i
    was last updated with (1 before its first update) and moves with the
    row on a swap; the stored row is its Bareiss row times
    ``since[i] / prev``, a nonzero multiple, since the skipped factors
    telescope.  Its next update divides by ``since[i]`` instead of
    ``prev``, and by nothing when ``since[i]`` is 1, as at a first update;
    a row that becomes the pivot is first scaled by ``prev / since[i]``;
    both divisions are exact, as the results are Bareiss rows.  Rows left
    below the rank are zero, so the returned echelon matrix is Bareiss's.
    """
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0]) if m else 0
    origin = list(range(nrows))
    since = [1] * nrows
    cols: list[int] = []
    sign, prev, r = 1, 1, 0
    for col in range(ncols):
        if r == nrows:
            break
        piv = r
        while piv < nrows and not m[piv][col]:
            piv += 1
        if piv == nrows:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            origin[r], origin[piv] = origin[piv], origin[r]
            since[r], since[piv] = since[piv], since[r]
            sign = -sign
        prow = m[r]
        s = since[r]
        if s != prev:
            for j in range(col, ncols):
                prow[j] = prow[j] * prev // s
        pivot = prow[col]
        rest = range(col + 1, ncols)
        for i in range(r + 1, nrows):
            row = m[i]
            f = row[col]
            if f:
                s = since[i]
                row[col] = 0
                if s == 1:
                    for j in rest:
                        row[j] = pivot * row[j] - f * prow[j]
                else:
                    for j in rest:
                        row[j] = (pivot * row[j] - f * prow[j]) // s
                since[i] = pivot
        prev = pivot
        cols.append(col)
        r += 1
    return r, sorted(origin[:r]), m, cols, sign


def det_int(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix: swap sign times last pivot."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant requires a square matrix")
    if n == 0:
        return 1  # the empty product
    rank, _, echelon, _, sign = _eliminate(rows)
    return sign * echelon[-1][-1] if rank == n else 0


def rank_profile_int(rows: Sequence[Sequence[int]]) -> tuple[int, list[int]]:
    """Rank and the original indices of a maximal independent row subset."""
    return _eliminate(rows)[:2]


def nullspace_vector(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Kernel generator of an (n) x (n+1) integer matrix of full row rank.

    With last pivot ``d`` and free column ``f`` of the echelon matrix U,
    ``v[f] = d`` and, from the last row up, ``v[p_i] = -(sum over j > p_i
    of U[i][j] v[j]) / U[i][p_i]`` for the pivot column ``p_i`` of row i.
    Each division is exact: U has the kernel of the input, and by
    Cramer's rule the kernel vector with ``v[f] = d`` has integer
    entries, each a maximal minor of the input up to sign.  Raises
    :class:`RankDeficient` when the rank is below n.
    """
    n = len(rows)
    if not n or any(len(r) != n + 1 for r in rows):
        raise ValueError("nullspace_vector expects an n x (n+1) matrix")
    rank, independent, echelon, cols, _ = _eliminate(rows)
    if rank < n:
        raise RankDeficient(rank, independent)
    v = [0] * (n + 1)
    free = next((i for i, c in enumerate(cols) if c != i), n)
    v[free] = echelon[-1][cols[-1]]
    for row, p in zip(reversed(echelon), reversed(cols)):
        v[p] = -sum(map(mul, row[p + 1:], v[p + 1:])) // row[p]
    return tuple(v)


def rank_rational(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank by plain rational Gaussian elimination (independent code path)."""
    m = [[Fraction(x) for x in r] for r in rows]
    nrows = len(m)
    if nrows == 0:
        return 0
    ncols = len(m[0])
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, nrows):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == nrows:
            break
    return r
