"""Exact dense linear algebra for small systems.

One fraction-free Gauss–Jordan elimination over the integers (Bareiss
1968) gives determinants, rank profiles and the kernel vector of an
(n) x (n+1) system, plus a plain rational rank as an independent
cross-check.  Everything is exact; matrices are lists/tuples of ``int``
rows (``Fraction`` rows for :func:`rank_rational`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


class RankDeficient(ValueError):
    """Rank below the one needed; carries the independent-row certificate."""

    def __init__(self, rank: int, independent: Sequence[int]):
        self.rank, self.independent = rank, tuple(independent)
        super().__init__(f"rank {rank}; independent rows {self.independent}")


def _eliminate(rows: Sequence[Sequence[int]]):
    """Fraction-free Gauss–Jordan pass, pivoting on rows in column order.

    Returns the rank, the sorted original indices of the pivot rows, the
    reduced matrix and the row-swap sign.  Each of the first ``rank``
    reduced rows holds the last pivot on its pivot column and zero on the
    other pivot columns.  Dividing by the previous pivot is exact, since
    every entry stays a minor of the input.
    """
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0]) if m else 0
    origin = list(range(nrows))
    r, sign, prev = 0, 1, 1
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            origin[r], origin[piv] = origin[piv], origin[r]
            sign = -sign
        prow = m[r]
        pivot = prow[col]
        for i, row in enumerate(m):
            if i != r:
                f = row[col]
                # rows below the pivot are zero left of it; rows above are not
                for j in range(col + 1 if i > r else 0, ncols):
                    row[j] = (pivot * row[j] - f * prow[j]) // prev
                row[col] = 0
        prev = pivot
        r += 1
    return r, sorted(origin[:r]), m, sign


def det_int(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix: swap sign times last pivot."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant requires a square matrix")
    rank, _, reduced, sign = _eliminate(rows)
    return sign * reduced[-1][-1] if rank == n else 0


def rank_profile_int(rows: Sequence[Sequence[int]]) -> tuple[int, list[int]]:
    """Rank and the original indices of a maximal independent row subset."""
    return _eliminate(rows)[:2]


def nullspace_vector(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Kernel generator of an (n) x (n+1) integer matrix of full row rank.

    With last pivot ``d`` and free column ``f`` of the reduced matrix, the
    kernel is ``v[f] = d`` and ``v[pivot column of row i] = -row_i[f]``.
    Raises :class:`RankDeficient` when the rank is below n.
    """
    n = len(rows)
    if not n or any(len(r) != n + 1 for r in rows):
        raise ValueError("nullspace_vector expects an n x (n+1) matrix")
    rank, independent, reduced, _ = _eliminate(rows)
    if rank < n:
        raise RankDeficient(rank, independent)
    # row i pivots on column i before f and on i + 1 after it: d goes in at f
    free = next((i for i, row in enumerate(reduced) if not row[i]), n)
    v = [-row[free] for row in reduced]
    v.insert(free, reduced[0][0 if free else 1])
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
