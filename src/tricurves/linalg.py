"""Exact dense linear algebra for small systems.

Fraction-free (Bareiss) elimination over the integers for determinants and
rank profiles, a signed-minor nullspace extractor for (n) x (n+1) systems
of full row rank, and a plain rational rank as an independent cross-check.
Everything is exact; matrices are lists/tuples of ``int`` or ``Fraction``
rows.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def det_int(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    n = len(rows)
    m = [list(r) for r in rows]
    if any(len(r) != n for r in m):
        raise ValueError("determinant requires a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (pivot * m[i][j] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def rank_profile_int(rows: Sequence[Sequence[int]]) -> tuple[int, list[int]]:
    """Rank and the original indices of a maximal independent row subset.

    Fraction-free forward elimination with row pivoting; the division by the
    previous pivot is exact (every entry stays a minor of the input).
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    if nrows == 0:
        return 0, []
    ncols = len(m[0])
    origin = list(range(nrows))
    prev = 1
    r = 0
    pivot_rows: list[int] = []
    for col in range(ncols):
        piv = None
        for i in range(r, nrows):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            origin[r], origin[piv] = origin[piv], origin[r]
        pivot = m[r][col]
        for i in range(r + 1, nrows):
            for j in range(col + 1, ncols):
                m[i][j] = (pivot * m[i][j] - m[i][col] * m[r][j]) // prev
            m[i][col] = 0
        prev = pivot
        pivot_rows.append(origin[r])
        r += 1
        if r == nrows:
            break
    return r, sorted(pivot_rows)


def nullspace_vector(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Kernel generator of an (n) x (n+1) integer matrix of full row rank.

    The vector of signed maximal minors v_j = (-1)^j det(A without column j)
    satisfies A v = 0; it is nonzero exactly when the rank is n.
    """
    n = len(rows)
    if any(len(r) != n + 1 for r in rows):
        raise ValueError("nullspace_vector expects an n x (n+1) matrix")
    out = []
    sign = 1
    for j in range(n + 1):
        sub = [[r[k] for k in range(n + 1) if k != j] for r in rows]
        out.append(sign * det_int(sub))
        sign = -sign
    if all(v == 0 for v in out):
        raise ValueError("matrix does not have full row rank")
    return tuple(out)


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
