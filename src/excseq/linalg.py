"""Small dense exact linear algebra over the rationals.

Matrices carry explicit shape so zero-row and zero-column edge cases stay
well defined.  Everything is deterministic: pivots are always the first
nonzero entry scanning down, kernel bases assign unit values to free
columns in increasing order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

Vector = tuple[Fraction, ...]


class Mat(NamedTuple):
    nrows: int
    ncols: int
    rows: tuple[tuple[Fraction, ...], ...]


def mat(rows: Iterable[Iterable], ncols: int | None = None) -> Mat:
    rs = tuple(tuple(Fraction(x) for x in row) for row in rows)
    if rs:
        ncols = len(rs[0])
        if any(len(r) != ncols for r in rs):
            raise ValueError("ragged rows")
    elif ncols is None:
        raise ValueError("empty matrix needs an explicit column count")
    return Mat(len(rs), ncols, rs)


def zeros(nrows: int, ncols: int) -> Mat:
    row = (Fraction(0),) * ncols
    return Mat(nrows, ncols, (row,) * nrows)


def identity(n: int) -> Mat:
    return Mat(n, n, tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)))


def transpose(a: Mat) -> Mat:
    return Mat(a.ncols, a.nrows, tuple(
        tuple(a.rows[i][j] for i in range(a.nrows)) for j in range(a.ncols)))


def matmul(a: Mat, b: Mat) -> Mat:
    if a.ncols != b.nrows:
        raise ValueError(f"shape mismatch {a.nrows}x{a.ncols} @ {b.nrows}x{b.ncols}")
    bt = transpose(b)
    return Mat(a.nrows, b.ncols, tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt.rows)
        for row in a.rows))


def vstack(mats: Sequence[Mat]) -> Mat:
    if not mats:
        raise ValueError("vstack needs at least one matrix")
    ncols = mats[0].ncols
    if any(m.ncols != ncols for m in mats):
        raise ValueError("column mismatch in vstack")
    rows: list[tuple[Fraction, ...]] = []
    for m in mats:
        rows.extend(m.rows)
    return Mat(len(rows), ncols, tuple(rows))


def _rref(rows: list[list[Fraction]], ncols: int) -> list[int]:
    """Reduce in place to reduced row echelon form; return pivot columns."""
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def rank(a: Mat) -> int:
    rows = [list(r) for r in a.rows]
    return len(_rref(rows, a.ncols))


def right_kernel(a: Mat) -> list[Vector]:
    """Basis of {x : a·x = 0}, one vector per free column."""
    rows = [list(r) for r in a.rows]
    pivots = _rref(rows, a.ncols)
    pivot_set = set(pivots)
    basis: list[Vector] = []
    for free in range(a.ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * a.ncols
        v[free] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -rows[i][free]
        basis.append(tuple(v))
    return basis


def left_kernel(a: Mat) -> list[Vector]:
    """Basis of {y : y·a = 0}."""
    return right_kernel(transpose(a))


def inverse(a: Mat) -> Mat:
    if a.nrows != a.ncols:
        raise ValueError("only square matrices invert")
    n = a.nrows
    rows = [list(r) + [Fraction(1 if i == j else 0) for j in range(n)]
            for i, r in enumerate(a.rows)]
    pivots = _rref(rows, n)
    if len(pivots) != n:
        raise ValueError("matrix is singular")
    return Mat(n, n, tuple(tuple(row[n:]) for row in rows))


def solve(a: Mat, b: Sequence) -> Vector | None:
    """The unique solution of a·x = b, or None if the system is inconsistent.

    Raises ValueError when the columns are dependent (no unique solution).
    """
    if len(b) != a.nrows:
        raise ValueError("rhs length mismatch")
    rows = [list(r) + [Fraction(x)] for r, x in zip(a.rows, b)]
    pivots = _rref(rows, a.ncols)
    for i in range(len(pivots), a.nrows):
        if rows[i][a.ncols] != 0:
            return None
    if len(pivots) != a.ncols:
        raise ValueError("underdetermined system")
    x = [Fraction(0)] * a.ncols
    for i, p in enumerate(pivots):
        x[p] = rows[i][a.ncols]
    return tuple(x)
