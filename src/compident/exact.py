"""Exact arithmetic kernels: prime field, rationals, fraction-free rank,
and unimodular integer matrix inversion.

No floating point is used anywhere; ranks and inverses are exact. The prime
field uses p = 2^61 - 1, large enough that a random evaluation point
underestimates a generic Jacobian rank only with negligible probability.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import (
    FieldCharacteristicTooSmall,
    InconsistentSystem,
    NotSquare,
    NotUnimodular,
)

MERSENNE61 = (1 << 61) - 1

RATIONAL_MODE = "rational"
PRIME_MODE = "prime-field"
MODES = (PRIME_MODE, RATIONAL_MODE)


class PrimeField:
    """GF(p) arithmetic on plain ints in [0, p)."""

    def __init__(self, p: int = MERSENNE61):
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def from_int(self, k: int) -> int:
        return k % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in GF(p)")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return a * self.inv(b) % self.p


class RationalField:
    """Exact rational arithmetic; elements are ints or Fractions."""

    characteristic = 0
    zero = 0
    one = 1

    def from_int(self, k: int):
        return k

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(1, 1) / Fraction(a)

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero")
        return Fraction(a) / Fraction(b)


PRIME_FIELD = PrimeField()
RATIONAL_FIELD = RationalField()


def field_for_mode(mode: str):
    if mode == PRIME_MODE:
        return PRIME_FIELD
    if mode == RATIONAL_MODE:
        return RATIONAL_FIELD
    raise ValueError(f"unknown arithmetic mode {mode!r}; expected one of {MODES}")


def rank_mod_p(rows: Sequence[Sequence[int]], p: int = MERSENNE61) -> int:
    """Rank over GF(p) by ordinary Gaussian elimination."""
    mat = [[x % p for x in row] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        prow = mat[rank]
        for r in range(rank + 1, nrows):
            factor = mat[r][col]
            if factor:
                factor = factor * inv % p
                row = mat[r]
                for c in range(col, ncols):
                    row[c] = (row[c] - factor * prow[c]) % p
        rank += 1
        if rank == nrows:
            break
    return rank


def _to_integer_rows(rows: Sequence[Sequence]) -> list[list[int]]:
    """Clear denominators row-by-row; rank is unchanged."""
    out = []
    for row in rows:
        denom = lcm(*(x.denominator for x in row if isinstance(x, Fraction)))
        out.append([int(x * denom) for x in row])
    return out


def rank_bareiss(rows: Sequence[Sequence[int]]) -> int:
    """Exact integer rank by fraction-free (Bareiss) elimination.

    Divisions in the update are exact; row and column pivoting only skips
    over zero blocks, which keeps the minor structure intact.
    """
    mat = [list(map(int, row)) for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    rank = 0
    prev = 1
    col = 0
    while rank < nrows and col < ncols:
        pivot = next((r for r in range(rank, nrows) if mat[r][col]), None)
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        for r in range(rank + 1, nrows):
            row = mat[r]
            factor = row[col]
            for c in range(col + 1, ncols):
                row[c] = (pv * row[c] - factor * mat[rank][c]) // prev
            row[col] = 0
        prev = pv
        rank += 1
        col += 1
    return rank


def rank(rows: Sequence[Sequence], mode: str = RATIONAL_MODE) -> int:
    """Exact matrix rank; Bareiss over the rationals, elimination over GF(p)."""
    if not rows or not rows[0]:
        return 0
    if mode == PRIME_MODE:
        return rank_mod_p(rows)
    return rank_bareiss(_to_integer_rows(rows))


def det_int(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix (fraction-free elimination)."""
    size = len(matrix)
    if any(len(row) != size for row in matrix):
        raise NotSquare("determinant needs a square matrix")
    if size == 0:
        return 1
    mat = [list(map(int, row)) for row in matrix]
    sign = 1
    prev = 1
    for k in range(size - 1):
        if mat[k][k] == 0:
            pivot = next((r for r in range(k + 1, size) if mat[r][k]), None)
            if pivot is None:
                return 0
            mat[k], mat[pivot] = mat[pivot], mat[k]
            sign = -sign
        for r in range(k + 1, size):
            for c in range(k + 1, size):
                mat[r][c] = (mat[k][k] * mat[r][c] - mat[r][k] * mat[k][c]) // prev
            mat[r][k] = 0
        prev = mat[k][k]
    return sign * mat[size - 1][size - 1]


def inverse_unimodular(matrix: Sequence[Sequence[int]]) -> list[list[int]]:
    """Exact inverse of an integer matrix with determinant +-1."""
    size = len(matrix)
    if any(len(row) != size for row in matrix):
        raise NotSquare("inverse needs a square matrix")
    d = det_int(matrix)
    if d not in (1, -1):
        raise NotUnimodular(f"determinant is {d}, not +-1")
    if size == 0:
        return []
    aug = [
        [Fraction(matrix[r][c]) for c in range(size)]
        + [Fraction(1 if c == r else 0) for c in range(size)]
        for r in range(size)
    ]
    for col in range(size):
        pivot = next(r for r in range(col, size) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    inv = [[aug[r][size + c] for c in range(size)] for r in range(size)]
    assert all(x.denominator == 1 for row in inv for x in row)
    return [[int(x) for x in row] for row in inv]


def matvec_int(matrix: Sequence[Sequence[int]], vec: Sequence[int]) -> list[int]:
    return [sum(a * x for a, x in zip(row, vec)) for row in matrix]


def integer_solve_in_lattice(
    matrix: Sequence[Sequence[int]],
    target: Sequence[int],
    square_rows: Sequence[int],
) -> list[int]:
    """Solve matrix @ z = target exactly using a unimodular row subset.

    `square_rows` picks rows forming a square unimodular block; z is read off
    from that block and then verified against every row of the full system.
    """
    block = [list(matrix[r]) for r in square_rows]
    inv = inverse_unimodular(block)
    z = matvec_int(inv, [target[r] for r in square_rows])
    if matvec_int(matrix, z) != list(target):
        raise InconsistentSystem("solution of the square block fails on the full system")
    return z


def check_characteristic(characteristic: int, n: int) -> None:
    """The coefficient recurrence divides by 1..n."""
    if 0 < characteristic <= n:
        raise FieldCharacteristicTooSmall(
            f"characteristic {characteristic} <= matrix size {n}"
        )
