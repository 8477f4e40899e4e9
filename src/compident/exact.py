"""Exact arithmetic kernels on plain ints: division-free rank mod p,
fraction-free integer rank and determinant, and unimodular integer matrix
inversion.

No floating point is used anywhere; ranks and inverses are exact. An
arithmetic mode names a modulus: p = 2^61 - 1 in prime-field mode, large
enough that a random evaluation point underestimates a generic Jacobian
rank only with negligible probability, and 0 (no reduction: exact over Z,
or over Q where Fractions come in) in rational mode.

The rational rank is certified mod p where it can be: a minor that is
nonzero mod p is a nonzero integer, so a rank mod p equal to min(rows,
cols) is already the rank over Q. Only a matrix whose rank mod p falls
short of that ceiling goes through Bareiss elimination over Z.
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


def modulus(mode: str) -> int:
    """The modulus p of an arithmetic mode: 2^61 - 1 for the prime field,
    0 for exact integer/rational arithmetic."""
    if mode == PRIME_MODE:
        return MERSENNE61
    if mode == RATIONAL_MODE:
        return 0
    raise ValueError(f"unknown arithmetic mode {mode!r}; expected one of {MODES}")


def rank_mod_p(rows: Sequence[Sequence[int]], p: int = MERSENNE61) -> int:
    """Rank over GF(p) by division-free Gaussian elimination.

    Each row below the pivot row becomes pv * row - f * prow (pv the pivot,
    f the row's entry in its column) on the columns right of the pivot.
    pv is a unit mod p, so the rank is kept without a modular inverse.
    """
    mat = [[x % p for x in row] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        prow = mat[rank]
        pv = prow[col]
        for r in range(rank + 1, nrows):
            row = mat[r]
            f = row[col]
            if f:
                for c in range(col + 1, ncols):
                    row[c] = (pv * row[c] - f * prow[c]) % p
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


def _bareiss(rows: Sequence[Sequence[int]]) -> tuple[int, int]:
    """Fraction-free (Bareiss) forward elimination of an integer matrix.

    Returns the rank and the last pivot, negated once per row swap. Divisions
    in the update are exact; row and column pivoting only skips over zero
    blocks, which keeps the minor structure intact. For a square matrix of
    full rank the signed pivot is the determinant.
    """
    mat = [list(map(int, row)) for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    rank = 0
    prev = 1
    sign = 1
    col = 0
    while rank < nrows and col < ncols:
        pivot = next((r for r in range(rank, nrows) if mat[r][col]), None)
        if pivot is None:
            col += 1
            continue
        if pivot != rank:
            mat[rank], mat[pivot] = mat[pivot], mat[rank]
            sign = -sign
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
    return rank, sign * prev


def rank_bareiss(rows: Sequence[Sequence[int]]) -> int:
    """Exact integer rank by fraction-free (Bareiss) elimination."""
    return _bareiss(rows)[0]


def rank(rows: Sequence[Sequence], mode: str = RATIONAL_MODE) -> int:
    """Exact matrix rank: elimination over GF(p) in prime-field mode; over
    the rationals, the rank mod p of the integer rows when it reaches
    min(rows, cols), and Bareiss otherwise.

    Clearing denominators keeps the rank over Q. Reduction mod p can only
    lower the rank of an integer matrix, since a minor that is nonzero mod
    p is a nonzero integer; and no rank exceeds min(rows, cols). So a rank
    mod p at that ceiling is a proof of the rank over Q.
    """
    if not rows or not rows[0]:
        return 0
    if mode == PRIME_MODE:
        return rank_mod_p(rows)
    integer_rows = _to_integer_rows(rows)
    mod_p = rank_mod_p(integer_rows)
    if mod_p == min(len(rows), len(rows[0])):
        return mod_p
    return rank_bareiss(integer_rows)


def det_int(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix (fraction-free elimination)."""
    size = len(matrix)
    if any(len(row) != size for row in matrix):
        raise NotSquare("determinant needs a square matrix")
    rank, pivot = _bareiss(matrix)
    return pivot if rank == size else 0


def inverse_unimodular(matrix: Sequence[Sequence[int]]) -> list[list[int]]:
    """Exact inverse of an integer matrix with determinant +-1.

    Fraction-free Gauss-Jordan on [M | I]: every division by the previous
    pivot is exact, and the row operations multiply the augmented matrix by
    d * M^-1, where d, the last pivot, is +-det(M). So the left half ends
    as d * I, the right half as d * M^-1, and M^-1 = d * (right half) when
    d = +-1.
    """
    size = len(matrix)
    if any(len(row) != size for row in matrix):
        raise NotSquare("inverse needs a square matrix")
    aug = [
        [int(x) for x in matrix[r]] + [int(c == r) for c in range(size)]
        for r in range(size)
    ]
    sign = 1
    prev = 1
    for col in range(size):
        pivot = next((r for r in range(col, size) if aug[r][col]), None)
        if pivot is None:
            raise NotUnimodular("determinant is 0, not +-1")
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
            sign = -sign
        prow = aug[col]
        pv = prow[col]
        for r in range(size):
            if r != col:
                row = aug[r]
                factor = row[col]
                aug[r] = [(pv * x - factor * y) // prev for x, y in zip(row, prow)]
        prev = pv
    if prev not in (1, -1):
        raise NotUnimodular(f"determinant is {sign * prev}, not +-1")
    return [[prev * x for x in row[size:]] for row in aug]


def matvec_int(matrix: Sequence[Sequence[int]], vec: Sequence[int]) -> list[int]:
    return [sum(a * x for a, x in zip(row, vec)) for row in matrix]


def integer_solve_in_lattice(
    matrix: Sequence[Sequence[int]],
    targets: Sequence[Sequence[int]],
    square_rows: Sequence[int],
) -> list[list[int]]:
    """Solve matrix @ z = target exactly for each target, using a
    unimodular row subset.

    `square_rows` picks rows forming a square unimodular block, which is
    inverted once; each z is read off from that block and then verified
    against every row of the full system.
    """
    inverse = inverse_unimodular([matrix[r] for r in square_rows])
    solutions = []
    for target in targets:
        z = matvec_int(inverse, [target[r] for r in square_rows])
        if matvec_int(matrix, z) != list(target):
            raise InconsistentSystem(
                "solution of the square block fails on the full system"
            )
        solutions.append(z)
    return solutions


def check_characteristic(characteristic: int, n: int) -> None:
    """Newton's identities for the coefficients divide by 1..n."""
    if 0 < characteristic <= n:
        raise FieldCharacteristicTooSmall(
            f"characteristic {characteristic} <= matrix size {n}"
        )
