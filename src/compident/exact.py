"""Exact arithmetic kernels on plain ints. One elimination loop, `_bareiss`,
is behind the rank mod p, the integer rank, the determinant and the choice
and inversion of a unimodular column block. Over Z it divides by the
previous pivot (Bareiss); given a modulus p it skips that division, since
every pivot is a unit mod p.

No floating point is used anywhere; ranks and inverses are exact. An
arithmetic mode names a modulus: p = 2^61 - 1 in prime-field mode, large
enough that a random evaluation point underestimates a generic Jacobian
rank only with negligible probability, and 0 (no reduction: exact over Z)
in rational mode. Entries are ints: the integer entry points copy their
input through `operator.index`, so a rational or float entry raises
TypeError instead of being truncated.

The rational rank is certified mod p where it can be: a minor that is
nonzero mod p is a nonzero integer, so a rank mod p equal to min(rows,
cols) is already the rank over Q. Only a matrix whose rank mod p falls
short of that ceiling goes through Bareiss elimination over Z.
"""

from __future__ import annotations

from operator import index
from typing import Sequence

from .errors import InconsistentSystem, NotSquare, NotUnimodular

MERSENNE61 = (1 << 61) - 1

RATIONAL_MODE = "rational"
PRIME_MODE = "prime-field"
MODES = (PRIME_MODE, RATIONAL_MODE)


def modulus(mode: str) -> int:
    """The modulus p of an arithmetic mode: 2^61 - 1 for the prime field,
    0 for exact integer arithmetic."""
    if mode == PRIME_MODE:
        return MERSENNE61
    if mode == RATIONAL_MODE:
        return 0
    raise ValueError(f"unknown arithmetic mode {mode!r}; expected one of {MODES}")


def rank_mod_p(rows: Sequence[Sequence[int]], p: int = MERSENNE61) -> int:
    """Rank over GF(p): `_bareiss` mod p on a reduced copy of the rows (the
    input is not changed). Mod p no division is needed, see `_bareiss`."""
    return len(_bareiss([[x % p for x in row] for row in rows], p=p)[0])


def _bareiss(mat: list[list[int]], jordan: bool = False, p: int = 0) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) elimination of an integer matrix, in place;
    with a modulus p > 0, elimination of a matrix reduced mod p.

    Returns the pivot columns and the last pivot, negated once per row swap.
    A column with no pivot left is skipped, so the pivot columns are the
    matrix's first independent columns. Each eliminated row becomes
    pv * row - f * prow (pv the pivot, f the row's entry in its column).
    Over Z that is divided by the previous pivot, exactly, since every entry
    stays a minor; for a square matrix of full rank the signed pivot is then
    the determinant. Mod p the division is dropped: it only keeps integers
    from growing, entries mod p are bounded anyway, and pv is a unit, so
    scaling a row by it keeps the rank; rows with f = 0 are left alone.
    With `jordan` the rows above each pivot are cleared too (fraction-free
    Gauss-Jordan, over Z): the columns right of the last pivot column end
    as d * B^-1 times what they were, B the block of pivot columns and d
    the last pivot, unsigned.
    """
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    prev = sign = 1
    for col in range(ncols):
        rank = len(pivots)
        if rank == nrows:
            break
        pivot = next((r for r in range(rank, nrows) if mat[r][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            mat[rank], mat[pivot] = mat[pivot], mat[rank]
            sign = -sign
        prow = mat[rank]
        pv = prow[col]
        for r in range(0 if jordan else rank + 1, nrows):
            row = mat[r]
            factor = row[col]
            if r == rank or p and not factor:
                continue
            if p:
                for c in range(col + 1, ncols):
                    row[c] = (pv * row[c] - factor * prow[c]) % p
            else:
                for c in range(col + 1, ncols):
                    row[c] = (pv * row[c] - factor * prow[c]) // prev
            row[col] = 0
        prev = pv
        pivots.append(col)
    return pivots, sign * prev


def rank_bareiss(rows: Sequence[Sequence[int]]) -> int:
    """Exact integer rank by fraction-free (Bareiss) elimination."""
    return len(_bareiss([list(map(index, row)) for row in rows])[0])


def rank(rows: Sequence[Sequence[int]], mode: str = RATIONAL_MODE) -> int:
    """Exact rank of an integer matrix: elimination over GF(p) in
    prime-field mode; in rational mode, the rank mod p when it reaches
    min(rows, cols), and Bareiss otherwise.

    Reduction mod p can only lower the rank of an integer matrix, since a
    minor that is nonzero mod p is a nonzero integer; and no rank exceeds
    min(rows, cols). So a rank mod p at that ceiling is a proof of the rank
    over Q. Rational verdicts (`charpoly._sampled_dimension`) apply the
    same certificate one step earlier: they rank the verdict rows mod p,
    and build the integer rows and run Bareiss only when that rank falls
    short.
    """
    if not rows or not rows[0]:
        return 0
    if mode == PRIME_MODE:
        return rank_mod_p(rows)
    integer_rows = [list(map(index, row)) for row in rows]
    mod_p = rank_mod_p(integer_rows)
    if mod_p == min(len(rows), len(rows[0])):
        return mod_p
    return rank_bareiss(integer_rows)


def det_int(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix (fraction-free elimination)."""
    size = len(matrix)
    if any(len(row) != size for row in matrix):
        raise NotSquare("determinant needs a square matrix")
    pivots, det = _bareiss([list(map(index, row)) for row in matrix])
    return det if len(pivots) == size else 0


def unimodular_columns(matrix: Sequence[Sequence[int]]) -> tuple[list[int], list[list[int]]]:
    """The first independent columns of an integer matrix and the inverse
    of their square block B, which must have determinant +-1.

    One Gauss-Jordan pass of `_bareiss` over [M | I]. Raises NotUnimodular
    when the rank of M is below its row count (a pivot then falls in I) or
    det B is not +-1. The right half ends as d * B^-1, d = +-det B the last
    pivot, so B^-1 = d * (right half) when d = +-1.
    """
    size = len(matrix)
    width = len(matrix[0]) if matrix else 0
    aug = [
        list(map(index, row)) + [int(c == r) for c in range(size)]
        for r, row in enumerate(matrix)
    ]
    pivots, det = _bareiss(aug, jordan=True)
    if pivots and pivots[-1] >= width:
        raise NotUnimodular(f"rank below the row count {size}")
    if det not in (1, -1):
        raise NotUnimodular(f"determinant is {det}, not +-1")
    d = aug[-1][pivots[-1]] if aug else 1
    return pivots, [[d * x for x in row[width:]] for row in aug]


def inverse_unimodular(matrix: Sequence[Sequence[int]]) -> list[list[int]]:
    """Exact inverse of an integer matrix with determinant +-1."""
    if any(len(row) != len(matrix) for row in matrix):
        raise NotSquare("inverse needs a square matrix")
    return unimodular_columns(matrix)[1]


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
