"""Exact arithmetic kernels on plain ints. One packed loop mod p =
2^61 - 1, `_pivots_mod_p`, gives the rank mod p and the pivot columns in
one pass over packed columns, of a list matrix (`rank_mod_p`) and of the
verdict matrix whose columns `charpoly` gathers packed; one fraction-free
(Bareiss) loop over Z, `_bareiss`, gives the integer rank, the
determinant and the choice and inversion of a unimodular column block.
`slot_width` proves the slot bound of packed vectors, reduced or not,
here and in the packed powers of `charpoly._VerdictKernel`.

No floating point is used anywhere; ranks and inverses are exact. An
arithmetic mode names a modulus: p = 2^61 - 1 in prime-field mode, large
enough that a random evaluation point underestimates a generic Jacobian
rank only with negligible probability, and 0 (no reduction: exact over Z)
in rational mode. Entries are ints: every entry point copies its input
through `operator.index`, so a rational or float entry raises TypeError
instead of being truncated or reduced.

The rational rank is certified mod p where it can be: a minor that is
nonzero mod p is a nonzero integer, so a rank mod p equal to min(rows,
cols) is already the rank over Q. Only a matrix whose rank mod p falls
short of that ceiling goes through Bareiss elimination over Z.
"""

from __future__ import annotations

from operator import index
from typing import Iterable, Sequence

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


def slot_width(terms: int) -> int:
    """Bits per slot of a vector packed mod p = 2^61 - 1, when a slot of
    the next vector is a sum of `terms` products a * x, a in [0, p) and x a
    slot below 2^61 + 2^e, e = slot_width(terms) - 122.

    A packed vector is one int whose slot k, `width` bits wide, holds entry
    k (Kronecker substitution; Harvey, J. Symbolic Comput. 44, 2009). Since
    2^61 = 1 mod p, a fold (x & LO) + (x >> 61 & HI), with LO and HI the low
    61 and the high width - 61 bits of every slot, keeps each slot's
    residue, so slots need not be reduced to [0, p).

    The width is 122 + e for the least e >= 0 with
    k (p-1) (2^61 + 2^e - 1) < 2^(122+e), k = `terms`; the left side over
    the right falls as e grows, so the loop below stops at the least. A sum
    x of k products of slots below 2^61 + 2^e is then below 2^width, so no
    slot carries into the next. A first fold leaves y = (x mod 2^61) +
    (x >> 61) < 2^61 + 2^(61+e), so y >> 61 <= 2^e, and a second fold
    leaves at most 2^61 - 1 + 2^e: every slot is below 2^61 + 2^e again.

    e is 0 for one term, 1 for two and k.bit_length() for k >= 3. Two
    products per slot, as in `_pivots_mod_p`, are within the bound of any
    k >= 2: `rank_mod_p` packs at slot_width(2) = 123 bits, and the packed
    powers of `charpoly._VerdictKernel` and the columns of M' gathered from
    them share slot_width(n) bits, 124 or more from n = 3.
    """
    p = MERSENNE61
    e = 0
    while terms * (p - 1) * ((1 << 61) + (1 << e) - 1) >= 1 << 122 + e:
        e += 1
    return 122 + e


def rank_mod_p(rows: Sequence[Sequence[int]]) -> int:
    """Rank over GF(p), p = 2^61 - 1: each column of a copy of the rows is
    packed, each entry reduced to [0, p) in a `slot_width(2)`-bit slot, and
    ranked by `_pivots_mod_p` (the input is not changed). A ragged matrix
    raises ValueError."""
    p = MERSENNE61
    width = slot_width(2)
    columns = [sum(index(x) % p << r * width for r, x in enumerate(col)) for col in zip(*rows, strict=True)]
    return len(_pivots_mod_p(columns, len(rows), width))


def _pivots_mod_p(columns: Iterable[int], nrows: int, width: int) -> list[int]:
    """The pivot columns of Gaussian elimination mod p = 2^61 - 1 on packed
    columns: the matrix's first independent columns mod p.

    Column j is one int whose `width`-bit slot r holds entry (r, j) mod p,
    below 2^61 + 2^e, e = width - 122, and not necessarily reduced
    (`slot_width`). The columns are read one at a time, and each is
    reduced by an echelon basis of the columns accepted so far, one basis
    vector at a time, in insertion order: by the vector with pivot slot s
    and pivot pv, x becomes pv * x + (p - f) * b, f the slot of x at s, two
    products per slot folded twice. No division is needed: pv is a unit
    mod p, so scaling x by it keeps the span. Each update clears x at its
    pivot slot and keeps it clear at the earlier ones, since every basis
    vector is clear at the pivot slots before its own. The reduced x is
    accepted when it is nonzero mod p at a free slot, which becomes its
    pivot slot, and is 0 mod p otherwise. Only the slots read are reduced
    to [0, p). The pass stops at `nrows` pivots, so no column after the
    last pivot is read.
    """
    p = MERSENNE61
    mask = (1 << width) - 1
    ones = ((1 << nrows * width) - 1) // mask  # 1 in each of nrows slots
    low, high = ones * p, ones * (mask >> 61)
    free = list(range(0, nrows * width, width))  # shifts of the slots with no pivot
    basis: list[tuple[int, int, int]] = []  # (pivot slot's shift, pivot, column)
    pivots: list[int] = []
    for j, x in enumerate(columns):
        for s, pv, b in basis:
            f = (x >> s & mask) % p
            if f:
                x = pv * x + (p - f) * b
                x = (x & low) + (x >> 61 & high)
                x = (x & low) + (x >> 61 & high)
        for s in free:
            pv = (x >> s & mask) % p
            if pv:
                free.remove(s)
                basis.append((s, pv, x))
                pivots.append(j)
                break
        if len(pivots) == nrows:
            break
    return pivots


def _bareiss(mat: list[list[int]], jordan: bool = False) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) elimination of an integer matrix, in place.

    Returns the pivot columns and the last pivot, negated once per row swap.
    A column with no pivot left is skipped, so the pivot columns are the
    matrix's first independent columns. Each eliminated row becomes
    (pv * row - f * prow) / prev, pv the pivot, f the row's entry in its
    column and prev the previous pivot; the division is exact, since every
    entry stays a minor, and for a square matrix of full rank the signed
    pivot is then the determinant. With `jordan` the rows above each pivot
    are cleared too (fraction-free Gauss-Jordan): the columns right of the
    last pivot column end as d * B^-1 times what they were, B the block of
    pivot columns and d the last pivot, unsigned. The rank mod p has its
    own packed loop, `_pivots_mod_p`. A ragged matrix raises ValueError.
    """
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    if any(len(row) != ncols for row in mat):
        raise ValueError("rows of different lengths")
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
            if r == rank:
                continue
            row = mat[r]
            factor = row[col]
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
    """Exact rank of an integer matrix: the rank mod p in prime-field mode;
    in rational mode, the rank mod p when it reaches min(rows, cols), and
    Bareiss otherwise. A ragged matrix raises ValueError.

    Reduction mod p can only lower the rank of an integer matrix, since a
    minor that is nonzero mod p is a nonzero integer; and no rank exceeds
    min(rows, cols). So a rank mod p at that ceiling is a proof of the rank
    over Q. Rational verdicts (`charpoly._sampled_dimension`) apply the
    same certificate one step earlier: they rank the verdict rows mod p,
    and build the integer rows and run Bareiss only when that rank falls
    short.
    """
    if not rows:
        return 0
    mod_p = rank_mod_p(rows)
    if mode == PRIME_MODE or mod_p == min(len(rows), len(rows[0])):
        return mod_p
    return rank_bareiss(rows)


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
