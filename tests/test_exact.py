import copy
import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compident import (
    InconsistentSystem,
    NotSquare,
    NotUnimodular,
    image_dimension,
)
from compident.exact import (
    MERSENNE61,
    PRIME_MODE,
    RATIONAL_MODE,
    _bareiss,
    det_int,
    fold_masks,
    integer_solve_in_lattice,
    inverse_unimodular,
    matvec_int,
    modulus,
    rank,
    rank_bareiss,
    rank_mod_p,
    slot_width,
    unimodular_columns,
)

from conftest import clear_denominators, incidence_matrix, oracle_rank, rank_gf_p_with_inverses


class TestRank:
    def test_identity(self):
        eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert rank(eye) == 3
        assert rank(eye, PRIME_MODE) == 3

    def test_chain4_incidence(self, chain4):
        E = incidence_matrix(chain4)
        assert rank(E) == 3
        assert rank(E, PRIME_MODE) == 3

    def test_zero_matrix(self):
        assert rank([[0, 0], [0, 0]]) == 0

    def test_empty(self):
        assert rank([]) == 0

    def test_fraction_entries(self):
        """Fraction rows raise TypeError; cleared row by row to ints, they
        keep their rank."""
        rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1, 1)]]
        with pytest.raises(TypeError):
            rank(rows, RATIONAL_MODE)
        integer_rows = [clear_denominators(row) for row in rows]
        assert rank(integer_rows, RATIONAL_MODE) == oracle_rank(rows) == 1

    def test_random_matches_gauss_oracle(self):
        rng = random.Random(17)
        for _ in range(300):
            nr = rng.randrange(1, 6)
            nc = rng.randrange(1, 6)
            rows = [[rng.randrange(-4, 5) for _ in range(nc)] for _ in range(nr)]
            expected = oracle_rank(rows)
            assert rank_bareiss(rows) == expected
            assert rank_mod_p(rows) == expected  # entries tiny, no wraparound

    def test_modes_agree_on_integer_fixtures(self):
        rng = random.Random(3)
        for _ in range(100):
            rows = [[rng.randrange(0, 1000) for _ in range(4)] for _ in range(4)]
            assert rank_bareiss(rows) == rank_mod_p(rows)


class TestRationalRankCertificate:
    """Rational rank is the rank mod p when that reaches min(rows, cols),
    and Bareiss otherwise: matrices whose rank drops mod p must still get
    their rank over Q."""

    @pytest.mark.parametrize(
        "rows, expected",
        [
            ([[MERSENNE61, 0], [0, 1]], 2),
            ([[0, 1], [2 * MERSENNE61, 3]], 2),
            ([[MERSENNE61, 1], [2 * MERSENNE61, 2]], 1),
        ],
    )
    def test_rank_drops_mod_p(self, rows, expected):
        assert oracle_rank(rows) == expected
        assert rank(rows, RATIONAL_MODE) == expected

    def test_random_multiples_of_p(self):
        rng = random.Random(61)
        drops = full = 0
        for _ in range(200):
            nr, nc = rng.randrange(1, 7), rng.randrange(1, 7)  # tall, wide, square
            rows = [
                [rng.choice([MERSENNE61 * rng.randrange(-3, 4), rng.randrange(-3, 4)])
                 for _ in range(nc)]
                for _ in range(nr)
            ]
            expected = oracle_rank(rows)
            assert rank(rows, RATIONAL_MODE) == expected, rows
            drops += rank_mod_p(rows) < expected
            full += expected == min(nr, nc)
        assert drops > 20 and full > 20


def deficient_mod_p(rng: random.Random, nr: int, nc: int, p: int) -> list[list[int]]:
    """An nr x nc integer matrix whose rank mod p tends to fall below
    min(nr, nc): some rows are integer combinations of earlier rows plus
    multiples of p, some columns hold multiples of p only, and the other
    entries are small, wide of p, multiples of p or 0."""
    p_columns = {c for c in range(nc) if rng.random() < 0.2}
    rows: list[list[int]] = []
    for _ in range(nr):
        if rows and rng.random() < 0.4:
            coeffs = [rng.choice([0, 1, -1, rng.randrange(p)]) for _ in rows]
            row = [sum(k * r[c] for k, r in zip(coeffs, rows)) + p * rng.randrange(-2, 3) for c in range(nc)]
        else:
            row = [
                rng.choice([rng.randrange(-3, 4), rng.randrange(-3 * p, 3 * p), p * rng.randrange(-3, 4), 0])
                for _ in range(nc)
            ]
        rows.append([p * rng.randrange(-3, 4) if c in p_columns else x for c, x in enumerate(row)])
    return rows


def test_slot_width_is_least_proved():
    """`slot_width(k)` is 122 + e for the least e with
    k (p-1) (2^61 + 2^e - 1) < 2^(122+e), the condition its proof needs
    for slots below 2^61 + 2^e: 122 + k.bit_length() for k >= 3. The
    elimination's two products per slot are within that bound at the
    width of the powers of every n >= 2, so M' is ranked at the powers'
    width: 123 bits at n = 2, 124 or more from n = 3."""
    p = MERSENNE61

    def holds(k, e):
        return k * (p - 1) * (2**61 + 2**e - 1) < 2 ** (122 + e)

    for k in list(range(1, 300)) + [2**20 - 1, 2**20, 2**29]:
        e = slot_width(k) - 122
        assert holds(k, e) and (e == 0 or not holds(k, e - 1)), k
        assert slot_width(k) == 122 + (k.bit_length() if k > 2 else k - 1)
    widths = [slot_width(n) for n in range(2, 100)]
    assert all(holds(2, w - 122) for w in widths)
    assert widths[0] == 123 and min(widths[1:]) == 124


def test_fold_masks_per_slot():
    """LO holds the low 61 bits of every slot and HI, shifted up by 61, the
    high width - 61: the two cover every bit once. Zero slots give zero
    masks."""
    for width, nslots in ((123, 1), (124, 5), (125, 9), (128, 40)):
        lo, hi = fold_masks(width, nslots)
        assert lo == sum(MERSENNE61 << s * width for s in range(nslots))
        assert hi == sum((1 << width - 61) - 1 << s * width for s in range(nslots))
        assert lo + (hi << 61) == (1 << nslots * width) - 1
    assert fold_masks(124, 0) == (0, 0)


def test_fold_masks_built_once_per_shape_and_bounded(chain4):
    """Verdicts on graphs of one shape build no masks after the first, and
    list matrices of ever new heights never grow the table past its bound."""
    image_dimension(chain4)
    before = fold_masks.cache_info()
    for seed in range(1, 6):
        image_dimension(chain4, seed=seed)
    assert fold_masks.cache_info().misses == before.misses
    bound = fold_masks.cache_info().maxsize
    assert bound is not None
    for height in range(1, 2 * bound):
        rank_mod_p([[1]] * height)
    assert fold_masks.cache_info().currsize <= bound


RAGGED_ROWS = [[[1, 2], [3]], [[1], [2, 3]], [[], [1]], [[1, 0, 5], [0, 1]], [[0], [0, 1]], [[0, 1], [1]]]
# (id suffix, ranker); rank_mod_p's cases carry the bare row ids.
RAGGED_RANKERS = [
    ("", rank_mod_p),
    ("-rank_bareiss", rank_bareiss),
    ("-rank-prime", partial(rank, mode=PRIME_MODE)),
    ("-rank-rational", partial(rank, mode=RATIONAL_MODE)),
]


class TestRankModMersenne:
    """`rank_mod_p` against textbook elimination over GF(2^61 - 1), on
    matrices built so that the rank mod p drops."""

    @pytest.mark.parametrize("seed", [7, 101])
    def test_matches_elimination_with_inverses(self, seed):
        rng = random.Random(seed)
        ranks = set()
        for _ in range(400):
            nr, nc = rng.randrange(1, 9), rng.randrange(1, 9)  # tall, wide, square
            rows = deficient_mod_p(rng, nr, nc, MERSENNE61)
            expected = rank_gf_p_with_inverses(rows, MERSENNE61)
            assert assert_input_unchanged(rank_mod_p, rows) == expected, rows
            ranks.add((expected, min(nr, nc)))
        assert any(r < full for r, full in ranks) and any(r == full for r, full in ranks)

    def test_maximal_carries(self):
        """Every entry p - 1, mixed with 0, on square, tall and wide
        matrices up to 21 x 110 (the ISC adversary's M' at n = 12 is
        21 x 92), some with repeated rows, and the empty matrices. Products
        p - 1 times slots near 2^61 fill the slots to their bound."""
        rng = random.Random(2)
        p = MERSENNE61
        shapes = [(1, 1), (2, 2), (3, 3), (8, 8), (21, 21), (30, 30), (5, 40), (40, 5), (21, 110), (110, 21)]
        for nr, nc in shapes:
            full = [[p - 1] * nc for _ in range(nr)]
            mixed = [[rng.choice([p - 1, p - 1, 0]) for _ in range(nc)] for _ in range(nr)]
            repeated = [list(rng.choice(mixed)) for _ in range(nr)]
            banded = [[p - 1 if 0 <= c - r <= 2 else 0 for c in range(nc)] for r in range(nr)]
            for rows in (full, mixed, repeated, banded):
                assert rank_mod_p(rows) == rank_gf_p_with_inverses(rows, p), (nr, nc)
        assert rank_mod_p([[p - 1] * 110 for _ in range(21)]) == 1
        assert rank_mod_p([]) == rank_mod_p([[]]) == rank_mod_p([[], []]) == 0

    @pytest.mark.parametrize(
        "rows, ranker",
        [
            pytest.param(rows, ranker, id=f"rows{i}{suffix}")
            for suffix, ranker in RAGGED_RANKERS
            for i, rows in enumerate(RAGGED_ROWS)
        ],
    )
    def test_ragged_rows_raise(self, rows, ranker):
        """A row of another length than the first raises ValueError, in the
        same words from every ranker; it is neither cut to the shortest row nor padded with zeros, even past
        the last pivot, and an empty first row is no shortcut to rank 0.
        The empty matrices keep rank 0."""
        with pytest.raises(ValueError, match="^rows of different lengths$"):
            ranker(rows)
        assert ranker([]) == ranker([[]]) == 0


def random_unimodular(rng: random.Random, size: int, steps: int = 12):
    """Product of elementary row operations applied to the identity."""
    mat = [[1 if r == c else 0 for c in range(size)] for r in range(size)]
    for _ in range(steps):
        a, b = rng.randrange(size), rng.randrange(size)
        if a == b:
            continue
        k = rng.randrange(-3, 4)
        for c in range(size):
            mat[a][c] += k * mat[b][c]
    if rng.random() < 0.5 and size > 1:
        mat[0], mat[1] = mat[1], mat[0]
    return mat


class TestModulus:
    def test_each_mode_names_its_modulus(self):
        assert modulus(PRIME_MODE) == MERSENNE61 == 2**61 - 1
        assert modulus(RATIONAL_MODE) == 0
        with pytest.raises(ValueError, match="unknown arithmetic mode 'nope'"):
            modulus("nope")


class TestDeterminant:
    def test_singular_is_zero(self):
        """A singular matrix has determinant 0, not its last pivot: a 2 x 2
        of rank 1, and a 3 x 3 of rank 2 whose last pivot is -3."""
        assert det_int([[1, 2], [2, 4]]) == 0
        assert det_int([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0

    def test_signed_by_row_swaps(self):
        """Bareiss swaps the first two rows of the first matrix, so its last
        pivot, 2, is negated."""
        assert det_int([[0, 1, 2], [1, 0, 3], [4, -3, 8]]) == -2
        assert det_int([[2, 1, 0], [1, 3, 1], [0, 1, 4]]) == 18

    def test_rejects_non_square(self):
        with pytest.raises(NotSquare, match="determinant needs a square matrix"):
            det_int([[1, 2]])


class TestInverseUnimodular:
    def test_tree_block_fixture(self, chain4):
        E = incidence_matrix(chain4)
        tree_cols = [0, 2, 4]  # a12, a23, a34
        block = [[E[r][c] for c in tree_cols] for r in range(1, 4)]
        assert inverse_unimodular(block) == [[1, 1, 1], [0, 1, 1], [0, 0, 1]]

    def test_identity(self):
        eye = [[1, 0], [0, 1]]
        assert inverse_unimodular(eye) == eye

    def test_rejects_det_two(self):
        with pytest.raises(NotUnimodular):
            inverse_unimodular([[2]])

    def test_rejects_non_square(self):
        with pytest.raises(NotSquare):
            inverse_unimodular([[1, 0]])

    def test_rejects_singular(self):
        with pytest.raises(NotUnimodular):
            inverse_unimodular([[1, 2], [2, 4]])

    def test_row_swap_is_its_own_inverse(self):
        swap = [[0, 1], [1, 0]]
        assert inverse_unimodular(swap) == swap

    def test_determinant_minus_one(self):
        mat = [[2, 3], [1, 1]]
        assert det_int(mat) == -1
        assert inverse_unimodular(mat) == [[-1, 3], [1, -2]]

    def test_empty(self):
        assert inverse_unimodular([]) == []

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_inverse_times_matrix_is_identity(self, seed, size):
        rng = random.Random(seed)
        mat = random_unimodular(rng, size)
        assert det_int(mat) in (1, -1)
        inv = inverse_unimodular(mat)
        prod = [
            [sum(inv[r][k] * mat[k][c] for k in range(size)) for c in range(size)]
            for r in range(size)
        ]
        assert prod == [[1 if r == c else 0 for c in range(size)] for r in range(size)]


class TestUnimodularColumns:
    def test_wide_matrix_keeps_first_independent_columns(self):
        # column 1 is twice column 0, column 3 is column 0 plus column 2
        pivots, inverse = unimodular_columns([[2, 4, 1, 3], [1, 2, 1, 2]])
        assert pivots == [0, 2]
        assert inverse == [[1, -1], [-1, 2]]

    def test_rejects_det_two(self):
        with pytest.raises(NotUnimodular, match="determinant is 2"):
            unimodular_columns([[2, 0, 1], [0, 1, 0]])

    def test_rejects_rank_below_row_count(self):
        with pytest.raises(NotUnimodular, match="rank"):
            unimodular_columns([[1, 2, 3], [2, 4, 6]])

    def test_empty(self):
        assert unimodular_columns([]) == ([], [])

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_random_wide_matrices(self, seed, size):
        """Unimodular columns with integer combinations of earlier ones
        spliced in and any columns after: the pivots are the unimodular
        columns and the inverse is that of their block."""
        rng = random.Random(seed)
        block = random_unimodular(rng, size)
        columns, pivots = [], []
        for c in range(size):
            while columns and rng.random() < 0.5:
                coeffs = [rng.randrange(-2, 3) for _ in pivots]
                columns.append(
                    [sum(k * block[r][j] for j, k in enumerate(coeffs)) for r in range(size)]
                )
            pivots.append(len(columns))
            columns.append([block[r][c] for r in range(size)])
        columns += [[rng.randrange(-5, 6) for _ in range(size)] for _ in range(rng.randrange(3))]
        matrix = [[col[r] for col in columns] for r in range(size)]
        found, inv = unimodular_columns(matrix)
        assert found == pivots
        prod = [
            [sum(inv[r][k] * block[k][c] for k in range(size)) for c in range(size)]
            for r in range(size)
        ]
        assert prod == [[int(r == c) for c in range(size)] for r in range(size)]


def reference_bareiss(mat: list[list[int]], jordan: bool = False) -> tuple[list[int], int]:
    """`_bareiss` without its skip: every row below the pivot, and with
    `jordan` every other row, is updated at every pivot, even a row with
    a 0 in the pivot column."""
    nrows, ncols = len(mat), len(mat[0]) if mat else 0
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
            if r != rank:
                row = mat[r]
                factor = row[col]
                for c in range(col + 1, ncols):
                    row[c] = (pv * row[c] - factor * prow[c]) // prev
                row[col] = 0
        prev = pv
        pivots.append(col)
    return pivots, sign * prev


def bareiss_inputs(rng: random.Random) -> list[list[int]]:
    """A random integer matrix of one of five kinds: dense with small
    entries, sparse 0/1, with zero rows, with +-1 pivots (a unimodular
    block beside random columns) and with large entries."""
    nr, nc = rng.randrange(1, 7), rng.randrange(1, 9)
    kind = rng.randrange(5)
    if kind == 3:
        block = random_unimodular(rng, nr)
        return [row + [rng.randrange(-3, 4) for _ in range(nc)] for row in block]
    if kind == 1:
        return [[int(rng.random() < 0.3) for _ in range(nc)] for _ in range(nr)]
    spread = 10**12 if kind == 4 else 5
    rows = [[rng.randrange(-spread, spread + 1) for _ in range(nc)] for _ in range(nr)]
    if kind == 2:
        for r in rng.sample(range(nr), rng.randrange(nr + 1)):
            rows[r] = [0] * nc
    return rows


class TestBareissSkip:
    """`_bareiss` leaves a row with a 0 in the pivot column as it is when
    the pivot equals the previous one; the pivots, the signed last pivot
    and the final matrix are those of the loop that updates every row."""

    @pytest.mark.parametrize("jordan", [False, True])
    def test_matches_the_loop_without_the_skip(self, jordan):
        rng = random.Random(43 + jordan)
        for _ in range(400):
            rows = bareiss_inputs(rng)
            mine, reference = copy.deepcopy(rows), copy.deepcopy(rows)
            assert _bareiss(mine, jordan) == reference_bareiss(reference, jordan), rows
            assert mine == reference, rows

    def test_rescales_a_row_with_a_zero_when_the_pivot_changes(self):
        """The pivots are 2, 6 and 24, each unlike the one before, so the
        rows with a 0 under them are rescaled, not kept: a skip on every 0
        factor would leave the matrix as it was and read det 4, not 24."""
        mat = [[2, 1, 5], [0, 3, 7], [0, 0, 4]]
        assert _bareiss(mat) == ([0, 1, 2], 24)
        assert mat == [[2, 1, 5], [0, 6, 14], [0, 0, 24]]

    def test_callers_agree_with_the_reference(self):
        rng = random.Random(7)
        for _ in range(200):
            rows = bareiss_inputs(rng)
            pivots, _ = reference_bareiss(copy.deepcopy(rows))
            assert rank_bareiss(rows) == len(pivots) == oracle_rank(rows)
            square = [row[: len(rows)] for row in rows] if len(rows[0]) >= len(rows) else None
            if square:
                pivots, det = reference_bareiss(copy.deepcopy(square))
                assert det_int(square) == (det if len(pivots) == len(square) else 0)


def assert_input_unchanged(func, matrix, *args):
    """Call func(matrix, *args) and check that matrix reads the same after,
    also when the call raises; return the result."""
    before = copy.deepcopy(matrix)
    try:
        return func(matrix, *args)
    finally:
        assert matrix == before, func.__name__


class TestInputsUnchanged:
    """`_bareiss` eliminates in place, so every entry point must hand it a
    copy, and `rank_mod_p` must pack one. Were the rank mod p to eliminate
    its argument, the rational rank would run Bareiss on rows already
    eliminated mod p."""

    def test_ranks_and_determinant(self):
        rng = random.Random(19)
        for _ in range(300):
            nr, nc = rng.randrange(1, 7), rng.randrange(1, 7)
            rows = [
                [rng.choice([0, rng.randrange(-9, 10), MERSENNE61 * rng.randrange(-2, 3)])
                 for _ in range(nc)]
                for _ in range(nr)
            ]
            expected = oracle_rank(rows)
            assert assert_input_unchanged(rank_bareiss, rows) == expected
            assert assert_input_unchanged(rank, rows, RATIONAL_MODE) == expected
            assert assert_input_unchanged(rank_mod_p, rows) <= expected
            assert_input_unchanged(rank, rows, PRIME_MODE)
            square = [row[:nr] for row in rows] if nc >= nr else rows[:nc]
            assert_input_unchanged(det_int, square)

    def test_fraction_rows(self):
        """Fraction rows raise TypeError and are left as they were; cleared
        row by row to ints, with p in a numerator, they keep their rank."""
        rows = [[Fraction(1, 2), Fraction(MERSENNE61, 3)], [Fraction(3, 2), Fraction(1, 1)]]
        with pytest.raises(TypeError):
            assert_input_unchanged(rank, rows, RATIONAL_MODE)
        integer_rows = [clear_denominators(row) for row in rows]
        assert assert_input_unchanged(rank, integer_rows, RATIONAL_MODE) == oracle_rank(rows)

    @pytest.mark.parametrize(
        "rows, over_q, mod_p",
        [
            ([[MERSENNE61, 1], [2 * MERSENNE61, 2]], 1, 1),
            ([[MERSENNE61, 0], [0, 1]], 2, 1),
        ],
    )
    def test_rank_below_ceiling_mod_p(self, rows, over_q, mod_p):
        """Both modes of `rank`, on matrices whose rank mod p is below
        min(rows, cols), so the rational rank goes on to Bareiss."""
        assert assert_input_unchanged(rank_mod_p, rows) == mod_p
        assert assert_input_unchanged(rank, rows, PRIME_MODE) == mod_p
        assert assert_input_unchanged(rank, rows, RATIONAL_MODE) == over_q

    def test_unimodular_blocks(self):
        rng = random.Random(23)
        for _ in range(100):
            size = rng.randrange(1, 6)
            block = random_unimodular(rng, size)
            wide = [row + [rng.randrange(-5, 6)] for row in block]
            assert_input_unchanged(inverse_unimodular, block)
            assert assert_input_unchanged(unimodular_columns, wide)[0] == list(range(size))
        with pytest.raises(NotUnimodular):
            assert_input_unchanged(unimodular_columns, [[1, 2, 3], [2, 4, 6]])
        with pytest.raises(NotUnimodular):
            assert_input_unchanged(inverse_unimodular, [[2, 1], [0, 1]])


class TestIntegerEntries:
    """Every entry point copies its input through `operator.index`: a
    Fraction or a float raises TypeError instead of being truncated, as
    `int` would, or reduced, as `% p` would: rank_bareiss([[Fraction(1, 2)]])
    would read 0, det_int([[2.7]]) 2 and rank_mod_p([[2.7]]) 1."""

    @pytest.mark.parametrize(
        "func",
        [
            rank_bareiss,
            det_int,
            unimodular_columns,
            lambda rows: rank(rows, RATIONAL_MODE),
            rank_mod_p,
            lambda rows: rank(rows, PRIME_MODE),
        ],
        ids=["rank_bareiss", "det_int", "unimodular_columns", "rank", "rank_mod_p", "rank_prime"],
    )
    @pytest.mark.parametrize(
        "rows",
        [[[Fraction(1, 2)]], [[Fraction(3, 2)]], [[0.5, 1.0], [1.0, 2.0]], [[2.7]], [[1, 0], [0, 2.0]]],
    )
    def test_non_integers_raise(self, func, rows):
        with pytest.raises(TypeError):
            func(rows)


class TestMatvec:
    def test_product(self):
        assert matvec_int([[1, 2], [3, 4]], [5, 6]) == [17, 39]
        assert matvec_int([], [5, 6]) == []

    @pytest.mark.parametrize("vec", [[3], [3, 4, 5]], ids=["short", "long"])
    def test_length_mismatch_raises(self, vec):
        """A row and a vector of different lengths raise ValueError: neither
        is cut to the other's length."""
        with pytest.raises(ValueError):
            matvec_int([[1, 2]], vec)


class TestLatticeSolve:
    def test_identity_block(self):
        M = [[1, 0], [0, 1], [1, 1]]
        assert integer_solve_in_lattice(M, [[1, 0, 1]], (0, 1)) == [[1, 0]]

    def test_zero_target(self):
        M = [[1, 0], [0, 1], [1, 1]]
        assert integer_solve_in_lattice(M, [[0, 0, 0]], (0, 1)) == [[0, 0]]

    def test_non_unimodular_block(self):
        with pytest.raises(NotUnimodular):
            integer_solve_in_lattice([[2]], [[2]], (0,))

    def test_several_targets_share_the_block(self):
        M = [[1, 0], [0, 1], [1, 1]]
        targets = [[1, 0, 1], [0, 1, 1], [2, -3, -1]]
        assert integer_solve_in_lattice(M, targets, (0, 1)) == [[1, 0], [0, 1], [2, -3]]

    def test_inconsistent_target(self):
        M = [[1, 0], [0, 1], [1, 1]]
        with pytest.raises(InconsistentSystem):
            integer_solve_in_lattice(M, [[1, 0, 7]], (0, 1))
