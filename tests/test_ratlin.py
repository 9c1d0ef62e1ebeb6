import random
from fractions import Fraction

import pytest

from tdlcinv.ratlin import CompositionNonZero, RationalMatrix, homology_dims

from oracles import (
    dense_homology,
    dense_kernel_basis,
    dense_rank,
    dense_solve,
    small_integer_kernel,
    subset_rank,
)

# Boundary matrix of the hollow triangle on vertices a < b < c, edge basis
# (ab, ac, bc): each edge column is terminus - origin with alternating signs.
TRIANGLE_D1 = RationalMatrix.from_rows(
    [
        [-1, -1, 0],
        [1, 0, -1],
        [0, 1, 1],
    ]
)


def test_rank_zero_matrix():
    assert RationalMatrix.zero(3, 3).rank() == 0


def test_rank_identity():
    assert RationalMatrix.identity(3).rank() == 3


def test_rank_triangle_boundary_matches_subset_oracle():
    dense = TRIANGLE_D1.to_dense()
    assert subset_rank(dense) == 2  # frozen from the exhaustive row-subset oracle
    assert TRIANGLE_D1.rank() == 2


def test_kernel_identity_empty():
    assert RationalMatrix.identity(2).kernel_basis() == []


def test_kernel_of_difference_row():
    m = RationalMatrix.from_rows([[1, -1]])
    (vec,) = m.kernel_basis()
    assert vec[0] == vec[1] != 0


def test_kernel_triangle_is_fundamental_cycle():
    # Oracle: brute force over small integer vectors finds only multiples of
    # the consistent orientation cycle ab - ac + bc.
    found = small_integer_kernel(TRIANGLE_D1.to_dense(), 3, bound=1)
    assert (1, -1, 1) in found
    assert all(v[0] == -v[1] == v[2] for v in found)
    (vec,) = TRIANGLE_D1.kernel_basis()
    scale = vec[0]
    assert scale != 0
    assert tuple(c / scale for c in vec) == (1, -1, 1)


def test_kernel_vectors_are_exact():
    m = RationalMatrix.from_rows([[2, 4, 6], [1, 2, 3], [0, 1, 1]])
    for vec in m.kernel_basis():
        assert all(c == 0 for c in m.apply(vec))


def test_homology_point():
    assert homology_dims([RationalMatrix.zero(0, 1)]) == [1]


def test_homology_triangle_boundary():
    dims = homology_dims([RationalMatrix.zero(0, 3), TRIANGLE_D1])
    assert dims == [1, 1]
    oracle = dense_homology([(0, 3), TRIANGLE_D1.to_dense()])
    assert dims == oracle


def test_homology_solid_triangle():
    d2 = RationalMatrix.from_rows([[1], [-1], [1]])
    dims = homology_dims([RationalMatrix.zero(0, 3), TRIANGLE_D1, d2])
    assert dims == [1, 0, 0]


def test_homology_rejects_nonzero_composition():
    d1 = RationalMatrix.from_rows([[1, 0], [0, 1]])
    d2 = RationalMatrix.from_rows([[1, 0], [0, 1]])
    with pytest.raises(CompositionNonZero):
        homology_dims([RationalMatrix.zero(0, 2), d1, d2])


def test_solve_consistent_and_inconsistent():
    m = RationalMatrix.from_rows([[1, 2], [0, 1]])
    x = m.solve([Fraction(5), Fraction(2)])
    assert m.apply(x) == [5, 2]
    singular = RationalMatrix.from_rows([[1, 1], [1, 1]])
    with pytest.raises(ValueError):
        singular.solve([0, 1])


def _random_matrix(rng, rows, cols, density=0.5, bound=3, denominator=3):
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                entries[(i, j)] = Fraction(rng.randint(-bound, bound), rng.randint(1, denominator))
    return RationalMatrix(rows, cols, entries)


def _integer_matrix(rng, rows, cols, bound=4):
    density = rng.uniform(0.1, 0.6)
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                entries[(i, j)] = rng.randint(-bound, bound)
    return RationalMatrix(rows, cols, entries)


def _sign_matrix(rng, rows, cols):
    # boundary-like: each column has at most three entries, each +-1
    entries = {}
    for j in range(cols):
        for i in rng.sample(range(rows), min(rows, rng.randint(1, 3))):
            entries[(i, j)] = rng.choice((-1, 1))
    return RationalMatrix(rows, cols, entries)


def _rank_test_matrices():
    rng = random.Random(7)
    for _ in range(60):
        yield _random_matrix(rng, rng.randint(0, 6), rng.randint(0, 6))
    for n in (0, 1, 7):
        yield RationalMatrix.zero(0, n)
        yield RationalMatrix.zero(n, 0)
    # integer entries in -4..4, so pivots other than +-1 and the gcd content
    # step occur; the products have rank at most their inner size
    for _ in range(12):
        yield _integer_matrix(rng, rng.randint(1, 30), rng.randint(1, 30))
    for _ in range(12):
        inner = rng.randint(1, 12)
        left = _integer_matrix(rng, rng.randint(1, 24), inner, bound=2)
        yield left @ _integer_matrix(rng, inner, rng.randint(1, 24), bound=2)
    for _ in range(12):
        yield _sign_matrix(rng, rng.randint(1, 30), rng.randint(1, 30))
    # denominators up to 6 exercise the scaling of each row by their lcm;
    # dividing the rows or the columns of a low-rank product keeps its rank
    for k in range(20):
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        yield _random_matrix(rng, rows, cols, bound=5, denominator=6)
        inner = rng.randint(1, 6)
        low = _integer_matrix(rng, rows, inner, bound=2) @ _integer_matrix(rng, inner, cols, bound=2)
        divisors = [rng.randint(1, 6) for _ in range(max(rows, cols))]
        yield RationalMatrix(
            rows,
            cols,
            {(i, j): Fraction(v, divisors[i if k % 2 else j]) for (i, j), v in low.entries().items()},
        )


def test_rank_equals_transpose_rank_and_rank_nullity():
    for m in _rank_test_matrices():
        r = m.rank()
        assert r == m.transpose().rank()
        assert m.cols == r + len(m.kernel_basis())
        assert r == dense_rank(m.to_dense())


def _oracle_test_matrices():
    """The rank-test matrices, then 3,000 small ones (0 to 8 rows and
    columns) from the same families."""
    yield from _rank_test_matrices()
    rng = random.Random(29)

    def low_rank(rows, cols):
        inner = rng.randint(1, 4)
        return _integer_matrix(rng, rows, inner, bound=2) @ _integer_matrix(rng, inner, cols, bound=2)

    def divided_low_rank(rows, cols):
        divisors = [rng.randint(1, 6) for _ in range(cols)]
        entries = low_rank(rows, cols).entries()
        return RationalMatrix(rows, cols, {(i, j): Fraction(v, divisors[j]) for (i, j), v in entries.items()})

    families = (
        lambda rows, cols: _integer_matrix(rng, rows, cols),
        lambda rows, cols: _sign_matrix(rng, rows, cols),
        low_rank,
        lambda rows, cols: _random_matrix(rng, rows, cols, bound=5, denominator=6),
        divided_low_rank,
    )
    for k in range(3000):
        yield families[k % len(families)](rng.randint(0, 8), rng.randint(0, 8))


def test_kernel_basis_and_solve_match_dense_oracle():
    rng = random.Random(31)
    for m in _oracle_test_matrices():
        dense = m.to_dense()
        assert m.kernel_basis() == dense_kernel_basis(dense, m.cols)
        x = [rng.randint(-3, 3) for _ in range(m.cols)]
        # a right-hand side in the image, then one that usually is not
        for rhs in (m.apply(x), [rng.randint(-2, 2) for _ in range(m.rows)]):
            expected = dense_solve(dense, m.cols, rhs)
            if expected is None:
                with pytest.raises(ValueError):
                    m.solve(rhs)
            else:
                assert m.solve(rhs) == expected


def test_int_and_fraction_entries_are_the_same_matrix():
    ints = RationalMatrix(2, 2, {(0, 0): 1, (1, 0): -2})
    fractions = RationalMatrix(2, 2, {(0, 0): Fraction(1), (1, 0): Fraction(-2)})
    assert ints == fractions
    assert hash(ints) == hash(fractions)
    assert type(ints.entry(0, 0)) is int
    assert type(RationalMatrix(1, 1, {(0, 0): True}).entry(0, 0)) is Fraction
    assert RationalMatrix(1, 1, {(0, 0): 0.5}).entry(0, 0) == Fraction(1, 2)


def test_homology_matches_dense_oracle_on_random_two_step_complexes():
    # Build d_{q+1} with columns drawn from ker(d_q) so the complex condition
    # holds, then compare against the dense oracle.
    rng = random.Random(13)
    for _ in range(40):
        d1 = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        kernel = d1.kernel_basis()
        if not kernel:
            continue
        cols = rng.randint(1, len(kernel))
        entries = {}
        for j in range(cols):
            vec = kernel[rng.randrange(len(kernel))]
            scale = rng.randint(-2, 2)
            for i, v in enumerate(vec):
                if v and scale:
                    entries[(i, j)] = v * scale
        d2 = RationalMatrix(d1.cols, cols, entries)
        chain = [RationalMatrix.zero(0, d1.rows), d1, d2]
        dense = [(0, d1.rows), d1.to_dense(), d2.to_dense()]
        assert homology_dims(chain) == dense_homology(dense)


def test_matrices_are_value_objects():
    a = RationalMatrix.from_rows([[1, 0], [0, 1]])
    assert a == RationalMatrix.identity(2)
    assert hash(a) == hash(RationalMatrix.identity(2))
    a.rank()
    assert a == RationalMatrix.identity(2)  # operations do not mutate
