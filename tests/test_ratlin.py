import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

import tdlcinv.ratlin
from tdlcinv.diagrams import CoxeterSystem
from tdlcinv.davis import build_chamber
from tdlcinv.ratlin import CompositionNonZero, RationalMatrix, chain_ranks, homology_dims
from tdlcinv.simplicial import SimplicialComplex, relative_cohomology, union_complexes

from fuzzers import random_complex, random_coxeter_system
from oracles import (
    dense_homology,
    dense_kernel_basis,
    dense_rank,
    dense_solve,
    reference_pivots,
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


def _column(values):
    """The one-column matrix of ``values``."""
    return RationalMatrix(len(values), 1, {(i, 0): v for i, v in enumerate(values)})


def _values(column):
    """The entries of a one-column matrix, top to bottom."""
    return [column.entry(i, 0) for i in range(column.rows)]


def test_rank_zero_matrix():
    assert RationalMatrix(3, 3).rank() == 0


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
        assert (m @ _column(vec)).is_zero()


def test_homology_point():
    assert homology_dims([RationalMatrix(0, 1)]) == [1]


def test_homology_triangle_boundary():
    dims = homology_dims([RationalMatrix(0, 3), TRIANGLE_D1])
    assert dims == [1, 1]
    oracle = dense_homology([(0, 3), TRIANGLE_D1.to_dense()])
    assert dims == oracle


def test_homology_solid_triangle():
    d2 = RationalMatrix.from_rows([[1], [-1], [1]])
    dims = homology_dims([RationalMatrix(0, 3), TRIANGLE_D1, d2])
    assert dims == [1, 0, 0]


def test_homology_rejects_nonzero_composition():
    d1 = RationalMatrix.from_rows([[1, 0], [0, 1]])
    d2 = RationalMatrix.from_rows([[1, 0], [0, 1]])
    with pytest.raises(CompositionNonZero):
        homology_dims([RationalMatrix(0, 2), d1, d2])


def test_solve_consistent_and_inconsistent():
    m = RationalMatrix.from_rows([[1, 2], [0, 1]])
    x = m.solve(_column([Fraction(5), Fraction(2)]))
    assert (x.rows, x.cols) == (2, 1)
    assert m @ x == _column([5, 2])
    singular = RationalMatrix.from_rows([[1, 1], [1, 1]])
    with pytest.raises(ValueError):
        singular.solve(_column([0, 1]))


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
        yield RationalMatrix(0, n)
        yield RationalMatrix(n, 0)
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
        x = _column([rng.randint(-3, 3) for _ in range(m.cols)])
        # a right-hand side in the image, then one that usually is not
        for rhs in (m @ x, _column([rng.randint(-2, 2) for _ in range(m.rows)])):
            expected = dense_solve(dense, m.cols, _values(rhs))
            if expected is None:
                with pytest.raises(ValueError):
                    m.solve(rhs)
            else:
                assert _values(m.solve(rhs)) == expected


def _from_columns(columns, rows):
    return RationalMatrix(rows, len(columns), {(i, j): v for j, col in enumerate(columns) for i, v in enumerate(col)})


def test_matrix_solve_matches_the_dense_oracle_column_by_column():
    rng = random.Random(59)
    checked_inconsistent = 0
    for k in range(600):
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        if k % 2:
            a = _integer_matrix(rng, rows, cols)
        else:
            a = _random_matrix(rng, rows, cols, bound=5, denominator=6)
        dense = a.to_dense()
        # right-hand columns in the image of a, some of them zero
        columns = []
        for _ in range(rng.randint(0, 4)):
            if rng.random() < 0.3:
                columns.append([0] * rows)
            else:
                coefficients = _column([Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(cols)])
                columns.append(_values(a @ coefficients))
        b = _from_columns(columns, rows)
        x = a.solve(b)
        assert (x.rows, x.cols) == (cols, len(columns))
        assert a @ x == b
        for j, column in enumerate(columns):
            assert [x.entry(i, j) for i in range(cols)] == dense_solve(dense, cols, column)
        bad = [rng.randint(-2, 2) for _ in range(rows)]
        if dense_solve(dense, cols, bad) is None:
            checked_inconsistent += len(columns) >= 2
            for position in (0, len(columns) // 2, len(columns)):
                with pytest.raises(ValueError, match="inconsistent"):
                    a.solve(_from_columns(columns[:position] + [bad] + columns[position:], rows))
    assert checked_inconsistent >= 50


def test_integral_solutions_and_kernel_vectors_are_ints():
    # one common denominator per solved vector: it stays 1, and the
    # coordinates are ints, exactly when every coordinate is an integer
    rng = random.Random(61)
    seen = set()
    for k in range(400):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        a = _integer_matrix(rng, rows, cols, bound=2 if k % 2 else 4)
        vectors = list(a.kernel_basis())
        x = a.solve(a @ _integer_matrix(rng, cols, rng.randint(1, 3)))
        vectors += [[x.entry(i, j) for i in range(cols)] for j in range(x.cols)]
        for vec in vectors:
            nonzero = [c for c in vec if c]
            integral = all(Fraction(c).denominator == 1 for c in vec)
            assert {type(c) for c in nonzero} <= ({int} if integral else {Fraction})
            seen.add(integral)
    assert seen == {True, False}
    # a unit upper-triangular system and a difference row: ints throughout
    unit = RationalMatrix.from_rows([[1, 2, -1], [0, -1, 3], [0, 0, 1]])
    assert all(type(c) is int for c in _values(unit.solve(_column([4, -2, 7]))))
    solved = unit.solve(RationalMatrix.from_rows([[1, 0], [5, 0], [-2, 3]]))
    assert all(type(c) is int for c in solved.entries().values())
    assert unit @ solved == RationalMatrix.from_rows([[1, 0], [5, 0], [-2, 3]])
    assert RationalMatrix.from_rows([[1, -1, 0]]).kernel_basis() == [(1, 1, 0), (0, 0, 1)]
    assert all(type(c) is int for vec in TRIANGLE_D1.kernel_basis() for c in vec)


def test_int_and_fraction_entries_are_the_same_matrix():
    ints = RationalMatrix(2, 2, {(0, 0): 1, (1, 0): -2})
    fractions = RationalMatrix(2, 2, {(0, 0): Fraction(1), (1, 0): Fraction(-2)})
    assert ints == fractions
    assert hash(ints) == hash(fractions)
    assert type(ints.entry(0, 0)) is int
    assert type(ints.entry(0, 1)) is int and ints.entry(0, 1) == 0
    assert ints.to_dense() == [[1, 0], [-2, 0]]
    assert all(type(v) is int for row in fractions.to_dense() for v in row if not v)
    assert type(RationalMatrix(1, 1, {(0, 0): True}).entry(0, 0)) is Fraction
    assert RationalMatrix(1, 1, {(0, 0): 0.5}).entry(0, 0) == Fraction(1, 2)


def test_one_matrix_contract():
    # a vector is a one-column matrix: solve takes and returns matrices,
    # and from_rows reads its shape off the rows
    empty = RationalMatrix.from_rows([])
    assert (empty.rows, empty.cols) == (0, 0)
    assert RationalMatrix.from_rows([[0, 0]]) == RationalMatrix(1, 2)
    with pytest.raises(ValueError, match="ragged"):
        RationalMatrix.from_rows([[1], [1, 2]])
    x = RationalMatrix(0, 3).solve(RationalMatrix(0, 2))
    assert (x.rows, x.cols, x.nnz) == (3, 2, 0)
    with pytest.raises(ValueError, match="length mismatch"):
        RationalMatrix.identity(2).solve(_column([1, 2, 3]))
    for gone in ("apply", "zero"):
        assert not hasattr(RationalMatrix, gone)


def test_fraction_entries_are_stored_as_given():
    half = Fraction(1, 2)
    whole = Fraction(3)
    m = RationalMatrix(1, 2, {(0, 0): half, (0, 1): whole})
    assert m.entries()[(0, 0)] is half
    assert m.entries()[(0, 1)] is whole


def _mixed_matrix(rng, rows, cols):
    # each entry an int or a Fraction, denominator 1 included, so rows mix
    # both kinds and some Fraction rows need no scaling
    density = rng.uniform(0.2, 0.7)
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                value = rng.randint(-5, 5)
                entries[(i, j)] = value if rng.random() < 0.5 else Fraction(value, rng.randint(1, 6))
    return RationalMatrix(rows, cols, entries)


def _with_empty_lines(rng, m):
    dead_rows = set(rng.sample(range(m.rows), m.rows // 3))
    dead_cols = set(rng.sample(range(m.cols), m.cols // 3))
    kept = {(i, j): v for (i, j), v in m.entries().items() if i not in dead_rows and j not in dead_cols}
    return RationalMatrix(m.rows, m.cols, kept)


def _pivot_test_matrices():
    rng = random.Random(43)
    for n in (0, 1, 5):
        yield RationalMatrix(0, n)
        yield RationalMatrix(n, 0)
    for _ in range(60):
        yield _sign_matrix(rng, rng.randint(1, 25), rng.randint(1, 25))
    for _ in range(20):
        yield _clique_complex(rng).boundary_matrix(1)
        complex_ = _clique_complex(rng)
        if complex_.dim >= 2:
            yield complex_.boundary_matrix(2)
    for _ in range(60):
        yield _integer_matrix(rng, rng.randint(1, 20), rng.randint(1, 20))
    for _ in range(20):
        inner = rng.randint(1, 8)
        left = _integer_matrix(rng, rng.randint(1, 16), inner, bound=3)
        yield left @ _integer_matrix(rng, inner, rng.randint(1, 16), bound=3)
    for _ in range(120):
        yield _mixed_matrix(rng, rng.randint(1, 12), rng.randint(1, 12))
    for _ in range(60):
        source = rng.choice((_sign_matrix, _integer_matrix, _mixed_matrix))
        yield _with_empty_lines(rng, source(rng, rng.randint(1, 15), rng.randint(1, 15)))


def test_pivots_match_the_reference_kernel():
    """The integer fast path yields exactly the reference sequence: same
    pivot columns, pivot values, reduced rows and row ids, all in ``int``."""
    for m in _pivot_test_matrices():
        pivots = list(m._pivots())
        assert pivots == list(reference_pivots(m))
        for _, pv, row, _ in pivots:
            assert type(pv) is int
            assert all(type(v) is int for v in row.values())


def test_integer_boundary_is_ranked_without_lcm(monkeypatch):
    calls = []

    def counting_lcm(*args):
        calls.append(args)
        return lcm(*args)

    monkeypatch.setattr(tdlcinv.ratlin, "lcm", counting_lcm)
    size = 4  # affine A3: a 4-cycle of 3-labels
    chamber = build_chamber(
        CoxeterSystem([[1 if i == j else 3 if (i - j) % size in (1, 3) else 2 for j in range(size)] for i in range(size)])
    )
    d2 = chamber.complex.boundary_matrix(2)
    assert d2.nnz > 0
    assert d2.rank() == dense_rank(d2.to_dense())
    assert calls == []


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
        chain = [RationalMatrix(0, d1.rows), d1, d2]
        dense = [(0, d1.rows), d1.to_dense(), d2.to_dense()]
        assert homology_dims(chain) == dense_homology(dense)


def test_matrices_are_value_objects():
    a = RationalMatrix.from_rows([[1, 0], [0, 1]])
    assert a == RationalMatrix.identity(2)
    assert hash(a) == hash(RationalMatrix.identity(2))
    a.rank()
    assert a == RationalMatrix.identity(2)  # operations do not mutate


def _assert_chain_ranks_exact(complex_, subcomplex):
    """Ranks with clearing equal plain ``rank()`` in every degree, and the
    dimensions they give equal the dense oracle's relative homology."""
    away = subcomplex.all_simplices()
    top = complex_.dim
    plain = [complex_._boundary(q, away, frozenset()) for q in range(1, top + 1)]
    ranks = chain_ranks(lambda q, cleared: complex_._boundary(q, away, cleared), top)
    assert ranks == [0] + [m.rank() for m in plain] + [0]
    kept = [sum(s not in away for s in complex_.simplices(q)) for q in range(top + 1)]
    dense = [(0, kept[0])] + [m.to_dense() if m.rows else (0, m.cols) for m in plain]
    expected = dense_homology(dense)
    assert [kept[q] - ranks[q] - ranks[q + 1] for q in range(top + 1)] == expected
    assert relative_cohomology(complex_, subcomplex) == expected
    if not away:
        assert complex_.homology() == expected


def _clique_complex(rng):
    n = rng.randint(4, 9)
    p = rng.uniform(0.4, 0.85)
    edges = {e for e in combinations(range(n), 2) if rng.random() < p}
    cliques = [c for k in range(1, 6) for c in combinations(range(n), k) if set(combinations(c, 2)) <= edges]
    return SimplicialComplex(cliques, generate_closure=False)


def test_chain_ranks_with_clearing_match_plain_rank_and_dense_oracle():
    rng = random.Random(29)
    empty = SimplicialComplex.empty()
    for _ in range(40):
        _assert_chain_ranks_exact(_clique_complex(rng), empty)
    for _ in range(60):
        complex_ = random_complex(rng)
        simplices = sorted(complex_.all_simplices())
        sub = SimplicialComplex(rng.sample(simplices, rng.randint(0, len(simplices))))
        _assert_chain_ranks_exact(complex_, sub)
    checked = 0
    while checked < 12:
        chamber = build_chamber(random_coxeter_system(rng, rng.randint(3, 6)), allow_finite=True)
        if len(chamber.complex.all_simplices()) > 100:
            continue
        checked += 1
        for subset in chamber.poset.subsets:
            mirrors = [chamber.mirrors[s] for s in chamber.system.generators if s not in subset]
            _assert_chain_ranks_exact(chamber.complex, union_complexes(mirrors) if mirrors else empty)
