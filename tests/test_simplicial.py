import random

import pytest

from tdlcinv.errors import ValidationError
from tdlcinv.ratlin import RationalMatrix
from tdlcinv.simplicial import (
    DegreeOutOfRange,
    NotClosed,
    NotSubcomplex,
    OrientedSimplex,
    SignedSet,
    SimplicialComplex,
    ball_sphere_growth,
    line_window,
    load_complex,
    regular_tree_window,
    relative_cohomology,
    union_complexes,
)

from fuzzers import clique_skeleton
from oracles import (
    all_subsets_closure,
    boundary_maps_homology,
    dense_homology,
    extension_coboundary,
    sliced_boundary,
)

TRIANGLE = SimplicialComplex.from_maximal([(0, 1), (0, 2), (1, 2)])
SOLID_TRIANGLE = SimplicialComplex.from_maximal([(0, 1, 2)])


def random_complex(rng, max_vertices=8):
    n = rng.randint(1, max_vertices)
    maximal = [(v,) for v in range(n)]
    for _ in range(rng.randint(0, 6)):
        size = rng.randint(1, min(4, n))
        maximal.append(tuple(rng.sample(range(n), size)))
    return SimplicialComplex.from_maximal(maximal)


def test_oriented_simplex_sorting_parity():
    assert OrientedSimplex.from_vertices((2, 0, 1)) == OrientedSimplex((0, 1, 2), 1)
    assert OrientedSimplex.from_vertices((1, 0, 2)) == OrientedSimplex((0, 1, 2), -1)
    with pytest.raises(ValueError):
        OrientedSimplex.from_vertices((1, 1))


def test_signed_set_rejects_fixed_points_and_non_involutions():
    with pytest.raises(Exception):
        SignedSet({"x": "x"})
    with pytest.raises(Exception):
        SignedSet({"x": "y", "y": "z", "z": "x"})
    s = SignedSet({"a": "b", "b": "a"})
    assert s.positives() == ("a",)


def test_oriented_simplices_signed_sets():
    doubled = TRIANGLE.oriented_simplices(0)
    assert len(doubled) == 6  # plus/minus doubling of three vertices
    assert doubled.positives() == (("+", (0,)), ("+", (1,)), ("+", (2,)))
    edges = TRIANGLE.oriented_simplices(1)
    assert len(edges) == 6  # two orderings per edge
    assert edges.positives() == ((0, 1), (0, 2), (1, 2))  # the matrix bases


def test_validate_accepts_closed_and_rejects_open():
    SimplicialComplex([("a",), ("b",), ("a", "b")], generate_closure=False).validate()
    open_complex = SimplicialComplex([("a", "b")], generate_closure=False)
    with pytest.raises(NotClosed):
        open_complex.validate()


def test_missing_face_raises_in_absolute_and_relative_boundary():
    # vertex 1 is missing; the relative boundary must not drop it silently
    open_complex = SimplicialComplex([(0,), (0, 1)], generate_closure=False)
    with pytest.raises(NotClosed):
        open_complex.boundary_matrix(1)
    for away in (SimplicialComplex.empty(), SimplicialComplex([(0,)])):
        with pytest.raises(NotClosed):
            relative_cohomology(open_complex, away)
    # faces missing in two degrees: homology ranks the top degree first, as
    # relative_cohomology does, so it names the face missing from (0, 1, 2)
    # where a bottom-up build of the maps named (3,) missing from (1, 3)
    open_complex = SimplicialComplex([(0,), (1,), (0, 1, 2), (1, 3)], generate_closure=False)
    with pytest.raises(NotClosed) as raised:
        boundary_maps_homology(open_complex)
    assert (raised.value.simplex, raised.value.missing_face) == ((1, 3), (3,))
    for route in (
        open_complex.homology,
        lambda: relative_cohomology(open_complex, SimplicialComplex.empty()),
        lambda: relative_cohomology(open_complex, SimplicialComplex([(0,)])),
    ):
        with pytest.raises(NotClosed) as raised:
            route()
        assert (raised.value.simplex, raised.value.missing_face) == ((0, 1, 2), (0, 1))


def test_boundary_matches_sliced_oracle_entry_for_entry():
    rng = random.Random(17)
    degrees = set()
    for _ in range(80):
        n = rng.randint(1, 9)
        maximal = [(v,) for v in range(n)]
        maximal += [tuple(rng.sample(range(n), rng.randint(1, min(5, n)))) for _ in range(rng.randint(0, 6))]
        complex_ = SimplicialComplex.from_maximal(maximal)
        simplices = sorted(complex_.all_simplices())
        away = SimplicialComplex(rng.sample(simplices, rng.randint(0, len(simplices) // 2))).all_simplices()
        for q in range(1, complex_.dim + 1):
            degrees.add(q)
            columns = sum(s not in away for s in complex_.simplices(q))
            for cleared in (frozenset(), frozenset(rng.sample(range(columns), rng.randint(0, columns)))):
                m = complex_._boundary(q, away, cleared)
                assert (m.rows, m.cols, m.entries()) == sliced_boundary(complex_, q, away, cleared)
    assert degrees == {1, 2, 3, 4}


def test_full_complex_on_four_vertices():
    full = SimplicialComplex.full_complex(range(4))
    full.validate()
    assert full.dim == 3
    assert full.f_vector() == (4, 6, 4, 1)


def test_boundary_of_single_edge():
    edge = SimplicialComplex.from_maximal([(0, 1)])
    assert edge.boundary_matrix(1).to_dense() == [[-1], [1]]


def test_boundary_column_of_two_simplex():
    # faces in basis order (01), (02), (12); dropping position j gives (-1)^j
    col = [row[0] for row in SOLID_TRIANGLE.boundary_matrix(2).to_dense()]
    assert col == [1, -1, 1]


def test_boundary_degree_out_of_range():
    with pytest.raises(DegreeOutOfRange):
        TRIANGLE.boundary_matrix(2)


def test_boundary_squares_to_zero_on_random_complexes():
    rng = random.Random(5)
    for _ in range(50):
        c = random_complex(rng)
        for q in range(2, c.dim + 1):
            assert (c.boundary_matrix(q - 1) @ c.boundary_matrix(q)).is_zero()


def test_homology_of_full_complexes_is_point():
    for n in range(1, 7):
        dims = SimplicialComplex.full_complex(range(n)).homology()
        assert dims == [1] + [0] * (n - 1)


def test_homology_triangle_and_two_points():
    assert TRIANGLE.homology() == [1, 1]
    two_points = SimplicialComplex([(0,), (1,)])
    assert two_points.homology() == [2]


def test_homology_matches_dense_oracle():
    rng = random.Random(11)
    for _ in range(25):
        c = random_complex(rng, max_vertices=6)
        dense = [(0, len(c.simplices(0)))]
        dense += [c.boundary_matrix(q).to_dense() for q in range(1, c.dim + 1)]
        assert c.homology() == dense_homology(dense)


def homology_inputs():
    """Seeded clique 3-skeleta at the benchmark's density, random
    complexes, the full simplices Delta^0 to Delta^5, the empty complex and
    3-regular tree windows."""
    rng = random.Random(41)
    for n in (60, 70, 90, 120):
        for _ in range(2):
            yield SimplicialComplex(clique_skeleton(rng, n))
    for _ in range(40):
        yield random_complex(rng)
    for n in range(1, 7):
        yield SimplicialComplex.full_complex(range(n))
    yield SimplicialComplex.empty()
    build = regular_tree_window(3)
    for radius in range(0, 7):
        yield build(radius)[0]


def test_homology_equals_the_boundary_maps_reference():
    degrees = set()
    for c in homology_inputs():
        dims = c.homology()
        assert dims == boundary_maps_homology(c)
        degrees.update(q for q, d in enumerate(dims) if d)
    assert degrees == {0, 1, 2, 3}


def test_homology_builds_no_full_boundary_map_and_no_product(monkeypatch):
    inputs = list(homology_inputs())
    expected = [boundary_maps_homology(c) for c in inputs]

    def refuse(*args):
        raise AssertionError("homology must rank from _boundary with clearing")

    monkeypatch.setattr(SimplicialComplex, "boundary_matrix", refuse)
    monkeypatch.setattr(RationalMatrix, "__matmul__", refuse)
    assert [c.homology() for c in inputs] == expected


def closure_inputs():
    """Seeded simplex lists with repeated vertices inside a simplex,
    duplicate, unsorted and nested simplices, and vertices only."""
    rng = random.Random(43)
    yield [(0,), (1,), (2,)]
    yield [(2, 0, 1), (1, 2), (0, 2, 1), (3, 3, 1), (1,)]
    yield [("b", "a"), ("c", "a", "b"), ("a",)]
    yield [(5, 4, 3, 2, 1, 0), (0, 1, 2), (7,), (7, 7)]
    for _ in range(60):
        n = rng.randint(1, 9)
        simplices = [tuple(rng.choices(range(n), k=rng.randint(1, 6))) for _ in range(rng.randint(0, 8))]
        simplices += [tuple(rng.sample(s, len(s))) for s in rng.sample(simplices, len(simplices) // 2)]
        simplices += [s[: rng.randint(1, len(s))] for s in rng.sample(simplices, len(simplices) // 3)]
        rng.shuffle(simplices)
        yield simplices
    for n in (60, 120):
        cliques = clique_skeleton(rng, n)
        rng.shuffle(cliques)
        yield cliques


def test_closure_equals_the_all_subsets_reference():
    for simplices in closure_inputs():
        for generate_closure in (True, False):
            c = SimplicialComplex(simplices, generate_closure)
            ref = all_subsets_closure(simplices, generate_closure)
            assert c._graded == ref._graded
            assert c.all_simplices() == ref.all_simplices()
            assert (c.vertices, c.f_vector(), c.dim) == (ref.vertices, ref.f_vector(), ref.dim)


def test_closure_rejects_the_empty_simplex():
    for simplices in ([()], [(0, 1), ()], [(), (0, 1)], [(2,), [], (0,)]):
        for generate_closure in (True, False):
            for build in (SimplicialComplex, all_subsets_closure):
                with pytest.raises(ValidationError, match="^the empty set is not a simplex$"):
                    build(simplices, generate_closure)


def test_compact_cochain_single_edge():
    edge = SimplicialComplex.from_maximal([(0, 1)])
    # dual of vertex 0 hits the edge with sign -1, dual of vertex 1 with +1
    assert edge.compact_cochain_matrix(0).to_dense() == [[-1, 1]]


def test_compact_cochain_is_adjoint_of_boundary():
    # the transpose of the boundary equals the coboundary defined by extensions
    rng = random.Random(23)
    for _ in range(40):
        c = random_complex(rng)
        for q in range(0, c.dim + 1):
            assert c.compact_cochain_matrix(q).to_dense() == extension_coboundary(c, q)


def test_compact_cochain_top_degree_has_zero_rows():
    m = TRIANGLE.compact_cochain_matrix(1)
    assert (m.rows, m.cols) == (0, 3)
    assert m.is_zero()


def test_compact_cochain_squares_to_zero():
    rng = random.Random(29)
    for _ in range(30):
        c = random_complex(rng)
        for q in range(0, c.dim):
            composed = c.compact_cochain_matrix(q + 1) @ c.compact_cochain_matrix(q)
            assert composed.is_zero()


def test_cohomology_compact_equals_homology_on_finite_complexes():
    rng = random.Random(31)
    assert SimplicialComplex([(0,)]).cohomology_compact() == [1]
    assert TRIANGLE.cohomology_compact() == [1, 1]
    assert SOLID_TRIANGLE.cohomology_compact() == [1, 0, 0]
    for _ in range(30):
        c = random_complex(rng)
        assert c.cohomology_compact() == c.homology()


def test_euler_consistency():
    rng = random.Random(37)
    for _ in range(30):
        c = random_complex(rng)
        homological = sum((-1) ** q * d for q, d in enumerate(c.homology()))
        assert c.euler_characteristic() == homological


def test_relative_cohomology_of_pair_with_itself_vanishes():
    assert relative_cohomology(TRIANGLE, TRIANGLE) == [0, 0]


def test_relative_cohomology_path_mod_endpoints():
    path = SimplicialComplex.from_maximal([(0, 1), (1, 2)])
    endpoints = SimplicialComplex([(0,), (2,)], generate_closure=False)
    assert relative_cohomology(path, endpoints) == [0, 1]


def test_relative_cohomology_rejects_non_subcomplex():
    other = SimplicialComplex([(7,)])
    with pytest.raises(NotSubcomplex):
        relative_cohomology(TRIANGLE, other)


def test_union_complexes():
    a = SimplicialComplex([(0,), (1,), (0, 1)], generate_closure=False)
    b = SimplicialComplex([(1,), (2,), (1, 2)], generate_closure=False)
    u = union_complexes([a, b])
    assert (0, 1) in u and (1, 2) in u and u.f_vector() == (3, 2)


def test_union_complexes_equals_the_complex_on_all_the_simplices():
    rng = random.Random(73)
    for _ in range(40):
        parts = [random_complex(rng) for _ in range(rng.randint(0, 4))]
        u = union_complexes(parts)
        expected = SimplicialComplex([s for c in parts for s in c.all_simplices()], generate_closure=False)
        assert u == expected
        assert [u.simplices(q) for q in range(-1, u.dim + 2)] == [expected.simplices(q) for q in range(-1, u.dim + 2)]
        assert (u.vertices, u.dim, u.f_vector()) == (expected.vertices, expected.dim, expected.f_vector())
        assert u.validate()


def test_line_window_growth():
    dims = ball_sphere_growth(line_window, range(1, 5))
    assert all(d == [0, 1] for d in dims)


def test_point_window():
    dims = ball_sphere_growth(line_window, [0])
    assert dims == [[1]]


def test_three_regular_tree_window_growth():
    # frozen by Euler count on the finite pairs: edges minus interior
    # vertices with vanishing relative H^0 gives 3*2^(R-1) - 1
    build = regular_tree_window(3)
    dims = ball_sphere_growth(build, range(1, 5))
    assert [d[1] for d in dims] == [2, 5, 11, 23]
    for radius, d in zip(range(1, 5), dims):
        ball, frontier = build(radius)
        interior = len(ball.simplices(0)) - len(frontier.simplices(0))
        assert d == [0, len(ball.simplices(1)) - interior]


def test_load_complex_maps_string_ids():
    c, id_map = load_complex({"vertices": ["a", "b", "c"], "maximal_simplices": [["a", "b"]]})
    assert sorted(id_map) == ["a", "b", "c"]
    assert c.f_vector() == (3, 1)
    c.validate()


def test_load_complex_rejects_unknown_vertex():
    with pytest.raises(Exception):
        load_complex({"vertices": ["a"], "maximal_simplices": [["a", "b"]]})
