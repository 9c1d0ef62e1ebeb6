import random

import pytest

from tdlcinv.groups import FiniteGroup
from tdlcinv.serre_graphs import (
    BadGraph,
    FiniteGroupOracle,
    GeneratorInO,
    IntegerLineOracle,
    NotSymmetric,
    SerreGraph,
    connectivity_equals_generation,
    load_graph,
    rough_cayley_ball,
)

from oracles import components_count, is_tree_dfs, two_pass_rough_cayley_ball


def test_constructor_validates_inversion():
    with pytest.raises(BadGraph):
        SerreGraph(["a"], {0: "a"}, {0: "a"}, {0: 0})  # bar fixes an edge
    with pytest.raises(BadGraph):
        SerreGraph(["a", "b"], {0: "a", 1: "a"}, {0: "b", 1: "b"}, {0: 1, 1: 0})


def test_edge_boundary_single_edge():
    g = SerreGraph.from_geometric(["a", "b"], [("a", "b")])
    assert g.edge_boundary().to_dense() == [[-1], [1]]


def test_edge_boundary_loop_is_zero_column():
    g = SerreGraph.from_geometric(["a"], [("a", "a")])
    assert g.edge_boundary().is_zero()
    assert g.graph_invariants() == (1, 1, False)


def test_edge_boundary_triangle_rank():
    g = SerreGraph.from_geometric([0, 1, 2], [(0, 1), (1, 2), (0, 2)])
    assert g.edge_boundary().rank() == 2
    assert g.graph_invariants() == (1, 1, False)


def test_path_is_tree():
    g = SerreGraph.from_geometric([0, 1, 2], [(0, 1), (1, 2)])
    assert g.graph_invariants() == (0, 1, True)


def test_two_disjoint_edges():
    g = SerreGraph.from_geometric([0, 1, 2, 3], [(0, 1), (2, 3)])
    assert g.graph_invariants() == (0, 2, False)


def test_signed_set_and_orientation():
    g = SerreGraph.from_geometric([0, 1], [(0, 1), (1, 0)])
    assert not g.combinatorial  # parallel directed pairs coincide as endpoint pairs
    assert g.orientation() == (0, 2)
    assert len(g.edge_signed_set()) == 4


def test_is_tree_matches_dfs_oracle_on_random_graphs():
    rng = random.Random(99)
    for _ in range(500):
        n = rng.randint(1, 8)
        vertices = list(range(n))
        pairs = [
            (rng.randrange(n), rng.randrange(n))
            for _ in range(rng.randint(0, 10))
        ]
        g = SerreGraph.from_geometric(vertices, pairs)
        h1, components, is_tree = g.graph_invariants()
        assert is_tree == is_tree_dfs(vertices, pairs)
        assert components == components_count(vertices, pairs)
        # rank-nullity on the edge space
        assert g.edge_boundary().rank() + h1 == len(pairs)
        # circuit rank formula
        assert h1 == len(pairs) - n + components


def test_json_round_trip_and_dot():
    g = SerreGraph.from_geometric(["a", "b"], [("a", "b")])
    again = load_graph(g.to_json())
    assert again.vertices == g.vertices
    assert again.graph_invariants() == g.graph_invariants()
    assert '"a" -- "b"' in g.to_dot()


def s3_oracle(subgroup_gens):
    return FiniteGroupOracle(FiniteGroup.symmetric(3), subgroup_gens)


def s3_elements_by_order(order):
    s3 = FiniteGroup.symmetric(3)
    return [a for a in s3.elements if s3.element_order(a) == order]


def test_rough_cayley_s3_mod_transposition():
    # S3 with O generated by a transposition and S the two 3-cycles:
    # hand coset enumeration gives three cosets forming a connected graph.
    transposition = s3_elements_by_order(2)[0]
    oracle = s3_oracle([transposition])
    three_cycles = s3_elements_by_order(3)
    ball = rough_cayley_ball(oracle, three_cycles, 2)
    assert len(ball.vertices) == 3
    _, components, _ = ball.graph_invariants()
    assert components == 1
    assert ball.combinatorial


def test_rough_cayley_empty_generators():
    oracle = s3_oracle([s3_elements_by_order(2)[0]])
    ball = rough_cayley_ball(oracle, [], 3)
    assert len(ball.vertices) == 1
    assert ball.geometric_edge_count() == 0


def test_rough_cayley_integer_line():
    for radius in range(4):
        ball = rough_cayley_ball(IntegerLineOracle(), [1, -1], radius)
        assert len(ball.vertices) == 2 * radius + 1
        assert ball.graph_invariants() == (0, 1, True)


def _relabelled_group(group, rng):
    sigma = list(range(group.order))
    rng.shuffle(sigma)
    table = [[0] * group.order for _ in range(group.order)]
    for a, row in enumerate(group.mult):
        for b, ab in enumerate(row):
            table[sigma[a]][sigma[b]] = sigma[ab]
    return FiniteGroup.from_table(table)


def _assert_one_pass_matches_two_pass(oracle, gens, radius):
    ball = rough_cayley_ball(oracle, gens, radius)
    vertices, pairs = two_pass_rough_cayley_ball(oracle, gens, radius)
    assert ball.vertices == tuple(vertices)
    assert {e: (ball.origin[e], ball.terminus[e]) for e in ball.edges} == {
        e: pair if e % 2 == 0 else pair[::-1] for k, pair in enumerate(pairs) for e in (2 * k, 2 * k + 1)
    }


ORACLE_GROUPS = {
    "S4": lambda rng: FiniteGroup.symmetric(4),
    "A5": lambda rng: FiniteGroup.alternating(5),
    "dihedral": lambda rng: FiniteGroup.dihedral(rng.randint(3, 12)),
    "relabelled-S4": lambda rng: _relabelled_group(FiniteGroup.symmetric(4), rng),
    "relabelled-A5": lambda rng: _relabelled_group(FiniteGroup.alternating(5), rng),
    "relabelled-D9": lambda rng: _relabelled_group(FiniteGroup.dihedral(9), rng),
}


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_rough_cayley_one_pass_matches_the_two_pass_oracle(name):
    rng = random.Random(name)
    group = ORACLE_GROUPS[name](rng)
    for _ in range(3):
        oracle = FiniteGroupOracle(group, rng.sample(group.elements, rng.randint(0, 2)))
        outside = [g for g in group.elements if not oracle.in_O(g)]
        picked = rng.sample(outside, min(len(outside), rng.randint(1, 3)))
        gens = sorted(set(picked) | {oracle.inverse(s) for s in picked})
        for radius in (0, 1, 2, 3, 4, group.order):
            _assert_one_pass_matches_two_pass(oracle, gens, radius)


def test_rough_cayley_one_pass_matches_the_two_pass_oracle_on_the_integer_line():
    for gens in ([1, -1], [1, -1, 2, -2]):
        for radius in range(5):
            _assert_one_pass_matches_two_pass(IntegerLineOracle(), gens, radius)


def test_rough_cayley_rejects_bad_generators():
    oracle = s3_oracle([s3_elements_by_order(2)[0]])
    with pytest.raises(GeneratorInO):
        rough_cayley_ball(oracle, [s3_elements_by_order(2)[0]], 1)
    three_cycle = s3_elements_by_order(3)[0]
    with pytest.raises(NotSymmetric):
        rough_cayley_ball(oracle, [three_cycle], 1)


def test_connectivity_equals_generation_examples():
    transposition = s3_elements_by_order(2)[0]
    three_cycles = s3_elements_by_order(3)
    # generating case: both sides true
    assert connectivity_equals_generation(s3_oracle([transposition]), three_cycles)
    # non-generating case: both sides false (subgroup of order 3, no generators)
    assert connectivity_equals_generation(s3_oracle([three_cycles[0]]), [])


def test_degree_bound_by_double_cosets():
    transposition = s3_elements_by_order(2)[0]
    oracle = s3_oracle([transposition])
    gens = s3_elements_by_order(3)
    ball = rough_cayley_ball(oracle, gens, 3)
    bound = oracle.double_coset_degree_bound(gens)
    assert all(ball.degree(v) <= bound for v in ball.vertices)
