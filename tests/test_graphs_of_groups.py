import random
from collections import Counter
from fractions import Fraction

import pytest

from tdlcinv.errors import ValidationError
from tdlcinv.euler import HaarValue
from tdlcinv.groups import FiniteGroup, Hom
from tdlcinv.graphs_of_groups import (
    NotHomomorphism,
    NotInjective,
    PiRepresentation,
    PiWord,
    RelationViolated,
    aut_tree_chi,
    build_gog,
    cycle_index_ratio_products,
    load_gog,
    load_representation,
)
from tdlcinv.ratlin import RationalMatrix
from tdlcinv.serre_graphs import SerreGraph

from fuzzers import (
    S4,
    S4_SUBGROUPS,
    compose,
    perm_closure,
    perm_group,
    perm_rep_matrix,
    random_gog,
    random_s4_gog,
    regular_c12_gog,
    trivial_hom,
)
from oracles import (
    dense_kernel_basis,
    dense_tree_action_cohomology,
    trace_euler_characteristic,
    walked_cycle_index_ratio_products,
    word_labelled_bass_serre_ball,
)


def edge_of_groups(group_u, group_w, edge_group=None, embed_to=None, embed_from=None):
    """Single geometric edge u -- w."""
    edge_group = edge_group or FiniteGroup.trivial()
    return build_gog(
        ["u", "w"],
        [("e", "u", "w")],
        {"u": group_u, "w": group_w},
        {"e": edge_group},
        {
            ("e", "+"): embed_to or trivial_hom(group_w),
            ("e", "-"): embed_from or trivial_hom(group_u),
        },
    )


def loop_of_groups(vertex_group, edge_group=None, embed_to=None, embed_from=None):
    """Single loop at one vertex."""
    edge_group = edge_group or FiniteGroup.trivial()
    return build_gog(
        ["v"],
        [("e", "v", "v")],
        {"v": vertex_group},
        {"e": edge_group},
        {
            ("e", "+"): embed_to or trivial_hom(vertex_group),
            ("e", "-"): embed_from or trivial_hom(vertex_group),
        },
    )


def single_vertex(group):
    return build_gog(["v"], [], {"v": group}, {}, {})


def c2_star_c3():
    return edge_of_groups(FiniteGroup.cyclic(2), FiniteGroup.cyclic(3))


def c4_loop_over_c2():
    c4, c2 = FiniteGroup.cyclic(4), FiniteGroup.cyclic(2)
    embed = Hom.from_generator_images(c2, c4, [1], [2])  # the unique index-2 embedding
    return loop_of_groups(c4, c2, embed_to=embed, embed_from=embed)


def test_validate_reports_indices():
    indices = c2_star_c3().validate()
    assert indices[("e", "+")] == 3  # edge group trivial inside C3
    assert indices[("e", "-")] == 2


def test_validate_loop_c4_over_c2():
    indices = c4_loop_over_c2().validate()
    assert indices[("e", "+")] == indices[("e", "-")] == 2


def test_validate_rejects_non_homomorphism():
    c2, c4 = FiniteGroup.cyclic(2), FiniteGroup.cyclic(4)
    bad = Hom(c2, c4, [0, 1])  # generator of order 2 to element of order 4
    with pytest.raises(NotHomomorphism):
        loop_of_groups(c4, c2, embed_to=bad, embed_from=Hom.from_generator_images(c2, c4, [1], [2]))


def test_construction_rejects_non_injective_embedding():
    c2, c4 = FiniteGroup.cyclic(2), FiniteGroup.cyclic(4)
    with pytest.raises(NotInjective, match="edge \\('e', '\\+'\\)"):
        loop_of_groups(c4, c2, embed_to=Hom(c2, c4, [0, 0]), embed_from=Hom.from_generator_images(c2, c4, [1], [2]))


def test_construction_rejects_embedding_into_the_wrong_vertex_group():
    # the '-' embedding lands in C4, but the edge's '-' terminus carries C2
    c2, c4 = FiniteGroup.cyclic(2), FiniteGroup.cyclic(4)
    into_c4 = Hom.from_generator_images(c2, c4, [1], [2])
    with pytest.raises(ValidationError, match="embedding for \\('e', '-'\\) connects the wrong groups"):
        edge_of_groups(c2, c4, c2, embed_to=into_c4, embed_from=into_c4)


def test_construction_keeps_the_indices():
    gog = c4_loop_over_c2()
    assert gog.indices == gog.validate() == {("e", "+"): 2, ("e", "-"): 2}


def test_unimodularity_tree_always_true():
    assert c2_star_c3().unimodularity_check()
    assert single_vertex(FiniteGroup.cyclic(5)).unimodularity_check()


def test_unimodularity_loop_equal_indices():
    assert c4_loop_over_c2().unimodularity_check()


def test_cycle_ratio_products_detect_ascending_datum():
    # declared indices in the profinite style: one direction index 2, the
    # other index 1 around a loop; the cycle product is 2, not 1
    graph = SerreGraph.from_geometric(["v"], [("v", "v")])
    products = cycle_index_ratio_products(graph, {0: 2, 1: 1})
    assert products == [Fraction(2)]
    balanced = cycle_index_ratio_products(graph, {0: 2, 1: 2})
    assert balanced == [Fraction(1)]


@pytest.mark.parametrize("seed", range(40))
def test_cycle_ratio_products_match_the_walk_to_the_root(seed):
    # arbitrary positive indices, so most products are not 1; loops, multiple
    # edges and several components included
    rng = random.Random(seed)
    vertices = list(range(rng.randint(1, 12)))
    pairs = [(rng.choice(vertices), rng.choice(vertices)) for _ in range(rng.randint(0, 20))]
    graph = SerreGraph.from_geometric(vertices, pairs)
    edge_index = {e: rng.randint(1, 30) for e in graph.edges}
    products = cycle_index_ratio_products(graph, edge_index)
    expected = walked_cycle_index_ratio_products(graph, edge_index)
    assert products == expected
    assert all(type(p) is Fraction for p in products)


def test_euler_characteristic_values():
    assert c2_star_c3().euler_characteristic() == HaarValue(Fraction(-1, 6), "1")
    z_loop = loop_of_groups(FiniteGroup.trivial())
    assert z_loop.euler_characteristic() == HaarValue(0, "1")
    for n in (1, 2, 3, 7):
        gog = single_vertex(FiniteGroup.cyclic(n))
        assert gog.euler_characteristic() == HaarValue(Fraction(1, n), "1")


def test_bass_serre_ball_c2_star_c3():
    gog = c2_star_c3()
    ball = gog.bass_serre_ball(2)
    assert ball.graph_invariants()[2]  # a tree
    # base vertex sits at C2: degree 2, neighbors have degree 3
    assert ball.vertices[0] == 0
    assert ball.degree(0) == 2
    words, _ = word_labelled_bass_serre_ball(gog, 2)
    depth_one = [k for k, word in enumerate(words) if len(word) == 1]
    assert len(depth_one) == 2
    assert all(ball.degree(k) == 3 for k in depth_one)


def test_bass_serre_ball_z_is_a_path():
    for radius in (0, 1, 3):
        ball = loop_of_groups(FiniteGroup.trivial()).bass_serre_ball(radius)
        assert len(ball.vertices) == 2 * radius + 1
        assert ball.graph_invariants() == (0, 1, True)


def test_bass_serre_ball_single_vertex():
    ball = single_vertex(FiniteGroup.cyclic(3)).bass_serre_ball(4)
    assert len(ball.vertices) == 1


def test_bass_serre_degrees_match_indices():
    # loop C4 over C2: each tree vertex has degree 2 + 2 = 4
    gog = c4_loop_over_c2()
    ball = gog.bass_serre_ball(2)
    assert ball.graph_invariants()[2]
    words, _ = word_labelled_bass_serre_ball(gog, 2)
    inner = [k for k, word in enumerate(words) if len(word) < 2]
    assert len(inner) == 5
    assert all(ball.degree(k) == 4 for k in inner)


def test_fuzzed_instances_unimodular_and_trees():
    rng = random.Random(17)
    for _ in range(30):
        gog = random_gog(rng, allow_surjective=True)
        assert gog.unimodularity_check()
        ball = gog.bass_serre_ball(rng.randint(0, 2))
        assert ball.graph_invariants()[2]


def test_ball_is_the_word_labelled_ball_in_bfs_order():
    # vertex k of the ball is the k-th word the oracle reaches, and edge k
    # joins the images of the oracle's k-th pair
    rng = random.Random(31)
    for _ in range(30):
        gog = random_gog(rng, allow_surjective=True)
        for radius in range(4):
            ball = gog.bass_serre_ball(radius)
            words, pairs = word_labelled_bass_serre_ball(gog, radius)
            position = {word: k for k, word in enumerate(words)}
            assert ball.vertices == tuple(range(len(words)))
            assert ball.geometric_edge_count() == len(pairs)
            built = [(ball.origin[e], ball.terminus[e]) for e in ball.orientation()]
            assert built == [(position[u], position[v]) for u, v in pairs]


def test_fuzzed_noncompact_chi_nonpositive():
    # no embedding is surjective and there is at least one edge, so the
    # fundamental group is infinite and the characteristic cannot be positive
    rng = random.Random(23)
    done = 0
    while done < 40:
        gog = random_gog(rng, allow_surjective=False)
        if not gog.graph.edges:
            continue
        assert gog.euler_characteristic().coeff <= 0
        done += 1


def test_ball_degree_formula_on_fuzzed_instances():
    rng = random.Random(29)
    for _ in range(10):
        gog = random_gog(rng, allow_surjective=True)
        ball = gog.bass_serre_ball(2)
        words, _ = word_labelled_bass_serre_ball(gog, 2)
        for k, word in enumerate(words):
            if len(word) >= 2:
                continue  # frontier vertices are truncated
            at = gog.graph.terminus[word[-1][0]] if word else gog.base_vertex
            expected = sum(
                gog.vertex_groups[at].order // gog.edge_groups[e].order
                for e in gog.graph.star(at)
            )
            assert ball.degree(k) == expected


def test_aut_tree_chi_values():
    assert aut_tree_chi(2) == HaarValue(Fraction(-1, 3), "G_e")
    assert aut_tree_chi(1) == HaarValue(0, "G_e")
    for d in range(1, 21):
        assert aut_tree_chi(d).coeff == Fraction(1 - d, 1 + d)


def test_pi_word_orders_in_free_product():
    gog = c2_star_c3()
    a = PiWord.vertex_element(gog, "u", 1)  # order 2
    b = PiWord.vertex_element(gog, "w", 1)  # order 3
    assert (a * a).is_identity()
    assert not (b * b).is_identity()
    assert (b * b * b).is_identity()
    ab = a * b
    assert not (ab * ab).is_identity()  # infinite order in the free product


def test_pi_word_stable_letter_infinite_order():
    gog = loop_of_groups(FiniteGroup.trivial())
    t = PiWord.stable_letter(gog, ("e", "+"))
    power = t
    for _ in range(5):
        assert not power.is_identity()
        power = power * t
    assert (t * t.inverse()).is_identity()


def test_pi_word_hnn_relation():
    # loop C4 over C2 embedded by the same map on both sides: the stable
    # letter commutes with the image of C2
    gog = c4_loop_over_c2()
    t = PiWord.stable_letter(gog, ("e", "+"))
    image = PiWord.vertex_element(gog, "v", 2)
    left = t * image
    right = image * t
    assert left == right


def test_pi_word_random_products_cancel():
    rng = random.Random(31)
    gogs = [c2_star_c3(), c4_loop_over_c2(), loop_of_groups(FiniteGroup.trivial())]
    for _ in range(10_000):
        gog = rng.choice(gogs)
        letters = []
        for _ in range(rng.randint(1, 6)):
            if gog.stable_letters() and rng.random() < 0.4:
                letters.append(PiWord.stable_letter(gog, rng.choice(gog.stable_letters())))
            else:
                v = rng.choice(list(gog.graph.vertices))
                group = gog.vertex_groups[v]
                letters.append(PiWord.vertex_element(gog, v, rng.randrange(group.order)))
        word = PiWord.identity(gog)
        for letter in letters:
            word = word * letter
        back = PiWord.identity(gog)
        for letter in reversed(letters):
            back = back * letter.inverse()
        assert (word * back).is_identity()
        assert word.inverse() == back


def test_tree_action_cohomology_trivial_coefficients():
    gog = c2_star_c3()
    assert gog.tree_action_cohomology(PiRepresentation.trivial(gog)) == (1, 0)
    z_loop = loop_of_groups(FiniteGroup.trivial())
    assert z_loop.tree_action_cohomology(PiRepresentation.trivial(z_loop)) == (1, 1)


def test_tree_action_cohomology_trivial_matches_cycle_rank():
    rng = random.Random(37)
    for _ in range(20):
        gog = random_gog(rng, allow_surjective=True)
        h0, h1 = gog.tree_action_cohomology(PiRepresentation.trivial(gog))
        assert h0 == 1
        assert h1 == gog.graph.graph_invariants()[0]


def test_tree_action_cohomology_sign_representation():
    # C2 * C2 with both generators acting by -1: no invariants, one-dim H^1
    c2 = FiniteGroup.cyclic(2)
    gog = edge_of_groups(c2, c2)
    sign = PiRepresentation(
        1,
        {"u": [[[1]], [[-1]]], "w": [[[1]], [[-1]]]},
        {},
    )
    assert gog.tree_action_cohomology(sign) == (0, 1)


def test_representation_validation_catches_singular_stable_letter():
    from tdlcinv.graphs_of_groups import NotInvertible

    gog = c4_loop_over_c2()
    bad = PiRepresentation(
        1,
        {"v": [[[1]], [[-1]], [[1]], [[-1]]]},
        {("e", "+"): [[0]]},  # singular stable letter
    )
    with pytest.raises(NotInvertible):
        gog.tree_action_cohomology(bad)


def test_representation_validation_catches_relation_violation():
    from tdlcinv.graphs_of_groups import RelationViolated

    c2 = FiniteGroup.cyclic(2)
    ident = Hom.identity_map(c2)
    gog = edge_of_groups(c2, c2, edge_group=c2, embed_to=ident, embed_from=ident)
    # both embeddings are the identity but the two vertex actions disagree
    bad = PiRepresentation(1, {"u": [[[1]], [[-1]]], "w": [[[1]], [[1]]]}, {})
    with pytest.raises(RelationViolated):
        gog.tree_action_cohomology(bad)


def test_tree_action_cohomology_two_dimensional():
    # u swaps coordinates, w negates: invariants are the diagonal line on
    # the u side and zero on the w side; the trivial edge space is Q^2, so
    # the difference map has rank one and the frozen answer is (0, 1)
    c2 = FiniteGroup.cyclic(2)
    gog = edge_of_groups(c2, c2)
    rep = PiRepresentation(
        2,
        {
            "u": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
            "w": [[[1, 0], [0, 1]], [[-1, 0], [0, -1]]],
        },
        {},
    )
    assert gog.tree_action_cohomology(rep) == (0, 1)


def test_tree_action_cohomology_matches_dense_oracle_and_trace():
    # graphs of subgroups of S4 (S3, D4, C2xC2, V4, A4, cyclic) with loops,
    # under the permutation representation, its sign twist or the sign
    # character; the oracle stacks every non-identity element, and the
    # trace formula gives h0 - h1 with no rank at all
    rng = random.Random(41)
    seen = Counter()
    for _ in range(40):
        gog, rep = random_s4_gog(rng)
        h0, h1 = gog.tree_action_cohomology(rep)
        assert (h0, h1) == dense_tree_action_cohomology(gog, rep)
        assert h0 - h1 == trace_euler_characteristic(gog, rep)
        seen["two generators"] += any(len(g.generators()) >= 2 for g in gog.vertex_groups.values())
        seen["two edge generators"] += any(len(g.generators()) >= 2 for g in gog.edge_groups.values())
        seen["nontrivial stable letter"] += any(
            rep.stable_matrix(e) != RationalMatrix.identity(rep.dim) for e in gog.stable_letters()
        )
        seen[f"dim {rep.dim}"] += 1
        seen["h1 > 0"] += h1 > 0
    assert min(seen.values()) >= 3, seen


@pytest.mark.parametrize("name", ["S3", "C2xC2", "D4"])
def test_vertex_table_corrupted_at_any_element_is_rejected(name):
    # the subgroup of S4 at a single vertex, under the permutation
    # representation; doubling any one non-identity matrix breaks it
    group, elements = perm_group(perm_closure(S4_SUBGROUPS[name]), random.Random(name))
    gog = single_vertex(group)
    mats = [perm_rep_matrix(p, False) for p in elements]
    assert len(group.generators()) >= 2
    PiRepresentation(4, {"v": mats}, {}).validate(gog)
    for g in group.elements:
        if g == group.identity:
            continue
        bad = list(mats)
        bad[g] = [[2 * x for x in row] for row in mats[g]]
        with pytest.raises(RelationViolated):
            PiRepresentation(4, {"v": bad}, {}).validate(gog)


def test_vertex_table_multiplicative_along_one_generator_only_is_rejected():
    # on C2 x C2 = {1, t, u, tu}, the table 1, A, B, BA with involutions A
    # and B that do not commute passes every check rho(a t) = rho(a) rho(t),
    # but rho(t u) = rho(t) rho(u) = AB fails; each ordered pair (t, u)
    # puts the flaw on another generator
    c2c2 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    gog = single_vertex(c2c2)
    swap, flip = [[0, 1], [1, 0]], [[1, 0], [0, -1]]
    product = (RationalMatrix.from_rows(flip) @ RationalMatrix.from_rows(swap)).to_dense()
    involutions = [x for x in c2c2.elements if x != c2c2.identity]
    for t in involutions:
        for u in involutions:
            if u == t:
                continue
            table = [None] * 4
            table[c2c2.identity], table[t], table[u], table[c2c2.op(t, u)] = [[1, 0], [0, 1]], swap, flip, product
            with pytest.raises(RelationViolated):
                PiRepresentation(2, {"v": table}, {}).validate(gog)


def test_stable_letter_relation_holds_exactly_on_the_centralizer():
    # a loop at A4 over its normal V4, embedded by inclusion at both ends:
    # the stable letter P(z) satisfies the relation exactly when z
    # centralizes V4 in S4, and some z commute with one generator of V4
    # but not the other
    rng = random.Random(43)
    vertex, elements = perm_group(perm_closure(S4_SUBGROUPS["A4"]), rng)
    v4, members = perm_group(perm_closure(S4_SUBGROUPS["V4"]), rng)
    assert len(v4.generators()) == 2
    embed = Hom(v4, vertex, [elements.index(p) for p in members])
    gog = loop_of_groups(vertex, v4, embed_to=embed, embed_from=embed)
    (e,) = gog.stable_letters()
    mats = [perm_rep_matrix(p, False) for p in elements]
    commuting = 0
    for z in S4:
        rep = PiRepresentation(4, {"v": mats}, {e: perm_rep_matrix(z, False)})
        if all(compose(z, a) == compose(a, z) for a in members):
            commuting += 1
            assert rep.validate(gog)
        else:
            with pytest.raises(RelationViolated):
                rep.validate(gog)
    assert commuting == 4  # V4 is its own centralizer in S4


def test_validate_and_fixed_spaces_work_on_generators_only(monkeypatch):
    # the group-tables benchmark's family: 30 cyclic vertex groups under
    # the pulled-back regular representation of C12
    gog, rep, expected = regular_c12_gog(random.Random(47))
    matmuls = []
    stacked = []
    matmul, kernel_basis = RationalMatrix.__matmul__, RationalMatrix.kernel_basis

    def counting_matmul(self, other):
        matmuls.append((self.rows, other.cols))
        return matmul(self, other)

    def recording_kernel_basis(self):
        stacked.append(self.rows)
        return kernel_basis(self)

    monkeypatch.setattr(RationalMatrix, "__matmul__", counting_matmul)
    rep.validate(gog)
    vertex_products = sum(g.order * len(g.generators()) for g in gog.vertex_groups.values())
    edge_products = sum(2 * len(gog.edge_groups[e].generators()) for e in gog.stable_letters())
    assert len(matmuls) <= vertex_products + edge_products
    monkeypatch.setattr(RationalMatrix, "kernel_basis", recording_kernel_basis)
    assert gog.tree_action_cohomology(rep) == expected
    blocks = [len(g.generators()) for g in gog.vertex_groups.values()]
    blocks += [len(gog.edge_groups[e].generators()) for e in gog.orientation()]
    assert sorted(stacked) == sorted(12 * k for k in blocks if k)


def _edges_with_a_fixed_space(gog, rep):
    """The oriented edges whose group, inside the origin vertex group,
    fixes a nonzero vector, by the dense kernel over every element."""
    dim = rep.dim
    found = []
    for e in gog.orientation():
        incoming = gog.embeddings[gog.graph.bar[e]]
        mats = [rep.vertex_matrix(gog.graph.origin[e], incoming(a)).to_dense() for a in gog.edge_groups[e].elements]
        rows = [[m[i][j] - (i == j) for j in range(dim)] for m in mats for i in range(dim)]
        if dense_kernel_basis(rows, dim):
            found.append(e)
    return found


def test_tree_action_takes_one_solve_per_edge_with_a_fixed_space(monkeypatch):
    # one elimination per oriented edge, its right-hand side the matrix of
    # both end bases; an edge with no fixed vector takes none
    solve = RationalMatrix.solve
    calls = []

    def counting_solve(self, rhs):
        assert isinstance(rhs, RationalMatrix)
        calls.append(self.cols)
        return solve(self, rhs)

    def count(gog, rep):
        calls.clear()
        monkeypatch.setattr(RationalMatrix, "solve", counting_solve)
        result = gog.tree_action_cohomology(rep)
        monkeypatch.setattr(RationalMatrix, "solve", solve)
        with_fixed = _edges_with_a_fixed_space(gog, rep)
        assert len(calls) == len(with_fixed) and all(calls)
        return result, len(list(gog.orientation())) - len(with_fixed)

    # the benchmark's size, against its dimension count (the dense oracle
    # takes seconds there), then a smaller one against the dense oracle
    gog, rep, expected = regular_c12_gog(random.Random(47))
    assert count(gog, rep) == (expected, 0)
    gog, rep, _ = regular_c12_gog(random.Random(53), num_vertices=10, extra_edges=10)
    assert count(gog, rep) == (dense_tree_action_cohomology(gog, rep), 0)
    # the sign characters of subgroups of S4 leave some edges with no fixed vector
    rng = random.Random(67)
    skipped = 0
    for _ in range(30):
        gog, rep = random_s4_gog(rng)
        result, unfixed = count(gog, rep)
        assert result == dense_tree_action_cohomology(gog, rep)
        skipped += unfixed
    assert skipped > 0


def test_mixed_int_and_string_rows_parse_to_the_same_matrix():
    # an int entry is kept as it is and a string entry becomes a Fraction,
    # within one row; a bool entry is refused
    gog = single_vertex(FiniteGroup.cyclic(2))
    involution = [[1, "1/2"], [0, -1]]
    rep = load_representation({"dim": 2, "vertex_actions": {"v": [[[1, 0], [0, 1]], involution]}}, gog)
    assert rep.vertex_matrix("v", 1) == RationalMatrix.from_rows([[1, Fraction(1, 2)], [0, -1]])
    assert rep.vertex_matrix("v", 1).entries()[(0, 1)] == Fraction(1, 2)
    assert gog.tree_action_cohomology(rep) == dense_tree_action_cohomology(gog, rep) == (1, 0)
    for row in ([True, 0], [1, False]):
        with pytest.raises(ValidationError, match="is not a rational number"):
            load_representation({"dim": 2, "vertex_actions": {"v": [[[1, 0], [0, 1]], [row, [0, 1]]]}}, gog)


def test_disconnected_graph_rejected():
    from tdlcinv.graphs_of_groups import Disconnected

    c2 = FiniteGroup.cyclic(2)
    with pytest.raises(Disconnected):
        build_gog(["u", "w"], [], {"u": c2, "w": c2}, {}, {})


def test_build_gog_refuses_a_repeated_edge_id():
    c2 = FiniteGroup.cyclic(2)
    identity = Hom.identity_map(c2)
    with pytest.raises(ValidationError, match="edge id 'e' appears twice"):
        build_gog(
            ["v"],
            [("e", "v", "v"), ("e", "v", "v")],
            {"v": c2},
            {"e": c2},
            {("e", "+"): identity, ("e", "-"): identity},
        )


def test_load_gog_json():
    gog = load_gog(
        {
            "vertices": ["u", "w"],
            "vertex_groups": {"u": "C2", "w": "C3"},
            "edges": [{"id": "e", "from": "u", "to": "w", "group": "1"}],
        }
    )
    assert gog.euler_characteristic().coeff == Fraction(-1, 6)


def test_load_gog_with_explicit_embedding():
    gog = load_gog(
        {
            "vertices": ["v"],
            "vertex_groups": {"v": "C4"},
            "edges": [
                {
                    "id": "e",
                    "from": "v",
                    "to": "v",
                    "group": "C2",
                    "embed_to": {"gens": [1], "images": [2]},
                    "embed_from": {"gens": [1], "images": [2]},
                }
            ],
        }
    )
    assert gog.unimodularity_check()
    assert gog.euler_characteristic().coeff == Fraction(1, 4) - Fraction(1, 2)
