"""Acceptance suite.

Each test implements one numbered acceptance criterion end to end, asserts
the exact expected values (no tolerances anywhere: all arithmetic is over
the rationals), checks the stated runtime budget, and prints one PASS/FAIL
line.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from tdlcinv.coxeter import affine_preset, bott_check, finite_preset
from tdlcinv.davis import duality_verdict
from tdlcinv.euler import HaarValue, chevalley_chi, chi_via_parahoric_sum
from tdlcinv.groups import FiniteGroup
from tdlcinv.graphs_of_groups import PiRepresentation, aut_tree_chi, build_gog
from tdlcinv.serre_graphs import (
    FiniteGroupOracle,
    SerreGraph,
    connectivity_equals_generation,
    rough_cayley_ball,
)
from tdlcinv.simplicial import (
    SimplicialComplex,
    ball_sphere_growth,
    regular_tree_window,
)
from tdlcinv.diagrams import INFINITY, CoxeterSystem

from fuzzers import random_complex, random_finite_group, random_gog, trivial_hom
from oracles import extension_coboundary, is_tree_dfs


@contextmanager
def criterion(number, description, budget_seconds=None):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:2d} FAIL  {description}")
        raise
    elapsed = time.monotonic() - start
    if budget_seconds is not None and elapsed > budget_seconds:
        print(f"ACCEPTANCE {number:2d} FAIL  {description} (took {elapsed:.2f}s > {budget_seconds}s)")
        raise AssertionError(f"runtime budget exceeded: {elapsed:.2f}s > {budget_seconds}s")
    print(f"ACCEPTANCE {number:2d} PASS  {description} ({elapsed:.2f}s)")


def edge_of_groups(group_u, group_w):
    return build_gog(
        ["u", "w"],
        [("e", "u", "w")],
        {"u": group_u, "w": group_w},
        {"e": FiniteGroup.trivial()},
        {("e", "+"): trivial_hom(group_w), ("e", "-"): trivial_hom(group_u)},
    )


def test_criterion_01_graph_of_groups_euler_characteristics():
    with criterion(1, "graph-of-groups Euler characteristics", budget_seconds=1.0):
        c2_c3 = edge_of_groups(FiniteGroup.cyclic(2), FiniteGroup.cyclic(3))
        assert c2_c3.euler_characteristic() == HaarValue(Fraction(-1, 6), "1")
        trivial = FiniteGroup.trivial()
        z_loop = build_gog(
            ["v"],
            [("e", "v", "v")],
            {"v": trivial},
            {"e": trivial},
            {("e", "+"): trivial_hom(trivial), ("e", "-"): trivial_hom(trivial)},
        )
        assert z_loop.euler_characteristic() == HaarValue(0, "1")
        for n in range(1, 9):
            single = build_gog(["v"], [], {"v": FiniteGroup.cyclic(n)}, {}, {})
            assert single.euler_characteristic() == HaarValue(Fraction(1, n), "1")


def test_criterion_02_regular_tree_automorphism_chi():
    with criterion(2, "regular-tree automorphism group characteristic"):
        assert aut_tree_chi(2) == HaarValue(Fraction(-1, 3), "G_e")
        for d in range(1, 21):
            assert aut_tree_chi(d).coeff == Fraction(1 - d, 1 + d)


def test_criterion_03_chevalley_closed_form():
    with criterion(3, "closed-form chi for A1 family and A2 at q=2"):
        for q in (2, 3, 4, 5):
            assert chevalley_chi(finite_preset("A1"), q).coeff == Fraction(1 - q, 1 + q)
        a2 = chevalley_chi(finite_preset("A2"), 2)
        assert a2.coeff == Fraction(-1, 7)
        confirmed = chi_via_parahoric_sum(affine_preset("affine A2"), 2)
        assert confirmed == a2
        for name in ("A1", "A2", "B2", "G2"):
            for q in (2, 3, 4, 5):
                assert chevalley_chi(finite_preset(name), q).is_negative()


def test_criterion_04_parahoric_identity_chain():
    with criterion(4, "parahoric sum equals closed form (4 types, q=2..4)", budget_seconds=5.0):
        for name in ("affine A1", "affine A2", "affine C2", "affine G2"):
            pair = affine_preset(name)
            for q in (2, 3, 4):
                assert chi_via_parahoric_sum(pair, q) == chevalley_chi(pair.finite, q)


def test_criterion_05_bott_series_identity():
    with criterion(5, "affine series identity to degree 12 and 10", budget_seconds=30.0):
        rank_one = affine_preset("affine A1")
        assert bott_check(rank_one.finite, rank_one.affine, 12)
        rank_two = affine_preset("affine A2")
        assert bott_check(rank_two.finite, rank_two.affine, 10)


def test_criterion_06_tree_bridge():
    with criterion(6, "rank-one closed form matches the tree formula"):
        for q in (2, 3, 4, 5):
            assert chevalley_chi(finite_preset("A1"), q).coeff == aut_tree_chi(q).coeff


def test_criterion_07_davis_duality_verdicts():
    inf = INFINITY
    finite_types = [
        CoxeterSystem([[1, 3], [3, 1]]),
        CoxeterSystem([[1, 4, 2], [4, 1, 3], [2, 3, 1]]),
    ]
    rank_one_affine = CoxeterSystem([[1, inf], [inf, 1]])
    rank_two_affine = CoxeterSystem([[1, 3, 3], [3, 1, 3], [3, 3, 1]])
    free_product = CoxeterSystem(
        [
            [1, inf, 3, 3],
            [inf, 1, inf, inf],
            [3, inf, 1, 3],
            [3, inf, 3, 1],
        ]
    )
    cases = [
        (finite_types[0], 0, True, "finite A2"),
        (finite_types[1], 0, True, "finite B3"),
        (rank_one_affine, 1, True, "rank-one affine"),
        (rank_two_affine, 2, True, "rank-two affine"),
        (free_product, 2, False, "free product with a line factor"),
    ]
    for system, cd, duality, label in cases:
        with criterion(7, f"duality verdict: {label}", budget_seconds=10.0):
            verdict = duality_verdict(system)
            assert verdict.cd == cd
            assert verdict.is_duality == duality


def test_criterion_08_chain_and_cochain_suite():
    with criterion(8, "boundary/coboundary suite on 200 random complexes"):
        rng = random.Random(2024)
        for _ in range(200):
            c = random_complex(rng, max_vertices=8)
            for q in range(1, c.dim):
                assert (c.boundary_matrix(q) @ c.boundary_matrix(q + 1)).is_zero()
            for q in range(0, c.dim):
                assert (
                    c.compact_cochain_matrix(q + 1) @ c.compact_cochain_matrix(q)
                ).is_zero()
                # adjointness in every degree, the doubled degree-0 basis included:
                # the boundary transpose equals the coboundary built by extensions
                assert c.compact_cochain_matrix(q).to_dense() == extension_coboundary(c, q)
        for n in range(1, 7):
            full = SimplicialComplex.full_complex(range(n))
            assert full.homology() == [1] + [0] * (n - 1)
        rng = random.Random(2025)
        for _ in range(40):
            c = random_complex(rng, max_vertices=7)
            assert c.cohomology_compact() == c.homology()


def test_criterion_09_tree_criterion_against_oracle():
    with criterion(9, "tree detection on 500 random graphs"):
        rng = random.Random(4242)
        for _ in range(500):
            n = rng.randint(1, 8)
            vertices = list(range(n))
            pairs = [
                (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 10))
            ]
            graph = SerreGraph.from_geometric(vertices, pairs)
            h1, components, is_tree = graph.graph_invariants()
            assert is_tree == is_tree_dfs(vertices, pairs)
            assert h1 == len(pairs) - n + components


def test_criterion_10_rough_cayley_generation():
    with criterion(10, "coset-graph connectivity equals generation (50 instances)"):
        rng = random.Random(777)
        done = 0
        while done < 50:
            group = random_finite_group(rng)
            if group.order > 120:
                continue
            subgroup_gens = [rng.randrange(group.order) for _ in range(rng.randint(0, 2))]
            oracle = FiniteGroupOracle(group, subgroup_gens)
            candidates = [g for g in group.elements if not oracle.in_O(g)]
            picked = set()
            for _ in range(rng.randint(0, 3)):
                if not candidates:
                    break
                s = rng.choice(candidates)
                picked.add(s)
                picked.add(group.inverse(s))
            generators = sorted(picked)
            assert connectivity_equals_generation(oracle, generators)
            if generators:
                ball = rough_cayley_ball(oracle, generators, 2)
                bound = oracle.double_coset_degree_bound(generators)
                assert all(ball.degree(v) <= bound for v in ball.vertices)
            done += 1


def test_criterion_11_tree_action_cohomology():
    with criterion(11, "tree-action cohomology: trivial and sign coefficients"):
        rng = random.Random(999)
        for _ in range(20):
            gog = random_gog(rng, allow_surjective=True)
            h0, h1 = gog.tree_action_cohomology(PiRepresentation.trivial(gog))
            assert h0 == 1
            assert h1 == gog.graph.graph_invariants()[0]
        c2 = FiniteGroup.cyclic(2)
        gog = edge_of_groups(c2, c2)
        sign = PiRepresentation(1, {"u": [[[1]], [[-1]]], "w": [[[1]], [[-1]]]}, {})
        assert gog.tree_action_cohomology(sign) == (0, 1)


def test_criterion_12_nonpositive_chi():
    with criterion(12, "chi <= 0 on 100 non-compact unimodular instances"):
        rng = random.Random(555)
        done = 0
        while done < 100:
            gog = random_gog(rng, allow_surjective=False)
            if not gog.graph.edges:
                continue
            assert gog.unimodularity_check()
            assert gog.euler_characteristic().coeff <= 0
            done += 1


def test_criterion_13_tree_window_growth():
    with criterion(13, "compact-support growth probe on the 3-regular tree"):
        dims = ball_sphere_growth(regular_tree_window(3), range(1, 7))
        top = [d[1] for d in dims]
        assert top == [3 * 2 ** (r - 1) - 1 for r in range(1, 7)]
        assert all(a < b for a, b in zip(top, top[1:]))
