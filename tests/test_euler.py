import json
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest

from oracles import brute_force_spherical_subsets, chain_sum_chi
from tdlcinv.coxeter import affine_preset, finite_preset
from tdlcinv.diagrams import CoxeterSystem, load_coxeter
from tdlcinv.euler import (
    IWAHORI_BASE,
    HaarValue,
    ResolutionDescription,
    UnknownIndex,
    chevalley_chi,
    chi_from_resolution,
    chi_via_parahoric_sum,
    hs_rank_permutation,
)


def test_hs_rank_is_unit_measure():
    assert hs_rank_permutation("O") == HaarValue(1, "O")


def test_rebase_by_index():
    value = hs_rank_permutation("U")
    rebased = value.rebase("O", 6)  # U inside O with index 6
    assert rebased == HaarValue(6, "O")
    assert rebased.rebase("U", Fraction(1, 6)) == value  # round trip


def test_haar_arithmetic_respects_bases():
    a = HaarValue(Fraction(1, 2), "O")
    b = HaarValue(Fraction(1, 3), "O")
    assert (a + b).coeff == Fraction(5, 6)
    assert (a - b).coeff == Fraction(1, 6)
    assert (-a).coeff == Fraction(-1, 2)
    assert (2 * a).coeff == 1
    with pytest.raises(ValueError):
        a + HaarValue(1, "U")


def test_chi_from_resolution_compact_case():
    description = ResolutionDescription.build("O", [[("O", 1)]])
    assert chi_from_resolution(description) == HaarValue(1, "O")


def test_chi_from_resolution_cancelling_pair():
    description = ResolutionDescription.build("O", [[("P", 4)], [("P", 4)]])
    assert chi_from_resolution(description).coeff == 0


def test_chi_from_resolution_unknown_index():
    description = ResolutionDescription.build("O", [[("P", None)]])
    with pytest.raises(UnknownIndex):
        chi_from_resolution(description)


def test_chi_from_resolution_insert_cancelling_pair_invariance():
    base = ResolutionDescription.build("O", [[("A", 2)], [("B", 3)]])
    padded = ResolutionDescription.build("O", [[("A", 2)], [("B", 3), ("P", 7)], [("P", 7)]])
    assert chi_from_resolution(base) == chi_from_resolution(padded)


def test_chevalley_chi_rank_one_values():
    for q in (2, 3, 4, 5):
        value = chevalley_chi(finite_preset("A1"), q)
        assert value == HaarValue(Fraction(1 - q, 1 + q), IWAHORI_BASE)


def test_chevalley_chi_a2_frozen_value():
    # exponents 1, 2 and p(2) = 21 give -(1 * 3) / 21 = -1/7
    assert chevalley_chi(finite_preset("A2"), 2).coeff == Fraction(-1, 7)


def test_chevalley_chi_b2_frozen_value():
    # exponents 1, 3 and p(3) = 160 give -(2 * 26) / 160 = -13/40
    assert chevalley_chi(finite_preset("B2"), 3).coeff == Fraction(-13, 40)


def test_chevalley_chi_always_negative():
    for name in ("A1", "A2", "A3", "B2", "B3", "G2", "D4"):
        for q in (2, 3, 4, 5):
            assert chevalley_chi(finite_preset(name), q).is_negative()


def test_chevalley_rejects_bad_q():
    with pytest.raises(Exception):
        chevalley_chi(finite_preset("A1"), 1)


def test_parahoric_sum_equals_chevalley():
    for name in ("affine A1", "affine A2", "affine C2", "affine G2"):
        pair = affine_preset(name)
        for q in (2, 3, 4):
            assert chi_via_parahoric_sum(pair, q) == chevalley_chi(pair.finite, q)


def test_parahoric_sum_frozen_rank_one_value():
    # subsets {}, {0}, {1}: -1 + 1/3 + 1/3 = -1/3 at q = 2
    assert chi_via_parahoric_sum(affine_preset("affine A1"), 2).coeff == Fraction(-1, 3)


def test_parahoric_sum_rejects_degenerate_diagram():
    with pytest.raises(Exception):
        chi_via_parahoric_sum(finite_preset("A1"), 2)


def test_resolution_route_matches_graph_of_groups_chi():
    # a graph of groups resolves the trivial module by vertex-coset modules
    # in degree 0 and oriented-edge-coset modules in degree 1, all indexed
    # over the trivial subgroup; the alternating sum must reproduce the
    # direct characteristic
    import random

    from fuzzers import random_gog

    rng = random.Random(61)
    for _ in range(10):
        gog = random_gog(rng, allow_surjective=True)
        degree0 = [
            (f"A[{v}]", gog.vertex_groups[v].order) for v in gog.graph.vertices
        ]
        degree1 = [
            (f"A[{e}]", gog.edge_groups[e].order) for e in gog.orientation()
        ]
        description = ResolutionDescription.build("1", [degree0, degree1])
        assert chi_from_resolution(description) == gog.euler_characteristic()


def test_render():
    assert str(HaarValue(Fraction(-1, 6), "1")) == "-1/6*mu[1]"


SAMPLES = Path(__file__).resolve().parent.parent / "samples"


@pytest.mark.parametrize("finite, value", [("A1", Fraction(-1, 3)), ("A3", Fraction(-1, 15))])
def test_chain_sum_equals_both_routes_in_odd_rank(finite, value):
    pair = affine_preset(f"affine {finite}")
    assert chain_sum_chi(pair.affine.to_coxeter(), 2) == value
    assert chevalley_chi(finite_preset(finite), 2).coeff == value
    assert chi_via_parahoric_sum(pair, 2).coeff == value


@pytest.mark.parametrize(
    "system, value",
    [(affine_preset(f"affine {t}").affine.to_coxeter(), 0) for t in ("A1", "A2", "A3", "C2", "G2")]
    + [
        (load_coxeter(json.loads((SAMPLES / "notdu.json").read_text())), Fraction(-1, 2)),
        (CoxeterSystem([[1, 2, 7], [2, 1, 3], [7, 3, 1]]), Fraction(-1, 84)),
    ],
    ids=["affine-A1", "affine-A2", "affine-A3", "affine-C2", "affine-G2", "notdu", "triangle-2-3-7"],
)
def test_chain_sum_at_q_one_is_serres_chi_of_w(system, value):
    serre = sum(Fraction((-1) ** len(subset), prod(degrees)) for subset, degrees in brute_force_spherical_subsets(system))
    assert serre == value
    assert chain_sum_chi(system, 1) == value


EVEN_RANK = [("A2", Fraction(1, 7)), ("C2", Fraction(7, 45)), ("G2", Fraction(31, 189))]


@pytest.mark.parametrize("finite, value", EVEN_RANK)
def test_chain_sum_in_even_rank(finite, value):
    assert chain_sum_chi(affine_preset(f"affine {finite}").affine.to_coxeter(), 2) == value


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: in even rank both library routes give minus the chain sum",
)
@pytest.mark.parametrize("finite, value", EVEN_RANK)
def test_library_chi_equals_the_chain_sum_in_even_rank(finite, value):
    pair = affine_preset(f"affine {finite}")
    assert chi_via_parahoric_sum(pair, 2).coeff == value
    assert chevalley_chi(finite_preset(finite), 2).coeff == value
