import json
import random
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest

from tdlcinv.diagrams import INFINITY, CoxeterSystem, load_coxeter
from tdlcinv.errors import ValidationError
from tdlcinv import davis
from tdlcinv.davis import (
    PosetTooLarge,
    SphericalPoset,
    WFinite,
    build_chamber,
    chamber_simplex_count,
    cone_rows,
    diagram_automorphisms,
    duality_verdict,
    kac_moody_verdict,
    relative_table,
    subset_orbits,
)

from fuzzers import random_coxeter_system
from oracles import (
    brute_force_diagram_automorphisms,
    brute_force_spherical_subsets,
    every_row_table,
    full_subcomplex_mirrors,
    nerve_apexes,
    reduced_nerve_homology,
)


def infinite_dihedral():
    return CoxeterSystem([[1, INFINITY], [INFINITY, 1]])


def affine_a2():
    return CoxeterSystem([[1, 3, 3], [3, 1, 3], [3, 3, 1]])


def coxdia():
    """Label-3 triangle on {0, 2, 3} with generator 1 free-product-joined."""
    inf = INFINITY
    return CoxeterSystem(
        [
            [1, inf, 3, 3],
            [inf, 1, inf, inf],
            [3, inf, 1, 3],
            [3, inf, 3, 1],
        ]
    )


def right_angled_product_of_lines():
    """Two commuting infinite dihedral factors on four generators."""
    inf = INFINITY
    return CoxeterSystem(
        [
            [1, inf, 2, 2],
            [inf, 1, 2, 2],
            [2, 2, 1, inf],
            [2, 2, inf, 1],
        ]
    )


def test_build_chamber_rejects_finite_type():
    with pytest.raises(WFinite):
        build_chamber(CoxeterSystem([[1, 3], [3, 1]]))


def test_chamber_infinite_dihedral_is_a_two_edge_path():
    chamber = build_chamber(infinite_dihedral())
    assert len(chamber.poset) == 3  # empty set and two singletons
    assert chamber.complex.f_vector() == (3, 2)
    for s in (0, 1):
        assert chamber.mirrors[s].f_vector() == (1,)


def test_chamber_affine_a2_is_cone_over_hexagon():
    chamber = build_chamber(affine_a2())
    assert len(chamber.poset) == 7  # empty, 3 singletons, 3 pairs
    # cone over a 6-cycle: 7 vertices, 6 + 6 edges, 6 triangles
    assert chamber.complex.f_vector() == (7, 12, 6)
    base_homology = chamber.complex.homology()
    assert base_homology == [1, 0, 0]  # a cone is contractible


def test_chamber_coxdia_poset_and_dimension():
    chamber = build_chamber(coxdia())
    sizes = sorted(len(s) for s in chamber.poset.subsets)
    assert sizes == [0, 1, 1, 1, 1, 2, 2, 2]
    assert chamber.complex.dim == 2


def test_verdict_infinite_dihedral():
    verdict = duality_verdict(infinite_dihedral())
    assert verdict.cd == 1
    assert verdict.is_duality
    nonzero = list(verdict.entries())
    assert nonzero == [((), 1, 1)]


def test_verdict_affine_a2():
    verdict = duality_verdict(affine_a2())
    assert verdict.cd == 2
    assert verdict.is_duality
    assert list(verdict.entries()) == [((), 2, 1)]


def test_verdict_coxdia_not_duality():
    verdict = duality_verdict(coxdia())
    assert verdict.cd == 2
    assert not verdict.is_duality
    empty_row = dict(verdict.table)[()]
    assert empty_row[1] == 1 and empty_row[2] == 1  # both degrees alive


def test_verdict_finite_type_short_circuit():
    verdict = duality_verdict(CoxeterSystem([[1, 3], [3, 1]]))
    assert verdict.cd == 0
    assert verdict.is_duality


def test_near_finite_machinery_agrees_with_short_circuit():
    # run the full machinery on a finite system: everything concentrates in
    # degree zero, matching the short-circuit verdict shape
    chamber = build_chamber(CoxeterSystem([[1, 3], [3, 1]]), allow_finite=True)
    verdict = relative_table(chamber)
    assert verdict.cd == 0
    assert verdict.is_duality
    assert all(degree == 0 for _, degree, _ in verdict.entries())


def test_right_angled_product_of_lines():
    verdict = duality_verdict(right_angled_product_of_lines())
    assert verdict.cd == 2
    assert verdict.is_duality
    # hand cell count: chamber is the cone over an 8-cycle
    chamber = build_chamber(right_angled_product_of_lines())
    assert chamber.complex.f_vector() == (9, 16, 8)
    assert list(verdict.entries()) == [((), 2, 1)]


def test_strict_reading_differs_exactly_on_the_empty_subset():
    verdict_full = duality_verdict(infinite_dihedral(), include_empty=True)
    verdict_strict = duality_verdict(infinite_dihedral(), include_empty=False)
    assert verdict_full.cd == 1
    assert verdict_strict.cd == 0  # the rank-one case degenerates
    full_rows = dict(verdict_full.table)
    strict_rows = dict(verdict_strict.table)
    assert set(full_rows) - set(strict_rows) == {()}
    for key, dims in strict_rows.items():
        assert full_rows[key] == dims


def test_entries_bounded_by_chamber_dimension():
    for system in (infinite_dihedral(), affine_a2(), coxdia()):
        chamber = build_chamber(system)
        verdict = relative_table(chamber)
        for _, degree, _ in verdict.entries():
            assert degree <= chamber.complex.dim


def test_free_factor_deletion_monotonicity():
    # removing a generator joined to everything by infinite labels never
    # raises the dimension by more than one
    rng = random.Random(41)
    for _ in range(10):
        n = rng.randint(2, 3)
        m = [[1] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                m[i][j] = m[j][i] = rng.choice([2, 3, INFINITY])
        inner = CoxeterSystem(m)
        extended = [[1] * (n + 1) for _ in range(n + 1)]
        for i in range(n):
            for j in range(n):
                extended[i][j] = m[i][j]
            extended[i][n] = extended[n][i] = INFINITY
        outer = CoxeterSystem(extended)
        assert duality_verdict(outer).cd <= duality_verdict(inner).cd + 1


def test_kac_moody_verdict_transfers():
    coxeter_side = duality_verdict(affine_a2())
    transferred = kac_moody_verdict(affine_a2())
    assert transferred.cd == coxeter_side.cd
    assert transferred.is_duality == coxeter_side.is_duality
    with pytest.raises(WFinite):
        kac_moody_verdict(CoxeterSystem([[1, 3], [3, 1]]))


def test_poset_cap(monkeypatch):
    monkeypatch.setattr("tdlcinv.davis.SPHERICAL_SUBSET_CAP", 2)
    with pytest.raises(PosetTooLarge, match="SPHERICAL_SUBSET_CAP"):
        build_chamber(infinite_dihedral())  # three spherical subsets
    monkeypatch.undo()
    monkeypatch.setattr("tdlcinv.diagrams.GENERATOR_CAP", 1)
    with pytest.raises(ValidationError, match="GENERATOR_CAP"):
        build_chamber(infinite_dihedral())


def test_verdict_json_shape():
    data = duality_verdict(coxdia()).to_json()
    assert data["cd"] == 2
    assert data["duality"] is False
    assert all(set(row) == {"T", "dims"} for row in data["table"])


def right_angled(n, infinite_pairs):
    """Right-angled system: label infinity on the given pairs, 2 elsewhere."""
    m = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for i, j in infinite_pairs:
        m[i][j] = m[j][i] = INFINITY
    return CoxeterSystem(m)


def polygon_nerve(m):
    """Right-angled system whose nerve is the m-cycle."""
    return right_angled(m, [(i, j) for i, j in combinations(range(m), 2) if (j - i) % m not in (1, m - 1)])


def affine_a(n):
    size = n + 1
    return CoxeterSystem(
        [[1 if i == j else 3 if (i - j) % size in (1, size - 1) else 2 for j in range(size)] for i in range(size)]
    )


def linear(labels):
    """The Coxeter system of a string diagram with the given labels."""
    n = len(labels) + 1
    m = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for i, label in enumerate(labels):
        m[i][i + 1] = m[i + 1][i] = label
    return CoxeterSystem(m)


# compact hyperbolic (Lannér) simplex groups: every proper subset is
# spherical, so the nerve is the boundary of a simplex, a sphere; the H3 and
# H4 parabolics reach those branches of the classifier
LANNER = {
    "lanner-(2,3,7)": (CoxeterSystem([[1, 2, 7], [2, 1, 3], [7, 3, 1]]), 2),
    "lanner-[5,3,5]": (linear([5, 3, 5]), 3),
    "lanner-[5,3,3,3]": (linear([5, 3, 3, 3]), 4),
    "lanner-[5,3,3,5]": (linear([5, 3, 3, 5]), 4),
}


@pytest.mark.parametrize(
    "system, cd, duality",
    [(polygon_nerve(m), 2, True) for m in range(4, 9)]
    + [(right_angled(6, [(0, 1), (2, 3), (4, 5)]), 3, True)]
    + [(right_angled(2 + k, [(0, 1)]), 1, True) for k in range(1, 4)]
    + [(right_angled(5, [(0, 2), (1, 3)] + [(v, 4) for v in range(4)]), 2, False)]
    + [(system, cd, True) for system, cd in LANNER.values()],
    ids=[f"right-angled-{m}-gon" for m in range(4, 9)]
    + ["octahedral-nerve"]
    + [f"dinf-times-c2^{k}" for k in range(1, 4)]
    + ["square-plus-isolated-vertex"]
    + list(LANNER),
)
def test_known_answer_verdicts(system, cd, duality):
    # a W whose nerve is a triangulated sphere (flag, when right-angled) is
    # a virtual Poincare duality group of the sphere's dimension plus one
    verdict = duality_verdict(system)
    assert (verdict.cd, verdict.is_duality) == (cd, duality)


@pytest.mark.parametrize("system, cd", LANNER.values(), ids=list(LANNER))
def test_lanner_table_is_one_class_in_the_top_degree(system, cd):
    # L_{S-T} is a proper face of the simplex boundary, a cone, for every
    # nonempty T; for T empty it is the sphere S^{cd-1}
    rows = dict(duality_verdict(system).table)
    assert rows.pop(()) == (0,) * cd + (1,)
    assert all(not any(dims) for dims in rows.values())


def test_rows_alternate_to_minus_the_reduced_euler_characteristic_of_the_nerve():
    # H^*(K, K^{S-T}) is the reduced cohomology of L_{S-T} shifted up one
    # degree, so each row's alternating sum is -chi~(L_{S-T}), read off the
    # f-vector of the nerve with no rank computed
    samples = Path(__file__).resolve().parent.parent / "samples"
    systems = [load_coxeter(json.loads((samples / name).read_text())) for name in ("notdu.json", "affine_a2_coxeter.json")]
    systems += [affine_a(n) for n in (2, 3, 4)]
    rng = random.Random(43)
    systems += [random_coxeter_system(rng, 6) for _ in range(6)]
    for system in systems:
        spherical = [set(subset) for subset, _ in brute_force_spherical_subsets(system)]
        for subset, dims in duality_verdict(system).table:
            rest = set(system.generators) - set(subset)
            f_vector = Counter(len(u) - 1 for u in spherical if u and u <= rest)
            minus_reduced_chi = 1 - sum((-1) ** k * f for k, f in f_vector.items())
            assert sum((-1) ** k * d for k, d in enumerate(dims)) == minus_reduced_chi


def permuted(system, rng):
    order = list(range(system.n))
    rng.shuffle(order)
    return CoxeterSystem([[system.m[i][j] for j in order] for i in order])


def circulant(n, labels):
    """Labels that depend only on the cyclic distance (i - j) mod n: the
    dihedral group of order 2n acts by diagram automorphisms."""
    return CoxeterSystem([[1 if i == j else labels[min((i - j) % n, (j - i) % n) - 1] for j in range(n)] for i in range(n)])


def random_right_angled(rng, n):
    return right_angled(n, [pair for pair in combinations(range(n), 2) if rng.random() < 0.4])


def symmetric_systems():
    """Seeded label matrices with large diagram automorphism groups."""
    rng = random.Random(47)
    systems = [affine_a(n) for n in range(2, 7)] + [polygon_nerve(m) for m in range(4, 8)]
    systems += [right_angled(2 + k, [(0, 1)]) for k in range(1, 6)]
    systems += [circulant(n, [rng.choice([2, 3, INFINITY]) for _ in range(n // 2)]) for n in range(3, 8) for _ in range(4)]
    systems += [random_right_angled(rng, rng.randint(2, 7)) for _ in range(30)]
    return [permuted(system, rng) for system in systems]


def orbit_test_systems():
    rng = random.Random(53)
    systems = symmetric_systems()
    systems += [random_coxeter_system(rng, rng.randint(1, 7)) for _ in range(200 - len(systems))]
    return systems


def brute_force_orbits(system, subsets):
    group = brute_force_diagram_automorphisms(system.m)
    return {frozenset(frozenset(sigma[s] for s in subset) for sigma in group) for subset in subsets}


def orbits_from_search(poset, generators):
    first = subset_orbits({subset: i for i, subset in enumerate(poset.subsets)}, generators)
    classes = {}
    for i, subset in enumerate(poset.subsets):
        classes.setdefault(first[i], set()).add(subset)
    return {frozenset(members) for members in classes.values()}


def test_subset_orbits_match_brute_force_automorphisms():
    systems = orbit_test_systems()
    assert len(systems) >= 200
    for system in systems:
        poset = SphericalPoset.from_system(system)
        generators = diagram_automorphisms(system.m, len(poset) * system.n)
        assert orbits_from_search(poset, generators) == brute_force_orbits(system, poset.subsets)


def closure(generators, n):
    group, frontier = {tuple(range(n))}, [tuple(range(n))]
    while frontier:
        g = frontier.pop()
        for h in generators:
            gh = tuple(g[h[i]] for i in range(n))
            if gh not in group:
                group.add(gh)
                frontier.append(gh)
    return group


def test_search_generates_every_diagram_automorphism():
    for system in orbit_test_systems()[:80]:
        generators = diagram_automorphisms(system.m, 10**6)
        assert closure(generators, system.n) == set(brute_force_diagram_automorphisms(system.m))


def test_search_stops_at_its_budget_with_true_automorphisms():
    dinf_times_c2 = right_angled(7, [(0, 1)])  # 2 * 5! automorphisms
    for budget in (0, 1, 3, 10, 30):
        generators = diagram_automorphisms(dinf_times_c2.m, budget)
        assert all(sorted(g) == list(range(7)) for g in generators)
        assert set(closure(generators, 7)) <= set(brute_force_diagram_automorphisms(dinf_times_c2.m))
    assert diagram_automorphisms(dinf_times_c2.m, 0) == []


def test_search_on_sixteen_generators_stays_within_a_small_budget():
    # D-infinity times C2^14 has 2 * 14! automorphisms; the search lists
    # generators of its stabilizer chain, never the group
    m = right_angled(16, [(0, 1)]).m
    generators = diagram_automorphisms(m, 2000)
    assert all(m[g[i]][g[j]] == m[i][j] for g in generators for i in range(16) for j in range(16))
    singletons = {frozenset({s}): s for s in range(16)}
    assert subset_orbits(singletons, generators) == [0, 0] + [2] * 14


def table_test_systems():
    samples = Path(__file__).resolve().parent.parent / "samples"
    systems = [load_coxeter(json.loads((samples / name).read_text())) for name in ("notdu.json", "affine_a2_coxeter.json")]
    rng = random.Random(59)
    systems += [permuted(affine_a(n), rng) for n in (2, 3, 4)]
    systems += [polygon_nerve(m) for m in range(4, 8)]
    systems += [right_angled(2 + k, [(0, 1)]) for k in range(1, 4)]
    circulants = ((5, [3, 2]), (6, [2, INFINITY, 3]), (6, [INFINITY, 2, 2]), (6, [2, 2, INFINITY]), (6, [2, 3, INFINITY]))
    systems += [permuted(circulant(n, labels), rng) for n, labels in circulants]
    systems += [random_coxeter_system(rng, 6) for _ in range(6)]
    return [system for system in systems if not system.is_spherical(tuple(system.generators))]


@pytest.mark.parametrize("include_empty", [True, False])
def test_relative_table_matches_every_row_oracle(include_empty):
    for system in table_test_systems():
        chamber = build_chamber(system)
        verdict = relative_table(chamber, include_empty=include_empty)
        assert (verdict.cd, verdict.is_duality, verdict.table) == every_row_table(chamber, include_empty)


@pytest.mark.parametrize("budget", [0, 1, 4, 12])
def test_relative_table_with_a_tiny_search_budget_matches_the_oracle(monkeypatch, budget):
    search = davis.diagram_automorphisms
    monkeypatch.setattr(davis, "diagram_automorphisms", lambda m, _: search(m, budget))
    rng = random.Random(61)
    for system in [permuted(affine_a(n), rng) for n in (2, 3, 4)] + [right_angled(5, [(0, 1)]), polygon_nerve(6)]:
        chamber = build_chamber(system)
        for include_empty in (True, False):
            verdict = relative_table(chamber, include_empty=include_empty)
            assert (verdict.cd, verdict.is_duality, verdict.table) == every_row_table(chamber, include_empty)


def count_ranked_rows(monkeypatch, system, include_empty=True):
    calls = []
    rank_rows = davis.relative_cohomology

    def counted(*args):
        calls.append(args)
        return rank_rows(*args)

    monkeypatch.setattr(davis, "relative_cohomology", counted)
    verdict = duality_verdict(system, include_empty=include_empty)
    monkeypatch.undo()
    return len(calls), len(verdict.table)


def non_cone_rows(system, include_empty=True):
    spherical = [set(subset) for subset, _ in brute_force_spherical_subsets(system)]
    rests = [set(system.generators) - subset for subset in spherical if subset or include_empty]
    return sum(not nerve_apexes(spherical, rest) for rest in rests)


def test_one_row_is_ranked_per_orbit(monkeypatch):
    # cone rows are zero without a matrix; of the others, one row per orbit
    rng = random.Random(67)
    assert count_ranked_rows(monkeypatch, permuted(affine_a(4), rng)) == (1, 31)
    assert count_ranked_rows(monkeypatch, permuted(affine_a(3), rng)) == (1, 15)
    assert count_ranked_rows(monkeypatch, affine_a(3), include_empty=False) == (0, 14)
    assert count_ranked_rows(monkeypatch, permuted(polygon_nerve(6), rng)) == (3, 13)
    samples = Path(__file__).resolve().parent.parent / "samples"
    notdu = load_coxeter(json.loads((samples / "notdu.json").read_text()))
    assert count_ranked_rows(monkeypatch, notdu) == (4, 8)
    rigid = random_coxeter_system(rng, 6)
    while (
        len(brute_force_diagram_automorphisms(rigid.m)) != 1
        or rigid.is_spherical(tuple(rigid.generators))
        or non_cone_rows(rigid) == 0
    ):
        rigid = random_coxeter_system(rng, 6)
    ranked, rows = count_ranked_rows(monkeypatch, rigid)
    assert ranked == non_cone_rows(rigid) > 0
    assert rows > ranked
    # a search that finds nothing ranks every row that is not a cone
    monkeypatch.setattr(davis, "diagram_automorphisms", lambda m, budget: [])
    assert count_ranked_rows(monkeypatch, affine_a(4)) == (non_cone_rows(affine_a(4)), 31) == (1, 31)
    monkeypatch.setattr(davis, "diagram_automorphisms", lambda m, budget: [])
    assert count_ranked_rows(monkeypatch, polygon_nerve(6)) == (non_cone_rows(polygon_nerve(6)), 13) == (13, 13)


def test_the_orbit_search_runs_only_on_two_or_more_rows_that_are_not_cones(monkeypatch):
    def refused(m, budget):
        raise AssertionError("the orbit search ran")

    monkeypatch.setattr(davis, "diagram_automorphisms", refused)
    for system in [affine_a(n) for n in (2, 3, 4)] + [right_angled(2 + k, [(0, 1)]) for k in range(1, 5)]:
        assert non_cone_rows(system) <= 1
        for include_empty in (True, False):
            duality_verdict(system, include_empty=include_empty)


def cone_test_systems():
    samples = Path(__file__).resolve().parent.parent / "samples"
    systems = [load_coxeter(json.loads((samples / name).read_text())) for name in ("notdu.json", "affine_a2_coxeter.json")]
    systems += [affine_a(n) for n in (2, 3, 4)]
    systems += [polygon_nerve(m) for m in range(4, 9)]
    systems += [right_angled(6, [(0, 1), (2, 3), (4, 5)])]  # octahedral nerve
    systems += [right_angled(2 + k, [(0, 1)]) for k in range(1, 5)]
    systems += [right_angled(5, [(0, 2), (1, 3)] + [(v, 4) for v in range(4)])]  # 4-cycle plus a point
    rng = random.Random(73)
    seeded = []
    while len(seeded) < 12:
        system = random_coxeter_system(rng, 6)
        if not system.is_spherical(tuple(system.generators)):
            seeded.append(system)
    return systems + seeded


@pytest.mark.parametrize("include_empty", [True, False])
def test_cone_rows_keep_the_table_of_every_row(monkeypatch, include_empty):
    search = davis.diagram_automorphisms
    for system in cone_test_systems():
        chamber = build_chamber(system)
        expected = every_row_table(chamber, include_empty)
        for budget in (None, 0):
            monkeypatch.setattr(davis, "diagram_automorphisms", lambda m, full: search(m, full if budget is None else budget))
            verdict = relative_table(chamber, include_empty=include_empty)
            assert (verdict.cd, verdict.is_duality, verdict.table) == expected


def test_cone_rows_are_the_rows_whose_nerve_has_an_apex():
    rng = random.Random(79)
    systems = cone_test_systems() + [random_coxeter_system(rng, rng.randint(1, 7)) for _ in range(100)]
    systems += [random_right_angled(rng, rng.randint(2, 8)) for _ in range(40)]
    marked = unmarked = 0
    for system in systems:
        spherical = [frozenset(subset) for subset, _ in brute_force_spherical_subsets(system)]
        for subset, cone in zip(spherical, cone_rows(spherical, system.n)):
            assert cone == bool(nerve_apexes(spherical, set(system.generators) - subset))
            marked += cone
            unmarked += not cone
    assert marked > 1000 and unmarked > 100


def test_every_cone_row_has_an_acyclic_nerve():
    # L_{S-T} is homotopy equivalent to the union of the mirrors off T, so a
    # marked row must come from a nerve with no reduced homology, checked by
    # dense elimination, without the library's rank
    rng = random.Random(83)
    systems = cone_test_systems() + [random_coxeter_system(rng, rng.randint(1, 6)) for _ in range(40)]
    checked = 0
    for system in systems:
        spherical = [frozenset(subset) for subset, _ in system.spherical_subsets()]
        for subset, cone in zip(spherical, cone_rows(spherical, system.n)):
            if cone:
                assert set(reduced_nerve_homology(spherical, set(system.generators) - subset)) == {0}
                checked += 1
    assert checked > 500


def chains_from(poset):
    """Chains of the poset by the recursion over least elements:
    chains(U) = 1 + the sum of chains(V) over V strictly above U."""
    chains = {}
    for subset in sorted(poset.subsets, key=len, reverse=True):
        chains[subset] = 1 + sum(chains[other] for other in chains if subset < other)
    return sum(chains.values())


def test_chamber_simplex_count_is_the_number_of_chains():
    rng = random.Random(89)
    systems = cone_test_systems() + [random_coxeter_system(rng, rng.randint(1, 6)) for _ in range(30)]
    for system in systems:
        chamber = build_chamber(system, allow_finite=True)
        count = chamber_simplex_count(chamber.poset)
        assert count == sum(chamber.complex.f_vector()) == chains_from(chamber.poset)
    # the counts of affine A5-A7 and D-infinity times C2^k, k = 5, 6, 7, 10
    expected = {affine_a(5): 9365, affine_a(6): 94585, affine_a(7): 1091669}
    expected.update({right_angled(2 + k, [(0, 1)]): count for k, count in ((5, 35299), (6, 359611), (7, 4177507), (10, 12572070331))})
    for system, count in expected.items():
        poset = SphericalPoset.from_system(system)
        assert chamber_simplex_count(poset) == count
        if count < 10**5:
            assert chains_from(poset) == count


def test_chamber_cap_refuses_before_building_the_chamber(monkeypatch):
    system = affine_a(3)
    count = sum(build_chamber(system).complex.f_vector())
    monkeypatch.setattr("tdlcinv.davis.CHAMBER_SIMPLEX_CAP", count)
    assert sum(build_chamber(system).complex.f_vector()) == count
    monkeypatch.setattr("tdlcinv.davis.CHAMBER_SIMPLEX_CAP", count - 1)
    monkeypatch.setattr("tdlcinv.davis.SimplicialComplex", None)  # building one would fail
    with pytest.raises(PosetTooLarge, match=f"CHAMBER_SIMPLEX_CAP = {count - 1}"):
        build_chamber(system)


def test_mirrors_are_the_full_subcomplexes_on_the_subsets_containing_each_generator():
    rng = random.Random(71)
    systems = [permuted(affine_a(n), rng) for n in (2, 3, 4)]
    systems += [random_coxeter_system(rng, rng.randint(2, 6)) for _ in range(12)]
    for system in systems:
        chamber = build_chamber(system, allow_finite=True)
        assert chamber.mirrors == full_subcomplex_mirrors(chamber)
