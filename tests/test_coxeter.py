import math
import random
from fractions import Fraction

import pytest

from tdlcinv.coxeter import (
    AffineCartanPair,
    CartanMatrix,
    IntPolynomial,
    NotCrystallographic,
    affine_preset,
    alternating_sum_identity,
    bott_check,
    enumerate_by_length,
    exponents,
    finite_preset,
    load_cartan,
    poincare_from_degrees,
    poincare_poly,
    PRESET_RANK_CAP,
    PRESET_RANKS,
)
from tdlcinv.diagrams import EXCEPTIONAL_DEGREES, GENERATOR_CAP, INFINITY, CoxeterSystem, load_coxeter
from tdlcinv.errors import ValidationError

from oracles import (
    brute_force_spherical_subsets,
    fraction_polynomial_value,
    mat_mul,
    reflection_layers,
    reflection_matrices,
    rho_orbit_layers,
    trial_division_exponents,
)


# every name the preset generator accepts
FINITE_NAMES = [f"{family}{n}" for family, ranks in PRESET_RANKS.items() for n in ranks]
AFFINE_NAMES = [f"affine {name}" for name in FINITE_NAMES]
# the five affine presets that were typed in by hand before the generator
HAND_TYPED_AFFINE = ("affine A1", "affine A2", "affine A3", "affine C2", "affine G2")


def coxdia_system():
    """Four generators: a label-3 triangle on {0, 2, 3} and generator 1 joined
    to everything by infinite labels (a free product with one free factor)."""
    inf = INFINITY
    return CoxeterSystem(
        [
            [1, inf, 3, 3],
            [inf, 1, inf, inf],
            [3, inf, 1, 3],
            [3, inf, 3, 1],
        ]
    )


def test_is_spherical_singletons_and_infinite_pairs():
    c = CoxeterSystem([[1, INFINITY], [INFINITY, 1]])
    assert c.is_spherical([0])
    assert c.is_spherical([1])
    assert not c.is_spherical([0, 1])


def test_triangle_of_threes_is_not_spherical():
    assert not coxdia_system().is_spherical([0, 2, 3])


def test_spherical_classification_cases():
    inf = INFINITY
    # A3 path
    a3 = CoxeterSystem([[1, 3, 2], [3, 1, 3], [2, 3, 1]])
    assert a3.is_spherical([0, 1, 2])
    # B3: 4 at the end
    b3 = CoxeterSystem([[1, 4, 2], [4, 1, 3], [2, 3, 1]])
    assert b3.is_spherical([0, 1, 2])
    # H3: 5 at the end
    h3 = CoxeterSystem([[1, 5, 2], [5, 1, 3], [2, 3, 1]])
    assert h3.is_spherical([0, 1, 2])
    # H5 would be a 5 at the end of a longer path: not finite
    h5 = CoxeterSystem(
        [
            [1, 5, 2, 2, 2],
            [5, 1, 3, 2, 2],
            [2, 3, 1, 3, 2],
            [2, 2, 3, 1, 3],
            [2, 2, 2, 3, 1],
        ]
    )
    assert not h5.is_spherical(range(5))
    # affine C2 chain (4, 4) is infinite
    c2t = CoxeterSystem([[1, 4, 2], [4, 1, 4], [2, 4, 1]])
    assert not c2t.is_spherical([0, 1, 2])
    # middle 4 on a 4-vertex path is F4
    f4 = CoxeterSystem([[1, 3, 2, 2], [3, 1, 4, 2], [2, 4, 1, 3], [2, 2, 3, 1]])
    assert f4.is_spherical([0, 1, 2, 3])
    # middle 4 on a 5-vertex path (affine F4) is infinite
    f4t = CoxeterSystem(
        [
            [1, 3, 2, 2, 2],
            [3, 1, 4, 2, 2],
            [2, 4, 1, 3, 2],
            [2, 2, 3, 1, 3],
            [2, 2, 2, 3, 1],
        ]
    )
    assert not f4t.is_spherical(range(5))
    # D4 star, all labels 3
    d4 = CoxeterSystem([[1, 3, 2, 2], [3, 1, 3, 3], [2, 3, 1, 2], [2, 3, 2, 1]])
    assert d4.is_spherical([0, 1, 2, 3])
    # star with 4 arms (affine D4) is infinite
    d4t = CoxeterSystem(
        [
            [1, 3, 2, 2, 2],
            [3, 1, 3, 3, 3],
            [2, 3, 1, 2, 2],
            [2, 3, 2, 1, 2],
            [2, 3, 2, 2, 1],
        ]
    )
    assert not d4t.is_spherical(range(5))
    # rank-2 with any finite label is spherical
    i7 = CoxeterSystem([[1, 7], [7, 1]])
    assert i7.is_spherical([0, 1])


def test_spherical_monotone_under_subsets():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = [[1] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                m[i][j] = m[j][i] = rng.choice([2, 3, 3, 4, 5, 6, INFINITY])
        c = CoxeterSystem(m)
        subset = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
        if c.is_spherical(subset):
            for k in range(len(subset)):
                for smaller in [subset[:k] + subset[k + 1:]]:
                    assert c.is_spherical(smaller)


def test_spherical_subsets_match_brute_force_on_random_coxeter_matrices():
    rng = random.Random(8)
    for _ in range(320):
        n = rng.randint(1, 7)
        m = [[1] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                m[i][j] = m[j][i] = rng.choice([2, 3, 4, 5, 6, INFINITY])
        system = CoxeterSystem(m)
        assert list(system.spherical_subsets()) == brute_force_spherical_subsets(system), m


def path_of_threes(n):
    """Generators in a path of 3-labels, every other pair labelled infinity:
    its spherical subsets are the empty set, the n singletons and the n - 1
    adjacent pairs."""
    return CoxeterSystem(
        [[1 if i == j else 3 if abs(i - j) == 1 else INFINITY for j in range(n)] for i in range(n)]
    )


def test_spherical_scan_classifies_only_extensions_of_spherical_subsets(monkeypatch):
    calls = []
    classify = CoxeterSystem.degrees

    def counted(self, subset):
        calls.append(subset)
        return classify(self, subset)

    monkeypatch.setattr(CoxeterSystem, "degrees", counted)
    found = list(path_of_threes(GENERATOR_CAP).spherical_subsets())
    assert len(found) == 1 + GENERATOR_CAP + (GENERATOR_CAP - 1)
    assert len(calls) <= GENERATOR_CAP * len(found)
    assert len(set(calls)) == len(calls)  # each subset classified once


def test_cartan_validation():
    with pytest.raises(Exception):
        CartanMatrix([[2, -1], [0, 2]])  # zero pattern asymmetric
    with pytest.raises(NotCrystallographic):
        CartanMatrix([[2, -5], [-1, 2]])  # pairing 5 beyond affine bound
    CartanMatrix([[2, -2], [-2, 2]])  # rank-one affine pairing 4 is fine
    for entry in (2.7, 2.0, "2", True):  # never coerced to an integer
        with pytest.raises(ValidationError, match="not an integer"):
            CartanMatrix([[2, -1], [-1, entry]])


def test_enumerate_a1_and_a2():
    assert enumerate_by_length(finite_preset("A1"), 3) == [1, 1, 0, 0]
    assert enumerate_by_length(finite_preset("A2"), 3) == [1, 2, 2, 1]


def test_enumerate_affine_a1():
    affine = CartanMatrix([[2, -2], [-2, 2]])
    assert enumerate_by_length(affine, 5) == [1, 2, 2, 2, 2, 2]


def test_enumerate_counts_match_word_oracle_on_rank_two():
    # oracle: generate all words up to length 6 as matrix products and keep
    # the first length at which each matrix appears
    for name in ("A2", "B2", "G2"):
        cartan = finite_preset(name)
        mats = reflection_matrices(cartan.a)
        identity = tuple(tuple(int(r == c) for c in range(2)) for r in range(2))
        first_seen = {identity: 0}
        layer = {identity}
        for length in range(1, 7):
            layer = {mat_mul(w, s) for w in layer for s in mats}
            for w in layer:
                first_seen.setdefault(w, length)
        oracle_counts = [0] * 7
        for length in first_seen.values():
            oracle_counts[length] += 1
        assert enumerate_by_length(cartan, 6) == oracle_counts


# off-diagonal pairs (a[i][j], a[j][i]): no edge and the products 1, 2, 3, 4
# in both orders, so finite, affine and hyperbolic diagrams all occur
CARTAN_PAIRS = ((0, 0), (-1, -1), (-1, -2), (-2, -1), (-1, -3), (-3, -1), (-2, -2), (-1, -4), (-4, -1))
# elements the matrix oracle may find per random matrix; hyperbolic groups
# of rank 5 have tens of thousands of elements by length 8
ORACLE_BUDGET = 250


def test_enumerate_matches_matrix_oracle_on_random_cartan_matrices():
    """Layers of 300 seeded generalized Cartan matrices of rank 1-5,
    truncated at length 8-14, against the reflection-matrix BFS up to
    where the oracle's budget cuts the layers short."""
    rng = random.Random(6)
    cut = 0
    for _ in range(300):
        n = rng.randint(1, 5)
        a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                a[i][j], a[j][i] = rng.choice(CARTAN_PAIRS)
        max_len = rng.randint(8, 14)
        expected = reflection_layers(a, max_len, budget=ORACLE_BUDGET)
        cartan = CartanMatrix(a)
        assert enumerate_by_length(cartan, len(expected) - 1) == expected, a
        cut += len(expected) <= max_len
    assert 0 < cut < 300


@pytest.mark.parametrize("name", [name for name in FINITE_NAMES if int(name[1:]) <= 4])
def test_poincare_matches_matrix_oracle_on_finite_presets(name):
    cartan = finite_preset(name)
    assert list(poincare_poly(cartan).coeffs) == reflection_layers(cartan.a, None)


@pytest.mark.parametrize("name", [name for name in AFFINE_NAMES if int(name[8:]) <= 3])
def test_enumerate_matches_matrix_oracle_on_affine_presets(name):
    cartan = affine_preset(name).affine
    assert enumerate_by_length(cartan, 12) == reflection_layers(cartan.a, 12)


def test_enumerate_matches_rho_orbit_oracle_on_affine_presets_to_length_40():
    for name in HAND_TYPED_AFFINE:
        cartan = affine_preset(name).affine
        assert enumerate_by_length(cartan, 40) == rho_orbit_layers(cartan.a, 40)


def bourbaki_cartan(kind, rank):
    """Cartan matrix of type A, B, D, E or F in Bourbaki order."""
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i in range(rank - 1):
        a[i][i + 1] = a[i + 1][i] = -1
    if kind == "B":
        a[rank - 2][rank - 1] = -2
    elif kind == "D":
        a[rank - 2][rank - 1] = a[rank - 1][rank - 2] = 0
        a[rank - 3][rank - 1] = a[rank - 1][rank - 3] = -1
    elif kind == "F":
        a[1][2] = -2
    elif kind == "E":  # node 1 hangs off node 3 of the path 0, 2, 3, ..., rank - 1
        a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
        path = [0, 2, 3] + list(range(4, rank))
        for u, v in zip(path, path[1:]):
            a[u][v] = a[v][u] = -1
        a[1][3] = a[3][1] = -1
    return a


def permuted(a, rng):
    order = list(range(len(a)))
    rng.shuffle(order)
    return [[a[i][j] for j in order] for i in order]


# the orders of the exceptional Weyl groups (Bourbaki, Plates V-IX)
EXCEPTIONAL_ORDERS = {"E6": 51_840, "E7": 2_903_040, "E8": 696_729_600, "F4": 1_152, "G2": 12}


def weyl_order(name):
    family, n = name[0], int(name[1:])
    if family == "A":
        return math.factorial(n + 1)
    if family in "BC":
        return 2 ** n * math.factorial(n)
    if family == "D":
        return 2 ** (n - 1) * math.factorial(n)
    return EXCEPTIONAL_ORDERS[name]


def classified_degrees(name):
    """The degrees of the finite type ``name``: the formulas of A_n, B_n = C_n
    and D_n, else ``EXCEPTIONAL_DEGREES`` (G2 is I2(6), degrees 2 and 6)."""
    family, n = name[0], int(name[1:])
    if family == "A":
        return list(range(2, n + 2))
    if family in "BC":
        return list(range(2, 2 * n + 1, 2))
    if family == "D":
        return sorted([*range(2, 2 * n - 1, 2), n])
    return [2, 6] if name == "G2" else list(EXCEPTIONAL_DEGREES[name])


@pytest.mark.parametrize("name", FINITE_NAMES)
def test_finite_presets_are_the_bourbaki_matrices(name):
    """A, B, D, E and F in Bourbaki order, C_n the transpose of B_n, and G2
    with node 1 short."""
    family, rank = name[0], int(name[1:])
    if family == "C":
        expected = [list(column) for column in zip(*bourbaki_cartan("B", rank))]
    elif family == "G":
        expected = [[2, -1], [-3, 2]]
    else:
        expected = bourbaki_cartan(family, rank)
    assert finite_preset(name).a == tuple(map(tuple, expected))


@pytest.mark.parametrize("name", FINITE_NAMES)
def test_finite_presets_have_their_degrees_and_group_orders(name):
    cartan = finite_preset(name)
    degrees = classified_degrees(name)
    assert cartan.to_coxeter().degrees(range(cartan.n)) == degrees
    assert exponents(cartan) == [d - 1 for d in degrees]
    assert sum(poincare_poly(cartan).coeffs) == weyl_order(name)
    if cartan.n <= 5 or name == "E6":
        assert list(poincare_poly(cartan).coeffs) == rho_orbit_layers(cartan.a, None)


@pytest.mark.parametrize("name", AFFINE_NAMES)
def test_affine_presets_pass_both_identities_and_the_orbit_oracle(name):
    """Bott's series to degree 30, the alternating sum at q = 2 and 3, and
    the growth series against the rho-orbit enumeration: to length 20 up to
    finite rank 4, and to length 8 above, where length 20 takes minutes."""
    pair = affine_preset(name)
    assert bott_check(pair.finite, pair.affine, 30)
    assert alternating_sum_identity(pair, 2) and alternating_sum_identity(pair, 3)
    length = 20 if pair.finite.n <= 4 else 8
    assert enumerate_by_length(pair.affine, length) == rho_orbit_layers(pair.affine.a, length)


def test_preset_ranks_stop_at_the_cap():
    assert max(n for ranks in PRESET_RANKS.values() for n in ranks) == PRESET_RANK_CAP == 8
    for family in "ABCD":
        with pytest.raises(ValidationError, match="unknown finite type preset"):
            finite_preset(f"{family}{PRESET_RANK_CAP + 1}")


@pytest.mark.parametrize("name", ["E6", "A6", "B5", "D5", "F4"])
def test_degrees_match_rho_orbit_oracle_on_permuted_matrices(name):
    """Poincaré polynomial and exponents from the classified degrees equal
    the layer sizes of the rho-orbit enumeration and the t-analogue
    factorization found by trial division, in Bourbaki and shuffled order."""
    a = bourbaki_cartan(name[0], int(name[1:]))
    layers = rho_orbit_layers(a, None)
    for matrix in (a, permuted(a, random.Random(name))):
        cartan = CartanMatrix(matrix)
        assert list(poincare_poly(cartan).coeffs) == layers
        assert exponents(cartan) == trial_division_exponents(layers)


def test_trial_division_oracle():
    assert trial_division_exponents([1, 1]) == [1]
    assert trial_division_exponents([1, 2, 2, 1]) == [1, 2]
    assert trial_division_exponents([1, 0, 1]) is None


def test_degrees_of_non_crystallographic_and_reducible_types():
    # the product of the degrees is the group order
    for m, order in (
        ([[1, 5, 2], [5, 1, 3], [2, 3, 1]], 120),  # H3
        ([[1, 5, 2, 2], [5, 1, 3, 2], [2, 3, 1, 3], [2, 2, 3, 1]], 14400),  # H4
        ([[1, 7], [7, 1]], 14),  # I2(7)
        ([[1, 2, 3], [2, 1, 2], [3, 2, 1]], 12),  # A2 x A1
    ):
        assert math.prod(CoxeterSystem(m).degrees(range(len(m)))) == order


def test_poincare_poly_on_infinite_type_raises_at_once():
    for a in ([[2, -2], [-2, 2]], [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]):
        with pytest.raises(ValidationError, match="infinite type"):
            poincare_poly(CartanMatrix(a))
        with pytest.raises(ValidationError, match="infinite type"):
            exponents(CartanMatrix(a))


def test_poincare_polynomials():
    assert poincare_poly(finite_preset("A1")).coeffs == (1, 1)
    assert poincare_poly(finite_preset("A2")).coeffs == (1, 2, 2, 1)
    assert poincare_poly(finite_preset("B2")).coeffs == (1, 2, 2, 2, 1)


POLYNOMIALS = ([], [0], [5], [1, 1], [-3, 0, 2], [1, 4, 9, 16, 25], [0, 0, -7, 1, 0, 3])
POINTS = (0, 1, -1, 2, -5, 13, 10**20, Fraction(0), Fraction(3), Fraction(1, 2), Fraction(-7, 3))


@pytest.mark.parametrize("coeffs", POLYNOMIALS)
def test_polynomial_value_matches_the_fraction_route(coeffs):
    poly = IntPolynomial(coeffs)
    for x in POINTS:
        value = poly(x)
        expected = fraction_polynomial_value(coeffs, x)
        assert value == expected
        assert type(value) is type(expected), (coeffs, x)
    rng = random.Random(len(coeffs))
    for _ in range(20):
        x = rng.randint(-10**6, 10**6)
        assert poly(x) == fraction_polynomial_value(coeffs, x)
        assert type(poly(x)) is int


def test_poincare_at_one_is_group_order_and_palindromic():
    expected_orders = {"A1": 2, "A2": 6, "B2": 8, "G2": 12, "A3": 24}
    for name, order in expected_orders.items():
        poly = poincare_poly(finite_preset(name))
        assert poly(1) == order
        assert poly.coeffs == poly.coeffs[::-1]
        ms = exponents(finite_preset(name))
        total = 1
        for m in ms:
            total *= m + 1
        assert total == order


def test_exponents_values():
    assert exponents(finite_preset("A1")) == [1]
    assert exponents(finite_preset("A2")) == [1, 2]
    assert exponents(finite_preset("B2")) == [1, 3]
    assert exponents(finite_preset("G2")) == [1, 5]
    assert exponents(finite_preset("B3")) == [1, 3, 5]


def test_poincare_from_degrees_matches_enumeration():
    for name in ("A1", "A2", "B2", "G2", "A3", "B3", "D4"):
        cartan = finite_preset(name)
        degrees = cartan.to_coxeter().degrees(range(cartan.n))
        assert list(poincare_from_degrees(degrees).coeffs) == rho_orbit_layers(cartan.a, None)


def test_bott_identity():
    pair = affine_preset("affine A1")
    assert bott_check(pair.finite, pair.affine, 8)
    pair2 = affine_preset("affine A2")
    assert bott_check(pair2.finite, pair2.affine, 10)
    assert bott_check(pair.finite, pair.affine, 0)


def test_alternating_sum_identity_hand_value():
    # frozen by hand: subsets {}, {0}, {1} give -1 + 1/3 + 1/3 = -1/3 and the
    # series value is 3 / (1 - 2) = -3, so both sides are -1/3
    pair = affine_preset("affine A1")
    assert alternating_sum_identity(pair, 2)


@pytest.mark.parametrize("name", ["affine A1", "affine A2", "affine C2"])
@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_alternating_sum_identity_family(name, q):
    assert alternating_sum_identity(affine_preset(name), q)


def test_alternating_sum_identity_fractional_q():
    assert alternating_sum_identity(affine_preset("affine A1"), Fraction(3, 2))


@pytest.mark.parametrize("name, finite", [(f"affine {name}", name) for name in FINITE_NAMES])
def test_affine_preset_finite_part_is_the_preset_without_node_zero(name, finite):
    pair = affine_preset(name)
    assert pair.finite.a == finite_preset(finite).a
    assert pair.finite.a == tuple(row[1:] for row in pair.affine.a[1:])


def test_affine_pair_validation():
    with pytest.raises(Exception):
        AffineCartanPair(finite_preset("A2"), finite_preset("A2"))


def test_json_loaders():
    c = load_coxeter({"size": 2, "m": [[1, "inf"], ["inf", 1]]})
    assert c.label(0, 1) == INFINITY
    cartan = load_cartan({"cartan": [[2, -1], [-1, 2]]})
    assert cartan.n == 2
    assert cartan.to_coxeter().label(0, 1) == 3
