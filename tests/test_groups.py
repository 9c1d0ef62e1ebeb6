import random
import re
import tracemalloc

import pytest

from oracles import is_associative, reference_group_table
from tdlcinv.errors import ValidationError
from tdlcinv.groups import GROUP_ORDER_CAP, FiniteGroup, Hom, NotAGroup, group_from_spec, load_rough_cayley


def test_cyclic_basics():
    c6 = FiniteGroup.cyclic(6)
    assert c6.order == 6
    assert c6.identity == 0
    assert c6.op(4, 5) == 3
    assert c6.inverse(2) == 4
    assert c6.element_order(1) == 6


def test_symmetric_and_alternating_orders():
    assert FiniteGroup.symmetric(3).order == 6
    assert FiniteGroup.symmetric(4).order == 24
    assert FiniteGroup.alternating(4).order == 12
    assert FiniteGroup.alternating(5).order == 60
    assert FiniteGroup.dihedral(4).order == 8


def test_direct_product():
    g = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(3))
    assert g.order == 6
    assert g.element_order(g.op(3, 1)) in (1, 2, 3, 6)


def test_from_table_validates():
    # broken associativity / missing inverses
    with pytest.raises(NotAGroup):
        FiniteGroup.from_table([[0, 1], [1, 1]])
    ok = FiniteGroup.from_table([[0, 1], [1, 0]])
    assert ok.order == 2
    for table in ([], 5, [[0, 1], [1]], [[0, 1], [1, 2]], [[0, -1], [1, 0]]):
        with pytest.raises(NotAGroup):
            FiniteGroup.from_table(table)


def _check_against_oracle(table):
    """``from_table`` blames associativity exactly when the oracle does, and
    names a triple at which it fails."""
    try:
        FiniteGroup.from_table(table)
        blamed = None
    except NotAGroup as exc:
        blamed = re.fullmatch(r"associativity fails at \((\d+), (\d+), (\d+)\)", str(exc))
    if is_associative(table):
        assert blamed is None
    else:
        a, b, c = map(int, blamed.groups())
        assert table[table[a][b]][c] != table[a][table[b][c]]


def _relabelled(table, rng):
    sigma = list(range(len(table)))
    rng.shuffle(sigma)
    out = [[0] * len(table) for _ in table]
    for a, row in enumerate(table):
        for b, ab in enumerate(row):
            out[sigma[a]][sigma[b]] = sigma[ab]
    return out


def test_from_table_associativity_matches_oracle_on_small_magmas():
    rng = random.Random(4)
    for _ in range(3000):
        n = rng.randint(1, 4)
        _check_against_oracle([[rng.randrange(n) for _ in range(n)] for _ in range(n)])


@pytest.mark.parametrize(
    "group",
    [
        FiniteGroup.direct_product(FiniteGroup.symmetric(4), FiniteGroup.cyclic(5)),
        FiniteGroup.dihedral(84),
    ],
    ids=["S4xC5", "D84"],
)
def test_from_table_matches_oracle_on_relabelled_groups(group):
    rng = random.Random(group.order)
    table = _relabelled(group.mult, rng)
    assert FiniteGroup.from_table(table).order == group.order
    _check_against_oracle(table)
    for _ in range(3):
        broken = [row[:] for row in table]
        a, b = rng.randrange(group.order), rng.randrange(group.order)
        broken[a][b] = (broken[a][b] + rng.randrange(1, group.order)) % group.order
        _check_against_oracle(broken)


def test_from_table_checks_associativity_at_every_order():
    table = [[(a + b) % 520 for b in range(520)] for a in range(520)]
    assert FiniteGroup.from_table(table).order == 520
    table[2][3] = 6
    with pytest.raises(NotAGroup, match="associativity"):
        FiniteGroup.from_table(table)


def _outcome(check, table):
    """What a check makes of a table: ``(mult, identity, inverses)``, or
    the ``NotAGroup`` message."""
    try:
        return check(table)
    except NotAGroup as exc:
        return str(exc)


def _library_check(table):
    group = FiniteGroup.from_table(table)
    return group.mult, group.identity, group.inv


def _assert_parity(table):
    assert _outcome(_library_check, table) == _outcome(reference_group_table, table)


def _small_groups():
    c = FiniteGroup.cyclic
    product = FiniteGroup.direct_product
    groups = [c(n) for n in range(1, 9)]
    groups += [product(c(2), c(2)), FiniteGroup.symmetric(3), product(c(2), c(4)),
               product(product(c(2), c(2)), c(2)), FiniteGroup.dihedral(4)]
    return groups


def _semigroups(n):
    """Associative tables that are not groups: constant (no identity when
    n > 1), left and right zero, max, min and multiplication mod n."""
    return [
        [[n - 1] * n for _ in range(n)],
        [[a] * n for a in range(n)],
        [list(range(n)) for _ in range(n)],
        [[max(a, b) for b in range(n)] for a in range(n)],
        [[min(a, b) for b in range(n)] for a in range(n)],
        [[a * b % n for b in range(n)] for a in range(n)],
    ]


def _corruptions(table, rng):
    """One changed product, each kind of bad entry at a random place, and
    a short row."""
    n = len(table)
    out = []
    a, b = rng.randrange(n), rng.randrange(n)
    if n > 1:
        broken = [row[:] for row in table]
        broken[a][b] = (broken[a][b] + rng.randrange(1, n)) % n
        out.append(broken)
    for bad in (True, False, 1.0, -1, n):
        broken = [row[:] for row in table]
        broken[a][b] = bad
        out.append(broken)
    broken = [row[:] for row in table]
    broken[a] = broken[a][:-1]
    out.append(broken)
    return out


@pytest.mark.parametrize(
    "table",
    [[[0]], [[0, 1], [1, 0]], [[1, 0], [0, 1]], [[0, 1], [1, 1]], [[1, 1], [1, 1]],
     [[0, True], [True, 0]], [[0, 1.0], [1, 0]], [[0, -1], [1, 0]], [[0, 2], [2, 0]],
     [[0, 1], [1]], [[0, 1], [1, 0], [0, 1]], [[]], [], (), 5, [5], "ab", [(0,)]],
)
def test_from_table_matches_reference_check_on_named_tables(table):
    _assert_parity(table)


def test_from_table_matches_reference_check_at_orders_one_to_eight():
    # the reference is the per-entry check that whole-row composition
    # replaced: same group or same message, byte for byte
    rng = random.Random(16)
    for n in range(1, 9):
        for _ in range(150):
            _assert_parity([[rng.randrange(n) for _ in range(n)] for _ in range(n)])
        for table in _semigroups(n):
            _assert_parity(table)
            _assert_parity(_relabelled(table, rng))
    for group in _small_groups():
        for _ in range(4):
            table = _relabelled(group.mult, rng)
            _assert_parity(table)
            for broken in _corruptions(table, rng):
                _assert_parity(broken)


def _order_336_table(rng):
    group = FiniteGroup.direct_product(FiniteGroup.symmetric(4), FiniteGroup.cyclic(14))
    return _relabelled(group.mult, rng)


def test_from_table_matches_reference_check_at_order_336():
    rng = random.Random(336)
    table = _order_336_table(rng)
    _assert_parity(table)
    for broken in _corruptions(table, rng):
        _assert_parity(broken)


def _traced_peak(build, table):
    """Peak bytes that ``build(table)`` allocates, by ``tracemalloc``."""
    tracemalloc.start()
    try:
        build(table)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_from_table_peaks_near_one_copy_of_the_table():
    # the check composes one row at a time: a flattened or transposed copy
    # of the table would double the peak
    table = _order_336_table(random.Random(7))
    copy_peak = _traced_peak(lambda t: tuple(tuple(row) for row in t), table)
    check_peak = _traced_peak(FiniteGroup.from_table, table)
    assert check_peak <= 1.25 * copy_peak


def test_subgroup_and_cosets():
    s3 = FiniteGroup.symmetric(3)
    transposition = next(a for a in s3.elements if s3.element_order(a) == 2)
    h = s3.subgroup([transposition])
    assert len(h) == 2
    reps = s3.left_coset_reps(h)
    assert len(reps) == 3
    assert s3.is_subgroup(h)
    assert not s3.is_subgroup((0, transposition, 5) if transposition != 5 else (0, 1, transposition))


def test_hom_from_generator_images():
    c2 = FiniteGroup.cyclic(2)
    c4 = FiniteGroup.cyclic(4)
    emb = Hom.from_generator_images(c2, c4, [1], [2])
    assert emb.is_homomorphism() and emb.is_injective()
    assert emb.image_set() == frozenset({0, 2})
    assert emb.section()[2] == 1


def test_hom_rejects_inconsistent_images():
    c2 = FiniteGroup.cyclic(2)
    c3 = FiniteGroup.cyclic(3)
    with pytest.raises(Exception):
        Hom.from_generator_images(c2, c3, [1], [1])  # order 2 cannot map to order 3


@pytest.mark.parametrize(
    "generators, images",
    [([-1], [0]), ([True], [0]), ([1], [-4])],
)
def test_hom_rejects_non_element_ids(generators, images):
    with pytest.raises(ValidationError, match="element ids"):
        Hom.from_generator_images(FiniteGroup.cyclic(2), FiniteGroup.cyclic(4), generators, images)


def test_hom_detects_non_homomorphism():
    c4 = FiniteGroup.cyclic(4)
    bad = Hom(c4, c4, [0, 1, 0, 1])  # 1+1 maps to 0 but images add to 2
    assert not bad.is_homomorphism()


def test_group_from_spec():
    assert group_from_spec("C5").order == 5
    assert group_from_spec("S3").order == 6
    assert group_from_spec("1").order == 1
    assert group_from_spec("C2xC2").order == 4
    assert group_from_spec({"table": [[0, 1], [1, 0]]}).order == 2
    with pytest.raises(Exception):
        group_from_spec("Z")
    # out-of-range presets are invalid input, not constructor crashes
    for spec in ("C0", "S0", "D2", "1x", "C2xC0", "C\u00b2", "C" + "1" * 5000):
        with pytest.raises(ValidationError):
            group_from_spec(spec)


def test_preset_orders_stop_at_the_cap():
    assert GROUP_ORDER_CAP == 256
    for spec in ("C256", "D128", "C16xC16", "C2xD64"):
        assert group_from_spec(spec).order == GROUP_ORDER_CAP
    for spec, order in (("C257", 257), ("D129", 258), ("C2xD84", 336), ("C16xC32", 512), ("C2xC2xD64", 512)):
        message = f"group preset '{spec}' has order {order}, above GROUP_ORDER_CAP = {GROUP_ORDER_CAP}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            group_from_spec(spec)
    # an explicit table is not capped
    order = GROUP_ORDER_CAP + 1
    table = [[(a + b) % order for b in range(order)] for a in range(order)]
    assert group_from_spec({"table": table}).order == order


def test_load_rough_cayley_closes_the_generators_under_inverses():
    group, subgroup_gens, generators = load_rough_cayley({"group": "C5", "subgroup_gens": [0], "generators": [3, 1]})
    # in C5 the inverses of 3 and 1 are 2 and 4
    assert (group.order, subgroup_gens, generators) == (5, [0], [1, 2, 3, 4])
    group, subgroup_gens, generators = load_rough_cayley({"group": "S3"})
    assert (group.order, subgroup_gens, generators) == (6, [], [])
