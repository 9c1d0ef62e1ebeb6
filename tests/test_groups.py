import random
import re

import pytest

from oracles import is_associative
from tdlcinv.errors import ValidationError
from tdlcinv.groups import FiniteGroup, Hom, NotAGroup, group_from_spec


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
    for spec in ("C0", "S0", "D2", "1x", "C2xC0"):
        with pytest.raises(ValidationError):
            group_from_spec(spec)
