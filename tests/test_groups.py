import pytest

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
