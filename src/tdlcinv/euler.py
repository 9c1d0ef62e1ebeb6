"""Haar-measure-valued Euler characteristics.

``HaarValue``, ``UnknownIndex`` and ``TRIVIAL_BASE`` live in ``haar``, which
loads neither this module nor ``coxeter``; they are imported here, so
``euler.HaarValue`` is the same class.

``chi_from_resolution`` evaluates the alternating sum of permutation-module
ranks over a finite resolution description: each summand is the measure
normalized at a subgroup containing the common base with known index.
``chevalley_chi`` and ``chi_via_parahoric_sum`` are the two independent
closed forms for simple groups over a local field with residue size q,
both normalized at the chamber stabilizer label "Iw".
"""

from fractions import Fraction

from .coxeter import AffineCartanPair, exponents, parahoric_sum, poincare_poly
from .errors import ValidationError
from .haar import TRIVIAL_BASE, HaarValue, UnknownIndex
from .records import Record

IWAHORI_BASE = "Iw"


def hs_rank_permutation(base):
    """Rank of the permutation module on cosets of the labelled subgroup:
    exactly the measure normalized there."""
    return HaarValue(1, base)


class ResolutionDescription(Record):
    """Finite resolution datum: per degree, summands given by subgroup
    labels with their index over a common base subgroup.

    ``degrees[k]`` lists ``(label, index)`` pairs; the index is the
    (positive integer) index of the base inside the labelled subgroup, so
    the summand contributes measure 1/index over the base.  A missing index
    (None) raises ``UnknownIndex`` on evaluation.
    """

    __slots__ = ("base", "degrees")

    @classmethod
    def build(cls, base, degrees):
        packed = tuple(tuple((label, index) for label, index in layer) for layer in degrees)
        return cls(base, packed)


def chi_from_resolution(description):
    """Alternating sum of the permutation-module ranks of a resolution."""
    total = Fraction(0)
    for k, layer in enumerate(description.degrees):
        sign = -1 if k % 2 else 1
        for label, index in layer:
            if index is None:
                raise UnknownIndex(f"no index known for subgroup {label!r}")
            index = int(index)
            if index <= 0:
                raise UnknownIndex(f"index for {label!r} must be positive")
            total += Fraction(sign, index)
    return HaarValue(total, description.base)


def chevalley_chi(finite_cartan, q):
    """Closed-form Euler characteristic over the Iwahori normalization.

    Exact value: minus the product of (q^{m_i} - 1) over the exponents,
    divided by the length generating polynomial evaluated at q.  Strictly
    negative for every finite type and every q >= 2.
    """
    if int(q) != q or q < 2:
        raise ValidationError("q must be an integer >= 2")
    q = int(q)
    poly = poincare_poly(finite_cartan)
    numerator = 1
    for m in exponents(finite_cartan):
        numerator *= q ** m - 1
    return HaarValue(Fraction(-numerator, poly(q)), IWAHORI_BASE)


def chi_via_parahoric_sum(pair, q):
    """Euler characteristic as the alternating sum over parahoric classes.

    Parahoric classes correspond to proper subsets of the affine node set;
    the class of subset I contributes sign (-1)^(|I| - 1) with weight one
    over the subgroup of index p_{W(I)}(q) above the chamber stabilizer,
    which is ``coxeter.parahoric_sum``.  Agrees exactly with
    ``chevalley_chi`` on the finite part, which never enumerates the
    affine subsets.
    """
    if not isinstance(pair, AffineCartanPair):
        raise ValidationError("parahoric sum needs an affine/finite Cartan pair")
    if int(q) != q or q < 2:
        raise ValidationError("q must be an integer >= 2")
    return HaarValue(parahoric_sum(pair.affine, int(q)), IWAHORI_BASE)
