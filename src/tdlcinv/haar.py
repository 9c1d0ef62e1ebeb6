"""Haar-measure values.

A ``HaarValue`` is a rational multiple of the Haar measure normalized at a
compact open subgroup, identified only by a symbolic label.  Measures at
different base labels are never compared directly: ``rebase`` converts,
given the rational factor relating the two normalizations (for a base
contained in a larger subgroup with index k, the smaller-base measure is k
times the larger-base one).

This module imports nothing from the Coxeter or simplicial layers, so the
graph-of-groups code can value its Euler characteristics without loading
them; ``euler`` re-exports every name defined here.
"""

from fractions import Fraction

from .errors import ValidationError
from .records import Record

TRIVIAL_BASE = "1"


class UnknownIndex(ValidationError):
    pass


class HaarValue(Record):
    """coeff times the Haar measure with mass one on the subgroup ``base``."""

    __slots__ = ("coeff", "base")

    def __post_init__(self):
        object.__setattr__(self, "coeff", Fraction(self.coeff))

    def _require_same_base(self, other):
        if self.base != other.base:
            raise ValueError(f"cannot combine measures over {self.base!r} and {other.base!r}")

    def __add__(self, other):
        if not isinstance(other, HaarValue):
            return NotImplemented
        self._require_same_base(other)
        return HaarValue(self.coeff + other.coeff, self.base)

    def __sub__(self, other):
        if not isinstance(other, HaarValue):
            return NotImplemented
        self._require_same_base(other)
        return HaarValue(self.coeff - other.coeff, self.base)

    def __neg__(self):
        return HaarValue(-self.coeff, self.base)

    def __mul__(self, scalar):
        return HaarValue(self.coeff * Fraction(scalar), self.base)

    __rmul__ = __mul__

    def rebase(self, new_base, factor):
        """Express the value over a different normalizing subgroup.

        ``factor`` is the exact rational with (measure at the old base) ==
        factor times (measure at the new base); when the old base sits
        inside the new one with index k the factor is k.
        """
        factor = Fraction(factor)
        if factor <= 0:
            raise UnknownIndex(f"rebase factor must be positive, got {factor}")
        return HaarValue(self.coeff * factor, new_base)

    def is_negative(self):
        return self.coeff < 0

    def __str__(self):
        return f"{self.coeff}*mu[{self.base}]"
