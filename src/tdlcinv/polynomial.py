"""Polynomials with integer coefficients, for ``coxeter``.

A leaf module, so that ``coxeter`` stays under 4096 tokens: past that,
CPython 3.11's parser doubles its token buffer, and every job that
compiles ``coxeter`` without cached bytecode peaks about 0.3 MB higher.
"""


class IntPolynomial:
    """Polynomial with integer coefficients, trailing zeros trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [int(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @classmethod
    def t_analogue(cls, d):
        """1 + t + ... + t^(d-1)."""
        if d < 1:
            raise ValueError("t-analogue needs d >= 1")
        return cls([1] * d)

    def __eq__(self, other):
        if isinstance(other, IntPolynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __call__(self, x):
        """The value at ``x`` by Horner's rule: an ``int`` whenever it is
        integral, else a ``Fraction``.  An ``int`` point is evaluated in
        ``int`` arithmetic; any other point is read by ``Fraction(x)``."""
        if not isinstance(x, int):
            from fractions import Fraction

            x = Fraction(x)
        value = 0
        for c in reversed(self.coeffs):
            value = value * x + c
        return value if value.denominator != 1 else value.numerator

    def __mul__(self, other):
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return IntPolynomial([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)})"
