"""Weyl groups of Cartan matrices, their growth series and the alternating
parahoric sum.

``CartanMatrix`` holds an integer generalized Cartan matrix; its Weyl
group is the Coxeter group whose labels its entry products give, a
``diagrams.CoxeterSystem``.  That module classifies the diagram and returns
its degrees; it does not load this module, so ``davis``, which needs only
the classifier, does not compile it.

Everything else is read off the degrees d_i (Humphreys, Reflection Groups
and Coxeter Groups, 3.7 and 5.12).  A finite W has the Poincaré polynomial
prod [d_i]_t and the exponents d_i - 1.  One scan,
``CoxeterSystem.spherical_subsets``, finds the spherical subsets T; one
alternating sum over those other than the whole generating set S,

    R(t) = sum of (-1)^|T| / W_T(t),

gives the parahoric sum of an affine diagram, -R(q), and, by Steinberg's
formula 1/W(1/t) = R(t) for an infinite W, its growth series.  No group
element is ever enumerated.

Only ``parahoric_sum`` and ``IntPolynomial`` at a non-``int`` point import
``fractions``, so no ``coxeter`` subcommand (``--poincare``, ``--exponents``,
``--bott``, ``--altsum`` at an ``int`` q) loads ``fractions`` or ``decimal``.
"""

from collections import Counter

from .diagrams import INFINITY, CoxeterSystem, _extensions
from .errors import ValidationError
from .records import Record

# `--bott N` expands two series to degree N; each coefficient costs one
# big-integer product per coefficient of the series' denominator
BOTT_DEGREE_CAP = 10_000


class NotCrystallographic(ValidationError):
    pass


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


class CartanMatrix:
    """Integer generalized Cartan matrix with finite/affine pairing bounds.

    Entry products a_ij * a_ji up to 4 are accepted (4 occurs for the
    rank-one affine diagram); anything larger is outside the finite/affine
    world this module treats.
    """

    __slots__ = ("n", "a")

    def __init__(self, a):
        if not isinstance(a, (list, tuple)) or not all(isinstance(row, (list, tuple)) for row in a):
            raise ValidationError("Cartan matrix must be a list of rows")
        for row in a:
            for v in row:
                if not isinstance(v, int) or isinstance(v, bool):
                    raise ValidationError(f"Cartan entry {v!r} is not an integer")
        self.a = tuple(tuple(row) for row in a)
        self.n = len(self.a)
        if any(len(row) != self.n for row in self.a):
            raise ValidationError("Cartan matrix is not square")
        for i in range(self.n):
            if self.a[i][i] != 2:
                raise ValidationError("Cartan diagonal must be 2")
            for j in range(self.n):
                if i == j:
                    continue
                if self.a[i][j] > 0:
                    raise ValidationError("off-diagonal Cartan entries must be <= 0")
                if (self.a[i][j] == 0) != (self.a[j][i] == 0):
                    raise ValidationError("Cartan zero pattern must be symmetric")
                product = self.a[i][j] * self.a[j][i]
                if product > 4:
                    raise NotCrystallographic(
                        f"pairing a[{i}][{j}]*a[{j}][{i}] = {product} exceeds the affine bound"
                    )

    def to_coxeter(self):
        """Coxeter matrix from entry products: 0,1,2,3,4 give 2,3,4,6,inf."""
        product_to_label = {0: 2, 1: 3, 2: 4, 3: 6, 4: INFINITY}
        m = [[1 if i == j else product_to_label[self.a[i][j] * self.a[j][i]] for j in range(self.n)] for i in range(self.n)]
        return CoxeterSystem(m)

    def to_json(self):
        return {"cartan": [list(row) for row in self.a]}


def load_cartan(data):
    if isinstance(data, dict):
        if "cartan" not in data:
            raise ValidationError("Cartan JSON needs a 'cartan' matrix")
        data = data["cartan"]
    return CartanMatrix(data)


def load_weyl_input(data):
    """``(finite, pair or None)`` from a Cartan matrix or a 'finite'/'affine' object."""
    if not (isinstance(data, dict) and ("finite" in data or "affine" in data)):
        return load_cartan(data), None
    if "finite" not in data:
        raise ValidationError("an 'affine' matrix needs its 'finite' part")
    finite = load_cartan(data["finite"])
    return finite, AffineCartanPair(finite, load_cartan(data["affine"])) if "affine" in data else None


def poincare_from_degrees(degrees):
    """The product of the t-analogues [d]_t over the degrees."""
    poly = IntPolynomial([1])
    for d in degrees:
        poly = poly * IntPolynomial.t_analogue(d)
    return poly


def _finite_degrees(cartan):
    degrees = cartan.to_coxeter().degrees(range(cartan.n))
    if degrees is None:
        raise ValidationError("the Cartan matrix is of infinite type; its Poincaré polynomial and exponents need finite type")
    return degrees


def poincare_poly(cartan):
    """Length generating polynomial of a finite-type Cartan matrix, the
    product of [d]_t over its degrees."""
    return poincare_from_degrees(_finite_degrees(cartan))


def exponents(cartan):
    """The exponents m_i = d_i - 1 of a finite-type Cartan matrix, ascending."""
    return [d - 1 for d in _finite_degrees(cartan)]


def _alternating_sum(parabolics):
    """R(t) = sum of (-1)^|T| / W_T(t) over the (T, degrees of W_T) pairs
    ``parabolics``, as (numerator, denominator).

    The denominator is the product of [d]_t^(m_d), with m_d the largest
    number of times d is a degree of one W_T.  It is monic and palindromic,
    and it vanishes exactly where some W_T does.  Only T = {} reaches its
    degree in the numerator, so the numerator is monic of the same degree.
    """
    signs = Counter()  # subsets with the same degrees share one term
    for subset, degrees in parabolics:
        signs[tuple(degrees)] += -1 if len(subset) % 2 else 1
    most = Counter()
    for degrees in signs:
        most |= Counter(degrees)
    denominator = poincare_from_degrees(most.elements())
    numerator = [0] * len(denominator.coeffs)
    for degrees, sign in signs.items():
        for k, c in enumerate(poincare_from_degrees((most - Counter(degrees)).elements()).coeffs):
            numerator[k] += sign * c
    return IntPolynomial(numerator), denominator


def _series(numerator, denominator, truncation):
    """Coefficients 0..truncation of numerator / denominator, given as
    coefficient sequences with denominator[0] == 1."""
    num = list(numerator) + [0] * (truncation + 1)
    out = []
    for k in range(truncation + 1):
        out.append(num[k] - sum(denominator[j] * out[k - j] for j in range(1, min(k, len(denominator) - 1) + 1)))
    return out


def enumerate_by_length(cartan, max_len):
    """Word-length layer sizes of the Weyl group, lengths 0..max_len.

    A finite group gives its Poincaré polynomial, zero-padded past the
    longest element.  An infinite one gives its growth series W(t) by
    Steinberg's formula 1/W(1/t) = R(t) = A(t)/D(t): D is palindromic of
    the degree of A, so W(t) = D(t) / (A with its coefficients reversed).
    """
    system = cartan.to_coxeter()
    if system.is_spherical(range(cartan.n)):
        coeffs = poincare_poly(cartan).coeffs[: max_len + 1]
        return list(coeffs) + [0] * (max_len + 1 - len(coeffs))
    numerator, denominator = _alternating_sum(system.spherical_subsets())
    return _series(denominator.coeffs, numerator.coeffs[::-1], max_len)


def affine_series(finite_poly, exps, truncation):
    """Coefficients 0..truncation of finite_poly / prod(1 - t^m)."""
    denominator = IntPolynomial([1])
    for m in exps:
        denominator = denominator * IntPolynomial([1] + [0] * (m - 1) + [-1])
    return _series(finite_poly.coeffs, denominator.coeffs, truncation)


def bott_check(finite_cartan, affine_cartan, truncation):
    """Whether the growth series of the affine group agrees with Bott's
    p(t) / prod(1 - t^{m_i}), built from the finite part, coefficient by
    coefficient up to the truncation degree."""
    if truncation < 0:
        raise ValidationError("the truncation degree must be non-negative")
    if truncation > BOTT_DEGREE_CAP:
        raise ValidationError(f"the truncation degree {truncation} is above BOTT_DEGREE_CAP = {BOTT_DEGREE_CAP}")
    series = affine_series(poincare_poly(finite_cartan), exponents(finite_cartan), truncation)
    return series == enumerate_by_length(affine_cartan, truncation)


class AffineCartanPair(Record):
    """An affine Cartan matrix together with its finite part.

    The pairing is supplied by the caller or a preset; nothing here tries
    to locate the extending node on its own.
    """

    __slots__ = ("finite", "affine")

    def __post_init__(self):
        if self.affine.n != self.finite.n + 1:
            raise ValidationError("affine rank must exceed finite rank by one")
        if self.affine.n < 2:
            raise ValidationError("no affine diagram below rank two")


def _proper_parabolics(affine):
    """The (T, degrees of W_T) pairs of the proper subsets T of the affine
    nodes.  Every proper subset must be of finite type; this holds for
    genuine affine diagrams.  Otherwise the first infinite one, by size and
    then lexicographically, is named: its size is the smallest, so it
    extends a spherical subset."""
    n = affine.n
    parabolics = [(T, degrees) for T, degrees in affine.to_coxeter().spherical_subsets() if len(T) < n]
    if len(parabolics) < 2 ** n - 1:
        found = {T for T, _ in parabolics}
        first = next(U for T, _ in parabolics for U in _extensions(T, n) if U not in found)
        raise ValidationError(f"proper subset {first} is not finite type")
    return parabolics


def parahoric_sum(affine, q):
    """The exact alternating sum over proper subsets I of the affine nodes,

        sum of (-1)^(|I| - 1) / p_{W(I)}(q)  =  -R(q),

    with p_{W(I)} the length generating polynomial of the parabolic
    subgroup on I (1 for the empty subset), as a ``Fraction``.
    """
    from fractions import Fraction

    numerator, denominator = _alternating_sum(_proper_parabolics(affine))
    q = Fraction(q)
    return -Fraction(numerator(q), denominator(q))


def alternating_sum_identity(pair, q):
    """Exact check of the proper-subset alternating sum identity.

    For the affine diagram on n+1 nodes, the claim verified is

        parahoric_sum(affine, q)  ==  (-1)^(n + 1) / ptilde(q),

    with ptilde(q) = p(q) / prod(1 - q^{m_i}) from the finite part.  The
    sum is -A/D from ``_alternating_sum``, and the identity is checked
    cleared of the denominators, nonzero at q > 1, as
    -A(q) p(q) == (-1)^(n + 1) prod(1 - q^{m_i}) D(q): in ``int`` at an
    ``int`` q, and on the same path at a ``Fraction`` q.
    """
    if q <= 1:
        raise ValidationError("the identity is evaluated at q > 1")
    numerator, denominator = _alternating_sum(_proper_parabolics(pair.affine))
    product = 1
    for m in exponents(pair.finite):
        product *= 1 - q ** m
    sign = (-1) ** (pair.finite.n + 1)
    return -numerator(q) * poincare_poly(pair.finite)(q) == sign * product * denominator(q)


# -- preset tables -----------------------------------------------------------------

FINITE_CARTAN = {
    "A1": CartanMatrix([[2]]),
    "A2": CartanMatrix([[2, -1], [-1, 2]]),
    "A3": CartanMatrix([[2, -1, 0], [-1, 2, -1], [0, -1, 2]]),
    "A4": CartanMatrix([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]),
    "B2": CartanMatrix([[2, -2], [-1, 2]]),
    "C2": CartanMatrix([[2, -2], [-1, 2]]),
    "B3": CartanMatrix([[2, -1, 0], [-1, 2, -2], [0, -1, 2]]),
    "G2": CartanMatrix([[2, -3], [-1, 2]]),
    "D4": CartanMatrix([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]),
    "F4": CartanMatrix([[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]),
}

AFFINE_CARTAN = {
    "affine A1": CartanMatrix([[2, -2], [-2, 2]]),
    "affine A2": CartanMatrix([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]),
    "affine A3": CartanMatrix(
        [[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 2, -1], [-1, 0, -1, 2]]
    ),
    "affine C2": CartanMatrix([[2, -1, 0], [-2, 2, -2], [0, -1, 2]]),
    "affine G2": CartanMatrix([[2, -1, 0], [-1, 2, -3], [0, -1, 2]]),
}

def finite_preset(name):
    try:
        return FINITE_CARTAN[name]
    except KeyError:
        raise ValidationError(f"unknown finite type preset {name!r}")


def affine_preset(name):
    """The affine preset ``name`` paired with its finite part; node 0 is
    the extending node of every preset."""
    try:
        affine = AFFINE_CARTAN[name]
    except KeyError:
        raise ValidationError(f"unknown affine preset {name!r}")
    return AffineCartanPair(CartanMatrix([row[1:] for row in affine.a[1:]]), affine)


def preset(name):
    """``(finite, pair or None)`` for an affine or a finite preset name."""
    if name in AFFINE_CARTAN:
        pair = affine_preset(name)
        return pair.finite, pair
    return finite_preset(name), None


def affine_pair_of(finite, name):
    """The affine preset whose finite part is ``finite``, of type ``name``."""
    for pair in map(affine_preset, AFFINE_CARTAN):
        if pair.finite.a == finite.a:
            return pair
    raise ValidationError(f"no affine preset paired with type {name!r}")
