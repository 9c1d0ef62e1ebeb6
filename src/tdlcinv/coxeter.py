"""Coxeter systems, their growth series and the alternating parahoric sum.

Two input layers coexist:

* ``CoxeterSystem`` holds a Coxeter matrix (labels 2, 3, ..., infinity) and
  classifies every connected component of a diagram as A_n, B_n, D_n,
  E6-E8, F4, H3, H4 or I2(m), returning the degrees of that type, or None
  when the component is of infinite type.  No irrational arithmetic is
  ever needed.
* ``CartanMatrix`` holds an integer generalized Cartan matrix; its Weyl
  group is the Coxeter group whose labels its entry products give.

Everything else is read off the degrees d_i (Humphreys, Reflection Groups
and Coxeter Groups, 3.7 and 5.12).  A finite W has the Poincaré polynomial
prod [d_i]_t and the exponents d_i - 1.  One scan,
``CoxeterSystem.spherical_subsets``, finds the spherical subsets T; one
alternating sum over those other than the whole generating set S,

    R(t) = sum of (-1)^|T| / W_T(t),

gives the parahoric sum of an affine diagram, -R(q), and, by Steinberg's
formula 1/W(1/t) = R(t) for an infinite W, its growth series.  No group
element is ever enumerated.

Only the evaluators (``parahoric_sum``, ``alternating_sum_identity`` and
``IntPolynomial`` at a non-``int`` point) import ``fractions``, so the
length counts, exponents and series of ``coxeter --poincare``,
``--exponents`` and ``--bott`` load neither ``fractions`` nor ``decimal``.
"""

import math
from collections import Counter
from itertools import combinations

from .errors import ValidationError
from .polynomial import IntPolynomial
from .records import Record

INFINITY = math.inf

# `--bott N` expands two series to degree N; each coefficient costs one
# big-integer product per coefficient of the series' denominator
BOTT_DEGREE_CAP = 10_000

# generators a system may have for its subsets to be scanned: up to 2^n
GENERATOR_CAP = 16


class NotCrystallographic(ValidationError):
    pass


def _check_coxeter_matrix(m):
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValidationError("Coxeter matrix is not square")
    for i in range(n):
        if type(m[i][i]) is not int or m[i][i] != 1:
            raise ValidationError("Coxeter matrix diagonal must be 1")
        for j in range(n):
            if i == j:
                continue
            label = m[i][j]
            if label != m[j][i]:
                raise ValidationError("Coxeter matrix must be symmetric")
            if label != INFINITY and (not isinstance(label, int) or label < 2):
                raise ValidationError(f"label m[{i}][{j}] = {label!r} invalid")


class CoxeterSystem:
    """Generators 0..n-1 with a symmetric label matrix; infinity allowed."""

    __slots__ = ("n", "m")

    def __init__(self, m):
        self.m = tuple(tuple(row) for row in m)
        _check_coxeter_matrix(self.m)
        self.n = len(self.m)

    @property
    def generators(self):
        return range(self.n)

    def label(self, i, j):
        return self.m[i][j]

    def components(self, subset):
        """Connected components of the diagram restricted to ``subset``
        (edges are pairs with label at least 3)."""
        remaining = set(subset)
        out = []
        while remaining:
            seed = min(remaining)
            comp = {seed}
            frontier = [seed]
            while frontier:
                i = frontier.pop()
                for j in list(remaining - comp):
                    if self.m[i][j] >= 3:  # label 2 means no edge
                        comp.add(j)
                        frontier.append(j)
            out.append(tuple(sorted(comp)))
            remaining -= comp
        return out

    def degrees(self, subset):
        """Degrees of the parabolic subgroup on ``subset``, ascending, read
        off the classified type of each diagram component; None when the
        subgroup is infinite."""
        subset = tuple(subset)
        if any(not 0 <= s < self.n for s in subset):
            raise ValidationError("subset uses unknown generators")
        found = []
        for comp in self.components(subset):
            comp_degrees = self._component_degrees(comp)
            if comp_degrees is None:
                return None
            found.extend(comp_degrees)
        return sorted(found)

    def is_spherical(self, subset):
        """Whether the parabolic subgroup on ``subset`` is finite."""
        return self.degrees(subset) is not None

    def spherical_subsets(self):
        """Yield (T, degrees of W_T) for every spherical T, the empty set
        included, by size and then lexicographically.  Subsets of spherical
        sets are spherical, so only those extend to the next size."""
        if self.n > GENERATOR_CAP:
            raise ValidationError(f"{self.n} generators exceed GENERATOR_CAP = {GENERATOR_CAP}")
        layer = [((), [])]
        while layer:
            yield from layer
            classified = ((T, self.degrees(T)) for subset, _ in layer for T in _extensions(subset, self.n))
            layer = [(T, degrees) for T, degrees in classified if degrees is not None]

    def _component_degrees(self, comp):
        """Degrees of one connected component, or None when it is infinite."""
        k = len(comp)
        edges = [(i, j) for i, j in combinations(comp, 2) if self.m[i][j] >= 3]
        if any(self.m[i][j] == INFINITY for i, j in edges):
            return None
        if k == 1:
            return (2,)
        if k == 2:
            return (2, self.m[comp[0]][comp[1]])  # I2(m)
        if len(edges) != k - 1:
            return None  # connected with a cycle
        valence = Counter(v for edge in edges for v in edge)
        branch = [i for i in comp if valence[i] >= 3]
        heavy = [(i, j) for i, j in edges if self.m[i][j] >= 4]
        if not heavy:
            if not branch:
                return tuple(range(2, k + 2))  # A_k
            if len(branch) > 1 or valence[branch[0]] > 3:
                return None
            return self._star_degrees(comp, branch[0])
        if branch or len(heavy) > 1:
            return None
        (i, j), = heavy
        label = self.m[i][j]
        at_end = valence[i] == 1 or valence[j] == 1
        if label == 4 and at_end:
            return tuple(range(2, 2 * k + 1, 2))  # B_k
        if label == 4 and k == 4:
            return EXCEPTIONAL_DEGREES["F4"]  # the only path with a middle 4
        if label == 5 and at_end:
            return EXCEPTIONAL_DEGREES.get(f"H{k}")
        return None

    def _star_degrees(self, comp, centre):
        """Degrees of a simply laced tree whose one branch vertex ``centre``
        has three arms: D_k or E6-E8 by the arm lengths, else None."""
        arms = []
        for start in (j for j in comp if j != centre and self.m[centre][j] >= 3):
            length = 1
            prev, here = centre, start
            while True:
                nxt = [j for j in comp if j not in (prev, here) and self.m[here][j] >= 3]
                if not nxt:
                    break
                prev, here = here, nxt[0]
                length += 1
            arms.append(length)
        arms.sort()
        k = len(comp)
        if arms[:2] == [1, 1]:
            return tuple(sorted([*range(2, 2 * k - 1, 2), k]))  # D_k
        if arms[:2] == [1, 2]:
            return EXCEPTIONAL_DEGREES.get(f"E{k}")
        return None

    def to_json(self):
        return {
            "size": self.n,
            "m": [["inf" if v == INFINITY else v for v in row] for row in self.m],
        }


def _extensions(subset, n):
    """``subset`` plus one generator past its maximum, in lexicographic order."""
    return [subset + (g,) for g in range(subset[-1] + 1 if subset else 0, n)]


def load_coxeter(data):
    """Read {"size": n, "m": [[...]]} with "inf" tokens for infinite labels."""
    if not isinstance(data, dict) or "m" not in data:
        raise ValidationError("Coxeter JSON needs an 'm' matrix")
    if not isinstance(data["m"], list) or not all(isinstance(row, list) for row in data["m"]):
        raise ValidationError("Coxeter matrix 'm' must be a list of rows")
    rows = [[INFINITY if v in ("inf", "Inf", None) else v for v in row] for row in data["m"]]
    system = CoxeterSystem(rows)
    if "size" in data and (type(data["size"]) is not int or data["size"] != system.n):
        raise ValidationError("declared size is not the integer size of the matrix")
    return system


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


def load_system(data):
    """A Coxeter system from an 'm' (Coxeter) or a 'cartan' matrix."""
    if isinstance(data, dict):
        if "m" in data:
            return load_coxeter(data)
        if "cartan" in data:
            return load_cartan(data).to_coxeter()
    raise ValidationError("expected an 'm' (Coxeter) or 'cartan' matrix")


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


def parahoric_sum(affine, q):
    """The exact alternating sum over proper subsets I of the affine nodes,

        sum of (-1)^(|I| - 1) / p_{W(I)}(q)  =  -R(q),

    with p_{W(I)} the length generating polynomial of the parabolic
    subgroup on I (1 for the empty subset).  Every proper subset must be
    of finite type; this holds for genuine affine diagrams.  Otherwise the
    first infinite one, by size and then lexicographically, is named: its
    size is the smallest, so it extends a spherical subset.
    """
    from fractions import Fraction

    n = affine.n
    parabolics = [(T, degrees) for T, degrees in affine.to_coxeter().spherical_subsets() if len(T) < n]
    if len(parabolics) < 2 ** n - 1:
        found = {T for T, _ in parabolics}
        first = next(U for T, _ in parabolics for U in _extensions(T, n) if U not in found)
        raise ValidationError(f"proper subset {first} is not finite type")
    numerator, denominator = _alternating_sum(parabolics)
    q = Fraction(q)
    return -Fraction(numerator(q), denominator(q))


def alternating_sum_identity(pair, q):
    """Exact check of the proper-subset alternating sum identity.

    For the affine diagram on n+1 nodes, the claim verified is

        parahoric_sum(affine, q)  ==  (-1)^(n + 1) / ptilde(q),

    with ptilde(q) = p(q) / prod(1 - q^{m_i}) evaluated exactly from the
    finite part.
    """
    from fractions import Fraction

    q = Fraction(q)
    if q <= 1:
        raise ValidationError("the identity is evaluated at q > 1")
    total = parahoric_sum(pair.affine, q)
    denominator = Fraction(1)
    for m in exponents(pair.finite):
        denominator *= 1 - q ** m
    ptilde = Fraction(poincare_poly(pair.finite)(q)) / denominator
    n = pair.finite.n
    return total == Fraction((-1) ** (n + 1)) / ptilde


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

# degrees of the exceptional finite types, non-crystallographic H3 and H4
# included; those of A_n, B_n, D_n and I2(m) follow their rank
EXCEPTIONAL_DEGREES = {
    "E6": (2, 5, 6, 8, 9, 12),
    "E7": (2, 6, 8, 10, 12, 14, 18),
    "E8": (2, 8, 12, 14, 18, 20, 24, 30),
    "F4": (2, 6, 8, 12),
    "H3": (2, 6, 10),
    "H4": (2, 12, 20, 30),
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
