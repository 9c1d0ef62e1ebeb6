"""Coxeter systems and crystallographic Weyl group enumeration.

Two input layers coexist:

* ``CoxeterSystem`` holds a Coxeter matrix (labels 2, 3, ..., infinity) and
  answers sphericity questions by matching connected diagram components
  against the classified finite-type list.  No irrational arithmetic is
  ever needed.
* ``CartanMatrix`` holds an integer generalized Cartan matrix and drives
  exact element enumeration: an element w of the Weyl group is held as the
  integer vector of pairings of w(rho) with the simple coroots, its negative
  coordinates are its left descents, and each element is reached from
  exactly one parent, so breadth-first search layers the group by word
  length without storing the elements it has already seen.

Poincaré counts, exponents, the affine/finite series identity and the
alternating parahoric-index sum are all exact integer or rational
computations on top of one breadth-first enumeration (``_length_layers``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import ValidationError

INFINITY = math.inf

DEFAULT_STATE_CAP = 10 ** 6


class StateExplosion(ValidationError):
    """Weyl group enumeration would pass the configured state cap."""


class NotAProductOfTAnalogues(ValidationError):
    pass


class NotCrystallographic(ValidationError):
    pass


def _check_coxeter_matrix(m):
    n = len(m)
    for i in range(n):
        if len(m[i]) != n:
            raise ValidationError("Coxeter matrix is not square")
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

    def is_spherical(self, subset):
        """Whether the parabolic subgroup on ``subset`` is finite, decided by
        diagram classification component by component."""
        subset = tuple(subset)
        if any(not 0 <= s < self.n for s in subset):
            raise ValidationError("subset uses unknown generators")
        return all(self._component_is_finite(c) for c in self.components(subset))

    def _component_is_finite(self, comp):
        k = len(comp)
        labels = [self.m[i][j] for i, j in combinations(comp, 2) if self.m[i][j] >= 3]
        if any(lab == INFINITY for lab in labels):
            return False
        if k == 1:
            return True
        if k == 2:
            return True  # dihedral with finite label
        if len(labels) != k - 1:
            return False  # connected with a cycle, or too many edges
        heavy = sorted(lab for lab in labels if lab >= 4)
        degrees = {i: 0 for i in comp}
        for i, j in combinations(comp, 2):
            if self.m[i][j] >= 3:
                degrees[i] += 1
                degrees[j] += 1
        branch = [i for i in comp if degrees[i] >= 3]
        if not heavy:
            if not branch:
                return True  # type A path
            if len(branch) > 1 or degrees[branch[0]] > 3:
                return False
            arms = sorted(self._arm_lengths(comp, branch[0]))
            if arms[0] == arms[1] == 1:
                return True  # type D
            return arms in ([1, 2, 2], [1, 2, 3], [1, 2, 4])  # E6, E7, E8
        if branch or len(heavy) > 1:
            return False
        label = heavy[0]
        heavy_edge = next(
            (i, j) for i, j in combinations(comp, 2) if self.m[i][j] == label
        )
        at_end = any(degrees[v] == 1 for v in heavy_edge)
        if label == 4:
            if at_end:
                return True  # type B
            return k == 4  # F4 is the only middle-4 path
        if label == 5:
            return at_end and k in (3, 4)  # H3, H4
        return False  # label >= 6 with rank >= 3

    def _arm_lengths(self, comp, branch_vertex):
        """Arm lengths of a tree-shaped component around its unique branch
        vertex (callers guarantee the shape)."""
        neighbors = [j for j in comp if j != branch_vertex and self.m[branch_vertex][j] >= 3]
        lengths = []
        for start in neighbors:
            length = 1
            prev, here = branch_vertex, start
            while True:
                nxt = [
                    j
                    for j in comp
                    if j not in (prev, here) and self.m[here][j] >= 3
                ]
                if not nxt:
                    break
                prev, here = here, nxt[0]
                length += 1
            lengths.append(length)
        return lengths

    def to_json(self):
        return {
            "size": self.n,
            "m": [["inf" if v == INFINITY else v for v in row] for row in self.m],
        }


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
    world this module enumerates.
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
        for i in range(self.n):
            if len(self.a[i]) != self.n:
                raise ValidationError("Cartan matrix is not square")
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

    def submatrix(self, subset):
        subset = tuple(sorted(subset))
        return CartanMatrix([[self.a[i][j] for j in subset] for i in subset])

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


def _length_layers(cartan, max_len, state_cap):
    """Word-length layer sizes of the Weyl group from length 0 on.

    An element w is held as the integer tuple c with c_k = <w(rho), a_k^v>,
    which is (1, ..., 1) at the identity.  The simple reflection s_i sends it
    to c_k - c_i * a[k][i] for every k (so c_i changes sign), and
    l(s_i w) > l(w) exactly when c_i > 0 (Kac, Infinite-dimensional Lie
    algebras, Lemma 3.11): the negative coordinates of w are its left
    descents.  Each element of positive length is kept only as the child
    s_i w of the one parent for which i is its smallest descent, so every
    element is produced exactly once and only the current layer is held.
    The search stops after length ``max_len``, or when a layer comes out
    empty; ``max_len=None`` runs until the group is exhausted.  It raises
    ``StateExplosion`` as soon as more than ``state_cap`` elements are found.
    """
    n = cartan.n
    # column i of the Cartan matrix: how s_i moves every coordinate
    columns = [tuple(cartan.a[k][i] for k in range(n)) for i in range(n)]
    moved = [tuple(k for k in range(n) if cartan.a[k][i]) for i in range(n)]
    frontier = [(1,) * n]
    counts = [1]
    found = 1
    while max_len is None or len(counts) <= max_len:
        next_frontier = []
        for c in frontier:
            lower = []  # the descents of w below i
            for i in range(n):
                ci = c[i]
                if ci < 0:
                    lower.append(i)
                    continue
                column = columns[i]
                # s_i w keeps a descent j < i unless s_i lifts it to positive
                for j in lower:
                    if c[j] < ci * column[j]:
                        break
                else:
                    child = list(c)
                    for k in moved[i]:
                        child[k] -= ci * column[k]
                    next_frontier.append(tuple(child))
            if found + len(next_frontier) > state_cap:
                raise StateExplosion(f"more than {state_cap} group elements enumerated, the state cap")
        if not next_frontier:
            break
        found += len(next_frontier)
        counts.append(len(next_frontier))
        frontier = next_frontier
    return counts


def enumerate_by_length(cartan, max_len, state_cap=DEFAULT_STATE_CAP):
    """Word-length layer sizes of the reflection group, lengths 0..max_len,
    zero-padded past the longest element of a finite group."""
    counts = _length_layers(cartan, max_len, state_cap)
    return counts + [0] * (max_len + 1 - len(counts))


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

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_one(self):
        return self.coeffs == (1,)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, IntPolynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __call__(self, x):
        value = Fraction(0)
        for c in reversed(self.coeffs):
            value = value * Fraction(x) + c
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

    def exact_div(self, divisor):
        """Quotient when the divisor (monic) divides exactly, else None."""
        if not divisor.coeffs or divisor.coeffs[-1] != 1:
            raise ValueError("divisor must be monic")
        remainder = list(self.coeffs)
        dd = divisor.degree
        if len(remainder) - 1 < dd:
            return None
        quotient = [0] * (len(remainder) - dd)
        for k in range(len(quotient) - 1, -1, -1):
            q = remainder[k + dd]
            quotient[k] = q
            if q:
                for i, c in enumerate(divisor.coeffs):
                    remainder[k + i] -= q * c
        if any(remainder):
            return None
        return IntPolynomial(quotient)

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)})"


def poincare_poly(cartan, state_cap=DEFAULT_STATE_CAP):
    """Length generating polynomial of a finite-type Cartan matrix.

    The enumeration must terminate; a non-terminating (affine or worse)
    input hits the state cap and raises ``StateExplosion``.
    """
    return IntPolynomial(_length_layers(cartan, None, state_cap))


def exponents(poly):
    """The multiset m_i with the polynomial equal to the product of the
    t-analogues of length m_i + 1.

    Trial division from the largest candidate degree downward: any
    t-analogue divisor has degree at most the largest true factor, and that
    largest factor always divides, so the greedy choice is safe.  The
    factorization is re-multiplied and checked exactly before returning.
    """
    if not poly or poly.coeffs[0] != 1:
        raise NotAProductOfTAnalogues("constant term must be 1")
    found = []
    remaining = poly
    while not remaining.is_one():
        for d in range(remaining.degree + 1, 1, -1):
            quotient = remaining.exact_div(IntPolynomial.t_analogue(d))
            if quotient is not None:
                found.append(d - 1)
                remaining = quotient
                break
        else:
            raise NotAProductOfTAnalogues(f"no t-analogue divides {remaining!r}")
    found.sort()
    check = IntPolynomial([1])
    for m in found:
        check = check * IntPolynomial.t_analogue(m + 1)
    if check != poly:
        raise NotAProductOfTAnalogues("re-multiplication check failed")
    return found


def affine_series(finite_poly, exps, truncation):
    """Coefficients 0..truncation of finite_poly / prod(1 - t^m)."""
    denominator = IntPolynomial([1])
    for m in exps:
        factor = [0] * (m + 1)
        factor[0], factor[m] = 1, -1
        denominator = denominator * IntPolynomial(factor)
    num = list(finite_poly.coeffs) + [0] * (truncation + 1)
    den = denominator.coeffs
    out = []
    for k in range(truncation + 1):
        value = num[k] - sum(den[j] * out[k - j] for j in range(1, min(k, len(den) - 1) + 1))
        out.append(value)  # den[0] == 1
    return out


def bott_check(finite_cartan, affine_cartan, truncation, state_cap=DEFAULT_STATE_CAP):
    """Whether the affine length counts match the finite series expansion.

    Compares the breadth-first layer sizes of the affine group with the
    truncated expansion of p(t) / prod(1 - t^{m_i}) built from the finite
    group, coefficient by coefficient up to the truncation degree.  The
    series predicts how many elements the enumeration will find, so a
    truncation past the state cap is refused before enumerating.
    """
    if truncation < 0:
        raise ValidationError("the truncation degree must be non-negative")
    finite_poly = poincare_poly(finite_cartan, state_cap)
    exps = exponents(finite_poly)
    series = affine_series(finite_poly, exps, truncation)
    if sum(series) > state_cap:
        raise StateExplosion(
            f"the series predicts {sum(series)} elements up to length {truncation}, "
            f"more than the state cap of {state_cap}"
        )
    counts = enumerate_by_length(affine_cartan, truncation, state_cap)
    return series == counts


@dataclass(frozen=True)
class AffineCartanPair:
    """An affine Cartan matrix together with its finite part.

    The pairing is supplied by the caller or a preset; nothing here tries
    to locate the extending node on its own.
    """

    finite: CartanMatrix
    affine: CartanMatrix

    def __post_init__(self):
        if self.affine.n != self.finite.n + 1:
            raise ValidationError("affine rank must exceed finite rank by one")
        if self.affine.n < 2:
            raise ValidationError("no affine diagram below rank two")


def parahoric_sum(affine, q, state_cap=DEFAULT_STATE_CAP):
    """The exact alternating sum over proper subsets I of the affine nodes,

        sum of (-1)^(|I| - 1) / p_{W(I)}(q),

    with p_{W(I)} the length generating polynomial of the parabolic
    subgroup on I (1 for the empty subset).  Every proper subset must be
    of finite type; this holds for genuine affine diagrams and is
    validated subset by subset.
    """
    q = Fraction(q)
    coxeter_view = affine.to_coxeter()
    total = Fraction(0)
    for size in range(affine.n):
        for subset in combinations(range(affine.n), size):
            if not coxeter_view.is_spherical(subset):
                raise ValidationError(f"proper subset {subset} is not finite type")
            value = poincare_poly(affine.submatrix(subset), state_cap)(q) if subset else 1
            sign = 1 if size % 2 else -1  # (-1) to the (size - 1)
            total += sign / Fraction(value)
    return total


def alternating_sum_identity(pair, q, state_cap=DEFAULT_STATE_CAP):
    """Exact check of the proper-subset alternating sum identity.

    For the affine diagram on n+1 nodes, the claim verified is

        parahoric_sum(affine, q)  ==  (-1)^(n + 1) / ptilde(q),

    with ptilde(q) = p(q) / prod(1 - q^{m_i}) evaluated exactly from the
    finite part.
    """
    q = Fraction(q)
    if q <= 1:
        raise ValidationError("the identity is evaluated at q > 1")
    total = parahoric_sum(pair.affine, q, state_cap)
    finite_poly = poincare_poly(pair.finite, state_cap)
    denominator = Fraction(1)
    for m in exponents(finite_poly):
        denominator *= 1 - q ** m
    ptilde = Fraction(finite_poly(q)) / denominator
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

AFFINE_FINITE_PART = {
    "affine A1": "A1",
    "affine A2": "A2",
    "affine A3": "A3",
    "affine C2": "C2",
    "affine G2": "G2",
}

# degrees d_i of the classified finite types, including the
# non-crystallographic ones that enumeration cannot reach
CLASSIFIED_DEGREES = {
    "A1": (2,),
    "A2": (2, 3),
    "A3": (2, 3, 4),
    "A4": (2, 3, 4, 5),
    "B2": (2, 4),
    "C2": (2, 4),
    "B3": (2, 4, 6),
    "G2": (2, 6),
    "D4": (2, 4, 4, 6),
    "F4": (2, 6, 8, 12),
    "H3": (2, 6, 10),
    "H4": (2, 12, 20, 30),
    "E6": (2, 5, 6, 8, 9, 12),
    "E7": (2, 6, 8, 10, 12, 14, 18),
    "E8": (2, 8, 12, 14, 18, 20, 24, 30),
}


def poincare_from_degrees(degrees):
    """Classified Poincaré polynomial: the product of [d]_t over the degrees."""
    poly = IntPolynomial([1])
    for d in degrees:
        poly = poly * IntPolynomial.t_analogue(d)
    return poly


def finite_preset(name):
    try:
        return FINITE_CARTAN[name]
    except KeyError:
        raise ValidationError(f"unknown finite type preset {name!r}")


def affine_preset(name):
    try:
        return AffineCartanPair(FINITE_CARTAN[AFFINE_FINITE_PART[name]], AFFINE_CARTAN[name])
    except KeyError:
        raise ValidationError(f"unknown affine preset {name!r}")
