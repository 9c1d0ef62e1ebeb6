"""Coxeter diagrams and the classifier of their finite components.

``CoxeterSystem`` holds a Coxeter matrix (labels 2, 3, ..., infinity) and
classifies every connected component of a diagram as A_n, B_n, D_n,
E6-E8, F4, H3, H4 or I2(m), returning the degrees of that type, or None
when the component is of infinite type.  No irrational arithmetic is ever
needed.  Its scan ``spherical_subsets`` lists the spherical subsets with
their degrees, which is all that ``davis`` reads of a Coxeter group.

This module imports no other part of the package but ``errors``; a
Cartan-matrix input is read, through ``coxeter.load_cartan``, only when
``load_system`` is given one.
"""

import math
from collections import Counter
from itertools import combinations

from .errors import ValidationError

INFINITY = math.inf

# generators a system may have for its subsets to be scanned: up to 2^n
GENERATOR_CAP = 16


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


def _json_label(v, i, j):
    if v in ("inf", "Inf", None):
        return INFINITY
    if not isinstance(v, int):  # a float too, 1e400 (read as infinity) included
        raise ValidationError(f'label m[{i}][{j}] = {v!r} is not an integer; an infinite label is "inf" or null')
    return v


def load_coxeter(data):
    """Read {"size": n, "m": [[...]]}: integer labels, with the tokens
    "inf", "Inf" and null for infinite ones."""
    if not isinstance(data, dict) or "m" not in data:
        raise ValidationError("Coxeter JSON needs an 'm' matrix")
    if not isinstance(data["m"], list) or not all(isinstance(row, list) for row in data["m"]):
        raise ValidationError("Coxeter matrix 'm' must be a list of rows")
    rows = [[_json_label(v, i, j) for j, v in enumerate(row)] for i, row in enumerate(data["m"])]
    system = CoxeterSystem(rows)
    if "size" in data and (type(data["size"]) is not int or data["size"] != system.n):
        raise ValidationError("declared size is not the integer size of the matrix")
    return system


def load_system(data):
    """A Coxeter system from an 'm' (Coxeter) or a 'cartan' matrix."""
    if isinstance(data, dict):
        if "m" in data:
            return load_coxeter(data)
        if "cartan" in data:
            from .coxeter import load_cartan

            return load_cartan(data).to_coxeter()
    raise ValidationError("expected an 'm' (Coxeter) or 'cartan' matrix")


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
