"""Finite groups as multiplication tables.

Elements are the integers ``0..order-1``.  Groups built by the named
constructors are correct by construction; tables coming from external input
go through ``from_table``, which checks the group axioms in full at every
order.  The table must be n rows of n ``int`` entries in ``0..n-1``.
Associativity is proved by Light's test (Clifford–Preston, *The Algebraic
Theory of Semigroups* I, §1.2): the elements g with (a·g)·c = a·(g·c) for
all a and c form a submagma, so it suffices to check the identity for g in
a generating set of the table as a magma.  A greedy generating set costs
O(n²) to find and has at most 1 + log₂ n elements for a group, so the whole
check is O(n²·log n) instead of the O(n³) scan over all triples.  The work
runs a whole row at a time in C: for a generator b, ``itemgetter(*row b)``
maps row a to (a·(b·c) for each c), which must equal row a·b, so each row
takes at most 1 + log₂ n compositions.  The identity is the row equal to
``0..n-1``, found by one lookup in the table; the inverse of a is the first
b in row a with a·b the identity, once b·a is checked to be the identity
too.
"""

from operator import itemgetter

from .errors import ValidationError

# largest order of a preset group ("Cn", "Dn", "AxB"), checked before its
# table is built: "D128" (order 256) builds in about 0.5 s, since the
# permutation closure costs order**2 times the degree; explicit tables are
# not capped
GROUP_ORDER_CAP = 256


class NotAGroup(ValidationError):
    pass


def _checked_table(mult):
    """The table as a tuple of rows, once it is shown to be closed and
    associative; raises ``NotAGroup`` naming the first violation."""
    if not isinstance(mult, (list, tuple)) or not mult:
        raise NotAGroup("table must be a nonempty list of rows")
    n = len(mult)
    for row in mult:
        if not isinstance(row, (list, tuple)) or len(row) != n:
            raise NotAGroup(f"table must have {n} rows of length {n}")
        if set(map(type, row)) != {int} or min(row) < 0 or max(row) >= n:
            raise NotAGroup(f"table entries must be element ids 0..{n - 1}")
    table = tuple(tuple(row) for row in mult)
    if n == 1:
        # the one table [[0]] is associative; itemgetter(0) would also
        # return an entry, not a 1-tuple
        return table
    for b in _magma_generators(table):
        row_b = table[b]
        compose = itemgetter(*row_b)  # row a ↦ (a·(b·c) for c in 0..n-1)
        for a, row_a in enumerate(table):
            row_ab = table[row_a[b]]
            if row_ab != compose(row_a):
                c = next(c for c in range(n) if row_ab[c] != row_a[row_b[c]])
                raise NotAGroup(f"associativity fails at ({a}, {b}, {c})")
    return table


def _magma_generators(table):
    """A generating set of the table as a magma.

    Each generator is the smallest element not yet generated; the generated
    set is then closed under products in both orders, each new element being
    multiplied with every member once, so the closure costs O(n²) in all.
    Associativity and inverses are not assumed: they are what is checked.
    """
    n = len(table)
    generated = bytearray(n)
    count = 0
    generators = []
    members = []
    for g in range(n):
        if generated[g]:
            continue
        generators.append(g)
        generated[g] = 1
        count += 1
        pending = [g]
        while pending and count < n:
            x = pending.pop()
            members.append(x)
            row_x = table[x]
            for y in members:
                for z in (row_x[y], table[y][x]):
                    if not generated[z]:
                        generated[z] = 1
                        count += 1
                        pending.append(z)
    return generators


class FiniteGroup:
    __slots__ = ("order", "mult", "inv", "identity", "name")

    def __init__(self, mult, name="G", _trusted=False):
        table = tuple(tuple(row) for row in mult) if _trusted else _checked_table(mult)
        self.order = len(table)
        self.mult = table
        self.name = name
        try:
            identity = table.index(tuple(range(self.order)))
        except ValueError:
            raise NotAGroup("no identity element") from None
        self.identity = identity
        # In an associative table with e·x = x for all x, the first b with
        # a·b = e also has b·a = e whenever any b has both, so one lookup and
        # one check give the same inverse (or failure) as a search of all b.
        inverses = []
        for a, row in enumerate(table):
            b = row.index(identity) if identity in row else None
            if b is None or table[b][a] != identity:
                raise NotAGroup(f"element {a} has no inverse")
            inverses.append(b)
        self.inv = tuple(inverses)

    @classmethod
    def from_table(cls, table, name="G"):
        return cls(table, name=name, _trusted=False)

    # -- named constructors (trusted) ------------------------------------------

    @classmethod
    def trivial(cls):
        return cls(((0,),), name="1", _trusted=True)

    @classmethod
    def cyclic(cls, n):
        if n < 1:
            raise ValueError("cyclic group order must be positive")
        table = [[(a + b) % n for b in range(n)] for a in range(n)]
        return cls(table, name=f"C{n}", _trusted=True)

    @classmethod
    def from_permutations(cls, generators, name="G"):
        """Closure of permutation tuples under composition."""
        degree = len(generators[0]) if generators else 1
        identity = tuple(range(degree))
        elements = [identity]
        index = {identity: 0}
        frontier = [identity]
        while frontier:
            new_frontier = []
            for p in frontier:
                for g in generators:
                    q = tuple(p[g[i]] for i in range(degree))
                    if q not in index:
                        index[q] = len(elements)
                        elements.append(q)
                        new_frontier.append(q)
            frontier = new_frontier
        table = []
        for p in elements:
            table.append([index[tuple(p[q[i]] for i in range(degree))] for q in elements])
        return cls(table, name=name, _trusted=True)

    @classmethod
    def symmetric(cls, n):
        if n < 1 or n > 6:
            raise ValueError("symmetric constructor supports degrees 1..6")
        gens = []
        if n >= 2:
            gens.append((1, 0) + tuple(range(2, n)))
            gens.append(tuple(range(1, n)) + (0,))
        else:
            gens.append((0,))
        return cls.from_permutations(gens, name=f"S{n}")

    @classmethod
    def alternating(cls, n):
        if n < 3 or n > 6:
            raise ValueError("alternating constructor supports degrees 3..6")
        gens = [(1, 2, 0) + tuple(range(3, n))]
        if n >= 4:
            if n % 2:
                gens.append(tuple(range(1, n)) + (0,))
            else:
                gens.append((0,) + tuple(range(2, n)) + (1,))
        return cls.from_permutations(gens, name=f"A{n}")

    @classmethod
    def dihedral(cls, n):
        """Dihedral group of order 2n acting on an n-gon (n >= 3)."""
        if n < 3:
            raise ValueError("dihedral constructor needs n >= 3; use cyclic/products below that")
        rotation = tuple((i + 1) % n for i in range(n))
        reflection = tuple((n - i) % n for i in range(n))
        return cls.from_permutations([rotation, reflection], name=f"D{n}")

    @classmethod
    def direct_product(cls, a, b):
        n, m = a.order, b.order
        table = [
            [
                (a.mult[x // m][y // m]) * m + b.mult[x % m][y % m]
                for y in range(n * m)
            ]
            for x in range(n * m)
        ]
        return cls(table, name=f"{a.name}x{b.name}", _trusted=True)

    # -- operations --------------------------------------------------------------

    @property
    def elements(self):
        return range(self.order)

    def is_element(self, x):
        """Whether ``x`` is an element id: an ``int`` (not a ``bool``) in range."""
        return type(x) is int and 0 <= x < self.order

    def op(self, a, b):
        return self.mult[a][b]

    def inverse(self, a):
        return self.inv[a]

    def generators(self):
        """A generating set: the non-identity elements of the greedy
        ``_magma_generators``.  Each lies outside the subgroup the earlier
        ones generate, so there are at most log₂ n of them."""
        return [g for g in _magma_generators(self.mult) if g != self.identity]

    def element_order(self, a):
        x, n = a, 1
        while x != self.identity:
            x = self.mult[x][a]
            n += 1
        return n

    def subgroup(self, generators):
        """Sorted tuple of the subgroup generated by the given elements."""
        closure = {self.identity}
        frontier = [self.identity]
        gens = set(generators) | {self.inv[g] for g in generators}
        while frontier:
            new_frontier = []
            for x in frontier:
                for g in gens:
                    y = self.mult[x][g]
                    if y not in closure:
                        closure.add(y)
                        new_frontier.append(y)
            frontier = new_frontier
        return tuple(sorted(closure))

    def is_subgroup(self, elements):
        members = set(elements)
        if self.identity not in members:
            return False
        return all(self.mult[a][b] in members for a in members for b in members)

    def left_coset(self, g, subgroup_elements):
        return tuple(sorted(self.mult[g][h] for h in subgroup_elements))

    def left_coset_reps(self, subgroup_elements):
        """Minimum-element representatives of left cosets g*H, ascending."""
        seen = set()
        reps = []
        for g in range(self.order):
            if g in seen:
                continue
            coset = self.left_coset(g, subgroup_elements)
            reps.append(coset[0])
            seen.update(coset)
        return tuple(reps)

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


class Hom:
    """A map between finite groups given by the full image table."""

    __slots__ = ("dom", "cod", "images")

    def __init__(self, dom, cod, images):
        self.dom = dom
        self.cod = cod
        self.images = tuple(images)
        if len(self.images) != dom.order:
            raise ValidationError("homomorphism image table has wrong length")
        if any(not (0 <= x < cod.order) for x in self.images):
            raise ValidationError("homomorphism image outside codomain")

    @classmethod
    def from_generator_images(cls, dom, cod, generators, images):
        """Extend generator images multiplicatively; the generators must
        generate the domain and the extension must be single-valued."""
        if len(generators) != len(images):
            raise ValidationError("generators and images differ in length")
        if not all(map(dom.is_element, generators)):
            raise ValidationError(f"generators must be element ids 0..{dom.order - 1}")
        if not all(map(cod.is_element, images)):
            raise ValidationError(f"images must be element ids 0..{cod.order - 1}")
        table = {dom.identity: cod.identity}
        frontier = [dom.identity]
        while frontier:
            new_frontier = []
            for a in frontier:
                for g, img in zip(generators, images):
                    b = dom.mult[a][g]
                    value = cod.mult[table[a]][img]
                    if b in table:
                        if table[b] != value:
                            raise ValidationError("generator images are inconsistent")
                    else:
                        table[b] = value
                        new_frontier.append(b)
            frontier = new_frontier
        if len(table) != dom.order:
            raise ValidationError("generators do not generate the domain")
        return cls(dom, cod, [table[a] for a in range(dom.order)])

    @classmethod
    def identity_map(cls, group):
        return cls(group, group, range(group.order))

    def __call__(self, a):
        return self.images[a]

    def is_homomorphism(self):
        mult_d, mult_c, img = self.dom.mult, self.cod.mult, self.images
        for a in range(self.dom.order):
            for b in range(self.dom.order):
                if img[mult_d[a][b]] != mult_c[img[a]][img[b]]:
                    return False
        return True

    def is_injective(self):
        return len(set(self.images)) == self.dom.order

    def image_set(self):
        return frozenset(self.images)

    def section(self):
        """Inverse map defined on the image (requires injectivity)."""
        return {img: a for a, img in enumerate(self.images)}


def group_from_spec(spec):
    """Build a group from a JSON value: a preset name or an explicit table.

    Presets: "1"/"trivial", "Cn", "Sn" (n <= 5), "An" (3 <= n <= 5),
    "Dn" (dihedral of order 2n), and "AxB" products of presets.
    Explicit form: ``{"table": [[...], ...]}`` (validated on load).
    A preset of order above ``GROUP_ORDER_CAP`` is refused before its table
    is built; an explicit table is not capped.
    """
    if isinstance(spec, dict):
        if "table" not in spec:
            raise ValidationError("group object must carry a 'table'")
        return FiniteGroup.from_table(spec["table"], name=spec.get("name", "G"))
    if not isinstance(spec, str):
        raise ValidationError(f"cannot read group from {spec!r}")
    name = spec.strip()
    if "x" in name:
        left, _, right = name.partition("x")
        left, right = group_from_spec(left), group_from_spec(right)
        _check_order(spec, left.order * right.order)
        return FiniteGroup.direct_product(left, right)
    if name in ("1", "trivial"):
        return FiniteGroup.trivial()
    kind, digits = name[:1], name[1:]
    if not digits.isdigit():
        raise ValidationError(f"unknown group preset {spec!r}")
    try:
        n = int(digits)
    except ValueError:  # a digit int() does not read, or more digits than it reads
        raise ValidationError(f"unknown group preset {spec!r}") from None
    if kind == "C":
        if n < 1:
            raise ValidationError("cyclic presets start at C1")
        _check_order(spec, n)
        return FiniteGroup.cyclic(n)
    if kind == "S":
        if not 1 <= n <= 5:
            raise ValidationError("symmetric presets cover S1..S5")
        return FiniteGroup.symmetric(n)
    if kind == "A":
        if not 3 <= n <= 5:
            raise ValidationError("alternating presets cover A3..A5")
        return FiniteGroup.alternating(n)
    if kind == "D":
        if n < 3:
            raise ValidationError("dihedral presets start at D3")
        _check_order(spec, 2 * n)
        return FiniteGroup.dihedral(n)
    raise ValidationError(f"unknown group preset {spec!r}")


def _check_order(spec, order):
    if order > GROUP_ORDER_CAP:
        raise ValidationError(f"group preset {spec!r} has order {order}, above GROUP_ORDER_CAP = {GROUP_ORDER_CAP}")


def load_rough_cayley(data):
    """Read the JSON input of a coset-graph ball, ``{"group": groupspec,
    "subgroup_gens": [...], "generators": [...]}`` (either list may be left
    out, for none): return the group, the ids generating the base subgroup
    and the generators closed under inverses, sorted."""
    if not isinstance(data, dict) or "group" not in data:
        raise ValidationError("rough-cayley input must be an object with a 'group'")
    group = group_from_spec(data["group"])

    def element_ids(key):
        ids = data.get(key, [])
        if not isinstance(ids, list) or not all(map(group.is_element, ids)):
            raise ValidationError(f"{key!r} must list element ids 0..{group.order - 1}")
        return ids

    subgroup_gens = element_ids("subgroup_gens")
    generators = element_ids("generators")
    return group, subgroup_gens, sorted(set(generators) | {group.inverse(s) for s in generators})
