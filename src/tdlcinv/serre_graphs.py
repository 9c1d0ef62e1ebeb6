"""Graphs with origin/terminus/inversion structure and rough Cayley balls.

Edges come in inverse pairs ``e, bar(e)`` with ``bar`` fixed-point free; a
geometric edge is such an orbit.  The orientation used for matrices picks
the lexicographically smaller id in each orbit, so every basis below is
deterministic.  Vertex and edge bases follow stored (construction) order.
"""

from .errors import ValidationError
from .ratlin import RationalMatrix


class BadGraph(ValidationError):
    pass


class NotSymmetric(ValidationError):
    pass


class GeneratorInO(ValidationError):
    pass


class SerreGraph:
    """Graph in the origin/terminus/inversion formalism.

    ``vertices`` keeps construction order (the row basis of the edge
    boundary matrix); ``orientation()`` is the column basis.
    """

    __slots__ = ("vertices", "_vertex_index", "origin", "terminus", "bar", "combinatorial", "_stars")

    def __init__(self, vertices, origin, terminus, bar):
        self.vertices = tuple(vertices)
        self._vertex_index = {v: i for i, v in enumerate(self.vertices)}
        if len(self._vertex_index) != len(self.vertices):
            raise BadGraph("duplicate vertices")
        self.origin = dict(origin)
        self.terminus = dict(terminus)
        self.bar = dict(bar)
        if set(self.origin) != set(self.terminus) or set(self.origin) != set(self.bar):
            raise BadGraph("edge maps disagree on the edge set")
        for e in self.origin:
            if self.origin[e] not in self._vertex_index or self.terminus[e] not in self._vertex_index:
                raise BadGraph(f"edge {e!r} touches an unknown vertex")
            f = self.bar[e]
            if f == e:
                raise BadGraph(f"edge inversion fixes {e!r}")
            if f not in self.bar or self.bar[f] != e:
                raise BadGraph(f"edge inversion is not an involution at {e!r}")
            if self.terminus[f] != self.origin[e] or self.origin[f] != self.terminus[e]:
                raise BadGraph(f"inverted edge {f!r} does not swap endpoints of {e!r}")
        endpoint_pairs = {(self.terminus[e], self.origin[e]) for e in self.origin}
        self.combinatorial = len(endpoint_pairs) == len(self.origin)
        self._stars = None  # vertex -> its out-edges, indexed on first use

    @classmethod
    def from_geometric(cls, vertices, endpoint_pairs):
        """Build from geometric edges; pair k becomes directed edges 2k, 2k+1."""
        origin, terminus, bar = {}, {}, {}
        for k, (u, v) in enumerate(endpoint_pairs):
            e, f = 2 * k, 2 * k + 1
            origin[e], terminus[e] = u, v
            origin[f], terminus[f] = v, u
            bar[e], bar[f] = f, e
        return cls(vertices, origin, terminus, bar)

    # -- structure ---------------------------------------------------------------

    @property
    def edges(self):
        return tuple(self.origin)

    def edge_signed_set(self):
        from .simplicial import SignedSet  # imported here, so graph jobs never load simplicial

        return SignedSet(self.bar)

    def orientation(self):
        """One edge per geometric edge: the smaller id in each inversion orbit."""
        return tuple(e for e in self.origin if not self.bar[e] < e)

    def geometric_edge_count(self):
        return len(self.origin) // 2

    def star(self, v):
        """The edges with origin v, in stored order."""
        if self._stars is None:
            self._stars = {}
            for e, o in self.origin.items():
                self._stars.setdefault(o, []).append(e)
        return tuple(self._stars.get(v, ()))

    def degree(self, v):
        """Number of geometric edges at v, loops counted twice."""
        return len(self.star(v))

    def bfs_parents(self, roots):
        """Breadth-first spanning forest as the edge into each reached vertex
        (None at a root); each root not yet reached starts a new search, and
        each star is taken in sorted edge order."""
        parent = {}
        for root in roots:
            if root not in parent:
                parent[root] = None
                queue = [root]
                for v in queue:  # the queue grows while it is read
                    for e in sorted(self.star(v)):
                        w = self.terminus[e]
                        if w not in parent:
                            parent[w] = e
                            queue.append(w)
        return parent

    # -- the edge boundary sequence ------------------------------------------------

    def edge_boundary(self):
        """Matrix of edge space to vertex space, one column per oriented edge,
        sending an edge to terminus minus origin.  Loops give zero columns."""
        entries = {}
        for j, e in enumerate(self.orientation()):
            t = self._vertex_index[self.terminus[e]]
            o = self._vertex_index[self.origin[e]]
            if t != o:
                entries[(t, j)] = 1
                entries[(o, j)] = -1
        return RationalMatrix(len(self.vertices), self.geometric_edge_count(), entries)

    def graph_invariants(self):
        """(first Betti number, component count, is_tree).

        The kernel of the edge boundary is the cycle space and its cokernel
        counts connected components; a tree is exactly kernel zero with a
        one-dimensional cokernel.
        """
        boundary = self.edge_boundary()
        rank = boundary.rank()
        h1 = boundary.cols - rank
        components = boundary.rows - rank
        return h1, components, (h1 == 0 and components == 1)

    # -- serialization ----------------------------------------------------------

    def to_json(self):
        return {
            "vertices": list(self.vertices),
            "edges": [
                {"id": e, "o": self.origin[e], "t": self.terminus[e], "bar": self.bar[e]}
                for e in self.origin
            ],
        }

    def to_dot(self):
        lines = ["graph {"]
        for v in self.vertices:
            lines.append(f'  "{v}";')
        for e in self.orientation():
            lines.append(f'  "{self.origin[e]}" -- "{self.terminus[e]}" [label="{e}"];')
        lines.append("}")
        return "\n".join(lines)


def load_graph(data):
    """Read the JSON graph form {"vertices": [...], "edges": [{id,o,t,bar}]}."""
    if not isinstance(data, dict) or "vertices" not in data or "edges" not in data:
        raise ValidationError("graph JSON needs 'vertices' and 'edges'")
    vertices, edges = data["vertices"], data["edges"]
    if not isinstance(vertices, list) or not isinstance(edges, list):
        raise ValidationError("graph 'vertices' and 'edges' must be lists")
    if not all(type(v) in (str, int) for v in vertices):
        raise ValidationError("vertex ids must be strings or integers")
    origin, terminus, bar = {}, {}, {}
    fields = ("id", "o", "t", "bar")
    for edge in edges:
        if not isinstance(edge, dict) or not all(type(edge.get(k)) in (str, int) for k in fields):
            raise ValidationError(f"edge record {edge!r} needs id/o/t/bar as strings or integers")
        e = edge["id"]
        origin[e] = edge["o"]
        terminus[e] = edge["t"]
        bar[e] = edge["bar"]
    # the orientation compares edge ids, so they must be of one type
    if len({type(e) for e in origin}) > 1:
        raise ValidationError("edge ids must be all strings or all integers")
    return SerreGraph(vertices, origin, terminus, bar)


class FiniteGroupOracle:
    """Coset oracle for a finite group with a chosen subgroup.

    Canonical coset representatives are minimum elements, so vertex labels
    are stable across runs.
    """

    def __init__(self, group, subgroup_generators=()):
        self.group = group
        self.subgroup = group.subgroup(subgroup_generators)
        self._subgroup_set = frozenset(self.subgroup)
        self._canon = {}
        for g in group.elements:
            if g not in self._canon:
                coset = group.left_coset(g, self.subgroup)
                for x in coset:
                    self._canon[x] = coset[0]

    @property
    def identity(self):
        return self.group.identity

    def multiply(self, a, b):
        return self.group.op(a, b)

    def inverse(self, a):
        return self.group.inverse(a)

    def coset_canon(self, g):
        return self._canon[g]

    def in_O(self, g):
        return g in self._subgroup_set

    def elements(self):
        return tuple(self.group.elements)

    def step_targets(self, rep, s):
        """Canonical targets of all edges (gO, gsO) with g in the coset of
        ``rep``: one per right coset inside the double coset O s O."""
        return {
            self.coset_canon(self.multiply(self.multiply(rep, omega), s))
            for omega in self.subgroup
        }

    def double_coset_degree_bound(self, generators):
        """Sum over generators of the number of right cosets inside O s O."""
        return sum(len(self.step_targets(self.group.identity, s)) for s in generators)


class IntegerLineOracle:
    """The integers with trivial compact part: cosets are the elements."""

    identity = 0

    def multiply(self, a, b):
        return a + b

    def inverse(self, a):
        return -a

    def coset_canon(self, g):
        return g

    def in_O(self, g):
        return g == 0

    def step_targets(self, rep, s):
        return {rep + s}


def _check_generators(oracle, generators):
    gens = list(generators)
    pool = set(gens)
    for s in gens:
        if oracle.in_O(s):
            raise GeneratorInO(f"generator {s!r} lies in the base subgroup")
        if oracle.inverse(s) not in pool:
            raise NotSymmetric(f"generator set lacks the inverse of {s!r}")
    return gens


def rough_cayley_ball(oracle, generators, radius):
    """Ball of the coset graph on cosets of the base subgroup.

    Vertices are canonical coset representatives reached within ``radius``
    steps from the base coset.  Edges join gO to gsO for every group
    element g in the coset (the oracle enumerates the targets, one per
    right coset of the double coset OsO) and are deduplicated as vertex
    pairs: the graph is combinatorial.  The generator set must be
    symmetric and disjoint from the subgroup.  One breadth-first pass
    records each coset's edges as it expands the coset, by which time every
    in-ball neighbour is reached.
    """
    if radius < 0:
        raise ValidationError(f"the ball radius {radius} is negative")
    gens = _check_generators(oracle, generators)
    base = oracle.coset_canon(oracle.identity)
    order = [base]
    rank = {base: 0}
    level = [0]
    pairs = set()
    for i, g in enumerate(order):  # order grows while it is read
        for s in gens:
            for h in sorted(oracle.step_targets(g, s)):
                if h not in rank and level[i] < radius:
                    rank[h] = len(order)
                    order.append(h)
                    level.append(level[i] + 1)
                if h in rank:
                    pairs.add((min(i, rank[h]), max(i, rank[h])))
    return SerreGraph.from_geometric(order, [(order[a], order[b]) for a, b in sorted(pairs)])


def connectivity_equals_generation(oracle, generators):
    """Whether coset-graph connectivity agrees with generation by O and S.

    Needs a finite oracle exposing ``elements()``.  Both sides are computed
    independently: the graph side by breadth-first search over all cosets,
    the group side by closing the subgroup and generators under products.
    """
    gens = _check_generators(oracle, generators)
    everyone = oracle.elements()
    all_cosets = {oracle.coset_canon(g) for g in everyone}
    base = oracle.coset_canon(oracle.identity)
    reached = {base}
    frontier = [base]
    while frontier:
        next_frontier = []
        for g in frontier:
            for s in gens:
                for h in oracle.step_targets(g, s):
                    if h not in reached:
                        reached.add(h)
                        next_frontier.append(h)
        frontier = next_frontier
    connected = reached == all_cosets

    seed = {g for g in everyone if oracle.in_O(g)} | set(gens)
    closure = set(seed)
    frontier = list(seed)
    while frontier:
        next_frontier = []
        for a in frontier:
            for b in seed:
                c = oracle.multiply(a, b)
                if c not in closure:
                    closure.add(c)
                    next_frontier.append(c)
        frontier = next_frontier
    generates = len(closure) == len(everyone)
    return connected == generates
