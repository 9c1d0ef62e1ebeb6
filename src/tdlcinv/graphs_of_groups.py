"""Finite graphs of finite groups.

A datum assigns a finite group to each vertex, a finite group to each
geometric edge, and an injective homomorphism from the edge group into the
terminus vertex group for each directed edge.  The fundamental group is
presented by the vertex groups and one letter per edge, subject to edge
inversion and the conjugation relation carrying one edge embedding to the
other; edges of a fixed maximal subtree are collapsed.

Normal forms.  Words are kept in the reduced path form rooted at the base
vertex: an alternating sequence of coset representatives and directed
edges followed by a vertex-group tail.  Representatives are the minimum
elements of left cosets of the incoming edge-group image, and a
representative that is trivial never follows the reversal of the previous
edge.  With the subtree and orientation fixed by id order and transversals
fixed by least elements, the form is unique, so word arithmetic and coset
bookkeeping (hence the tree construction) are exact.

The universal tree is materialized as balls only: vertices are integers in
breadth-first order, vertex k standing for the k-th reduced representative
word reached and the root, the empty word, being 0.

``fractions`` is imported only where a ``Fraction`` is made, so validating
a datum or building a ball loads none.  Nor does the tree-action
cohomology of a representation whose entries, fixed bases and edge
coordinates are integers: it takes one ``RationalMatrix.solve`` per
oriented edge, and ``ratlin`` gives integral solutions as ``int``.
"""

from .errors import ValidationError
from .groups import Hom, group_from_spec
from .haar import TRIVIAL_BASE, HaarValue
from .ratlin import RationalMatrix
from .serre_graphs import SerreGraph


# vertices a ball of the universal tree may have; the build stops as soon as
# one more would be added
BALL_VERTEX_CAP = 20_000

# largest |exponent| of a decimal matrix entry such as "1e-5": Fraction
# expands 10**exponent in full, so "1e1000000" alone takes a third of a
# second; every float (exponents -324 to 308) stays under the cap
RATIONAL_EXPONENT_CAP = 1000


class NotInjective(ValidationError):
    pass


class NotHomomorphism(ValidationError):
    pass


class Disconnected(ValidationError):
    pass


class NotUnimodular(ValidationError):
    pass


class RelationViolated(ValidationError):
    pass


class NotInvertible(ValidationError):
    pass


def aut_tree_chi(degree):
    """Euler characteristic of the orientation-preserving automorphisms of
    the regular tree with degree + 1 neighbors per vertex, normalized at an
    edge stabilizer: (1 - degree) / (1 + degree)."""
    if degree < 1:
        raise ValidationError("tree degree parameter must be >= 1")
    from fractions import Fraction

    return HaarValue(Fraction(1 - degree, 1 + degree), "G_e")


def cycle_index_ratio_products(graph, edge_index):
    """Products of directed-edge indices around a cycle basis of the graph.

    ``edge_index[e]`` is the index of the edge subgroup image inside the
    terminus vertex group of ``e``.  Each directed edge gets the ratio
    index(e) / index(bar e); a spanning forest is fixed by id order and
    every non-tree oriented edge contributes the ratio product along its
    fundamental cycle.  The stable letter of such an edge scales Haar
    measure by exactly this product, so the fundamental group is unimodular
    exactly when every returned product is 1.
    """
    from fractions import Fraction

    def ratio(e):
        return Fraction(edge_index[e]) / Fraction(edge_index[graph.bar[e]])

    parent = graph.bfs_parents(graph.vertices)
    tree = set(parent.values())
    # ratio product along the tree path from each vertex's root; bfs_parents
    # lists a parent before its children, so one pass fills it
    to_root = {}
    for v, e in parent.items():
        to_root[v] = Fraction(1) if e is None else to_root[graph.origin[e]] * ratio(e)

    products = []
    for e in graph.orientation():
        if e in tree or graph.bar[e] in tree:
            continue
        # cycle: root -> o(e), then e, then t(e) -> root through the tree
        products.append(to_root[graph.origin[e]] * ratio(e) / to_root[graph.terminus[e]])
    return products


class GraphOfFiniteGroups:
    """Finite connected graph decorated with finite groups and embeddings,
    checked once when built; ``indices`` holds the result of ``validate``.
    ``edge_groups`` and ``embeddings`` are keyed by directed edge, as
    ``build_gog`` gives them."""

    def __init__(self, graph, vertex_groups, edge_groups, embeddings):
        self.graph = graph
        self.vertex_groups = dict(vertex_groups)
        self.edge_groups = dict(edge_groups)
        self.embeddings = dict(embeddings)
        for v in graph.vertices:
            if v not in self.vertex_groups:
                raise ValidationError(f"no group for vertex {v!r}")
        for e in graph.edges:
            if e not in self.embeddings:
                raise ValidationError(f"no embedding for directed edge {e!r}")
        self.base_vertex, self._tree_parent = self._spanning_tree()
        self.indices = self.validate()
        self._transversals = {}
        self._sections = {}
        self._images = {}
        for e in graph.edges:
            incoming = self.embeddings[self.graph.bar[e]]  # edge group into o(e)
            image = tuple(sorted(incoming.image_set()))
            self._images[e] = image
            self._transversals[e] = self.vertex_groups[self.graph.origin[e]].left_coset_reps(image)
            self._sections[e] = incoming.section()

    # -- deterministic subtree and orientation -------------------------------------

    def _spanning_tree(self):
        base = min(self.graph.vertices, key=lambda v: (str(type(v)), str(v)))
        parent = self.graph.bfs_parents([base])
        if len(parent) != len(self.graph.vertices):
            raise Disconnected("underlying graph is not connected")
        return base, parent

    def orientation(self):
        return self.graph.orientation()

    def stable_letters(self):
        """Oriented edges outside the maximal subtree, in id order."""
        tree = set(self._tree_parent.values())
        return tuple(e for e in self.orientation() if e not in tree and self.graph.bar[e] not in tree)

    # -- validation -------------------------------------------------------------------

    def validate(self):
        """Check embeddings are injective homomorphisms into the terminus
        groups; return each directed-edge image's index.  Run by ``__init__``."""
        indices = {}
        for e in self.graph.edges:
            hom = self.embeddings[e]
            edge_group = self.edge_groups[e]
            target = self.vertex_groups[self.graph.terminus[e]]
            if hom.dom.mult != edge_group.mult or hom.cod.mult != target.mult:
                raise ValidationError(f"embedding for {e!r} connects the wrong groups")
            if not hom.is_homomorphism():
                raise NotHomomorphism(f"edge {e!r}")
            if not hom.is_injective():
                raise NotInjective(f"edge {e!r}")
            indices[e] = target.order // edge_group.order
        return indices

    # -- unimodularity and Euler characteristic ---------------------------------------

    def unimodularity_check(self):
        """True when the index-ratio product around every basis cycle is 1.

        For a tree there is nothing to check.  With finite vertex groups
        each directed index is a quotient of group orders, so the products
        always telescope to 1; the check still evaluates them exactly.
        """
        return all(p == 1 for p in cycle_index_ratio_products(self.graph, self.indices))

    def euler_characteristic(self):
        """Alternating sum of reciprocal group orders over vertices and
        geometric edges, as a measure over the trivial subgroup."""
        if not self.unimodularity_check():
            raise NotUnimodular("fundamental group is not unimodular")
        from fractions import Fraction

        total = Fraction(0)
        for v in self.graph.vertices:
            total += Fraction(1, self.vertex_groups[v].order)
        for e in self.orientation():
            total -= Fraction(1, self.edge_groups[e].order)
        return HaarValue(total, TRIVIAL_BASE)

    # -- word machinery ------------------------------------------------------------------

    def _word_end_vertex(self, syllables):
        if not syllables:
            return self.base_vertex
        return self.graph.terminus[syllables[-1][0]]

    def _tree_path(self, target):
        """Directed subtree edges from the base vertex to the target vertex,
        read off the parent map of the spanning tree."""
        if target not in self._tree_parent:
            raise ValidationError(f"vertex {target!r} not reachable in the subtree")
        path = []
        while self._tree_parent[target] is not None:
            e = self._tree_parent[target]
            path.append(e)
            target = self.graph.origin[e]
        return tuple(reversed(path))

    # -- the universal tree ----------------------------------------------------------------

    def bass_serre_ball(self, radius):
        """Ball of the universal tree around the base coset, built in one
        breadth-first pass.

        Vertex k is the k-th reduced representative word reached, the root
        (the empty word) being 0.  A word's children extend it by one edge
        letter of the sorted star at its end vertex with a coset
        representative, skipping exactly the letter that backtracks to its
        parent; so each vertex keeps only its end vertex and that letter.
        A negative radius is refused, and so is the ball the moment a
        vertex past ``BALL_VERTEX_CAP`` would be added.
        """
        if radius < 0:
            raise ValidationError(f"the ball radius {radius} is negative")
        graph = self.graph
        # a ball vertex is (end vertex, letter back to its parent); per
        # quotient vertex, each letter (e, rep) with the child it makes
        steps = {
            v: [
                ((e, rep), (graph.terminus[e], (graph.bar[e], self._images[graph.bar[e]][0])))
                for e in sorted(graph.star(v))
                for rep in self._transversals[e]
            ]
            for v in graph.vertices
        }
        nodes = [(self.base_vertex, None)]
        pairs = []
        start = 0
        for _ in range(radius):
            stop = len(nodes)
            if start == stop:
                break  # a finite tree, wholly built
            for parent in range(start, stop):
                at, back = nodes[parent]
                for letter, child in steps[at]:
                    if letter == back:
                        continue  # the parent edge
                    if len(nodes) == BALL_VERTEX_CAP:
                        raise ValidationError(
                            f"the radius-{radius} ball has more than BALL_VERTEX_CAP = {BALL_VERTEX_CAP} vertices"
                        )
                    pairs.append((parent, len(nodes)))
                    nodes.append(child)
            start = stop
        return SerreGraph.from_geometric(range(len(nodes)), pairs)

    # -- tree-action cohomology ---------------------------------------------------------------

    def tree_action_cohomology(self, representation):
        """Kernel and cokernel dims of the vertex-to-edge fixed-space map.

        For a finite-dimensional rational representation of the fundamental
        group (validated against its defining relations), the map sends a
        tuple of vertex-group-fixed vectors to, per oriented edge, the
        stable-letter translate of the terminus component minus the origin
        component, read inside the edge-group-fixed subspace.

        A vector fixed by every generator of a group is fixed by the group,
        so each fixed space is the common kernel of the blocks
        ``rho(s) - I``, one block per generator ``s`` of
        ``FiniteGroup.generators`` (of the edge group, mapped into the
        origin vertex group, for an edge), not one per group element.  Each
        fixed basis is held as the matrix of its columns.  An oriented edge
        with a nonzero fixed space takes one ``solve`` against its basis
        ``E``, with right-hand side ``[L_e B_t | B_o]``: ``L_e`` the stable
        letter, or nothing on a subtree edge, and ``B_t``, ``B_o`` the
        terminus and origin bases.  ``E`` has independent columns, so the
        coordinates are unique; they enter with sign + at the terminus and
        - at the origin.
        """
        representation.validate(self)
        dim = representation.dim

        def fixed_space(matrices):
            if not matrices:
                return RationalMatrix.identity(dim)
            entries = {}
            for k, m in enumerate(matrices):
                row0 = k * dim
                for (i, j), value in m.entries().items():
                    entries[(row0 + i, j)] = value
                for i in range(dim):
                    entries[(row0 + i, i)] = entries.get((row0 + i, i), 0) - 1
            basis = RationalMatrix(len(matrices) * dim, dim, entries).kernel_basis()
            return RationalMatrix(
                dim, len(basis), {(i, j): x for j, b in enumerate(basis) for i, x in enumerate(b) if x}
            )

        vertex_bases = {}
        vertex_offsets = {}
        domain_dim = 0
        for v in self.graph.vertices:
            group = self.vertex_groups[v]
            vertex_bases[v] = fixed_space([representation.vertex_matrix(v, s) for s in group.generators()])
            vertex_offsets[v] = domain_dim
            domain_dim += vertex_bases[v].cols

        rows = 0
        entries = {}
        stable = set(self.stable_letters())
        for e in self.orientation():
            origin, terminus = self.graph.origin[e], self.graph.terminus[e]
            incoming = self.embeddings[self.graph.bar[e]]  # edge group inside o(e)
            edge_basis = fixed_space(
                [representation.vertex_matrix(origin, incoming(s)) for s in self.edge_groups[e].generators()]
            )
            if not edge_basis.cols:
                continue
            at_t, at_o = vertex_bases[terminus], vertex_bases[origin]
            if e in stable:
                at_t = representation.stable_matrix(e) @ at_t
            rhs = at_t.entries()
            for (i, j), x in at_o.entries().items():
                rhs[(i, at_t.cols + j)] = x
            coords = edge_basis.solve(RationalMatrix(dim, at_t.cols + at_o.cols, rhs))
            for (i, j), c in coords.entries().items():
                if j < at_t.cols:
                    key = (rows + i, vertex_offsets[terminus] + j)
                else:
                    key, c = (rows + i, vertex_offsets[origin] + j - at_t.cols), -c
                entries[key] = entries.get(key, 0) + c
            rows += edge_basis.cols
        matrix = RationalMatrix(rows, domain_dim, entries)
        rank = matrix.rank()
        return domain_dim - rank, rows - rank


class PiWord:
    """Element of the fundamental group in reduced representative form.

    Build words with ``identity``, ``vertex_element`` and ``stable_letter``
    and combine with ``*`` and ``inverse``; equal group elements always
    produce equal objects.
    """

    __slots__ = ("gog", "syllables", "tail")

    def __init__(self, gog, syllables, tail):
        self.gog = gog
        self.syllables = tuple(syllables)
        self.tail = tail

    @classmethod
    def identity(cls, gog):
        return cls(gog, (), gog.vertex_groups[gog.base_vertex].identity)

    @classmethod
    def vertex_element(cls, gog, vertex, element):
        """The image of a vertex-group element, carried to the base point
        along the subtree."""
        word = cls.identity(gog)
        path = gog._tree_path(vertex)
        for e in path:
            word = word._times_edge(e)
        word = word._times_vertex(vertex, element)
        for e in reversed(path):
            word = word._times_edge(gog.graph.bar[e])
        return word

    @classmethod
    def stable_letter(cls, gog, e):
        """The generator attached to an oriented non-subtree edge."""
        if e not in gog.stable_letters():
            raise ValidationError(f"{e!r} is not an oriented non-subtree edge")
        word = cls.identity(gog)
        for step in gog._tree_path(gog.graph.origin[e]):
            word = word._times_edge(step)
        word = word._times_edge(e)
        for step in reversed(gog._tree_path(gog.graph.terminus[e])):
            word = word._times_edge(gog.graph.bar[step])
        return word

    # -- primitive pushes -------------------------------------------------------------

    def _times_edge(self, e):
        """This word times the edge letter e, in reduced form."""
        gog, syllables, tail = self.gog, self.syllables, self.tail
        if gog.graph.origin[e] != gog._word_end_vertex(syllables):
            raise ValidationError("edge letter does not start at the word end")
        section = gog._sections[e]  # keyed by the image of the edge group in o(e)
        outgoing = gog.embeddings[e]
        if tail in section and syllables and syllables[-1][0] == gog.graph.bar[e]:
            # the whole tail slides through the edge and the letters cancel
            prev_edge, prev_rep = syllables[-1]
            prev_group = gog.vertex_groups[gog.graph.origin[prev_edge]]
            return PiWord(gog, syllables[:-1], prev_group.op(prev_rep, outgoing(section[tail])))
        group = gog.vertex_groups[gog.graph.origin[e]]
        rep = group.left_coset(tail, gog._images[e])[0]
        remainder = group.op(group.inverse(rep), tail)
        return PiWord(gog, syllables + ((e, rep),), outgoing(section[remainder]))

    def _times_vertex(self, vertex, element):
        if vertex != self.gog._word_end_vertex(self.syllables):
            raise ValidationError("vertex element sits at the wrong vertex")
        return PiWord(self.gog, self.syllables, self.gog.vertex_groups[vertex].op(self.tail, element))

    # -- group operations --------------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, PiWord) or other.gog is not self.gog:
            return NotImplemented
        out = self
        for e, rep in other.syllables:
            out = out._times_vertex(self.gog.graph.origin[e], rep)
            out = out._times_edge(e)
        return out._times_vertex(self.gog._word_end_vertex(other.syllables), other.tail)

    def inverse(self):
        # (s_1 e_1 ... s_n e_n t)^-1 = t^-1 bar(e_n) s_n^-1 ... bar(e_1) s_1^-1
        gog = self.gog
        end_vertex = gog._word_end_vertex(self.syllables)
        group = gog.vertex_groups[end_vertex]
        out = PiWord.identity(gog)._times_vertex(end_vertex, group.inverse(self.tail))
        for e, rep in reversed(self.syllables):
            origin = gog.graph.origin[e]
            out = out._times_edge(gog.graph.bar[e])
            out = out._times_vertex(origin, gog.vertex_groups[origin].inverse(rep))
        return out

    def is_identity(self):
        base_group = self.gog.vertex_groups[self.gog.base_vertex]
        return not self.syllables and self.tail == base_group.identity

    def __eq__(self, other):
        if not isinstance(other, PiWord):
            return NotImplemented
        return (self.gog is other.gog and self.syllables == other.syllables and self.tail == other.tail)

    def __hash__(self):
        return hash((id(self.gog), self.syllables, self.tail))

    def __repr__(self):
        return f"PiWord(syllables={self.syllables}, tail={self.tail})"


class PiRepresentation:
    """Finite-dimensional rational representation of the fundamental group.

    Vertex groups act through full matrix tables; every oriented non-subtree
    edge carries a stable-letter matrix.  ``validate`` checks each vertex
    table is a homomorphism, stable matrices are invertible, and all edge
    relations hold: along subtree edges the two edge-group embeddings act
    identically, along the others they differ by stable-letter conjugation.
    Each relation is checked on a generating set of its group, which
    implies it on the whole group.
    """

    def __init__(self, dim, vertex_matrices, stable_matrices):
        self.dim = dim
        self._vertex = {
            v: tuple(RationalMatrix.from_rows(m) for m in mats)
            for v, mats in vertex_matrices.items()
        }
        self._stable = {e: RationalMatrix.from_rows(m) for e, m in stable_matrices.items()}

    @classmethod
    def trivial(cls, gog):
        one = [[1]]
        return cls(
            1,
            {v: [one] * gog.vertex_groups[v].order for v in gog.graph.vertices},
            {e: one for e in gog.stable_letters()},
        )

    def vertex_matrix(self, v, element):
        return self._vertex[v][element]

    def stable_matrix(self, e):
        return self._stable[e]

    def validate(self, gog):
        """Check the representation against ``gog``, which was checked when
        it was built, and return True; raise a ``ValidationError`` naming
        the first violation.

        With S = ``FiniteGroup.generators()``, a vertex table needs only
        rho(e) = I and rho(a s) = rho(a) rho(s) for every element a and
        every s in S: the b with rho(a b) = rho(a) rho(b) for all a contain
        e and S and are closed under products, so they are the whole
        finite group.  Each edge relation compares two homomorphisms of the
        edge group (the embeddings are homomorphisms, and conjugation by an
        invertible stable letter is an automorphism), so it holds on the
        edge group once it holds on the edge group's generators.
        """
        for v in gog.graph.vertices:
            group = gog.vertex_groups[v]
            mats = self._vertex.get(v)
            if mats is None or len(mats) != group.order:
                raise ValidationError(f"vertex {v!r} needs one matrix per group element")
            for m in mats:
                if (m.rows, m.cols) != (self.dim, self.dim):
                    raise ValidationError("matrix dimensions disagree with the representation")
            # built only once a matrix of this size exists, so that a huge
            # 'dim' without matrices fails here instead of filling memory
            if mats[group.identity] != RationalMatrix.identity(self.dim):
                raise RelationViolated(f"identity of vertex {v!r} must act trivially")
            generators = group.generators()
            for a in group.elements:
                for s in generators:
                    if mats[group.op(a, s)] != mats[a] @ mats[s]:
                        raise RelationViolated(f"vertex {v!r} table is not multiplicative at ({a}, {s})")
        stable = gog.stable_letters()
        for e in stable:
            m = self._stable.get(e)
            if m is None:
                raise ValidationError(f"missing stable-letter matrix for {e!r}")
            if (m.rows, m.cols) != (self.dim, self.dim):
                raise ValidationError("stable-letter matrix has wrong dimensions")
            if m.rank() != self.dim:
                raise NotInvertible(f"stable letter of {e!r}")
        for e in gog.orientation():
            outgoing = gog.embeddings[e]  # edge group into t(e)
            incoming = gog.embeddings[gog.graph.bar[e]]  # edge group into o(e)
            origin, terminus = gog.graph.origin[e], gog.graph.terminus[e]
            letter = self._stable.get(e) if e in stable else None
            for a in gog.edge_groups[e].generators():
                via_t = self.vertex_matrix(terminus, outgoing(a))
                via_o = self.vertex_matrix(origin, incoming(a))
                if letter is None:
                    if via_t != via_o:
                        raise RelationViolated(f"subtree edge {e!r} at element {a}")
                else:
                    if letter @ via_t != via_o @ letter:
                        raise RelationViolated(f"stable edge {e!r} at element {a}")
        return True


def build_gog(vertices, geometric_edges, vertex_groups, edge_groups, embeddings):
    """Assemble a graph of groups from plain data.

    ``geometric_edges``: list of (edge_id, origin, terminus) with distinct
    ids; each id e produces directed edges (e, "+") and (e, "-"), both
    carrying the group ``edge_groups[e]``.  ``embeddings`` maps (edge_id,
    direction) to a Hom into the terminus ("+": origin -> terminus
    direction).
    """
    origin, terminus, bar, groups = {}, {}, {}, {}
    for edge_id, u, v in geometric_edges:
        plus, minus = (edge_id, "+"), (edge_id, "-")
        if plus in origin:
            raise ValidationError(f"edge id {edge_id!r} appears twice")
        origin[plus], terminus[plus] = u, v
        origin[minus], terminus[minus] = v, u
        bar[plus], bar[minus] = minus, plus
        groups[plus] = groups[minus] = edge_groups[edge_id]
    graph = SerreGraph(vertices, origin, terminus, bar)
    return GraphOfFiniteGroups(graph, vertex_groups, groups, embeddings)


def load_gog(data):
    """Read the JSON form of a graph of finite groups.

    Shape::

        {"vertices": [...],
         "vertex_groups": {vertex: groupspec, ...},
         "edges": [{"id": ..., "from": u, "to": v, "group": groupspec,
                    "embed_to": {"gens": [...], "images": [...]},
                    "embed_from": {"gens": [...], "images": [...]}}]}

    Group specs are preset names or explicit tables; embeddings list
    generator/image pairs, extended multiplicatively and checked once built.
    """
    if not isinstance(data, dict) or "vertices" not in data or "edges" not in data:
        raise ValidationError("graph-of-groups JSON needs 'vertices' and 'edges'")
    if not isinstance(data["vertices"], list) or not isinstance(data["edges"], list):
        raise ValidationError("graph-of-groups 'vertices' and 'edges' must be lists")
    if not all(type(v) in (str, int) for v in data["vertices"]):
        raise ValidationError("graph-of-groups vertex ids must be strings or integers")
    vertices = [str(v) for v in data["vertices"]]
    raw_vgroups = data.get("vertex_groups", {})
    if not isinstance(raw_vgroups, dict):
        raise ValidationError("'vertex_groups' must be an object")
    vertex_groups = {}
    for v in vertices:
        if v not in raw_vgroups:
            raise ValidationError(f"no group given for vertex {v!r}")
        vertex_groups[v] = group_from_spec(raw_vgroups[v])
    geometric = []
    edge_groups = {}
    embeddings = {}
    for record in data["edges"]:
        if not isinstance(record, dict) or not all(type(record.get(k)) in (str, int) for k in ("id", "from", "to")):
            raise ValidationError(f"edge record {record!r} needs id/from/to as strings or integers")
        edge_id = str(record["id"])
        u, v = str(record["from"]), str(record["to"])
        for end in (u, v):
            if end not in vertex_groups:
                raise ValidationError(f"edge {edge_id!r} ends at undeclared vertex {end!r}")
        group = group_from_spec(record.get("group", "1"))
        geometric.append((edge_id, u, v))
        edge_groups[edge_id] = group

        def hom_from(spec, codomain):
            if spec is None:
                if group.order != 1:
                    raise ValidationError(f"edge {edge_id!r} needs explicit embeddings")
                return Hom(group, codomain, [codomain.identity])
            if not isinstance(spec, dict):
                raise ValidationError(f"an embedding of edge {edge_id!r} must be an object")
            gens, images = spec.get("gens", []), spec.get("images", [])
            if not isinstance(gens, list) or not isinstance(images, list):
                raise ValidationError(f"embedding 'gens' and 'images' of edge {edge_id!r} must be lists")
            return Hom.from_generator_images(group, codomain, gens, images)

        embeddings[(edge_id, "+")] = hom_from(record.get("embed_to"), vertex_groups[v])
        embeddings[(edge_id, "-")] = hom_from(record.get("embed_from"), vertex_groups[u])
    return build_gog(vertices, geometric, vertex_groups, edge_groups, embeddings)


def _rational(value):
    """A matrix entry: an ``int`` (not a ``bool``) as it is, or a string or
    float read by ``Fraction(str(value))`` once its decimal exponent, if
    any, is checked against ``RATIONAL_EXPONENT_CAP``."""
    if type(value) is int:
        return value
    if isinstance(value, (str, float)):
        from fractions import Fraction

        text = str(value)
        _, marker, exponent = text.lower().partition("e")
        try:
            if marker and abs(int(exponent)) > RATIONAL_EXPONENT_CAP:
                raise ValidationError(
                    f"matrix entry {value!r} has a decimal exponent above "
                    f"RATIONAL_EXPONENT_CAP = {RATIONAL_EXPONENT_CAP}"
                )
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValidationError(f"matrix entry {value!r} is not a rational number")


def _parse_rational_matrix(rows, dim, owner):
    if not (isinstance(rows, list) and len(rows) == dim):
        raise ValidationError(f"{owner} must be a list of {dim} rows")
    if not all(isinstance(row, list) and len(row) == dim for row in rows):
        raise ValidationError(f"each row of {owner} must be a list of {dim} entries")
    return [[_rational(v) for v in row] for row in rows]


def load_representation(data, gog):
    """Read the JSON form of a representation of the fundamental group of
    ``gog``.

    Shape::

        {"dim": n,
         "vertex_actions": {vertex: [matrix per group element], ...},
         "stable_letters": {edge_id: matrix, ...}}

    Every vertex of ``gog`` needs an action and every stable letter a
    matrix: n rows of n entries, each an ``int``, a decimal number or a
    ``"p/q"`` string.  The relations are checked later, by
    ``PiRepresentation.validate``.
    """
    if not isinstance(data, dict) or "dim" not in data or "vertex_actions" not in data:
        raise ValidationError("representation JSON needs 'dim' and 'vertex_actions'")
    dim = data["dim"]
    if type(dim) is not int or dim < 0:
        raise ValidationError("representation 'dim' must be a non-negative integer")
    actions = data["vertex_actions"]
    raw_stable = data.get("stable_letters", {})
    if not isinstance(actions, dict) or not isinstance(raw_stable, dict):
        raise ValidationError("'vertex_actions' and 'stable_letters' must be objects")
    vertex_matrices = {}
    for v in gog.graph.vertices:
        if v not in actions:
            raise ValidationError(f"no action given for vertex {v!r}")
        if not isinstance(actions[v], list):
            raise ValidationError(f"the action of vertex {v!r} must be a list of matrices")
        vertex_matrices[v] = [
            _parse_rational_matrix(m, dim, f"a matrix of vertex {v!r}") for m in actions[v]
        ]
    stable = {}
    for e in gog.stable_letters():
        edge_id = e[0]
        if edge_id not in raw_stable:
            raise ValidationError(f"no stable-letter matrix for edge {edge_id!r}")
        stable[e] = _parse_rational_matrix(raw_stable[edge_id], dim, f"the stable letter of {edge_id!r}")
    return PiRepresentation(dim, vertex_matrices, stable)
