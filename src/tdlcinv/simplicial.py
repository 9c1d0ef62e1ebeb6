"""Finite simplicial complexes and their exact rational (co)homology.

A complex is a downward-closed family of nonempty finite vertex subsets.
Each simplex is stored once in canonical orientation (strictly increasing
vertex ids); all signs are derived from sorting parity, which makes every
matrix produced here deterministic.

Conventions:

* ``boundary_matrix(q)`` is the degree-q boundary map in the canonical
  bases, with the face dropping position ``j`` carrying sign ``(-1)^j``.
* ``compact_cochain_matrix(q)`` is the degree-q coboundary of the finitely
  supported cochain complex, taken as the transpose of
  ``boundary_matrix(q + 1)``.  In degree 0 the domain is read in the
  plus/minus doubled vertex basis (positive representatives).  The
  definition by vertex extensions ``I(A)`` (all ``z`` with ``A + {z}`` a
  simplex, prepending ``z`` and sorting) lives in ``tests/oracles.py``,
  where the tests check it against this transpose.
* Compactly supported cohomology of infinite complexes is only exposed
  through the ball/frontier window API (``ball_sphere_growth``): the caller
  supplies finite pairs and gets relative cohomology per radius.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import ValidationError
from .ratlin import RationalMatrix, homology_dims


class NotClosed(ValidationError):
    """A simplex is present while one of its faces is missing."""

    def __init__(self, simplex, missing_face):
        self.simplex = tuple(simplex)
        self.missing_face = tuple(missing_face)
        super().__init__(f"simplex {self.simplex} present but face {self.missing_face} missing")


class DegreeOutOfRange(ValidationError):
    pass


class NotSubcomplex(ValidationError):
    pass


@dataclass(frozen=True)
class OrientedSimplex:
    """A simplex with orientation: increasing vertex tuple plus a sign.

    Swapping two vertices in the input flips the sign (wedge semantics);
    repeated vertices are degenerate and rejected.
    """

    vertices: tuple
    sign: int

    @classmethod
    def from_vertices(cls, seq):
        seq = tuple(seq)
        if len(set(seq)) != len(seq):
            raise ValueError(f"degenerate simplex {seq}")
        # parity of the sorting permutation by inversion count
        inversions = 0
        for i in range(len(seq)):
            for j in range(i + 1, len(seq)):
                if seq[i] > seq[j]:
                    inversions += 1
        return cls(tuple(sorted(seq)), -1 if inversions % 2 else 1)


class SignedSet:
    """A set with a fixed-point-free involution ``bar``.

    ``positives()`` returns one canonical representative per orbit (the
    smaller element), which is the basis bookkeeping used for oriented
    simplices and for edge inversion on graphs.
    """

    def __init__(self, bar):
        self.bar = dict(bar)
        for x, y in self.bar.items():
            if y == x:
                raise ValidationError(f"involution fixes {x!r}")
            if self.bar.get(y) != x:
                raise ValidationError(f"bar is not an involution at {x!r}")

    def __len__(self):
        return len(self.bar)

    def __contains__(self, x):
        return x in self.bar

    def positives(self):
        return tuple(sorted(x for x in self.bar if x <= self.bar[x]))


class SimplicialComplex:
    """Finite downward-closed set system, graded by cardinality minus one."""

    __slots__ = ("vertices", "_graded", "_simplices")

    def __init__(self, simplices, generate_closure=True):
        collected = set()
        for s in simplices:
            s = tuple(sorted(set(s)))
            if not s:
                raise ValidationError("the empty set is not a simplex")
            if generate_closure:
                for k in range(1, len(s) + 1):
                    collected.update(combinations(s, k))
            else:
                collected.add(s)
        self._simplices = frozenset(collected)
        graded = {}
        for s in collected:
            graded.setdefault(len(s) - 1, []).append(s)
        self._graded = {q: tuple(sorted(v)) for q, v in graded.items()}
        self.vertices = tuple(v[0] for v in self._graded.get(0, ()))

    @classmethod
    def from_maximal(cls, maximal_simplices):
        return cls(maximal_simplices, generate_closure=True)

    @classmethod
    def full_complex(cls, vertex_ids):
        """All nonempty subsets of the given vertices."""
        return cls([tuple(vertex_ids)], generate_closure=True)

    @classmethod
    def empty(cls):
        return cls([], generate_closure=False)

    # -- structure -----------------------------------------------------------

    @property
    def dim(self):
        return max(self._graded) if self._graded else -1

    def simplices(self, q):
        return self._graded.get(q, ())

    def all_simplices(self):
        return self._simplices

    def __contains__(self, simplex):
        return tuple(sorted(simplex)) in self._simplices

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self._simplices == other._simplices

    def __hash__(self):
        return hash(self._simplices)

    def __repr__(self):
        counts = [len(self.simplices(q)) for q in range(self.dim + 1)]
        return f"SimplicialComplex(f-vector {counts})"

    def f_vector(self):
        return tuple(len(self.simplices(q)) for q in range(self.dim + 1))

    def euler_characteristic(self):
        return sum((-1) ** q * len(self.simplices(q)) for q in range(self.dim + 1))

    def validate(self):
        """Check downward closure and grading consistency.

        Raises ``NotClosed`` naming the offending simplex and missing face.
        """
        for q, simplices in self._graded.items():
            for s in simplices:
                if len(s) != q + 1:
                    raise ValidationError(f"simplex {s} graded at {q}")
                if q == 0:
                    continue
                for face in combinations(s, q):
                    if face not in self._simplices:
                        raise NotClosed(s, face)
        return True

    def is_subcomplex_of(self, other):
        return self._simplices <= other._simplices

    # -- signed-set views ------------------------------------------------------

    def oriented_simplices(self, q):
        """The signed set of oriented q-simplices.

        For q >= 1 the elements are vertex orderings and the involution
        swaps the first two vertices; in degree 0 it is the plus/minus
        doubling of the vertex set.  The canonical representatives are
        exactly the bases used by the matrix builders below: increasing
        orderings, positive signs.
        """
        if q == 0:
            bar = {}
            for v in self.vertices:
                bar[("+", (v,))] = ("-", (v,))
                bar[("-", (v,))] = ("+", (v,))
            return SignedSet(bar)
        bar = {}
        for s in self.simplices(q):
            swapped = (s[1], s[0]) + s[2:]
            bar[s] = swapped
            bar[swapped] = s
        return SignedSet(bar)

    # -- chain and cochain matrices -------------------------------------------

    def boundary_matrix(self, q):
        """Matrix of the boundary map from degree q to degree q-1 chains."""
        if not 1 <= q <= self.dim:
            raise DegreeOutOfRange(f"boundary degree {q} outside 1..{self.dim}")
        return self._boundary(q, frozenset())

    def _boundary(self, q, away):
        """Boundary from degree q to q-1 on the simplices outside ``away``.

        With ``away`` the simplex set of a subcomplex this is the relative
        boundary of the pair: faces in ``away`` are dropped.  A face in
        neither the complex nor ``away`` raises ``NotClosed``.
        """
        rows, kept = {}, 0
        for s in self.simplices(q - 1):
            if s in away:
                rows[s] = None
            else:
                rows[s] = kept
                kept += 1
        cols = [s for s in self.simplices(q) if s not in away]
        entries = {}
        for j, s in enumerate(cols):
            for drop in range(len(s)):
                face = s[:drop] + s[drop + 1:]
                try:
                    i = rows[face]
                except KeyError:
                    raise NotClosed(s, face) from None
                if i is not None:
                    entries[(i, j)] = -1 if drop % 2 else 1
        return RationalMatrix(kept, len(cols), entries)

    def chain_boundary_maps(self):
        """Full list of boundary matrices, the degree-0 map having zero rows."""
        maps = [RationalMatrix.zero(0, len(self.simplices(0)))]
        for q in range(1, self.dim + 1):
            maps.append(self.boundary_matrix(q))
        return maps

    def homology(self):
        """Dimensions of rational homology in degrees 0..dim."""
        if self.dim < 0:
            return []
        return homology_dims(self.chain_boundary_maps())

    def compact_cochain_matrix(self, q):
        """Matrix of the finitely supported coboundary from degree q to q+1.

        The transpose of ``boundary_matrix(q + 1)``: the dual of an oriented
        q-simplex A maps to the signed sum of the (q+1)-simplices having A
        as a face.  At the top degree the matrix has zero rows.
        """
        if not 0 <= q <= self.dim:
            raise DegreeOutOfRange(f"cochain degree {q} outside 0..{self.dim}")
        if q == self.dim:
            return RationalMatrix.zero(0, len(self.simplices(q)))
        return self.boundary_matrix(q + 1).transpose()

    def cohomology_compact(self):
        """Dimensions of compactly supported cohomology in degrees 0..dim."""
        if self.dim < 0:
            return []
        ranks = [self.compact_cochain_matrix(q).rank() for q in range(self.dim + 1)]
        dims = []
        for q in range(self.dim + 1):
            below = ranks[q - 1] if q > 0 else 0
            dims.append(len(self.simplices(q)) - ranks[q] - below)
        return dims


def union_complexes(complexes):
    """Union of subcomplexes of a common complex."""
    simplices = set()
    for c in complexes:
        simplices.update(c.all_simplices())
    return SimplicialComplex(simplices, generate_closure=False)


def relative_cohomology(complex_, subcomplex):
    """Dimensions of the rational cohomology of the pair, degrees 0..dim.

    Relative cochains live on the simplices of the big complex that are not
    in the subcomplex; the coboundary is the adjoint of the relative
    boundary map (faces falling into the subcomplex are dropped).
    """
    subcomplex.validate()
    if not subcomplex.is_subcomplex_of(complex_):
        raise NotSubcomplex("second complex is not a subcomplex of the first")
    top = complex_.dim
    if top < 0:
        return []
    away = subcomplex.all_simplices()
    # rank of the relative boundary map in each positive degree
    ranks = [0] * (top + 2)
    for q in range(1, top + 1):
        ranks[q] = complex_._boundary(q, away).rank()
    kept = [len(complex_.simplices(q)) - len(subcomplex.simplices(q)) for q in range(top + 1)]
    return [kept[q] - ranks[q] - ranks[q + 1] for q in range(top + 1)]


def ball_sphere_growth(builder, radii):
    """Relative cohomology of (ball, frontier) pairs per radius.

    ``builder(radius)`` must return a finite pair ``(ball, frontier)``; the
    result list holds ``relative_cohomology(ball, frontier)`` per radius.
    This is the finite window onto compactly supported cohomology of an
    infinite complex: the frontier is what the window cuts through.
    """
    return [relative_cohomology(*builder(r)) for r in radii]


def line_window(radius):
    """Ball of the two-sided infinite line: a path with frontier endpoints."""
    if radius == 0:
        return SimplicialComplex([(0,)]), SimplicialComplex.empty()
    edges = [(i, i + 1) for i in range(2 * radius)]
    ball = SimplicialComplex.from_maximal(edges)
    frontier = SimplicialComplex([(0,), (2 * radius,)], generate_closure=False)
    return ball, frontier


def regular_tree_window(degree):
    """Window builder for the infinite ``degree``-regular tree.

    Returns a function of the radius producing (ball, frontier-vertices):
    the root has ``degree`` children and every deeper vertex ``degree - 1``.
    """

    def build(radius):
        if radius == 0:
            return SimplicialComplex([(0,)]), SimplicialComplex.empty()
        edges = []
        next_id = 1
        level = []
        for _ in range(degree):
            edges.append((0, next_id))
            level.append(next_id)
            next_id += 1
        for _ in range(radius - 1):
            new_level = []
            for parent in level:
                for _ in range(degree - 1):
                    edges.append((parent, next_id))
                    new_level.append(next_id)
                    next_id += 1
            level = new_level
        ball = SimplicialComplex.from_maximal(edges)
        frontier = SimplicialComplex([(v,) for v in level], generate_closure=False)
        return ball, frontier

    return build


def map_simplices(raw_simplices, id_map, owner):
    """Map JSON simplices, lists of vertex ids, to tuples of integer ids.

    Raises ``ValidationError`` when ``raw_simplices`` is not a list of
    lists, and names the simplex that uses a vertex outside ``id_map`` or
    repeats a vertex; ``owner`` names the complex in the message.
    """
    if not isinstance(raw_simplices, list) or not all(isinstance(raw, list) for raw in raw_simplices):
        raise ValidationError(f"{owner} 'maximal_simplices' must be a list of vertex lists")
    simplices = []
    for raw in raw_simplices:
        mapped = []
        for v in raw:
            key = str(v)
            if key not in id_map:
                raise ValidationError(f"{owner} simplex {raw!r} uses unknown vertex {v!r}")
            mapped.append(id_map[key])
        if len(set(mapped)) != len(mapped):
            raise ValidationError(f"{owner} simplex {raw!r} repeats a vertex")
        simplices.append(tuple(mapped))
    return simplices


def load_complex(data):
    """Build a complex from its JSON form, mapping opaque ids to integers.

    Expected shape: ``{"vertices": [...], "maximal_simplices": [[...], ...]}``.
    Downward closure is generated on load.  Returns ``(complex, id_map)``.
    """
    if not isinstance(data, dict) or "vertices" not in data:
        raise ValidationError("complex JSON must have a 'vertices' field")
    raw_vertices = data["vertices"]
    if not isinstance(raw_vertices, list):
        raise ValidationError("complex 'vertices' must be a list of ids")
    if len(set(map(str, raw_vertices))) != len(raw_vertices):
        raise ValidationError("duplicate vertex ids")
    id_map = {str(v): i for i, v in enumerate(sorted(raw_vertices, key=str))}
    simplices = map_simplices(data.get("maximal_simplices", []), id_map, "complex")
    simplices.extend((i,) for i in id_map.values())
    return SimplicialComplex.from_maximal(simplices), id_map
