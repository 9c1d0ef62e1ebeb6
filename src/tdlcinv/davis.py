"""Davis chamber of a Coxeter system and rational duality verdicts.

The chamber K is the order complex of the poset of spherical generator
subsets with the empty set adjoined: vertices are spherical subsets,
simplices are chains under strict inclusion, and the empty set is a cone
point.  The mirror of a generator is the full subcomplex on the subsets
containing it.

For every spherical subset T the pair (K, union of mirrors over the
complement of T) has exact rational relative cohomology.
``simplicial.relative_cohomology`` reads it from the ranks of the relative
boundary maps: the relative coboundary is their transpose, just as the
compact coboundary in ``simplicial`` is the boundary transpose.  The top
degree carrying a nonzero entry over all T is the cohomological dimension,
and the verdict is a duality verdict exactly when every nonzero entry sits in
that single degree.  The scan includes T empty by default (the union of
all mirrors); ``include_empty=False`` reproduces the nontrivial-subsets-only
reading for comparison, which demotes rank-one cases to dimension zero.

The poset is read off the scan ``CoxeterSystem.spherical_subsets``.  Every
subset of a spherical set is spherical, so the chamber's size follows from
the subset sizes alone (``chamber_simplex_count``) and is capped before any
chain is listed.

Rows whose nerve is a cone are zero without any matrix.  Write K^{S-T} for
the union of the mirrors off T and L_{S-T} for the nerve on S - T, whose
simplices are the nonempty spherical subsets of S - T.  The mirrors of a
set U of generators meet in the full subcomplex on the subsets containing
U: empty unless U is spherical, and otherwise a cone with apex U.  So the
mirrors off T form a cover of K^{S-T} by contractible sets whose every
nonempty intersection is contractible, and its nerve is L_{S-T}; by the
nerve lemma K^{S-T} is homotopy equivalent to L_{S-T} (Davis, *The
Geometry and Topology of Coxeter Groups*, 2008, Ch. 8).  If L_{S-T} is a
cone, with an apex s such that U + {s} is spherical for every spherical U
inside S - T, then K^{S-T} is contractible.  K is contractible too, a cone
with apex the empty set.  The long exact sequence of the pair then gives
H^*(K, K^{S-T}) = 0 in every degree.  ``cone_rows`` finds the apexes with
bitmasks: for each spherical U it takes ``ext[U]``, the generators s with
U + {s} spherical, and the apexes of a row are S - T and-ed with ext[U]
over every spherical U disjoint from T, which is one pass over the
subsets per row.

Rows are ranked once per orbit of the diagram automorphisms.  A
permutation sigma of the generators with m[sigma i][sigma j] = m[i][j]
carries the Coxeter presentation of W_T onto that of W_{sigma T}, so it
maps spherical subsets to spherical subsets and preserves inclusion: it is
an automorphism of the poset, hence a simplicial automorphism of K.  A
chain lies in the mirror of s exactly when s is in its least subset, so
sigma carries the mirror of s onto the mirror of sigma s, and the union of
the mirrors off T onto the union of the mirrors off sigma T.  An
isomorphism of pairs gives isomorphic relative cohomology, so the rows of
T and sigma T are equal (Davis, 2008, Ch. 8).  sigma also carries L_{S-T}
onto L_{S-sigma T}, so cone rows fill whole orbits.  ``relative_table``
therefore ranks the first subset of each orbit of rows that are not cones
and copies its dims to the rest, and runs the search only when two or more
rows are not cones.

The automorphisms come from a stabilizer-chain search
(``diagram_automorphisms``) that returns generators and never lists the
group: D-infinity times C2^k alone has 2 k! of them.  The search tries at
most (number of spherical subsets) * n candidate images.  Stopping early
leaves a subgroup, whose orbits refine the true ones; each class still
lies in one orbit, so the table stays exact and only the saving shrinks.

Finite systems short-circuit: a compact group has dimension zero and is
trivially a duality group.
"""

from itertools import islice
from math import comb

from .errors import ValidationError
from .records import Record
from .simplicial import SimplicialComplex, relative_cohomology, union_complexes


class WFinite(ValidationError):
    """The Coxeter group is finite; duality data degenerates to degree 0."""


class PosetTooLarge(ValidationError):
    pass


# spherical subsets, the empty one included, a chamber may be built on
SPHERICAL_SUBSET_CAP = 4096
# simplices (chains of spherical subsets) a chamber may have
CHAMBER_SIMPLEX_CAP = 100_000


class SphericalPoset(Record):
    """All spherical generator subsets, the empty set included, by size and
    then lexicographically."""

    __slots__ = ("subsets",)

    @classmethod
    def from_system(cls, system):
        scan = islice(system.spherical_subsets(), SPHERICAL_SUBSET_CAP + 1)
        subsets = tuple(frozenset(subset) for subset, _ in scan)
        if len(subsets) > SPHERICAL_SUBSET_CAP:
            raise PosetTooLarge(f"more than SPHERICAL_SUBSET_CAP = {SPHERICAL_SUBSET_CAP} spherical subsets")
        return cls(subsets)

    def __len__(self):
        return len(self.subsets)


class DavisChamber(Record):
    # mirrors: generator -> full subcomplex on the subsets containing it
    __slots__ = ("system", "poset", "complex", "vertex_of_subset", "mirrors")


def chamber_simplex_count(poset):
    """Number of chains of the poset, counted without listing any.

    Every subset of a spherical set is spherical, so the chains whose
    largest subset is V are the chains of the subsets of V that end at V.
    Their number c(|V|) depends on |V| alone: c(k) = 1 + sum over j < k of
    C(k, j) c(j), one term for each possible next largest subset.
    """
    top = max(map(len, poset.subsets), default=0)
    chains_ending_at = []
    for k in range(top + 1):
        chains_ending_at.append(1 + sum(comb(k, j) * chains_ending_at[j] for j in range(k)))
    return sum(chains_ending_at[len(subset)] for subset in poset.subsets)


def build_chamber(system, allow_finite=False):
    """Order complex of the spherical poset together with all mirrors.

    Raises ``WFinite`` when the full generator set is spherical (the group
    is finite), unless ``allow_finite`` is set for diagnostics, and
    ``PosetTooLarge`` above ``CHAMBER_SIMPLEX_CAP`` chains, counted before
    any is listed.
    """
    if system.is_spherical(tuple(system.generators)) and not allow_finite:
        raise WFinite("the full generator set is spherical")
    poset = SphericalPoset.from_system(system)
    if chamber_simplex_count(poset) > CHAMBER_SIMPLEX_CAP:
        raise PosetTooLarge(f"the chamber has more than CHAMBER_SIMPLEX_CAP = {CHAMBER_SIMPLEX_CAP} simplices")
    vertex_of_subset = {subset: i for i, subset in enumerate(poset.subsets)}

    # chains of the inclusion order: build upward from every subset
    covers = {
        subset: [other for other in poset.subsets if subset < other]
        for subset in poset.subsets
    }
    chains = []

    def extend(chain, top):
        chains.append(tuple(vertex_of_subset[s] for s in chain))
        for nxt in covers[top]:
            extend(chain + [nxt], nxt)

    for subset in poset.subsets:
        extend([subset], subset)
    chamber = SimplicialComplex(chains, generate_closure=False)

    # chains ascend, so a chain lies in the mirror of s iff its least subset
    # contains s
    mirror_chains = {s: [] for s in system.generators}
    for chain in chains:
        for s in poset.subsets[chain[0]]:
            mirror_chains[s].append(chain)
    mirrors = {
        s: SimplicialComplex(mirror_chains[s], generate_closure=False) for s in system.generators
    }
    return DavisChamber(system, poset, chamber, vertex_of_subset, mirrors)


def diagram_automorphisms(m, budget):
    """Generators of the diagram automorphisms of the label matrix ``m``:
    the permutations sigma with m[sigma i][sigma j] = m[i][j].

    A stabilizer-chain search.  For k from n - 1 down to 0, with 0..k-1
    fixed, it looks for one automorphism sending k to each c not yet in
    k's orbit under the generators found so far; those fix 0..k-1 and
    already generate the stabilizer of 0..k, so the generators found at
    level k complete the stabilizer of 0..k-1.  An image is extended one
    generator at a time, and generator i is only sent to generators with
    the same sorted label row.  After ``budget`` candidate images it finds
    nothing more and returns the generators found so far.
    """
    n = len(m)
    profile = [sorted(row) for row in m]
    alike = [[c for c in range(n) if profile[c] == profile[i]] for i in range(n)]
    nodes = budget

    def fits(image, c):
        # whether image + [c] keeps every label among its points
        nonlocal nodes
        if nodes <= 0:
            return False
        nodes -= 1
        row, target = m[len(image)], m[c]
        return all(target[image[j]] == row[j] for j in range(len(image)))

    def extend(image):
        if len(image) == n:
            return image
        for c in alike[len(image)]:
            if c not in image and fits(image, c):
                found = extend(image + [c])
                if found:
                    return found
        return None

    generators = []
    for k in reversed(range(n)):
        fixed = list(range(k))
        orbit = _orbit(k, generators)
        for c in alike[k]:
            if c > k and c not in orbit and fits(fixed, c):
                found = extend(fixed + [c])
                if found:
                    generators.append(tuple(found))
                    orbit = _orbit(k, generators)
    return generators


def _orbit(point, generators):
    orbit, frontier = {point}, [point]
    while frontier:
        p = frontier.pop()
        for g in generators:
            if g[p] not in orbit:
                orbit.add(g[p])
                frontier.append(g[p])
    return orbit


def subset_orbits(index_of_subset, generators):
    """For each subset, in the order of ``index_of_subset``, the index of
    the first subset of its orbit under the generators, merged by
    union-find."""
    root = list(range(len(index_of_subset)))

    def find(i):
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    for g in generators:
        for subset, i in index_of_subset.items():
            a, b = find(i), find(index_of_subset[frozenset(g[s] for s in subset)])
            if a != b:
                root[max(a, b)] = min(a, b)
    return [find(i) for i in range(len(root))]


class DualityVerdict(Record):
    """Top nonvanishing degree and one-degree concentration over the scan.

    ``table`` maps each scanned subset T (as a sorted generator tuple) to
    the tuple of relative cohomology dimensions of (K, mirrors off T).
    """

    __slots__ = ("cd", "is_duality", "table")  # table: ((T, dims), ...) sorted

    def entries(self):
        for subset, dims in self.table:
            for degree, dim in enumerate(dims):
                if dim:
                    yield subset, degree, dim

    def to_json(self):
        return {
            "cd": self.cd,
            "duality": self.is_duality,
            "table": [
                {"T": list(subset), "dims": list(dims)} for subset, dims in self.table
            ],
        }


def _relative_dims(chamber, subset):
    mirrors = [chamber.mirrors[s] for s in chamber.system.generators if s not in subset]
    return tuple(relative_cohomology(chamber.complex, union_complexes(mirrors)))


def cone_rows(subsets, n):
    """For each spherical subset T of ``subsets`` (all of them, in any
    order), whether the nerve L_{S-T} is a cone: whether some s in S - T
    has U + {s} spherical for every spherical U inside S - T."""
    masks = [sum(1 << s for s in subset) for subset in subsets]
    spherical = set(masks)
    ext = [sum(1 << s for s in range(n) if mask | 1 << s in spherical) for mask in masks]
    everything = (1 << n) - 1
    cones = []
    for row in masks:
        apexes = everything & ~row
        for mask, extends in zip(masks, ext):
            if not mask & row:
                apexes &= extends
        cones.append(apexes != 0)
    return cones


def relative_table(chamber, include_empty=True):
    """The duality verdict of a built chamber.

    Scans every spherical subset T (the empty set included by default) and
    tabulates the relative cohomology of (K, union of mirrors off T) in
    the poset's order.  A row whose nerve L_{S-T} is a cone is zero; of
    the others only the first subset of each diagram-automorphism orbit is
    ranked, and the rest copy its dims.
    """
    subsets = chamber.poset.subsets
    cones = cone_rows(subsets, chamber.system.n)
    scanned = [i for i, subset in enumerate(subsets) if subset or include_empty]
    first = range(len(subsets))
    if sum(not cones[i] for i in scanned) > 1:
        generators = diagram_automorphisms(chamber.system.m, len(subsets) * chamber.system.n)
        first = subset_orbits(chamber.vertex_of_subset, generators)
    zero = (0,) * (chamber.complex.dim + 1)
    dims_of = {}
    rows = []
    for i in scanned:
        subset = subsets[i]
        if cones[i]:
            dims = zero
        elif first[i] in dims_of:
            dims = dims_of[first[i]]
        else:
            dims = dims_of[first[i]] = _relative_dims(chamber, subset)
        rows.append((tuple(sorted(subset)), dims))
    degrees_seen = {degree for _, dims in rows for degree, dim in enumerate(dims) if dim}
    return DualityVerdict(
        cd=max(degrees_seen, default=0),
        is_duality=len(degrees_seen) <= 1,
        table=tuple(rows),
    )


def finite_type_verdict(system):
    """Degenerate verdict for finite groups: dimension 0, duality, the
    single entry carried by the full generator set."""
    full = tuple(system.generators)
    return DualityVerdict(cd=0, is_duality=True, table=((full, (1,)),))


def duality_verdict(system, include_empty=True):
    """End-to-end verdict for a Coxeter system, finite types short-circuited."""
    if system.is_spherical(tuple(system.generators)):
        return finite_type_verdict(system)
    chamber = build_chamber(system)
    return relative_table(chamber, include_empty=include_empty)


def kac_moody_verdict(system, include_empty=True):
    """Duality verdict transferred to the associated building-automorphism
    group: dimension and duality verdict coincide with the Coxeter verdict.
    Requires an infinite system."""
    if system.is_spherical(tuple(system.generators)):
        raise WFinite("transfer needs an infinite Coxeter group")
    return duality_verdict(system, include_empty=include_empty)
