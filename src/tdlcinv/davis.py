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

The poset is read off the scan ``CoxeterSystem.spherical_subsets``.

Finite systems short-circuit: a compact group has dimension zero and is
trivially a duality group.
"""

from __future__ import annotations

from itertools import islice

from .errors import ValidationError
from .records import Record
from .simplicial import SimplicialComplex, relative_cohomology, union_complexes


class WFinite(ValidationError):
    """The Coxeter group is finite; duality data degenerates to degree 0."""


class PosetTooLarge(ValidationError):
    pass


# spherical subsets, the empty one included, a chamber may be built on
SPHERICAL_SUBSET_CAP = 4096


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


def build_chamber(system, allow_finite=False):
    """Order complex of the spherical poset together with all mirrors.

    Raises ``WFinite`` when the full generator set is spherical (the group
    is finite), unless ``allow_finite`` is set for diagnostics.
    """
    if system.is_spherical(tuple(system.generators)) and not allow_finite:
        raise WFinite("the full generator set is spherical")
    poset = SphericalPoset.from_system(system)
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

    mirrors = {}
    for s in system.generators:
        containing = {vertex_of_subset[sub] for sub in poset.subsets if s in sub}
        mirror_chains = [
            chain for chain in chains if set(chain) <= containing
        ]
        mirrors[s] = (
            SimplicialComplex(mirror_chains, generate_closure=False)
            if mirror_chains
            else SimplicialComplex.empty()
        )
    return DavisChamber(system, poset, chamber, vertex_of_subset, mirrors)


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


def _relative_row(chamber, subset):
    mirrors = [chamber.mirrors[s] for s in chamber.system.generators if s not in subset]
    away = union_complexes(mirrors) if mirrors else SimplicialComplex.empty()
    return tuple(sorted(subset)), tuple(relative_cohomology(chamber.complex, away))


def relative_table(chamber, include_empty=True):
    """The duality verdict of a built chamber.

    Scans every spherical subset T (the empty set included by default) and
    tabulates the relative cohomology of (K, union of mirrors off T) in
    the poset's order.
    """
    rows = [_relative_row(chamber, s) for s in chamber.poset.subsets if s or include_empty]
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
