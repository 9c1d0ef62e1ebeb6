"""Shared random-instance generators for the property and acceptance suites."""

from itertools import combinations

from tdlcinv.coxeter import INFINITY, CoxeterSystem
from tdlcinv.groups import FiniteGroup, Hom
from tdlcinv.graphs_of_groups import build_gog
from tdlcinv.simplicial import SimplicialComplex


def trivial_hom(cod):
    return Hom(FiniteGroup.trivial(), cod, [cod.identity])


def random_gog(rng, allow_surjective=False):
    """Random small connected graph of cyclic groups with divisor edge groups.

    With ``allow_surjective=False`` every vertex group is nontrivial and
    every embedding lands in a proper subgroup, so the fundamental group is
    non-compact as soon as there is an edge.
    """
    num_vertices = rng.randint(1, 3)
    vertices = [f"v{i}" for i in range(num_vertices)]
    pool = [1, 2, 3, 4, 6] if allow_surjective else [2, 3, 4, 6]
    orders = {v: rng.choice(pool) for v in vertices}
    groups = {v: FiniteGroup.cyclic(orders[v]) for v in vertices}
    edges = []
    edge_groups = {}
    embeddings = {}
    num_edges = rng.randint(max(0, num_vertices - 1), num_vertices + 1)
    pairs = [(vertices[i], vertices[i + 1]) for i in range(num_vertices - 1)]
    while len(pairs) < num_edges:
        pairs.append((rng.choice(vertices), rng.choice(vertices)))
    for k, (u, w) in enumerate(pairs):
        divisors = [
            d
            for d in range(1, min(orders[u], orders[w]) + 1)
            if orders[u] % d == 0 and orders[w] % d == 0
        ]
        if not allow_surjective:
            divisors = [d for d in divisors if d < orders[u] and d < orders[w]]
        d = rng.choice(divisors)
        edge_group = FiniteGroup.cyclic(d)
        name = f"e{k}"
        edges.append((name, u, w))
        edge_groups[name] = edge_group

        def embedding(target, order):
            if d == 1:
                return trivial_hom(target)
            return Hom.from_generator_images(edge_group, target, [1], [order // d])

        embeddings[(name, "+")] = embedding(groups[w], orders[w])
        embeddings[(name, "-")] = embedding(groups[u], orders[u])
    return build_gog(vertices, edges, groups, edge_groups, embeddings)


def random_complex(rng, max_vertices=8):
    n = rng.randint(1, max_vertices)
    maximal = [(v,) for v in range(n)]
    for _ in range(rng.randint(0, 6)):
        size = rng.randint(1, min(4, n))
        maximal.append(tuple(rng.sample(range(n), size)))
    return SimplicialComplex.from_maximal(maximal)


def random_coxeter_system(rng, n):
    """Coxeter system on n generators, each label 2, 3 or infinity with
    weights 0.45, 0.4 and 0.15, as in the benchmark's seeded chambers."""
    m = [[1] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        m[i][j] = m[j][i] = rng.choices([2, 3, INFINITY], [0.45, 0.4, 0.15])[0]
    return CoxeterSystem(m)


def random_finite_group(rng):
    """A finite group of order at most 120 from a mixed constructor pool."""
    kind = rng.randrange(6)
    if kind == 0:
        return FiniteGroup.cyclic(rng.randint(1, 30))
    if kind == 1:
        return FiniteGroup.dihedral(rng.randint(3, 12))
    if kind == 2:
        return FiniteGroup.symmetric(rng.choice([3, 4, 5]))
    if kind == 3:
        return FiniteGroup.alternating(rng.choice([4, 5]))
    if kind == 4:
        a = FiniteGroup.cyclic(rng.randint(2, 10))
        b = FiniteGroup.cyclic(rng.randint(2, 120 // a.order))
        return FiniteGroup.direct_product(a, b)
    return FiniteGroup.direct_product(FiniteGroup.cyclic(rng.choice([2, 3])), FiniteGroup.symmetric(3))
