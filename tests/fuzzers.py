"""Shared random-instance generators for the property and acceptance suites."""

from itertools import combinations, permutations
from math import gcd, lcm

from tdlcinv.diagrams import INFINITY, CoxeterSystem
from tdlcinv.groups import FiniteGroup, Hom
from tdlcinv.graphs_of_groups import PiRepresentation, build_gog
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


def clique_skeleton(rng, n, density=0.076, top_size=4):
    """The cliques of at most ``top_size`` vertices of a seeded random graph
    on ``range(n)`` with ``round(density * n * n)`` edges, each clique a
    sorted tuple, vertices first.  The default density makes 2- and
    3-simplices whose boundary ranks need fill-in."""
    edges = rng.sample(list(combinations(range(n), 2)), round(density * n * n))
    adjacency = {v: set() for v in range(n)}
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    level = [(v,) for v in range(n)]
    cliques = list(level)
    for _ in range(top_size - 1):
        level = [s + (w,) for s in level for w in sorted(set.intersection(*(adjacency[x] for x in s))) if w > s[-1]]
        cliques += level
    return cliques


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


# -- graphs of groups inside S4, with representations pulled back from S4 ---

S4 = tuple(permutations(range(4)))
# generators of subgroups of S4, by name; the non-cyclic ones need two
S4_SUBGROUPS = {
    "C2": [(1, 0, 2, 3)],
    "C3": [(1, 2, 0, 3)],
    "C4": [(1, 2, 3, 0)],
    "C2xC2": [(1, 0, 2, 3), (0, 1, 3, 2)],
    "V4": [(1, 0, 3, 2), (2, 3, 0, 1)],
    "S3": [(1, 0, 2, 3), (1, 2, 0, 3)],
    "D4": [(1, 2, 3, 0), (2, 1, 0, 3)],
    "A4": [(1, 2, 0, 3), (1, 0, 3, 2)],
}


def compose(p, q):
    """The permutation p after q."""
    return tuple(p[i] for i in q)


def perm_closure(generators):
    """Sorted tuple of the subgroup of S4 the permutations generate."""
    found = {tuple(range(4))}
    frontier = found
    while frontier:
        frontier = {compose(x, g) for x in frontier for g in generators} - found
        found |= frontier
    return tuple(sorted(found))


def sign(p):
    return (-1) ** sum(p[i] > p[j] for i, j in combinations(range(4), 2))


def perm_group(perms, rng):
    """``(group, elements)``: the permutations as a ``FiniteGroup`` table,
    its element ids in a random order, and ``elements[id]`` the permutation."""
    elements = list(perms)
    rng.shuffle(elements)
    index = {p: k for k, p in enumerate(elements)}
    table = [[index[compose(p, q)] for q in elements] for p in elements]
    return FiniteGroup.from_table(table), elements


def perm_rep_matrix(p, twisted):
    """The permutation matrix of p (basis vector j goes to p[j]), times
    sign(p) when ``twisted``; either way a representation of S4."""
    s = sign(p) if twisted else 1
    return [[s * int(p[j] == i) for j in range(4)] for i in range(4)]


def random_s4_gog(rng):
    """Random connected graph of subgroups of S4, with loops, and a
    representation of its fundamental group pulled back from S4.

    Vertex groups are conjugates of the groups of ``S4_SUBGROUPS``; an
    edge group is generated by up to two random elements of the
    intersection of its two vertex groups and embeds into both by
    inclusion.  Stable letters act by elements of S4 centralizing their
    edge group, so every defining relation holds.  The representation
    is the permutation one on Q^4, its sign twist, or the sign character
    on Q^1.  Returns ``(gog, representation)``.
    """
    num_vertices = rng.randint(1, 3)
    vertices = [f"v{i}" for i in range(num_vertices)]
    perms, groups, elements = {}, {}, {}
    for v in vertices:
        c = rng.choice(S4)
        inverse = tuple(c.index(i) for i in range(4))
        generators = S4_SUBGROUPS[rng.choice(sorted(S4_SUBGROUPS))]
        perms[v] = perm_closure([compose(compose(c, g), inverse) for g in generators])
        groups[v], elements[v] = perm_group(perms[v], rng)
    pairs = [(vertices[i], vertices[i + 1]) for i in range(num_vertices - 1)]
    pairs += [(rng.choice(vertices),) * 2 for _ in range(rng.randint(1, 2))]  # loops
    pairs += [tuple(rng.choices(vertices, k=2)) for _ in range(rng.randint(0, 1))]
    edges, edge_groups, embeddings, edge_perms = [], {}, {}, {}
    for k, (u, w) in enumerate(pairs):
        common = sorted(set(perms[u]) & set(perms[w]))
        name = f"e{k}"
        edge_perms[name] = perm_closure(rng.sample(common, min(len(common), rng.randint(0, 2))))
        group, members = perm_group(edge_perms[name], rng)
        edges.append((name, u, w))
        edge_groups[name] = group
        for end, direction in ((w, "+"), (u, "-")):
            embeddings[(name, direction)] = Hom(group, groups[end], [elements[end].index(p) for p in members])
    gog = build_gog(vertices, edges, groups, edge_groups, embeddings)
    kind = rng.choice(["permutation", "twisted", "sign"])
    if kind == "sign":
        dim, matrix = 1, lambda p: [[sign(p)]]
    else:
        dim, matrix = 4, lambda p: perm_rep_matrix(p, kind == "twisted")
    stable = {}
    for e in gog.stable_letters():
        centralizer = [z for z in S4 if all(compose(z, a) == compose(a, z) for a in edge_perms[e[0]])]
        stable[e] = matrix(rng.choice(centralizer))
    rep = PiRepresentation(dim, {v: [matrix(p) for p in elements[v]] for v in vertices}, stable)
    return gog, rep


# -- the benchmark's family: graphs of cyclic groups over C12 -------------


def shift_matrix(x):
    """The regular representation of C12: basis vector j goes to j + x."""
    return [[int((i - j - x) % 12 == 0) for j in range(12)] for i in range(12)]


def regular_c12_gog(rng, palette=(2, 3, 4, 6, 12), num_vertices=30, extra_edges=30):
    """Connected graph of cyclic groups, each vertex and edge group mapped
    injectively into C12, with the pulled-back regular representation of
    C12, as the group-tables benchmark builds its ``gog --cohomology``
    inputs.

    Vertex v carries C_n (n | 12) mapped by 1 -> (12/n) c_v with c_v a
    unit; an edge group C_k embeds so that both images agree in C12, and
    stable letters act by shifts.  Returns ``(gog, representation,
    (h0, h1))``, the last from the dimension count: a subgroup of order k
    of C12 fixes a 12/k dimensional subspace, and h0 is the fixed space of
    the whole image.
    """
    names = [f"v{i:02d}" for i in range(num_vertices)]
    order = {v: rng.choice(palette) for v in names}
    unit = {v: rng.choice([c for c in range(1, order[v] + 1) if gcd(c, order[v]) == 1]) for v in names}
    pairs = [(names[rng.randrange(i)], names[i]) for i in range(1, num_vertices)]
    pairs += [tuple(rng.sample(names, 2)) for _ in range(extra_edges)]
    image_order = lcm(*order.values())
    groups = {v: FiniteGroup.cyclic(order[v]) for v in names}
    edges, edge_groups, embeddings, shifts = [], {}, {}, {}
    for k, (u, v) in enumerate(pairs):
        common = gcd(order[u], order[v])
        size = rng.choice([d for d in range(1, common + 1) if common % d == 0])
        edge_id = f"e{k:02d}"
        edge_group = FiniteGroup.cyclic(size)
        edges.append((edge_id, u, v))
        edge_groups[edge_id] = edge_group
        if size == 1:
            embeddings[(edge_id, "-")] = trivial_hom(groups[u])
            embeddings[(edge_id, "+")] = trivial_hom(groups[v])
        else:
            twist = unit[u] * pow(unit[v], -1, size) % size
            embeddings[(edge_id, "-")] = Hom.from_generator_images(edge_group, groups[u], [1], [order[u] // size])
            embeddings[(edge_id, "+")] = Hom.from_generator_images(
                edge_group, groups[v], [1], [order[v] // size * twist % order[v]]
            )
        shifts[edge_id] = 12 // image_order * rng.randrange(image_order)
    gog = build_gog(names, edges, groups, edge_groups, embeddings)
    rep = PiRepresentation(
        12,
        {v: [shift_matrix(12 // order[v] * unit[v] * a) for a in range(order[v])] for v in names},
        {e: shift_matrix(shifts[e[0]]) for e in gog.stable_letters()},
    )
    h0 = 12 // image_order
    h1 = sum(12 // g.order for g in edge_groups.values()) - sum(12 // n for n in order.values()) + h0
    return gog, rep, (h0, h1)
