"""Expected CLI outputs computed without tdlcinv.

Every function here derives a subcommand's JSON payload from the
mathematics alone (closed forms, textbook counts, a rank modulo a large
prime), so a wrong answer from the program cannot leak into its own
reference.  Nothing in this module imports tdlcinv.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

PRIME = (1 << 61) - 1
INF = "inf"


# -- linear algebra -------------------------------------------------------------


def rank_mod_p(columns):
    """Rank of the matrix whose columns are ``{row: int}`` dicts, modulo PRIME.

    Each column is reduced against the pivot columns found so far, keyed by
    their lowest row.  The rank mod a 61-bit prime equals the rational rank
    unless the prime divides every maximal nonzero minor, which the small
    entries of boundary matrices make vanishingly unlikely.
    """
    pivots = {}
    for column in columns:
        col = {r: v % PRIME for r, v in column.items() if v % PRIME}
        while col:
            low = min(col)
            pivot = pivots.get(low)
            if pivot is None:
                inv = pow(col[low], PRIME - 2, PRIME)
                pivots[low] = {r: v * inv % PRIME for r, v in col.items()}
                break
            factor = col[low]
            for r, v in pivot.items():
                value = (col.get(r, 0) - factor * v) % PRIME
                if value:
                    col[r] = value
                else:
                    col.pop(r, None)
    return len(pivots)


def betti_numbers(simplices_by_dim):
    """Rational Betti numbers b_0..b_top of a finite simplicial complex given
    as ``simplices_by_dim[q] = [sorted vertex tuple, ...]``."""
    top = len(simplices_by_dim) - 1
    ranks = [0] * (top + 2)
    for q in range(1, top + 1):
        index = {s: i for i, s in enumerate(simplices_by_dim[q - 1])}
        columns = []
        for s in simplices_by_dim[q]:
            columns.append(
                {index[s[:k] + s[k + 1:]]: (-1) ** k for k in range(len(s))}
            )
        ranks[q] = rank_mod_p(columns)
    return [len(simplices_by_dim[q]) - ranks[q] - ranks[q + 1] for q in range(top + 1)]


def components(vertices, edges):
    """Connected components by union-find."""
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    return len({find(v) for v in vertices})


# -- clique complexes and tree windows ----------------------------------------------


def clique_levels(n, edges, top_dim=3):
    """Simplices of the clique complex of a graph on range(n), by dimension,
    up to ``top_dim``."""
    adjacency = {v: set() for v in range(n)}
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    levels = [[(v,) for v in range(n)]]
    while len(levels) <= top_dim:
        grown = sorted(
            s + (w,)
            for s in levels[-1]
            for w in set.intersection(*(adjacency[x] for x in s))
            if w > s[-1]
        )
        if not grown:
            break
        levels.append(grown)
    return levels


def clique_betti(n, edges, levels):
    """Betti numbers of the clique complex with simplices ``levels``.

    Cross-checked inside the reference: b_0 against union-find and the
    alternating Betti sum against the f-vector Euler characteristic.
    """
    betti = betti_numbers(levels)
    euler = sum((-1) ** q * len(level) for q, level in enumerate(levels))
    if betti[0] != components(range(n), edges):
        raise AssertionError("reference b_0 disagrees with union-find")
    if sum((-1) ** q * b for q, b in enumerate(betti)) != euler:
        raise AssertionError("reference Betti numbers disagree with the f-vector")
    return betti


def tree_window_dims(radius):
    """H^*(ball, frontier) of the radius-r ball in the 3-regular tree: the
    ball is contractible and the frontier is 3 * 2^(r-1) points."""
    return [0, 3 * 2 ** (radius - 1) - 1]


# -- Coxeter systems and the Davis nerve ----------------------------------------------


def simply_laced_spherical(m, subset):
    """Whether the parabolic subgroup on ``subset`` is finite, for Coxeter
    labels in {2, 3, inf}: every diagram component must be a tree with at
    most one branch point, whose arm lengths a, b, c (in edges) satisfy
    1/(a+1) + 1/(b+1) + 1/(c+1) > 1 (types A, D, E)."""
    subset = list(subset)
    for i, j in combinations(subset, 2):
        if m[i][j] == INF:
            return False
        if m[i][j] not in (2, 3):
            raise ValueError(f"label {m[i][j]!r} outside {{2, 3, inf}}")
    adjacency = {i: [j for j in subset if j != i and m[i][j] == 3] for i in subset}
    edge_count = sum(len(v) for v in adjacency.values()) // 2
    if edge_count != len(subset) - components(subset, [(i, j) for i in subset for j in adjacency[i]]):
        return False  # some component has a cycle
    branches = [i for i in subset if len(adjacency[i]) >= 3]
    for b in branches:
        if len(adjacency[b]) > 3:
            return False
        arms = []
        for start in adjacency[b]:
            length, prev, here = 1, b, start
            while True:
                onward = [j for j in adjacency[here] if j != prev]
                if len(onward) != 1:
                    if onward:
                        return False  # a second branch point on this arm
                    break
                prev, here = here, onward[0]
                length += 1
            arms.append(length)
        if sum(Fraction(1, a + 1) for a in arms) <= 1:
            return False
    return True


def spherical_subsets(m):
    n = len(m)
    return [
        frozenset(s)
        for size in range(n + 1)
        for s in combinations(range(n), size)
        if simply_laced_spherical(m, s)
    ]


def chamber_simplex_count(m):
    """Simplices of the Davis chamber: nonempty chains of spherical subsets
    (the empty set included) under strict inclusion."""
    subsets = sorted(spherical_subsets(m), key=len, reverse=True)
    chains_from = {}
    for s in subsets:
        chains_from[s] = 1 + sum(chains_from[t] for t in chains_from if s < t)
    return sum(chains_from.values())


def davis_verdict(m, include_empty=True):
    """The duality verdict payload from the nerve lemma.

    The chamber K is a cone and the mirrors over S - T form a cover whose
    nonempty intersections are cones exactly over spherical subsets, so
    H^k(K, K^{S-T}) = reduced H^{k-1}(L_{S-T}), where L_{S-T} is the
    simplicial complex of nonempty spherical subsets of S - T.
    """
    n = len(m)
    spherical = spherical_subsets(m)
    if frozenset(range(n)) in spherical:
        raise ValueError("finite Coxeter group: the CLI short-circuits these")
    top = max(len(s) for s in spherical)
    rows = []
    for t in sorted(spherical, key=lambda s: (len(s), sorted(s))):
        if not t and not include_empty:
            continue
        rest = frozenset(range(n)) - t
        nerve = [sorted(s) for s in spherical if s and s <= rest]
        levels = [sorted(tuple(s) for s in nerve if len(s) == q + 1) for q in range(top)]
        while levels and not levels[-1]:
            levels.pop()
        betti = betti_numbers(levels)
        betti[0] -= 1  # reduced cohomology; L is nonempty since rest is
        dims = [0] + betti + [0] * (top - len(betti))
        rows.append({"T": sorted(t), "dims": dims})
    degrees = {k for row in rows for k, d in enumerate(row["dims"]) if d}
    return {"cd": max(degrees, default=0), "duality": len(degrees) <= 1, "table": rows}


# -- Weyl groups ---------------------------------------------------------------------


def weyl_degrees(kind, rank):
    """Degrees of the basic invariants of the Weyl group of a finite type."""
    if kind == "A":
        return list(range(2, rank + 2))
    if kind in ("B", "C"):
        return list(range(2, 2 * rank + 1, 2))
    if kind == "D":
        return sorted(list(range(2, 2 * rank - 1, 2)) + [rank])
    if kind == "G" and rank == 2:
        return [2, 6]
    if kind == "F" and rank == 4:
        return [2, 6, 8, 12]
    raise ValueError(f"no degree table for {kind}{rank}")


def poincare_coeffs(degrees):
    """Coefficients of prod_i (1 + t + ... + t^(d_i - 1))."""
    coeffs = [1]
    for d in degrees:
        out = [0] * (len(coeffs) + d - 1)
        for i, c in enumerate(coeffs):
            for j in range(d):
                out[i + j] += c
        coeffs = out
    return coeffs


def chevalley_payload(name, q):
    """chi = -prod (q^m_i - 1) / P(q) over the Iwahori normalization, with
    the parahoric sum required to agree."""
    degrees = weyl_degrees(name[0], int(name[1:]))
    numerator = 1
    for d in degrees:
        numerator *= q ** (d - 1) - 1
    value = Fraction(-numerator, sum(c * q ** k for k, c in enumerate(poincare_coeffs(degrees))))
    return {
        "type": name,
        "q": q,
        "coefficient": str(value),
        "base": "Iw",
        "parahoric_coefficient": str(value),
        "paths_agree": True,
    }


# -- finite groups, coset graphs and graphs of groups -------------------------------------


def generated_subgroup(table, generators, identity):
    members = {identity}
    frontier = [identity]
    while frontier:
        frontier = [
            table[x][g] for x in frontier for g in generators if table[x][g] not in members
        ]
        members.update(frontier)
    return members


def coset_ball(table, identity, subgroup_gens, generators, radius):
    """The rough-cayley payload: the radius ball of the graph on left cosets
    gH, with gH adjacent to g'H whenever g' lies in gHsH for a generator s
    of the inverse-closed set."""
    inverse = {a: next(b for b in range(len(table)) if table[a][b] == identity) for a in generators}
    gens = set(generators) | set(inverse.values())
    subgroup = generated_subgroup(table, subgroup_gens, identity)
    cosets = {}
    for g in range(len(table)):
        cosets.setdefault(frozenset(table[g][h] for h in subgroup), g)
    coset_of = {g: c for c in cosets for g in c}

    def neighbours(c):
        return {coset_of[table[table[g][s]][h]] for g in c for s in gens for h in subgroup}

    base = coset_of[identity]
    ball, frontier = {base}, [base]
    for _ in range(radius):
        frontier = [d for c in frontier for d in neighbours(c) if d not in ball]
        ball.update(frontier)
    edges = {frozenset((c, d)) for c in ball for d in neighbours(c) & ball if c != d}
    h1 = len(edges) - len(ball) + 1
    return {
        "vertices": len(ball),
        "geometric_edges": len(edges),
        "h1": h1,
        "components": 1,
        "tree": h1 == 0,
    }


def gog_chi(vertex_orders, edge_orders):
    """Euler characteristic sum 1/|G_v| - sum 1/|G_e| over the trivial base."""
    value = sum(Fraction(1, n) for n in vertex_orders) - sum(Fraction(1, n) for n in edge_orders)
    return {"coefficient": str(value), "base": "1"}


def bass_serre_ball_size(vertex_orders, edges, root, radius):
    """Vertices of the radius ball of the universal tree around ``root``.

    ``edges`` lists geometric edges (u, v, |G_e|).  A tree vertex over v has
    [G_v : G_e] neighbours along each directed edge e out of v; a vertex
    reached along e spends one of those along the reverse of e on its parent.
    """
    directed = []  # (origin, terminus, index at the origin, reverse edge)
    for k, (u, v, order) in enumerate(edges):
        directed.append((u, v, vertex_orders[u] // order, 2 * k + 1))
        directed.append((v, u, vertex_orders[v] // order, 2 * k))
    out = {v: [] for v in vertex_orders}
    for i, (origin, _, _, _) in enumerate(directed):
        out[origin].append(i)
    if radius == 0:
        return 1
    layer = {e: directed[e][2] for e in out[root]}
    total = 1 + sum(layer.values())
    for _ in range(radius - 1):
        nxt = {}
        for e, count in layer.items():
            for f in out[directed[e][1]]:
                children = directed[f][2] - (f == directed[e][3])
                if children:
                    nxt[f] = nxt.get(f, 0) + count * children
        layer = nxt
        total += sum(layer.values())
    return total


def regular_rep_cohomology(vertex_orders, edge_orders, image_order):
    """Tree-action cohomology of the regular representation of C_12 pulled
    back along injective maps of every vertex and edge group.

    A subgroup of order k fixes a 12/k dimensional subspace.  The kernel of
    the vertex-to-edge map is the fixed space of the whole image, of order
    ``image_order``; the cokernel follows from the dimension count.
    """
    h0 = 12 // image_order
    domain = sum(12 // n for n in vertex_orders)
    target = sum(12 // n for n in edge_orders)
    return {"h0": h0, "h1": target - domain + h0}
