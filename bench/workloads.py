"""Seeded job lists for the four benchmark workloads.

``build(workload, seed, workdir)`` writes every input file a workload needs
into ``workdir`` and returns its jobs: the CLI arguments of one
``tdlcinv ... --format json`` run plus the payload it must print, computed
by ``reference`` without tdlcinv.  The same seed always gives the same
files, and the work a job costs is held steady across seeds: seeds change
labellings, group types and random structure inside fixed size bands, not
the sizes themselves.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from dataclasses import dataclass

import reference as ref
from reference import INF


@dataclass
class Job:
    name: str
    argv: list
    expected: dict
    largest: bool = False


class Inputs:
    """Writes numbered JSON inputs into one directory."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.count = 0

    def write(self, stem, data):
        self.count += 1
        path = os.path.join(self.workdir, f"{self.count:02d}_{stem}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle, separators=(",", ":"))
        return path


# -- davis-chambers ------------------------------------------------------------------

NOTDU = [[1, INF, 3, 3], [INF, 1, INF, INF], [3, INF, 1, 3], [3, INF, 3, 1]]
AFFINE_A2 = [[1, 3, 3], [3, 1, 3], [3, 3, 1]]

# (lowest, highest) chamber simplex counts of the seeded 6-generator systems;
# the cost of a verdict grows faster than the chamber, so narrow bands keep
# the workload's total steady across seeds while the systems themselves
# change.  Chamber sizes come in steps (587, 619, 651, ... near 600), and a
# 795-simplex chamber costs 1.5 times a 587-simplex one, so a wider band
# would let the seed move wall_s more than the machine does.  Each band
# holds a few percent of random systems, so drawing one stays quick
SEEDED_CHAMBER_BANDS = [(203, 215)] * 6 + [(411, 423)] * 5 + [(619, 625)] * 3


def affine_a(n):
    """Coxeter matrix of the affine type A_n: an (n+1)-cycle of 3-labels."""
    size = n + 1
    return [
        [1 if i == j else 3 if (i - j) % size in (1, size - 1) else 2 for j in range(size)]
        for i in range(size)
    ]


def permuted(m, rng):
    order = list(range(len(m)))
    rng.shuffle(order)
    return [[m[i][j] for j in order] for i in order]


def random_six_generator_system(rng, band):
    while True:
        m = [[1] * 6 for _ in range(6)]
        for i, j in itertools.combinations(range(6), 2):
            m[i][j] = m[j][i] = rng.choices([2, 3, INF], [0.45, 0.4, 0.15])[0]
        if frozenset(range(6)) in ref.spherical_subsets(m):
            continue  # finite groups short-circuit in the CLI
        if band[0] <= ref.chamber_simplex_count(m) <= band[1]:
            return m


def davis_chambers(rng, inputs):
    systems = [
        ("affine_A2", permuted(affine_a(2), rng)),
        ("affine_A3", permuted(affine_a(3), rng)),
        ("affine_A4", permuted(affine_a(4), rng)),
        ("notdu", NOTDU),
        ("affine_a2_coxeter", AFFINE_A2),
    ]
    systems += [
        (f"six_{k:02d}", random_six_generator_system(rng, band))
        for k, band in enumerate(SEEDED_CHAMBER_BANDS)
    ]
    exclude_empty = {"affine_A3", "notdu", "six_00", "six_01"}
    jobs = []
    for name, m in systems:
        path = inputs.write(name, {"size": len(m), "m": m})
        verdict = ref.davis_verdict(m)
        if name.startswith("affine_") and (verdict["cd"], verdict["duality"]) != (len(m) - 1, True):
            raise AssertionError(f"nerve reference: {name} must be a duality group of dimension {len(m) - 1}")
        jobs.append(Job(f"davis {name}", ["davis", path], verdict, name == "affine_A4"))
        if name in exclude_empty:
            jobs.append(
                Job(
                    f"davis {name} --exclude-empty-T",
                    ["davis", path, "--exclude-empty-T"],
                    ref.davis_verdict(m, include_empty=False),
                )
            )
    return jobs


# -- exact-rank ----------------------------------------------------------------------

CLIQUE_VERTICES = (60, 70, 80, 90, 100, 110, 120)
TREE_RADII = (6, 8, 10)


def clique_edge_count(n):
    """Edges of the random graph on n vertices: dense enough for 2- and
    3-simplices with fill-in, sparse enough that the largest complex
    (120 vertices) stays near half a second per job."""
    return round(n * n * 0.076)


def expected_cliques(n, m, k):
    """Expected number of k-cliques in a uniform random graph with n vertices
    and m edges."""
    need = math.comb(k, 2)
    return math.comb(n, k) * math.perm(m, need) / math.perm(math.comb(n, 2), need)


# accepted relative distance of the triangle and tetrahedron counts from
# their expectation, which holds the matrix sizes steady across seeds
CLIQUE_BANDS = {2: 0.03, 3: 0.15}


def near_expectation(levels, n, m):
    for k, band in CLIQUE_BANDS.items():
        expected = expected_cliques(n, m, k + 1)
        found = len(levels[k]) if k < len(levels) else 0
        if abs(found - expected) > band * expected:
            return False
    return True


def clique_complex(rng, n):
    pairs = list(itertools.combinations(range(n), 2))
    m = clique_edge_count(n)
    while True:
        edges = rng.sample(pairs, m)
        levels = ref.clique_levels(n, edges)
        if near_expectation(levels, n, m):
            break
    betti = ref.clique_betti(n, edges, levels)
    labels = list(range(n))
    rng.shuffle(labels)
    maximal = [[labels[v] for v in s] for level in levels[1:] for s in level]
    return {"vertices": labels, "maximal_simplices": maximal}, betti


def tree_window(rng, radius):
    """Radius ball of the 3-regular tree with its frontier, vertices shuffled."""
    edges, level, size = [], [], 1
    for _ in range(3):
        edges.append((0, size))
        level.append(size)
        size += 1
    for _ in range(radius - 1):
        grown = []
        for parent in level:
            for _ in range(2):
                edges.append((parent, size))
                grown.append(size)
                size += 1
        level = grown
    labels = list(range(size))
    rng.shuffle(labels)
    return {
        "complex": {
            "vertices": sorted(labels),
            "maximal_simplices": [[labels[u], labels[v]] for u, v in edges],
        },
        "subcomplex": {"vertices": sorted(labels[v] for v in level), "maximal_simplices": []},
    }


def exact_rank(rng, inputs):
    jobs = []
    largest = max(CLIQUE_VERTICES)
    for n in CLIQUE_VERTICES:
        # the largest complex ignores the seed: redrawing a complex of the
        # same size, or only relabelling it, moves its elimination cost by
        # tens of percent, which largest_job_s would report as noise
        source = random.Random("exact-rank:largest") if n == largest else rng
        data, betti = clique_complex(source, n)
        path = inputs.write(f"clique_{n}", data)
        jobs.append(Job(f"homology clique_{n}", ["homology", path], {"dims": betti}, n == largest))
        jobs.append(Job(f"cohomology-c clique_{n}", ["cohomology-c", path], {"dims": betti}))
    for r in TREE_RADII:
        path = inputs.write(f"tree_window_{r}", tree_window(rng, r))
        jobs.append(Job(f"relative tree_window_{r}", ["relative", path], {"dims": ref.tree_window_dims(r)}))
    amalgam, orders, edges = seeded_amalgam(rng)
    path = inputs.write("amalgam", amalgam)
    for r in (3, 4):
        jobs.append(Job(f"gog amalgam --ball {r}", ["gog", path, "--ball", str(r)], ball_payload(orders, edges, r)))
    path = inputs.write("c4_hnn", C4_HNN)
    jobs.append(Job("gog c4_hnn --ball 6", ["gog", path, "--ball", "6"], ball_payload({"v": 4}, [("v", "v", 2)], 6)))
    return jobs


def ball_payload(orders, edges, radius):
    root = min(orders)
    count = ref.bass_serre_ball_size(orders, edges, root, radius)
    return {"ball": {"vertices": count, "geometric_edges": count - 1, "tree": True}}


# -- finite groups built here, independent of tdlcinv ---------------------------------------


def closure_table(generators, multiply, identity):
    """Multiplication table of the group generated by ``generators``.

    Elements are found breadth-first; each row is then filled along the same
    search tree using right multiplication by a generator, one index lookup
    per entry.
    """
    elements, index, parent = [identity], {identity: 0}, [None]
    right = [[] for _ in generators]
    k = 0
    while k < len(elements):
        x = elements[k]
        for g_index, g in enumerate(generators):
            y = multiply(x, g)
            if y not in index:
                index[y] = len(elements)
                elements.append(y)
                parent.append((k, g_index))
            right[g_index].append(index[y])
        k += 1
    table = []
    for a in range(len(elements)):
        row = [a] + [0] * (len(elements) - 1)
        for b in range(1, len(elements)):
            prev, g_index = parent[b]
            row[b] = right[g_index][row[prev]]
        table.append(row)
    return table


def cyclic(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def dihedral(n):
    """Order 2n: pairs (rotation r, reflection flag s)."""
    def multiply(x, y):
        r1, s1 = x
        r2, s2 = y
        return ((r1 + (-r2 if s1 else r2)) % n, s1 ^ s2)

    return closure_table([(1, 0), (0, 1)], multiply, (0, 0))


def permutation_group(generators):
    degree = len(generators[0])
    return closure_table(
        generators, lambda p, q: tuple(p[q[i]] for i in range(degree)), tuple(range(degree))
    )


def symmetric(k):
    return permutation_group([(1, 0) + tuple(range(2, k)), tuple(range(1, k)) + (0,)])


def alternating(k):
    gens = [(1, 2, 0) + tuple(range(3, k))]
    gens.append(tuple(range(1, k)) + (0,) if k % 2 else (0,) + tuple(range(2, k)) + (1,))
    return permutation_group(gens)


def matrix_group(p, generators):
    size = math.isqrt(len(generators[0]))

    def multiply(x, y):
        return tuple(
            sum(x[r * size + k] * y[k * size + c] for k in range(size)) % p
            for r in range(size)
            for c in range(size)
        )

    identity = tuple(int(r == c) for r in range(size) for c in range(size))
    return closure_table(generators, multiply, identity)


def sl2(p):
    return matrix_group(p, [(1, 1, 0, 1), (1, 0, 1, 1)])


def gl2(p):
    return matrix_group(p, [(1, 1, 0, 1), (1, 0, 1, 1), (2, 0, 0, 1)])


def gl3_2():
    """GL(3, 2), generated by the elementary transvections."""
    return matrix_group(
        2,
        [
            (1, 1, 0, 0, 1, 0, 0, 0, 1),
            (1, 0, 0, 1, 1, 0, 0, 0, 1),
            (1, 0, 0, 0, 1, 1, 0, 0, 1),
            (1, 0, 0, 0, 1, 0, 0, 1, 1),
        ],
    )


def product(a, b):
    m = len(b)
    return [
        [a[x // m][y // m] * m + b[x % m][y % m] for y in range(len(a) * m)]
        for x in range(len(a) * m)
    ]


# explicit tables per order; the seed picks one and relabels it.  Orders
# stay at or below 512, where the program still checks associativity
GROUPS_BY_ORDER = {
    120: [lambda: symmetric(5), lambda: sl2(5), lambda: product(alternating(5), cyclic(2)),
          lambda: product(symmetric(4), cyclic(5)), lambda: dihedral(60)],
    144: [lambda: product(symmetric(4), cyclic(6)), lambda: product(gl2(3), cyclic(3)),
          lambda: product(alternating(4), cyclic(12)), lambda: dihedral(72)],
    168: [gl3_2, lambda: product(symmetric(4), cyclic(7)),
          lambda: product(alternating(4), cyclic(14)), lambda: dihedral(84)],
    192: [lambda: product(symmetric(4), dihedral(4)), lambda: product(gl2(3), cyclic(4)),
          lambda: product(alternating(4), cyclic(16)), lambda: dihedral(96)],
    240: [lambda: product(symmetric(5), cyclic(2)), lambda: product(sl2(5), cyclic(2)),
          lambda: product(alternating(5), cyclic(4)), lambda: dihedral(120)],
    288: [lambda: product(symmetric(4), alternating(4)), lambda: product(gl2(3), cyclic(6)),
          lambda: product(symmetric(4), dihedral(6)), lambda: dihedral(144)],
    336: [lambda: sl2(7), lambda: product(gl3_2(), cyclic(2)),
          lambda: product(symmetric(4), cyclic(14)), lambda: dihedral(168)],
}


def relabelled(table, rng):
    n = len(table)
    sigma = list(range(n))
    rng.shuffle(sigma)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[sigma[a]][sigma[b]] = sigma[table[a][b]]
    return out, sigma[0]


def rough_cayley_case(rng, order):
    table = rng.choice(GROUPS_BY_ORDER[order])()
    if len(table) != order:
        raise AssertionError(f"group table has order {len(table)}, expected {order}")
    table, identity = relabelled(table, rng)
    h = rng.choice([x for x in range(order) if x != identity])
    subgroup = ref.generated_subgroup(table, [h], identity)
    generators = rng.sample(sorted(set(range(order)) - subgroup), 2)
    data = {"group": {"table": table}, "subgroup_gens": [h], "generators": generators}
    return data, ref.coset_ball(table, identity, [h], generators, TABLE_RADIUS)


TABLE_ORDERS = (120, 144, 168, 192, 240, 288, 336)
TABLE_RADIUS = 3


# -- graphs of groups --------------------------------------------------------------------

PSL2Z = {
    "vertices": ["u", "w"],
    "vertex_groups": {"u": "C2", "w": "C3"},
    "edges": [{"id": "e", "from": "u", "to": "w", "group": "1"}],
}
Z_LOOP = {
    "vertices": ["v"],
    "vertex_groups": {"v": "1"},
    "edges": [{"id": "e", "from": "v", "to": "v", "group": "1"}],
}
C4_HNN = {
    "vertices": ["v"],
    "vertex_groups": {"v": "C4"},
    "edges": [
        {
            "id": "e", "from": "v", "to": "v", "group": "C2",
            "embed_to": {"gens": [1], "images": [2]},
            "embed_from": {"gens": [1], "images": [2]},
        }
    ],
}
# the sign character of C4, with a trivial stable letter
C4_HNN_REP = {
    "dim": 1,
    "vertex_actions": {"v": [[[1]], [[-1]], [[1]], [[-1]]]},
    "stable_letters": {"e": [[1]]},
}
TRIANGLE_GRAPH = {
    "vertices": ["x", "y", "z"],
    "edges": [
        {"id": "a", "o": "x", "t": "y", "bar": "A"},
        {"id": "A", "o": "y", "t": "x", "bar": "a"},
        {"id": "b", "o": "y", "t": "z", "bar": "B"},
        {"id": "B", "o": "z", "t": "y", "bar": "b"},
        {"id": "c", "o": "z", "t": "x", "bar": "C"},
        {"id": "C", "o": "x", "t": "z", "bar": "c"},
    ],
}
S3_CAYLEY = {"group": "S3", "subgroup_gens": [1], "generators": [3, 4]}


def seeded_amalgam(rng):
    """A *_C B with |A| = |B| = 14 and C of order 2: both indices are 7, so
    the ball size does not depend on which vertex the program roots it at.
    A and B are each the cyclic or the dihedral group, relabelled."""
    groups, images = {}, {}
    for v in ("a", "b"):
        table, identity = relabelled(rng.choice([cyclic(14), dihedral(7)]), rng)
        involutions = [x for x in range(14) if x != identity and table[x][x] == identity]
        groups[v] = {"table": table}
        images[v] = rng.choice(involutions)
    data = {
        "vertices": ["a", "b"],
        "vertex_groups": groups,
        "edges": [
            {
                "id": "e", "from": "a", "to": "b", "group": "C2",
                "embed_to": {"gens": [1], "images": [images["b"]]},
                "embed_from": {"gens": [1], "images": [images["a"]]},
            }
        ],
    }
    return data, {"a": 14, "b": 14}, [("a", "b", 2)]


def shift_matrix(x):
    """The regular representation of C12: basis vector j goes to j + x."""
    return [[int((i - j - x) % 12 == 0) for j in range(12)] for i in range(12)]


# vertex orders of the seeded graphs of cyclic groups, one palette per graph;
# the fundamental group maps onto the subgroup of C12 of order lcm(orders
# used), so h0 is 3, 2, 1 and 1 once every order of a palette occurs
GOG_PALETTES = [(2, 4), (2, 3, 6), (2, 3, 4, 6, 12), (3, 6, 12)]
# a random spanning tree plus extra edges: about 30 vertices and 60 edges
GOG_VERTICES = 30
GOG_EXTRA_EDGES = 30


def cyclic_graph_of_groups(rng, palette):
    """Connected graph of cyclic groups mapping injectively into C12 at every
    vertex, with the pulled-back regular representation of C12.

    Vertex v carries C_n (n | 12) mapped by 1 -> (12/n) c_v with c_v a unit;
    an edge group C_k (k | both vertex orders) embeds by 1 -> (n/k) x with
    x chosen so both embeddings agree in C12.  Stable letters act by shifts
    inside the image, so every defining relation holds.
    """
    names = [f"v{i:02d}" for i in range(GOG_VERTICES)]
    order = {v: rng.choice(palette) for v in names}
    unit = {v: rng.choice([c for c in range(1, order[v] + 1) if math.gcd(c, order[v]) == 1]) for v in names}
    pairs = [(names[rng.randrange(i)], names[i]) for i in range(1, GOG_VERTICES)]
    pairs += [tuple(rng.sample(names, 2)) for _ in range(GOG_EXTRA_EDGES)]
    image_order = math.lcm(*order.values())
    edges, edge_orders, stable = [], [], {}
    for k, (u, v) in enumerate(pairs):
        common = math.gcd(order[u], order[v])
        size = rng.choice([d for d in range(1, common + 1) if common % d == 0])
        edge_id = f"e{k:02d}"
        record = {"id": edge_id, "from": u, "to": v, "group": f"C{size}"}
        if size > 1:
            twist = unit[u] * pow(unit[v], -1, size) % size
            record["embed_from"] = {"gens": [1], "images": [order[u] // size]}
            record["embed_to"] = {"gens": [1], "images": [order[v] // size * twist % order[v]]}
        edges.append(record)
        edge_orders.append(size)
        stable[edge_id] = shift_matrix(12 // image_order * rng.randrange(image_order))
    gog = {"vertices": names, "vertex_groups": {v: f"C{order[v]}" for v in names}, "edges": edges}
    rep = {
        "dim": 12,
        "vertex_actions": {
            v: [shift_matrix(12 // order[v] * unit[v] * a) for a in range(order[v])] for v in names
        },
        "stable_letters": stable,
    }
    orders = list(order.values())
    expected = {"unimodular": True, "chi": ref.gog_chi(orders, edge_orders)}
    cohomology = ref.regular_rep_cohomology(orders, edge_orders, image_order)
    return gog, rep, expected, cohomology


# seeded Serre graphs for ``graph``: (vertices, edges beyond a spanning
# forest, components).  They cost about one interpreter start each and put
# the workload's median job among its start-up-bound jobs, where it does not
# swing with the seeded group types of the table jobs just above it
SERRE_GRAPHS = [(40, 0, 1), (40, 20, 1), (60, 30, 3), (60, 0, 4)]


def seeded_serre_graph(rng, n, extra, parts):
    """A graph on ``n`` shuffled vertices: a random forest of ``parts``
    trees plus ``extra`` edges inside the trees, each geometric edge written
    as two opposite oriented edges.  Returns the graph and its invariants."""
    names = [f"v{k}" for k in range(n)]
    rng.shuffle(names)
    tree_of = [k % parts for k in range(n)]
    geometric = []
    for k in range(parts, n):
        same = [j for j in range(k) if tree_of[j] == tree_of[k]]
        geometric.append((names[rng.choice(same)], names[k]))
    while len(geometric) < n - parts + extra:
        a, b = rng.sample(range(n), 2)
        if tree_of[a] == tree_of[b]:
            geometric.append((names[a], names[b]))
    edges = []
    for k, (u, v) in enumerate(geometric):
        edges.append({"id": f"e{k}", "o": u, "t": v, "bar": f"E{k}"})
        edges.append({"id": f"E{k}", "o": v, "t": u, "bar": f"e{k}"})
    h0 = ref.components(names, geometric)
    h1 = len(geometric) - n + h0
    graph = {"vertices": sorted(names), "edges": edges}
    return graph, {"h1": h1, "components": h0, "tree": h1 == 0 and h0 == 1}


def group_tables(rng, inputs):
    jobs = []
    for order in TABLE_ORDERS:
        data, expected = rough_cayley_case(rng, order)
        path = inputs.write(f"table_{order}", data)
        jobs.append(
            Job(
                f"rough-cayley table_{order}",
                ["rough-cayley", path, "--radius", str(TABLE_RADIUS)],
                expected,
                order == max(TABLE_ORDERS),
            )
        )
    for k, palette in enumerate(GOG_PALETTES):
        gog, rep, expected, cohomology = cyclic_graph_of_groups(rng, palette)
        gog_path = inputs.write(f"cyclic_gog_{k}", gog)
        rep_path = inputs.write(f"cyclic_gog_{k}_rep", rep)
        jobs.append(Job(f"gog cyclic_gog_{k} --unimodular --chi", ["gog", gog_path, "--unimodular", "--chi"], expected))
        jobs.append(
            Job(
                f"gog cyclic_gog_{k} --cohomology",
                ["gog", gog_path, "--cohomology", rep_path],
                {"cohomology": cohomology},
            )
        )
    for k, (n, extra, parts) in enumerate(SERRE_GRAPHS):
        graph, expected = seeded_serre_graph(rng, n, extra, parts)
        path = inputs.write(f"serre_graph_{k}", graph)
        jobs.append(Job(f"graph serre_graph_{k}", ["graph", path], expected))
    triangle = inputs.write("triangle_graph", TRIANGLE_GRAPH)
    geometric = [(e["o"], e["t"]) for e in TRIANGLE_GRAPH["edges"] if e["id"] < e["bar"]]
    h0 = ref.components(TRIANGLE_GRAPH["vertices"], geometric)
    h1 = len(geometric) - len(TRIANGLE_GRAPH["vertices"]) + h0
    jobs.append(Job("graph triangle_graph", ["graph", triangle], {"h1": h1, "components": h0, "tree": h1 == 0 and h0 == 1}))
    psl2z = inputs.write("psl2z", PSL2Z)
    jobs.append(Job("gog psl2z --chi", ["gog", psl2z, "--chi"], {"chi": ref.gog_chi([2, 3], [1])}))
    z_loop = inputs.write("z_loop", Z_LOOP)
    jobs.append(Job("gog z_loop --chi", ["gog", z_loop, "--chi"], {"chi": ref.gog_chi([1], [1])}))
    c4 = inputs.write("c4_hnn", C4_HNN)
    c4_rep = inputs.write("c4_hnn_rep", C4_HNN_REP)
    jobs.append(
        Job(
            "gog c4_hnn --unimodular --chi",
            ["gog", c4, "--unimodular", "--chi"],
            {"unimodular": True, "chi": ref.gog_chi([4], [2])},
        )
    )
    # C4 acts by the sign character, so no nonzero vector is vertex-fixed
    # (h0 = 0), while the edge group {0, 2} fixes the line: h1 = 1 - 0 + 0
    jobs.append(Job("gog c4_hnn --cohomology", ["gog", c4, "--cohomology", c4_rep], {"cohomology": {"h0": 0, "h1": 1}}))
    s3 = inputs.write("s3_cayley", S3_CAYLEY)
    # S3 modulo a subgroup of order two has three cosets, and the double
    # coset of any element outside it covers both other cosets: a triangle
    jobs.append(
        Job(
            "rough-cayley s3_cayley",
            ["rough-cayley", s3, "--radius", "2"],
            {"vertices": 3, "geometric_edges": 3, "h1": 1, "components": 1, "tree": False},
        )
    )
    return jobs


# -- weyl-growth ------------------------------------------------------------------------

# D6 is left out: its 23,040-element search is memory-bound, and on a
# shared machine its time swung from 4.8 to 9.7 s between identical runs
FINITE_TYPES = ("F4", "D4", "A5", "B5", "D5", "A6")
AFFINE_PRESETS = {"affine A1": 40, "affine A2": 40, "affine A3": 20, "affine C2": 40, "affine G2": 40}
CHEVALLEY_TYPES = ("A2", "A3", "B2", "G2")


def cartan_matrix(kind, rank):
    """Cartan matrix of a finite type, nodes in Bourbaki order."""
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i in range(rank - 1):
        a[i][i + 1] = a[i + 1][i] = -1
    if kind == "B":
        a[rank - 2][rank - 1] = -2
    elif kind == "D":
        a[rank - 2][rank - 1] = a[rank - 1][rank - 2] = 0
        a[rank - 3][rank - 1] = a[rank - 1][rank - 3] = -1
    elif kind == "F":
        a[1][2] = -2
    return a


def weyl_growth(rng, inputs):
    jobs = []
    for name in FINITE_TYPES:
        kind, rank = name[0], int(name[1:])
        path = inputs.write(f"cartan_{name}", {"cartan": permuted(cartan_matrix(kind, rank), rng)})
        degrees = ref.weyl_degrees(kind, rank)
        expected = {"poincare": ref.poincare_coeffs(degrees), "exponents": sorted(d - 1 for d in degrees)}
        jobs.append(Job(f"coxeter {name}", ["coxeter", path, "--poincare", "--exponents"], expected, name == "A6"))
    for preset, degree in AFFINE_PRESETS.items():
        jobs.append(Job(f"coxeter {preset} --bott", ["coxeter", "--preset", preset, "--bott", str(degree)], {"bott": True}))
    for preset in AFFINE_PRESETS:
        q = rng.randrange(2, 10)
        jobs.append(Job(f"coxeter {preset} --altsum", ["coxeter", "--preset", preset, "--altsum", str(q)], {"altsum": True}))
    for name in CHEVALLEY_TYPES:
        q = rng.randrange(2, 10)
        jobs.append(
            Job(
                f"chevalley {name} --via-parahorics",
                ["chevalley", "--type", name, "--q", str(q), "--via-parahorics"],
                ref.chevalley_payload(name, q),
            )
        )
    return jobs


# runs of the largest job in each round of the job list, so that it takes
# about half of every round: ``largest_job_s`` is one job's time, not a sum
# over twenty jobs, so it needs the most samples to be steady
LARGEST_REPEATS = {"davis-chambers": 4, "exact-rank": 11, "weyl-growth": 3, "group-tables": 4}

WORKLOADS = {
    "davis-chambers": davis_chambers,
    "exact-rank": exact_rank,
    "weyl-growth": weyl_growth,
    "group-tables": group_tables,
}


def build(workload, seed, workdir):
    """Write the workload's inputs for ``seed`` into ``workdir``; return its jobs."""
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    jobs = WORKLOADS[workload](rng, Inputs(workdir))
    if sum(job.largest for job in jobs) != 1:
        raise AssertionError(f"{workload} must designate exactly one largest job")
    return jobs
