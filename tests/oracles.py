"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive (dense textbook elimination, exhaustive
enumeration, plain DFS) and shares no code with the library paths it checks.
"""

import argparse
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd, lcm

from tdlcinv import cli
from tdlcinv.errors import ValidationError
from tdlcinv.groups import NotAGroup
from tdlcinv.ratlin import RationalMatrix, homology_dims
from tdlcinv.simplicial import SimplicialComplex, relative_cohomology, union_complexes


def dense_rank(rows):
    """Textbook dense Gaussian elimination, first nonzero pivot, no heuristics."""
    m = [[Fraction(v) for v in row] for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(m)):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col] / pv
                for c in range(ncols):
                    m[r][c] -= f * m[rank][c]
        rank += 1
    return rank


def dense_rref(rows, ncols):
    """Textbook Gauss-Jordan elimination: first nonzero pivot, each pivot
    row scaled to 1 and cleared from every other row.

    Returns ``(reduced, pivots)``: the nonzero rows of the reduced row
    echelon form and their pivot columns, ascending.
    """
    m = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [v / m[r][col] for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
    return m[: len(pivots)], pivots


def dense_kernel_basis(rows, ncols):
    """Right kernel basis read off the dense RREF: one vector per free
    column, ascending, with that coordinate 1 and the other free ones 0."""
    reduced, pivots = dense_rref(rows, ncols)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, col in zip(reduced, pivots):
            vec[col] = -row[free]
        basis.append(tuple(vec))
    return basis


def dense_solve(rows, ncols, rhs):
    """The solution of ``rows @ x = rhs`` with free coordinates 0, read off
    the dense RREF of the augmented matrix; ``None`` when inconsistent."""
    reduced, pivots = dense_rref([list(row) + [b] for row, b in zip(rows, rhs)], ncols + 1)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for row, col in zip(reduced, pivots):
        x[col] = row[ncols]
    return x


def subset_rank(rows):
    """Rank as the largest linearly independent subset of rows (exhaustive)."""
    best = 0
    indices = range(len(rows))
    for k in range(len(rows), 0, -1):
        for chosen in combinations(indices, k):
            if dense_rank([rows[i] for i in chosen]) == k:
                return k
    return best


def small_integer_kernel(rows, ncols, bound=2):
    """All kernel vectors with coordinates in [-bound, bound], zero excluded."""
    found = []
    for vec in product(range(-bound, bound + 1), repeat=ncols):
        if all(v == 0 for v in vec):
            continue
        if all(sum(Fraction(row[j]) * vec[j] for j in range(ncols)) == 0 for row in rows):
            found.append(vec)
    return found


def dense_homology(boundaries_dense):
    """Homology dims from dense boundary matrices [d_0, ..., d_top].

    d_0 must be a 0-row matrix represented as (0, ncols); every other entry
    is a dense list of rows.
    """
    dims = []
    ranks = []
    ncols_list = []
    for item in boundaries_dense:
        if isinstance(item, tuple):  # (0, ncols) zero-row stub
            ranks.append(0)
            ncols_list.append(item[1])
        else:
            ranks.append(dense_rank(item))
            ncols_list.append(len(item[0]) if item else 0)
    for q in range(len(boundaries_dense)):
        above = ranks[q + 1] if q + 1 < len(boundaries_dense) else 0
        dims.append(ncols_list[q] - ranks[q] - above)
    return dims


def boundary_maps_homology(complex_):
    """Reference for ``SimplicialComplex.homology``: the route before it
    ranked with clearing straight from the complex.  Every boundary map is
    built in full by ``boundary_matrix``, the degree-0 map with zero rows,
    and the list goes through ``homology_dims``, which checks that
    consecutive maps compose to zero and copies each map without its
    cleared columns.
    """
    if complex_.dim < 0:
        return []
    maps = [RationalMatrix(0, len(complex_.simplices(0)))]
    maps += [complex_.boundary_matrix(q) for q in range(1, complex_.dim + 1)]
    return homology_dims(maps)


def all_subsets_closure(simplices, generate_closure=True):
    """Reference for ``SimplicialComplex(simplices, generate_closure)``: the
    closure taken as every nonempty subset of every canonical input simplex,
    collected in one set and graded afterwards.

    Returns a ``SimplicialComplex`` whose fields are filled from that set.
    """
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
    graded = {}
    for s in collected:
        graded.setdefault(len(s) - 1, []).append(s)
    complex_ = SimplicialComplex.__new__(SimplicialComplex)
    complex_._simplices = frozenset(collected)
    complex_._graded = {q: tuple(sorted(v)) for q, v in graded.items()}
    complex_.vertices = tuple(v[0] for v in complex_._graded.get(0, ()))
    return complex_


def is_associative(table):
    """Associativity of a multiplication table by the scan over all triples."""
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return False
    return True


def is_tree_dfs(vertex_list, geometric_edges):
    """Tree test by DFS cycle detection plus connectivity.

    ``geometric_edges`` is a list of (u, v) endpoint pairs; loops and
    parallel edges are cycles.  The empty graph is not a tree.
    """
    if not vertex_list:
        return False
    adjacency = {v: [] for v in vertex_list}
    for idx, (u, v) in enumerate(geometric_edges):
        if u == v:
            return False  # a loop is a cycle
        adjacency[u].append((v, idx))
        adjacency[v].append((u, idx))
    seen = {vertex_list[0]}
    stack = [(vertex_list[0], None)]
    while stack:
        node, via = stack.pop()
        for neighbor, idx in adjacency[node]:
            if idx == via:
                continue
            if neighbor in seen:
                return False  # back edge closes a cycle
            seen.add(neighbor)
            stack.append((neighbor, idx))
    return len(seen) == len(vertex_list)


def components_count(vertex_list, geometric_edges):
    parent = {v: v for v in vertex_list}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in geometric_edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return len({find(v) for v in vertex_list})


def extension_coboundary(complex_, q):
    """Dense degree-q compact coboundary, built from vertex extensions.

    The dual of a q-simplex A maps to the signed sum, over the vertices z
    outside A with A + {z} a simplex, of the dual of A + {z}; the sign is the
    parity of sorting z in front of A.  Rows and columns follow the canonical
    simplex order; at the top degree there are no rows.
    """
    domain = complex_.simplices(q)
    row_of = {s: i for i, s in enumerate(complex_.simplices(q + 1))}
    dense = [[0] * len(domain) for _ in row_of]
    for j, simplex in enumerate(domain):
        for z in complex_.vertices:
            if z in simplex:
                continue
            extended = tuple(sorted(simplex + (z,)))
            if extended in row_of:
                inversions = sum(1 for v in simplex if v < z)
                dense[row_of[extended]][j] = -1 if inversions % 2 else 1
    return dense


def brute_force_spherical_subsets(system):
    """(T, degrees) for every spherical generator subset T, by size and then
    lexicographically, filtered out of all subsets with ``combinations``."""
    classified = (
        (subset, system.degrees(subset))
        for size in range(system.n + 1)
        for subset in combinations(range(system.n), size)
    )
    return [(subset, degrees) for subset, degrees in classified if degrees is not None]


def brute_force_diagram_automorphisms(m):
    """Every permutation sigma of the generators with m[sigma i][sigma j] =
    m[i][j], found by trying all n! of them (n at most 7)."""
    n = len(m)
    assert n <= 7, "n! permutations are tried"
    return [
        sigma
        for sigma in permutations(range(n))
        if all(m[sigma[i]][sigma[j]] == m[i][j] for i in range(n) for j in range(i + 1, n))
    ]


def nerve_apexes(spherical, rest):
    """Generators of ``rest`` lying in every maximal spherical subset inside
    it, by a scan over sets: the apexes of the nerve L_rest."""
    inside = [set(u) for u in spherical if set(u) <= set(rest)]
    maximal = [u for u in inside if not any(u < v for v in inside)]
    return set(rest).intersection(*maximal)


def reduced_nerve_homology(spherical, rest):
    """Reduced rational homology dims of the nerve L_rest, whose simplices are
    the nonempty spherical subsets inside ``rest``, by dense elimination.
    The empty simplex sits in degree -1, so entry k is degree k - 1."""
    faces = {}
    for u in spherical:
        if set(u) <= set(rest):
            faces.setdefault(len(u), []).append(tuple(sorted(u)))
    boundaries = [(0, 1)]
    for size in range(1, max(faces) + 1):
        row_of = {face: i for i, face in enumerate(faces[size - 1])}
        dense = [[0] * len(faces[size]) for _ in row_of]
        for j, simplex in enumerate(faces[size]):
            for i in range(size):
                dense[row_of[simplex[:i] + simplex[i + 1 :]]][j] = (-1) ** i
        boundaries.append(dense)
    return dense_homology(boundaries)


def _relative_row(chamber, subset):
    mirrors = [chamber.mirrors[s] for s in chamber.system.generators if s not in subset]
    away = union_complexes(mirrors) if mirrors else SimplicialComplex.empty()
    return tuple(sorted(subset)), tuple(relative_cohomology(chamber.complex, away))


def every_row_table(chamber, include_empty):
    """``(cd, is_duality, table)`` of a built Davis chamber with the relative
    cohomology of every row ranked: the row loop of ``davis.relative_table``
    before it ranked one row per diagram-automorphism orbit, verbatim."""
    rows = [_relative_row(chamber, s) for s in chamber.poset.subsets if s or include_empty]
    degrees_seen = {degree for _, dims in rows for degree, dim in enumerate(dims) if dim}
    return max(degrees_seen, default=0), len(degrees_seen) <= 1, tuple(rows)


def full_subcomplex_mirrors(chamber):
    """Mirror of each generator s as ``build_chamber`` once built it: the
    chains all of whose subsets contain s."""
    chains = chamber.complex.all_simplices()
    mirrors = {}
    for s in chamber.system.generators:
        containing = {chamber.vertex_of_subset[sub] for sub in chamber.poset.subsets if s in sub}
        mirror_chains = [chain for chain in chains if set(chain) <= containing]
        mirrors[s] = SimplicialComplex(mirror_chains, generate_closure=False)
    return mirrors


def reflection_matrices(a):
    """Integer matrices of the simple reflections of the Cartan matrix ``a``
    on the root lattice: generator i sends basis vector j to itself minus
    a[i][j] times basis vector i."""
    n = len(a)
    mats = []
    for i in range(n):
        rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
        for j in range(n):
            rows[i][j] -= a[i][j]
        mats.append(tuple(tuple(r) for r in rows))
    return mats


def mat_mul(x, y):
    n = len(x)
    return tuple(
        tuple(sum(x[r][k] * y[k][c] for k in range(n)) for c in range(n)) for r in range(n)
    )


def reflection_layers(a, max_len, budget=None):
    """Word-length layer sizes of the Weyl group of ``a``, lengths 0..max_len.

    Breadth-first search over products of reflection matrices, deduplicated
    by their matrix; past the longest element of a finite group the layers
    are 0.  ``max_len=None`` runs until the group is exhausted.  With a
    ``budget`` the search stops before the first layer that would take the
    number of elements found past it, so a shorter list means the budget
    was hit.
    """
    mats = reflection_matrices(a)
    identity = tuple(tuple(int(r == c) for c in range(len(a))) for r in range(len(a)))
    seen = {identity}
    frontier = [identity]
    counts = [1]
    while frontier and (max_len is None or len(counts) <= max_len):
        frontier = [ws for ws in {mat_mul(w, s) for w in frontier for s in mats} if ws not in seen]
        if budget is not None and len(seen) + len(frontier) > budget:
            return counts
        seen.update(frontier)
        counts.append(len(frontier))
    if max_len is None:
        return counts[:-1]
    return counts + [0] * (max_len + 1 - len(counts))


def rho_orbit_layers(a, max_len):
    """Word-length layer sizes of the Weyl group of ``a``, lengths 0..max_len.

    An element w is held as the integer tuple c with c_k = <w(rho), a_k^v>,
    which is (1, ..., 1) at the identity.  The simple reflection s_i sends it
    to c_k - c_i * a[k][i] for every k (so c_i changes sign), and
    l(s_i w) > l(w) exactly when c_i > 0 (Kac, Infinite-dimensional Lie
    algebras, Lemma 3.11): the negative coordinates of w are its left
    descents.  Each element of positive length is kept only as the child
    s_i w of the one parent for which i is its smallest descent, so every
    element is produced exactly once and only the current layer is held.
    Past the longest element of a finite group the layers are 0;
    ``max_len=None`` runs until the group is exhausted.
    """
    n = len(a)
    columns = [tuple(a[k][i] for k in range(n)) for i in range(n)]
    frontier = [(1,) * n]
    counts = [1]
    while frontier and (max_len is None or len(counts) <= max_len):
        next_frontier = []
        for c in frontier:
            for i in range(n):
                if c[i] < 0:
                    continue
                child = tuple(c[k] - c[i] * columns[i][k] for k in range(n))
                # keep s_i w only when i is its smallest descent
                if all(child[j] >= 0 for j in range(i)):
                    next_frontier.append(child)
        frontier = next_frontier
        counts.append(len(frontier))
    if max_len is None:
        return counts[:-1]
    return counts + [0] * (max_len + 1 - len(counts))


def trial_division_exponents(coeffs):
    """The multiset m_i with the polynomial ``coeffs`` (constant term first)
    equal to the product of the t-analogues [m_i + 1]_t, or None.

    Trial division from the largest candidate degree downward: any
    t-analogue divisor has degree at most the largest true factor, and that
    largest factor always divides, so the greedy choice is safe.  The
    factorization is re-multiplied and checked before returning.
    """
    remaining = list(coeffs)
    found = []
    while remaining != [1]:
        for d in range(len(remaining), 1, -1):
            quotient = _divide_by_t_analogue(remaining, d)
            if quotient is not None:
                found.append(d - 1)
                remaining = quotient
                break
        else:
            return None
    product = [1]
    for m in found:
        product = [sum(product[k - j] for j in range(m + 1) if 0 <= k - j < len(product)) for k in range(len(product) + m)]
    return sorted(found) if product == list(coeffs) else None


def _divide_by_t_analogue(coeffs, d):
    """Quotient of ``coeffs`` by 1 + t + ... + t^(d-1), or None when it
    does not divide exactly."""
    remainder = list(coeffs)
    if len(remainder) < d:
        return None
    quotient = [0] * (len(remainder) - d + 1)
    for k in range(len(quotient) - 1, -1, -1):
        quotient[k] = remainder[k + d - 1]
        for i in range(d):
            remainder[k + i] -= quotient[k]
    return None if any(remainder) else quotient


def dense_tree_action_cohomology(gog, representation):
    """``(h0, h1)`` of the Bass–Serre two-term complex, densely.

    Each fixed space is the dense kernel of the blocks rho(g) - I stacked
    for every non-identity element g of the group (for an edge, of the
    edge group mapped into the origin vertex group).  A vertex basis
    vector b contributes, per oriented edge e, the coordinates of
    L_e b at the terminus and of -b at the origin in the edge's fixed
    basis, found by ``dense_solve``; L_e is the stable-letter matrix, or
    the identity on a subtree edge.  h0 and h1 are the kernel and
    cokernel dimensions of the assembled matrix, by ``dense_rank``.
    """
    dim = representation.dim

    def fixed_basis(matrices):
        rows = [[m[i][j] - (i == j) for j in range(dim)] for m in matrices for i in range(dim)]
        return dense_kernel_basis(rows, dim)

    def fixed_in(v, elements):
        """Basis of the vectors that the listed elements of G_v fix."""
        group = gog.vertex_groups[v]
        return fixed_basis(
            [representation.vertex_matrix(v, a).to_dense() for a in elements if a != group.identity]
        )

    columns = [(v, b) for v in gog.graph.vertices for b in fixed_in(v, gog.vertex_groups[v].elements)]
    stable = gog.stable_letters()
    rows = []
    for e in gog.orientation():
        origin, terminus = gog.graph.origin[e], gog.graph.terminus[e]
        incoming = gog.embeddings[gog.graph.bar[e]]
        edge_basis = fixed_in(origin, [incoming(a) for a in gog.edge_groups[e].elements])
        if not edge_basis:
            continue
        as_columns = [[b[i] for b in edge_basis] for i in range(dim)]
        letter = representation.stable_matrix(e).to_dense() if e in stable else None
        block = [[Fraction(0)] * len(columns) for _ in edge_basis]
        for k, (v, b) in enumerate(columns):
            images = []
            if v == terminus:
                images.append(b if letter is None else [sum(letter[i][j] * b[j] for j in range(dim)) for i in range(dim)])
            if v == origin:
                images.append([-x for x in b])
            for image in images:
                coords = dense_solve(as_columns, len(edge_basis), image)
                if coords is None:
                    raise AssertionError(f"an image of a fixed vector leaves the fixed space of {e!r}")
                for r, c in enumerate(coords):
                    block[r][k] += c
        rows.extend(block)
    rank = dense_rank(rows)
    return len(columns) - rank, len(rows) - rank


def trace_euler_characteristic(gog, representation):
    """h0 - h1 without a rank: dim V^G = (1/|G|) sum_g tr rho(g), summed
    over the vertices minus the same sum over the oriented edges, whose
    groups act through their embeddings into the origin vertex."""

    def fixed_dim(v, elements):
        matrices = [representation.vertex_matrix(v, a).to_dense() for a in elements]
        return Fraction(sum(m[i][i] for m in matrices for i in range(representation.dim)), len(matrices))

    total = sum(fixed_dim(v, gog.vertex_groups[v].elements) for v in gog.graph.vertices)
    for e in gog.orientation():
        incoming = gog.embeddings[gog.graph.bar[e]]
        total -= fixed_dim(gog.graph.origin[e], [incoming(a) for a in gog.edge_groups[e].elements])
    return total


def fraction_polynomial_value(coeffs, x):
    """Reference for ``IntPolynomial.__call__``: Horner's rule in
    ``Fraction`` arithmetic at ``Fraction(x)``, returned as an ``int`` when
    the value is integral."""
    value = Fraction(0)
    for c in reversed(coeffs):
        value = value * Fraction(x) + c
    return value if value.denominator != 1 else value.numerator


def walked_cycle_index_ratio_products(graph, edge_index):
    """Reference for ``graphs_of_groups.cycle_index_ratio_products``: the
    same spanning forest and cycle basis, each non-tree edge's cycle product
    taken by walking the tree from both of its ends up to the root."""

    def ratio(e):
        return Fraction(edge_index[e]) / Fraction(edge_index[graph.bar[e]])

    parent = graph.bfs_parents(graph.vertices)
    tree = set(parent.values())

    def path_ratio_to_root(v):
        value = Fraction(1)
        while parent[v] is not None:
            e = parent[v]
            value *= ratio(e)
            v = graph.origin[e]
        return value

    products = []
    for e in graph.orientation():
        if e in tree or graph.bar[e] in tree:
            continue
        value = path_ratio_to_root(graph.origin[e])
        value *= ratio(e)
        value /= path_ratio_to_root(graph.terminus[e])
        products.append(value)
    return products


def reference_pivots(matrix):
    """Reference for ``RationalMatrix._pivots``: the same fraction-free
    elimination with every row, integer or not, scaled by the lcm of its
    denominators, the pivot picked by ``min`` over ``(len(row), row id)``,
    and one update rule for every candidate row.

    The library kernel must yield the same ``(col, pv, row, rid)`` sequence
    for any ``RationalMatrix``.
    """
    scales = [1] * matrix.rows
    by_col = {}
    for (i, j), v in matrix._entries.items():
        scales[i] = lcm(scales[i], v.denominator)
        by_col.setdefault(j, set()).add(i)
    rows = [{} for _ in range(matrix.rows)]
    for (i, j), v in matrix._entries.items():
        rows[i][j] = v.numerator * (scales[i] // v.denominator)
    for col in range(matrix.cols):
        ids = by_col.pop(col, None)
        if not ids:
            continue
        pid = min(ids, key=lambda i: (len(rows[i]), i))
        ids.discard(pid)
        pivot_row = rows[pid]
        rows[pid] = None
        pv = pivot_row.pop(col)
        for c in pivot_row:
            by_col[c].discard(pid)
        unit = pv == 1 or pv == -1
        for rid in ids:
            row = rows[rid]
            a = row.pop(col)
            if unit:
                f = a * pv
            else:
                g = gcd(pv, a)
                p, f = pv // g, a // g
                if p != 1:
                    for c in row:
                        row[c] *= p
            for c, v in pivot_row.items():
                new = row.get(c, 0) - f * v
                if new:
                    if c not in row:
                        by_col[c].add(rid)
                    row[c] = new
                else:
                    del row[c]
                    by_col[c].discard(rid)
            if not unit and row:
                content = gcd(*row.values())
                if content != 1:
                    for c in row:
                        row[c] //= content
        yield col, pv, pivot_row, pid


def sliced_boundary(complex_, q, away, cleared):
    """The relative boundary ``SimplicialComplex._boundary(q, away, cleared)``
    built by slicing: the face dropping position ``drop`` is
    ``s[:drop] + s[drop + 1:]`` with sign ``(-1)^drop``.

    Returns ``(rows, cols, entries)``; a face in neither the complex nor
    ``away`` raises ``KeyError``.
    """
    rows, kept = {}, 0
    for s in complex_.simplices(q - 1):
        if s in away:
            rows[s] = None
        else:
            rows[s] = kept
            kept += 1
    cols = [s for s in complex_.simplices(q) if s not in away]
    if cleared:
        cols = [s for j, s in enumerate(cols) if j not in cleared]
    entries = {}
    for j, s in enumerate(cols):
        for drop in range(len(s)):
            face = s[:drop] + s[drop + 1:]
            i = rows[face]
            if i is not None:
                entries[(i, j)] = -1 if drop % 2 else 1
    return kept, len(cols), entries


def reference_group_table(mult):
    """Reference for the table check of ``FiniteGroup.from_table``: the
    per-entry loops it ran before whole-row composition, copied with its
    greedy magma generators.

    Returns ``(table, identity, inverses)``, or raises ``NotAGroup`` with
    the message the library must give byte for byte.
    """
    if not isinstance(mult, (list, tuple)) or not mult:
        raise NotAGroup("table must be a nonempty list of rows")
    n = len(mult)
    for row in mult:
        if not isinstance(row, (list, tuple)) or len(row) != n:
            raise NotAGroup(f"table must have {n} rows of length {n}")
        if set(map(type, row)) != {int} or min(row) < 0 or max(row) >= n:
            raise NotAGroup(f"table entries must be element ids 0..{n - 1}")
    table = tuple(tuple(row) for row in mult)
    for b in _reference_magma_generators(table):
        row_b = table[b]
        for a, row_a in enumerate(table):
            row_ab = table[row_a[b]]
            if row_ab != tuple(map(row_a.__getitem__, row_b)):
                c = next(c for c in range(n) if row_ab[c] != row_a[row_b[c]])
                raise NotAGroup(f"associativity fails at ({a}, {b}, {c})")
    identity = None
    for e in range(n):
        if all(table[e][x] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise NotAGroup("no identity element")
    inverses = [None] * n
    for a in range(n):
        for b in range(n):
            if table[a][b] == identity and table[b][a] == identity:
                inverses[a] = b
                break
        if inverses[a] is None:
            raise NotAGroup(f"element {a} has no inverse")
    return table, identity, tuple(inverses)


def _reference_magma_generators(table):
    """Each generator is the smallest element not yet generated; the
    generated set is closed under products in both orders."""
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


def chain_sum_chi(system, q):
    """χ(G)/μ_B of a group acting on a building of type ``system`` with
    thickness q, by the paper's definition over the Davis realization: the
    sum of (-1)^k / W_{T_0}(q) over every chain T_0 < ... < T_k of spherical
    subsets, the empty one included, each chain listed by DFS.

    W_T(q) is the product of 1 + q + ... + q^(d-1) over the degrees of W_T;
    at q = 1 it is |W_T|.
    """
    q = Fraction(q)
    spherical = [
        (frozenset(subset), system.degrees(subset))
        for size in range(system.n + 1)
        for subset in combinations(range(system.n), size)
    ]
    spherical = [(subset, degrees) for subset, degrees in spherical if degrees is not None]

    def poincare(degrees):
        value = Fraction(1)
        for d in degrees:
            value *= sum(q ** i for i in range(d))
        return value

    def signed_chains(bottom):
        """Σ (-1)^k over the chains bottom < T_1 < ... < T_k."""
        return 1 - sum(signed_chains(top) for top, _ in spherical if bottom < top)

    return sum(Fraction(signed_chains(subset)) / poincare(degrees) for subset, degrees in spherical)


def two_pass_rough_cayley_ball(oracle, generators, radius):
    """Reference for ``rough_cayley_ball``: ``(vertices, endpoint pairs)``
    from a frontier-by-frontier search for the cosets within ``radius``,
    then a second sweep over every coset and generator for the edges that
    stay inside, each pair ordered and sorted by order of discovery."""
    order = [oracle.coset_canon(oracle.identity)]
    seen = set(order)
    frontier = list(order)
    for _ in range(radius):
        next_frontier = []
        for g in frontier:
            for s in generators:
                for h in sorted(oracle.step_targets(g, s)):
                    if h not in seen:
                        seen.add(h)
                        order.append(h)
                        next_frontier.append(h)
        frontier = next_frontier
    ranked = {v: i for i, v in enumerate(order)}
    pairs = set()
    for g in order:
        for s in generators:
            for h in oracle.step_targets(g, s):
                if h in seen:
                    pairs.add((g, h) if ranked[g] <= ranked[h] else (h, g))
    return order, sorted(pairs, key=lambda p: (ranked[p[0]], ranked[p[1]]))


def word_labelled_bass_serre_ball(gog, radius):
    """Reference for ``GraphOfFiniteGroups.bass_serre_ball``: ``(words,
    endpoint pairs)`` of the radius ball in order of discovery, each vertex
    labelled by its whole reduced word, a tuple of (directed edge, coset
    representative) syllables, the root being the empty word.

    The transversal of an edge e is recomputed here from the group tables:
    the least element of each left coset g*H of the edge group's image H in
    the origin group, ascending.  A word's children run over the sorted
    star at its end vertex; the one skipped is the letter bar(e) with the
    least element of its H, where e is the word's last edge."""
    graph = gog.graph
    images, transversals = {}, {}
    for e in graph.edges:
        group = gog.vertex_groups[graph.origin[e]]
        images[e] = sorted(set(gog.embeddings[graph.bar[e]].images))
        transversals[e] = sorted({min(group.op(g, h) for h in images[e]) for g in group.elements})
    words, pairs = [()], []
    frontier = [()]
    for _ in range(radius):
        next_frontier = []
        for word in frontier:
            end = graph.terminus[word[-1][0]] if word else gog.base_vertex
            for e in sorted(graph.star(end)):
                for rep in transversals[e]:
                    if word and e == graph.bar[word[-1][0]] and rep == images[e][0]:
                        continue
                    child = word + ((e, rep),)
                    words.append(child)
                    pairs.append((word, child))
                    next_frontier.append(child)
        frontier = next_frontier
    return words, pairs


def reference_parser():
    """The CLI's argument parser written out by hand, one ``add_argument``
    per option: the reference for the help and usage errors that
    ``tdlcinv.cli.main`` prints and for the namespaces it runs."""
    parser = argparse.ArgumentParser(
        prog="tdlcinv",
        description="Exact finite-scale invariants of totally disconnected "
        "locally compact groups",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "json"), default="table")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homology", parents=[common], help="rational homology of a complex")
    p.add_argument("input")
    p.set_defaults(handler=cli.cmd_homology)

    p = sub.add_parser("cohomology-c", parents=[common], help="compactly supported cohomology")
    p.add_argument("input")
    p.set_defaults(handler=cli.cmd_cohomology_c)

    p = sub.add_parser("relative", parents=[common], help="cohomology of a complex pair")
    p.add_argument("input")
    p.set_defaults(handler=cli.cmd_relative)

    p = sub.add_parser("graph", parents=[common], help="edge-boundary invariants of a graph")
    p.add_argument("input")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of numbers")
    p.set_defaults(handler=cli.cmd_graph)

    p = sub.add_parser("rough-cayley", parents=[common], help="coset-graph ball of a finite group")
    p.add_argument("input")
    p.add_argument("--radius", type=int, default=2)
    p.add_argument("--dot", action="store_true")
    p.set_defaults(handler=cli.cmd_rough_cayley)

    p = sub.add_parser("gog", parents=[common], help="graph-of-groups invariants")
    p.add_argument("input")
    p.add_argument("--chi", action="store_true", help="Euler characteristic")
    p.add_argument("--unimodular", action="store_true")
    p.add_argument("--ball", type=int, metavar="R", help="tree ball radius")
    p.add_argument("--cohomology", metavar="REP.json", help="tree-action cohomology")
    p.set_defaults(handler=cli.cmd_gog)

    p = sub.add_parser("coxeter", parents=[common], help="length counts, exponents, identities")
    p.add_argument("input", nargs="?")
    p.add_argument("--preset", help='e.g. "A2" or "affine A2"')
    p.add_argument("--poincare", action="store_true")
    p.add_argument("--exponents", action="store_true")
    p.add_argument("--bott", type=int, metavar="N")
    p.add_argument("--altsum", type=int, metavar="Q")
    p.set_defaults(handler=cli.cmd_coxeter)

    p = sub.add_parser("davis", parents=[common], help="chamber duality verdict of a Coxeter system")
    p.add_argument("input")
    p.add_argument(
        "--exclude-empty-T",
        dest="exclude_empty_t",
        action="store_true",
        help="scan nonempty spherical subsets only",
    )
    p.set_defaults(handler=cli.cmd_davis)

    p = sub.add_parser("chevalley", parents=[common], help="closed-form Euler characteristic")
    p.add_argument("--type", required=True, help="finite type name, e.g. A2")
    p.add_argument("--q", required=True, type=int)
    p.add_argument("--via-parahorics", dest="via_parahorics", action="store_true")
    p.set_defaults(handler=cli.cmd_chevalley)
    return parser
