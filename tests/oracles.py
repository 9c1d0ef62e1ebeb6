"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive (dense textbook elimination, exhaustive
enumeration, plain DFS) and shares no code with the library paths it checks.
"""

from fractions import Fraction
from itertools import combinations, product


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
