"""Exact sparse linear algebra over the rationals.

Entries are ``fractions.Fraction`` throughout: every rank, kernel and
homology dimension computed here is exact, and no mathematical code path
touches floating point.  Matrices are immutable after construction;
elimination always works on private row copies.

``rank`` eliminates forward over Python ``int``: it makes every row
integral, looks up the candidate rows of each column in a column-to-rows
index and updates rows fraction-free, removing their gcd content (see
``RationalMatrix.rank``).  ``kernel_basis`` and ``solve`` need the reduced
rows themselves and share ``_rref``, a reduced row echelon form in
``Fraction`` arithmetic.  Both pick, within a column, the sparsest eligible
row (a cheap Markowitz-style rule to limit fill-in).  Correctness does not
depend on the pivot choice, only the amount of intermediate fill does.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

# The scalar field.  Fraction is arbitrary precision, always reduced, and
# keeps its denominator positive, which is exactly the contract needed here.
Rational = Fraction


class CompositionNonZero(Exception):
    """Two consecutive boundary maps do not compose to the zero map."""


class RationalMatrix:
    """Sparse matrix over Q.  Absent entries are zero; stored entries never are."""

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, rows, cols, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        cleaned = {}
        if entries:
            for (i, j), value in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ValueError(f"entry index ({i}, {j}) outside {rows}x{cols}")
                value = Fraction(value)
                if value:
                    cleaned[(i, j)] = value
        self._entries = cleaned

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_rows(cls, data, cols=None):
        """Build from a dense list of row lists."""
        rows = len(data)
        if cols is None:
            cols = len(data[0]) if data else 0
        entries = {}
        for i, row in enumerate(data):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for j, value in enumerate(row):
                if value:
                    entries[(i, j)] = Fraction(value)
        return cls(rows, cols, entries)

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols)

    @classmethod
    def identity(cls, n):
        return cls(n, n, {(i, i): Fraction(1) for i in range(n)})

    # -- plain accessors -------------------------------------------------------

    def entry(self, i, j):
        return self._entries.get((i, j), Fraction(0))

    def entries(self):
        """Copy of the nonzero-entry map."""
        return dict(self._entries)

    @property
    def nnz(self):
        return len(self._entries)

    def is_zero(self):
        return not self._entries

    def to_dense(self):
        dense = [[Fraction(0)] * self.cols for _ in range(self.rows)]
        for (i, j), value in self._entries.items():
            dense[i][j] = value
        return dense

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (self.rows, self.cols, self._entries) == (other.rows, other.cols, other._entries)

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self._entries.items())))

    def __repr__(self):
        return f"RationalMatrix({self.rows}x{self.cols}, nnz={self.nnz})"

    # -- arithmetic ------------------------------------------------------------

    def transpose(self):
        return RationalMatrix(
            self.cols, self.rows, {(j, i): v for (i, j), v in self._entries.items()}
        )

    def __matmul__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        by_row = {}
        for (k, j), v in other._entries.items():
            by_row.setdefault(k, []).append((j, v))
        acc = {}
        for (i, k), u in self._entries.items():
            for j, v in by_row.get(k, ()):
                key = (i, j)
                acc[key] = acc.get(key, Fraction(0)) + u * v
        return RationalMatrix(self.rows, other.cols, acc)

    def apply(self, vector):
        """Matrix times column vector (any sequence of length ``cols``)."""
        if len(vector) != self.cols:
            raise ValueError("vector length mismatch")
        out = [Fraction(0)] * self.rows
        for (i, j), v in self._entries.items():
            if vector[j]:
                out[i] += v * Fraction(vector[j])
        return out

    # -- elimination core --------------------------------------------------

    def _row_dicts(self):
        rows = [dict() for _ in range(self.rows)]
        for (i, j), v in self._entries.items():
            rows[i][j] = v
        return rows

    def _rref(self):
        """Reduced row echelon form, for ``kernel_basis`` and ``solve`` only.

        Returns ``(pivots, rowmaps)`` where ``pivots`` is the ordered list of
        pivot columns and ``rowmaps[k]`` is the (normalized) sparse row whose
        pivot is ``pivots[k]``.
        """
        active = [row for row in self._row_dicts() if row]
        pivots = []
        done = []
        for col in range(self.cols):
            candidates = [row for row in active if col in row]
            if not candidates:
                continue
            pivot_row = min(candidates, key=len)  # sparsity pivoting
            active.remove(pivot_row)
            inv = Fraction(1) / pivot_row[col]
            pivot_row = {c: v * inv for c, v in pivot_row.items()}
            for row in active + done:
                factor = row.get(col)
                if factor is None:
                    continue
                for c, v in pivot_row.items():
                    new = row.get(c, Fraction(0)) - factor * v
                    if new:
                        row[c] = new
                    else:
                        row.pop(c, None)
            active = [row for row in active if row]
            pivots.append(col)
            done.append(pivot_row)
        return pivots, done

    def rank(self):
        """Rank over Q by fraction-free forward elimination over ``int``.

        Each row is scaled by the lcm of its denominators.  Columns are
        visited left to right; ``by_col`` maps a column to the rows with an
        entry there, so the candidates for a pivot are looked up, not
        searched for.  The sparsest candidate (lowest row on a tie) is the
        pivot; every other candidate loses its entry ``a`` in the pivot
        column, by ``row - a*pv*pivot_row`` when the pivot ``pv`` is ±1 and
        otherwise by ``pv*row - a*pivot_row`` with both factors divided by
        ``gcd(pv, a)`` and the result divided by its gcd content.  No entry
        left of the current column survives, so fill-in lands only to its
        right and the pivot row can be dropped after use.
        """
        scales = [1] * self.rows
        by_col = {}
        for (i, j), v in self._entries.items():
            scales[i] = lcm(scales[i], v.denominator)
            by_col.setdefault(j, set()).add(i)
        rows = [{} for _ in range(self.rows)]
        for (i, j), v in self._entries.items():
            rows[i][j] = v.numerator * (scales[i] // v.denominator)
        rank = 0
        for col in range(self.cols):
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
            rank += 1
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
        return rank

    def kernel_basis(self):
        """Basis of the right kernel, one tuple per free column.

        Each returned vector ``v`` satisfies ``m.apply(v) == 0`` exactly.  The
        basis is deterministic: free columns ascending, the free coordinate
        set to 1.
        """
        pivots, rowmaps = self._rref()
        pivot_set = set(pivots)
        basis = []
        for free in range(self.cols):
            if free in pivot_set:
                continue
            vec = [Fraction(0)] * self.cols
            vec[free] = Fraction(1)
            for col, row in zip(pivots, rowmaps):
                coeff = row.get(free)
                if coeff:
                    vec[col] = -coeff
            basis.append(tuple(vec))
        return basis

    def solve(self, rhs):
        """One exact solution of ``self @ x = rhs``.

        Raises ``ValueError`` when the system is inconsistent.  Free
        coordinates are set to zero.
        """
        if len(rhs) != self.rows:
            raise ValueError("right-hand side length mismatch")
        aug_entries = dict(self._entries)
        for i, value in enumerate(rhs):
            if value:
                aug_entries[(i, self.cols)] = Fraction(value)
        augmented = RationalMatrix(self.rows, self.cols + 1, aug_entries)
        pivots, rowmaps = augmented._rref()
        solution = [Fraction(0)] * self.cols
        for col, row in zip(pivots, rowmaps):
            if col == self.cols:
                raise ValueError("inconsistent linear system")
            solution[col] = row.get(self.cols, Fraction(0))
        return solution


def homology_dims(boundaries):
    """Homology dimensions of a finite chain complex of Q-vector spaces.

    ``boundaries[q]`` is the matrix of the q-th boundary map; the map in
    degree 0 must be the zero map into a 0-dimensional space (a matrix with
    zero rows whose column count is dim of the degree-0 space).  The missing
    map above the top degree is taken to be zero.  Consecutive maps must
    compose to zero; otherwise ``CompositionNonZero`` is raised.

    Returns ``[dim H_q]`` with
    ``dim H_q = (cols(d_q) - rank(d_q)) - rank(d_{q+1})``.
    """
    boundaries = list(boundaries)
    if not boundaries:
        return []
    if boundaries[0].rows != 0:
        raise ValueError("degree-0 boundary map must have zero rows")
    for q in range(len(boundaries) - 1):
        low, high = boundaries[q], boundaries[q + 1]
        if high.rows != low.cols:
            raise ValueError(f"boundary shapes disagree between degrees {q} and {q + 1}")
        if not (low @ high).is_zero():
            raise CompositionNonZero(f"d_{q} o d_{q + 1} != 0")
    dims = []
    ranks = [m.rank() for m in boundaries]
    for q, matrix in enumerate(boundaries):
        rank_above = ranks[q + 1] if q + 1 < len(boundaries) else 0
        dims.append(matrix.cols - ranks[q] - rank_above)
    return dims
