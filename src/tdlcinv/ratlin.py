"""Exact sparse linear algebra over the rationals.

Entries are ``int`` or ``fractions.Fraction``: integers, such as the ±1 of
every boundary matrix, and ``Fraction`` values are stored as they are, and
every other value is converted to ``Fraction``.  Every rank, kernel and
homology dimension computed here is exact, and no mathematical code path
touches floating point.  Matrices are immutable after construction;
elimination always works on private row copies.

``fractions`` is imported only where a ``Fraction`` is made or tested: at
the first non-``int`` entry of a new matrix, in ``entry``, ``to_dense``,
``apply`` and ``_back_substitute``.  Ranking an all-``int`` matrix, such as
every boundary matrix, loads no ``fractions``.  ``Rational``, the scalar
field, is ``fractions.Fraction``, resolved on first use (PEP 562).

``rank``, ``kernel_basis`` and ``solve`` share one elimination kernel,
``RationalMatrix._pivots``: fraction-free forward elimination over Python
``int``, with a column-to-rows index and gcd content removal.  Integer
entries enter the elimination as they are; only the rows that hold a
``Fraction`` are scaled to integers, each by the lcm of its denominators.
``rank`` counts its pivots; ``kernel_basis`` and ``solve`` back-substitute
through the pivot rows in ``int`` as well, with the unknowns as numerators
over one common denominator that grows only when a pivot does not divide,
and turn them into ``Fraction`` values once at the end.  Within a column
the sparsest candidate row is the pivot, the lowest row id on a tie (a
cheap Markowitz-style rule to limit fill-in).  Correctness does not depend
on the pivot choice, only the amount of intermediate fill does.

The boundary maps of a chain complex are ranked together by
``chain_ranks``, top degree first, with clearing: the columns of ``d_q``
indexed by the pivot rows of ``d_{q+1}`` span nothing the other columns do
not, so they are never eliminated (or, through ``SimplicialComplex``,
never built).  ``simplicial.relative_cohomology`` and
``SimplicialComplex.homology``, the pair with the empty subcomplex, take
their ranks from it on ``_boundary``.  ``homology_dims`` is the route for
a chain complex that the caller supplies as matrices, and the only one
that checks d∘d = 0.
"""

from math import gcd, lcm


def __getattr__(name):
    # Rational: Fraction is arbitrary precision, always reduced, and keeps
    # its denominator positive, which is exactly the contract needed here.
    if name == "Rational":
        from fractions import Fraction

        return Fraction
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
        Fraction = None  # imported at the first entry that is not an int
        if entries:
            for (i, j), value in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ValueError(f"entry index ({i}, {j}) outside {rows}x{cols}")
                if type(value) is not int:
                    if Fraction is None:
                        from fractions import Fraction
                    if type(value) is not Fraction:
                        value = Fraction(value)  # a bool, too
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
                    entries[(i, j)] = value
        return cls(rows, cols, entries)

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols)

    @classmethod
    def identity(cls, n):
        return cls(n, n, {(i, i): 1 for i in range(n)})

    # -- plain accessors -------------------------------------------------------

    def entry(self, i, j):
        from fractions import Fraction

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
        from fractions import Fraction

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
                acc[key] = acc.get(key, 0) + u * v
        return RationalMatrix(self.rows, other.cols, acc)

    def apply(self, vector):
        """Matrix times column vector (any sequence of length ``cols``)."""
        if len(vector) != self.cols:
            raise ValueError("vector length mismatch")
        from fractions import Fraction

        out = [Fraction(0)] * self.rows
        for (i, j), v in self._entries.items():
            if vector[j]:
                out[i] += v * Fraction(vector[j])
        return out

    # -- elimination core --------------------------------------------------

    def _pivots(self):
        """Fraction-free forward elimination over ``int``.

        Yields ``(col, pv, row, rid)`` for each pivot column ``col``, in
        ascending order, once every other row has lost its entry there:
        the pivot row reads ``pv * x[col] + sum(row[c] * x[c]) = 0`` with
        every ``c`` in ``row`` right of ``col``, and ``rid`` is its index in
        ``self``.  The pivot columns do not depend on the pivot rule; they
        are the columns outside the span of the columns left of them.  The
        rows ``rid`` are linearly independent in ``self``: each reduced row
        is a nonzero multiple of its own input row plus a combination of
        the input rows of earlier pivots.

        ``int`` entries go into the rows as they are; only a row holding a
        ``Fraction`` is scaled, by the lcm of its denominators, so an
        all-integer matrix, such as every boundary matrix, is never scaled.
        Columns are visited left to right; ``by_col`` maps a column to the
        rows with an entry there, so the candidates for a pivot are looked
        up, not searched for.  The pivot is the candidate with the fewest
        entries, the lowest row id on a tie; every other candidate loses
        its entry ``a`` in the pivot column, by ``row - a*pv*pivot_row``
        when the pivot ``pv`` is ±1 (just by deleting ``a`` when the pivot
        row has no other entry) and otherwise by ``pv*row - a*pivot_row``
        with both factors divided by ``gcd(pv, a)`` and the result divided
        by its gcd content.  No entry left of the current column survives,
        so fill-in lands only to its right, and the pivot row leaves the
        elimination once yielded.
        """
        rows = [{} for _ in range(self.rows)]
        by_col = {}
        fractional = set()
        for (i, j), v in self._entries.items():
            rows[i][j] = v
            if type(v) is not int:
                fractional.add(i)
            if j in by_col:
                by_col[j].add(i)
            else:
                by_col[j] = {i}
        for i in fractional:
            row = rows[i]
            scale = lcm(*(v.denominator for v in row.values()))
            rows[i] = {c: v.numerator * (scale // v.denominator) for c, v in row.items()}
        for col in range(self.cols):
            ids = by_col.pop(col, None)
            if not ids:
                continue
            pid, fewest = -1, self.cols + 1
            for i in ids:
                n = len(rows[i])
                if n < fewest or n == fewest and i < pid:
                    pid, fewest = i, n
            ids.discard(pid)
            pivot_row = rows[pid]
            rows[pid] = None
            pv = pivot_row.pop(col)
            for c in pivot_row:
                by_col[c].discard(pid)
            unit = pv == 1 or pv == -1
            if unit and not pivot_row:
                for rid in ids:
                    del rows[rid][col]
                yield col, pv, pivot_row, pid
                continue
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

    def rank(self):
        """Rank over Q: the number of pivots of ``_pivots``.

        Each pivot row is dropped as soon as it is yielded, so the
        elimination holds only the rows still to be reduced.
        """
        return sum(1 for _ in self._pivots())

    def kernel_basis(self):
        """Basis of the right kernel, one tuple per free column.

        Each returned vector ``v`` satisfies ``m.apply(v) == 0`` exactly.  The
        basis is deterministic: free columns ascending, the free coordinate
        set to 1 and the other free coordinates to 0.
        """
        pivots = list(self._pivots())
        pivot_cols = {col for col, *_ in pivots}
        basis = []
        for free in range(self.cols):
            if free not in pivot_cols:
                vec = [0] * self.cols
                vec[free] = 1
                basis.append(tuple(_back_substitute(pivots, vec)))
        return basis

    def solve(self, rhs):
        """One exact solution of ``self @ x = rhs``.

        Raises ``ValueError`` when the system is inconsistent, that is when
        the augmented matrix has a pivot in its right-hand column.  Free
        coordinates are set to zero.
        """
        if len(rhs) != self.rows:
            raise ValueError("right-hand side length mismatch")
        aug_entries = dict(self._entries)
        for i, value in enumerate(rhs):
            if value:
                aug_entries[(i, self.cols)] = value
        augmented = RationalMatrix(self.rows, self.cols + 1, aug_entries)
        pivots = list(augmented._pivots())
        if pivots and pivots[-1][0] == self.cols:
            raise ValueError("inconsistent linear system")
        # a kernel vector of the augmented matrix with -1 in the rhs column
        return _back_substitute(pivots, [0] * self.cols + [-1])[:-1]


def _back_substitute(pivots, vec):
    """The vector with the free coordinates of ``vec`` (``int`` or
    ``Fraction``) and its pivot coordinates filled, last pivot first, so
    that every pivot row of ``_pivots`` holds.

    The work is in ``int``: the coordinates are held as numerators over one
    common denominator ``den``, first the lcm of the free values'
    denominators.  A pivot row gives its coordinate as ``-s / (pv * den)``,
    ``s`` the row times the numerators; when ``p = pv / gcd(s, pv)`` is
    not 1, ``den`` and every numerator so far are multiplied by ``p``
    first.  One division per coordinate at the end gives the reduced
    ``Fraction`` values.
    """
    from fractions import Fraction

    den = lcm(*(x.denominator for x in vec))
    num = [x.numerator * (den // x.denominator) for x in vec]
    for col, pv, row, _ in reversed(pivots):
        s = sum(v * num[c] for c, v in row.items())
        g = gcd(s, pv) if pv > 0 else -gcd(s, pv)
        p = pv // g
        if p != 1:
            num = [x * p for x in num]
            den *= p
        num[col] = -(s // g)
    return [Fraction(x, den) for x in num]


def chain_ranks(boundary, top):
    """Ranks of the boundary maps of a chain complex, top degree first,
    with clearing (Chen–Kerber, *Persistent homology computation with a
    twist*, EuroCG 2011).

    ``boundary(q, cleared)`` must return the matrix of the degree-q
    boundary map, ``1 <= q <= top``, with the columns whose indices are in
    ``cleared`` left out; its rows are numbered as the columns of the
    degree-(q-1) map before any is left out.  The maps must compose to
    zero.

    The pivot rows of ``d_{q+1}`` are linearly independent and span its
    row space, so some vector of its image, a cycle, has coordinate 1 at
    any one of them and 0 at the others.  The columns of ``d_q`` they index
    therefore lie in the span of its other columns, and ``d_q`` is ranked
    without them.  The bottom map needs no clearing set and is ranked by
    ``RationalMatrix.rank``.

    Returns ``ranks`` with ``ranks[q] = rank d_q`` for ``1 <= q <= top``
    and zero for the maps in degree 0 and above ``top``.
    """
    ranks = [0] * (top + 2)
    cleared = frozenset()
    for q in range(top, 1, -1):
        cleared = frozenset(rid for *_, rid in boundary(q, cleared)._pivots())
        ranks[q] = len(cleared)
    if top >= 1:
        ranks[1] = boundary(1, cleared).rank()
    return ranks


def _without_columns(matrix, cleared):
    """``matrix`` with the columns in ``cleared`` left out, order kept."""
    if not cleared:
        return matrix
    kept = [j for j in range(matrix.cols) if j not in cleared]
    new_index = {j: k for k, j in enumerate(kept)}
    entries = {(i, new_index[j]): v for (i, j), v in matrix._entries.items() if j in new_index}
    return RationalMatrix(matrix.rows, len(kept), entries)


def homology_dims(boundaries):
    """Homology dimensions of a finite chain complex of Q-vector spaces.

    ``boundaries[q]`` is the matrix of the q-th boundary map; the map in
    degree 0 must be the zero map into a 0-dimensional space (a matrix with
    zero rows whose column count is dim of the degree-0 space).  The missing
    map above the top degree is taken to be zero.  Consecutive maps must
    compose to zero; otherwise ``CompositionNonZero`` is raised.  This is
    the route for caller-supplied maps and the only one that checks
    d∘d = 0; ``SimplicialComplex.homology`` ranks maps built from the
    complex, where it holds by construction.

    Returns ``[dim H_q]`` with
    ``dim H_q = (cols(d_q) - rank(d_q)) - rank(d_{q+1})``, the ranks from
    ``chain_ranks``.
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
    top = len(boundaries) - 1
    ranks = chain_ranks(lambda q, cleared: _without_columns(boundaries[q], cleared), top)
    return [matrix.cols - ranks[q] - ranks[q + 1] for q, matrix in enumerate(boundaries)]
