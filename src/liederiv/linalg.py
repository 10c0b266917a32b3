"""Exact dense and sparse linear algebra over Q and Q(i).

Dense reduced row-echelon form drives canonical subspace bases; the
sparse incremental echelon accumulator handles the large Leibniz and
probe-constraint systems without materializing dense matrices.  All
operations are pure functions on immutable values, so callers may use
them concurrently.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Optional, Sequence

from .exactfield import FieldMismatchError, check_field, coerce_scalar, inv, one, zero


class Matrix:
    """Immutable dense matrix of exact scalars with a field tag."""

    __slots__ = ("field", "nrows", "ncols", "entries", "_columns")

    def __init__(self, field: str, entries: Sequence[Sequence]):
        check_field(field)
        rows = tuple(tuple(coerce_scalar(x, field) for x in row) for row in entries)
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "_columns", None)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def zeros(cls, field: str, nrows: int, ncols: int) -> "Matrix":
        z = zero(field)
        return cls(field, [[z] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, field: str, n: int) -> "Matrix":
        z, o = zero(field), one(field)
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.entries)

    def sparse_columns(self) -> tuple:
        """Column j as a ``{row: entry}`` dict of its nonzero entries, built
        once and then shared (callers must not mutate it)."""
        if self._columns is None:
            cols = tuple({r: x for r, x in enumerate(col) if x} for col in zip(*self.entries))
            object.__setattr__(self, "_columns", cols)
        return self._columns

    def transpose(self) -> "Matrix":
        return Matrix(self.field, list(zip(*self.entries)) if self.nrows else [])

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.field, self.entries))

    def __repr__(self):
        return f"Matrix({self.field}, {self.nrows}x{self.ncols})"

    def matvec(self, v: Sequence) -> tuple:
        if len(v) != self.ncols:
            raise ValueError("dimension mismatch in matvec")
        return tuple(
            sum((row[j] * v[j] for j in range(self.ncols) if v[j]), zero(self.field))
            for row in self.entries
        )

    def matmul(self, other: "Matrix") -> "Matrix":
        _same_field(self, other)
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch in matmul")
        bt = other.transpose().entries
        z = zero(self.field)
        return Matrix(
            self.field,
            [[sum((a * b for a, b in zip(row, col) if a and b), z) for col in bt]
             for row in self.entries],
        )

    def add(self, other: "Matrix") -> "Matrix":
        _same_field(self, other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in add")
        return Matrix(
            self.field,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
        )

    def scale(self, c) -> "Matrix":
        c = coerce_scalar(c, self.field)
        return Matrix(self.field, [[c * x for x in row] for row in self.entries])

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.entries)


def _same_field(a, b):
    if a.field != b.field:
        raise FieldMismatchError(f"mixed fields {a.field} and {b.field}")


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Reduced row-echelon form and rank.

    Pivot choice is the first nonzero entry in column order, so the
    result is canonical for a given row space.
    """
    rows = [list(r) for r in m.entries]
    nrows, ncols = m.nrows, m.ncols
    pivot_row = 0
    for col in range(ncols):
        src = next((r for r in range(pivot_row, nrows) if rows[r][col]), None)
        if src is None:
            continue
        rows[pivot_row], rows[src] = rows[src], rows[pivot_row]
        pr = rows[pivot_row]
        inv_p = one(m.field) / pr[col]
        for j in range(col, ncols):
            if pr[j]:
                pr[j] = pr[j] * inv_p
        for r in range(nrows):
            if r != pivot_row and rows[r][col]:
                f = rows[r][col]
                rr = rows[r]
                for j in range(col, ncols):
                    if pr[j]:
                        rr[j] = rr[j] - f * pr[j]
        pivot_row += 1
        if pivot_row == nrows:
            break
    return Matrix(m.field, rows), pivot_row


class Subspace:
    """Subspace of field**n, stored as an RREF basis matrix (rows = basis).

    Two subspaces are equal iff their canonical basis matrices coincide.
    """

    __slots__ = ("field", "ambient_dim", "basis", "pivots")

    def __init__(self, field: str, ambient_dim: int, basis: Matrix, pivots: tuple):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "pivots", pivots)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_vectors(cls, field: str, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        vecs = [list(v) for v in vectors]
        if any(len(v) != ambient_dim for v in vecs):
            raise ValueError("vector length does not match ambient dimension")
        if not vecs:
            return cls(field, ambient_dim, Matrix(field, []), ())
        red, rank = rref(Matrix(field, vecs))
        rows = red.entries[:rank]
        pivots = tuple(next(j for j, x in enumerate(r) if x) for r in rows)
        return cls(field, ambient_dim, Matrix(field, rows), pivots)

    @classmethod
    def zero_space(cls, field: str, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, Matrix(field, []), ())

    @classmethod
    def full_space(cls, field: str, ambient_dim: int) -> "Subspace":
        return cls(
            field, ambient_dim, Matrix.identity(field, ambient_dim), tuple(range(ambient_dim))
        )

    @property
    def dim(self) -> int:
        return self.basis.nrows

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace({self.field}, dim {self.dim} of {self.ambient_dim})"

    def coordinates(self, v: Sequence) -> Optional[tuple]:
        """Coefficients of v over the basis rows, or None if v is outside.

        Because the basis is in RREF, the candidate coefficients are read
        off at the pivot columns and then verified exactly.
        """
        if len(v) != self.ambient_dim:
            raise ValueError("dimension mismatch in membership test")
        v = [coerce_scalar(x, self.field) for x in v]
        coeffs = tuple(v[p] for p in self.pivots)
        residue = list(v)
        for c, row in zip(coeffs, self.basis.entries):
            if c:
                for j, x in enumerate(row):
                    if x:
                        residue[j] = residue[j] - c * x
        if any(residue):
            return None
        return coeffs

    def contains(self, v: Sequence) -> bool:
        return self.coordinates(v) is not None

    def contains_subspace(self, other: "Subspace") -> bool:
        _same_space(self, other)
        return all(self.contains(row) for row in other.basis.entries)


def _same_space(a: Subspace, b: Subspace):
    _same_field(a, b)
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    _same_space(a, b)
    return Subspace.from_vectors(
        a.field, a.ambient_dim, list(a.basis.entries) + list(b.basis.entries)
    )


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the Zassenhaus stacked-basis elimination."""
    _same_space(a, b)
    n = a.ambient_dim
    z = zero(a.field)
    stacked = [list(row) + list(row) for row in a.basis.entries]
    stacked += [list(row) + [z] * n for row in b.basis.entries]
    if not stacked:
        return Subspace.zero_space(a.field, n)
    red, rank = rref(Matrix(a.field, stacked))
    inter_rows = [row[n:] for row in red.entries[:rank] if not any(row[:n])]
    return Subspace.from_vectors(a.field, n, inter_rows)


def nullspace(m: Matrix) -> Subspace:
    """Kernel {v : m v = 0} as a canonical subspace."""
    acc = SparseEchelon(m.ncols)
    for row in m.entries:
        acc.insert({j: x for j, x in enumerate(row) if x})
    return acc.nullspace(m.field)


class SparseEchelon:
    """Incremental echelon accumulator with unit pivots over an exact field.

    Rows are sparse ``{column: scalar}`` dicts whose support starts at the
    pivot column; stored rows are never mutated after insertion, so
    ``clone`` can share them.  The pivot is always the first nonzero
    column of the incoming row after reduction, which keeps the reduced
    forms canonical for a given row space.
    """

    __slots__ = ("ncols", "rows")

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: dict[int, dict] = {}

    def clone(self) -> "SparseEchelon":
        new = SparseEchelon(self.ncols)
        new.rows = dict(self.rows)
        return new

    @property
    def rank(self) -> int:
        return len(self.rows)

    def insert(self, row: dict) -> bool:
        """Reduce a sparse row against the accumulator; returns True if the
        rank grew (the reduced row was nonzero and became a new pivot row)."""
        work = {j: v for j, v in row.items() if v}
        heap = list(work)
        heapq.heapify(heap)
        while heap:
            j = heapq.heappop(heap)
            v = work.get(j)
            if not v:
                work.pop(j, None)
                continue
            pivot_row = self.rows.get(j)
            if pivot_row is None:
                inv_v = inv(v)
                self.rows[j] = {c: x * inv_v for c, x in work.items() if x}
                return True
            del work[j]
            for c, pv in pivot_row.items():
                if c == j:
                    continue
                cur = work.get(c)
                nv = cur - v * pv if cur is not None else -(v * pv)
                if nv:
                    if cur is None:
                        heapq.heappush(heap, c)
                    work[c] = nv
                else:
                    work.pop(c, None)
        return False

    def reduced_rows(self) -> dict[int, dict]:
        """Fully back-eliminated (RREF) copies of the pivot rows."""
        reduced: dict[int, dict] = {}
        for p in sorted(self.rows, reverse=True):
            row = dict(self.rows[p])
            for c in [c for c in row if c != p and c in self.rows]:
                f = row.get(c)
                if not f:
                    row.pop(c, None)
                    continue
                del row[c]
                for cc, pv in reduced[c].items():
                    if cc == c:
                        continue
                    cur = row.get(cc)
                    nv = cur - f * pv if cur is not None else -(f * pv)
                    if nv:
                        row[cc] = nv
                    else:
                        row.pop(cc, None)
            reduced[p] = row
        return reduced

    def nullspace_vectors(self) -> list[dict]:
        """Sparse basis of {v : row . v = 0 for all accumulated rows}."""
        reduced = self.reduced_rows()
        free = [c for c in range(self.ncols) if c not in self.rows]
        out = []
        for f in free:
            vec = {f: 1}
            for p, row in reduced.items():
                x = row.get(f)
                if x:
                    vec[p] = -x
            out.append(vec)
        return out

    def rref_rows(self) -> list[dict]:
        """The canonical RREF basis of the row space, sparse, in pivot order."""
        reduced = self.reduced_rows()
        return [reduced[p] for p in sorted(reduced)]

    def row_space(self, field: str) -> Subspace:
        """The row space as a Subspace, read off the back-eliminated rows
        (RREF is unique, so no dense re-elimination is needed)."""
        z = zero(field)
        sparse = self.rref_rows()
        rows = []
        for row in sparse:
            dense = [z] * self.ncols
            for c, x in row.items():
                dense[c] = x
            rows.append(dense)
        pivots = tuple(min(row) for row in sparse)
        return Subspace(field, self.ncols, Matrix(field, rows), pivots)

    def kernel(self, field: str) -> "SparseEchelon":
        """An accumulator whose row space is the nullspace of this one."""
        o = one(field)
        out = SparseEchelon(self.ncols)
        for sv in self.nullspace_vectors():
            out.insert({c: o * x for c, x in sv.items()})
        return out

    def nullspace(self, field: str) -> Subspace:
        return self.kernel(field).row_space(field)


def sparse_add(row: dict, col: int, val) -> None:
    """row[col] += val on a sparse ``{column: scalar}`` dict, dropping zeros."""
    cur = row.get(col)
    nv = val if cur is None else cur + val
    if nv:
        row[col] = nv
    else:
        row.pop(col, None)


def solve_columns(field: str, columns: Sequence[dict], target: dict) -> Optional[list]:
    """Coefficients c with sum_k c_k columns[k] = target, or None when the
    target is outside the span of the sparse ``{row: scalar}`` columns.

    A pivot at column m of the echelon of the augmented rows means no
    solution; otherwise c is read off the back-eliminated rows, the same
    canonical RREF solution (free coefficients zero) as a dense ``rref``."""
    m = len(columns)
    rows: dict = {}
    for k, col in enumerate(columns):
        for r, v in col.items():
            rows.setdefault(r, {})[k] = v
    for r, v in target.items():
        rows.setdefault(r, {})[m] = v
    acc = SparseEchelon(m + 1)
    for row in rows.values():
        acc.insert(row)
    if m in acc.rows:
        return None
    z = zero(field)
    coeffs = [z] * m
    for p, row in acc.reduced_rows().items():
        coeffs[p] = row.get(m, z)
    return coeffs
