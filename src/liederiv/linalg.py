"""Exact sparse linear algebra over Q and Q(i).

One elimination engine, the sparse incremental echelon accumulator,
handles the large Leibniz and probe-constraint systems without
materializing dense matrices, and its back-eliminated rows are the
canonical RREF bases of subspaces.  All operations are pure functions
on immutable values, so callers may use them concurrently.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Optional, Sequence

from .exactfield import Field, FieldMismatchError, inv


class Matrix:
    """Immutable dense matrix of exact scalars over a field."""

    __slots__ = ("field", "nrows", "ncols", "entries")

    def __init__(self, field: Field, entries: Sequence[Sequence]):
        rows = tuple(tuple(map(field.coerce, row)) for row in entries)
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def __reduce__(self):
        return Matrix, (self.field, self.entries)

    def sparse_columns(self) -> tuple:
        """Column j as a ``{row: entry}`` dict of its nonzero entries."""
        return tuple({r: x for r, x in enumerate(col) if x} for col in zip(*self.entries))

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

    def add(self, other: "Matrix") -> "Matrix":
        _same_field(self, other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in add")
        return Matrix(
            self.field,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
        )

    def scale(self, c) -> "Matrix":
        c = self.field.coerce(c)
        return Matrix(self.field, [[c * x for x in row] for row in self.entries])


def _same_field(a, b):
    if a.field != b.field:
        raise FieldMismatchError(f"mixed fields {a.field} and {b.field}")


class Subspace:
    """Subspace of field**n, stored as its canonical RREF basis: sparse
    ``{column: scalar}`` rows in pivot order, each with a unit pivot at
    its first column and zeros in every other row's pivot column.

    Two subspaces are equal iff their canonical rows coincide.
    """

    __slots__ = ("field", "ambient_dim", "rows", "pivots")

    def __init__(self, field: Field, ambient_dim: int, rows: tuple):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "pivots", tuple(min(row) for row in rows))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    def __reduce__(self):
        return Subspace, (self.field, self.ambient_dim, self.rows)

    @classmethod
    def from_vectors(cls, field: Field, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        acc = SparseEchelon(ambient_dim)
        for v in vectors:
            if len(v) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
            row = list(map(field.coerce, v))
            acc.insert({j: x for j, x in enumerate(row) if x})
        return acc.row_space(field)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.pivots))

    def __repr__(self):
        return f"Subspace({self.field}, dim {self.dim} of {self.ambient_dim})"

    def coordinates(self, v: Sequence) -> Optional[tuple]:
        """Coefficients of v over the basis rows, or None if v is outside.

        Because the basis is in RREF, the candidate coefficients are read
        off at the pivot columns and then verified exactly.
        """
        if len(v) != self.ambient_dim:
            raise ValueError("dimension mismatch in membership test")
        v = list(map(self.field.coerce, v))
        coeffs = tuple(v[p] for p in self.pivots)
        residue = {j: x for j, x in enumerate(v) if x}
        for c, row in zip(coeffs, self.rows):
            if c:
                for j, x in row.items():
                    sparse_add(residue, j, -(c * x))
        return None if residue else coeffs

    def contains(self, v: Sequence) -> bool:
        return self.coordinates(v) is not None


def _same_space(a: Subspace, b: Subspace):
    _same_field(a, b)
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    _same_space(a, b)
    acc = SparseEchelon(a.ambient_dim)
    for row in a.rows + b.rows:
        acc.insert(row)
    return acc.row_space(a.field)


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the Zassenhaus elimination: insert the rows
    (x | x) for x in a and (y | 0) for y in b; the RREF rows with a pivot
    at or past n span the intersection, already in canonical form."""
    _same_space(a, b)
    n = a.ambient_dim
    acc = SparseEchelon(2 * n)
    for row in a.rows:
        acc.insert({**row, **{c + n: x for c, x in row.items()}})
    for row in b.rows:
        acc.insert(row)
    rows = tuple({c - n: x for c, x in r.items()} for r in acc.rref_rows() if min(r) >= n)
    return Subspace(a.field, n, rows)


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

    def row_space(self, field: Field) -> Subspace:
        """The row space as a Subspace: its rows are the back-eliminated
        rows, the canonical RREF basis."""
        return Subspace(field, self.ncols, tuple(self.rref_rows()))

    def nullspace(self, field: Field) -> Subspace:
        """The nullspace as a Subspace, in canonical RREF."""
        o = field.one
        out = SparseEchelon(self.ncols)
        for sv in self.nullspace_vectors():
            out.insert({c: o * x for c, x in sv.items()})
        return out.row_space(field)


def sparse_add(row: dict, col: int, val) -> None:
    """row[col] += val on a sparse ``{column: scalar}`` dict, dropping zeros."""
    cur = row.get(col)
    nv = val if cur is None else cur + val
    if nv:
        row[col] = nv
    else:
        row.pop(col, None)


def solve_columns(field: Field, columns: Sequence[dict], target: dict) -> tuple:
    """(c, rank): coefficients c with sum_k c_k columns[k] = target, or
    None when the target is outside the span of the sparse
    ``{row: scalar}`` columns, and the rank of those columns.

    A pivot at column m of the echelon of the augmented rows means no
    solution; otherwise c is the canonical RREF solution, with every
    free coefficient zero, found by back-substituting the target column
    alone over the echelon rows in descending pivot order (no row is
    back-eliminated).  The same echelon gives the rank, since
    rank [A | b] = rank A exactly when a solution exists."""
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
        return None, acc.rank - 1
    z = field.zero
    coeffs = [z] * m
    for p in sorted(acc.rows, reverse=True):
        row = acc.rows[p]
        c = row.get(m, z)
        for k, v in row.items():
            if k != p and k != m and coeffs[k]:
                c = c - v * coeffs[k]
        coeffs[p] = c
    return coeffs, acc.rank
