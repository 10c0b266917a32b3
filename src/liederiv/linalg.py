"""Exact sparse linear algebra over Q and Q(i).

One elimination engine, the sparse incremental echelon accumulator,
handles every system without materializing dense matrices, and its
back-eliminated rows are the canonical RREF bases of subspaces.  It
eliminates in integer forms (``exactfield.Field``): primitive
``{column: int}`` rows, a row over Q(i) as its real and imaginary parts
side by side.  Matrices and subspaces are immutable values, so callers
may share them.
"""

from __future__ import annotations

import heapq
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .exactfield import FIELD_Q, Field, Frozen, setfield


class Matrix(Frozen):
    """Immutable dense matrix of exact scalars over a field."""

    __slots__ = ("field", "nrows", "ncols", "entries")
    __match_args__ = ("field", "entries")

    def __init__(self, field: Field, entries: Sequence[Sequence]):
        rows = tuple(tuple(map(field.coerce, row)) for row in entries)
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        setfield(self, "field", field)
        setfield(self, "nrows", len(rows))
        setfield(self, "ncols", ncols)
        setfield(self, "entries", rows)

    def sparse_columns(self) -> tuple:
        """Column j as a ``{row: entry}`` dict of its nonzero entries."""
        return tuple({r: x for r, x in enumerate(col) if x} for col in zip(*self.entries))

    def __repr__(self):
        return f"Matrix({self.field}, {self.nrows}x{self.ncols})"


class Subspace(Frozen):
    """Subspace of field**n, stored as its canonical RREF basis: sparse
    ``{column: scalar}`` rows in pivot order, each with a unit pivot at
    its first column and zeros in every other row's pivot column.

    Two subspaces are equal iff their canonical rows coincide.
    """

    __slots__ = ("field", "ambient_dim", "rows", "pivots")
    __match_args__ = ("field", "ambient_dim", "rows")

    def __init__(self, field: Field, ambient_dim: int, rows: tuple):
        setfield(self, "field", field)
        setfield(self, "ambient_dim", ambient_dim)
        setfield(self, "rows", rows)
        setfield(self, "pivots", tuple(min(row) for row in rows))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __hash__(self):
        # the rows are dicts; equal subspaces have equal pivots
        return hash((self.field, self.ambient_dim, self.pivots))

    def __repr__(self):
        return f"Subspace({self.field}, dim {self.dim} of {self.ambient_dim})"


class SparseEchelon:
    """Incremental echelon accumulator over the exact field ``field``,
    eliminating in integers.

    It works on rows in integer form only (``Field.encode``), which
    ``insert_integer`` takes as they are.  A row r over Q(i) enters
    together with the form of i*r, so the span over Q of the forms is the
    real form of the span over Q(i), the pivots come in pairs
    {2p, 2p + 1}, one per pivot p over Q(i), and the RREF row at 2p is the
    real form of the RREF row at p.

    A stored row is a primitive ``{column: int}`` dict: the gcd of its
    entries is 1 and its pivot entry, at its first column, is positive.
    An incoming row is reduced fraction-free by gcd-scaled
    cross-multiplication, ``work = (p/g) * work - (v/g) * pivot_row`` with
    g = gcd(p, v), p the pivot entry and v the entry of ``work`` at the
    pivot, and the scaling is skipped when p is 1.  Unlike Bareiss's
    elimination there is no exact division by the previous pivot, so
    ``work`` may grow by up to log2(p) bits per pivot row with p > 1, and
    only the stored row is divided by its content.  Each stored row is a
    multiple of the row that unit-pivot elimination over the field stores
    at the same pivot.

    ``rref_forms`` and ``integer_nullspace`` hand out integer forms, read
    straight off the reduced integer rows; ``rref_rows`` and the
    subspaces read off them hold field scalars with unit pivots, keyed by
    field column, decoded when read (``Field.decode``).
    """

    __slots__ = ("field", "ncols", "_rows")

    def __init__(self, field: Field, ncols: int):
        self.field = field
        self.ncols = ncols
        self._rows: dict[int, dict] = {}

    @property
    def rank(self) -> int:
        return len(self._rows) // self.field.width

    def insert_integer(self, row: dict) -> bool:
        """Reduce a row in integer form (``Field.encode``: nonzero ``int``
        entries by integer column, any nonzero scaling) against the
        accumulator; returns True if the rank grew.  The row is reduced in
        place and may be stored, so the caller hands it over."""
        pivot = self._reduce(row)
        if pivot is None:
            return False
        # the other units times the new row only fill out its pivot group
        for turned in self.field.rotations(self._rows[pivot]):
            self._reduce(turned)
        return True

    def _reduce(self, work: dict) -> Optional[int]:
        """Reduce the integer row ``work`` in place; store it, primitive,
        and return its pivot when it stays nonzero, else return None."""
        rows = self._rows
        heap = list(work)
        heapq.heapify(heap)
        while heap:
            j = heapq.heappop(heap)
            v = work.get(j)
            if v is None:
                continue
            pivot_row = rows.get(j)
            if pivot_row is None:
                g = gcd(*work.values())
                if v < 0:
                    g = -g
                rows[j] = work if g == 1 else {c: x // g for c, x in work.items()}
                return j
            p = pivot_row[j]
            if p != 1:
                g = gcd(p, v)
                if g != p:
                    a = p // g
                    for c in work:
                        work[c] *= a
                v //= g
            del work[j]
            for c, pv in pivot_row.items():
                if c == j:
                    continue
                cur = work.get(c)
                if cur is None:
                    work[c] = -v * pv
                    heapq.heappush(heap, c)
                else:
                    nv = cur - v * pv
                    if nv:
                        work[c] = nv
                    else:
                        del work[c]
        return None

    def _reduced(self) -> dict[int, dict]:
        """Fully back-eliminated primitive integer rows, fraction-free,
        in descending pivot order."""
        rows = self._rows
        reduced: dict[int, dict] = {}
        for p in sorted(rows, reverse=True):
            row = rows[p]
            cols = [c for c in row if c != p and c in rows]
            if cols:
                row = dict(row)
                # the rows below are reduced, so eliminating one pivot
                # column only scales the entries at the others
                for c in cols:
                    q, f = reduced[c][c], row.pop(c)
                    g = gcd(q, f)
                    if g != q:
                        a = q // g
                        for k in row:
                            row[k] *= a
                    f //= g
                    for k, x in reduced[c].items():
                        if k != c:
                            nv = row.get(k, 0) - f * x
                            if nv:
                                row[k] = nv
                            else:
                                del row[k]
                g = gcd(*row.values())
                if g != 1:
                    row = {k: x // g for k, x in row.items()}
            reduced[p] = row
        return reduced

    def integer_nullspace(self) -> list[dict]:
        """Integer forms of a basis of {v : row . v = 0 for all accumulated
        rows}, one vector per free field column f in ascending order: the
        form of L * v_f, where v_f is 1 at f and minus column f of the RREF
        rows at their pivots, and L is the lcm of the pivot entries q_p of
        the reduced integer rows.  So L sits at w*f, and
        -row_p[w*f + t] * (L / q_p) at w*p + t for the row at w*p (w the
        field's ``width``); each row is scattered once into the vectors of
        its free columns."""
        w = self.field.width
        heads = {q: row for q, row in self._reduced().items() if not q % w}
        big = lcm(*(row[q] for q, row in heads.items()))
        vectors = {w * f: {w * f: big} for f in range(self.ncols) if w * f not in heads}
        for q, row in heads.items():
            scale = big // row[q]
            for k, x in row.items():
                t = k % w
                vec = vectors.get(k - t)
                if vec is not None:
                    vec[q + t] = -x * scale
        return list(vectors.values())

    def rref_forms(self) -> list[dict]:
        """The canonical RREF basis of the row space in integer form, in
        pivot order: the primitive back-eliminated rows at the field pivots
        (``q % width == 0``), each the form of its RREF row at the scale of
        its pivot entry."""
        return [row for q, row in sorted(self._reduced().items()) if not q % self.field.width]

    def rref_rows(self) -> list[dict]:
        """The canonical RREF basis of the row space, sparse, in pivot order
        (``rref_forms`` decoded)."""
        return [self.field.decode(row, min(row)) for row in self.rref_forms()]

    def row_space(self) -> Subspace:
        """The row space as a Subspace: its rows are the back-eliminated
        rows, the canonical RREF basis."""
        return Subspace(self.field, self.ncols, tuple(self.rref_rows()))

    def nullspace(self) -> SparseEchelon:
        """The nullspace, as the echelon fed its ``integer_nullspace``."""
        out = SparseEchelon(self.field, self.ncols)
        for vec in self.integer_nullspace():
            out.insert_integer(vec)
        return out


def encode_columns(field: Field, columns: Sequence[dict], size: int) -> tuple:
    """(forms, scale): the integer forms (``Field.encode``) of sparse columns
    with rows below ``size``, all at the one scale that clears their denominators."""
    w, n = field.width, len(columns) * size
    joint = {k * size + r: x for k, col in enumerate(columns) for r, x in col.items()}
    # the form of a 1 at the spare row n is the scale
    joint = field.encode({**joint, n: 1})
    scale = joint.pop(w * n)
    forms = [{} for _ in columns]
    for q, v in joint.items():
        forms[q // (w * size)][q % (w * size)] = v
    return forms, scale


class MapIndex:
    """Linear maps D_k, each given as its columns ``{j: form}`` in integer
    form at some positive scale (as ``dersolve.encode_map`` gives them), by
    integer column of the input: ``index[q]`` is [(k, column), ..] over
    the maps with a nonzero column there.  For q = w*j + t (w the field's
    ``width``) the column is column j of u_t*D_k (``Field.rotations``), so
    x with x_j = sum_t x_(w*j+t) u_t maps to sum_q x_q column, and a sparse
    x meets only the entries it shares a column with (Gustavson's row-wise
    product)."""

    __slots__ = ("index",)

    def __init__(self, field: Field, maps: Iterable[dict]):
        self.index: dict = {}
        for k, columns in enumerate(maps):
            for j, form in columns.items():
                for t, turned in enumerate((form, *field.rotations(form))):
                    self.index.setdefault(field.width * j + t, []).append((k, turned))

    def images(self, parts: dict) -> dict:
        """The nonzero images D_k(x) in integer form by k, ascending, given
        the integer form ``parts`` of x: image k is the form of D_k(x) at
        the scale of ``parts`` times that of the columns of D_k."""
        index, out = self.index, {}
        for q, xq in parts.items():
            for k, col in index.get(q, ()):
                img = out.get(k)
                if img is None:
                    out[k] = {r: xq * a for r, a in col.items()}
                else:
                    for r, a in col.items():
                        img[r] = img.get(r, 0) + xq * a
        images = {k: {r: v for r, v in out[k].items() if v} for k in sorted(out)}
        return {k: img for k, img in images.items() if img}


def combine_forms(forms: Sequence[dict], point: Sequence[int]) -> dict:
    """The integer form sum_t y_t forms[t] at the integer point y."""
    out: dict = {}
    for form, y in zip(forms, point):
        if y:
            for c, v in form.items():
                out[c] = out.get(c, 0) + y * v
    return {c: v for c, v in out.items() if v}


def solve_rows(rows: Iterable[dict], n: int, width: int) -> tuple:
    """(c, rank) for the augmented integer system [A | b] over Q, given by
    its rows (nonzero ``int`` entries by column; they are reduced in place):
    columns 0..n-1 hold A, ``width`` of them to a field column (column
    w*k + t the form of u_t a_k, ``Field.rotations``), and column n holds
    b.  c is None when b is outside the span of the a_k, else the integers
    c_0, .., c_(n-1), lam with lam > 0 and lam b = sum c_q A_q, the integer
    form of (c_k / lam)_k and a 1; rank is that of the a_k over the field.
    The real pivots come w to a field pivot, and c is the canonical RREF
    solution (free coefficients zero) over Q and the field alike:
    c_p = row[n] * lam / row[p] for the reduced integer row with pivot p,
    lam the lcm of the row[p], whatever order the rows go in.  A pivot at n
    means no solution: rank [A | b] = rank A exactly when one exists."""
    acc = SparseEchelon(FIELD_Q, n + 1)
    for row in rows:
        acc.insert_integer(row)
    reduced = acc._reduced()
    if n in reduced:
        return None, (acc.rank - 1) // width
    lam = lcm(*(row[p] for p, row in reduced.items()))
    coeffs = [0] * n + [lam]
    for p, row in reduced.items():
        coeffs[p] = row.get(n, 0) * (lam // row[p])
    return coeffs, acc.rank // width
