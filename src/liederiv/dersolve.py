"""Derivation algebras of structure-constant Lie algebras.

Der(L) is the nullspace of the product-rule system: a linear map D is a
derivation iff D([x,y]) = [D(x), y] + [x, D(y)] on all basis pairs.
This module assembles that system for any structure-constant algebra,
solves it exactly, re-checks every basis map against the product rule,
and spans the inner derivations ad_x.  The named outer derivations of
the Schrodinger algebra live in ``schrodinger``.

Linear maps are square Matrix values or their sparse columns; for
subspace embeddings a map is flattened column-major (entry j*d + r is D[r, j]).
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from typing import Iterator, Optional, Sequence

from .liealg import Frozen, LieAlgebra, ad, setfield
from .linalg import Matrix, SparseEchelon, Subspace, encode_columns, sparse_add


def flatten_map(m: Matrix) -> tuple:
    """Column-major flattening, the fixed convention for map subspaces."""
    return tuple(m.entries[i][j] for j in range(m.ncols) for i in range(m.nrows))


def leibniz_rows(L: LieAlgebra) -> Iterator[dict]:
    """The nonzero sparse rows of the product-rule system, in
    lexicographic (i, j, k) order.

    Unknown (r, c) of the map sits at flat column c*dim + r.  For the
    basis pair (i, j) and output coordinate k the equation reads

        sum_m c_ij^m D[k,m]  -  sum_r c_rj^k D[r,i]  -  sum_s c_is^k D[s,j]  =  0.

    An equation whose terms are all zero constrains nothing and is not
    yielded; on the Schrodinger algebras most of them are.
    """
    d = L.dim
    for i in range(d):
        for j in range(i + 1, d):
            cij = L.bracket_basis(i, j)
            per_k: dict[int, dict] = {}
            for k in range(d):
                row: dict = {}
                for m, c in cij.items():
                    sparse_add(row, m * d + k, c)
                per_k[k] = row
            for r in range(d):
                for k, c in L.bracket_basis(r, j).items():
                    sparse_add(per_k[k], i * d + r, -c)
            for s in range(d):
                for k, c in L.bracket_basis(i, s).items():
                    sparse_add(per_k[k], j * d + s, -c)
            yield from filter(None, per_k.values())


class LeibnizError(ValueError):
    """A map violating the product rule, with the offending basis pair."""

    def __init__(self, failing_pair):
        self.failing_pair = failing_pair
        super().__init__(f"map is not a derivation (fails on pair {failing_pair})")


class LeibnizVerdict(Frozen):
    __slots__ = __match_args__ = ("ok", "failing_pair")

    def __init__(self, ok: bool, failing_pair: Optional[tuple] = None):
        setfield(self, "ok", ok)
        setfield(self, "failing_pair", failing_pair)


def check_map(L: LieAlgebra, D: Matrix) -> None:
    """Raise ValueError unless D is a square map on L over the field of L."""
    if D.nrows != L.dim or D.ncols != L.dim:
        raise ValueError("map dimension does not match algebra")
    if D.field != L.field:
        raise ValueError("map field does not match algebra")


def is_derivation(L: LieAlgebra, D: Matrix) -> LeibnizVerdict:
    """Exact product-rule check of a Matrix on all basis pairs."""
    check_map(L, D)
    return _product_rule(L, D.sparse_columns())


def _product_rule(L: LieAlgebra, cols: Sequence[dict]) -> LeibnizVerdict:
    """The product rule on all basis pairs (sufficient by bilinearity).

    For a pair i < j it sums D([b_i,b_j]) - sum_r D[r,i] [b_r,b_j]
    - sum_s D[s,j] [b_i,b_s] over the sparse columns of D, straight from
    the structure constants.  It shares no code with ``leibniz_rows``, so
    it re-checks the elimination independently.  A pair with
    [b_i, b_j] = 0 and columns i and j of D zero sums to zero term by
    term, so only the other pairs are visited, in sorted order: the
    failing pair reported is the first one.
    """
    d = L.dim
    partners = [set() for _ in range(d)]
    for i, j in L.table:
        partners[i].add(j)
    moved = [j for j in range(d) if cols[j]]
    for i in range(d):
        if cols[i]:
            js = range(i + 1, d)
        else:
            js = sorted(partners[i].union(moved[bisect_right(moved, i) :]))
        for j in js:
            acc: dict = {}
            for m, c in L.bracket_basis(i, j).items():
                for r, a in cols[m].items():
                    sparse_add(acc, r, c * a)
            for r, a in cols[i].items():
                for k, c in L.bracket_basis(r, j).items():
                    sparse_add(acc, k, -(a * c))
            for s, a in cols[j].items():
                for k, c in L.bracket_basis(i, s).items():
                    sparse_add(acc, k, -(a * c))
            if acc:
                return LeibnizVerdict(False, (L.labels[i], L.labels[j]))
    return LeibnizVerdict(True)


class MapIndex:
    """Linear maps D_k, given by their sparse columns, in integer form by
    integer column of the input: ``index[q]`` is [(k, column), ..] over the
    maps with a nonzero column there, D_k at the positive scale ``scales[k]``
    that clears its denominators.  For q = w*j + t (w the field's ``width``)
    the column is column j of u_t*D_k (``Field.rotations``), so x with
    x_j = sum_t x_(w*j+t) u_t maps to sum_q x_q column, and a sparse x meets
    only the entries it shares a column with (Gustavson's row-wise product)."""

    __slots__ = ("index", "scales")

    def __init__(self, L: LieAlgebra, maps: Sequence[tuple]):
        field, w = L.field, L.field.width
        self.index: dict = {}
        self.scales = []
        for k, cols in enumerate(maps):
            forms, scale = encode_columns(field, cols, L.dim)
            self.scales.append(scale)
            for j, form in enumerate(forms):
                for t, turned in enumerate((form, *field.rotations(form))):
                    if turned:
                        self.index.setdefault(w * j + t, []).append((k, turned))

    def images(self, parts: dict) -> dict:
        """The nonzero images D_k(x) in integer form by k, ascending, given
        the integer form ``parts`` of x: image k is ``scales[k]`` times the
        form of D_k(x), at the scale of ``parts``."""
        out: dict = {}
        for q, xq in parts.items():
            for k, col in self.index.get(q, ()):
                img = out.get(k)
                if img is None:
                    out[k] = {r: xq * a for r, a in col.items()}
                else:
                    for r, a in col.items():
                        img[r] = img.get(r, 0) + xq * a
        images = {k: {r: v for r, v in out[k].items() if v} for k in sorted(out)}
        return {k: img for k, img in images.items() if img}


class DerivationSpace(Frozen):
    """Basis of Der(L) in one form: ``columns[k]`` holds the sparse
    columns of the k-th basis map, read straight off the k-th row of
    ``subspace``, the canonical embedding of Der in the map space.

    The probe fold, ``locder.witness`` and the symbolic certifier work in
    integer forms (``Field.encode``) through two indexes keyed by integer
    column, each built on first use: ``image_index`` reads ``columns``,
    and ``residues``, the per-row Der-annihilation check of a constraint
    row, reads ``subspace.rows``, so a fault in the columns, or in the
    images built from them, cannot hide from that check.
    """

    __match_args__ = ("algebra", "columns", "subspace")
    # the instance dict holds the cached indexes
    __slots__ = __match_args__ + ("__dict__",)

    def __init__(self, algebra: LieAlgebra, columns: tuple, subspace: Subspace):
        setfield(self, "algebra", algebra)
        setfield(self, "columns", columns)  # tuple[tuple[dict]]
        setfield(self, "subspace", subspace)

    @property
    def dim(self) -> int:
        return len(self.columns)

    @cached_property
    def image_index(self) -> MapIndex:
        return MapIndex(self.algebra, self.columns)

    @cached_property
    def check_index(self) -> dict:
        """``subspace.rows`` in integer form by integer column:
        c -> [(m, entry), ..] over the ``Field.dot_forms`` of the rows
        (one form per row over Q, two over Q(i)) with an entry at c."""
        field = self.algebra.field
        forms = (f for row in self.subspace.rows for f in field.dot_forms(field.encode(row)))
        index: dict = {}
        for m, form in enumerate(forms):
            for c, v in form.items():
                index.setdefault(c, []).append((m, v))
        return index

    def images(self, parts: dict) -> dict:
        """The nonzero D_k(x) in integer form by k (``MapIndex.images``)."""
        return self.image_index.images(parts)

    def residues(self, row: dict) -> dict:
        """The nonzero dot products of the integer row ``row`` with the
        ``dot_forms`` of Der's rows, by form: empty exactly when the row
        over the field annihilates every row of ``subspace``."""
        index = self.check_index
        sums: dict = {}
        for c, a in row.items():
            for m, v in index.get(c, ()):
                sums[m] = sums.get(m, 0) + a * v
        return {m: s for m, s in sums.items() if s}


def derivation_space(L: LieAlgebra) -> DerivationSpace:
    """Der(L) as the exact nullspace of the product-rule system.

    Each nullspace row is read straight into sparse columns, and every
    basis map is re-verified against the product rule directly, so a bug
    in the elimination cannot go unnoticed.
    """
    d = L.dim
    acc = SparseEchelon(L.field, d * d)
    for row in leibniz_rows(L):
        acc.insert(row)
    space = acc.nullspace()
    columns = []
    for row in space.rows:
        cols = tuple({} for _ in range(d))
        for c, x in sorted(row.items()):  # each column lists its rows in order
            cols[c // d][c % d] = x
        verdict = _product_rule(L, cols)
        if not verdict.ok:
            raise AssertionError(
                f"nullspace produced a non-derivation (pair {verdict.failing_pair})"
            )
        columns.append(cols)
    return DerivationSpace(L, tuple(columns), space)


def inner_space(L: LieAlgebra) -> Subspace:
    """Span of the flattened ad_b over basis elements b."""
    vecs = [flatten_map(ad(L.basis_element(i))) for i in range(L.dim)]
    return Subspace.from_vectors(L.field, L.dim * L.dim, vecs)
