"""Derivation algebras of structure-constant Lie algebras.

Der(L) is the nullspace of the product-rule system: a linear map D is a
derivation iff D([x,y]) = [D(x), y] + [x, D(y)] on all basis pairs.
This module assembles that system for any structure-constant algebra,
in integer form from the algebra's encoded bracket table, solves it
exactly, re-checks every basis map against the product rule, and spans
the inner derivations ad_x.  The named outer derivations of
the Schrodinger algebra live in ``schrodinger``.

A map enters as a parsed square Matrix; a subspace of maps holds D[r, j]
at coordinate j*d + r of the map space, and a map's columns are
``{j: form}``, the integer forms of its nonzero columns j only.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator, Optional

from .exactfield import Field, Frozen
from .liealg import LieAlgebra
from .linalg import MapIndex, Matrix, SparseEchelon, Subspace, encode_columns


def leibniz_rows(L: LieAlgebra) -> Iterator[dict]:
    """The nonzero sparse rows of the product-rule system in integer form
    (``Field.encode``), at the one scale ``L.table_scale``, in
    lexicographic (i, j, k) order.

    Unknown (r, c) of the map sits at flat column c*dim + r.  For the
    basis pair (i, j) and output coordinate k the equation reads

        sum_m c_ij^m D[k,m]  -  sum_r c_rj^k D[r,i]  -  sum_s c_is^k D[s,j]  =  0.

    Every entry is one structure constant, or two summed, so the row is
    read off ``L.integer_table`` with r over the partners of j, s over
    the partners of i and only the k that occur.  An equation whose terms
    are all zero constrains nothing and is not yielded; on the
    Schrodinger algebras most of them are.
    """
    d, w, table, partners = L.dim, L.field.width, L.integer_table, L.partners
    for i in range(d):
        for j in range(i + 1, d):
            # part t of c_ij^m, at q = w*m + t, sits at w*(m*d + k) + t
            base = [((q - q % w) * d + q % w, v) for q, v in table.get((i, j), {}).items()]
            per_k = {k: {c + w * k: v for c, v in base} for k in range(d)} if base else {}
            # -c_rj^k at D[r, i] and -c_is^k at D[s, j]
            terms = [(i, r, table[r, j]) for r in partners[j]]
            terms += [(j, s, table[i, s]) for s in partners[i]]
            for block, r, form in terms:
                for q, v in form.items():
                    k, t = divmod(q, w)
                    row = per_k.setdefault(k, {})
                    c = w * (block * d + r) + t
                    nv = row.get(c, 0) - v
                    if nv:
                        row[c] = nv
                    else:
                        del row[c]
            for k in sorted(per_k):
                if per_k[k]:
                    yield per_k[k]


class LeibnizError(ValueError):
    """A map violating the product rule, with the offending basis pair."""

    def __init__(self, failing_pair):
        self.failing_pair = failing_pair
        super().__init__(f"map is not a derivation (fails on pair {failing_pair})")


class LeibnizVerdict(Frozen):
    __slots__ = __match_args__ = ("ok", "failing_pair")

    def __init__(self, ok: bool, failing_pair: Optional[tuple] = None):
        super().__init__(ok, failing_pair)


def encode_map(L: LieAlgebra, D: Matrix) -> tuple:
    """(columns, scale): D's columns ``{j: form}`` at one positive scale
    (``encode_columns``); ValueError unless D is a square map on L over L's field."""
    if D.nrows != L.dim or D.ncols != L.dim:
        raise ValueError("map dimension does not match algebra")
    if D.field != L.field:
        raise ValueError("map field does not match algebra")
    forms, scale = encode_columns(L.field, D.sparse_columns(), L.dim)
    return {j: form for j, form in enumerate(forms) if form}, scale


def row_columns(L: LieAlgebra, row: dict) -> dict:
    """The columns ``{j: form}``, ascending, of the map whose integer form
    on the map space is ``row`` (D[r, j] at column j*d + r), at its scale."""
    wd = L.field.width * L.dim
    columns: dict = {}
    for c, v in sorted(row.items()):  # each column lists its rows in order
        columns.setdefault(c // wd, {})[c % wd] = v
    return columns


def is_derivation(L: LieAlgebra, D: Matrix) -> LeibnizVerdict:
    """Exact product-rule check of a Matrix on all basis pairs."""
    return _product_rule(L, encode_map(L, D)[0])


def _product_rule(L: LieAlgebra, columns: dict) -> LeibnizVerdict:
    """The product rule on all basis pairs (sufficient by bilinearity),
    in integer form: ``columns`` are the columns ``{j: form}`` of D.

    For a pair i < j it sums D([b_i,b_j]) - [D(b_i), b_j] - [b_i, D(b_j)]
    = D([b_i,b_j]) + A_i[j] - A_j[i], A_j[k] = [b_k, D(b_j)] from
    ``L.ad_images``, straight from the structure constants.  It shares no
    code with ``leibniz_rows``, so it re-checks the elimination
    independently.  D([b_i,b_j]) is zero unless [b_i,b_j] has a b_m with
    D(b_m) != 0 (the pair is in ``L.onto[m]``), so a pair with none, j not
    in A_i and i not in A_j sums to zero; only the other pairs are
    visited, in sorted order: the failing pair reported is the first one.
    """
    w, table = L.field.width, L.integer_table
    # turned[m][t]: the form of u_t D(b_m) (``Field.rotations``), and
    # ads[j][k] = [b_k, D(b_j)], over the nonzero columns
    turned = {m: (f, *L.field.rotations(f)) for m, f in columns.items()}
    ads = {j: L.ad_images(f) for j, f in columns.items()}
    pairs = {pair for m in turned for pair in L.onto[m]}
    for j, img in ads.items():
        pairs.update((j, k) if j < k else (k, j) for k in img if k != j)
    empty: dict = {}
    for i, j in sorted(pairs):
        acc = dict(ads.get(i, empty).get(j, empty))
        for r, v in ads.get(j, empty).get(i, empty).items():
            acc[r] = acc.get(r, 0) - v
        for q, c in table.get((i, j), empty).items():
            m = turned.get(q // w)
            if m:
                for r, a in m[q % w].items():
                    acc[r] = acc.get(r, 0) + c * a
        if any(acc.values()):
            return LeibnizVerdict(False, (L.labels[i], L.labels[j]))
    return LeibnizVerdict(True)


class DerivationSpace(Frozen):
    """Basis of Der(L) in integer form (``Field.encode``), Der being these
    rows alone: ``rows[k]``, the k-th canonical row of Der (D[r, j] at
    column j*d + r of the map space), is primitive at the scale of its
    pivot entry.  ``subspace``, the rows over the field, is decoded on read.

    The fold and the certifier work through two indexes keyed by integer
    column, each built on first use: ``image_index`` reads the nonzero
    columns of each row (``row_columns``), turned by the field's units in
    ``turned_index`` for the certifier's point solves, and ``residues``,
    the per-row Der-annihilation check of a constraint row, reads
    ``rows``, so a fault in the images cannot hide from that check.
    """

    __match_args__ = ("algebra", "rows")
    # the instance dict holds the cached indexes and subspace
    __slots__ = __match_args__ + ("__dict__",)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def subspace(self) -> Subspace:
        """Der's canonical RREF basis over the field, ``rows`` decoded."""
        L = self.algebra
        return Subspace(L.field, L.dim ** 2, tuple(L.field.decode(r, min(r)) for r in self.rows))

    @cached_property
    def image_index(self) -> MapIndex:
        # the columns of map k are at the scale of its row's pivot entry
        L = self.algebra
        return MapIndex(L.field, (row_columns(L, r) for r in self.rows))

    @cached_property
    def turned_index(self) -> dict:
        """``image_index`` with each column turned by the field's units
        (``Field.rotations``): q -> [(w*k + t, u_t times column q of D_k),
        ..], so a point x meets the images of the u_t D_k at w*k + t."""
        field, w = self.algebra.field, self.algebra.field.width
        return {
            q: [p for k, col in pairs for p in enumerate((col, *field.rotations(col)), w * k)]
            for q, pairs in self.image_index.index.items()
        }

    @cached_property
    def check_index(self) -> dict:
        """``rows`` by integer column: c -> [(m, entry), ..] over the
        ``Field.dot_forms`` of the rows (one form per row over Q, two over
        Q(i)) with an entry at c."""
        forms = (f for row in self.rows for f in self.algebra.field.dot_forms(row))
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
        over the field annihilates every row of Der."""
        index = self.check_index
        sums: dict = {}
        for c, a in row.items():
            for m, v in index.get(c, ()):
                sums[m] = sums.get(m, 0) + a * v
        return {m: s for m, s in sums.items() if s}


def derivation_space(L: LieAlgebra) -> DerivationSpace:
    """Der(L) as the exact nullspace of the product-rule system, whose
    integer rows go straight into the echelon (``insert_integer``).

    Der's rows are the nullspace's ``rref_forms``, and every basis map is
    re-verified against the product rule on its nonzero columns
    (``row_columns``), so a bug in the elimination cannot go unnoticed.
    """
    acc = SparseEchelon(L.field, L.dim ** 2)
    for row in leibniz_rows(L):
        acc.insert_integer(row)
    rows = acc.nullspace().rref_forms()
    for row in rows:
        pair = _product_rule(L, row_columns(L, row)).failing_pair
        if pair:
            raise AssertionError(f"nullspace produced a non-derivation (pair {pair})")
    return DerivationSpace(L, tuple(rows))


def inner_rows(L: LieAlgebra) -> dict:
    """``{k: row}``, ascending, over the k with ad_(b_k) != 0: the row is
    ad_(b_k) in integer form on the map space, at ``L.table_scale``.
    Column j of ad_(b_k) is [b_k, b_j], read off ``L.integer_table`` over
    the partners j of k."""
    d, w, table = L.dim, L.field.width, L.integer_table
    return {
        k: {w * d * j + q: v for j in partners for q, v in table[k, j].items()}
        for k, partners in enumerate(L.partners)
        if partners
    }


def inner_space(L: LieAlgebra) -> Subspace:
    """The span of the ad_b over basis elements b (``inner_rows``)."""
    acc = SparseEchelon(L.field, L.dim * L.dim)
    for row in inner_rows(L).values():
        acc.insert_integer(row)
    return acc.row_space()
