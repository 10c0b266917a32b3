"""Derivation algebras of structure-constant Lie algebras.

Der(L) is the nullspace of the product-rule system: a linear map D is a
derivation iff D([x,y]) = [D(x), y] + [x, D(y)] on all basis pairs.
This module assembles that system, solves it exactly, identifies the
inner derivations ad_x, constructs the named outer derivations of the
Schrodinger algebra (the u/v pair rotations sigma_lk and the grading
complement tau), and decomposes arbitrary derivations against the
inner + sigma + tau basis.

Linear maps are square Matrix values; for subspace embeddings a map is
flattened column-major (column j holds the image of basis vector j).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .exactfield import FIELD_Q, check_field, one, zero
from .liealg import AlgebraElement, LieAlgebra, ad, schrodinger_rank
from .linalg import Matrix, SparseEchelon, Subspace, solve_columns, sparse_add


def flatten_map(m: Matrix) -> tuple:
    """Column-major flattening, the fixed convention for map subspaces."""
    return tuple(m.entries[i][j] for j in range(m.ncols) for i in range(m.nrows))


def unflatten_map(field: str, vec: Sequence, dim: int) -> Matrix:
    if len(vec) != dim * dim:
        raise ValueError("flattened map has wrong length")
    return Matrix(field, [[vec[j * dim + i] for j in range(dim)] for i in range(dim)])


def leibniz_rows(L: LieAlgebra) -> Iterator[dict]:
    """Sparse rows of the product-rule system, in lexicographic (i, j, k) order.

    Unknown (r, c) of the map sits at flat column c*dim + r.  For the
    basis pair (i, j) and output coordinate k the equation reads

        sum_m c_ij^m D[k,m]  -  sum_r c_rj^k D[r,i]  -  sum_s c_is^k D[s,j]  =  0.
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
            for k in range(d):
                yield per_k[k]


@dataclass(frozen=True)
class LeibnizVerdict:
    ok: bool
    failing_pair: Optional[tuple] = None


def is_derivation(L: LieAlgebra, D: Matrix) -> LeibnizVerdict:
    """Exact product-rule check on all basis pairs (sufficient by bilinearity).

    For each pair i < j it sums D([b_i,b_j]) - sum_r D[r,i] [b_r,b_j]
    - sum_s D[s,j] [b_i,b_s] over the sparse columns of D, straight from
    the structure constants.  It shares no code with ``leibniz_rows``, so
    it re-checks the elimination independently.
    """
    if D.nrows != L.dim or D.ncols != L.dim:
        raise ValueError("map dimension does not match algebra")
    if D.field != L.field:
        raise ValueError("map field does not match algebra")
    cols = D.sparse_columns()
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
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


@dataclass(frozen=True)
class DerivationSpace:
    """Basis of Der(L) plus its canonical embedding in the map space.

    ``columns[k]`` holds the sparse columns of ``basis[k]``, built once at
    construction, so that an image D_k(x) costs only the support of x
    (the probe fold, ``locder.witness`` and the symbolic certifier's rank,
    minor choices and stratum blocks all form their images this way).  The sparse RREF
    rows of ``subspace`` come from the nullspace itself, so the per-row
    Der-annihilation check of a constraint row, which reads them, does
    not reuse the data the images came from.
    """

    algebra: LieAlgebra
    basis: tuple  # tuple[Matrix]
    subspace: Subspace
    columns: tuple = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(D.sparse_columns() for D in self.basis))

    @property
    def dim(self) -> int:
        return len(self.basis)


def derivation_space(L: LieAlgebra) -> DerivationSpace:
    """Der(L) as the exact nullspace of the product-rule system.

    Every basis map is re-verified against the product rule directly, so
    a bug in the elimination cannot go unnoticed.
    """
    d = L.dim
    acc = SparseEchelon(d * d)
    for row in leibniz_rows(L):
        acc.insert(row)
    space = acc.nullspace(L.field)
    z = zero(L.field)
    maps = tuple(
        unflatten_map(L.field, [row.get(c, z) for c in range(d * d)], d) for row in space.rows
    )
    for m in maps:
        verdict = is_derivation(L, m)
        if not verdict.ok:
            raise AssertionError(
                f"nullspace produced a non-derivation (pair {verdict.failing_pair})"
            )
    return DerivationSpace(L, maps, space)


def inner_space(L: LieAlgebra) -> Subspace:
    """Span of the flattened ad_b over basis elements b."""
    vecs = [flatten_map(ad(L.basis_element(i))) for i in range(L.dim)]
    return Subspace.from_vectors(L.field, L.dim * L.dim, vecs)


def _require_schrodinger(L: LieAlgebra) -> int:
    n = schrodinger_rank(L)
    if n is None:
        raise ValueError("operation requires a generated Schrodinger algebra")
    return n


def sigma(n: int, l: int, k: int, field: str = FIELD_Q) -> Matrix:
    """Outer derivation rotating the (l, k) pair of u/v planes, 1 <= l < k <= n.

    u_l -> u_k, u_k -> -u_l, v_l -> v_k, v_k -> -v_l, zero elsewhere.
    The antisymmetric delta pattern is forced: the same-index variant
    fails the product rule on the pair (u_l, v_k).
    """
    if n < 2:
        raise ValueError("pair rotations need n >= 2")
    if not 1 <= l < k <= n:
        raise ValueError(f"indices must satisfy 1 <= l < k <= n, got ({l}, {k})")
    check_field(field)
    d = 2 * n + 4
    z, o = zero(field), one(field)
    rows = [[z] * d for _ in range(d)]
    u = lambda i: 3 + i
    v = lambda i: 3 + n + i
    rows[u(k)][u(l)] = o
    rows[u(l)][u(k)] = -o
    rows[v(k)][v(l)] = o
    rows[v(l)][v(k)] = -o
    return Matrix(field, rows)


def tau(n: int, field: str = FIELD_Q) -> Matrix:
    """Outer derivation complementing the inner grading: diagonal
    (0, 0, 0, 1, 1/2 .. 1/2) on (e, h, f, z, u_*, v_*)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    check_field(field)
    d = 2 * n + 4
    z, o = zero(field), one(field)
    half = o / 2
    rows = [[z] * d for _ in range(d)]
    rows[3][3] = o
    for i in range(4, d):
        rows[i][i] = half
    return Matrix(field, rows)


def sigma_pairs(n: int) -> list:
    return [(l, k) for l in range(1, n + 1) for k in range(l + 1, n + 1)]


def outer_span(n: int, field: str = FIELD_Q) -> Subspace:
    """Canonical span of the sigma maps in the flattened map space."""
    d = 2 * n + 4
    vecs = [flatten_map(sigma(n, l, k, field)) for (l, k) in sigma_pairs(n)] if n >= 2 else []
    return Subspace.from_vectors(field, d * d, vecs)


@dataclass(frozen=True)
class DerDecomposition:
    """Coefficients of D = ad(inner_part) + sum mu_lk sigma_lk + lambda tau.

    inner_part carries no z component (ad_z = 0 makes that coordinate
    unidentifiable); reassembly reproduces the input map exactly.
    """

    algebra: LieAlgebra
    inner_part: AlgebraElement
    sigma_coeffs: dict
    tau_coeff: object

    def reassemble(self) -> Matrix:
        n = schrodinger_rank(self.algebra)
        m = ad(self.inner_part)
        for (l, k), c in self.sigma_coeffs.items():
            if c:
                m = m.add(sigma(n, l, k, self.algebra.field).scale(c))
        if self.tau_coeff:
            m = m.add(tau(n, self.algebra.field).scale(self.tau_coeff))
        return m


def decompose(L: LieAlgebra, D: Matrix) -> DerDecomposition:
    """Resolve a derivation of the Schrodinger algebra against the
    ad-basis (z column dropped), the sigma maps, and tau."""
    n = _require_schrodinger(L)
    verdict = is_derivation(L, D)
    if not verdict.ok:
        raise ValueError(f"map is not a derivation (fails on pair {verdict.failing_pair})")
    d = L.dim
    ad_indices = [i for i in range(d) if L.labels[i] != "z"]
    pairs = sigma_pairs(n)
    maps = [ad(L.basis_element(i)) for i in ad_indices]
    maps += [sigma(n, l, k, L.field) for l, k in pairs] + [tau(n, L.field), D]
    flat = [{c: x for c, x in enumerate(flatten_map(M)) if x} for M in maps]
    coeffs = solve_columns(L.field, flat[:-1], flat[-1])
    if coeffs is None:
        raise AssertionError("derivation escaped the inner + sigma + tau span")
    inner_coords = [zero(L.field)] * d
    for i, c in zip(ad_indices, coeffs):
        inner_coords[i] = c
    sigma_coeffs = dict(zip(pairs, coeffs[len(ad_indices):]))
    out = DerDecomposition(L, L.element(inner_coords), sigma_coeffs, coeffs[-1])
    if out.reassemble() != D:
        raise AssertionError("decomposition failed to reassemble exactly")
    return out
