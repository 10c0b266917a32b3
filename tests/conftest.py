"""Shared helpers: random exact scalars, independent elimination
oracles used to cross-check the production linear algebra (among them
the unit-pivot sparse echelon that the integer kernel replaced), sl2 in a
basis with non-real structure constants, and the dense maps and
subspaces that the package itself no longer builds: the element of
labelled terms, basis elements and linear combinations of elements, the
bracket of two elements, ad, the centre and the field-scalar bracket
table in either order, flattened maps and their linear combinations, the
span of dense vectors with membership, sum and Zassenhaus intersection, the dense
report behind ``outer_check`` and the reassembly of a ``decompose``
result.  Also the field-scalar Leibniz rows and the Der they cut out,
the dense Der basis, the all-triples Jacobi check, dense oracles for the
sparse derivation check and the all-pairs product rule, the dense inner
derivations, the sparse witness solve and the indexed Der-annihilation
check, the probe of an element (its integer form) and an element of a
probe, and the probe-fold oracles: the orbit subspace W_x, the flat
constraint rows of a candidate, a field-scalar reference fold on the
flat map space (``reference_constrain``), a fold over any probe list and
the full replay schedule of S_n, and a seeded generator of random matrix Lie
algebras."""

import copy
import heapq
import pickle
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from liederiv.dersolve import derivation_space
from liederiv.exactfield import FIELD_Q, FIELD_QI, FieldMismatchError, GaussianRational, I, inv
from liederiv.liealg import AlgebraElement, JacobiVerdict, LieAlgebra
from liederiv.linalg import Matrix, SparseEchelon, Subspace
from liederiv import locder
from liederiv.locder import (
    CandidateSpace,
    Probe,
    ProbeStep,
    probe_label,
    singleton_probes,
    _orbit_echelon,
)
from liederiv.schrodinger import make_schrodinger
from liederiv.schrodinger_der import sigma, sigma_pairs, tau


def rand_fraction(rng, lo=-9, hi=9, den=4):
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def rand_gauss(rng, lo=-9, hi=9, den=4):
    return GaussianRational(rand_fraction(rng, lo, hi, den), rand_fraction(rng, lo, hi, den))


def rand_scalar(rng, field=FIELD_Q):
    return rand_fraction(rng) if field == FIELD_Q else rand_gauss(rng)


def complex_sl2() -> LieAlgebra:
    """sl2 over Q(i) in the basis (x, h, y), x = e + i*f and y = e - i*f:
    [x, h] = -2y, [x, y] = -2i*h, [h, y] = 2x, so some structure
    constants are not real."""
    br = {(0, 1): {2: -2}, (0, 2): {1: -2 * I}, (1, 2): {0: 2}}
    return LieAlgebra("sl2_xhy", FIELD_QI, ["x", "h", "y"], br)


def copies(x) -> list:
    """x through copy.copy, copy.deepcopy and a pickle round trip."""
    return [copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))]


def naive_rank(rows):
    """Textbook forward elimination over exact scalars, kept independent
    of the production echelon code."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col] / pv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _dense_coordinates(vectors, target):
    """The coefficients c with sum c_k vectors[k] = target, by Gauss-Jordan
    over exact scalars on the augmented system, or None when target is
    outside their span; the vectors must be independent."""
    m = len(vectors)
    rows = [[v[i] for v in vectors] + [target[i]] for i in range(len(target))]
    pivots = []
    for col in range(m + 1):
        r = next((r for r in range(len(pivots), len(rows)) if rows[r][col]), None)
        if r is None:
            continue
        if col == m:
            return None
        top = len(pivots)
        rows[top], rows[r] = rows[r], rows[top]
        scale = inv(rows[top][col])
        rows[top] = [scale * a for a in rows[top]]
        for k in range(len(rows)):
            if k != top and rows[k][col]:
                f = rows[k][col]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[top])]
        pivots.append(col)
    return [rows[t][m] for t in range(m)]


@lru_cache(maxsize=None)
def random_matrix_algebras(seed: int = 2718, count: int = 12, max_dim: int = 9) -> tuple:
    """Seeded random exact Lie algebras: the closure under the commutator
    of 2-3 sparse matrices in gl_3 or gl_4, with 1-3 nonzero entries each,
    kept when its dimension d is 2..``max_dim``.  Every second algebra is
    over Q(i) with Gaussian integer entries, so some of its structure
    constants are not real; the others are over Q with integer entries.
    The basis is the generators, then each new commutator in the order
    the closure meets it, and the structure constants are solved for
    exactly in that basis.  The tuple is built once per argument set and
    shared by every test module that asks for it."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        field = FIELD_QI if len(out) % 2 else FIELD_Q
        values = [1, -1, 2, -2] + ([I, -I, 1 + I, 2 * I] if field == FIELD_QI else [])
        n = rng.choice((3, 4))
        basis = []
        for _ in range(rng.choice((2, 3))):
            m = [field.zero] * (n * n)
            for pos in rng.sample(range(n * n), rng.randint(1, 3)):
                m[pos] = field.coerce(rng.choice(values))
            if basis == [] or _dense_coordinates(basis, m) is None:
                basis.append(m)
        brackets, i = {}, 0
        while i < len(basis) <= max_dim:
            for j in range(i):
                a, b = basis[j], basis[i]
                comm = [
                    sum(
                        (a[r * n + k] * b[k * n + c] - b[r * n + k] * a[k * n + c] for k in range(n)),
                        field.zero,
                    )
                    for r in range(n)
                    for c in range(n)
                ]
                coords = _dense_coordinates(basis, comm)
                if coords is None:
                    basis.append(comm)
                    coords = [field.zero] * (len(basis) - 1) + [field.one]
                brackets[(j, i)] = {k: c for k, c in enumerate(coords) if c}
            i += 1
        if 2 <= len(basis) <= max_dim:
            labels = [f"x_{k}" for k in range(1, len(basis) + 1)]
            name = f"gl{n}_closure_{len(out)}"
            out.append(LieAlgebra(name, field, labels, brackets))
    return tuple(out)


class UnitPivotEchelon:
    """The sparse echelon in field scalars with unit pivots: each pivot
    row is the reduced incoming row divided by its first entry.  An
    oracle for ``SparseEchelon``, whose rows read back the same values."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: dict[int, dict] = {}

    def insert(self, row: dict) -> bool:
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
        reduced = self.reduced_rows()
        out = []
        for f in range(self.ncols):
            if f not in reduced:
                out.append({f: 1, **{p: -row[f] for p, row in reduced.items() if f in row}})
        return out


def sparse_add(row: dict, col: int, val) -> None:
    """row[col] += val on a sparse ``{column: scalar}`` dict, dropping zeros."""
    nv = row.get(col, 0) + val
    if nv:
        row[col] = nv
    else:
        row.pop(col, None)


def from_terms(L, terms: dict) -> AlgebraElement:
    """The element of L with the coordinates {label or index: coefficient}."""
    coords = [L.field.zero] * L.dim
    for key, c in terms.items():
        i = L.index[key] if isinstance(key, str) else key
        coords[i] = coords[i] + L.field.coerce(c)
    return L.element(coords)


def basis_element(L, i: int) -> AlgebraElement:
    """The basis element b_i of L."""
    return from_terms(L, {i: 1})


def combination(terms) -> AlgebraElement:
    """The element sum c * x over the (c, x) pairs, elements of one
    algebra (the element arithmetic the package does not define)."""
    terms = list(terms)
    L = terms[0][1].algebra
    coords = [L.field.zero] * L.dim
    for c, x in terms:
        if x.algebra != L:
            raise ValueError("elements of different algebras")
        c = L.field.coerce(c)
        coords = [a + c * b for a, b in zip(coords, x.coords)]
    return L.element(coords)


def bracket_basis(L, i: int, j: int) -> dict:
    """Sparse coordinates of [b_i, b_j] in either order, off ``L.table``."""
    if i < j:
        return L.table.get((i, j), {})
    return {k: -c for k, c in L.table.get((j, i), {}).items()}


def bracket(x, y):
    """[x, y] expanded through the structure constants, in field scalars."""
    L = x.algebra
    out = [L.field.zero] * L.dim
    for (i, j), terms in L.table.items():
        a = x.coords[i] * y.coords[j] - x.coords[j] * y.coords[i]
        if a:
            for k, c in terms.items():
                out[k] = out[k] + a * c
    return AlgebraElement(L, tuple(out))


def ad(x) -> Matrix:
    """The dense matrix of ad_x = [x, .]: column j is [x, b_j]."""
    L = x.algebra
    cols = [bracket(x, basis_element(L, j)).coords for j in range(L.dim)]
    return Matrix(L.field, list(zip(*cols)))


def center(L) -> Subspace:
    """{x : [x, L] = 0}: the nullspace of the stacked ad-matrices."""
    d = L.dim
    rows = [[bracket_basis(L, i, j).get(k, 0) for i in range(d)] for j in range(d) for k in range(d)]
    return nullspace(Matrix(L.field, rows))


def flatten_map(m: Matrix) -> tuple:
    """Column-major flattening: entry j*d + i is M[i, j]."""
    return tuple(m.entries[i][j] for j in range(m.ncols) for i in range(m.nrows))


def combine(terms) -> Matrix:
    """The dense matrix sum c * M over the (c, M) pairs, which share a
    field and a shape."""
    terms = list(terms)
    field, first = terms[0][1].field, terms[0][1]
    rows = [[field.zero] * first.ncols for _ in range(first.nrows)]
    for c, m in terms:
        c = field.coerce(c)
        for row, mrow in zip(rows, m.entries):
            for j, x in enumerate(mrow):
                row[j] = row[j] + c * x
    return Matrix(field, rows)


def reassemble(dec) -> Matrix:
    """ad(inner_part) + sum mu_lk sigma_lk + lambda tau of a
    ``DerDecomposition``, dense."""
    field, n = dec.algebra.field, dec.n
    terms = [(1, ad(dec.inner_part)), (dec.tau_coeff, tau(n, field))]
    terms += [(c, sigma(n, l, k, field)) for (l, k), c in dec.sigma_coeffs.items()]
    return combine(terms)


def insert(acc: SparseEchelon, row: dict) -> bool:
    """Put a sparse row of field scalars into ``acc`` through its integer
    form (``Field.encode``); True when the rank grew.  A scalar outside the
    field raises FieldMismatchError."""
    return acc.insert_integer(acc.field.encode(row))


def stored_rows(acc: SparseEchelon) -> dict:
    """The stored pivot rows of ``acc`` over its field, ``{pivot: row}``,
    each decoded (``Field.decode``) to a unit pivot."""
    w, decode = acc.field.width, acc.field.decode
    return {q // w: decode(row, q) for q, row in acc._rows.items() if not q % w}


def span(field, n, vectors) -> Subspace:
    """The canonical span of dense vectors of length n, through the
    field-scalar ``insert``."""
    acc = SparseEchelon(field, n)
    for v in vectors:
        if len(v) != n:
            raise ValueError("vector length does not match ambient dimension")
        insert(acc, {j: x for j, x in enumerate(map(field.coerce, v)) if x})
    return acc.row_space()


def coordinates(s: Subspace, v):
    """Coefficients of the dense v over the canonical rows of s, or None
    if v is outside: read off at the pivot columns (the rows are in RREF),
    then verified exactly."""
    if len(v) != s.ambient_dim:
        raise ValueError("dimension mismatch in membership test")
    v = [s.field.coerce(x) for x in v]
    coeffs = tuple(v[p] for p in s.pivots)
    z = s.field.zero
    rebuilt = [sum((c * row.get(j, z) for c, row in zip(coeffs, s.rows)), z) for j in range(len(v))]
    return coeffs if rebuilt == v else None


def contains(s: Subspace, v) -> bool:
    return coordinates(s, v) is not None


def _same_space(a: Subspace, b: Subspace):
    if a.field != b.field:
        raise FieldMismatchError(f"mixed fields {a.field} and {b.field}")
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    _same_space(a, b)
    return span(a.field, a.ambient_dim, dense_rows(a) + dense_rows(b))


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Zassenhaus: the RREF rows of (x | x) for x in a and (y | 0) for y
    in b with a pivot at or past n span the intersection, canonically."""
    _same_space(a, b)
    n, z = a.ambient_dim, a.field.zero
    stacked = [row + row for row in dense_rows(a)] + [row + (z,) * n for row in dense_rows(b)]
    rows = span(a.field, 2 * n, stacked).rows
    return Subspace(a.field, n, tuple({c - n: x for c, x in r.items()} for r in rows if min(r) >= n))


def dense_outer_report(n, field) -> dict:
    """The ``outer_check`` report from dense maps and subspaces: the
    product rule through ``dense_is_derivation``, the sigma span met with
    ``dense_inner_space`` by Zassenhaus, tau tested by membership, and the
    sum compared with Der from ``field_der_subspace``."""
    L = make_schrodinger(n, field)
    dd = L.dim * L.dim
    pairs = sigma_pairs(n)
    sigmas = [sigma(n, l, k, field) for l, k in pairs]
    t = tau(n, field)
    checks = {
        f"sigma_{l}{k}_leibniz": dense_is_derivation(L, s)[0] for (l, k), s in zip(pairs, sigmas)
    }
    checks["tau_leibniz"] = dense_is_derivation(L, t)[0]
    inn = dense_inner_space(L)
    span_sigma = span(field, dd, [flatten_map(s) for s in sigmas])
    checks["sigma_span_meets_inner_trivially"] = subspace_intersect(span_sigma, inn).dim == 0
    inn_sigma = subspace_sum(inn, span_sigma)
    checks["tau_outside_inner_plus_sigma"] = not contains(inn_sigma, flatten_map(t))
    full = subspace_sum(inn_sigma, span(field, dd, [flatten_map(t)]))
    der = field_der_subspace(L)
    checks["inner_plus_sigma_plus_tau_equals_der"] = full == der
    return {
        "algebra": L.name,
        "n": n,
        "field": field.tag,
        "der_dim": der.dim,
        "inner_dim": inn.dim,
        "sigma_count": len(pairs),
        "checks": checks,
        "ok": all(checks.values()),
    }


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Dense reduced row-echelon form and rank.

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
        inv_p = m.field.one / pr[col]
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


def nullspace(m: Matrix) -> Subspace:
    """Kernel {v : m v = 0} of a dense matrix, through ``SparseEchelon``."""
    acc = SparseEchelon(m.field, m.ncols)
    for row in m.entries:
        insert(acc, {j: x for j, x in enumerate(row) if x})
    return acc.nullspace().row_space()


def field_leibniz_rows(L):
    """The nonzero rows of the product-rule system in field scalars, in
    lexicographic (i, j, k) order, with r and s over every basis index:
    the reference for ``dersolve.leibniz_rows``, whose integer rows are
    these at the scale ``L.table_scale``.  For the basis pair (i, j) and
    output coordinate k the row reads

        sum_m c_ij^m D[k,m]  -  sum_r c_rj^k D[r,i]  -  sum_s c_is^k D[s,j],

    unknown (r, c) at flat column c*dim + r."""
    d = L.dim
    for i in range(d):
        for j in range(i + 1, d):
            cij = bracket_basis(L, i, j)
            per_k: dict[int, dict] = {}
            for k in range(d):
                row: dict = {}
                for m, c in cij.items():
                    sparse_add(row, m * d + k, c)
                per_k[k] = row
            for r in range(d):
                for k, c in bracket_basis(L, r, j).items():
                    sparse_add(per_k[k], i * d + r, -c)
            for s in range(d):
                for k, c in bracket_basis(L, i, s).items():
                    sparse_add(per_k[k], j * d + s, -c)
            yield from filter(None, per_k.values())


def field_der_subspace(L) -> Subspace:
    """Der(L) as the nullspace of ``field_leibniz_rows`` put in through
    the field-scalar ``insert``."""
    acc = SparseEchelon(L.field, L.dim * L.dim)
    for row in field_leibniz_rows(L):
        insert(acc, row)
    return acc.nullspace().row_space()


def at_scale(field, row: dict, scale) -> dict:
    """The integer form of ``scale`` times a row of field scalars, parts
    side by side as ``Field.encode`` places them; every part must come out
    an integer."""
    out = {}
    for c, x in row.items():
        parts = (x.re, x.im) if isinstance(x, GaussianRational) else (x, 0)
        for t, part in enumerate(parts[: field.width]):
            v = Fraction(part) * scale
            assert v.denominator == 1, f"{x} at scale {scale} is not integral"
            if v:
                out[field.width * c + t] = int(v)
    return out


def leibniz_system(L) -> Matrix:
    """Dense product-rule system: one row per basis pair (i < j) per
    coordinate, the rows of ``field_leibniz_rows`` made dense."""
    d = L.dim
    z = L.field.zero
    rows = []
    for sparse in field_leibniz_rows(L):
        row = [z] * (d * d)
        for c, v in sparse.items():
            row[c] = v
        rows.append(row)
    return Matrix(L.field, rows)


def zeros(field, nrows, ncols) -> Matrix:
    z = field.zero
    return Matrix(field, [[z] * ncols for _ in range(nrows)])


def identity(field, n) -> Matrix:
    z, o = field.zero, field.one
    return Matrix(field, [[o if i == j else z for j in range(n)] for i in range(n)])


def col(m: Matrix, j) -> tuple:
    return tuple(r[j] for r in m.entries)


def transpose(m: Matrix) -> Matrix:
    return Matrix(m.field, list(zip(*m.entries)) if m.nrows else [])


def is_zero(m: Matrix) -> bool:
    return not any(any(row) for row in m.entries)


def matvec(m: Matrix, v) -> tuple:
    if len(v) != m.ncols:
        raise ValueError("dimension mismatch in matvec")
    return tuple(
        sum((row[j] * v[j] for j in range(m.ncols) if v[j]), m.field.zero)
        for row in m.entries
    )


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if a.ncols != b.nrows:
        raise ValueError("dimension mismatch in matmul")
    bt = transpose(b).entries
    z = a.field.zero
    return Matrix(
        a.field,
        [[sum((x * y for x, y in zip(row, c) if x and y), z) for c in bt] for row in a.entries],
    )


def dense_rows(s: Subspace) -> list:
    """The canonical basis rows of a subspace, as dense tuples."""
    z = s.field.zero
    return [tuple(row.get(c, z) for c in range(s.ambient_dim)) for row in s.rows]


def unflatten_map(field, vec, dim) -> Matrix:
    """The square matrix of a column-major flat map: entry j*dim + i is
    M[i, j] (the inverse of ``flatten_map``)."""
    if len(vec) != dim * dim:
        raise ValueError("flattened map has wrong length")
    return Matrix(field, [[vec[j * dim + i] for j in range(dim)] for i in range(dim)])


def dense_der_basis(der) -> tuple:
    """The Der basis as dense matrices, built from the rows of
    ``der.subspace`` alone, so it is an oracle for the scatter of
    ``der.rows`` (``dersolve.row_columns``)."""
    L = der.algebra
    return tuple(unflatten_map(L.field, vec, L.dim) for vec in dense_rows(der.subspace))


def field_columns(der) -> tuple:
    """The sparse columns of each Der basis map in field scalars, read off
    the rows of ``der.subspace`` alone: entry j*d + r of a row is D[r, j]."""
    d = der.algebra.dim
    out = []
    for row in der.subspace.rows:
        cols = tuple({} for _ in range(d))
        for c, x in sorted(row.items()):
            cols[c // d][c % d] = x
        out.append(cols)
    return tuple(out)


def full_space(field, n) -> Subspace:
    return span(field, n, identity(field, n).entries)


def dense_inner_space(L) -> Subspace:
    """The span of the flattened dense ad_b over basis elements b, coerced
    entry by entry (the construction ``dersolve.inner_space`` replaced)."""
    vecs = [flatten_map(ad(basis_element(L, i))) for i in range(L.dim)]
    return span(L.field, L.dim * L.dim, vecs)


def contains_subspace(a: Subspace, b: Subspace) -> bool:
    return all(contains(a, row) for row in dense_rows(b))


def back_multiply(rows, vec):
    """Exact products row . vec for every row (the nullspace oracle)."""
    return [sum((a * b for a, b in zip(row, vec) if a and b), 0 * vec[0]) for row in rows]


def all_triples_jacobi(L) -> JacobiVerdict:
    """The Jacobi identity summed in field scalars on every basis triple
    a < b < c in sorted order: the reference for ``liealg.check_jacobi``,
    which visits only the triples with a nonzero term."""
    n = L.dim
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                acc: dict = {}
                for (x, y, z) in ((a, b, c), (b, c, a), (c, a, b)):
                    for m, coef in bracket_basis(L, x, y).items():
                        for k, d in bracket_basis(L, m, z).items():
                            sparse_add(acc, k, coef * d)
                if acc:
                    return JacobiVerdict(False, (L.labels[a], L.labels[b], L.labels[c]))
    return JacobiVerdict(True)


def all_pairs_product_rule(L, cols):
    """(ok, failing_pair) of the product rule over the sparse columns of
    a map, in field scalars, summed on every basis pair i < j in sorted
    order: the reference for ``dersolve._product_rule``, which works in
    integer form and skips the pairs that sum to zero term by term."""
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            acc: dict = {}
            for m, c in bracket_basis(L, i, j).items():
                for r, a in cols[m].items():
                    sparse_add(acc, r, c * a)
            for r, a in cols[i].items():
                for k, c in bracket_basis(L, r, j).items():
                    sparse_add(acc, k, -(a * c))
            for s, a in cols[j].items():
                for k, c in bracket_basis(L, i, s).items():
                    sparse_add(acc, k, -(a * c))
            if acc:
                return False, (L.labels[i], L.labels[j])
    return True, None


def dense_is_derivation(L, D):
    """(ok, failing_pair) of the product rule on all basis pairs, through
    dense elements and ``bracket``; the first failing pair in row-major
    order, as the production check reports it."""
    for i in range(L.dim):
        xi = basis_element(L, i)
        dxi = L.element(col(D, i))
        for j in range(i + 1, L.dim):
            xj = basis_element(L, j)
            lhs = L.element(matvec(D, bracket(xi, xj).coords))
            rhs = combination([(1, bracket(dxi, xj)), (1, bracket(xi, L.element(col(D, j))))])
            if lhs.coords != rhs.coords:
                return False, (L.labels[i], L.labels[j])
    return True, None


def dense_witness(der, delta, x):
    """Coefficients of the canonical RREF solution of
    sum c_k D_k(x) = Delta(x) over the Der basis, or None when there is
    none: the dense route through ``matvec`` and ``rref``."""
    L = der.algebra
    target = matvec(delta, x.coords)
    images = [matvec(D, x.coords) for D in dense_der_basis(der)]
    m = len(images)
    aug = Matrix(L.field, [list(c) + [t] for c, t in zip(zip(*images), target)])
    red, rank = rref(aug)
    pivots = [next(j for j, v in enumerate(row) if v) for row in red.entries[:rank]]
    if m in pivots:
        return None
    coeffs = [L.field.zero] * m
    for row, p in zip(red.entries[:rank], pivots):
        coeffs[p] = row[m]
    return tuple(coeffs)


def dot_sparse(u: dict, v: dict):
    """Exact dot product of two sparse ``{column: scalar}`` vectors."""
    if len(v) < len(u):
        u, v = v, u
    total = None
    for c, a in u.items():
        b = v.get(c)
        if b is not None:
            total = a * b if total is None else total + a * b
    return total if total is not None else 0


def constraint_rows(acc) -> list:
    """The canonical RREF basis, over the field, of the flat constraint
    rows that cut out the candidate space ``acc``: the annihilator of
    ``acc.space``, the candidate mapped back onto the flattened maps."""
    space = SparseEchelon(acc.der.algebra.field, acc.space.ambient_dim)
    for row in acc.space.rows:
        insert(space, row)
    return space.nullspace().rref_rows()


def contains_map(acc, D: Matrix) -> bool:
    """Whether the candidate space ``acc`` holds the map D: every flat
    constraint row (``constraint_rows``) annihilates the flattened map."""
    flat = {c: x for c, x in enumerate(flatten_map(D)) if x}
    return not any(dot_sparse(row, flat) for row in constraint_rows(acc))


def integer_form(x) -> dict:
    """The integer form (``Field.encode``) of the coordinates of the
    element x, the form a ``Probe`` of x carries."""
    return x.algebra.field.encode(dict(enumerate(x.coords)))


def element_probe(x, label=None, seed=None, sigma=()) -> Probe:
    """The probe of the element x, labelled as the reports print it unless
    ``label`` is given."""
    L = x.algebra
    if label is None:
        label = probe_label(L.labels, dict(enumerate(x.coords)))
    return Probe(L, integer_form(x), label, seed, sigma)


def make_probe(L, terms: dict, label=None) -> Probe:
    """The probe with coordinates ``{label or index: coefficient}``,
    labelled as the reports print it unless ``label`` is given."""
    return element_probe(from_terms(L, terms), label)


def probe_element(probe) -> AlgebraElement:
    """A nonzero multiple of the element x of ``probe``: its integer form
    decoded at its first column (``Field.decode``)."""
    L, form = probe.algebra, probe.form
    coords = L.field.decode(form, min(form))
    return L.element([coords.get(i, L.field.zero) for i in range(L.dim)])


def orbit_subspace(der, x) -> Subspace:
    """W_x = span{D(x) : D in the Der basis}, read off the orbit echelon
    that ``constrain`` cuts with."""
    return _orbit_echelon(der, integer_form(x)).row_space()


def field_images(columns, x) -> list:
    """One sparse pass over the support of x in field scalars: D(x) as a
    ``{row: scalar}`` dict for each map D given by its sparse columns."""
    support = [(j, c) for j, c in enumerate(x.coords) if c]
    out = []
    for cols in columns:
        img: dict = {}
        for j, c in support:
            for r, a in cols[j].items():
                sparse_add(img, r, c * a)
        out.append(img)
    return out


def normalized_key(x) -> tuple:
    """The same key for every nonzero multiple of x, in field scalars: the
    support of x scaled so that its first coordinate is 1."""
    support = [(j, c) for j, c in enumerate(x.coords) if c]
    inv_lead = inv(support[0][1])
    return tuple((j, inv_lead * c) for j, c in support)


class ReferenceFold:
    """The accumulator of the field-scalar reference fold: the flat map
    space of ``der.algebra``, cut by constraint rows on its d^2 columns
    (``echelon``), with the ``history`` and ``seen`` keys of the probes it
    has taken and ``calls``, the ``reference_constrain`` calls it has had."""

    def __init__(self, der):
        self.der = der
        self.echelon = SparseEchelon(der.algebra.field, der.algebra.dim ** 2)
        self.history: list = []
        self.seen: set = set()
        self.calls = 0

    @property
    def dim(self) -> int:
        return self.der.algebra.dim ** 2 - self.echelon.rank

    @property
    def space(self) -> Subspace:
        return self.echelon.nullspace().row_space()


def reference_constrain(acc: ReferenceFold, probe):
    """``locder.constrain`` computed in field scalars on the flat map
    space, the reference for the integer fold: the field-scalar key
    ``normalized_key``, the images D_k(x) from ``field_images``, the
    annihilator from the unit-pivot orbit echelon's nullspace vectors, the
    constraint rows x_j * p_i at j*d + i, each dotted with every row of
    Der before any is inserted, and the field-scalar ``insert`` into
    ``acc``, cut in place."""
    acc.calls += 1
    # a nonzero multiple of x, which has the same W_x and key
    der, x = acc.der, probe_element(probe)
    support = [(j, xj) for j, xj in enumerate(x.coords) if xj]
    key = normalized_key(x)
    if key in acc.seen:
        return
    d = der.algebra.dim
    orbit = UnitPivotEchelon(d)
    for img in field_images(field_columns(der), x):
        if img:
            orbit.insert(img)
    rows = [
        {j * d + i: xj * pi for j, xj in support for i, pi in p.items()}
        for p in orbit.nullspace_vectors()
    ]
    for row in rows:
        if any(dot_sparse(row, vec) for vec in der.subspace.rows):
            raise AssertionError(f"constraint row at probe {probe.label!r} does not annihilate Der")
    before = acc.dim
    for row in rows:
        insert(acc.echelon, row)
    acc.history.append(ProbeStep(probe.label, before, acc.dim))
    acc.seen.add(key)


def reference_fold(der, probes) -> ReferenceFold:
    """The flat map space of ``der.algebra`` cut by ``reference_constrain``
    with every probe of ``probes`` in turn, families ignored."""
    acc = ReferenceFold(der)
    for probe in probes:
        reference_constrain(acc, probe)
    return acc


def fold(probes) -> CandidateSpace:
    """The candidate space cut out by ``probes`` from the full map space
    of their algebra, in the given order, by the fold that
    ``replay_proof`` runs on its schedule."""
    acc = CandidateSpace(derivation_space(probes[0].algebra))
    locder.fold(acc, probes)
    return acc


def full_schedule(L) -> list:
    """The full replay schedule of L = S_n over Q(i), n read off dim L,
    14n + 8 + 3n(n-1)/2 probes: basis singletons, h+z, h+e,
    h+f, e+u_j, f+v_j, h+u_j, h+v_j, e+f, then per j the half-central
    probes f+-1/2*z+-v_j and e+-1/2*z+-u_j (the z sign that cuts first),
    then per pair p < j the probes u_p+i*u_j, v_p+i*v_j and
    u_p+u_j+v_p+v_j.  ``schrodinger_trimmed_schedule`` is the
    subsequence of it that cuts."""
    n = (L.dim - 4) // 2
    half = FIELD_QI.one / 2
    idx = range(1, n + 1)
    out = singleton_probes(L)
    for terms, label in (({"h": 1, "z": 1}, "h+z"), ({"h": 1, "e": 1}, "h+e"), ({"h": 1, "f": 1}, "h+f")):
        out.append(make_probe(L, terms, label))
    for a, w in (("e", "u"), ("f", "v"), ("h", "u"), ("h", "v")):
        out += [make_probe(L, {a: 1, f"{w}_{j}": 1}, f"{a}+{w}_{j}") for j in idx]
    out.append(make_probe(L, {"e": 1, "f": 1}, "e+f"))
    for j in idx:
        for a, w, z_signs in (("f", "v", (-1, 1)), ("e", "u", (1, -1))):
            for sz in z_signs:
                for sw in (1, -1):
                    label = f"{a}{'+' if sz > 0 else '-'}1/2*z{'+' if sw > 0 else '-'}{w}_{j}"
                    out.append(make_probe(L, {a: 1, "z": sz * half, f"{w}_{j}": sw}, label))
    for p, j in combinations(idx, 2):
        out.append(make_probe(L, {f"u_{p}": 1, f"u_{j}": I}, f"u_{p}+i*u_{j}"))
        out.append(make_probe(L, {f"v_{p}": 1, f"v_{j}": I}, f"v_{p}+i*v_{j}"))
        terms = {f"u_{p}": 1, f"u_{j}": 1, f"v_{p}": 1, f"v_{j}": 1}
        out.append(make_probe(L, terms, f"u_{p}+u_{j}+v_{p}+v_{j}"))
    return out
