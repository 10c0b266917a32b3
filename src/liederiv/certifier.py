"""The symbolic locality certifier.

``certify_local_symbolic`` settles the universal quantification
"Delta(x) in W_x for every x" for a single map Delta on a small
structure-constant algebra, stratum by stratum over polynomial minors
(``poly``); ``witness`` solves one point.  A point x is one integer
system [u_t D_k(x) | Delta(x)], its rows summed in one pass over x and
solved by ``linalg.solve_rows`` (``_solve_point``); only ``witness``
turns the solution into field scalars.  A line {y*b} is settled at b
alone (``_certify_line``), with no minor; it still makes the seeded draws
that the general path would make there, so the other strata sample the
same points either way.  Only the ``certify`` and
``demo-heisenberg`` commands run it, so ``import liederiv.cli`` loads
neither this module nor ``poly``.
"""

from __future__ import annotations

import random
from functools import cache
from itertools import chain, combinations, islice
from math import comb
from typing import Optional

from .exactfield import FIELD_Q, Frozen, integer_key, inv
from .liealg import AlgebraElement
from .linalg import MapIndex, Matrix, SparseEchelon, combine_forms, encode_columns, solve_rows
from .dersolve import DerivationSpace, _product_rule, encode_map
from .locder import CertificationError, _sparse_draw, probe_label
from .poly import MultiPoly, poly_det, split_linear


def witness(der: DerivationSpace, delta: Matrix, x: AlgebraElement) -> Optional[tuple]:
    """Coefficients c over the Der basis with sum c_k D_k(x) = Delta(x);
    None when the probe refutes locality of Delta.  Delta must be a map
    on ``der.algebra`` over its field, and x an element of it.  The
    verified integer solution of ``_solve_point`` is divided back by lam
    and the maps' scales into field scalars here, and only here."""
    L = der.algebra
    delta_map = encode_map(L, delta)
    if x.algebra != L:
        raise ValueError("point belongs to a different algebra")
    delta_index = MapIndex(L.field, [delta_map])
    coeffs = _solve_point(der, delta_index, L.field.encode(dict(enumerate(x.coords))))[0]
    if coeffs is None:
        return None
    # c_k = (sum_t c_(w*k+t) u_t) * (scale of D_k) / (lam * scale of Delta)
    w, scales = L.field.width, der.image_index.scales + delta_index.scales
    sol = L.field.decode({q: c * scales[q // w] for q, c in enumerate(coeffs) if c}, w * der.dim)
    return tuple(sol.get(k, L.field.zero) for k in range(der.dim))


def _solve_point(der: DerivationSpace, delta: MapIndex, parts: dict) -> tuple:
    """(c, rank) at the point x with integer form ``parts``, for the map
    Delta indexed by ``delta``: c is the ``solve_rows`` solution of
    lam * Delta(x) = sum c_(w*k+t) u_t D_k(x) in ``int``, None when there is
    none, and rank that of the Der block [D_1(x) | .. | D_m(x)].  One pass
    over ``parts`` sums the integer rows of [u_t D_k(x) | Delta(x)] by output
    row, off Der's ``turned_index`` and Delta's index at column w*m.  The
    echelon reduces copies of their nonzero entries, and c is re-checked in
    ``int`` on the rows as built: every row dotted with (c, -lam) must vanish."""
    w = der.algebra.field.width
    n = w * der.dim
    sums: dict = {}
    for index, base in ((der.turned_index, 0), (delta.index, n)):
        for q, xq in parts.items():
            for k, col in index.get(q, ()):
                c = base + k
                for r, a in col.items():
                    row = sums.setdefault(r, {})
                    row[c] = row.get(c, 0) + xq * a
    rows = (row for row in ({c: v for c, v in s.items() if v} for s in sums.values()) if row)
    coeffs, rank = solve_rows(rows, n, w)
    if coeffs is not None:
        check = coeffs[:-1] + [-coeffs[-1]]
        if any(sum(check[c] * v for c, v in row.items()) for row in sums.values()):
            raise AssertionError("witness solve failed to verify")
    return coeffs, rank


_DIM_BOUND = 9
_MINOR_BUDGET = 20000


class LocalityCertificate(Frozen):
    """The verdict of ``certify_local_symbolic``: whether Delta is local,
    the element refuting it (None when certified) and one line of text
    per stratum settled or refuted."""

    __slots__ = __match_args__ = ("certified", "refutation", "strata")

    def __bool__(self):
        return self.certified


def certify_local_symbolic(der: DerivationSpace, delta: Matrix) -> LocalityCertificate:
    """Decide whether Delta(x) in W_x holds for every x of ``der.algebra``,
    symbolically; Delta must be a map on that algebra over its field.

    The certificate stacks M(x) = [D_1(x) | .. | D_m(x) | Delta(x)] with
    linear-polynomial entries and works stratum by stratum, a stratum
    being the span of a tuple of algebra elements (the basis at the top)
    with its block of linear forms (``_stratum_block``).  The generic rank
    r of the Der block is established by exact evaluation (a nonsingular
    r x r submatrix at a rational point exhibits a nonzero r-minor
    polynomial); all (r+1)-minors using the Delta column are expanded
    exactly and must vanish identically, which by cofactor expansion
    forces every larger Delta-minor to vanish as well and so covers all
    points where the Der block keeps rank at least r.  The rank-drop locus
    lies inside the zero set of the exhibited nonzero r-minor; when that
    minor is a product of linear forms the procedure recurses onto each
    hyperplane, otherwise it gives up explicitly.  A line {y*b} needs none
    of this: D_k(y*b) = y*D_k(b) and Delta(y*b) = y*Delta(b), so the
    witness solve at b settles it, and it expands no minor (so no minor
    budget applies to it).  It still draws the sample points and the
    rank-drop points of the general path from the seeded stream, so every
    later stratum samples the points it would sample had the line taken
    that path.  Refutations are always confirmed by an exact
    witness-absence check at a concrete point.
    """
    L = der.algebra
    # Delta's columns are encoded once, for the product rule and the index
    delta_map = encode_map(L, delta)
    d = L.dim
    if d > _DIM_BOUND:
        raise CertificationError(f"algebra dimension {d} exceeds the certifier bound {_DIM_BOUND}")
    # Der is every derivation, so the product rule decides membership
    if _product_rule(L, delta_map[0]).ok:
        return LocalityCertificate(True, None, ("member of Der",))
    delta_index = MapIndex(L.field, [delta_map])
    # the Der-block rank by integer key: one solve per point up to a scalar
    memo: dict = {}
    # cheap concrete refutations first: basis vectors and short combinations
    for pt in _scan_points(d):
        parts = {L.field.width * j: c for j, c in pt.items()}
        if _point_rank(der, delta_index, parts, memo) is None:
            x = L.element([pt.get(i, 0) for i in range(d)])
            return LocalityCertificate(False, x, (f"refuted at {probe_label(L.labels, pt)}",))
    strata: list[str] = []
    rng = random.Random(0xCE27)
    top = tuple(L.basis_element(i) for i in range(d))
    refut = _certify_on(der, delta_index, top, strata, rng, memo)
    return LocalityCertificate(refut is None, refut, tuple(strata))


def _point_rank(der: DerivationSpace, delta: MapIndex, parts: dict, memo: dict) -> Optional[int]:
    """The rank of the Der block [D_1(x) | .. | D_m(x)] when Delta(x) lies
    in W_x, else None, given the integer form ``parts`` of x != 0.  ``memo``
    maps the ``integer_key`` of each point with a verified witness to that
    rank, so a multiple cx, with D_k(cx) = c D_k(x), is not solved again."""
    key = integer_key(der.algebra.field, parts)
    rank = memo.get(key)
    if rank is None:
        coeffs, rank = _solve_point(der, delta, parts)
        if coeffs is None:
            return None
        memo[key] = rank
    return rank


@cache
def _scan_points(d: int) -> tuple:
    """Deterministic refutation candidates as integer coordinates
    {index: int}: basis vectors, signed pairs, then seeded sparse draws with
    small coefficients (``_sparse_draw``; informative points need
    coefficient coincidences, so small ranges hit them).  They depend on d
    alone, so they are drawn once per d; callers only read them."""
    points = [{i: 1} for i in range(d)]
    for i, j in combinations(range(d), 2):
        points += [{i: 1, j: 1}, {i: 1, j: -1}]
    rng = random.Random(0x5CA9)
    points += [_sparse_draw(d, rng, ordered=False) for _ in range(400)]
    return tuple(points)


def _certify_on(der, delta: MapIndex, basis: tuple, strata, rng, memo: dict, depth=0):
    """Certify membership on the stratum {x = sum_t y_t b_t} spanned by the
    tuple ``basis`` of algebra elements b_t; returns the refuting element,
    or None.  Sample points (``combine_forms``) and the linear forms of the
    minors both come from the integer forms of the b_t; every point is
    solved through ``memo`` (``_point_rank``)."""
    L, d, m, dim_u = der.algebra, der.algebra.dim, der.dim, len(basis)
    indent = "  " * depth
    if dim_u == 0:
        strata.append(f"{indent}point stratum: trivial")
        return None
    forms, scale = encode_columns(L.field, [dict(enumerate(b.coords)) for b in basis], d)
    samples = [[1] * dim_u] + [_sample_point(rng, dim_u) for _ in range(12)]
    if dim_u == 1:
        # settled at b, samples[0]; the other samples are drawn all the same
        return _certify_line(der, delta, basis[0], forms[0], strata, rng, memo, indent)
    best_rank, best_point = -1, None
    for pt in samples:
        parts = combine_forms(forms, pt)
        if not parts:
            continue
        # the witness solve at pt also gives the rank of the Der block there
        rank = _point_rank(der, delta, parts, memo)
        if rank is None:
            x = _combination(basis, pt)
            strata.append(f"{indent}refuted at sampled point {_label(x)}")
            return x
        if rank > best_rank:
            best_rank, best_point = rank, pt
    *a_sub, b_sub = _stratum_block(der, delta, forms, scale)
    r = max(best_rank, 0)
    while r < d:
        count = comb(d, r + 1) * comb(m, r)
        if count > _MINOR_BUDGET:
            raise CertificationError(
                f"minor budget exceeded at stratum depth {depth} ({count} minors)"
            )
        minors = (
            poly_det([[a_sub[k][i] for k in cols] + [b_sub[i]] for i in rows])
            for rows in combinations(range(d), r + 1)
            for cols in combinations(range(m), r)
        )
        bad = next((det for det in minors if not det.is_zero()), None)
        if bad is None:
            break
        pt = _point_where_nonzero(bad, rng)
        parts = combine_forms(forms, pt)
        if parts and _point_rank(der, delta, parts, memo) is None:
            x = _combination(basis, pt)
            strata.append(f"{indent}refuted via nonzero bordered minor at {_label(x)}")
            return x
        # membership holds at pt although a bordered (r+1)-minor is nonzero
        # there, so the Der block itself must exceed rank r at pt
        r += 1
        best_point = pt
    strata.append(f"{indent}stratum dim {dim_u}: certified for block rank >= {r}")
    if r == 0:
        # Der block and (by the size-1 minors just checked) the Delta
        # column vanish identically on this stratum
        return None
    for ell in _rank_drop_cuts(der, forms, a_sub, r, best_point, rng):
        refut = _certify_on(
            der, delta, _hyperplane_basis(basis, ell), strata, rng, memo, depth + 1
        )
        if refut is not None:
            return refut
    return None


def _certify_line(der, delta: MapIndex, b, form: dict, strata, rng, memo: dict, indent: str):
    """Certify membership on the line {y*b}, b with the integer form
    ``form``: D_k(y*b) = y*D_k(b) and Delta(y*b) = y*Delta(b), so it holds
    on the whole line exactly when it holds at b, and y = 0 is the trivial
    point stratum.  No minor is expanded.  The strata and the refuting
    element are those of the general path, whose first sample is b."""
    rank = _point_rank(der, delta, form, memo)
    if rank is None:
        strata.append(f"{indent}refuted at sampled point {_label(b)}")
        return b
    strata.append(f"{indent}stratum dim 1: certified for block rank >= {rank}")
    if rank:
        # the eight points that ``_rank_drop_cuts`` would draw here: drawn
        # and dropped, so later strata sample the points of the general path
        for _ in range(8):
            _sample_point(rng, 1)
        strata.append(f"{indent}  point stratum: trivial")
    return None


def _sample_point(rng, dim_u):
    return [rng.randint(-9, 9) for _ in range(dim_u)]


def _combination(basis: tuple, point) -> AlgebraElement:
    """x = sum_t y_t b_t as an element, for a refuting point."""
    terms = [b.scale(y) for b, y in zip(basis, point)]
    return sum(terms[1:], terms[0])


def _label(x: AlgebraElement) -> str:
    """The report label of the element x (``probe_label``)."""
    return probe_label(x.algebra.labels, dict(enumerate(x.coords)))


def _stratum_block(der: DerivationSpace, delta: MapIndex, forms: list, scale: int) -> list:
    """The linear forms of M(x) = [D_1(x) | .. | D_m(x) | Delta(x)] on the
    stratum x = sum_t y_t b_t, the b_t given by their integer ``forms`` at
    ``scale``: entry [k][i] is sum_t D_k(b_t)[i] y_t (k = m for Delta)."""
    field, d, m, dim_u = der.algebra.field, der.algebra.dim, der.dim, len(forms)
    w = field.width
    units = [tuple(int(s == t) for s in range(dim_u)) for t in range(dim_u)]
    block = [[{} for _ in range(d)] for _ in range(m + 1)]
    scales = der.image_index.scales + delta.scales
    for t, parts in enumerate(forms):
        images = der.images(parts)
        images[m] = delta.images(parts).get(0, {})
        for k, img in images.items():
            for i, v in field.decode({**img, w * d: scale * scales[k]}, w * d).items():
                if i < d:
                    block[k][i][units[t]] = v
    return [[MultiPoly(dim_u, terms) for terms in row] for row in block]


def _point_where_nonzero(p: MultiPoly, rng):
    for _ in range(2000):
        pt = _sample_point(rng, p.nvars)
        if p.evaluate(pt):
            return pt
    raise CertificationError("failed to hit a nonzero point of a nonzero polynomial")


def _minor_profile(der, parts: dict, r: int):
    """Row and column subsets of the image matrix [D_1(x) | .. | D_m(x)]
    whose r x r submatrix is nonsingular, or None below rank r: the first r
    columns independent of those before them (the RREF pivot columns), and
    as rows the pivots of their echelon, the first r independent rows."""
    acc = SparseEchelon(der.algebra.field, der.algebra.dim)
    cols = [k for k, img in der.images(parts).items() if acc.rank < r and acc.insert_integer(img)]
    if len(cols) < r:
        return None
    return tuple(min(row) // acc.field.width for row in acc.rref_forms()), tuple(cols)


def _rank_drop_cuts(der, forms: list, a_sub, r, point, rng) -> list:
    """The linear forms whose product is a nonzero r x r minor of the Der
    block: the rank-drop locus sits inside the zero set of any nonzero
    r-minor, so these hyperplanes cover it.  Minors come first from the
    profiles at ``point`` and at eight sample points, then from the first
    400 row and column subsets."""
    L = der.algebra
    points = [point] if point is not None else []
    points += [_sample_point(rng, len(forms)) for _ in range(8)]
    profiles = (_minor_profile(der, combine_forms(forms, pt), r) for pt in points)
    subsets = (
        (rows, cols)
        for rows in combinations(range(L.dim), r)
        for cols in combinations(range(der.dim), r)
    )
    tried = set()
    nonzero = False
    for key in chain(filter(None, profiles), islice(subsets, 400)):
        if key in tried:
            continue
        tried.add(key)
        rows, cols = key
        det = poly_det([[a_sub[k][i] for k in cols] for i in rows])
        if det.is_zero():
            continue
        nonzero = True
        cuts = split_linear(det, rational_points_only=(L.field is FIELD_Q))
        if cuts is not None:
            return cuts
    if not nonzero:
        raise CertificationError("no nonzero rank minor found despite positive block rank")
    raise CertificationError("rank-drop locus is not covered by hyperplanes of a splitting minor")


def _hyperplane_basis(basis: tuple, ell: MultiPoly) -> tuple:
    """Basis of the hyperplane ell(y) = 0 of the stratum x = sum_t y_t b_t:
    b_t - (c_t / c_p) b_p for t != p, where c_t is the coefficient of y_t
    in the linear form ell and c_p its first nonzero one."""
    coeffs = [0] * len(basis)
    for e, c in ell.terms.items():
        coeffs[e.index(1)] = c
    p = next(t for t, c in enumerate(coeffs) if c)
    inv_p = inv(coeffs[p])
    return tuple(
        b - basis[p].scale(c * inv_p) for t, (b, c) in enumerate(zip(basis, coeffs)) if t != p
    )
