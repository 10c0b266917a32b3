"""The n-th Schrodinger algebra S_n, its replay over Q(i) and the
structure of Der(S_n): everything the package knows about S_n.

``make_schrodinger`` builds S_n from its structure constants and
``schrodinger_rank`` recognizes it.  ``replay_proof`` folds the fixed
probe schedule ``schrodinger_trimmed_schedule``, among them the
imaginary-unit probes that make it run over Q(i), down to dim Der.

Der(S_n) = inner + span(sigma_lk) + span(tau), a direct sum: sigma_lk
rotates the (l, k) pair of u/v planes and tau complements the inner
grading.  This module builds those outer derivations, resolves any
derivation against inner + sigma + tau (``decompose``), reports the
checks behind the direct sum (``outer_check``), and names the free
parameters of the per-basis-element images that the singleton
constraints leave (``AsosShape``).

Every map here is addressed by basis label through ``_label_index``, so
the basis order is written down only in ``make_schrodinger_labels``.  The
maps are written straight as their map-space entries, D[r, j] at
coordinate d*j + r; the checks run on their integer forms, and
``_label_map`` turns the same entries into the Matrix that ``sigma``,
``tau`` and ``AsosShape.parameters`` return.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Optional

from .exactfield import FIELD_Q, FIELD_QI, I, Field, Frozen
from .liealg import LieAlgebra
from .linalg import Matrix, SparseEchelon, combine_forms, encode_columns, solve_columns
from .dersolve import LeibnizError, _product_rule, derivation_space, inner_rows
from .dersolve import is_derivation, row_columns
from .locder import CandidateSpace, Probe, basis_probe_space, fold, singleton_probes


def make_schrodinger_labels(n: int) -> tuple:
    """Basis labels of S_n in basis order: e, h, f, z, u_1..u_n, v_1..v_n."""
    labels = ["e", "h", "f", "z"]
    labels += [f"u_{k}" for k in range(1, n + 1)]
    labels += [f"v_{k}" for k in range(1, n + 1)]
    return tuple(labels)


def make_schrodinger(n: int, field: Field = FIELD_Q) -> LieAlgebra:
    """n-th Schrodinger algebra: sl2 acting on the Heisenberg algebra h_n.

    Basis (e, h, f, z, u_1..u_n, v_1..v_n), dimension 2n + 4, with
    [h,e]=2e, [h,f]=-2f, [e,f]=h, [u_k,v_k]=z, [h,u_k]=u_k, [h,v_k]=-v_k,
    [e,v_k]=u_k, [f,u_k]=v_k and z central.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    E, H, F, Z = 0, 1, 2, 3
    u = lambda k: 3 + k
    v = lambda k: 3 + n + k
    br = {
        (E, H): {E: -2},
        (E, F): {H: 1},
        (H, F): {F: -2},
    }
    for k in range(1, n + 1):
        br[(E, v(k))] = {u(k): 1}
        br[(H, u(k))] = {u(k): 1}
        br[(H, v(k))] = {v(k): -1}
        br[(F, u(k))] = {v(k): 1}
        br[(u(k), v(k))] = {Z: 1}
    return LieAlgebra(f"schrodinger_{n}", field, make_schrodinger_labels(n), br)


def schrodinger_rank(L: LieAlgebra) -> Optional[int]:
    """n when L is structurally the generated n-th Schrodinger algebra, else None."""
    if L.dim < 6 or (L.dim - 4) % 2:
        return None
    n = (L.dim - 4) // 2
    if L.labels != make_schrodinger_labels(n):
        return None
    return n if L == make_schrodinger(n, L.field) else None


def _label_index(n: int) -> dict:
    """The basis index of each label of S_n."""
    return {lab: i for i, lab in enumerate(make_schrodinger_labels(n))}


def _label_map(field: Field, d: int, entries: dict) -> Matrix:
    """The d x d Matrix over ``field`` with the map-space ``entries``,
    D[r, j] at coordinate d*j + r."""
    rows = [[0] * d for _ in range(d)]
    for q, x in entries.items():
        j, r = divmod(q, d)
        rows[r][j] = x
    return Matrix(field, rows)


def _sigma_entries(n: int, l: int, k: int, at: dict) -> dict:
    """The map-space entries of sigma_lk, at the label index ``at`` of S_n."""
    if n < 2:
        raise ValueError("pair rotations need n >= 2")
    if not 1 <= l < k <= n:
        raise ValueError(f"indices must satisfy 1 <= l < k <= n, got ({l}, {k})")
    d, entries = len(at), {}
    for w in "uv":
        wl, wk = at[f"{w}_{l}"], at[f"{w}_{k}"]
        entries[d * wl + wk] = 1
        entries[d * wk + wl] = -1
    return entries


def _tau_entries(n: int, at: dict) -> dict:
    """The map-space entries of tau, at the label index ``at`` of S_n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    d = len(at)
    entries = {(d + 1) * at["z"]: 1}
    for k in range(1, n + 1):
        for lab in (f"u_{k}", f"v_{k}"):
            entries[(d + 1) * at[lab]] = Fraction(1, 2)
    return entries


def sigma(n: int, l: int, k: int, field: Field = FIELD_Q) -> Matrix:
    """Outer derivation rotating the (l, k) pair of u/v planes, 1 <= l < k <= n.

    u_l -> u_k, u_k -> -u_l, v_l -> v_k, v_k -> -v_l, zero elsewhere.
    The antisymmetric delta pattern is forced: the same-index variant
    fails the product rule on the pair (u_l, v_k).
    """
    at = _label_index(n)
    return _label_map(field, len(at), _sigma_entries(n, l, k, at))


def tau(n: int, field: Field = FIELD_Q) -> Matrix:
    """Outer derivation complementing the inner grading: z -> z and
    u_k -> u_k/2, v_k -> v_k/2, zero on e, h, f."""
    at = _label_index(n)
    return _label_map(field, len(at), _tau_entries(n, at))


def sigma_pairs(n: int) -> list:
    return [(l, k) for l in range(1, n + 1) for k in range(l + 1, n + 1)]


def _outer_entries(n: int) -> list:
    """The map-space entries of sigma_lk over ``sigma_pairs``, then of tau."""
    at = _label_index(n)
    maps = [_sigma_entries(n, l, k, at) for l, k in sigma_pairs(n)]
    return maps + [_tau_entries(n, at)]


class DerDecomposition(Frozen):
    """Coefficients of D = ad(inner_part) + sum mu_lk sigma_lk + lambda tau
    on the n-th Schrodinger algebra.

    inner_part carries no z component (ad_z = 0 makes that coordinate
    unidentifiable)."""

    __slots__ = __match_args__ = ("algebra", "n", "inner_part", "sigma_coeffs", "tau_coeff")


def decompose(L: LieAlgebra, D: Matrix, n: Optional[int] = None) -> DerDecomposition:
    """Resolve a derivation of the Schrodinger algebra against the
    ad-basis (z column dropped), the sigma maps, and tau.

    ``n`` is the Schrodinger rank of L when the caller has already
    established it (``schrodinger_rank``, or L built by
    ``make_schrodinger(n)``); otherwise it is computed here.  A map that
    fails the product rule raises ``LeibnizError`` with the failing pair.

    The solve runs on integer forms of the map space: the ad_b at
    ``L.table_scale`` (``inner_rows``), and sigma, tau and D at the one
    scale of their columns; the integer combination is re-checked exactly
    against D before the coefficients are read out."""
    n = schrodinger_rank(L) if n is None else n
    if n is None:
        raise ValueError("operation requires a generated Schrodinger algebra")
    if L.labels != make_schrodinger_labels(n):
        raise ValueError(f"algebra {L.name!r} does not have the basis of S_{n}")
    verdict = is_derivation(L, D)
    if not verdict.ok:
        raise LeibnizError(verdict.failing_pair)
    field, d, w = L.field, L.dim, L.field.width
    ad_indices = [i for i in range(d) if L.labels[i] != "z"]
    inner = inner_rows(L)
    entries = {d * j + r: x for j, col in enumerate(D.sparse_columns()) for r, x in col.items()}
    maps = _outer_entries(n) + [entries]
    rows, scale = encode_columns(field, maps, d * d)
    columns = [inner.get(i, {}) for i in ad_indices] + rows[:-1]
    sol, _ = solve_columns(field, columns, rows[-1])
    if sol is None:
        raise AssertionError("derivation escaped the inner + sigma + tau span")
    turned = [f for col in columns for f in (col, *field.rotations(col))]
    if combine_forms(turned, sol[:-1]) != {r: sol[-1] * v for r, v in rows[-1].items()}:
        raise AssertionError("decomposition failed to reassemble exactly")
    # c_k = (sum_t c_(w*k+t) u_t) * (scale of column k) / (lam * scale of D)
    scales = [L.table_scale] * len(ad_indices) + [scale] * len(maps)
    sol = field.decode({q: c * scales[q // w] for q, c in enumerate(sol) if c}, w * len(columns))
    coeffs = [sol.get(k, field.zero) for k in range(len(columns))]
    inner_coords = [field.zero] * d
    for i, c in zip(ad_indices, coeffs):
        inner_coords[i] = c
    sigma_coeffs = dict(zip(sigma_pairs(n), coeffs[len(ad_indices):]))
    return DerDecomposition(L, n, L.element(inner_coords), sigma_coeffs, coeffs[-1])


def outer_check(n: int, field: Field = FIELD_Q) -> dict:
    """The report behind Der(S_n) = inner + span(sigma) + span(tau): each
    sigma_lk and tau satisfies the product rule, the sigma span meets the
    inner derivations trivially, tau lies outside their sum, and the three
    together span Der; ``ok`` holds when every check does.

    The spans are read off one integer echelon on the map space, fed the
    inner rows (``inner_rows``), then the sigma_lk, then tau: the sigma
    span meets the inner one trivially when the rank grows by one per
    sigma_lk, tau lies outside when it grows once more, and the sum is Der
    when its rank is dim Der and no row of Der grows it further."""
    L = make_schrodinger(n, field)
    der = derivation_space(L)
    d = L.dim
    pairs = sigma_pairs(n)
    acc = SparseEchelon(field, d * d)
    for row in inner_rows(L).values():
        acc.insert_integer(row)
    inner_dim = acc.rank
    rows = encode_columns(field, _outer_entries(n), d * d)[0]
    rules = [_product_rule(L, row_columns(L, row)).ok for row in rows]
    checks = {f"sigma_{l}{k}_leibniz": ok for (l, k), ok in zip(pairs, rules)}
    checks["tau_leibniz"] = rules[-1]
    for row in rows[:-1]:
        acc.insert_integer(row)
    checks["sigma_span_meets_inner_trivially"] = acc.rank == inner_dim + len(pairs)
    checks["tau_outside_inner_plus_sigma"] = acc.insert_integer(rows[-1])
    checks["inner_plus_sigma_plus_tau_equals_der"] = acc.rank == der.dim and not any(
        acc.insert_integer(dict(row)) for row in der.rows
    )
    return {
        "algebra": L.name,
        "n": n,
        "field": field.tag,
        "der_dim": der.dim,
        "inner_dim": inner_dim,
        "sigma_count": len(pairs),
        "checks": checks,
        "ok": all(checks.values()),
    }


class AsosShape(Frozen):
    """Free parameters of the per-basis-element images cut out by the
    singleton constraints on the n-th Schrodinger algebra.

    Each parameter multiplies a single-entry elementary map; their span
    is exactly the basis-singleton candidate space (signs only flip
    basis directions, never the span)."""

    __slots__ = __match_args__ = ("n",)

    def entries(self) -> list:
        """(name, row label, column label, c) per parameter: its map has
        the single entry c at (row, column)."""
        ks = range(1, self.n + 1)
        spec = [("alpha_f(e)", "h", "e", 1), ("alpha_h(e)", "e", "e", 2)]
        spec += [(f"alpha_v_{k}(e)", f"u_{k}", "e", -1) for k in ks]
        spec += [("alpha_e(h)", "e", "h", -2), ("alpha_f(h)", "f", "h", 2)]
        spec += [(f"alpha_u_{k}(h)", f"u_{k}", "h", -1) for k in ks]
        spec += [(f"alpha_v_{k}(h)", f"v_{k}", "h", -1) for k in ks]
        spec += [("alpha_e(f)", "h", "f", 1), ("alpha_h(f)", "f", "f", -2)]
        spec += [(f"alpha_u_{k}(f)", f"v_{k}", "f", -1) for k in ks]
        for j in ks:
            uj = f"u_{j}"
            spec += [(f"alpha_f({uj})", f"v_{j}", uj, 1), (f"alpha_h+lambda/2({uj})", uj, uj, 1)]
            spec.append((f"alpha_v_{j}({uj})", "z", uj, -1))
            spec += [(f"mu_{k}_{j}({uj})", f"u_{k}", uj, -1) for k in range(1, j)]
            spec += [(f"mu_{j}_{l}({uj})", f"u_{l}", uj, 1) for l in range(j + 1, self.n + 1)]
        for j in ks:
            vj = f"v_{j}"
            spec += [(f"lambda/2-alpha_h({vj})", vj, vj, 1), (f"alpha_e({vj})", f"u_{j}", vj, 1)]
            spec.append((f"alpha_u_{j}({vj})", "z", vj, 1))
            spec += [(f"mu_{k}_{j}({vj})", f"v_{k}", vj, -1) for k in range(1, j)]
            spec += [(f"mu_{j}_{l}({vj})", f"v_{l}", vj, 1) for l in range(j + 1, self.n + 1)]
        spec.append(("lambda(z)", "z", "z", 1))
        return spec

    def parameters(self, field: Field = FIELD_Q) -> list:
        """(name, map) pairs; each map has the single entry c at (row, col)."""
        at = _label_index(self.n)
        d = len(at)
        return [
            (name, _label_map(field, d, {d * at[c] + at[r]: x})) for name, r, c, x in self.entries()
        ]


class AsosVerdict(Frozen):
    __slots__ = __match_args__ = ("equal", "dim", "expected_dim", "parameter_count", "note")


def asos_shape_check(n: int, field: Field = FIELD_Q) -> AsosVerdict:
    """Verify that the named parameter shape spans exactly the
    basis-singleton candidate space (dimension 2n^2 + 8n + 7)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    L = make_schrodinger(n, field)
    singles = basis_probe_space(derivation_space(L))
    entries = AsosShape(n).entries()
    d, w = L.dim, field.width
    acc = SparseEchelon(field, d * d)
    for _, r, c, x in entries:
        acc.insert_integer({w * (L.index[c] * d + L.index[r]): x})
    span = acc.row_space()
    expected = 2 * n * n + 8 * n + 7
    equal = span == singles.space
    note = (
        "signs in the printed per-parameter images only flip basis directions; "
        "the span comparison is sign-insensitive"
    )
    return AsosVerdict(equal, span.dim, expected, len(entries), note)


def schrodinger_trimmed_schedule(L: LieAlgebra) -> list[Probe]:
    """The replay schedule for L = S_n over Q(i), n read off dim L,
    12n + 5 + n(n-1)/2 probes in this order: basis singletons,
    h+e, h+f, e+u_j, f+v_j, h+u_j, h+v_j, e+f, then per j the
    half-central probes f-1/2*z+-v_j and e+1/2*z+-u_j, then per pair
    p < j the imaginary-unit probe u_p+i*u_j and, for p = 1 only, v_1+i*v_j
    and the rational coupling probe u_1+u_j+v_1+v_j.  For n = 1 the
    pairwise probes are vacuous (they need two distinct indices).

    Any probe subset gives a sound upper bound on the local derivations,
    so reaching dim Der with these probes is a proof.  What each family
    holds up, as the excess over dim Der of the fold without it
    (measured for n = 2..4):

    - h+e, h+f and e+f: 1 each;
    - h+u_j and h+v_j: n per family;
    - f-1/2*z+v_j, f-1/2*z-v_j, e+1/2*z+u_j and e+1/2*z-u_j: n per
      family, so both signs of v_j (of u_j) are needed, while the other
      sign of z/2 (f+1/2*z+-v_j, e-1/2*z+-u_j) adds nothing;
    - u_p+i*u_j for every pair p < j: one each;
    - the star at index 1, which ties the v-plane rotation coefficients
      to the u-plane ones: v_1+i*v_j one each, u_1+u_j+v_1+v_j (n-1)^2
      together; the pairs p > 1 would add nothing, and neither would h+z;
    - the singletons, e+u_j and f+v_j overlap: the rest of the schedule
      implies each of these three families, but without all three the
      excess is 2n + 3 (also at n = 5 and 8).

    Each probe with an index j > 1 (a pair other than (1, 2)) names the
    probe of its family at j = 1 (at (1, 2)) as its seed, moved onto it by
    the permutation of the indices of u_k and v_k that ``_index_moves``
    spells out, 20 seeds for n >= 2: e, h, f, z, u_1 and v_1, h+e, h+f,
    e+f, the j = 1 probe of each of the eight families over j, and the
    pair probes at (1, 2).
    """
    n = (L.dim - 4) // 2
    if n < 1 or L.labels != make_schrodinger_labels(n):
        raise ValueError(f"algebra {L.name!r} does not have the basis of S_n for any n >= 1")
    if L.field != FIELD_QI:
        raise ValueError("the replay schedule requires the Q(i) algebra")
    half = FIELD_QI.one / 2
    idx = range(1, n + 1)
    out = singleton_probes(L)[:4]
    seeds: dict = {}

    def add(terms: dict, label: str, family=None, images=None) -> None:
        # the first probe of a family is its seed; the others move it along images
        seed = seeds.get(family)
        form = FIELD_QI.encode(dict(sorted((L.index[lab], c) for lab, c in terms.items())))
        out.append(Probe(L, form, label, seed, _index_moves(n, images) if seed else ()))
        if family:
            seeds.setdefault(family, out[-1])

    for w in "uv":
        for j in idx:
            add({f"{w}_{j}": 1}, f"{w}_{j}", w, {1: j})
    add({"h": 1, "e": 1}, "h+e")
    add({"h": 1, "f": 1}, "h+f")
    for a, w in (("e", "u"), ("f", "v"), ("h", "u"), ("h", "v")):
        for j in idx:
            add({a: 1, f"{w}_{j}": 1}, f"{a}+{w}_{j}", (a, w), {1: j})
    add({"e": 1, "f": 1}, "e+f")
    for j in idx:
        for a, w, cz, zsign in (("f", "v", -half, "-"), ("e", "u", half, "+")):
            for cw, wsign in ((1, "+"), (-1, "-")):
                label = f"{a}{zsign}1/2*z{wsign}{w}_{j}"
                add({a: 1, "z": cz, f"{w}_{j}": cw}, label, (a, wsign), {1: j})
    for p, j in combinations(idx, 2):
        add({f"u_{p}": 1, f"u_{j}": I}, f"u_{p}+i*u_{j}", "u+iu", {1: p, 2: j})
        if p == 1:
            add({"v_1": 1, f"v_{j}": I}, f"v_1+i*v_{j}", "v+iv", {2: j})
            terms = {"u_1": 1, f"u_{j}": 1, "v_1": 1, f"v_{j}": 1}
            add(terms, f"u_1+u_{j}+v_1+v_{j}", "star", {2: j})
    return out


def _index_moves(n: int, images: dict) -> tuple:
    """The automorphism of S_n that takes u_k, v_k to u_pi(k), v_pi(k)
    and fixes e, h, f and z, as (index, image) pairs over the basis
    indices it moves: pi(k) = images[k], and the indices that ``images``
    reaches but does not move go in order to those it moves but misses."""
    pi = dict(images)
    pi.update(zip(sorted(set(pi.values()) - set(pi)), sorted(set(pi) - set(pi.values()))))
    return tuple((c + k, c + pi[k]) for c in (3, 3 + n) for k in sorted(pi) if pi[k] != k)


def replay_proof(n: int) -> CandidateSpace:
    """A new candidate space: the full map space of S_n over Q(i), cut by
    ``schrodinger_trimmed_schedule``.

    Der <= local derivations <= candidate holds throughout, so
    ``equal`` (candidate dim == dim Der) machine-checks that every local
    derivation is a derivation for this n.
    """
    L = make_schrodinger(n, FIELD_QI)
    acc = CandidateSpace(derivation_space(L))
    fold(acc, schrodinger_trimmed_schedule(L))
    return acc
