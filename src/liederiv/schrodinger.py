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

Every map here is addressed by basis label through ``_label_map``, so the
basis order is written down only in ``make_schrodinger_labels``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Optional

from .exactfield import FIELD_Q, FIELD_QI, I, Field, Frozen, setfield
from .liealg import AlgebraElement, LieAlgebra, ad
from .linalg import Matrix, Subspace, encode_columns, solve_columns
from .linalg import subspace_intersect, subspace_sum
from .dersolve import LeibnizError, derivation_space, flatten_map, inner_space, is_derivation
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


def _label_map(n: int, field: Field, entries: dict) -> Matrix:
    """The map on the basis of S_n with entry c at (row, column) for each
    ``{(row_label, col_label): c}``, zero elsewhere."""
    index = {lab: i for i, lab in enumerate(make_schrodinger_labels(n))}
    rows = [[0] * len(index) for _ in index]
    for (r, c), x in entries.items():
        rows[index[r]][index[c]] = x
    return Matrix(field, rows)


def sigma(n: int, l: int, k: int, field: Field = FIELD_Q) -> Matrix:
    """Outer derivation rotating the (l, k) pair of u/v planes, 1 <= l < k <= n.

    u_l -> u_k, u_k -> -u_l, v_l -> v_k, v_k -> -v_l, zero elsewhere.
    The antisymmetric delta pattern is forced: the same-index variant
    fails the product rule on the pair (u_l, v_k).
    """
    if n < 2:
        raise ValueError("pair rotations need n >= 2")
    if not 1 <= l < k <= n:
        raise ValueError(f"indices must satisfy 1 <= l < k <= n, got ({l}, {k})")
    entries = {}
    for w in "uv":
        entries[(f"{w}_{k}", f"{w}_{l}")] = 1
        entries[(f"{w}_{l}", f"{w}_{k}")] = -1
    return _label_map(n, field, entries)


def tau(n: int, field: Field = FIELD_Q) -> Matrix:
    """Outer derivation complementing the inner grading: z -> z and
    u_k -> u_k/2, v_k -> v_k/2, zero on e, h, f."""
    if n < 1:
        raise ValueError("n must be at least 1")
    entries = {("z", "z"): 1}
    for k in range(1, n + 1):
        for lab in (f"u_{k}", f"v_{k}"):
            entries[(lab, lab)] = Fraction(1, 2)
    return _label_map(n, field, entries)


def sigma_pairs(n: int) -> list:
    return [(l, k) for l in range(1, n + 1) for k in range(l + 1, n + 1)]


def outer_span(n: int, field: Field = FIELD_Q) -> Subspace:
    """Canonical span of the sigma maps in the flattened map space."""
    d = 2 * n + 4
    vecs = [flatten_map(sigma(n, l, k, field)) for (l, k) in sigma_pairs(n)]
    return Subspace.from_vectors(field, d * d, vecs)


class DerDecomposition(Frozen):
    """Coefficients of D = ad(inner_part) + sum mu_lk sigma_lk + lambda tau
    on the n-th Schrodinger algebra.

    inner_part carries no z component (ad_z = 0 makes that coordinate
    unidentifiable); reassembly reproduces the input map exactly.
    """

    __slots__ = __match_args__ = ("algebra", "n", "inner_part", "sigma_coeffs", "tau_coeff")

    def __init__(
        self,
        algebra: LieAlgebra,
        n: int,
        inner_part: AlgebraElement,
        sigma_coeffs: dict,
        tau_coeff: object,
    ):
        setfield(self, "algebra", algebra)
        setfield(self, "n", n)
        setfield(self, "inner_part", inner_part)
        setfield(self, "sigma_coeffs", sigma_coeffs)
        setfield(self, "tau_coeff", tau_coeff)

    def reassemble(self) -> Matrix:
        field = self.algebra.field
        m = ad(self.inner_part)
        for (l, k), c in self.sigma_coeffs.items():
            if c:
                m = m.add(sigma(self.n, l, k, field).scale(c))
        if self.tau_coeff:
            m = m.add(tau(self.n, field).scale(self.tau_coeff))
        return m


def decompose(L: LieAlgebra, D: Matrix, n: Optional[int] = None) -> DerDecomposition:
    """Resolve a derivation of the Schrodinger algebra against the
    ad-basis (z column dropped), the sigma maps, and tau.

    ``n`` is the Schrodinger rank of L when the caller has already
    established it (``schrodinger_rank``, or L built by
    ``make_schrodinger(n)``); otherwise it is computed here.  A map that
    fails the product rule raises ``LeibnizError`` with the failing pair."""
    n = schrodinger_rank(L) if n is None else n
    if n is None:
        raise ValueError("operation requires a generated Schrodinger algebra")
    if L.labels != make_schrodinger_labels(n):
        raise ValueError(f"algebra {L.name!r} does not have the basis of S_{n}")
    verdict = is_derivation(L, D)
    if not verdict.ok:
        raise LeibnizError(verdict.failing_pair)
    d = L.dim
    ad_indices = [i for i in range(d) if L.labels[i] != "z"]
    pairs = sigma_pairs(n)
    maps = [ad(L.basis_element(i)) for i in ad_indices]
    maps += [sigma(n, l, k, L.field) for l, k in pairs] + [tau(n, L.field), D]
    forms, _ = encode_columns(L.field, [dict(enumerate(flatten_map(M))) for M in maps], d * d)
    sol, _ = solve_columns(L.field, forms[:-1], forms[-1])
    if sol is None:
        raise AssertionError("derivation escaped the inner + sigma + tau span")
    # the forms share one scale, so c reads as the coefficients over lam
    sol = L.field.decode(dict(enumerate(sol)), len(sol) - 1)
    coeffs = [sol.get(k, L.field.zero) for k in range(len(forms) - 1)]
    inner_coords = [L.field.zero] * d
    for i, c in zip(ad_indices, coeffs):
        inner_coords[i] = c
    sigma_coeffs = dict(zip(pairs, coeffs[len(ad_indices):]))
    out = DerDecomposition(L, n, L.element(inner_coords), sigma_coeffs, coeffs[-1])
    if out.reassemble() != D:
        raise AssertionError("decomposition failed to reassemble exactly")
    return out


def outer_check(n: int, field: Field = FIELD_Q) -> dict:
    """The report behind Der(S_n) = inner + span(sigma) + span(tau): each
    sigma_lk and tau satisfies the product rule, the sigma span meets the
    inner derivations trivially, tau lies outside their sum, and the three
    together span Der; ``ok`` holds when every check does."""
    L = make_schrodinger(n, field)
    der = derivation_space(L)
    inn = inner_space(L)
    pairs = sigma_pairs(n)
    checks = {
        f"sigma_{l}{k}_leibniz": is_derivation(L, sigma(n, l, k, field)).ok for l, k in pairs
    }
    t = tau(n, field)
    checks["tau_leibniz"] = is_derivation(L, t).ok
    span_sigma = outer_span(n, field)
    checks["sigma_span_meets_inner_trivially"] = subspace_intersect(span_sigma, inn).dim == 0
    inn_sigma = subspace_sum(inn, span_sigma)
    tau_flat = flatten_map(t)
    checks["tau_outside_inner_plus_sigma"] = not inn_sigma.contains(tau_flat)
    tau_span = Subspace.from_vectors(field, L.dim * L.dim, [tau_flat])
    full = subspace_sum(inn_sigma, tau_span)
    checks["inner_plus_sigma_plus_tau_equals_der"] = full == der.subspace
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


class AsosShape(Frozen):
    """Free parameters of the per-basis-element images cut out by the
    singleton constraints on the n-th Schrodinger algebra.

    Each parameter multiplies a single-entry elementary map; their span
    is exactly the basis-singleton candidate space (signs only flip
    basis directions, never the span)."""

    __slots__ = __match_args__ = ("n",)

    def __init__(self, n: int):
        setfield(self, "n", n)

    def parameters(self, field: Field = FIELD_Q) -> list:
        """(name, map) pairs; each map has the single entry c at (row, col)."""
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
        return [(name, _label_map(self.n, field, {(r, c): x})) for name, r, c, x in spec]


class AsosVerdict(Frozen):
    __slots__ = __match_args__ = ("equal", "dim", "expected_dim", "parameter_count", "note")

    def __init__(self, equal: bool, dim: int, expected_dim: int, parameter_count: int, note: str):
        setfield(self, "equal", equal)
        setfield(self, "dim", dim)
        setfield(self, "expected_dim", expected_dim)
        setfield(self, "parameter_count", parameter_count)
        setfield(self, "note", note)


def asos_shape_check(n: int, field: Field = FIELD_Q) -> AsosVerdict:
    """Verify that the named parameter shape spans exactly the
    basis-singleton candidate space (dimension 2n^2 + 8n + 7)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    L = make_schrodinger(n, field)
    singles = basis_probe_space(derivation_space(L))
    params = AsosShape(n).parameters(field)
    span = Subspace.from_vectors(
        field, L.dim * L.dim, [flatten_map(mat) for _, mat in params]
    )
    expected = 2 * n * n + 8 * n + 7
    equal = span == singles.space
    note = (
        "signs in the printed per-parameter images only flip basis directions; "
        "the span comparison is sign-insensitive"
    )
    return AsosVerdict(equal, span.dim, expected, len(params), note)


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
        out.append(Probe(L.from_terms(terms), label, seed, _index_moves(n, images) if seed else ()))
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
