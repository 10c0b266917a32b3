"""The n-th Schrodinger algebra S_n and its replay over Q(i).

``make_schrodinger`` builds S_n from its structure constants and
``schrodinger_rank`` recognizes it.  ``replay_proof`` folds the fixed
probe schedule ``schrodinger_trimmed_schedule``, among them the
imaginary-unit probes that make it run over Q(i), down to dim Der.

The structure of Der(S_n) (sigma, tau, ``decompose``, ``outer_check``
and ``AsosShape``) is in ``schrodinger_der``, the module on top of
this one.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from .exactfield import FIELD_Q, FIELD_QI, I, Field
from .liealg import LieAlgebra
from .dersolve import derivation_space
from .locder import CandidateSpace, Probe, fold, singleton_probes


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
