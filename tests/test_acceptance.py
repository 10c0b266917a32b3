"""Acceptance gate: one test per stated criterion, each printing a
PASS/FAIL line (run with ``pytest -v -s tests/test_acceptance.py``).

Criterion 1 pins dim Der(S_n) for n = 1..6.  The algebra has basis
(e, h, f, z, u_1..u_n, v_1..v_n) of size 2n + 4 and one-dimensional
centre span(z), so the inner derivations ad(S_n) span 2n + 3 dimensions;
adding one pair rotation sigma_lk per index pair l < k and the scaling
map tau gives dim Der = (2n+3) + n(n-1)/2 + 1 = 6, 9, 13, 18, 24, 31.
For n = 1, 2, 3 the pinned values are also checked against the rank of
the dense Leibniz system taken by ``conftest.naive_rank``, which shares
no code with the production echelon.
"""

import random
import time
from fractions import Fraction

from liederiv.exactfield import FIELD_Q, FIELD_QI, inv
from liederiv.liealg import (
    check_jacobi,
    load,
    make_abelian,
    make_heisenberg,
    make_sl2,
    save,
)
from liederiv.linalg import Matrix
from liederiv.dersolve import (
    derivation_space,
    inner_space,
    is_derivation,
)
from liederiv.certifier import certify_local_symbolic, witness
from liederiv.locder import (
    CandidateSpace,
    basis_probe_space,
    constrain,
    random_probe_closure,
)
from liederiv.schrodinger import (
    make_schrodinger,
    replay_proof,
    schrodinger_trimmed_schedule,
    sigma,
    sigma_pairs,
    tau,
)
from conftest import (
    back_multiply,
    bracket,
    contains,
    contains_map,
    dense_der_basis,
    dense_rows,
    flatten_map,
    fold,
    full_schedule,
    leibniz_system,
    naive_rank,
    nullspace,
    probe_element,
    rand_gauss,
    rand_scalar,
    rref,
    span,
    subspace_intersect,
    subspace_sum,
    unflatten_map,
)

# dim Der(S_n) = (2n+3) + n(n-1)/2 + 1: inner part, pair rotations, tau
DER_DIMS = {1: 6, 2: 9, 3: 13, 4: 18, 5: 24, 6: 31}
ORACLE_RANGE = (1, 2, 3)
COMPUTED_RANGE = (1, 2, 3, 4, 5, 6)


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} - {detail}")


_der_cache = {}


def der_dim(n):
    if n not in _der_cache:
        _der_cache[n] = derivation_space(make_schrodinger(n)).dim
    return _der_cache[n]


_replay_cache = {}


def replay(n):
    if n not in _replay_cache:
        _replay_cache[n] = replay_proof(n)
    return _replay_cache[n]


def test_criterion_1_derivation_dimensions():
    t0 = time.time()
    computed = {n: der_dim(n) for n in COMPUTED_RANGE}
    elapsed = time.time() - t0
    oracle = {}
    for n in ORACLE_RANGE:
        L = make_schrodinger(n)
        oracle[n] = L.dim * L.dim - naive_rank(leibniz_system(L).entries)
    pinned_small = {n: DER_DIMS[n] for n in ORACLE_RANGE}
    ok = computed == DER_DIMS and oracle == pinned_small and elapsed < 120
    report(
        1,
        ok,
        f"expected {list(DER_DIMS.values())}, computed {list(computed.values())}, "
        f"naive-rank oracle {list(oracle.values())} for n = 1..3, "
        f"{elapsed:.1f}s (budget 120s)",
    )
    assert elapsed < 120
    assert computed == DER_DIMS, (
        f"computed derivation dimensions {computed} differ from "
        f"(2n+3) + n(n-1)/2 + 1 = {DER_DIMS}"
    )
    assert oracle == pinned_small, (
        f"nullities {oracle} of the Leibniz system by naive_rank differ from "
        f"the pinned {pinned_small}"
    )


def test_criterion_2_outer_structure():
    ok = True
    details = []
    for n in (2, 3, 4):
        L = make_schrodinger(n)
        der = derivation_space(L)
        inn = inner_space(L)
        for (l, k) in sigma_pairs(n):
            ok &= is_derivation(L, sigma(n, l, k)).ok
        ok &= is_derivation(L, tau(n)).ok
        span_sigma = span(L.field, L.dim * L.dim, [flatten_map(sigma(n, *p)) for p in sigma_pairs(n)])
        ok &= subspace_intersect(span_sigma, inn).dim == 0
        inn_sigma = subspace_sum(inn, span_sigma)
        tau_flat = flatten_map(tau(n))
        ok &= not contains(inn_sigma, tau_flat)
        tau_span = span(L.field, L.dim * L.dim, [tau_flat])
        ok &= subspace_sum(inn_sigma, tau_span) == der.subspace
        details.append(f"n={n} der={der.dim}")
    report(2, ok, "sigma/tau product rule + exact decomposition; " + ", ".join(details))
    assert ok


def test_criterion_3_basis_only_insufficiency():
    expected = {1: 17, 2: 31, 3: 49, 4: 71}
    ok = True
    computed = {}
    for n in (1, 2, 3, 4):
        L = make_schrodinger(n)
        acc = basis_probe_space(derivation_space(L))
        computed[n] = acc.dim
        ok &= acc.dim == expected[n] == 2 * n * n + 8 * n + 7
        ok &= acc.dim > der_dim(n)
    report(3, ok, f"singleton space dims {computed} (formula 2n^2+8n+7), all exceed dim Der")
    assert ok
    assert computed == expected


def test_criterion_4_theorem_replay():
    t0 = time.time()
    ok = True
    details = []
    for n in (1, 2, 3, 4, 5):
        result = replay(n)
        consistent = result.dim == result.der.dim == der_dim(n)
        ok &= result.equal and consistent
        details.append(f"n={n}:{result.dim}={result.der.dim}")
    elapsed = time.time() - t0
    ok &= elapsed < 300
    report(
        4,
        ok,
        f"replay over Q(i) equal at {', '.join(details)}; {elapsed:.1f}s (budget 300s)",
    )
    assert elapsed < 300
    assert ok


def test_criterion_5_random_route_agreement():
    ok = True
    details = []
    for n in (1, 2, 3):
        der = derivation_space(make_schrodinger(n))
        target = replay(n).dim
        for seed in (0x5EED, 0xBEEF, 20260810):
            out = random_probe_closure(der, seed=seed)
            ok &= out.dim == target
            details.append(f"n={n}/seed={seed:#x}:{out.dim}")
    report(5, ok, "stabilized dims " + ", ".join(details))
    assert ok


def test_criterion_6_pure_local_contrast():
    H = make_heisenberg(1)
    der = derivation_space(H)
    ok = der.dim == 6
    rows = [[Fraction(0)] * 3 for _ in range(3)]
    rows[H.index["z"]][H.index["z"]] = Fraction(1)
    delta = Matrix(FIELD_Q, rows)
    verdict = is_derivation(H, delta)
    ok &= (not verdict.ok) and verdict.failing_pair == ("u_1", "v_1")
    cert = certify_local_symbolic(der, delta)
    ok &= cert.certified
    closure = random_probe_closure(der, max_probes=400, stall_limit=150)
    ok &= closure.dim == 7 > der.dim
    report(
        6,
        ok,
        f"dim Der = {der.dim}, product rule fails at {verdict.failing_pair}, "
        f"certified local = {cert.certified}, closure dim = {closure.dim}",
    )
    assert ok


def test_criterion_7a_field_axioms():
    rng = random.Random(0xF1E1D)
    count = 0
    for _ in range(120):
        a, b, c = (rand_gauss(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        if a:
            assert a * inv(a) == FIELD_QI.one
        count += 1
    report("7a", True, f"field axioms on {count} random triples")


def test_criterion_7b_grassmann_identity():
    rng = random.Random(0x67A55)
    count = 0
    for _ in range(110):
        ambient = rng.randint(2, 6)
        mk = lambda: span(
            FIELD_Q,
            ambient,
            [[rand_scalar(rng) for _ in range(ambient)] for _ in range(rng.randint(0, 3))],
        )
        a, b = mk(), mk()
        assert subspace_sum(a, b).dim + subspace_intersect(a, b).dim == a.dim + b.dim
        count += 1
    report("7b", True, f"Grassmann dimension identity on {count} random pairs")


def test_criterion_7c_nullspace_back_multiplication():
    rng = random.Random(0x8ACE)
    checked = 0
    for _ in range(100):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
        m = Matrix(
            FIELD_Q,
            [[rand_scalar(rng) for _ in range(ncols)] for _ in range(nrows)],
        )
        s = nullspace(m)
        assert s.dim == ncols - rref(m)[1]
        for vec in dense_rows(s):
            assert not any(back_multiply(m.entries, vec))
        checked += 1
    report("7c", True, f"nullspace verified by back-multiplication on {checked} matrices")


def test_criterion_7d_jacobi_and_antisymmetry():
    rng = random.Random(0x1ACB)
    cases = 0
    algebras = [make_schrodinger(n) for n in (1, 2, 3)] + [
        make_heisenberg(2),
        make_sl2(),
        make_abelian(4),
    ]
    for L in algebras:
        assert check_jacobi(L).ok
    for _ in range(120):
        L = algebras[rng.randrange(len(algebras))]
        x = L.element([rand_scalar(rng) for _ in range(L.dim)])
        y = L.element([rand_scalar(rng) for _ in range(L.dim)])
        z = L.element([rand_scalar(rng) for _ in range(L.dim)])
        assert bracket(x, y).coords == (-bracket(y, x)).coords
        jac = bracket(bracket(x, y), z) + bracket(bracket(y, z), x) + bracket(bracket(z, x), y)
        assert jac.is_zero()
        cases += 1
    report("7d", True, f"Jacobi + antisymmetry on {cases} random element triples")


def test_criterion_7e_containment_chain_during_folding():
    L = make_schrodinger(2, FIELD_QI)
    der = derivation_space(L)
    basis = dense_der_basis(der)
    acc = CandidateSpace(der)
    dims = [acc.dim]
    for probe in full_schedule(L):
        constrain(acc, probe)
        dims.append(acc.dim)
        for D in basis:
            assert contains_map(acc, D)
    assert dims == sorted(dims, reverse=True)
    report("7e", True, f"Der contained at all {len(dims) - 1} fold stages, dims non-increasing")


def test_criterion_7f_probe_order_independence():
    base = replay(2)
    rng = random.Random(0x0D9E52)
    for schedule in (full_schedule, schrodinger_trimmed_schedule):
        probes = schedule(base.der.algebra)
        for _ in range(5):
            shuffled = probes[:]
            rng.shuffle(shuffled)
            out = fold(shuffled)
            assert out.space == base.space
    report(
        "7f",
        True,
        "final space identical under 5 random permutations of the full and the trimmed schedule",
    )


def test_criterion_7g_witness_reconstruction():
    result = replay(2)
    der = result.der
    L = der.algebra
    maps = [
        unflatten_map(L.field, vec, L.dim) for vec in dense_rows(result.space)
    ]
    count = 0
    for probe in full_schedule(L):
        for D in maps:
            assert witness(der, D, probe_element(probe)) is not None
            count += 1
    report("7g", True, f"{count} witnesses reconstructed across all probes and basis maps")


def test_criterion_8_serialization_round_trips(tmp_path):
    builds = [lambda n=n: make_schrodinger(n) for n in range(1, 7)]
    builds += [lambda n=n: make_heisenberg(n) for n in range(1, 5)]
    builds += [make_sl2, lambda: make_schrodinger(2, FIELD_QI)]
    count = 0
    for build in builds:
        L = build()
        path = tmp_path / f"{L.name}_{L.field}.json"
        save(L, str(path))
        assert load(str(path)) == L
        count += 1
    report(8, True, f"{count} structure-constant files round-tripped exactly")
