import hashlib
import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liederiv.exactfield import FIELD_Q, FIELD_QI, GaussianRational, format_scalar
from liederiv.cli import main
from liederiv.liealg import (
    from_json,
    make_abelian,
    make_heisenberg,
    make_sl2,
    to_json,
)
from liederiv.linalg import Matrix, SparseEchelon, Subspace, encode_columns
from liederiv import dersolve, liealg, locder, schrodinger, schrodinger_der
from liederiv.dersolve import (
    derivation_space,
    inner_space,
    is_derivation,
    leibniz_rows,
    row_columns,
    _product_rule,
)
from liederiv.schrodinger import make_schrodinger
from liederiv.schrodinger_der import (
    decompose,
    outer_check,
    sigma,
    sigma_pairs,
    tau,
)
from conftest import (
    ad,
    all_pairs_product_rule,
    at_scale,
    bracket,
    col,
    combination,
    combine,
    complex_sl2,
    contains,
    contains_subspace,
    dense_outer_report,
    dense_inner_space,
    dense_der_basis,
    dense_is_derivation,
    field_columns,
    field_der_subspace,
    field_leibniz_rows,
    flatten_map,
    from_terms,
    is_zero,
    leibniz_system,
    matmul,
    matvec,
    nullspace,
    rand_scalar,
    random_matrix_algebras,
    reassemble,
    rref,
    span,
    subspace_intersect,
    subspace_sum,
    unflatten_map,
    zeros,
)


def expected_der_dim(n):
    # inner part (dim - 1) + one pair rotation per index pair + the
    # half-scaling map
    return (2 * n + 3) + n * (n - 1) // 2 + 1


def rand_element(rng, L):
    return L.element([rand_scalar(rng, L.field) for _ in range(L.dim)])


def test_leibniz_system_abelian_is_zero():
    # every bracket is zero, so every product-rule equation is 0 = 0 and
    # none is yielded; Der is the whole map space
    L = make_abelian(3)
    assert list(leibniz_rows(L)) == []
    assert derivation_space(L).dim == 9


def test_leibniz_nullspace_against_dense_oracle():
    # independent dense route: rref of the assembled system
    for build, expect in (
        (lambda: make_schrodinger(1), 6),
        (lambda: make_schrodinger(2), 9),
        (lambda: make_schrodinger(3), 13),
        (lambda: make_sl2(), 3),
        (lambda: make_heisenberg(1), 6),
    ):
        L = build()
        m = leibniz_system(L)
        dense_dim = m.ncols - rref(m)[1]
        space = derivation_space(L)
        assert dense_dim == space.dim == expect
        assert nullspace(m) == space.subspace


def test_derivation_dimensions_match_decomposition_formula():
    for n in (1, 2, 3, 4):
        assert derivation_space(make_schrodinger(n)).dim == expected_der_dim(n)


def test_derivation_space_over_gaussian_field_matches():
    for n in (1, 2):
        assert derivation_space(make_schrodinger(n, FIELD_QI)).dim == expected_der_dim(n)


def test_heisenberg_derivation_dimension():
    assert derivation_space(make_heisenberg(1)).dim == 6


def test_every_basis_map_satisfies_product_rule():
    # the dense oracle comes from der.subspace alone: the scatter of each
    # row of der.rows (``row_columns``) must be the integer forms of the
    # same map's columns entry for entry, at the scale of the row's pivot
    # entry, each column in row order with no stored zeros, and it holds
    # no empty column
    for build in (
        lambda: make_schrodinger(2),
        lambda: make_schrodinger(2, FIELD_QI),
        lambda: make_heisenberg(2),
    ):
        L = build()
        der = derivation_space(L)
        basis = dense_der_basis(der)
        assert len(der.rows) == len(basis) == der.dim
        for row, D in zip(der.rows, basis):
            assert is_derivation(L, D).ok
            cols = row_columns(L, row)
            assert all(cols.values()) and set(cols) <= set(range(L.dim))
            for j in range(L.dim):
                c = cols.get(j, {})
                assert all(c.values()) and list(c) == sorted(c)
                assert c == at_scale(L.field, dict(enumerate(col(D, j))), row[min(row)])


def test_derivation_space_builds_no_dense_matrix(monkeypatch):
    L = make_schrodinger(2, FIELD_QI)
    calls = []
    init = Matrix.__init__
    monkeypatch.setattr(
        Matrix, "__init__", lambda self, *a, **k: calls.append(1) or init(self, *a, **k)
    )
    der = derivation_space(L)
    assert der.dim == expected_der_dim(2)
    assert calls == []


def test_ad_is_derivation_randomized():
    rng = random.Random(71)
    L = make_schrodinger(2)
    for _ in range(40):
        assert is_derivation(L, ad(rand_element(rng, L))).ok


def test_inner_space_dimension_and_containment():
    for n in (1, 2, 3):
        L = make_schrodinger(n)
        inn = inner_space(L)
        assert inn.dim == L.dim - 1
        der = derivation_space(L)
        assert contains_subspace(der.subspace, inn)
    assert inner_space(make_abelian(4)).dim == 0


@pytest.mark.parametrize("field", (FIELD_Q, FIELD_QI), ids=("Q", "Qi"))
def test_inner_space_matches_the_dense_ad_span(field):
    # the integer rows from ad_images give the same canonical subspace,
    # row for row, as the dense ad matrices did
    algebras = [make_schrodinger(n, field) for n in range(1, 9)]
    algebras += [make_heisenberg(2, field), make_sl2(field), complex_sl2()]
    for L in algebras:
        assert inner_space(L).rows == dense_inner_space(L).rows


def test_is_derivation_examples():
    L = make_schrodinger(2)
    assert is_derivation(L, tau(2)).ok
    zero_map = zeros(FIELD_Q, L.dim, L.dim)
    assert is_derivation(L, zero_map).ok
    H = make_heisenberg(1)
    rows = [[0] * 3 for _ in range(3)]
    rows[H.index["z"]][H.index["z"]] = 1
    verdict = is_derivation(H, Matrix(FIELD_Q, rows))
    assert not verdict.ok and verdict.failing_pair == ("u_1", "v_1")


def test_sparse_product_rule_agrees_with_dense_oracle_on_perturbed_maps():
    rng = random.Random(4242)
    algebras = [make_schrodinger(n, f) for n in (1, 2, 3) for f in (FIELD_Q, FIELD_QI)]
    algebras.append(make_heisenberg(2))
    for L in algebras:
        fired = 0
        for D in dense_der_basis(derivation_space(L)):
            assert (True, None) == dense_is_derivation(L, D)
            rows = [list(r) for r in D.entries]
            r, c = rng.randrange(L.dim), rng.randrange(L.dim)
            delta = Fraction(0)
            while not delta:
                delta = rand_scalar(rng, L.field)
            rows[r][c] = rows[r][c] + delta
            perturbed = Matrix(L.field, rows)
            verdict = is_derivation(L, perturbed)
            assert (verdict.ok, verdict.failing_pair) == dense_is_derivation(L, perturbed)
            fired += not verdict.ok
        assert fired, f"no perturbation of a Der({L.name}) basis map was caught"


_RANDOM_ALGEBRAS = random_matrix_algebras()

_RULE_DERS = [
    derivation_space(L)
    for L in (
        make_schrodinger(2), make_schrodinger(2, FIELD_QI), make_heisenberg(2), make_sl2(),
        complex_sl2(), *_RANDOM_ALGEBRAS,
    )
]


@st.composite
def _maps_off_der(draw):
    """(algebra, sparse columns): a Der basis map with one entry moved,
    often in a column that was zero, and sometimes left alone."""
    der = draw(st.sampled_from(_RULE_DERS))
    L = der.algebra
    cols = [dict(c) for c in field_columns(der)[draw(st.integers(0, der.dim - 1))]]
    r, c = draw(st.integers(0, L.dim - 1)), draw(st.integers(0, L.dim - 1))
    re, im = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
    delta = L.field.coerce(re) if L.field == FIELD_Q else GaussianRational(re, im)
    new = cols[c].get(r, 0) + delta
    cols[c].pop(r, None)
    if new:
        cols[c][r] = new
    return L, tuple(cols)


@settings(max_examples=300, deadline=None)
@given(_maps_off_der())
def test_product_rule_on_fewer_pairs_agrees_with_all_pairs(case):
    # the pairs it skips sum to zero term by term, so the verdict and the
    # first failing pair are those of the field-scalar loop over every pair
    L, cols = case
    forms = encode_columns(L.field, cols, L.dim)[0]
    verdict = _product_rule(L, {j: form for j, form in enumerate(forms) if form})
    assert (verdict.ok, verdict.failing_pair) == all_pairs_product_rule(L, cols)


_SCATTER_ALGEBRAS = {
    **{L.name: L for L in _RANDOM_ALGEBRAS},
    **{f"S{n}-{f}": make_schrodinger(n, f) for n in (2, 3, 4) for f in (FIELD_Q, FIELD_QI)},
}


def _check_scatter(L, row: dict) -> None:
    # the columns are exactly the nonzero ones of the row, ascending, each
    # in row order, and they reassemble into the row
    wd = L.field.width * L.dim
    cols = row_columns(L, row)
    assert list(cols) == sorted({c // wd for c in row})
    assert all(list(form) == sorted(form) for form in cols.values())
    assert {wd * j + q: v for j, form in cols.items() for q, v in form.items()} == row


@pytest.mark.parametrize("L", _SCATTER_ALGEBRAS.values(), ids=_SCATTER_ALGEBRAS.keys())
def test_row_columns_scatters_each_der_row_into_its_nonzero_columns(L):
    for row in derivation_space(L).rows:
        _check_scatter(L, row)


@st.composite
def _map_rows(draw):
    """(algebra, row): a random sparse integer row on the map space."""
    L = draw(st.sampled_from(list(_SCATTER_ALGEBRAS.values())))
    n = L.field.width * L.dim ** 2
    entries = st.integers(-9, 9).filter(bool)
    return L, draw(st.dictionaries(st.integers(0, n - 1), entries, min_size=1, max_size=12))


@settings(max_examples=200, deadline=None)
@given(_map_rows())
def test_row_columns_scatters_random_rows(case):
    _check_scatter(*case)


_LEIBNIZ_ALGEBRAS = {
    **{
        f"S{n}-{f}": (lambda n=n, f=f: make_schrodinger(n, f))
        for n in range(1, 9)
        for f in (FIELD_Q, FIELD_QI)
    },
    "h1": lambda: make_heisenberg(1),
    "h2": lambda: make_heisenberg(2),
    "sl2": lambda: make_sl2(),
    "sl2-Qi": lambda: make_sl2(FIELD_QI),
    "sl2_xhy": complex_sl2,
    **{L.name: (lambda L=L: L) for L in _RANDOM_ALGEBRAS},
}


@pytest.mark.parametrize("build", _LEIBNIZ_ALGEBRAS.values(), ids=_LEIBNIZ_ALGEBRAS.keys())
def test_integer_der_equals_the_field_scalar_reference(build):
    # each integer Leibniz row is the field-scalar row at the one table
    # scale, in the same order, and Der is the same entry for entry
    L = build()
    rows = list(leibniz_rows(L))
    assert rows == [at_scale(L.field, row, L.table_scale) for row in field_leibniz_rows(L)]
    der, ref = derivation_space(L), field_der_subspace(L)
    assert der.subspace == ref and der.subspace.rows == ref.rows


def test_derivation_space_makes_no_field_scalar_insert_and_reads_no_bracket(monkeypatch):
    # Der is built from the integer table alone and kept in integer form:
    # the Leibniz rows go in through insert_integer (the echelon has no
    # field-scalar insert), the product-rule re-check reads the integer
    # table too (the algebra keeps no field-scalar bracket reader), and
    # Der, both its indexes and a replay fold encode columns only for the
    # bracket table and build no Subspace; der.subspace is decoded on read
    assert not hasattr(SparseEchelon, "insert")
    # the fold's module has no encoder to call
    assert not hasattr(locder, "encode_columns")
    encoded, built = [], []
    for module in (liealg, dersolve):
        encode = module.encode_columns
        monkeypatch.setattr(
            module,
            "encode_columns",
            lambda *a, name=module.__name__, encode=encode: encoded.append(name) or encode(*a),
        )
    init = Subspace.__init__
    monkeypatch.setattr(Subspace, "__init__", lambda self, *a: built.append(1) or init(self, *a))
    L = make_schrodinger(3, FIELD_QI)
    der = derivation_space(L)
    assert der.image_index.index and der.check_index
    acc = schrodinger.replay_proof(3)
    assert der.dim == expected_der_dim(3) and acc.equal
    assert set(encoded) == {"liederiv.liealg"} and built == []
    assert der.subspace == field_der_subspace(L) and der.subspace.rows == field_der_subspace(L).rows


@pytest.mark.parametrize(
    "n, dim, field_digest, integer_digest",
    [
        (
            16,
            156,
            "bb2f23728a258f7004b976b9ef4bfc880a69f1dff8b43002cf3d96cf38fef4bd",
            "612f891b3d12892b3700e9c9c5f91c05a0e778ee1d2c8cf4438f0077fdb6d3e0",
        ),
        (
            32,
            564,
            "0f949d8acd5ab0928e72607a246b6f74746e1cd694e9b1899d882d898149aed2",
            "3c4cd4c659ffe50f7b73cb5fde225cf035e20ab7aba2f30711a819e7d0bd0b17",
        ),
    ],
    ids=["16", "32"],
)
def test_der_pins_the_canonical_rows_over_gaussian_rationals(n, dim, field_digest, integer_digest):
    # each canonical row of Der(S_n) over Q(i), one line per row: the repr
    # of its sorted (column, format_scalar(entry)) pairs, then a newline
    # (the serialization behind the BENCH_24.json hashes, which these
    # are); and the same for the sorted (integer column, entry) pairs of
    # der.rows, pinned from the field-scalar Der before it was kept in
    # integer form alone
    der = derivation_space(make_schrodinger(n, FIELD_QI))
    assert der.dim == dim
    rows = der.subspace.rows
    text = "".join(repr(sorted((c, format_scalar(x)) for c, x in r.items())) + "\n" for r in rows)
    assert hashlib.sha256(text.encode()).hexdigest() == field_digest
    text = "".join(repr(sorted(r.items())) + "\n" for r in der.rows)
    assert hashlib.sha256(text.encode()).hexdigest() == integer_digest


def test_complex_sl2_der_is_ad():
    # the Leibniz rows, Der entry for entry and the product rule on moved
    # maps of this algebra are held to the field-scalar references above
    L = complex_sl2()
    der = derivation_space(L)
    assert der.dim == 3 and der.subspace == inner_space(L)


def test_derivation_space_rejects_a_non_derivation_from_the_nullspace(monkeypatch):
    L = make_schrodinger(2)
    original = SparseEchelon.nullspace

    def corrupted(self):
        rows = original(self).rref_forms()
        # adds e -> e (one, at the row's scale) to the first basis map,
        # which breaks [e, f] = h
        rows[0] = {**rows[0], 0: rows[0].get(0, 0) + rows[0][min(rows[0])]}
        out = SparseEchelon(self.field, self.ncols)
        for row in rows:
            out.insert_integer(row)
        return out

    monkeypatch.setattr(SparseEchelon, "nullspace", corrupted)
    with pytest.raises(AssertionError, match="non-derivation"):
        derivation_space(L)


def test_tau_spot_check_on_central_pair():
    # tau([u_1, v_1]) = tau(z) = z must equal [tau(u_1), v_1] + [u_1, tau(v_1)] = z
    L = make_schrodinger(1)
    t = tau(1)
    u, v = from_terms(L, {"u_1": 1}), from_terms(L, {"v_1": 1})
    lhs = L.element(matvec(t, bracket(u, v).coords))
    tu, tv = L.element(matvec(t, u.coords)), L.element(matvec(t, v.coords))
    rhs = combination([(1, bracket(tu, v)), (1, bracket(u, tv))])
    assert lhs.coords == rhs.coords
    assert lhs.coords == from_terms(L, {"z": 1}).coords


def test_sigma_images():
    s = sigma(2, 1, 2)
    L = make_schrodinger(2)
    assert L.element(col(s, L.index["u_1"])).coords == from_terms(L, {"u_2": 1}).coords
    assert L.element(col(s, L.index["u_2"])).coords == from_terms(L, {"u_1": -1}).coords
    assert L.element(col(s, L.index["v_1"])).coords == from_terms(L, {"v_2": 1}).coords
    assert L.element(col(s, L.index["v_2"])).coords == from_terms(L, {"v_1": -1}).coords
    for lab in ("e", "h", "f", "z"):
        assert not any(col(s, L.index[lab]))
    assert is_derivation(L, s).ok


def test_sigma_requires_antisymmetric_deltas():
    # the same-index delta variant (u_l -> u_k - u_l, u_k -> 0) breaks
    # the product rule on the pair (u_l, v_k)
    L = make_schrodinger(2)
    d = L.dim
    rows = [[Fraction(0)] * d for _ in range(d)]
    rows[L.index["u_2"]][L.index["u_1"]] = Fraction(1)
    rows[L.index["u_1"]][L.index["u_1"]] = Fraction(-1)
    rows[L.index["v_2"]][L.index["v_1"]] = Fraction(1)
    rows[L.index["v_1"]][L.index["v_1"]] = Fraction(-1)
    verdict = is_derivation(L, Matrix(FIELD_Q, rows))
    assert not verdict.ok


def test_sigma_validation():
    with pytest.raises(ValueError):
        sigma(1, 1, 2)
    with pytest.raises(ValueError):
        sigma(3, 2, 2)
    with pytest.raises(ValueError):
        sigma(3, 0, 1)
    with pytest.raises(ValueError):
        tau(0)
    # an unknown field tag is rejected where a tag enters: an algebra
    # file and --field; the map builders take a Field, never a tag
    doc = json.loads(to_json(make_schrodinger(2)))
    doc["field"] = "R"
    with pytest.raises(ValueError, match="unknown field tag 'R'"):
        from_json(json.dumps(doc))
    assert main(["outer-check", "--n", "2", "--field", "R"]) == 1


def test_sigma_and_tau_are_outer():
    for n in (2, 3):
        L = make_schrodinger(n)
        inn = inner_space(L)
        for (l, k) in sigma_pairs(n):
            assert not contains(inn, flatten_map(sigma(n, l, k)))
        assert not contains(inn, flatten_map(tau(n)))


def test_outer_span_meets_inner_trivially_and_completes_der():
    for n in (2, 3):
        L = make_schrodinger(n)
        der = derivation_space(L)
        inn = inner_space(L)
        span_sigma = span(L.field, L.dim * L.dim, [flatten_map(sigma(n, *p)) for p in sigma_pairs(n)])
        assert span_sigma.dim == n * (n - 1) // 2
        assert subspace_intersect(span_sigma, inn).dim == 0
        inn_sigma = subspace_sum(inn, span_sigma)
        tau_flat = flatten_map(tau(n))
        assert not contains(inn_sigma, tau_flat)
        tau_span = span(L.field, L.dim * L.dim, [tau_flat])
        assert subspace_sum(inn_sigma, tau_span) == der.subspace


def test_sigma_commutes_with_grading():
    for n in (2, 3):
        L = make_schrodinger(n)
        adh = ad(from_terms(L, {"h": 1}))
        for (l, k) in sigma_pairs(n):
            s = sigma(n, l, k)
            assert matmul(adh, s) == matmul(s, adh)


def test_flatten_round_trip():
    rng = random.Random(73)
    for _ in range(20):
        d = rng.randint(1, 5)
        m = Matrix(FIELD_Q, [[rand_scalar(rng) for _ in range(d)] for _ in range(d)])
        assert unflatten_map(FIELD_Q, flatten_map(m), d) == m


def test_decompose_examples():
    L = make_schrodinger(2)
    h = from_terms(L, {"h": 1})
    dec = decompose(L, ad(h))
    assert dec.inner_part.coords == h.coords
    assert all(not c for c in dec.sigma_coeffs.values())
    assert not dec.tau_coeff

    target = combine([(3, tau(2)), (1, sigma(2, 1, 2))])
    dec = decompose(L, target)
    assert dec.tau_coeff == Fraction(3)
    assert dec.sigma_coeffs[(1, 2)] == Fraction(1)
    assert reassemble(dec) == target
    # inner part may only differ along the central line, which ad kills
    assert is_zero(ad(dec.inner_part))


def test_decompose_reassembles_all_basis_derivations():
    for n in (1, 2, 3):
        L = make_schrodinger(n)
        for D in dense_der_basis(derivation_space(L)):
            dec = decompose(L, D)
            assert reassemble(dec) == D
            assert not dec.inner_part.coords[L.index["z"]]


def test_decompose_reassembles_random_derivations_over_gaussian_rationals():
    rng = random.Random(0xDEC0)
    for n in (1, 2, 3, 4):
        L = make_schrodinger(n, FIELD_QI)
        basis = dense_der_basis(derivation_space(L))
        for _ in range(4):
            D = combine((rand_scalar(rng, FIELD_QI), B) for B in basis)
            dec = decompose(L, D)
            assert reassemble(dec) == D
            assert not dec.inner_part.coords[L.index["z"]]


def test_decompose_rejects_a_perturbed_solve(monkeypatch):
    # the integer re-check, not the solve, vouches for the coefficients
    solve = schrodinger_der.solve_columns

    def perturbed(*args):
        sol, rank = solve(*args)
        return [sol[0] + 1] + sol[1:], rank

    monkeypatch.setattr(schrodinger_der, "solve_columns", perturbed)
    L = make_schrodinger(2, FIELD_QI)
    with pytest.raises(AssertionError, match="reassemble"):
        decompose(L, combine([(3, tau(2, FIELD_QI)), (1, sigma(2, 1, 2, FIELD_QI))]))


@pytest.mark.parametrize("field", (FIELD_Q, FIELD_QI), ids=("Q", "Qi"))
@pytest.mark.parametrize("n", range(2, 7))
def test_outer_check_matches_the_dense_subspace_report(n, field):
    assert outer_check(n, field) == dense_outer_report(n, field)


def test_decompose_rejects_non_derivations_and_foreign_algebras():
    L = make_schrodinger(2)
    rows = [[Fraction(0)] * L.dim for _ in range(L.dim)]
    rows[L.index["u_1"]][L.index["z"]] = Fraction(1)
    with pytest.raises(ValueError):
        decompose(L, Matrix(FIELD_Q, rows))
    H = make_heisenberg(2)
    with pytest.raises(ValueError):
        decompose(H, zeros(FIELD_Q, H.dim, H.dim))


def test_entry_growth_stress_case_completes():
    # the largest assembled system in the acceptance range must stay fast
    t0 = time.time()
    space = derivation_space(make_schrodinger(6))
    assert space.dim == expected_der_dim(6) == 31
    assert time.time() - t0 < 60
