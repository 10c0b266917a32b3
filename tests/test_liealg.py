import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liederiv.dersolve import LeibnizVerdict, derivation_space
from liederiv.exactfield import FIELD_Q, FIELD_QI, Frozen, GaussianRational, I
from liederiv.liealg import (
    AlgebraElement,
    JacobiError,
    JacobiVerdict,
    LieAlgebra,
    check_jacobi,
    from_json,
    load,
    make_abelian,
    make_heisenberg,
    make_sl2,
    save,
    to_json,
)
from liederiv.certifier import LocalityCertificate
from liederiv.locder import Probe, ProbeStep
from liederiv.schrodinger import make_schrodinger, schrodinger_rank
from liederiv.schrodinger_der import AsosShape, asos_shape_check, decompose
from liederiv.linalg import Matrix
from conftest import (
    ad,
    all_triples_jacobi,
    at_scale,
    basis_element,
    bracket,
    bracket_basis,
    center,
    combination,
    complex_sl2,
    contains,
    copies,
    from_terms,
    is_zero,
    rand_scalar,
    random_matrix_algebras,
    span,
)


def rand_element(rng, L):
    return L.element([rand_scalar(rng, L.field) for _ in range(L.dim)])


def test_schrodinger_dimensions():
    for n in range(1, 7):
        L = make_schrodinger(n)
        assert L.dim == 2 * n + 4
        assert L.labels[:4] == ("e", "h", "f", "z")
    with pytest.raises(ValueError):
        make_schrodinger(0)


def test_schrodinger_bracket_examples():
    L = make_schrodinger(3)
    h, e = from_terms(L, {"h": 1}), from_terms(L, {"e": 1})
    assert bracket(h, e).coords == from_terms(L, {"e": 2}).coords
    assert bracket(from_terms(L, {"e": 1}), from_terms(L, {"v_2": 1})).coords == from_terms(L, 
        {"u_2": 1}
    ).coords
    # [u_k, v_j] = delta_kj z
    for k in (1, 2, 3):
        for j in (1, 2, 3):
            got = bracket(from_terms(L, {f"u_{k}": 1}), from_terms(L, {f"v_{j}": 1}))
            expect = from_terms(L, {"z": 1}) if k == j else from_terms(L, {})
            assert got.coords == expect.coords
    # z is central
    z = from_terms(L, {"z": 1})
    for i in range(L.dim):
        assert not any(bracket(z, basis_element(L, i)).coords)


def test_bracket_antisymmetry_and_bilinearity_randomized():
    rng = random.Random(61)
    L = make_schrodinger(2)
    for _ in range(100):
        x, y = rand_element(rng, L), rand_element(rng, L)
        assert not any(bracket(x, x).coords)
        assert bracket(x, y).coords == combination([(-1, bracket(y, x))]).coords
        a, b = rand_scalar(rng), rand_scalar(rng)
        lhs = bracket(combination([(a, x), (b, y)]), y)
        rhs = combination([(a, bracket(x, y)), (b, bracket(y, y))])
        assert lhs.coords == rhs.coords


def test_generator_rank_validation():
    with pytest.raises(ValueError):
        make_heisenberg(0)
    with pytest.raises(ValueError):
        make_abelian(0)


def test_heisenberg_structure():
    L = make_heisenberg(1)
    assert L.dim == 3
    assert bracket(from_terms(L, {"u_1": 1}), from_terms(L, {"v_1": 1})).coords == from_terms(L, 
        {"z": 1}
    ).coords
    for n in (1, 2, 4):
        H = make_heisenberg(n)
        assert H.dim == 2 * n + 1
        z = from_terms(H, {"z": 1})
        for i in range(H.dim):
            assert not any(bracket(z, basis_element(H, i)).coords)


def test_heisenberg_is_two_step_nilpotent():
    rng = random.Random(67)
    H = make_heisenberg(2)
    for _ in range(40):
        x, y, w = (rand_element(rng, H) for _ in range(3))
        assert not any(bracket(bracket(x, y), w).coords)


def test_sl2_structure():
    L = make_sl2()
    e, h, f = (from_terms(L, {lab: 1}) for lab in ("e", "h", "f"))
    assert bracket(e, f).coords == h.coords
    assert bracket(h, e).coords == combination([(2, e)]).coords
    assert bracket(h, f).coords == combination([(-2, f)]).coords
    assert check_jacobi(L).ok
    assert center(L).dim == 0


def test_center_of_schrodinger_is_the_central_line():
    for n in (1, 2, 3):
        L = make_schrodinger(n)
        c = center(L)
        assert c.dim == 1
        assert contains(c, from_terms(L, {"z": 1}).coords)
    H = make_heisenberg(1)
    assert center(H).dim == 1
    assert contains(center(H), from_terms(H, {"z": 1}).coords)
    assert center(make_abelian(4)).dim == 4


def test_ad_examples():
    L = make_schrodinger(1)
    adh = ad(from_terms(L, {"h": 1}))
    # diagonal (2, 0, -2, 0, 1, -1) on (e, h, f, z, u_1, v_1)
    expect = [2, 0, -2, 0, 1, -1]
    for i in range(6):
        for j in range(6):
            want = Fraction(expect[i]) if i == j else Fraction(0)
            assert adh.entries[i][j] == want
    assert is_zero(ad(from_terms(L, {"z": 1})))


def test_ad_grading_eigenvalues():
    for n in (1, 2, 3):
        L = make_schrodinger(n)
        adh = ad(from_terms(L, {"h": 1}))
        diag = [adh.entries[i][i] for i in range(L.dim)]
        assert diag == [2, 0, -2, 0] + [1] * n + [-1] * n
        for i in range(L.dim):
            for j in range(L.dim):
                if i != j:
                    assert not adh.entries[i][j]


def test_jacobi_check_passes_for_generators():
    assert check_jacobi(make_schrodinger(2)).ok
    assert check_jacobi(make_heisenberg(3)).ok
    assert check_jacobi(make_abelian(5)).ok


def test_jacobi_rejects_planted_defect():
    # sl2 with [e, f] = h but [h, e] = 2e replaced by -2e breaks Jacobi
    with pytest.raises(JacobiError) as err:
        LieAlgebra(
            "broken", FIELD_Q, ["e", "h", "f"],
            {(0, 1): {0: 2}, (0, 2): {1: 1}, (1, 2): {2: -2}},
        )
    assert err.value.triple is not None


_JACOBI_BASES = [
    make_schrodinger(2), make_schrodinger(2, FIELD_QI), make_heisenberg(2), make_sl2(),
    complex_sl2(),
]


@st.composite
def _tables_off_jacobi(draw, bases):
    """(algebra, brackets): the table of one of ``bases`` with one structure
    constant moved, often off a pair whose bracket was zero."""
    L = draw(st.sampled_from(bases))
    i = draw(st.integers(0, L.dim - 2))
    j = draw(st.integers(i + 1, L.dim - 1))
    k = draw(st.integers(0, L.dim - 1))
    re, im = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
    delta = re if L.field == FIELD_Q else GaussianRational(re, im)
    table = {pair: dict(terms) for pair, terms in L.table.items()}
    terms = table.setdefault((i, j), {})
    terms[k] = terms.get(k, 0) + delta
    return L, table


def _fewer_triples_agree(case):
    # the triples check_jacobi skips have no nonzero term, so its verdict
    # and first failing triple are those of the loop over every triple
    L, table = case
    try:
        M = LieAlgebra(L.name, L.field, L.labels, table)
    except JacobiError as err:
        assert all_triples_jacobi(err.algebra) == JacobiVerdict(False, err.triple)
        assert check_jacobi(err.algebra) == JacobiVerdict(False, err.triple)
    else:
        assert all_triples_jacobi(M) == JacobiVerdict(True)


@settings(max_examples=300, deadline=None)
@given(_tables_off_jacobi(_JACOBI_BASES))
def test_jacobi_on_fewer_triples_agrees_with_all_triples(case):
    _fewer_triples_agree(case)


def test_random_algebras_pass_both_jacobi_checks():
    for L in random_matrix_algebras():
        assert check_jacobi(L) == all_triples_jacobi(L) == JacobiVerdict(True), L.name


@settings(max_examples=200, deadline=None)
@given(_tables_off_jacobi(random_matrix_algebras()))
def test_jacobi_on_fewer_triples_agrees_with_all_triples_on_random_algebras(case):
    # the closures of random sparse matrices, over Q and Q(i), and their
    # one-entry corruptions: tables with many more nonzero pairs than S_n
    _fewer_triples_agree(case)


@pytest.mark.parametrize("L", _JACOBI_BASES + [make_abelian(3)], ids=lambda L: f"{L.name}-{L.field}")
def test_integer_table_is_the_table_at_one_scale(L):
    # both orders of every bracket, at the one scale that clears every
    # denominator, with partners and targets read off the same table
    assert L.table_scale > 0
    expect = {}
    for (i, j), terms in L.table.items():
        expect[(i, j)] = at_scale(L.field, terms, L.table_scale)
        expect[(j, i)] = at_scale(L.field, {k: -c for k, c in terms.items()}, L.table_scale)
    assert L.integer_table == expect
    for i in range(L.dim):
        assert L.partners[i] == tuple(j for j in range(L.dim) if bracket_basis(L, i, j))
        assert L.onto[i] == tuple(sorted(p for p, terms in L.table.items() if i in terms))
    # ad_images of x = 3*b_0 - 2*b_last (integer form at scale 1)
    x = L.element([3] + [0] * (L.dim - 2) + [-2])
    expect = {}
    for k in range(L.dim):
        image = dict(enumerate(bracket(basis_element(L, k), x).coords))
        if any(image.values()):
            expect[k] = at_scale(L.field, image, L.table_scale)
    assert L.ad_images(L.field.encode(dict(enumerate(x.coords)))) == expect


def restrict(L: LieAlgebra, labels: list, name: str) -> LieAlgebra:
    """Subalgebra on a subset of basis labels (must be bracket-closed)."""
    idx = [L.index[lab] for lab in labels]
    pos = {b: a for a, b in enumerate(idx)}
    br = {}
    for (i, j), terms in L.table.items():
        if i in pos and j in pos:
            sub = {}
            for k, c in terms.items():
                if k not in pos:
                    raise ValueError("label subset is not bracket-closed")
                sub[pos[k]] = c
            br[(pos[i], pos[j])] = sub
    return LieAlgebra(name, L.field, list(labels), br)


def test_semidirect_decomposition_substructures():
    for n in (1, 2, 3):
        L = make_schrodinger(n)
        assert restrict(L, ["e", "h", "f"], "sl2") == make_sl2()
        tail = ["z"] + [f"u_{k}" for k in range(1, n + 1)] + [f"v_{k}" for k in range(1, n + 1)]
        assert restrict(L, tail, f"heisenberg_{n}") == make_heisenberg(n)


def test_schrodinger_rank_detection():
    assert schrodinger_rank(make_schrodinger(2)) == 2
    assert schrodinger_rank(make_heisenberg(2)) is None
    assert schrodinger_rank(make_abelian(8)) is None


def test_save_load_round_trip(tmp_path):
    for build in (
        lambda: make_schrodinger(2),
        lambda: make_schrodinger(6),
        lambda: make_heisenberg(4),
        lambda: make_sl2(),
        lambda: make_schrodinger(1, FIELD_QI),
    ):
        L = build()
        path = tmp_path / f"{L.name}_{L.field}.json"
        save(L, str(path))
        assert load(str(path)) == L


def test_load_accepts_single_orientation_and_implies_partner():
    text = to_json(make_sl2())
    doc = json.loads(text)
    # rewrite [e, h] = -2e as [h, e] = 2e; the loader must normalize
    for entry in doc["brackets"]:
        if entry["left"] == "e" and entry["right"] == "h":
            entry["left"], entry["right"] = "h", "e"
            entry["terms"][0]["coeff"] = "2/1"
    L = from_json(json.dumps(doc))
    assert L == make_sl2()


def test_load_rejects_malformed_documents():
    good = json.loads(to_json(make_sl2()))
    bad_unknown = dict(good, extra="x")
    with pytest.raises(ValueError):
        from_json(json.dumps(bad_unknown))
    bad_labels = dict(good, labels=["e", "e", "f"])
    with pytest.raises(ValueError):
        from_json(json.dumps(bad_labels))
    with pytest.raises(ValueError):
        from_json("{not json")
    bad_term = json.loads(to_json(make_sl2()))
    bad_term["brackets"][0]["terms"][0]["coeff"] = "1.5"
    with pytest.raises(ValueError):
        from_json(json.dumps(bad_term))
    bad_field = dict(good, field="R")
    with pytest.raises(ValueError):
        from_json(json.dumps(bad_field))


def test_load_rejects_jacobi_violation():
    doc = json.loads(to_json(make_sl2()))
    for entry in doc["brackets"]:
        if entry["left"] == "e" and entry["right"] == "h":
            entry["terms"][0]["coeff"] = "2/1"  # flips the sign of [e, h]
    with pytest.raises(JacobiError):
        from_json(json.dumps(doc))


def test_load_rejects_inconsistent_duplicate():
    doc = json.loads(to_json(make_sl2()))
    doc["brackets"].append(
        {"left": "h", "right": "e", "terms": [{"basis": "e", "coeff": "3/1"}]}
    )
    with pytest.raises(ValueError):
        from_json(json.dumps(doc))


def test_gaussian_field_algebra_accepts_imaginary_coefficients():
    L = make_schrodinger(2, FIELD_QI)
    x = from_terms(L, {"u_1": 1, "u_2": GaussianRational(0, 1)})
    y = from_terms(L, {"v_1": 1})
    assert bracket(x, y).coords == from_terms(L, {"z": 1}).coords


@pytest.mark.parametrize("build", [lambda: make_abelian(2, "Qi"), lambda: make_heisenberg(1, "Qi")])
def test_a_field_tag_string_is_not_a_field(build):
    with pytest.raises(TypeError, match=r"FIELD_Q or FIELD_QI, got 'Qi'"):
        build()


def test_algebras_copy_and_pickle():
    for L in (make_schrodinger(2), make_heisenberg(1, FIELD_QI)):
        for M in copies(L):
            assert M == L and M.field is L.field and M.name == L.name
            assert basis_element(M, 0) == basis_element(L, 0)


def _refuted_certificate():
    L = make_heisenberg(1)
    return LocalityCertificate(False, basis_element(L, 1), ("refuted at u_1",))


# (build, a field name, hashable): each value type of the package, built
# twice from equal fields; Der, a probe (its integer form) and a
# decomposition hold dicts, so they compare but do not hash
VALUE_TYPES = {
    "JacobiVerdict": (lambda: JacobiVerdict(True), "ok", True),
    "JacobiVerdict-failing": (lambda: JacobiVerdict(False, ("e", "h", "f")), "failing_triple", True),
    "AlgebraElement": (
        lambda: from_terms(make_schrodinger(1, FIELD_QI), {"e": 1, "z": I}), "coords", True
    ),
    "LeibnizVerdict": (lambda: LeibnizVerdict(False, (0, 1)), "failing_pair", True),
    "DerivationSpace": (lambda: derivation_space(make_heisenberg(1)), "rows", False),
    "Field": (lambda: FIELD_QI, "zero", True),
    "Probe": (lambda: Probe(make_sl2(), {1: 1}, "h"), "label", False),
    "ProbeStep": (lambda: ProbeStep("h", 9, 5), "dim_after", True),
    "LocalityCertificate": (
        lambda: LocalityCertificate(True, None, ("member of Der",)), "certified", True
    ),
    "LocalityCertificate-refuted": (_refuted_certificate, "refutation", True),
    "DerDecomposition": (
        lambda: decompose(make_schrodinger(1), ad(basis_element(make_schrodinger(1), 0))),
        "n",
        False,
    ),
    "AsosShape": (lambda: AsosShape(2), "n", True),
    "AsosVerdict": (lambda: asos_shape_check(1), "note", True),
    "GaussianRational": (lambda: GaussianRational(Fraction(1, 2), -3), "im", True),
    "LieAlgebra": (lambda: make_sl2(FIELD_QI), "table", True),
    "Matrix": (lambda: Matrix(FIELD_QI, [[1, I], [0, 2]]), "entries", True),
    "Subspace": (lambda: span(FIELD_Q, 3, [[1, 2, 0], [0, 1, 1]]), "rows", True),
}


@pytest.mark.parametrize("build, name, hashable", VALUE_TYPES.values(), ids=VALUE_TYPES.keys())
def test_value_types_are_immutable_compare_by_field_and_copy(build, name, hashable):
    a, b = build(), build()
    assert a == b and not a != b
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    for y in copies(a):
        assert type(y) is type(a) and y == a
    for assign in (lambda: setattr(a, name, None), lambda: setattr(a, "extra", 1)):
        with pytest.raises(AttributeError):
            assign()
    with pytest.raises(AttributeError):
        delattr(a, name)
    assert getattr(a, name) == getattr(b, name)


# the entries of VALUE_TYPES built by exactfield.Frozen's generic constructor
GENERIC_RECORDS = {
    "DerivationSpace",
    "Field",
    "ProbeStep",
    "LocalityCertificate",
    "LocalityCertificate-refuted",
    "DerDecomposition",
    "AsosShape",
    "AsosVerdict",
}


@pytest.mark.parametrize("key", VALUE_TYPES)
def test_a_record_takes_one_value_per_field(key):
    # the generic constructor stores one value per field, in the order of
    # __match_args__; one value too many or (for it) one too few raises
    a = VALUE_TYPES[key][0]()
    cls, names = type(a), type(a).__match_args__
    values = tuple(getattr(a, name) for name in names)
    assert (cls.__init__ is Frozen.__init__) == (key in GENERIC_RECORDS)
    with pytest.raises(TypeError):
        cls(*values, None)
    if key in GENERIC_RECORDS:
        with pytest.raises(TypeError):
            cls(*values[:-1])
        b = cls(*values)
        assert all(getattr(b, name) is v for name, v in zip(names, values))


def test_value_types_check_their_fields_and_print_them():
    L = make_heisenberg(1)
    with pytest.raises(ValueError, match="zero probe"):
        Probe(L, {}, "0")
    # a form holds nonzero entries at the d columns of its algebra
    for form in ({0: 0}, {3: 1}, {-1: 1}):
        with pytest.raises(ValueError, match="columns of its algebra"):
            Probe(L, form, "x")
    with pytest.raises(ValueError, match="coordinate length"):
        AlgebraElement(L, (1, 0))
    assert bool(LocalityCertificate(True, None, ())) is True
    assert bool(_refuted_certificate()) is False
    assert repr(ProbeStep("h", 9, 5)) == "ProbeStep(probe='h', dim_before=9, dim_after=5)"
    assert repr(JacobiVerdict(True)) == "JacobiVerdict(ok=True, failing_triple=None)"
    # equal fields in different types are not equal values
    assert JacobiVerdict(True) != LeibnizVerdict(True)
