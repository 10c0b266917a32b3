import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from liederiv.exactfield import FIELD_Q, FIELD_QI, FieldMismatchError, GaussianRational
from liederiv.linalg import Matrix, SparseEchelon
from liederiv.schrodinger_der import solve_columns
from conftest import (
    UnitPivotEchelon,
    back_multiply,
    contains,
    coordinates,
    copies,
    dense_rows,
    full_space,
    identity,
    insert,
    matmul,
    naive_rank,
    nullspace,
    rand_scalar,
    rref,
    span,
    stored_rows,
    subspace_intersect,
    subspace_sum,
    transpose,
)


def mat(rows, field=FIELD_Q):
    return Matrix(field, rows)


def rand_matrix(rng, nrows, ncols, field=FIELD_Q):
    return Matrix(field, [[rand_scalar(rng, field) for _ in range(ncols)] for _ in range(nrows)])


def test_rref_examples():
    red, rank = rref(mat([[2, 4], [1, 2]]))
    assert rank == 1
    assert red == mat([[1, 2], [0, 0]])
    ident = identity(FIELD_Q, 4)
    red, rank = rref(ident)
    assert red == ident and rank == 4


def test_rref_idempotent_randomized():
    rng = random.Random(3)
    for _ in range(40):
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        red, rank = rref(m)
        red2, rank2 = rref(red)
        assert red2 == red and rank2 == rank
        assert rank == naive_rank(m.entries)


def test_rank_equals_transpose_rank():
    rng = random.Random(17)
    for _ in range(40):
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 7))
        assert rref(m)[1] == rref(transpose(m))[1]


def test_nullspace_examples():
    s = nullspace(mat([[1, 1]]))
    assert s.dim == 1
    assert contains(s, [Fraction(1), Fraction(-1)])
    assert nullspace(identity(FIELD_Q, 3)).dim == 0


def test_nullspace_verified_by_back_multiplication():
    rng = random.Random(23)
    for _ in range(30):
        r = rng.randint(1, 5)
        a = rand_matrix(rng, 6, r)
        b = rand_matrix(rng, r, 10)
        m = matmul(a, b)  # rank at most r
        s = nullspace(m)
        assert s.dim == 10 - rref(m)[1]
        for vec in dense_rows(s):
            assert not any(back_multiply(m.entries, vec))


def test_nullspace_dimension_matches_independent_rank():
    rng = random.Random(29)
    for _ in range(25):
        m = rand_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        assert nullspace(m).dim == m.ncols - naive_rank(m.entries)


def test_subspace_canonical_forms_agree_for_same_space():
    rng = random.Random(31)
    for _ in range(30):
        dim, ambient = rng.randint(1, 3), rng.randint(3, 6)
        basis = [[rand_scalar(rng) for _ in range(ambient)] for _ in range(dim)]
        s1 = span(FIELD_Q, ambient, basis)
        # a random invertible recombination of the same vectors
        combos = []
        for _ in range(dim + 2):
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(dim)]
            combos.append(
                [sum((c * row[j] for c, row in zip(coeffs, basis) if c), Fraction(0))
                 for j in range(ambient)]
            )
        s2 = span(FIELD_Q, ambient, combos)
        if s2.dim == s1.dim:
            assert s1 == s2


def test_subspace_sum_examples():
    e1 = span(FIELD_Q, 3, [[1, 0, 0]])
    e2 = span(FIELD_Q, 3, [[0, 1, 0]])
    both = subspace_sum(e1, e2)
    assert both.dim == 2
    assert subspace_sum(e1, e1) == e1


def test_subspace_intersect_examples():
    plane = span(FIELD_Q, 2, [[1, 0], [0, 1]])
    line = span(FIELD_Q, 2, [[1, 1]])
    assert subspace_intersect(plane, line) == line
    full = full_space(FIELD_Q, 4)
    s = span(FIELD_Q, 4, [[1, 2, 3, 4], [0, 1, 0, 1]])
    assert subspace_intersect(s, full) == s


def test_grassmann_dimension_identity_randomized():
    rng = random.Random(37)
    for _ in range(110):
        ambient = rng.randint(2, 6)
        a = span(
            FIELD_Q, ambient,
            [[rand_scalar(rng) for _ in range(ambient)] for _ in range(rng.randint(0, 3))],
        )
        b = span(
            FIELD_Q, ambient,
            [[rand_scalar(rng) for _ in range(ambient)] for _ in range(rng.randint(0, 3))],
        )
        assert subspace_sum(a, b).dim + subspace_intersect(a, b).dim == a.dim + b.dim


def test_intersection_is_associative_randomized():
    rng = random.Random(41)
    for _ in range(40):
        ambient = rng.randint(2, 5)
        spaces = [
            span(
                FIELD_Q, ambient,
                [[rand_scalar(rng) for _ in range(ambient)] for _ in range(rng.randint(1, 3))],
            )
            for _ in range(3)
        ]
        a, b, c = spaces
        left = subspace_intersect(subspace_intersect(a, b), c)
        right = subspace_intersect(a, subspace_intersect(b, c))
        assert left == right


def test_member_examples():
    s = span(FIELD_Q, 2, [[1, 1]])
    assert coordinates(s, [Fraction(2), Fraction(2)]) == (Fraction(2),)
    assert coordinates(s, [Fraction(1), Fraction(0)]) is None
    assert coordinates(s, [Fraction(0), Fraction(0)]) == (Fraction(0),)
    # zero vector in a nonzero space: all-zero coefficients
    s2 = span(FIELD_Q, 3, [[1, 0, 2], [0, 1, 1]])
    assert coordinates(s2, [Fraction(0)] * 3) == (Fraction(0), Fraction(0))


def test_member_reconstructs_combination():
    rng = random.Random(43)
    for _ in range(60):
        ambient = rng.randint(2, 6)
        s = span(
            FIELD_Q, ambient,
            [[rand_scalar(rng) for _ in range(ambient)] for _ in range(rng.randint(1, 3))],
        )
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(s.dim)]
        v = [
            sum((c * row[j] for c, row in zip(coeffs, dense_rows(s)) if c), Fraction(0))
            for j in range(ambient)
        ]
        got = coordinates(s, v)
        assert got is not None
        rebuilt = [
            sum((c * row[j] for c, row in zip(got, dense_rows(s)) if c), Fraction(0))
            for j in range(ambient)
        ]
        assert rebuilt == v


def test_field_and_dimension_mismatches_rejected():
    # a map is parsed into a Matrix over the algebra's field: a scalar
    # outside that field and a ragged row are both refused
    with pytest.raises(FieldMismatchError):
        mat([[1, GaussianRational(1, 1)]])
    with pytest.raises(FieldMismatchError):
        mat([[0.5]], FIELD_QI)
    with pytest.raises(ValueError, match="ragged"):
        mat([[1, 0], [1]])


def test_sparse_echelon_matches_dense_rank():
    rng = random.Random(47)
    for _ in range(40):
        m = rand_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
        acc = SparseEchelon(FIELD_Q, m.ncols)
        for row in m.entries:
            insert(acc, {j: x for j, x in enumerate(row) if x})
        assert acc.rank == rref(m)[1]
        ns = acc.nullspace().row_space()
        assert ns == nullspace(m)
        for vec in dense_rows(ns):
            assert not any(back_multiply(m.entries, vec))


def test_sparse_echelon_over_gaussian_rationals():
    rng = random.Random(53)
    for _ in range(20):
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), FIELD_QI)
        acc = SparseEchelon(FIELD_QI, m.ncols)
        for row in m.entries:
            insert(acc, {j: x for j, x in enumerate(row) if x})
        assert acc.rank == rref(m)[1]
        for vec in dense_rows(acc.nullspace().row_space()):
            assert not any(back_multiply(m.entries, vec))


def test_sparse_echelon_keeps_int_rows_exact():
    acc = SparseEchelon(FIELD_Q, 2)
    assert insert(acc, {0: 2, 1: 3})
    # 1.0 and 1.5 would compare equal, so the types are checked as well
    assert stored_rows(acc) == {0: {0: Fraction(1), 1: Fraction(3, 2)}}
    assert all(type(v) is Fraction for v in stored_rows(acc)[0].values())


def test_a_non_real_scalar_in_a_q_echelon_is_a_field_mismatch():
    acc = SparseEchelon(FIELD_Q, 2)
    with pytest.raises(FieldMismatchError):
        insert(acc, {0: Fraction(1), 1: GaussianRational(1, 1)})
    assert acc.rank == 0 and stored_rows(acc) == {}
    for field in (FIELD_Q, FIELD_QI):
        with pytest.raises(FieldMismatchError):
            insert(SparseEchelon(field, 1), {0: 0.5})
    # a Gaussian rational with no imaginary part is a rational
    assert insert(acc, {0: GaussianRational(2), 1: Fraction(1, 3)})
    assert stored_rows(acc) == {0: {0: Fraction(1), 1: Fraction(1, 6)}}
    assert all(type(v) is Fraction for v in stored_rows(acc)[0].values())


@st.composite
def _echelon_inputs(draw):
    """(field, ncols, rows, extra): sparse rows of field scalars with
    denominators up to 12, among them rows over Q(i) that are entirely
    real, rows whose leading entry is not a unit, and repeated rows,
    exact or scaled; ``extra`` is one more row of the same kind."""
    field = draw(st.sampled_from([FIELD_Q, FIELD_QI]))
    ncols = draw(st.integers(1, 6))
    nonzero = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 12))
    part = st.one_of(st.just(Fraction(0)), nonzero)
    non_units = st.sampled_from([2, -3, Fraction(4, 9), Fraction(-5, 12)])

    def scalar(real):
        if field == FIELD_Q or real:
            return field.coerce(draw(part))
        return GaussianRational(draw(part), draw(part))

    rows = []
    for _ in range(draw(st.integers(0, 7)) + 1):
        kind = draw(st.sampled_from(["random", "real", "lead", "repeat"]))
        if kind == "repeat" and rows:
            row = rows[draw(st.integers(0, len(rows) - 1))]
            c = scalar(False) or field.one
            row = {j: c * x for j, x in row.items()}
        else:
            dense = [scalar(kind == "real") for _ in range(ncols)]
            lead = next((j for j, x in enumerate(dense) if x), None)
            if kind == "lead" and lead is not None:
                dense[lead] = field.coerce(draw(non_units))
            row = {j: x for j, x in enumerate(dense) if x}
        rows.append(row)
    return field, ncols, rows[:-1], rows[-1]


def _typed(rows: dict) -> dict:
    return {p: {c: (type(x), x) for c, x in row.items()} for p, row in rows.items()}


def _assert_primitive(acc: SparseEchelon):
    for q, row in acc._rows.items():
        assert all(type(x) is int for x in row.values())
        assert min(row) == q and row[q] > 0 and gcd(*row.values()) == 1
    # over Q(i) the real pivots come in pairs {2p, 2p + 1}
    width = acc.field.width
    pivots = sorted(stored_rows(acc))
    assert sorted(acc._rows) == [width * p + k for p in pivots for k in range(width)]


@settings(max_examples=300, deadline=None)
@given(_echelon_inputs())
def test_integer_echelon_reads_back_the_unit_pivot_oracle(case):
    field, ncols, rows, extra = case
    acc, oracle = SparseEchelon(field, ncols), UnitPivotEchelon(ncols)
    for row in rows:
        assert insert(acc, row) == oracle.insert(row)
        _assert_primitive(acc)
    assert acc.rank == len(oracle.rows)
    assert _typed(stored_rows(acc)) == _typed(oracle.rows)
    reduced = oracle.reduced_rows()
    ordered = [reduced[p] for p in sorted(reduced)]
    assert _typed(dict(enumerate(acc.rref_rows()))) == _typed(dict(enumerate(ordered)))
    # the integer forms behind them are the primitive forms of those rows
    assert acc.rref_forms() == [field.encode(row) for row in ordered]
    z = field.zero
    dense = [[row.get(j, z) for j in range(ncols)] for row in rows]
    assert tuple(acc.rref_rows()) == _sparse(_dense_rref_rows(field, ncols, dense))
    # each integer nullspace vector is a positive multiple of the oracle's
    # vector for the same free column f, which has 1 at f, its first key
    vectors = acc.integer_nullspace()
    assert len(vectors) == len(oracle.nullspace_vectors())
    width = field.width
    for form, vec in zip(vectors, oracle.nullspace_vectors()):
        f = next(iter(vec))
        assert form[width * f] > 0 and field.decode(form, width * f) == vec
        assert not any(back_multiply(dense, [vec.get(j, z) for j in range(ncols)]))
    # reading back leaves the stored rows fit for a later insert
    assert insert(acc, extra) == oracle.insert(extra)
    _assert_primitive(acc)
    assert _typed(stored_rows(acc)) == _typed(oracle.rows)


_int_matrices = st.integers(1, 6).flatmap(
    lambda ncols: st.lists(
        st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols), max_size=7
    ).map(lambda rows: (ncols, rows))
)


@settings(max_examples=150, deadline=None)
@given(_int_matrices)
def test_sparse_echelon_rank_matches_naive_rank(case):
    ncols, rows = case
    acc = SparseEchelon(FIELD_Q, ncols)
    for row in rows:
        insert(acc, {j: x for j, x in enumerate(row) if x})
    assert acc.rank == naive_rank([[Fraction(x) for x in row] for row in rows])
    assert all(type(v) is Fraction for row in stored_rows(acc).values() for v in row.values())


def _scalars(field):
    small = st.integers(-3, 3)
    if field == FIELD_Q:
        return small.map(Fraction)
    return st.tuples(small, small).map(lambda p: GaussianRational(*p))


@st.composite
def _vector_sets(draw):
    field = draw(st.sampled_from([FIELD_Q, FIELD_QI]))
    n = draw(st.integers(1, 5))
    vectors = st.lists(st.lists(_scalars(field), min_size=n, max_size=n), max_size=4)
    return field, n, draw(vectors), draw(vectors)


def _dense_rref_rows(field, ncols, vectors):
    """Nonzero rows of the dense oracle RREF of the vectors."""
    if not vectors:
        return []
    red, rank = rref(Matrix(field, vectors))
    return [list(row) for row in red.entries[:rank]]


def _sparse(rows):
    return tuple({j: x for j, x in enumerate(row) if x} for row in rows)


@settings(max_examples=150, deadline=None)
@given(_vector_sets())
def test_sparse_subspace_matches_dense_oracle(case):
    field, n, xs, ys = case
    a, b = span(field, n, xs), span(field, n, ys)
    dense_a, dense_b = _dense_rref_rows(field, n, xs), _dense_rref_rows(field, n, ys)
    assert a.rows == _sparse(dense_a) and b.rows == _sparse(dense_b)
    # Zassenhaus through the dense oracle: rows (x | x) and (y | 0)
    z = field.zero
    stacked = [row + row for row in dense_a] + [row + [z] * n for row in dense_b]
    meet = [row[n:] for row in _dense_rref_rows(field, 2 * n, stacked) if not any(row[:n])]
    assert subspace_intersect(a, b).rows == _sparse(meet)
    # every input vector and the sum of all of them lie in the span
    in_span = xs + [[sum(col, z) for col in zip(*xs)]] if xs else []
    for v in in_span:
        coeffs = coordinates(a, v)
        assert coeffs is not None
        assert [sum((c * row[j] for c, row in zip(coeffs, dense_a)), z) for j in range(n)] == v


@st.composite
def _column_systems(draw):
    field = draw(st.sampled_from([FIELD_Q, FIELD_QI]))
    nrows = draw(st.integers(1, 5))
    m = draw(st.integers(0, 4))
    vectors = st.lists(_scalars(field), min_size=nrows, max_size=nrows)
    cols = draw(st.lists(vectors, min_size=m, max_size=m))
    if draw(st.booleans()):
        # a combination of the columns, so inside the span
        coeffs = draw(st.lists(_scalars(field), min_size=m, max_size=m))
        z = field.zero
        target = [sum((c * col[i] for c, col in zip(coeffs, cols)), z) for i in range(nrows)]
    else:
        target = draw(vectors)
    return field, nrows, cols, target


@settings(max_examples=200, deadline=None)
@given(_column_systems())
def test_solve_columns_gives_the_rank_and_solves_exactly_inside_the_span(case):
    field, nrows, cols, target = case
    m, w, z = len(cols), field.width, field.zero
    # one encode for the whole system, so the integer forms share one scale
    system = enumerate(cols + [target])
    joint = field.encode({k * nrows + i: x for k, v in system for i, x in enumerate(v) if x})
    forms = [{} for _ in range(m + 1)]
    for q, v in joint.items():
        k, r = divmod(q, w * nrows)
        forms[k][r] = v
    sol, rank = solve_columns(field, forms[:m], forms[m])
    assert rank == naive_rank(cols)
    assert (sol is None) == (naive_rank(cols + [target]) > rank)
    if sol is not None:
        # the integer combination lam * b = sum_k sum_t c_(w*k+t) u_t a_k
        lam = sol[-1]
        assert len(sol) == w * m + 1 and lam > 0
        combo: dict = {}
        for k, form in enumerate(forms[:m]):
            for t, turned in enumerate((form, *field.rotations(form))):
                for r, v in turned.items():
                    combo[r] = combo.get(r, 0) + sol[w * k + t] * v
        assert {r: v for r, v in combo.items() if v} == {r: lam * v for r, v in forms[m].items()}
        decoded = field.decode(dict(enumerate(sol)), w * m)
        coeffs = [decoded.get(k, z) for k in range(m)]
        assert [sum((c * col[i] for c, col in zip(coeffs, cols)), z) for i in range(nrows)] == target
        # the canonical solution: the RREF read-out of the augmented echelon,
        # with every free coefficient zero
        acc = SparseEchelon(field, m + 1)
        for i in range(nrows):
            insert(acc, {k: x for k, x in enumerate([col[i] for col in cols] + [target[i]]) if x})
        reduced = {min(row): row for row in acc.rref_rows()}
        assert coeffs == [reduced[k].get(m, z) if k in reduced else z for k in range(m)]
        assert all(not coeffs[k] for k in range(m) if k not in stored_rows(acc))


def test_matrices_and_subspaces_copy_and_pickle():
    m = mat([[1, GaussianRational(0, 2)], [Fraction(1, 3), 0]], FIELD_QI)
    s = span(FIELD_Q, 3, [[1, 2, 0], [0, 1, Fraction(1, 2)]])
    for x in (m, s):
        for y in copies(x):
            assert type(y) is type(x) and y == x and y.field is x.field
    assert all(y.sparse_columns() == m.sparse_columns() for y in copies(m))
    assert all(y.pivots == s.pivots for y in copies(s))
