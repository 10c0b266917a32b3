import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from liederiv.exactfield import (
    FIELD_Q,
    FIELD_QI,
    Field,
    FieldMismatchError,
    GaussianRational,
    I,
    format_scalar,
    integer_key,
    inv,
)
from conftest import copies, rand_fraction, rand_gauss


def test_fraction_arithmetic_examples():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert inv(Fraction(2, 3)) == Fraction(3, 2)
    assert inv(Fraction(1)) == Fraction(1)
    assert inv(2) == Fraction(1, 2) and type(inv(2)) is Fraction


def test_imaginary_unit_squares_to_minus_one():
    assert I * I == GaussianRational(-1)
    assert I * I == -1


def test_gaussian_inverse_example():
    x = GaussianRational(2, 1)
    assert inv(x) == GaussianRational(Fraction(2, 5), Fraction(-1, 5))
    assert x * inv(x) == GaussianRational(1)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        inv(Fraction(0))
    with pytest.raises(ZeroDivisionError):
        inv(GaussianRational(0))


def test_field_axioms_randomized():
    rng = random.Random(101)
    for _ in range(120):
        a, b, c = (rand_gauss(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        assert a + FIELD_QI.zero == a
        assert a * FIELD_QI.one == a
        if a:
            assert a * inv(a) == FIELD_QI.one


def test_embedding_is_ring_homomorphism():
    rng = random.Random(55)
    assert FIELD_QI.coerce(Fraction(1, 2)) == GaussianRational(Fraction(1, 2))
    assert FIELD_QI.coerce(Fraction(0)) == FIELD_QI.zero
    for _ in range(120):
        a, b = rand_fraction(rng), rand_fraction(rng)
        assert FIELD_QI.coerce(a + b) == FIELD_QI.coerce(a) + FIELD_QI.coerce(b)
        assert FIELD_QI.coerce(a * b) == FIELD_QI.coerce(a) * FIELD_QI.coerce(b)
        # injectivity on this sample
        if a != b:
            assert FIELD_QI.coerce(a) != FIELD_QI.coerce(b)


def test_copies_and_pickles_rebuild_through_the_constructor():
    for x in (GaussianRational(1, 2), GaussianRational(Fraction(-3, 4), -1), I):
        for y in copies(x):
            assert type(y) is GaussianRational and y == x
    # a real value of Q(i) is a Fraction, and copies back as one
    for y in copies(GaussianRational(5)):
        assert type(y) is Fraction and y == 5
        assert type(y * y) is Fraction and y * y == 25


def test_fields_survive_copy_and_pickle_as_the_same_object():
    for field in (FIELD_Q, FIELD_QI):
        assert all(y is field for y in copies(field))
        assert repr(field) == field.tag
    with pytest.raises(AttributeError):
        FIELD_Q.zero = 1


def test_canonical_form_is_structural_equality():
    assert Fraction(2, 4) == Fraction(1, 2)
    assert Fraction(-1, -2) == Fraction(1, 2)
    x = GaussianRational(Fraction(2, 4), Fraction(-3, -6))
    assert (x.re.numerator, x.re.denominator) == (1, 2)
    assert (x.im.numerator, x.im.denominator) == (1, 2)


def _tag_id(value):
    # a field shows as its tag in the test id
    return value.tag if isinstance(value, Field) else None


@pytest.mark.parametrize(
    "text,field,expected",
    [
        ("1/2", FIELD_Q, Fraction(1, 2)),
        ("-7/3", FIELD_Q, Fraction(-7, 3)),
        ("5", FIELD_Q, Fraction(5)),
        ("i", FIELD_QI, GaussianRational(0, 1)),
        ("-i", FIELD_QI, GaussianRational(0, -1)),
        ("0/1+1/1*i", FIELD_QI, GaussianRational(0, 1)),
        ("1/2-3/4*i", FIELD_QI, GaussianRational(Fraction(1, 2), Fraction(-3, 4))),
        ("-2/3+i", FIELD_QI, GaussianRational(Fraction(-2, 3), 1)),
        ("3/4*i", FIELD_QI, GaussianRational(0, Fraction(3, 4))),
        ("-1/1", FIELD_QI, GaussianRational(-1)),
    ],
    ids=_tag_id,
)
def test_parse_scalar_examples(text, field, expected):
    assert field.parse(text) == expected


@pytest.mark.parametrize(
    "text,field",
    [
        ("", FIELD_Q),
        ("1.5", FIELD_Q),
        ("i", FIELD_Q),
        ("1/2+", FIELD_QI),
        ("2i", FIELD_QI),
        ("i*i", FIELD_QI),
        ("1/0x", FIELD_Q),
        ("1/2*i*i", FIELD_QI),
        ("+*i", FIELD_QI),
    ],
    ids=_tag_id,
)
def test_parse_scalar_rejects_malformed(text, field):
    with pytest.raises(ValueError):
        field.parse(text)


def test_format_parse_round_trip_randomized():
    rng = random.Random(99)
    for _ in range(200):
        a = rand_fraction(rng, -50, 50, 12)
        assert FIELD_Q.parse(format_scalar(a)) == a
        x = rand_gauss(rng, -50, 50, 12)
        assert FIELD_QI.parse(format_scalar(x)) == x
    # purely real and purely imaginary edge cases
    for x in (GaussianRational(0), GaussianRational(3), GaussianRational(0, -2)):
        assert FIELD_QI.parse(format_scalar(x)) == x


@given(st.fractions(), st.fractions())
def test_format_parse_round_trip_property(a, b):
    assert FIELD_Q.parse(format_scalar(a)) == a
    x = GaussianRational(a, b)
    assert FIELD_QI.parse(format_scalar(x)) == x
    # a rational written over Q is read back as the same Q(i) scalar
    assert FIELD_QI.parse(format_scalar(a)) == GaussianRational(a)


def test_coerce_scalar_field_mismatch():
    with pytest.raises(FieldMismatchError):
        FIELD_Q.coerce(GaussianRational(0, 1))
    assert FIELD_Q.coerce(GaussianRational(3, 0)) == Fraction(3)
    assert FIELD_QI.coerce(Fraction(1, 2)) == GaussianRational(Fraction(1, 2))


def test_coerce_keeps_an_exact_fraction_and_converts_the_rest():
    f = Fraction(-7, 3)
    assert FIELD_Q.coerce(f) is f
    assert type(FIELD_Q.coerce(5)) is Fraction and FIELD_Q.coerce(5) == 5
    real = FIELD_Q.coerce(GaussianRational(f))
    assert type(real) is Fraction and real == f
    with pytest.raises(FieldMismatchError):
        FIELD_Q.coerce(GaussianRational(f, 1))


small_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def gaussian_operands(draw):
    """(value, (re, im)): a value of Q(i) and the Fraction pair it stands
    for.  A zero imaginary part is built in several ways: as 0, as
    Fraction(0), and as a difference a - a."""
    re = draw(small_fractions)
    im = draw(st.one_of(small_fractions, st.just(0), st.just(Fraction(0))))
    value = GaussianRational(re, im)
    if draw(st.booleans()):
        a = GaussianRational(draw(small_fractions), draw(small_fractions))
        value = (value + a) - a + (a - a)
    return value, (Fraction(re), Fraction(im))


def _reference(op, x, y=None):
    (a, b), (c, d) = x, y or (0, 0)
    if op is operator.add:
        return a + c, b + d
    if op is operator.sub:
        return a - c, b - d
    if op is operator.mul:
        return a * c - b * d, a * d + b * c
    if op is operator.truediv:
        n = c * c + d * d
        return (a * c + b * d) / n, (b * c - a * d) / n
    return -a, -b


def _check_against_pair(value, ref):
    re, im = ref
    # a result is a Fraction exactly when its imaginary part is 0
    if im == 0:
        assert type(value) is Fraction and value == re
    else:
        assert type(value) is GaussianRational
        assert type(value.re) is Fraction and type(value.im) is Fraction
        assert (value.re, value.im) == (re, im)
        assert value and value != re
    twin = GaussianRational(re, im)
    assert type(twin) is type(value)
    assert value == twin and hash(value) == hash(twin)


def _check_op(op, u, v, ref_u, ref_v):
    # op(u, v) against op on the reference pairs; nothing is divided by 0
    if op is not operator.truediv or any(ref_v):
        _check_against_pair(op(u, v), _reference(op, ref_u, ref_v))


@given(
    gaussian_operands(),
    gaussian_operands(),
    st.sampled_from([operator.add, operator.sub, operator.mul, operator.truediv]),
)
def test_gaussian_operators_agree_with_fraction_pairs(x, y, op):
    (u, ref_u), (v, ref_v) = x, y
    _check_op(op, u, v, ref_u, ref_v)
    _check_against_pair(-u, _reference(operator.neg, ref_u))
    # a rational or an integer on either side
    for r in (ref_v[0], int(ref_v[0])):
        ref_r = (Fraction(r), Fraction(0))
        _check_op(op, u, r, ref_u, ref_r)
        _check_op(op, r, u, ref_r, ref_u)
    assert (u == v) == (ref_u == ref_v)
    if ref_u == ref_v:
        assert hash(u) == hash(v)
    assert bool(u) == any(ref_u)


@given(small_fractions, small_fractions)
def test_parse_coerce_and_decode_give_a_fraction_for_a_real_value(a, b):
    assert type(GaussianRational(a, 0)) is Fraction
    assert type(FIELD_QI.coerce(a)) is Fraction and type(FIELD_QI.coerce(int(a))) is Fraction
    for x in (a, GaussianRational(a, b), GaussianRational(0, b)):
        parsed = FIELD_QI.parse(format_scalar(x))
        assert parsed == x and type(parsed) is type(x)
    # the row 1, x, x*i, b over Q(i) decoded from its integer form
    x = GaussianRational(a, b)
    row = {0: FIELD_QI.one, 1: x, 2: x * I, 3: b}
    decoded = FIELD_QI.decode(FIELD_QI.encode(row), 0)
    for c, value in row.items():
        got = decoded.get(c, FIELD_QI.zero)
        assert got == value and type(got) is type(value)


@st.composite
def _key_cases(draw):
    """(field, x, c, y): sparse vectors x and y and a scalar c != 0."""
    field = draw(st.sampled_from([FIELD_Q, FIELD_QI]))
    part = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    scalar = part if field is FIELD_Q else st.builds(GaussianRational, part, part)
    vector = st.dictionaries(st.integers(0, 4), scalar.filter(bool), min_size=1, max_size=3)
    return field, draw(vector), draw(scalar.filter(bool)), draw(vector)


@settings(max_examples=300, deadline=None)
@given(_key_cases())
# x and i*x over Q(i), and u_1 + i*u_2 against u_1 - i*u_2
@example((FIELD_QI, {0: Fraction(1), 1: I}, I, {0: Fraction(1), 1: -I}))
@example((FIELD_Q, {2: Fraction(-3)}, Fraction(-1, 2), {2: Fraction(5)}))
def test_integer_key_is_shared_exactly_by_the_multiples(case):
    field, x, c, y = case
    key = integer_key(field, field.encode(x))
    assert integer_key(field, field.encode({j: c * v for j, v in x.items()})) == key
    proportional = x.keys() == y.keys() and len({y[j] / x[j] for j in x}) == 1
    assert (integer_key(field, field.encode(y)) == key) == proportional


_gauss_parts = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(
        st.integers(0, 5),
        st.builds(GaussianRational, _gauss_parts, _gauss_parts).filter(bool),
        min_size=1,
        max_size=4,
    )
)
# the entry at column 0 is i (zero real part), at column 1 it is real
@example({0: I, 1: Fraction(1)})
def test_decode_at_either_part_of_a_column_divides_by_its_entry(row):
    # both integer columns 2c and 2c + 1 of field column c name the same
    # pivot entry row[c]
    form = FIELD_QI.encode(row)
    for c, pivot in row.items():
        expected = {j: x / pivot for j, x in row.items()}
        assert FIELD_QI.decode(form, 2 * c) == expected
        assert FIELD_QI.decode(form, 2 * c + 1) == expected
