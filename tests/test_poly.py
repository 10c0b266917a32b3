import random
from fractions import Fraction

from liederiv.exactfield import FIELD_QI, I
from liederiv.poly import MultiPoly, poly_det, split_linear
from conftest import rand_fraction


def var(i, nvars=3, c=1):
    return MultiPoly.variable(nvars, i, c)


def test_arithmetic_and_evaluation():
    x, y = var(0), var(1)
    p = (x + y) * (x - y)
    q = x * x - y * y
    assert p == q
    rng = random.Random(5)
    for _ in range(50):
        pt = [rand_fraction(rng) for _ in range(3)]
        assert p.evaluate(pt) == pt[0] ** 2 - pt[1] ** 2
    assert (p - q).is_zero()


def test_degree_and_homogeneity():
    x, y = var(0), var(1)
    assert (x * y + y * y).is_homogeneous()
    assert not (x * y + x).is_homogeneous()
    assert (x * y).degree() == 2
    assert MultiPoly.zero(3).degree() == -1


def test_poly_det_matches_numeric_determinant():
    rng = random.Random(9)
    for _ in range(25):
        k = rng.randint(1, 4)
        entries = [
            [
                MultiPoly(2, {(1, 0): rand_fraction(rng), (0, 1): rand_fraction(rng)})
                for _ in range(k)
            ]
            for _ in range(k)
        ]
        det = poly_det(entries)
        pt = [rand_fraction(rng), rand_fraction(rng)]
        numeric = [[e.evaluate(pt) for e in row] for row in entries]
        # cofactor expansion oracle
        def naive_det(m):
            if len(m) == 1:
                return m[0][0]
            total = Fraction(0)
            for j in range(len(m)):
                minor = [row[:j] + row[j + 1 :] for row in m[1:]]
                term = m[0][j] * naive_det(minor)
                total = total + term if j % 2 == 0 else total - term
            return total

        assert det.evaluate(pt) == naive_det(numeric)


def test_split_linear_monomials_and_products():
    x, y, z = var(0), var(1), var(2)
    cube = x * x * x
    factors = split_linear(cube)
    assert factors is not None and len(factors) == 1
    assert factors[0] == x

    p = (x + y) * (x - y) * z
    factors = split_linear(p)
    assert factors is not None
    assert len(factors) == 3
    forms = {tuple(sorted(f.terms.items())) for f in factors}
    assert tuple(sorted(z.terms.items())) in forms


def test_split_linear_handles_irreducible_residue_over_rationals():
    x, y = var(0), var(1)
    p = x * x + y * y  # no rational zeros except the origin
    factors = split_linear(p, rational_points_only=True)
    assert factors is not None  # a variable hyperplane covers the origin
    assert split_linear(p, rational_points_only=False) is None


def test_split_linear_over_gaussian_rationals():
    # over Q(i) a rational coefficient is a Fraction, so a minor with
    # rational coefficients splits as over Q, while a non-real
    # coefficient is beyond the rational root search
    x, y = var(0, 2, FIELD_QI.one), var(1, 2, FIELD_QI.one)
    factors = split_linear((x + y) * (x - y), rational_points_only=False)
    assert factors is not None and len(factors) == 2
    assert set(factors) == {x - y, x + y}
    skew = (x + y) * (x - var(1, 2, I))
    assert split_linear(skew, rational_points_only=False) is None


def test_split_linear_rejects_wide_support():
    x, y, z = var(0), var(1), var(2)
    p = x * y + y * z + x * z
    assert split_linear(p) is None


def test_split_linear_mixed_power():
    x, y, y2 = var(0), var(1), var(1, c=2)
    p = (x + y2) * (x + y2) * y
    factors = split_linear(p)
    assert factors is not None
    assert len(factors) == 2


def test_split_linear_gives_up_above_the_divisor_cap():
    # (x - 10000019 y)(x - y) vanishes at (1, 1); its constant term is
    # too large to enumerate divisors, so no cover may be claimed
    x, y = var(0, 2), var(1, 2)
    p = (x - var(1, 2, 10000019)) * (x - y)
    assert p.evaluate([1, 1]) == 0
    assert split_linear(p) is None
    assert split_linear(p, rational_points_only=False) is None
    # the same shape below the cap splits into its two linear factors
    small = (x - var(1, 2, 19)) * (x - y)
    factors = split_linear(small)
    assert factors is not None and len(factors) == 2
    assert all(f.evaluate([19, 1]) == 0 or f.evaluate([1, 1]) == 0 for f in factors)
