"""Shared helpers: random exact scalars, an independent elimination
oracle used to cross-check the production linear algebra, and dense
oracles for the sparse derivation check and the sparse witness solve."""

from fractions import Fraction

from liederiv.exactfield import FIELD_Q, GaussianRational, zero
from liederiv.liealg import bracket
from liederiv.linalg import Matrix, rref


def rand_fraction(rng, lo=-9, hi=9, den=4):
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def rand_gauss(rng, lo=-9, hi=9, den=4):
    return GaussianRational(rand_fraction(rng, lo, hi, den), rand_fraction(rng, lo, hi, den))


def rand_scalar(rng, field=FIELD_Q):
    return rand_fraction(rng) if field == FIELD_Q else rand_gauss(rng)


def naive_rank(rows):
    """Textbook forward elimination over exact scalars, kept independent
    of the production echelon code."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col] / pv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def back_multiply(rows, vec):
    """Exact products row . vec for every row (the nullspace oracle)."""
    return [sum((a * b for a, b in zip(row, vec) if a and b), 0 * vec[0]) for row in rows]


def dense_is_derivation(L, D):
    """(ok, failing_pair) of the product rule on all basis pairs, through
    dense elements and ``bracket``; the first failing pair in row-major
    order, as the production check reports it."""
    for i in range(L.dim):
        xi = L.basis_element(i)
        dxi = L.element(D.col(i))
        for j in range(i + 1, L.dim):
            xj = L.basis_element(j)
            lhs = L.element(D.matvec(bracket(xi, xj).coords))
            rhs = bracket(dxi, xj) + bracket(xi, L.element(D.col(j)))
            if lhs.coords != rhs.coords:
                return False, (L.labels[i], L.labels[j])
    return True, None


def dense_witness(L, der, delta, x):
    """Coefficients of the canonical RREF solution of
    sum c_k D_k(x) = Delta(x) over the Der basis, or None when there is
    none: the dense route through ``matvec`` and ``rref``."""
    target = delta.matvec(x.coords)
    images = [D.matvec(x.coords) for D in der.basis]
    m = len(images)
    aug = Matrix(L.field, [list(col) + [t] for col, t in zip(zip(*images), target)])
    red, rank = rref(aug)
    pivots = [next(j for j, v in enumerate(row) if v) for row in red.entries[:rank]]
    if m in pivots:
        return None
    coeffs = [zero(L.field)] * m
    for row, p in zip(red.entries[:rank], pivots):
        coeffs[p] = row[m]
    return tuple(coeffs)
