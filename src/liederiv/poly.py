"""Sparse multivariate polynomials over an exact field.

Terms map dense exponent tuples to nonzero coefficients; the zero
polynomial has no terms.  Intended for the small symbolic systems of
the locality certifier (at most nine variables, minors of linear
forms), so the determinant uses column-subset dynamic programming
rather than anything clever.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence


class MultiPoly:
    """Polynomial in nvars variables with exact coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Optional[dict] = None):
        self.nvars = nvars
        self.terms = {e: c for e, c in (terms or {}).items() if c}

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, c) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def variable(cls, nvars: int, i: int, coeff=1) -> "MultiPoly":
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): coeff} if coeff else {})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def _check(self, other: "MultiPoly"):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            cur = out.get(e)
            nv = c if cur is None else cur + c
            if nv:
                out[e] = nv
            else:
                out.pop(e, None)
        return MultiPoly(self.nvars, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                cur = out.get(e)
                nv = c1 * c2 if cur is None else cur + c1 * c2
                if nv:
                    out[e] = nv
                else:
                    out.pop(e, None)
        return MultiPoly(self.nvars, out)

    def evaluate(self, point: Sequence):
        """Exact value at a point (length nvars)."""
        if len(point) != self.nvars:
            raise ValueError("point length mismatch")
        total = None
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                for _ in range(k):
                    v = v * x
            total = v if total is None else total + v
        return total if total is not None else Fraction(0)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mon = "*".join(
                f"x{i}" + (f"^{k}" if k > 1 else "") for i, k in enumerate(e) if k
            )
            parts.append(f"({c})" + (f"*{mon}" if mon else ""))
        return " + ".join(parts)


def poly_det(rows: Sequence[Sequence[MultiPoly]]) -> MultiPoly:
    """Determinant of a square MultiPoly matrix by column-subset DP."""
    k = len(rows)
    if k == 0:
        raise ValueError("empty determinant")
    nvars = rows[0][0].nvars
    if any(len(r) != k for r in rows):
        raise ValueError("determinant needs a square matrix")
    dp = {0: MultiPoly.const(nvars, 1)}
    for r in range(k):
        ndp: dict = {}
        row = rows[r]
        for mask, minor in dp.items():
            if minor.is_zero():
                continue
            for c in range(k):
                bit = 1 << c
                if mask & bit:
                    continue
                entry = row[c]
                if entry.is_zero():
                    continue
                below = bin(mask & (bit - 1)).count("1")
                term = minor * entry
                if (r + below) % 2:
                    term = -term
                cur = ndp.get(mask | bit)
                ndp[mask | bit] = term if cur is None else cur + term
        dp = ndp
    full = (1 << k) - 1
    return dp.get(full, MultiPoly.zero(nvars))


def _rational_roots(coeffs: list[Fraction]) -> Optional[list[Fraction]]:
    """Rational roots of sum coeffs[j] t^j, with multiplicity collapsed.

    Integer divisor enumeration is capped; when an extreme coefficient
    is too large to enumerate the candidates, the roots are unknown and
    the result is None.
    """
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    if len(coeffs) <= 1:
        return []
    den_lcm = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den_lcm) for c in coeffs]
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    lead, trail = ints[-1], ints[0]
    if trail == 0:
        return []  # callers strip variable content first
    numerators, denominators = _divisors(abs(trail)), _divisors(abs(lead))
    if numerators is None or denominators is None:
        return None
    roots = []
    for p in numerators:
        for q in denominators:
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand in roots:
                    continue
                acc = Fraction(0)
                for c in reversed(ints):
                    acc = acc * cand + c
                if not acc:
                    roots.append(cand)
    return roots


_DIVISOR_CAP = 10**7


def _divisors(n: int) -> Optional[list[int]]:
    """Positive divisors of n, or None above the enumeration cap."""
    if n > _DIVISOR_CAP:
        return None
    if n == 0:
        return []
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _divide_by_linear(coeffs: list[Fraction], r: Fraction) -> tuple[list[Fraction], Fraction]:
    """Synthetic division of sum coeffs[j] t^j by (t - r): (quotient, remainder)."""
    m = len(coeffs) - 1
    quot = [Fraction(0)] * m
    carry = coeffs[m]
    for j in range(m - 1, -1, -1):
        quot[j] = carry
        carry = coeffs[j] + r * carry
    return quot, carry


def split_linear(p: MultiPoly, rational_points_only: bool = True) -> Optional[list[MultiPoly]]:
    """Linear forms ell_i whose hyperplanes cover the zero set of p, or None.

    Handles variable (monomial) factors and homogeneous polynomials
    supported on at most two variables.  With ``rational_points_only``
    an irreducible bivariate residue is acceptable: its only rational
    zero has both variables zero, which one of the variable hyperplanes
    already covers.  Without that assumption the polynomial must split
    completely over Q.
    """
    if p.is_zero() or not p.is_homogeneous():
        return None
    factors: list[MultiPoly] = []
    terms = dict(p.terms)
    for i in range(p.nvars):
        m = min(e[i] for e in terms)
        if m > 0:
            factors.append(MultiPoly.variable(p.nvars, i))
            terms = {
                tuple(k - (m if t == i else 0) for t, k in enumerate(e)): c
                for e, c in terms.items()
            }
    rest = MultiPoly(p.nvars, terms)
    if rest.degree() <= 0:
        return factors if factors else None
    if rest.degree() == 1:
        factors.append(rest)
        return factors
    support = sorted({i for e in rest.terms for i, k in enumerate(e) if k})
    if len(support) != 2:
        return None
    x, y = support
    deg = rest.degree()
    coeffs = [Fraction(0)] * (deg + 1)
    for e, c in rest.terms.items():
        if not isinstance(c, (int, Fraction)):
            return None
        coeffs[e[x]] = Fraction(c)
    # rest(x, y) = y^deg * A(x/y) with A(t) = sum coeffs[j] t^j; a_0, a_deg != 0
    roots = _rational_roots(list(coeffs))
    if roots is None:
        return None  # the candidate roots are too many to enumerate
    work = list(coeffs)
    for r in roots:
        while len(work) > 1:
            quot, rem = _divide_by_linear(work, r)
            if rem:
                break
            work = quot
            lin = MultiPoly.variable(p.nvars, x) - MultiPoly.variable(p.nvars, y, r)
            if not any(f.terms == lin.terms for f in factors):
                factors.append(lin)
    if len(work) > 1:
        # Residue has no rational roots.  Its rational zeros force both
        # support variables to vanish, so one variable hyperplane covers
        # them; over larger scalar fields that shortcut is unsound.
        if not rational_points_only:
            return None
        factors.append(MultiPoly.variable(p.nvars, x))
    return factors
