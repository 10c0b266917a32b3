"""Exact scalar arithmetic over Q and Q(i).

Rationals are ``fractions.Fraction`` (arbitrary-precision, always reduced,
positive denominator), in Q and in Q(i) alike: a real value of Q(i) is
the same ``Fraction`` as over Q, and only a value with a nonzero
imaginary part is a ``GaussianRational``, a pair of Fractions with
i**2 = -1.  Everything is immutable; equality is structural.

The two fields are the ``Field`` objects ``FIELD_Q`` and ``FIELD_QI``.
Their tags, "Q" and "Qi", appear only in algebra files, at ``--field``
and in reports; ``field_of`` turns a tag from outside into its field.
Each field also owns the integer form that ``linalg.SparseEchelon``
eliminates in: a row over Q is stored with its denominators cleared, a
row over Q(i) as its real and imaginary parts side by side.  ``Frozen``,
the base of the package's immutable value types, lives here, in the
module every other one imports.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd


class FieldMismatchError(ValueError):
    """Raised when operands belong to different fields."""


# sets a field of a Frozen past its raising __setattr__; a module global
# is looked up faster than the attribute of ``object``
setfield = object.__setattr__


class Frozen:
    """Base of the package's immutable value types.  A subclass names its
    fields in constructor order in ``__match_args__`` and lists them (and
    any derived ones) in ``__slots__``.  The constructor takes one value
    per field, positionally, and stores each with ``setfield`` (a wrong
    count raises TypeError); a subclass that checks, derives or defaults
    values writes its own.  Any later assignment or deletion raises
    AttributeError; unless the subclass defines its own, ``==`` and the
    hash go field by field (``==`` only between instances of one class)
    and the repr reads ``Name(field=value, ..)``; copies and pickles are
    rebuilt through the constructor."""

    __slots__ = ()

    def __init__(self, *values):
        names = self.__match_args__
        if len(values) != len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} values, got {len(values)}")
        for name, value in zip(names, values):
            setfield(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class GaussianRational(Frozen):
    """Element a + b*i of Q(i) with b != 0, a and b reduced Fractions.

    A real value of Q(i) is the ``Fraction`` itself, the same object as
    over Q: ``GaussianRational(a, 0)`` returns ``Fraction(a)``, and so does
    every operation whose result has a zero imaginary part.  So an
    instance of this class is never zero (it is always true), it is
    never equal to a rational, and arithmetic on two real values is
    plain ``Fraction`` arithmetic.
    """

    __slots__ = __match_args__ = ("re", "im")

    # built in __new__: the generic constructor would store the raw parts
    __init__ = object.__init__

    def __new__(cls, re=0, im=0):
        # Fraction(x) rebuilds even a Fraction; the parts are immutable,
        # so an exact Fraction is stored as it is
        if type(re) is not Fraction:
            re = Fraction(re)
        if type(im) is not Fraction:
            im = Fraction(im)
        if not im:
            return re
        g = object.__new__(cls)
        setfield(g, "re", re)
        setfield(g, "im", im)
        return g

    def __add__(self, other):
        if type(other) is GaussianRational:
            return GaussianRational(self.re + other.re, self.im + other.im)
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is GaussianRational:
            return GaussianRational(self.re - other.re, self.im - other.im)
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if type(other) is GaussianRational:
            return GaussianRational(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        # never zero, since the imaginary part is not
        n = self.re * self.re + self.im * self.im
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self * inv(other)
        return NotImplemented

    def __rtruediv__(self, other):
        return self.inverse().__mul__(other)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __eq__(self, other):
        # a rational is never equal to a non-real value; NotImplemented
        # lets Python compare them by identity
        if type(other) is not GaussianRational:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


I = GaussianRational(0, 1)


def inv(a):
    """Exact multiplicative inverse: a Fraction for ``int`` and Fraction
    input (never a float), ``a.inverse()`` in Q(i); raises
    ZeroDivisionError on zero."""
    if type(a) is Fraction:
        return Fraction(a.denominator, a.numerator)
    if isinstance(a, GaussianRational):
        return a.inverse()
    return Fraction(1, a)


_RAT_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def _parse_rational(text: str) -> Fraction:
    if not _RAT_RE.match(text):
        raise ValueError(f"malformed rational {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def format_rational(a: Fraction) -> str:
    return f"{a.numerator}/{a.denominator}"


def format_scalar(x) -> str:
    """Canonical text form: ``p/q`` over Q, ``p/q+r/s*i`` over Q(i)."""
    if isinstance(x, GaussianRational):
        im = format_rational(abs(x.im)) + "*i"
        sign = "+" if x.im > 0 else "-"
        if not x.re:
            return ("" if x.im > 0 else "-") + im
        return format_rational(x.re) + sign + im
    return format_rational(Fraction(x))


def _parse_q(text) -> Fraction:
    if not isinstance(text, str):
        raise ValueError(f"scalar must be a string, got {text!r}")
    s = text.strip()
    if not s:
        raise ValueError("empty scalar")
    return _parse_rational(s)


def _parse_qi(text):
    """Parse the canonical Q(i) syntax; exact round-trip with format_scalar.

    Accepted: ``p/q``, ``r/s*i``, ``p/q+r/s*i``, ``p/q-r/s*i``, and bare
    ``i`` / ``+i`` / ``-i`` (meaning 0/1+1/1*i up to sign).  Denominators
    are optional (``3`` means ``3/1``).
    """
    if not isinstance(text, str) or "i" not in text:
        return _parse_q(text)
    s = text.strip()
    if not s.endswith("i") or s.count("i") != 1:
        raise ValueError(f"malformed Q(i) scalar {text!r}")
    body = s[:-1]
    starred = body.endswith("*")
    if starred:
        body = body[:-1]
    cut = max(body.rfind("+", 1), body.rfind("-", 1))
    re_text, im_text = (body[:cut], body[cut:]) if cut > 0 else ("", body)
    re_part = _parse_rational(re_text) if re_text else Fraction(0)
    if im_text in ("", "+"):
        if starred:
            raise ValueError(f"malformed Q(i) scalar {text!r}")
        im_part = Fraction(1)
    elif im_text == "-":
        if starred:
            raise ValueError(f"malformed Q(i) scalar {text!r}")
        im_part = Fraction(-1)
    else:
        if not starred:
            raise ValueError(f"malformed Q(i) scalar {text!r}")
        im_part = _parse_rational(im_text)
    return GaussianRational(re_part, im_part)


def _coerce_q(x) -> Fraction:
    if type(x) is Fraction:
        # Fraction(x) would rebuild an already exact, immutable value
        return x
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, GaussianRational):
        raise FieldMismatchError(f"{x} is not rational")
    raise FieldMismatchError(f"cannot interpret {x!r} over Q")


def _coerce_qi(x):
    # Q is a subset of Q(i): a rational is its own image, as a Fraction
    if type(x) is Fraction or isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise FieldMismatchError(f"cannot interpret {x!r} over Qi")


def _encode_q(row: dict) -> dict:
    # one pass over the entries, each numerator taken over the lcm ``den``
    # of the denominators so far; a denominator that raises ``den``
    # rescales the entries already out
    out, den = {}, 1
    for c, x in row.items():
        if type(x) is not Fraction:
            x = _coerce_q(x)
        d = x.denominator
        if den % d:
            k = d // gcd(den, d)
            den *= k
            for j in out:
                out[j] *= k
        if n := x.numerator:
            out[c] = n * (den // d)
    return out


def _decode_q(row: dict, pivot: int) -> dict:
    p = row[pivot]
    if p == 1:
        return {c: Fraction(x) for c, x in row.items()}
    return {c: Fraction(x, p) for c, x in row.items()}


def _encode_qi(row: dict) -> dict:
    parts = {}
    for c, x in row.items():
        if type(x) is GaussianRational:
            parts[2 * c], parts[2 * c + 1] = x.re, x.im
        else:
            parts[2 * c] = x if type(x) is Fraction else _coerce_qi(x)
    return _encode_q(parts)


def _decode_qi(row: dict, pivot: int) -> dict:
    # the row over Q(i) whose real form is ``row``, divided by its entry
    # a + b*i at column pivot // 2: (x + y*i) / (a + b*i) is
    # ((x*a + y*b) + (y*a - x*b)*i) / (a*a + b*b)
    a, b = row.get(pivot & ~1, 0), row.get(pivot | 1, 0)
    n = a * a + b * b if b else a
    out = {}
    for k in row:
        c = k >> 1
        if c not in out:
            x, y = row.get(2 * c, 0), row.get(2 * c + 1, 0)
            if b:
                x, y = x * a + y * b, y * a - x * b
            if n != 1:
                x, y = Fraction(x, n), Fraction(y, n)
            out[c] = GaussianRational(x, y)
    return out


def _times_i(row: dict) -> tuple:
    # i * (x + y*i) = -y + x*i on each pair of real columns
    return ({k - 1 if k & 1 else k + 1: -x if k & 1 else x for k, x in row.items()},)


def _dot_forms_qi(row: dict) -> tuple:
    # for s = x + y*i at columns 2c, 2c + 1 and r = a + b*i, r*s has real
    # part a*x - b*y and imaginary part a*y + b*x: the forms of conj(s)
    # and of i*conj(s)
    return ({k: -x if k & 1 else x for k, x in row.items()}, {k ^ 1: x for k, x in row.items()})


class Field(Frozen):
    """Q or Q(i): ``zero``, ``one``, ``coerce(x)``, x as an element of the
    field or FieldMismatchError (rationals embed into Q(i); a non-real
    Gaussian rational is not in Q), and ``parse(text)``, the canonical
    scalar syntax.  Copies and pickles give back the same object.

    The integer form of a sparse row ``{column: scalar}`` spends
    ``width`` integer columns on each field column: one over Q, the real
    and the imaginary part (columns 2c and 2c + 1) over Q(i).

    - ``encode(row)``: the row in integer form, scaled by a positive
      integer that clears every denominator; zero entries are dropped,
      and an entry outside the field raises FieldMismatchError.
    - ``decode(row, pivot)``: the row over the field, keyed by field
      column, that ``row`` is the integer form of, divided by its entry
      at field column ``pivot // width``.
    - ``rotations(row)``: the integer forms of u*r for the units u other
      than 1 of the field's basis over Q (none over Q, i*r over Q(i)),
      given the integer form of r.  Together with r they span, over Q,
      the line of r over the field.
    - ``dot_forms(row)``: given the integer form of s, integer rows whose
      dot products with the integer form of any row r all vanish exactly
      when the bilinear product r . s = sum_c r_c s_c does: the form of s
      itself over Q; over Q(i), the forms of conj(s) and i*conj(s), whose
      products with the form of r are Re(r . s) and Im(r . s).
    """

    __slots__ = __match_args__ = (
        "tag", "zero", "one", "coerce", "parse", "width", "encode", "decode", "rotations",
        "dot_forms",
    )

    # one object per field: equal and hashed by identity
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __repr__(self):
        return self.tag

    def __reduce__(self):
        return field_of, (self.tag,)


FIELD_Q = Field(
    "Q",
    Fraction(0),
    Fraction(1),
    _coerce_q,
    _parse_q,
    1,
    _encode_q,
    _decode_q,
    lambda row: (),
    lambda row: (row,),
)
FIELD_QI = Field(
    "Qi",
    Fraction(0),
    Fraction(1),
    _coerce_qi,
    _parse_qi,
    2,
    _encode_qi,
    _decode_qi,
    _times_i,
    _dot_forms_qi,
)


def field_of(tag) -> Field:
    """The field named by a tag read from a file or the command line."""
    for field in (FIELD_Q, FIELD_QI):
        if field.tag == tag:
            return field
    raise ValueError(f"unknown field tag {tag!r}")


def integer_key(field: Field, parts: dict) -> tuple:
    """The same key for every nonzero multiple over ``field`` of the vector
    with the integer form ``parts`` != 0: the form of x * conj(l), l its
    leading coordinate, which makes l the positive |l|**2, over its content."""
    lead = min(parts) // field.width * field.width
    weights = (parts.get(lead, 0), -parts.get(lead + 1, 0))
    key: dict = {}
    # over Q, zip stops after the form of x and its weight l
    for form, a in zip((parts, *field.rotations(parts)), weights):
        for c, v in form.items():
            key[c] = key.get(c, 0) + a * v
    g = gcd(*key.values())
    return tuple(sorted((c, v // g) for c, v in key.items() if v))
