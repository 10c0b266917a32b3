"""Lie algebras given by structure constants.

An algebra is a labeled basis plus the sparse tensor c_{ij}^k for i < j
(antisymmetry supplies the rest).  The Jacobi identity is verified at
construction and load time, so downstream rank computations can trust
the tensor.  Generators cover the Heisenberg algebra on
(z, u_1..u_n, v_1..v_n), sl2 on (e, h, f), and abelian algebras; the
Schrodinger algebra is built in ``schrodinger``.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

from .exactfield import FIELD_Q, Field, Frozen, field_of, format_scalar, setfield
from .linalg import MapIndex, encode_columns


class JacobiError(ValueError):
    """A bracket table violating the Jacobi identity, with the offending
    triple; ``algebra`` is the rejected table, kept for its name,
    dimension and field (it is not a Lie algebra)."""

    def __init__(self, triple, algebra):
        self.triple = triple
        self.algebra = algebra
        super().__init__(f"Jacobi identity fails on basis triple {triple}")


class JacobiVerdict(Frozen):
    __slots__ = __match_args__ = ("ok", "failing_triple")

    def __init__(self, ok: bool, failing_triple: Optional[tuple] = None):
        super().__init__(ok, failing_triple)


class LieAlgebra(Frozen):
    """Finite-dimensional Lie algebra over Q or Q(i) by structure constants.

    Besides the field-scalar ``table`` it keeps the constants in integer
    form (``Field.encode``), all at one positive scale ``table_scale``:
    ``integer_table[(i, j)]`` is the form of [b_i, b_j] in both orders,
    ``partners[i]`` lists the j with [b_i, b_j] != 0 and ``onto[k]`` the
    pairs (i, j), i < j, with c_ij^k != 0, both in ascending order.
    ``ad_images`` applies every ad_{b_k} at once to an integer vector
    through ``_ad``, the ad maps indexed by input column (``MapIndex``)."""

    # rebuilt through the constructor, which checks Jacobi again
    __match_args__ = ("name", "field", "labels", "table")
    __slots__ = (
        "name", "field", "labels", "index", "table", "integer_table",
        "table_scale", "partners", "onto", "_ad",
    )

    def __init__(self, name: str, field: Field, labels: Sequence[str], brackets):
        """brackets: {(i, j): {k: scalar}} for i < j, giving [b_i, b_j] = sum c^k b_k."""
        if not isinstance(field, Field):
            raise TypeError(f"field must be FIELD_Q or FIELD_QI, got {field!r}")
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate basis labels")
        table = {}
        for (i, j), terms in brackets.items():
            if not 0 <= i < j < len(labels):
                raise ValueError(f"bad bracket pair ({i}, {j})")
            clean = {}
            for k, c in terms.items():
                if not 0 <= k < len(labels):
                    raise ValueError(f"bad bracket target index {k}")
                c = field.coerce(c)
                if c:
                    clean[k] = c
            if clean:
                table[(i, j)] = clean
        setfield(self, "name", name)
        setfield(self, "field", field)
        setfield(self, "labels", labels)
        setfield(self, "index", {lab: i for i, lab in enumerate(labels)})
        setfield(self, "table", table)
        forms, scale = encode_columns(field, tuple(table.values()), len(labels))
        ints, partners, onto = {}, [[] for _ in labels], [[] for _ in labels]
        for (i, j), form in zip(table, forms):
            ints[(i, j)], ints[(j, i)] = form, {q: -v for q, v in form.items()}
            partners[i].append(j)
            partners[j].append(i)
            for k in table[(i, j)]:
                onto[k].append((i, j))
        partners = tuple(tuple(sorted(p)) for p in partners)
        setfield(self, "integer_table", ints)
        setfield(self, "table_scale", scale)
        setfield(self, "partners", partners)
        setfield(self, "onto", tuple(tuple(sorted(p)) for p in onto))
        # column r of ad_(b_k) is [b_k, b_r]
        maps = ({r: ints[k, r] for r in p} for k, p in enumerate(partners))
        setfield(self, "_ad", MapIndex(field, maps))
        verdict = check_jacobi(self)
        if not verdict.ok:
            raise JacobiError(verdict.failing_triple, self)

    @property
    def dim(self) -> int:
        return len(self.labels)

    def __repr__(self):
        return f"LieAlgebra({self.name!r}, dim {self.dim} over {self.field})"

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return (
            self.field == other.field
            and self.labels == other.labels
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self.field, self.labels))

    def ad_images(self, parts: dict) -> dict:
        """The nonzero [b_k, x] in integer form by k, ascending, given the
        integer form ``parts`` of x, at ``table_scale`` times its scale."""
        return self._ad.images(parts)

    def element(self, coords: Sequence) -> "AlgebraElement":
        return AlgebraElement(self, tuple(map(self.field.coerce, coords)))


class AlgebraElement(Frozen):
    """Element of a LieAlgebra in basis coordinates."""

    __slots__ = __match_args__ = ("algebra", "coords")

    def __init__(self, algebra: LieAlgebra, coords: tuple):
        if len(coords) != algebra.dim:
            raise ValueError("coordinate length does not match algebra dimension")
        setfield(self, "algebra", algebra)
        setfield(self, "coords", coords)


def check_jacobi(L: LieAlgebra) -> JacobiVerdict:
    """Verify [[a,b],c] + [[b,c],a] + [[c,a],b] = 0 on all basis triples.

    With N_xy[z] the integer form of [b_z, [b_x, b_y]] (``ad_images``),
    the sum is -(N_ab[c] + N_bc[a] - N_ac[b]).  A triple none of whose
    three terms is nonzero sums to zero, so only the triples {x, y, z}
    with N_xy[z] != 0 are visited, in sorted order: the failing triple
    reported is the first one."""
    nested = {
        (x, y): L.ad_images(form) for (x, y), form in L.integer_table.items() if x < y
    }
    triples = {
        tuple(sorted((x, y, z))) for (x, y), img in nested.items() for z in img if z != x and z != y
    }
    empty: dict = {}
    for a, b, c in sorted(triples):
        acc = dict(nested.get((a, b), empty).get(c, empty))
        for q, v in nested.get((b, c), empty).get(a, empty).items():
            acc[q] = acc.get(q, 0) + v
        for q, v in nested.get((a, c), empty).get(b, empty).items():
            acc[q] = acc.get(q, 0) - v
        if any(acc.values()):
            return JacobiVerdict(False, (L.labels[a], L.labels[b], L.labels[c]))
    return JacobiVerdict(True)


def make_heisenberg(n: int, field: Field = FIELD_Q) -> LieAlgebra:
    """Heisenberg algebra h_n on (z, u_1..u_n, v_1..v_n): [u_k, v_k] = z, z central."""
    if n < 1:
        raise ValueError("n must be at least 1")
    labels = ["z"] + [f"u_{k}" for k in range(1, n + 1)] + [f"v_{k}" for k in range(1, n + 1)]
    br = {(k, n + k): {0: 1} for k in range(1, n + 1)}
    return LieAlgebra(f"heisenberg_{n}", field, labels, br)


def make_sl2(field: Field = FIELD_Q) -> LieAlgebra:
    """sl2 on (e, h, f): [h,e]=2e, [h,f]=-2f, [e,f]=h."""
    return LieAlgebra(
        "sl2", field, ["e", "h", "f"], {(0, 1): {0: -2}, (0, 2): {1: 1}, (1, 2): {2: -2}}
    )


def make_abelian(k: int, field: Field = FIELD_Q) -> LieAlgebra:
    """Abelian algebra of dimension k (all brackets zero)."""
    if k < 1:
        raise ValueError("dimension must be at least 1")
    return LieAlgebra(f"abelian_{k}", field, [f"x_{i}" for i in range(1, k + 1)], {})


def save(L: LieAlgebra, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(L))


def to_json(L: LieAlgebra) -> str:
    brackets = []
    for (i, j) in sorted(L.table):
        terms = [
            {"basis": L.labels[k], "coeff": format_scalar(c)}
            for k, c in sorted(L.table[(i, j)].items())
        ]
        brackets.append({"left": L.labels[i], "right": L.labels[j], "terms": terms})
    doc = {"name": L.name, "field": L.field.tag, "labels": list(L.labels), "brackets": brackets}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load(path: str) -> LieAlgebra:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return from_json(text)


def _expect_keys(obj: dict, keys: set, where: str):
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be an object")
    extra = set(obj) - keys
    if extra:
        raise ValueError(f"unknown keys {sorted(extra)} in {where}")
    missing = keys - set(obj)
    if missing:
        raise ValueError(f"missing keys {sorted(missing)} in {where}")


def from_json(text: str) -> LieAlgebra:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed algebra file: {exc}") from exc
    except RecursionError:
        raise ValueError("malformed algebra file: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("malformed algebra file: top level must be an object")
    _expect_keys(doc, {"name", "field", "labels", "brackets"}, "algebra file")
    field = field_of(doc["field"])
    labels = doc["labels"]
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise ValueError("labels must be a list of strings")
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate basis labels")
    index = {lab: i for i, lab in enumerate(labels)}
    if not isinstance(doc["brackets"], list):
        raise ValueError("brackets must be a list")
    table: dict = {}
    for entry in doc["brackets"]:
        _expect_keys(entry, {"left", "right", "terms"}, "bracket entry")
        if not isinstance(entry["left"], str) or not isinstance(entry["right"], str):
            raise ValueError("bracket entry labels must be strings")
        if not isinstance(entry["terms"], list):
            raise ValueError("bracket terms must be a list")
        try:
            li, ri = index[entry["left"]], index[entry["right"]]
        except KeyError as exc:
            raise ValueError(f"unknown basis label {exc.args[0]!r}") from exc
        if li == ri:
            raise ValueError(f"bracket of {entry['left']!r} with itself must be zero")
        terms = {}
        for term in entry["terms"]:
            _expect_keys(term, {"basis", "coeff"}, "bracket term")
            if not isinstance(term["basis"], str) or term["basis"] not in index:
                raise ValueError(f"unknown basis label {term['basis']!r}")
            k = index[term["basis"]]
            c = field.parse(term["coeff"])
            if c:
                terms[k] = terms.get(k, field.zero) + c
        terms = {k: c for k, c in terms.items() if c}
        i, j = (li, ri) if li < ri else (ri, li)
        stored = {k: (c if li < ri else -c) for k, c in terms.items()}
        if (i, j) in table:
            if table[(i, j)] != stored:
                raise ValueError(
                    f"inconsistent duplicate bracket for ({labels[i]}, {labels[j]})"
                )
        else:
            table[(i, j)] = stored
    name = doc["name"]
    if not isinstance(name, str):
        raise ValueError("name must be a string")
    return LieAlgebra(name, field, labels, table)
