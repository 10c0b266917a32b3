"""Local-derivation analysis by exact constraint accumulation.

A linear map Delta is a local derivation when Delta(x) lands in the
orbit subspace W_x = {D(x) : D in Der} for every x.  Each fixed probe x
contributes the linear condition Delta(x) in W_x; intersecting those
conditions over a probe set yields a candidate space squeezed between
Der and the set of all local derivations.  When the candidate dimension
collapses to dim Der, the containment chain

    Der  <=  local derivations  <=  candidate space

proves that every local derivation is a derivation for that algebra.

The fold and the seeded random closure over Q (an independent route to
the same dimension) work on any structure-constant algebra, as does the
symbolic certifier (``certifier``, which settles the universal
quantification over all x for small algebras).  A fixed probe schedule
for one family of algebras, and the replay that folds it, belong with
that family (see ``schrodinger``).
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain
from typing import Optional

from .exactfield import Frozen, GaussianRational, integer_key, setfield
from .liealg import AlgebraElement, LieAlgebra
from .linalg import SparseEchelon, Subspace
from .dersolve import DerivationSpace

DEFAULT_SEED = 0x5EED
DEFAULT_MAX_PROBES = 4000
DEFAULT_STALL_LIMIT = 800


class CertificationError(RuntimeError):
    """The symbolic certifier could not settle the input within its bounds."""


class Probe(Frozen):
    """A nonzero test element with a stable label for reports.

    A member of a probe family names its ``seed`` probe and the basis
    permutation ``sigma`` that moves the seed onto it, as (i, sigma(i))
    pairs over the indices sigma moves; ``fold`` checks both."""

    __slots__ = __match_args__ = ("element", "label", "seed", "sigma")

    def __init__(
        self, element: AlgebraElement, label: str, seed: Optional[Probe] = None, sigma: tuple = ()
    ):
        if element.is_zero():
            raise ValueError("zero probe carries no information")
        setfield(self, "element", element)
        setfield(self, "label", label)
        setfield(self, "seed", seed)
        setfield(self, "sigma", sigma)


class ProbeStep(Frozen):
    __slots__ = __match_args__ = ("probe", "dim_before", "dim_after")

    def __init__(self, probe: str, dim_before: int, dim_after: int):
        setfield(self, "probe", probe)
        setfield(self, "dim_before", dim_before)
        setfield(self, "dim_after", dim_after)


def probe_label(x: AlgebraElement) -> str:
    parts = []
    for c, lab in zip(x.coords, x.algebra.labels):
        if not c:
            continue
        text = _coeff_text(c)
        if text == "1":
            parts.append(f"+{lab}")
        elif text == "-1":
            parts.append(f"-{lab}")
        else:
            sign = "+" if not text.startswith("-") else ""
            parts.append(f"{sign}{text}*{lab}")
    joined = "".join(parts)
    return joined[1:] if joined.startswith("+") else joined


def _coeff_text(c) -> str:
    if isinstance(c, GaussianRational):
        re = _coeff_text(c.re) if c.re else ""
        im = "i" if c.im == 1 else ("-i" if c.im == -1 else f"{_coeff_text(c.im)}*i")
        if not re:
            return im
        return f"({re}{'+' if not im.startswith('-') else ''}{im})"
    return str(c)


def _integer_form(x: AlgebraElement) -> dict:
    """The integer form (``Field.encode``) of the coordinates of x."""
    return x.algebra.field.encode({j: c for j, c in enumerate(x.coords) if c})


def _orbit_echelon(der: DerivationSpace, parts: dict) -> SparseEchelon:
    """Echelon whose row space is W_x, given the integer form ``parts``
    of x, fed by one integer image pass (``DerivationSpace.images``)."""
    acc = SparseEchelon(der.algebra.field, der.algebra.dim)
    for img in der.images(parts).values():
        acc.insert_integer(img)
    return acc


class CandidateSpace:
    """The candidate space of a probe fold over ``der``: the one mutable
    fold accumulator, and the fold's result.

    ``CandidateSpace(der)`` is the full map space of ``der.algebra``.
    ``constrain`` and ``fold`` cut it in place: ``echelon`` gathers the
    annihilator rows on the flattened map space, ``history`` the
    ``ProbeStep`` of every probe not skipped, ``seen`` their
    ``integer_key``.  ``seed`` and ``stop_reason`` stay None unless
    ``random_probe_closure`` sets them; its stop reason is "collapsed",
    "stalled" or "budget", and the report carries it, so a "stalled" or
    "budget" run reads as inconclusive rather than as a counterexample.
    ``space`` computes the subspace when read.
    """

    __slots__ = ("der", "echelon", "history", "seen", "seed", "stop_reason")

    def __init__(self, der: DerivationSpace):
        L = der.algebra
        self.der = der
        self.echelon = SparseEchelon(L.field, L.dim ** 2)
        self.history: list[ProbeStep] = []
        self.seen: set = set()
        self.seed: Optional[int] = None
        self.stop_reason: Optional[str] = None

    @property
    def dim(self) -> int:
        return self.der.algebra.dim ** 2 - self.echelon.rank

    @property
    def space(self) -> Subspace:
        return self.echelon.nullspace().row_space()

    @property
    def equal(self) -> bool:
        return self.dim == self.der.dim

    def to_report(self, n: Optional[int]) -> dict:
        """The fold report; ``n`` is the family index the caller knows the
        algebra by (the rank of S_n), None otherwise."""
        L = self.der.algebra
        return {
            "algebra": L.name,
            "n": n,
            "field": L.field.tag,
            "der_dim": self.der.dim,
            "candidate_dim": self.dim,
            "equal": self.equal,
            "history": [
                {"probe": s.probe, "dim_before": s.dim_before, "dim_after": s.dim_after}
                for s in self.history
            ],
            "seed": self.seed,
            "stop_reason": self.stop_reason,
        }


def constrain(acc: CandidateSpace, probe: Probe) -> None:
    """Cut the candidate space ``acc`` in place down to its meet with
    {Delta : Delta(x) in W_x}, W_x spanned over the Der of ``acc``.

    A probe with the ``integer_key`` of an earlier one is a multiple of
    it and is skipped.  All else runs on integer forms (``Field.encode``):
    the orbit echelon of x is fed the integer images, and any basis of its
    annihilator cuts the same candidate, so the basis is the echelon's
    ``integer_nullspace``.  The constraint row of an annihilator vector p
    is x_j * p_i at map column j*d + i: the part x_q (q = w*j + t) times
    the form of u_t*p (``Field.rotations``), placed at block j.  Each row
    of the probe is dotted with every row of Der, ``der.rows``
    (``DerivationSpace.residues``), not with the columns the orbit came
    from, before any is inserted, which asserts Der <= candidate at each
    stage; a failed check raises and leaves ``acc`` as it was.
    """
    _cut(acc, probe, _probe_form(acc.der, probe), None)


def _probe_form(der: DerivationSpace, probe: Probe) -> dict:
    if probe.element.algebra != der.algebra:
        raise ValueError("probe element belongs to a different algebra")
    return _integer_form(probe.element)


def _cut(acc: CandidateSpace, probe: Probe, parts: dict, nulls: Optional[list]) -> None:
    """``constrain`` by the probe with the integer form ``parts``, whose
    annihilator ``nulls`` comes from its orbit echelon when None."""
    der = acc.der
    field, d = der.algebra.field, der.algebra.dim
    key = integer_key(field, parts)
    if key in acc.seen:
        return
    if nulls is None:
        # a zero orbit leaves the whole dual space, the nullspace of no rows
        nulls = _orbit_echelon(der, parts).integer_nullspace()
    w = field.width
    rows = []
    for p in nulls:
        forms = (p, *field.rotations(p))
        row: dict = {}
        for q, xq in parts.items():
            base = w * d * (q // w)
            for i, a in forms[q % w].items():
                row[base + i] = row.get(base + i, 0) + xq * a
        row = {c: v for c, v in row.items() if v}
        if der.residues(row):
            raise AssertionError(
                f"constraint row at probe {probe.label!r} does not annihilate Der"
            )
        rows.append(row)
    before = acc.dim
    for row in rows:
        acc.echelon.insert_integer(row)
    acc.history.append(ProbeStep(probe.label, before, acc.dim))
    acc.seen.add(key)


def permutes_table(L: LieAlgebra, sigma: tuple) -> bool:
    """Whether the basis permutation ``sigma``, (i, sigma(i)) pairs over
    the indices it moves, maps ``L.integer_table`` onto itself, which
    makes it an automorphism of L: [b_si, b_sj] = sigma([b_i, b_j]) for
    all i, j.  Only the entries that touch a moved index can fail, so it
    reads those alone: each moved i with its ``partners`` and the pairs
    ``onto`` it.  The partners of i then go one to one into those of
    sigma(i); sigma permutes the moved indices, so they cover them all."""
    s = dict(sigma)
    if sorted(s) != sorted(s.values()) or not all(0 <= i < L.dim for i in s):
        return False
    table, move = L.integer_table, _mover(L.field.width, s.items())
    return all(
        table.get((s.get(a, a), s.get(b, b))) == move(table[a, b])
        for i in s
        for a, b in chain(((i, j) for j in L.partners[i]), L.onto[i])
    )


def _mover(w: int, sigma):
    """The map moving an integer form along the basis permutation given by
    the (i, sigma(i)) pairs ``sigma``."""
    cols = {w * i + t: w * j + t for i, j in sigma for t in range(w)}
    return lambda form: {cols.get(q, q): v for q, v in form.items()}


def fold(acc: CandidateSpace, probes) -> None:
    """Cut ``acc`` in place by each probe in turn, as ``constrain`` does.

    A probe whose ``seed`` came earlier in ``probes`` (the same object) is
    cut by the seed's annihilators moved along its ``sigma``, in place of
    an orbit echelon and a nullspace of its own: an automorphism sigma
    maps Der onto itself, so W_sigma(x) = sigma(W_x).  Before its first
    use, sigma must map the bracket table onto itself (``permutes_table``),
    and the probe's integer form must be sigma of the seed's; either
    failure raises ValueError before the probe inserts a row.  The moved
    rows pass the same per-row Der check as every other row.  A probe
    whose seed has not come yet is cut directly.
    """
    probes = list(probes)
    der = acc.der
    # by object identity; id(None) names no probe
    named = {id(p.seed) for p in probes}
    kept: dict = {}
    checked: set = set()
    for probe in probes:
        parts, nulls = _probe_form(der, probe), None
        seed = kept.get(id(probe.seed))
        if seed is not None:
            if probe.sigma not in checked:
                if not permutes_table(der.algebra, probe.sigma):
                    raise ValueError(f"probe {probe.label!r}: sigma is not an automorphism")
                checked.add(probe.sigma)
            move = _mover(der.algebra.field.width, probe.sigma)
            if move(seed[0]) != parts:
                raise ValueError(f"probe {probe.label!r} is not sigma of its seed")
            nulls = [move(p) for p in seed[1]]
        elif id(probe) in named:
            nulls = _orbit_echelon(der, parts).integer_nullspace()
        if id(probe) in named:
            kept[id(probe)] = parts, nulls
        _cut(acc, probe, parts, nulls)


def singleton_probes(L: LieAlgebra) -> list[Probe]:
    return [Probe(L.basis_element(i), L.labels[i]) for i in range(L.dim)]


def basis_probe_space(der: DerivationSpace) -> CandidateSpace:
    """A new candidate space cut out by the basis singletons alone.

    Its dimension is the sum of the per-basis orbit dimensions, which
    can stay strictly above dim Der.
    """
    acc = CandidateSpace(der)
    fold(acc, singleton_probes(der.algebra))
    return acc


def random_probe_closure(
    der: DerivationSpace,
    seed: int = DEFAULT_SEED,
    max_probes: int = DEFAULT_MAX_PROBES,
    stall_limit: int = DEFAULT_STALL_LIMIT,
) -> CandidateSpace:
    """Rational-only closure: a new basis-singleton space (``seed`` set),
    cut by seeded random probes until one of three stops, checked in
    this order before each probe and kept as ``stop_reason``:

    - "collapsed": the candidate dimension equals dim Der.  Every
      constraint row is asserted to annihilate Der, so Der stays inside
      the candidate and no later probe can cut;
    - "stalled": the last ``stall_limit`` probes left the dimension
      unchanged;
    - "budget": ``max_probes`` random probes have been tried.

    Probes use short supports (two to six basis terms) with nonzero
    coordinates drawn uniformly from [-2, 2]: orbit spaces of fully
    generic elements are full, so dense random probes carry no
    constraints; the informative probes live on degenerate strata that
    require coefficient coincidences, whose hit rate falls off sharply
    with the coefficient range (repeated draws on an index pair replace
    the imaginary-unit probes of the deterministic route over Q).
    """
    acc = basis_probe_space(der)
    acc.seed = seed
    rng = random.Random(seed)
    tried = stall = 0
    while acc.stop_reason is None:
        if acc.dim == der.dim:
            acc.stop_reason = "collapsed"
        elif stall >= stall_limit:
            acc.stop_reason = "stalled"
        elif tried >= max_probes:
            acc.stop_reason = "budget"
        else:
            element = _random_sparse_element(der.algebra, rng, ordered=True)
            before = acc.dim
            constrain(acc, Probe(element, probe_label(element)))
            tried += 1
            stall = stall + 1 if acc.dim == before else 0
    return acc


def _random_sparse_element(L: LieAlgebra, rng: random.Random, ordered: bool) -> AlgebraElement:
    """Two to six basis terms with coefficients drawn from [-2, 2] minus 0;
    ``ordered`` draws the coefficients in basis order, else in sample order."""
    d = L.dim
    support = rng.sample(range(d), rng.randint(min(2, d), min(6, d)))
    coords = [L.field.zero] * d
    for i in sorted(support) if ordered else support:
        c = 0
        while not c:
            c = rng.randint(-2, 2)
        coords[i] = Fraction(c)
    return AlgebraElement(L, tuple(coords))
