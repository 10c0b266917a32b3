"""Local-derivation analysis by exact constraint accumulation.

A linear map Delta is a local derivation when Delta(x) lands in the
orbit subspace W_x = {D(x) : D in Der} for every x.  Each fixed probe x
contributes the linear condition Delta(x) in W_x; intersecting those
conditions over a probe set yields a candidate space squeezed between
Der and the set of all local derivations.  When the candidate dimension
collapses to dim Der, the containment chain

    Der  <=  local derivations  <=  candidate space

proves that every local derivation is a derivation for that algebra.

The basis singletons alone cut the candidate down to the product of the
per-column orbit spaces, {Delta : Delta(b_j) in W_(b_j) for every j}.
The fold keeps that product in coordinates of its own: a singleton
rebases its column onto a basis of W_(b_j) with no elimination, and every
later condition is eliminated over those coordinates only (after Ayupov
and Kudaybergenov, Linear Algebra Appl. 493, 2016, who argue through the
same product).

A probe carries x as the integer form the fold reads (``Probe.form``).
The fold and the seeded random closure over Q (an independent route to
the same dimension) work on any structure-constant algebra, as does the
symbolic certifier (``certifier``, which settles the universal
quantification over all x for small algebras).  A fixed probe schedule
for one family of algebras, and the replay that folds it, belong with
that family (see ``schrodinger``).
"""

from __future__ import annotations

import random
from math import lcm
from itertools import chain
from typing import Optional

from .exactfield import Frozen, GaussianRational, integer_key, setfield
from .liealg import LieAlgebra
from .linalg import SparseEchelon, Subspace
from .dersolve import DerivationSpace

DEFAULT_SEED = 0x5EED
DEFAULT_MAX_PROBES = 4000
DEFAULT_STALL_LIMIT = 800


class CertificationError(RuntimeError):
    """The symbolic certifier could not settle the input within its bounds."""


class Probe(Frozen):
    """A nonzero test element x of ``algebra``, given by its integer form
    ``form`` (``Field.encode`` of its coordinates, the form the fold
    reads), with a stable label for reports.

    A member of a probe family names its ``seed`` probe and the basis
    permutation ``sigma`` that moves the seed onto it, as (i, sigma(i))
    pairs over the indices sigma moves; ``fold`` checks both."""

    __slots__ = __match_args__ = ("algebra", "form", "label", "seed", "sigma")

    def __init__(
        self, algebra: LieAlgebra, form: dict, label: str, seed: Optional[Probe] = None, sigma=()
    ):
        if not form:
            raise ValueError("zero probe carries no information")
        size = algebra.field.width * algebra.dim
        if not all(form.values()) or min(form) < 0 or max(form) >= size:
            raise ValueError("a probe form holds nonzero integers at columns of its algebra")
        setfield(self, "algebra", algebra)
        setfield(self, "form", form)
        setfield(self, "label", label)
        setfield(self, "seed", seed)
        setfield(self, "sigma", sigma)


class ProbeStep(Frozen):
    __slots__ = __match_args__ = ("probe", "dim_before", "dim_after")


def probe_label(labels: tuple, coords: dict) -> str:
    """The report label of the element with the coordinates {index: scalar}
    ``coords`` over the basis ``labels``: its nonzero terms in basis order."""
    parts = []
    for i in sorted(coords):
        c, lab = coords[i], labels[i]
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


def _orbit_echelon(der: DerivationSpace, parts: dict, fill: Optional[int] = None) -> SparseEchelon:
    """Echelon whose row space is W_x, given the integer form ``parts``
    of x, fed by one integer image pass (``DerivationSpace.images``); it
    stops once its rank reaches ``fill``, a bound on dim W_x, if given."""
    acc = SparseEchelon(der.algebra.field, der.algebra.dim)
    for img in der.images(parts).values():
        acc.insert_integer(img)
        if acc.rank == fill:
            break
    return acc


class CandidateSpace:
    """The candidate space of a probe fold over ``der``: the one mutable
    fold accumulator, and the fold's result.

    ``CandidateSpace(der)`` is the full map space of ``der.algebra``, each
    column block j (the image Delta(b_j), at flat columns j*d + i) in the
    basis ``standard`` of unit vectors.  ``constrain`` and ``fold`` cut it in
    place.  The cut by a multiple of a basis element b_j whose block is not
    ``touched`` yet (by an inserted row or a rebase) rebases block j onto
    a basis w_t of its orbit W_(b_j) with unit pivots (the RREF basis, or
    that of a family seed moved along sigma) and inserts no row:
    ``blocks[j]`` then holds the fold onto that basis and the annihilator
    rows it replaced (``_rebased``), the parameter a_t of
    Delta(b_j) = sum_t a_t w_t keeps the name of the flat column j*d + p_t
    of the pivot p_t of w_t, and ``cut`` sums the d - dim W_(b_j) these
    rebases took.
    ``echelon`` gathers the other annihilator rows, each folded onto those
    parameters, ``history`` the ``ProbeStep`` of every probe not skipped,
    ``seen`` their ``integer_key``.  ``seed`` and ``stop_reason`` stay None
    unless ``random_probe_closure`` sets them; its stop reason is
    "collapsed", "stalled" or "budget", and the report carries it, so a
    "stalled" or "budget" run reads as inconclusive rather than as a
    counterexample.  ``space`` is the candidate over the flattened maps,
    computed when read.
    """

    __slots__ = (
        "der", "echelon", "standard", "blocks", "touched", "cut", "history", "seen", "seed",
        "stop_reason",
    )

    def __init__(self, der: DerivationSpace):
        L = der.algebra
        w = L.field.width
        self.der = der
        self.echelon = SparseEchelon(L.field, L.dim ** 2)
        self.standard = _rebased(L.field, {w * i: {w * i: 1} for i in range(L.dim)}, [])
        self.blocks: dict = {}
        self.touched: set = set()
        self.cut = 0
        self.history: list[ProbeStep] = []
        self.seen: set = set()
        self.seed: Optional[int] = None
        self.stop_reason: Optional[str] = None

    @property
    def dim(self) -> int:
        return self.der.algebra.dim ** 2 - self.cut - self.echelon.rank

    @property
    def space(self) -> Subspace:
        """The candidate as a subspace of the flattened map space: the
        annihilator of the flat constraint rows.  These are the annihilator
        rows that each rebase replaced (``blocks[j][1]``) and the rows of
        ``echelon`` as they are: a row over the parameters, read over the
        flat columns, takes the same value on each w_t, whose pivot entry
        is 1 and whose entries at the other pivots are 0."""
        L = self.der.algebra
        wd = L.field.width * L.dim
        flat = SparseEchelon(L.field, L.dim ** 2)
        for row in self.echelon.rref_forms():
            flat.insert_integer(dict(row))
        for j, block in self.blocks.items():
            for p in block[1]:
                flat.insert_integer({wd * j + c: v for c, v in p.items()})
        return flat.nullspace().row_space()

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

    A probe of another algebra raises ValueError before its form is read.
    A probe with the ``integer_key`` of an earlier one is a multiple of
    it and is skipped.  All else runs on integer forms (``Field.encode``),
    starting from the probe's own ``form``:
    the orbit echelon of x is fed the integer images, and any basis of its
    annihilator cuts the same candidate, so the basis is the echelon's
    ``integer_nullspace``.  The constraint row of an annihilator vector p
    is x_j * p_i at map column j*d + i: the part x_q (q = w*j + t) times
    the form of u_t*p (``Field.rotations``), placed at block j.

    For x a multiple of b_j with block j untouched, the rows would cut
    block j alone, by d - dim W_x: instead the block is rebased onto W_x
    and no row goes in.  Any other row is folded onto the parameters of
    the rebased blocks before it is inserted: its entry at the pivot
    column of w_t is x_j * (p . w_t), and a row that folds to zero is
    dropped.  W_x lies in the sum of the spaces of the blocks of x, so an
    orbit echelon that reaches the size of their joint support ends the
    probe with no cut, and a vector p off that support is skipped.
    Every row of the probe, folded, is dotted with every row of Der,
    ``der.rows`` (``DerivationSpace.residues``), not with the columns the
    orbit came from, before any is inserted, which asserts
    Der <= candidate at each stage; a failed check raises and leaves
    ``acc`` as it was.  A rebase checks first that Der reassembles from
    its entries at the pivots, D(b_j) = sum_t D[p_t, j] w_t for every row
    of Der, as the residues of the rows it replaces, so the folded rows
    are checked against Der itself.
    """
    _cut(acc, probe, _probe_form(acc.der, probe), None)


def _probe_form(der: DerivationSpace, probe: Probe) -> dict:
    if probe.algebra != der.algebra:
        raise ValueError("probe belongs to a different algebra")
    return probe.form


def _orbit(echelon: SparseEchelon, single: bool) -> tuple:
    """(nulls, basis) of W_x off its orbit echelon: the annihilator of W_x
    (``integer_nullspace``), and when x is a multiple of one basis element
    (``single``) the basis a rebase takes, the RREF forms of W_x by pivot
    column, else None."""
    basis = {min(form): form for form in echelon.rref_forms()} if single else None
    return echelon.integer_nullspace(), basis


def _moved(orbit: tuple, move) -> tuple:
    """The (nulls, basis) of ``_orbit`` moved along a basis permutation;
    ``move`` maps the keys of a dict, so it moves the pivot columns of the
    basis as well.  A moved form keeps its pivot entry and its zeros at
    the other pivots, which is all a rebase reads, though it may gain
    entries before its pivot."""
    nulls, basis = orbit
    if basis is not None:
        basis = {q: move(form) for q, form in move(basis).items()}
    return [move(p) for p in nulls], basis


def _rebased(field, basis: dict, nulls: list) -> tuple:
    """(scale, nulls, index, support) of a block rebased onto the forms w_t
    of ``basis`` by pivot column, each primitive with a positive pivot
    entry and 0 at the other pivots, whose annihilator ``nulls`` the
    rebase replaces: ``scale``, the lcm of their pivot entries, is the one
    scale of all w_t; ``index`` is the fold of the block by integer column
    q, ``index[q][t]`` the (column, entry) pairs of u_t times the fold of a
    1 at q, whose part t' of parameter p_t is Re or Im of p . w_t
    (``dot_forms``, at column w*p_t + t'); ``support`` has bit i set when
    some w_t has an entry at field column i."""
    w = field.width
    scale = lcm(*(form[q] for q, form in basis.items()))
    folds: dict = {}
    for q, form in basis.items():
        k = scale // form[q]
        for t, dot in enumerate(field.dot_forms({c: k * v for c, v in form.items()})):
            for c, v in dot.items():
                folds.setdefault(c, {})[q + t] = v
    index = {
        q: tuple(list(f.items()) for f in (image, *field.rotations(image)))
        for q, image in folds.items()
    }
    # the dot forms of w_t have the field columns of w_t
    support = sum(1 << i for i in {c // w for c in folds})
    return scale, nulls, index, support


def _terms(wd: int, spans: dict, blocks: dict, big: int, q: int) -> list:
    """The (column, entry) pairs of the constraint row of a 1 at integer
    column q of an annihilator vector: x_j times it, folded onto the basis
    of block j (``blocks[j]``, from ``_rebased``) and placed at block j, for
    each block j of x (``spans``, the parts of x by block); all blocks at
    the scale ``big``, the lcm of their scales."""
    out: dict = {}
    for j, block in blocks.items():
        forms = block[2].get(q)
        if forms is None:
            continue
        base, k = wd * j, big // block[0]
        for t, xq in spans[j]:
            kx = k * xq
            for i, a in forms[t]:
                out[base + i] = out.get(base + i, 0) + kx * a
    return [(c, v) for c, v in out.items() if v]


def _cut(acc: CandidateSpace, probe: Probe, parts: dict, orbit: Optional[tuple]) -> None:
    """``constrain`` by the probe with the integer form ``parts``, whose
    ``_orbit`` data ``orbit`` comes from its orbit echelon when None."""
    der = acc.der
    field, d = der.algebra.field, der.algebra.dim
    key = integer_key(field, parts)
    if key in acc.seen:
        return
    w = field.width
    wd = w * d
    # the parts of x by block
    spans: dict = {}
    for q, xq in parts.items():
        spans.setdefault(q // w, []).append((q % w, xq))
    blocks = {j: acc.blocks.get(j, acc.standard) for j in spans}
    # W_x lies in U, the sum of the spaces of the blocks of x (W_(b_j) for
    # a rebased block j), and so in the field columns of their joint
    # support ``mask``
    mask = 0
    for block in blocks.values():
        mask |= block[3]
    if orbit is None:
        # at the rank of that support W_x = U, which holds Delta(x) for
        # every candidate Delta, so x cuts nothing
        fill = mask.bit_count()
        echelon = _orbit_echelon(der, parts, fill)
        if echelon.rank == fill:
            _record(acc, probe, key, acc.dim)
            return
        orbit = _orbit(echelon, len(spans) == 1)
    nulls, basis = orbit
    if basis is not None:
        (j,) = spans
        if j not in acc.touched:
            for p in nulls:
                _check(der, probe, {wd * j + c: v for c, v in p.items()})
            before = acc.dim
            acc.blocks[j] = _rebased(field, basis, nulls)
            acc.touched.add(j)
            acc.cut += d - len(basis)
            _record(acc, probe, key, before)
            return
    big = lcm(*(block[0] for block in blocks.values()))
    # the row of p is sum_q p_q * terms[q], built once per column q of p
    terms: dict = {}
    rows = []
    for p in nulls:
        # a vector off the support of U, as each of the annihilator
        # vectors at a free column off it is, folds to zero
        if not any(mask >> q // w & 1 for q in p):
            continue
        row: dict = {}
        for q, a in p.items():
            pairs = terms.get(q)
            if pairs is None:
                pairs = terms[q] = _terms(wd, spans, blocks, big, q)
            for c, v in pairs:
                row[c] = row.get(c, 0) + a * v
        row = {c: v for c, v in row.items() if v}
        if row:
            _check(der, probe, row)
            rows.append(row)
    before = acc.dim
    for row in rows:
        acc.echelon.insert_integer(row)
    if rows:
        acc.touched.update(spans)
    _record(acc, probe, key, before)


def _check(der: DerivationSpace, probe: Probe, row: dict) -> None:
    """Raise unless the constraint row ``row`` annihilates every row of Der."""
    if der.residues(row):
        raise AssertionError(f"constraint row at probe {probe.label!r} does not annihilate Der")


def _record(acc: CandidateSpace, probe: Probe, key: tuple, before: int) -> None:
    """Log the step of ``probe`` from dimension ``before`` and its key."""
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
    cut by the seed's annihilators, and for a basis singleton the basis
    of its orbit, moved along its ``sigma`` (``_moved``), in place of
    an orbit echelon and a nullspace of its own: an automorphism sigma
    maps Der onto itself, so W_sigma(x) = sigma(W_x).  Before its first
    use, sigma must map the bracket table onto itself (``permutes_table``),
    and the probe's integer form must be sigma of the seed's; either
    failure raises ValueError before the probe inserts a row or rebases a
    block.  The moved rows pass the same per-row Der check as every other
    row, and a moved rebase the same reassembly check.  A probe whose seed
    has not come yet is cut directly.
    """
    probes = list(probes)
    der = acc.der
    w = der.algebra.field.width
    # by object identity; id(None) names no probe
    named = {id(p.seed) for p in probes}
    kept: dict = {}
    checked: set = set()
    for probe in probes:
        parts, orbit = _probe_form(der, probe), None
        seed = kept.get(id(probe.seed))
        if seed is not None:
            if probe.sigma not in checked:
                if not permutes_table(der.algebra, probe.sigma):
                    raise ValueError(f"probe {probe.label!r}: sigma is not an automorphism")
                checked.add(probe.sigma)
            move = _mover(w, probe.sigma)
            if move(seed[0]) != parts:
                raise ValueError(f"probe {probe.label!r} is not sigma of its seed")
            orbit = _moved(seed[1], move)
        elif id(probe) in named:
            orbit = _orbit(_orbit_echelon(der, parts), len({q // w for q in parts}) == 1)
        if id(probe) in named:
            kept[id(probe)] = parts, orbit
        _cut(acc, probe, parts, orbit)


def singleton_probes(L: LieAlgebra) -> list[Probe]:
    w = L.field.width
    return [Probe(L, {w * i: 1}, L.labels[i]) for i in range(L.dim)]


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
    L, w = der.algebra, der.algebra.field.width
    tried = stall = 0
    while acc.stop_reason is None:
        if acc.dim == der.dim:
            acc.stop_reason = "collapsed"
        elif stall >= stall_limit:
            acc.stop_reason = "stalled"
        elif tried >= max_probes:
            acc.stop_reason = "budget"
        else:
            # the probe's integer form is its draw, read at the field columns
            coords = _sparse_draw(L.dim, rng, ordered=True)
            probe = Probe(L, {w * i: c for i, c in coords.items()}, probe_label(L.labels, coords))
            before = acc.dim
            _cut(acc, probe, probe.form, None)
            tried += 1
            stall = stall + 1 if acc.dim == before else 0
    return acc


def _sparse_draw(d: int, rng: random.Random, ordered: bool) -> dict:
    """Two to six of the d basis indices, each with an integer coefficient
    drawn from [-2, 2] minus 0, as {index: coefficient}; ``ordered`` draws
    the coefficients in index order, else in sample order."""
    support = rng.sample(range(d), rng.randint(min(2, d), min(6, d)))
    coords = {}
    for i in sorted(support) if ordered else support:
        c = 0
        while not c:
            c = rng.randint(-2, 2)
        coords[i] = c
    return coords
