"""Local-derivation analysis by exact constraint accumulation.

A linear map Delta is a local derivation when Delta(x) lands in the
orbit subspace W_x = {D(x) : D in Der} for every x.  Each fixed probe x
contributes the linear condition Delta(x) in W_x; intersecting those
conditions over a probe set yields a candidate space squeezed between
Der and the set of all local derivations.  When the candidate dimension
collapses to dim Der, the containment chain

    Der  <=  local derivations  <=  candidate space

proves that every local derivation is a derivation for that algebra.

The fold, the seeded random closure over Q (an independent route to the
same dimension) and the symbolic certifier (which settles the universal
quantification over all x for small algebras) work on any
structure-constant algebra.  A fixed probe schedule for one family of
algebras, and the replay that folds it, belong with that family (see
``schrodinger``).
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain, combinations, islice
from math import comb
from typing import Optional

from .exactfield import FIELD_Q, Frozen, GaussianRational, integer_key, inv, setfield
from .liealg import AlgebraElement, LieAlgebra
from .linalg import Matrix, SparseEchelon, Subspace, combine_forms, encode_columns, solve_columns
from .dersolve import DerivationSpace, MapIndex, check_map, is_derivation
from .poly import MultiPoly, poly_det, split_linear

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


def witness(der: DerivationSpace, delta: Matrix, x: AlgebraElement) -> Optional[tuple]:
    """Coefficients c over the Der basis with sum c_k D_k(x) = Delta(x);
    None when the probe refutes locality of Delta.  Delta must be a map
    on ``der.algebra`` over its field, and x an element of it."""
    L = der.algebra
    check_map(L, delta)
    if x.algebra != L:
        raise ValueError("point belongs to a different algebra")
    delta_index = MapIndex(L.field, [encode_columns(L.field, delta.sparse_columns(), L.dim)])
    return _solve_point(der, delta_index, _integer_form(x))[0]


def _solve_point(der: DerivationSpace, delta: MapIndex, parts: dict) -> tuple:
    """(c, rank) at the point x with integer form ``parts``: c is the
    ``witness`` of x for the map Delta indexed by ``delta``, rank that of the
    Der block [D_1(x) | .. | D_m(x)].  From one integer image pass each,
    ``solve_columns`` solves in ``int``, and lam * Delta(x) = sum c_(w*k+t)
    u_t D_k(x) is re-checked in ``int`` against Delta's own image first."""
    field, m, w = der.algebra.field, der.dim, der.algebra.field.width
    images = der.images(parts)
    target = delta.images(parts).get(0, {})
    coeffs, rank = solve_columns(field, [images.get(k, {}) for k in range(m)], target)
    if coeffs is None:
        return None, rank
    check = {r: -coeffs[-1] * v for r, v in target.items()}
    for k, img in images.items():
        for t, form in enumerate((img, *field.rotations(img))):
            for r, v in form.items():
                check[r] = check.get(r, 0) + coeffs[w * k + t] * v
    if any(check.values()):
        raise AssertionError("witness solve failed to verify")
    # c_k = (sum_t c_(w*k+t) u_t) * (scale of D_k) / (lam * scale of Delta)
    scales = der.image_index.scales + delta.scales
    sol = field.decode({q: c * scales[q // w] for q, c in enumerate(coeffs) if c}, w * m)
    return tuple(sol.get(k, field.zero) for k in range(m)), rank


# ---------------------------------------------------------------------------
# symbolic certification


_DIM_BOUND = 9
_MINOR_BUDGET = 20000


class LocalityCertificate(Frozen):
    """The verdict of ``certify_local_symbolic``: whether Delta is local,
    the element refuting it (None when certified) and one line of text
    per stratum settled or refuted."""

    __slots__ = __match_args__ = ("certified", "refutation", "strata")

    def __init__(self, certified: bool, refutation: Optional[AlgebraElement], strata: tuple):
        setfield(self, "certified", certified)
        setfield(self, "refutation", refutation)
        setfield(self, "strata", strata)

    def __bool__(self):
        return self.certified


def certify_local_symbolic(der: DerivationSpace, delta: Matrix) -> LocalityCertificate:
    """Decide whether Delta(x) in W_x holds for every x of ``der.algebra``,
    symbolically; Delta must be a map on that algebra over its field.

    The certificate stacks M(x) = [D_1(x) | .. | D_m(x) | Delta(x)] with
    linear-polynomial entries and works stratum by stratum, a stratum
    being the span of a tuple of algebra elements (the basis at the top)
    with its block of linear forms (``_stratum_block``).  The generic rank
    r of the Der block is established by exact evaluation (a nonsingular
    r x r submatrix at a rational point exhibits a nonzero r-minor
    polynomial); all (r+1)-minors using the Delta column are expanded
    exactly and must vanish identically, which by cofactor expansion
    forces every larger Delta-minor to vanish as well and so covers all
    points where the Der block keeps rank at least r.  The rank-drop locus
    lies inside the zero set of the exhibited nonzero r-minor; when that
    minor is a product of linear forms the procedure recurses onto each
    hyperplane, otherwise it gives up explicitly.  Refutations are always
    confirmed by an exact witness-absence check at a concrete point.
    """
    L = der.algebra
    check_map(L, delta)
    d = L.dim
    if d > _DIM_BOUND:
        raise CertificationError(f"algebra dimension {d} exceeds the certifier bound {_DIM_BOUND}")
    # Der is every derivation, so the product rule decides membership
    if is_derivation(L, delta).ok:
        return LocalityCertificate(True, None, ("member of Der",))
    delta_index = MapIndex(L.field, [encode_columns(L.field, delta.sparse_columns(), d)])
    # the Der-block rank by integer key: one solve per point up to a scalar
    memo: dict = {}
    # cheap concrete refutations first: basis vectors and short combinations
    for x in _scan_elements(L):
        if _point_rank(der, delta_index, _integer_form(x), memo) is None:
            return LocalityCertificate(False, x, (f"refuted at {probe_label(x)}",))
    strata: list[str] = []
    rng = random.Random(0xCE27)
    top = tuple(L.basis_element(i) for i in range(d))
    refut = _certify_on(der, delta_index, top, strata, rng, memo)
    return LocalityCertificate(refut is None, refut, tuple(strata))


def _point_rank(der: DerivationSpace, delta: MapIndex, parts: dict, memo: dict) -> Optional[int]:
    """The rank of the Der block [D_1(x) | .. | D_m(x)] when Delta(x) lies
    in W_x, else None, given the integer form ``parts`` of x != 0.  ``memo``
    maps the ``integer_key`` of each point with a verified witness to that
    rank, so a multiple cx, with D_k(cx) = c D_k(x), is not solved again."""
    key = integer_key(der.algebra.field, parts)
    rank = memo.get(key)
    if rank is None:
        coeffs, rank = _solve_point(der, delta, parts)
        if coeffs is None:
            return None
        memo[key] = rank
    return rank


def _scan_elements(L: LieAlgebra):
    """Deterministic refutation candidates: basis vectors, signed pairs,
    then seeded sparse combinations with small coefficients (informative
    points need coefficient coincidences, so small ranges hit them)."""
    basis = [L.basis_element(i) for i in range(L.dim)]
    yield from basis
    for a, b in combinations(basis, 2):
        yield a + b
        yield a - b
    rng = random.Random(0x5CA9)
    for _ in range(400):
        yield _random_sparse_element(L, rng, ordered=False)


def _certify_on(der, delta: MapIndex, basis: tuple, strata, rng, memo: dict, depth=0):
    """Certify membership on the stratum {x = sum_t y_t b_t} spanned by the
    tuple ``basis`` of algebra elements b_t; returns the refuting element,
    or None.  Sample points (``combine_forms``) and the linear forms of the
    minors both come from the integer forms of the b_t; every point is
    solved through ``memo`` (``_point_rank``)."""
    L, d, m, dim_u = der.algebra, der.algebra.dim, der.dim, len(basis)
    indent = "  " * depth
    if dim_u == 0:
        strata.append(f"{indent}point stratum: trivial")
        return None
    forms, scale = encode_columns(L.field, [dict(enumerate(b.coords)) for b in basis], d)
    samples = [[1] * dim_u] + [_sample_point(rng, dim_u) for _ in range(12)]
    best_rank, best_point = -1, None
    for pt in samples:
        parts = combine_forms(forms, pt)
        if not parts:
            continue
        # the witness solve at pt also gives the rank of the Der block there
        rank = _point_rank(der, delta, parts, memo)
        if rank is None:
            x = _combination(basis, pt)
            strata.append(f"{indent}refuted at sampled point {probe_label(x)}")
            return x
        if rank > best_rank:
            best_rank, best_point = rank, pt
    *a_sub, b_sub = _stratum_block(der, delta, forms, scale)
    r = max(best_rank, 0)
    while r < d:
        count = comb(d, r + 1) * comb(m, r)
        if count > _MINOR_BUDGET:
            raise CertificationError(
                f"minor budget exceeded at stratum depth {depth} ({count} minors)"
            )
        minors = (
            poly_det([[a_sub[k][i] for k in cols] + [b_sub[i]] for i in rows])
            for rows in combinations(range(d), r + 1)
            for cols in combinations(range(m), r)
        )
        bad = next((det for det in minors if not det.is_zero()), None)
        if bad is None:
            break
        pt = _point_where_nonzero(bad, rng)
        parts = combine_forms(forms, pt)
        if parts and _point_rank(der, delta, parts, memo) is None:
            x = _combination(basis, pt)
            strata.append(f"{indent}refuted via nonzero bordered minor at {probe_label(x)}")
            return x
        # membership holds at pt although a bordered (r+1)-minor is nonzero
        # there, so the Der block itself must exceed rank r at pt
        r += 1
        best_point = pt
    strata.append(f"{indent}stratum dim {dim_u}: certified for block rank >= {r}")
    if r == 0:
        # Der block and (by the size-1 minors just checked) the Delta
        # column vanish identically on this stratum
        return None
    for ell in _rank_drop_cuts(der, forms, a_sub, r, best_point, rng):
        refut = _certify_on(
            der, delta, _hyperplane_basis(basis, ell), strata, rng, memo, depth + 1
        )
        if refut is not None:
            return refut
    return None


def _sample_point(rng, dim_u):
    return [rng.randint(-9, 9) for _ in range(dim_u)]


def _combination(basis: tuple, point) -> AlgebraElement:
    """x = sum_t y_t b_t as an element, for a refuting point."""
    terms = [b.scale(y) for b, y in zip(basis, point)]
    return sum(terms[1:], terms[0])


def _stratum_block(der: DerivationSpace, delta: MapIndex, forms: list, scale: int) -> list:
    """The linear forms of M(x) = [D_1(x) | .. | D_m(x) | Delta(x)] on the
    stratum x = sum_t y_t b_t, the b_t given by their integer ``forms`` at
    ``scale``: entry [k][i] is sum_t D_k(b_t)[i] y_t (k = m for Delta)."""
    field, d, m, dim_u = der.algebra.field, der.algebra.dim, der.dim, len(forms)
    w = field.width
    units = [tuple(int(s == t) for s in range(dim_u)) for t in range(dim_u)]
    block = [[{} for _ in range(d)] for _ in range(m + 1)]
    scales = der.image_index.scales + delta.scales
    for t, parts in enumerate(forms):
        images = der.images(parts)
        images[m] = delta.images(parts).get(0, {})
        for k, img in images.items():
            for i, v in field.decode({**img, w * d: scale * scales[k]}, w * d).items():
                if i < d:
                    block[k][i][units[t]] = v
    return [[MultiPoly(dim_u, terms) for terms in row] for row in block]


def _point_where_nonzero(p: MultiPoly, rng):
    for _ in range(2000):
        pt = _sample_point(rng, p.nvars)
        if p.evaluate(pt):
            return pt
    raise CertificationError("failed to hit a nonzero point of a nonzero polynomial")


def _minor_profile(der, parts: dict, r: int):
    """Row and column subsets of the image matrix [D_1(x) | .. | D_m(x)]
    whose r x r submatrix is nonsingular, or None below rank r: the first r
    columns independent of those before them (the RREF pivot columns), and
    as rows the pivots of their echelon, the first r independent rows."""
    acc = SparseEchelon(der.algebra.field, der.algebra.dim)
    images = der.images(parts)
    cols = [k for k, img in images.items() if acc.rank < r and acc.insert_integer(dict(img))]
    if len(cols) < r:
        return None
    return tuple(min(row) // acc.field.width for row in acc.rref_forms()), tuple(cols)


def _rank_drop_cuts(der, forms: list, a_sub, r, point, rng) -> list:
    """The linear forms whose product is a nonzero r x r minor of the Der
    block: the rank-drop locus sits inside the zero set of any nonzero
    r-minor, so these hyperplanes cover it.  Minors come first from the
    profiles at ``point`` and at eight sample points, then from the first
    400 row and column subsets."""
    L = der.algebra
    points = [point] if point is not None else []
    points += [_sample_point(rng, len(forms)) for _ in range(8)]
    profiles = (_minor_profile(der, combine_forms(forms, pt), r) for pt in points)
    subsets = (
        (rows, cols)
        for rows in combinations(range(L.dim), r)
        for cols in combinations(range(der.dim), r)
    )
    tried = set()
    nonzero = False
    for key in chain(filter(None, profiles), islice(subsets, 400)):
        if key in tried:
            continue
        tried.add(key)
        rows, cols = key
        det = poly_det([[a_sub[k][i] for k in cols] for i in rows])
        if det.is_zero():
            continue
        nonzero = True
        cuts = split_linear(det, rational_points_only=(L.field is FIELD_Q))
        if cuts is not None:
            return cuts
    if not nonzero:
        raise CertificationError("no nonzero rank minor found despite positive block rank")
    raise CertificationError("rank-drop locus is not covered by hyperplanes of a splitting minor")


def _hyperplane_basis(basis: tuple, ell: MultiPoly) -> tuple:
    """Basis of the hyperplane ell(y) = 0 of the stratum x = sum_t y_t b_t:
    b_t - (c_t / c_p) b_p for t != p, where c_t is the coefficient of y_t
    in the linear form ell and c_p its first nonzero one."""
    coeffs = [0] * len(basis)
    for e, c in ell.terms.items():
        coeffs[e.index(1)] = c
    p = next(t for t, c in enumerate(coeffs) if c)
    inv_p = inv(coeffs[p])
    return tuple(
        b - basis[p].scale(c * inv_p) for t, (b, c) in enumerate(zip(basis, coeffs)) if t != p
    )
