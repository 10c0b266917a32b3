"""Deterministic command-line front end.

Reports go to standard output as JSON, diagnostics to standard error,
nothing else is printed.  Exit status: 0 on success / verified, 2 when
a verification property fails to hold, 1 for usage, I/O, or parse
errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from typing import Optional

from .exactfield import FIELD_Q, FIELD_QI, field_of, format_scalar
from .liealg import (
    JacobiError,
    LieAlgebra,
    _expect_keys,
    load,
    make_abelian,
    make_heisenberg,
    make_sl2,
    to_json,
)
from .linalg import Matrix
from .dersolve import LeibnizError, derivation_space, inner_space, is_derivation
from .locder import (
    CertificationError,
    DEFAULT_MAX_PROBES,
    DEFAULT_SEED,
    DEFAULT_STALL_LIMIT,
    basis_probe_space,
    random_probe_closure,
)
from .schrodinger import make_schrodinger, replay_proof, schrodinger_rank


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


class CliError(Exception):
    pass


def _emit(report: dict, out_path=None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_algebra(path: str) -> LieAlgebra:
    try:
        return load(path)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except JacobiError:
        raise
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _matrix_text(m: Matrix) -> list:
    return [[format_scalar(x) for x in row] for row in m.entries]


def _parse_map(path: str, L: LieAlgebra) -> Matrix:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: malformed JSON: {exc}") from exc
    except RecursionError:
        raise CliError(f"{path}: malformed JSON: nested too deeply") from None
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: {exc}") from exc
    rows = doc
    if isinstance(doc, dict):
        # an object holds the matrix alone, as an algebra file holds its keys
        try:
            _expect_keys(doc, {"matrix"}, "map file")
        except ValueError as exc:
            raise CliError(f"{path}: {exc}") from exc
        rows = doc["matrix"]
    if (
        not isinstance(rows, list)
        or len(rows) != L.dim
        or not all(isinstance(row, list) and len(row) == L.dim for row in rows)
    ):
        raise CliError(f"{path}: expected a {L.dim}x{L.dim} matrix")
    try:
        entries = [[L.field.parse(x) for x in row] for row in rows]
    except ValueError as exc:
        raise CliError(f"{path}: bad scalar: {exc}") from exc
    return Matrix(L.field, entries)


def _cmd_gen(args) -> int:
    if args.schrodinger is not None:
        L = make_schrodinger(args.schrodinger, args.field)
    elif args.heisenberg is not None:
        L = make_heisenberg(args.heisenberg, args.field)
    elif args.abelian is not None:
        L = make_abelian(args.abelian, args.field)
    else:
        L = make_sl2(args.field)
    text = to_json(L)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_jacobi(args) -> int:
    # loading checks the Jacobi identity, so a loaded algebra satisfies it;
    # a failing file still names its algebra, dimension and field
    try:
        L, triple = _load_algebra(args.input), None
    except JacobiError as exc:
        L, triple = exc.algebra, list(exc.triple)
    _emit(
        {
            "algebra": L.name,
            "dim": L.dim,
            "field": L.field.tag,
            "jacobi": triple is None,
            "failing_triple": triple,
        }
    )
    return 0 if triple is None else 2


def _algebra_from_args(args) -> LieAlgebra:
    if args.input:
        # the file fixes the algebra and its field
        if args.n is not None or args.field is not None:
            raise CliError("--n and --field do not apply to an algebra file")
        return _load_algebra(args.input)
    if args.n is None:
        raise CliError("provide an algebra file or --n for the Schrodinger algebra")
    return make_schrodinger(args.n, args.field or FIELD_Q)


def _schrodinger_n(args, L: LieAlgebra) -> Optional[int]:
    # an algebra built from --n is S_n by construction; only a file needs the check
    return schrodinger_rank(L) if args.input else args.n


def _cmd_der(args) -> int:
    L = _algebra_from_args(args)
    der = derivation_space(L)
    inn = inner_space(L)
    report = {
        "algebra": L.name,
        "dim": L.dim,
        "field": L.field.tag,
        "der_dim": der.dim,
        "inner_dim": inn.dim,
        "outer_dim": der.dim - inn.dim,
    }
    if not args.basis:
        _emit(report, args.output)
        return 0
    # the basis goes out one map at a time, so memory holds one map of it;
    # the bytes are those _emit writes for the report with the basis in it
    report["basis"] = []
    head, tail = json.dumps(report, indent=2, sort_keys=True).split('"basis": []')
    # the maps are sparse: the field zero is formatted once per report
    d, zero = L.dim, format_scalar(L.field.zero)
    sink = open(args.output, "w", encoding="utf-8") if args.output else nullcontext(sys.stdout)
    with sink as out:
        out.write(head + '"basis": [')
        for k, row in enumerate(der.subspace.rows):
            m = [
                [format_scalar(row[c]) if c in row else zero for c in range(r, d * d, d)]
                for r in range(d)
            ]
            text = json.dumps(m, indent=2).replace("\n", "\n    ")
            out.write(("," if k else "") + "\n    " + text)
        out.write(("\n  ]" if der.dim else "]") + tail + "\n")
    return 0


def _cmd_outer_check(args) -> int:
    if args.n < 2:
        raise CliError("outer-check needs --n >= 2 (pair rotations require two indices)")
    # the Der(S_n) structure code compiles only for outer-check and decompose
    from .schrodinger_der import outer_check

    report = outer_check(args.n, args.field)
    _emit(report, args.output)
    return 0 if report["ok"] else 2


def _cmd_locder_basis(args) -> int:
    L = _algebra_from_args(args)
    result = basis_probe_space(derivation_space(L))
    _emit(result.to_report(_schrodinger_n(args, L)), args.output)
    return 0


def _cmd_locder_replay(args) -> int:
    result = replay_proof(args.n)
    _emit(result.to_report(args.n), args.output)
    return 0 if result.equal else 2


def _cmd_locder_random(args) -> int:
    L = _algebra_from_args(args)
    result = random_probe_closure(
        derivation_space(L), seed=args.seed, max_probes=args.max_probes, stall_limit=args.stall
    )
    _emit(result.to_report(_schrodinger_n(args, L)), args.output)
    return 0 if result.equal else 2


def _cmd_certify(args) -> int:
    # the certifier and poly compile only for the two commands that run them
    from .certifier import certify_local_symbolic

    L = _load_algebra(args.input)
    delta = _parse_map(args.map, L)
    der = derivation_space(L)
    leibniz = is_derivation(L, delta)
    cert = certify_local_symbolic(der, delta)
    report = {
        "algebra": L.name,
        "field": L.field.tag,
        "der_dim": der.dim,
        "is_derivation": leibniz.ok,
        "leibniz_failing_pair": list(leibniz.failing_pair) if leibniz.failing_pair else None,
        "local": cert.certified,
        "refutation": None
        if cert.refutation is None
        else [format_scalar(c) for c in cert.refutation.coords],
        "strata": list(cert.strata),
    }
    _emit(report, args.output)
    return 0 if cert.certified else 2


def _cmd_demo_heisenberg(args) -> int:
    from .certifier import certify_local_symbolic

    L = make_heisenberg(1, args.field)
    der = derivation_space(L)
    d = L.dim
    rows = [[0] * d for _ in range(d)]
    rows[L.index["z"]][L.index["z"]] = 1
    delta = Matrix(L.field, rows)
    leibniz = is_derivation(L, delta)
    cert = certify_local_symbolic(der, delta)
    closure = random_probe_closure(
        der, seed=args.seed, max_probes=args.max_probes, stall_limit=args.stall
    )
    report = closure.to_report(None)
    report["demo"] = {
        "map": _matrix_text(delta),
        "is_derivation": leibniz.ok,
        "leibniz_failing_pair": list(leibniz.failing_pair) if leibniz.failing_pair else None,
        "certified_local": cert.certified,
        "pure_local_derivation": cert.certified and not leibniz.ok,
        "local_der_dim_exceeds_der_dim": closure.dim > der.dim,
    }
    _emit(report, args.output)
    exhibited = report["demo"]["pure_local_derivation"] and closure.dim > der.dim
    return 0 if exhibited else 2


def _cmd_decompose(args) -> int:
    from .schrodinger_der import decompose

    L = _algebra_from_args(args)
    n = _schrodinger_n(args, L)
    if n is None:
        raise CliError("decompose requires a generated Schrodinger algebra")
    delta = _parse_map(args.map, L)
    try:
        dec = decompose(L, delta, n)
    except LeibnizError as exc:
        _emit(
            {
                "algebra": L.name,
                "field": L.field.tag,
                "is_derivation": False,
                "leibniz_failing_pair": list(exc.failing_pair),
            },
            args.output,
        )
        return 2
    _emit(
        {
            "algebra": L.name,
            "field": L.field.tag,
            "is_derivation": True,
            "inner_part": [format_scalar(c) for c in dec.inner_part.coords],
            "sigma_coeffs": {
                f"{l},{k}": format_scalar(c) for (l, k), c in sorted(dec.sigma_coeffs.items())
            },
            "tau_coeff": format_scalar(dec.tau_coeff),
        },
        args.output,
    )
    return 0


def _count(text: str) -> int:
    """A non-negative integer option; argparse reports a failure as a usage error."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


def _common(p, with_n=False, with_input=False, with_seed=False):
    # with an algebra file, --field stays None unless given (a usage error)
    default = None if with_input else FIELD_Q.tag
    p.add_argument("--field", choices=[FIELD_Q.tag, FIELD_QI.tag], default=default)
    p.add_argument("-o", "--output", metavar="PATH", default=None)
    if with_n:
        p.add_argument("--n", type=int, default=None)
    if with_input:
        p.add_argument("input", nargs="?", default=None, metavar="ALGEBRA_FILE")
    if with_seed:
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--max-probes", type=_count, default=DEFAULT_MAX_PROBES)
        p.add_argument("--stall", type=_count, default=DEFAULT_STALL_LIMIT)


def _setup_gen(p):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--schrodinger", type=int, metavar="N")
    group.add_argument("--heisenberg", type=int, metavar="N")
    group.add_argument("--sl2", action="store_true")
    group.add_argument("--abelian", type=int, metavar="K")
    _common(p)


def _setup_jacobi(p):
    p.add_argument("input", metavar="ALGEBRA_FILE")


def _setup_der(p):
    _common(p, with_n=True, with_input=True)
    p.add_argument("--basis", action="store_true", help="include the basis matrices")


def _setup_outer_check(p):
    _common(p)
    p.add_argument("--n", type=int, required=True)


def _setup_locder_basis(p):
    _common(p, with_n=True, with_input=True)


def _setup_locder_replay(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("-o", "--output", metavar="PATH", default=None)


def _setup_locder_random(p):
    _common(p, with_n=True, with_input=True, with_seed=True)


def _setup_certify(p):
    p.add_argument("input", metavar="ALGEBRA_FILE")
    p.add_argument("--map", required=True, metavar="MAP_FILE")
    p.add_argument("-o", "--output", default=None)


def _setup_demo_heisenberg(p):
    _common(p, with_seed=True)


def _setup_decompose(p):
    _common(p, with_n=True, with_input=True)
    p.add_argument("--map", required=True, metavar="MAP_FILE")


# name: (help, setup, command) for each subcommand, in the order of the help
_COMMANDS = {
    "gen": ("generate a structure-constant file", _setup_gen, _cmd_gen),
    "jacobi": ("verify the Jacobi identity of a file", _setup_jacobi, _cmd_jacobi),
    "der": ("compute the derivation algebra", _setup_der, _cmd_der),
    "outer-check": (
        "verify the outer-derivation decomposition", _setup_outer_check, _cmd_outer_check
    ),
    "locder-basis": ("basis-singleton candidate space", _setup_locder_basis, _cmd_locder_basis),
    "locder-replay": (
        "deterministic local-derivation verification over Q(i)",
        _setup_locder_replay,
        _cmd_locder_replay,
    ),
    "locder-random": ("seeded random-probe closure", _setup_locder_random, _cmd_locder_random),
    "certify": ("symbolic locality certificate for a map", _setup_certify, _cmd_certify),
    "demo-heisenberg": (
        "exhibit a local non-derivation on the 3-dim Heisenberg algebra",
        _setup_demo_heisenberg,
        _cmd_demo_heisenberg,
    ),
    "decompose": (
        "resolve a derivation against inner + sigma + tau", _setup_decompose, _cmd_decompose
    ),
}


def build_parser(command: Optional[str] = None) -> _Parser:
    """The parser of every subcommand, or of ``command`` alone.  The one
    subcommand prints the same help and usage errors as the full parser,
    whose usage line it keeps (``metavar``)."""
    parser = _Parser(prog="liederiv", description=__doc__)
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, setup, func) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            setup(p)
            p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # one subcommand's parser is a fraction of the cost of all of them;
    # -h, a missing command and an unknown one need the full parser
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        # the tag turns into a Field after parsing, so that argparse's own
        # choices check reports an unknown --field
        if vars(args).get("field"):
            args.field = field_of(args.field)
        return args.func(args)
    except (CliError, OSError, ValueError) as exc:
        # JacobiError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CertificationError as exc:
        print(f"error: undecided: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
