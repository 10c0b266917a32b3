"""Golden stdout: a fixed command set must print the same bytes as the
files under ``tests/golden/``.

Refactors and speed-ups of the exact layers must not change a single
byte of any report.  To rewrite the golden files after an intended
change of output, run ``PYTHONPATH=src python tests/test_golden.py``
from the repository root and review the diff.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from liederiv.cli import main
from liederiv.exactfield import FIELD_Q, FIELD_QI, GaussianRational, I, format_scalar
from liederiv.liealg import make_heisenberg, to_json
from liederiv.schrodinger import make_schrodinger
from conftest import ad, from_terms

GOLDEN = Path(__file__).parent / "golden"

# name -> (argv, expected exit code)
CASES = {
    "der_n3": (["der", "--n", "3"], 0),
    # the canonical RREF basis of Der, over Q and over Q(i)
    "der_n2_basis": (["der", "--n", "2", "--basis"], 0),
    "der_n2_basis_qi": (["der", "--n", "2", "--basis", "--field", "Qi"], 0),
    "outer_check_n3": (["outer-check", "--n", "3"], 0),
    "locder_basis_n2": (["locder-basis", "--n", "2"], 0),
    # not a Schrodinger algebra, so the report prints "n": null
    "locder_basis_h1": (["locder-basis", "{dir}/h1.json"], 0),
    "locder_replay_n3": (["locder-replay", "--n", "3"], 0),
    # the bench workload: the Q(i) replay on S_5
    "locder_replay_n5": (["locder-replay", "--n", "5"], 0),
    "locder_random_n2": (["locder-random", "--n", "2", "--seed", "24301"], 0),
    # the bench workload: the seeded random closure over Q on S_3
    "locder_random_n3": (["locder-random", "--n", "3", "--seed", "24301"], 0),
    # S_1 from a file: the report's n comes from recognizing the algebra
    "locder_random_s1_file": (["locder-random", "{dir}/s1.json", "--seed", "24301"], 0),
    "demo_heisenberg": (["demo-heisenberg"], 0),
    "certify_h1_zz": (["certify", "{dir}/h1.json", "--map", "{dir}/h1_zz.json"], 0),
    # the same map over Q(i): the strata run on Gaussian rationals (11 strata)
    "certify_h1_zz_qi": (["certify", "{dir}/h1qi.json", "--map", "{dir}/h1qi_zz.json"], 0),
    # the bench workload: h_2 with z -> z is local (66 strata)
    "certify_h2_zz": (["certify", "{dir}/h2.json", "--map", "{dir}/h2_zz.json"], 0),
    # the same map on h_2 over Q(i): lines of rank 1 and 5 on Gaussian rationals
    "certify_h2_zz_qi": (["certify", "{dir}/h2qi.json", "--map", "{dir}/h2qi_zz.json"], 0),
    # S_1 with z -> z is not local: the seeded scan finds a refutation
    "certify_s1_zz": (["certify", "{dir}/s1.json", "--map", "{dir}/s1_zz.json"], 2),
    # ad(h) + 3*tau + sigma_12 on S_2, resolved against inner + sigma + tau
    "decompose_n2": (["decompose", "--n", "2", "--map", "{dir}/s2_dec.json"], 0),
    # ad((1+i)h + i*e + u_1/2) + (2-i)*tau + i*sigma_12 on S_2 over Q(i):
    # the one case whose report prints non-real scalars
    "decompose_n2_qi": (
        ["decompose", "--n", "2", "--field", "Qi", "--map", "{dir}/s2qi_dec.json"],
        0,
    ),
    "outer_check_n2_qi": (["outer-check", "--n", "2", "--field", "Qi"], 0),
    # the two commands that print a field tag read from a file or --field
    "gen_h1_qi": (["gen", "--heisenberg", "1", "--field", "Qi"], 0),
    "gen_s2": (["gen", "--schrodinger", "2"], 0),
    "jacobi_h1_qi": (["jacobi", "{dir}/h1qi.json"], 0),
}


def write_certify_inputs(directory: Path) -> None:
    """h_1 and h_2 (each over Q and over Q(i)) and S_1, each with the map z -> z,
    zero elsewhere, and two derivations of S_2: ad(h) + 3*tau + sigma_12
    over Q and ad((1+i)h + i*e + u_1/2) + (2-i)*tau + i*sigma_12 over Q(i)."""
    algebras = {
        "h1": make_heisenberg(1),
        "h1qi": make_heisenberg(1, FIELD_QI),
        "h2": make_heisenberg(2),
        "h2qi": make_heisenberg(2, FIELD_QI),
        "s1": make_schrodinger(1),
    }
    for name, L in algebras.items():
        (directory / f"{name}.json").write_text(to_json(L))
        rows = [["0"] * L.dim for _ in range(L.dim)]
        z = L.index["z"]
        rows[z][z] = "1"
        (directory / f"{name}_zz.json").write_text(json.dumps({"matrix": rows}))
    # name -> (field, inner element, tau coefficient, sigma_12 coefficient)
    maps = {
        "s2_dec": (FIELD_Q, {"h": 1}, Fraction(3), 1),
        "s2qi_dec": (
            FIELD_QI,
            {"h": GaussianRational(1, 1), "e": I, "u_1": Fraction(1, 2)},
            GaussianRational(2, -1),
            I,
        ),
    }
    for name, (field, inner, tau, sigma) in maps.items():
        s2 = make_schrodinger(2, field)
        at = s2.index
        dec = [list(row) for row in ad(from_terms(s2, inner)).entries]
        dec[at["z"]][at["z"]] += tau
        for lab in ("u_1", "u_2", "v_1", "v_2"):
            dec[at[lab]][at[lab]] += tau / 2
        for a, b in (("u_1", "u_2"), ("v_1", "v_2")):
            dec[at[b]][at[a]] += sigma
            dec[at[a]][at[b]] -= sigma
        rows = [[format_scalar(x) for x in row] for row in dec]
        (directory / f"{name}.json").write_text(json.dumps({"matrix": rows}))


def argv_for(name: str, directory: Path) -> list:
    return [a.format(dir=directory) for a in CASES[name][0]]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name, tmp_path, capsys):
    write_certify_inputs(tmp_path)
    code = main(argv_for(name, tmp_path))
    out = capsys.readouterr().out
    assert code == CASES[name][1]
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        write_certify_inputs(Path(tmp))
        for name in sorted(CASES):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(argv_for(name, Path(tmp)))
            if code != CASES[name][1]:
                sys.exit(f"{name}: exit {code}, expected {CASES[name][1]}")
            (GOLDEN / f"{name}.json").write_text(buf.getvalue(), encoding="utf-8")
