import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from liederiv import certifier, cli, liealg, schrodinger_der
from liederiv.cli import main
from liederiv.exactfield import format_scalar
from liederiv.liealg import load, make_heisenberg, to_json
from liederiv.schrodinger import make_schrodinger
from conftest import ad, from_terms


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_then_jacobi_round_trip(tmp_path, capsys):
    path = tmp_path / "s2.json"
    code, out, err = run_cli(capsys, "gen", "--schrodinger", "2", "-o", str(path))
    assert code == 0 and out == ""
    assert load(str(path)) == make_schrodinger(2)
    code, out, err = run_cli(capsys, "jacobi", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["jacobi"] is True and report["dim"] == 8


def test_gen_heisenberg_and_sl2(tmp_path, capsys):
    for args, dim in ((("--heisenberg", "2"), 5), (("--sl2",), 3)):
        path = tmp_path / f"alg{dim}.json"
        code, _, _ = run_cli(capsys, "gen", *args, "-o", str(path))
        assert code == 0
        assert load(str(path)).dim == dim


def test_jacobi_rejects_corrupted_file(tmp_path, capsys):
    doc = json.loads(to_json(make_schrodinger(1)))
    for entry in doc["brackets"]:
        if entry["left"] == "e" and entry["right"] == "h":
            entry["terms"][0]["coeff"] = "2/1"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "jacobi", str(path))
    assert code == 2
    # the same keys as a passing report, with the name read from the file
    assert json.loads(out) == {
        "algebra": "schrodinger_1",
        "dim": 6,
        "field": "Q",
        "jacobi": False,
        "failing_triple": ["e", "h", "f"],
    }


def test_parse_error_exits_one(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{broken")
    code, out, err = run_cli(capsys, "jacobi", str(path))
    assert code == 1 and err


def test_missing_file_exits_one(capsys):
    code, out, err = run_cli(capsys, "jacobi", "/nonexistent/file.json")
    assert code == 1 and err


def test_usage_error_exits_one(capsys):
    code, out, err = run_cli(capsys, "gen")
    assert code == 1 and err


def test_der_report(capsys):
    code, out, _ = run_cli(capsys, "der", "--n", "2")
    assert code == 0
    report = json.loads(out)
    assert report["der_dim"] == 9
    assert report["inner_dim"] == 7
    assert report["outer_dim"] == 2


def test_der_basis_export(tmp_path, capsys):
    path = tmp_path / "h1.json"
    run_cli(capsys, "gen", "--heisenberg", "1", "-o", str(path))
    code, out, _ = run_cli(capsys, "der", str(path), "--basis")
    assert code == 0
    report = json.loads(out)
    assert report["der_dim"] == 6
    assert len(report["basis"]) == 6
    assert all(len(m) == 3 and len(m[0]) == 3 for m in report["basis"])


@pytest.mark.parametrize("field", ["Q", "Qi"])
def test_der_basis_streams_the_bytes_of_one_report(tmp_path, capsys, field):
    # the basis is written map by map; stdout and --output both carry the
    # bytes of the whole report dumped at once, as every other command writes
    code, out, _ = run_cli(capsys, "der", "--n", "3", "--field", field, "--basis")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    path = tmp_path / "der.json"
    argv = ["der", "--n", "3", "--field", field, "--basis", "-o", str(path)]
    code, written, _ = run_cli(capsys, *argv)
    assert code == 0 and written == ""
    assert path.read_text(encoding="utf-8") == out


def test_outer_check(capsys):
    code, out, _ = run_cli(capsys, "outer-check", "--n", "2")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["sigma_count"] == 1


_SIGMA_ENTRIES = schrodinger_der._sigma_entries


def _same_index_sigma(n, l, k, at):
    # u_l -> u_k, u_k -> u_l (and on v): not a derivation
    return {q: 1 for q in _SIGMA_ENTRIES(n, l, k, at)}


def _sigma_12_for_tau(n, at):
    return _SIGMA_ENTRIES(n, 1, 2, at)


@pytest.mark.parametrize(
    "builder, swap, failing",
    [
        ("_sigma_entries", _same_index_sigma, "sigma_12_leibniz"),
        ("_tau_entries", _sigma_12_for_tau, "tau_outside_inner_plus_sigma"),
    ],
    ids=["same-index-sigma", "tau-as-sigma"],
)
def test_each_outer_check_can_fail(builder, swap, failing, capsys, monkeypatch):
    # outer_check reads sigma and tau through their entry builders, so a
    # wrong map there must show as a failed check, ok false and exit 2
    monkeypatch.setattr(schrodinger_der, builder, swap)
    report = schrodinger_der.outer_check(2)
    assert report["checks"][failing] is False and report["ok"] is False
    assert [k for k, v in report["checks"].items() if not v][0] == failing
    code, out, _ = run_cli(capsys, "outer-check", "--n", "2")
    assert code == 2 and json.loads(out) == report


def test_locder_replay_report(capsys):
    code, out, _ = run_cli(capsys, "locder-replay", "--n", "2")
    assert code == 0
    report = json.loads(out)
    assert report["algebra"] == "schrodinger_2"
    assert report["n"] == 2
    assert report["field"] == "Qi"
    assert report["der_dim"] == report["candidate_dim"] == 9
    assert report["equal"] is True
    assert report["seed"] is None and report["stop_reason"] is None
    assert report["history"][0]["probe"] == "e"
    assert all(
        step["dim_after"] <= step["dim_before"] for step in report["history"]
    )


def test_locder_replay_rejects_rational_field(capsys):
    code, out, err = run_cli(capsys, "locder-replay", "--n", "2", "--field", "Q")
    assert code == 1 and err


def test_locder_replay_takes_no_field_option(capsys):
    # the replay schedule runs over Q(i) only, so there is nothing to choose
    for field in ("Q", "Qi"):
        code, out, err = run_cli(capsys, "locder-replay", "--n", "2", "--field", field)
        assert code == 1 and out == ""
        assert "error: unrecognized arguments: --field" in err


def test_locder_basis_report(capsys):
    code, out, _ = run_cli(capsys, "locder-basis", "--n", "2")
    assert code == 0
    report = json.loads(out)
    assert report["candidate_dim"] == 31
    assert report["equal"] is False


def test_locder_random_heisenberg_not_equal_exits_two(tmp_path, capsys):
    path = tmp_path / "h1.json"
    run_cli(capsys, "gen", "--heisenberg", "1", "-o", str(path))
    code, out, _ = run_cli(
        capsys, "locder-random", str(path), "--max-probes", "200", "--stall", "80"
    )
    assert code == 2
    report = json.loads(out)
    assert report["der_dim"] == 6 and report["candidate_dim"] == 7
    assert report["stop_reason"] == "stalled"


def test_locder_random_schrodinger_verifies(capsys):
    code, out, _ = run_cli(capsys, "locder-random", "--n", "1")
    assert code == 0
    report = json.loads(out)
    assert report["candidate_dim"] == report["der_dim"] == 6
    assert report["seed"] == 0x5EED
    assert report["stop_reason"] == "collapsed"


def test_demo_heisenberg(capsys):
    code, out, _ = run_cli(capsys, "demo-heisenberg")
    assert code == 0
    report = json.loads(out)
    assert report["der_dim"] == 6
    assert report["candidate_dim"] == 7
    demo = report["demo"]
    assert demo["is_derivation"] is False
    assert demo["leibniz_failing_pair"] == ["u_1", "v_1"]
    assert demo["certified_local"] is True
    assert demo["pure_local_derivation"] is True


def test_demo_heisenberg_runs_over_the_requested_field(capsys):
    code, out, _ = run_cli(capsys, "demo-heisenberg", "--field", "Qi")
    assert code == 0
    report = json.loads(out)
    assert report["field"] == "Qi"
    assert report["der_dim"] == 6
    assert report["candidate_dim"] == 7
    assert report["demo"]["pure_local_derivation"] is True


def test_certify_command(tmp_path, capsys):
    alg = tmp_path / "h1.json"
    run_cli(capsys, "gen", "--heisenberg", "1", "-o", str(alg))
    H = make_heisenberg(1)
    rows = [["0/1"] * 3 for _ in range(3)]
    rows[H.index["z"]][H.index["z"]] = "1/1"
    mp = tmp_path / "map.json"
    mp.write_text(json.dumps({"matrix": rows}))
    code, out, _ = run_cli(capsys, "certify", str(alg), "--map", str(mp))
    assert code == 0
    report = json.loads(out)
    assert report["local"] is True and report["is_derivation"] is False

    rows2 = [["0/1"] * 3 for _ in range(3)]
    rows2[H.index["u_1"]][H.index["z"]] = "1/1"
    mp2 = tmp_path / "map2.json"
    mp2.write_text(json.dumps({"matrix": rows2}))
    code, out, _ = run_cli(capsys, "certify", str(alg), "--map", str(mp2))
    assert code == 2
    report = json.loads(out)
    assert report["local"] is False and report["refutation"] is not None


def test_decompose_command(tmp_path, capsys):
    rows = [["0/1"] * 8 for _ in range(8)]
    L = make_schrodinger(2)
    # 3*tau + sigma_12
    rows[L.index["z"]][L.index["z"]] = "3/1"
    for lab in ("u_1", "u_2", "v_1", "v_2"):
        rows[L.index[lab]][L.index[lab]] = "3/2"
    rows[L.index["u_2"]][L.index["u_1"]] = "1/1"
    rows[L.index["u_1"]][L.index["u_2"]] = "-1/1"
    rows[L.index["v_2"]][L.index["v_1"]] = "1/1"
    rows[L.index["v_1"]][L.index["v_2"]] = "-1/1"
    mp = tmp_path / "map.json"
    mp.write_text(json.dumps({"matrix": rows}))
    code, out, _ = run_cli(capsys, "decompose", "--n", "2", "--map", str(mp))
    assert code == 0
    report = json.loads(out)
    assert report["is_derivation"] is True
    assert report["tau_coeff"] == "3/1"
    assert report["sigma_coeffs"] == {"1,2": "1/1"}

    bad = [["0/1"] * 8 for _ in range(8)]
    bad[L.index["u_1"]][L.index["z"]] = "1/1"
    mp2 = tmp_path / "bad.json"
    mp2.write_text(json.dumps({"matrix": bad}))
    code, out, _ = run_cli(capsys, "decompose", "--n", "2", "--map", str(mp2))
    assert code == 2
    assert json.loads(out)["is_derivation"] is False


def test_decompose_builds_the_algebra_once(tmp_path, capsys, monkeypatch):
    mp = tmp_path / "zero.json"
    mp.write_text(json.dumps({"matrix": [["0/1"] * 8 for _ in range(8)]}))
    built = []
    check = liealg.check_jacobi
    monkeypatch.setattr(liealg, "check_jacobi", lambda L: built.append(L.name) or check(L))
    code, out, _ = run_cli(capsys, "decompose", "--n", "2", "--map", str(mp))
    assert code == 0 and json.loads(out)["tau_coeff"] == "0/1"
    assert built == ["schrodinger_2"]


@pytest.mark.parametrize(
    "argv", [["locder-random", "--n", "3"], ["locder-basis", "--n", "2"]], ids=["random", "basis"]
)
def test_fold_commands_build_the_algebra_once(capsys, monkeypatch, argv):
    # --n fixes the report's n, so the fold never rebuilds S_n to find it
    built = []
    check = liealg.check_jacobi
    monkeypatch.setattr(liealg, "check_jacobi", lambda L: built.append(L.name) or check(L))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["n"] == int(argv[-1])
    assert built == [f"schrodinger_{argv[-1]}"]


def test_decompose_checks_the_product_rule_once(tmp_path, capsys, monkeypatch):
    calls = []
    check = schrodinger_der.is_derivation
    for module in (cli, schrodinger_der):
        monkeypatch.setattr(module, "is_derivation", lambda L, D: calls.append(1) or check(L, D))
    L = make_schrodinger(2)
    rows = [[format_scalar(x) for x in row] for row in ad(from_terms(L, {"e": 1})).entries]
    mp = tmp_path / "ad_e.json"
    mp.write_text(json.dumps({"matrix": rows}))
    code, out, _ = run_cli(capsys, "decompose", "--n", "2", "--map", str(mp))
    assert code == 0
    assert json.loads(out)["inner_part"] == ["1/1"] + ["0/1"] * 7
    assert len(calls) == 1
    # a non-derivation still gets the failing pair and exit 2
    bad = [["0/1"] * 8 for _ in range(8)]
    bad[L.index["u_1"]][L.index["z"]] = "1/1"
    mp.write_text(json.dumps({"matrix": bad}))
    code, out, err = run_cli(capsys, "decompose", "--n", "2", "--map", str(mp))
    assert code == 2 and err == ""
    assert json.loads(out) == {
        "algebra": "schrodinger_2",
        "field": "Q",
        "is_derivation": False,
        "leibniz_failing_pair": ["h", "z"],
    }


def test_reports_are_byte_identical_across_runs(capsys):
    _, out1, _ = run_cli(capsys, "locder-replay", "--n", "1")
    _, out2, _ = run_cli(capsys, "locder-replay", "--n", "1")
    assert out1 == out2
    _, out3, _ = run_cli(capsys, "locder-random", "--n", "1", "--seed", "7")
    _, out4, _ = run_cli(capsys, "locder-random", "--n", "1", "--seed", "7")
    assert out3 == out4


def test_gen_output_is_reloadable_and_stable(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(capsys, "gen", "--schrodinger", "3", "-o", str(p1))
    run_cli(capsys, "gen", "--schrodinger", "3", "-o", str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert load(str(p1)) == make_schrodinger(3)


def assert_one_line_error(code, out, err):
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, content",
    [
        (["jacobi", "{bad}"], b"[" * 200000),
        (["der", "{bad}"], b"[" * 200000),
        (["certify", "{h1}", "--map", "{bad}"], b"[" * 200000),
        (["certify", "{h1}", "--map", "{bad}"], b'\xff{"matrix": []}'),
    ],
    ids=["jacobi-deep", "der-deep", "map-deep", "map-not-utf8"],
)
def test_malformed_files_give_a_one_line_error_naming_the_file(tmp_path, capsys, argv, content):
    h1, bad = write_h1_with(tmp_path, lambda doc: None), tmp_path / "bad.json"
    bad.write_bytes(content)
    code, out, err = run_cli(capsys, *(a.format(h1=h1, bad=bad) for a in argv))
    assert_one_line_error(code, out, err)
    assert err.startswith(f"error: {bad}: ")


def write_h1_with(tmp_path, mutate):
    doc = json.loads(to_json(make_heisenberg(1)))
    mutate(doc)
    path = tmp_path / "h1.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize(
    "tag", ["R", ["Q"], {"a": 1}, 5, None], ids=["string", "list", "object", "number", "null"]
)
def test_unknown_field_tag_in_a_file_exits_one(tmp_path, capsys, tag):
    # an unhashable tag must not reach a dict lookup: its TypeError
    # would escape main as a traceback
    path = write_h1_with(tmp_path, lambda doc: doc.update(field=tag))
    code, out, err = run_cli(capsys, "jacobi", str(path))
    assert_one_line_error(code, out, err)
    assert err == f"error: {path}: unknown field tag {tag!r}\n"


def test_unknown_field_option_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "der", "--n", "1", "--field", "R")
    assert code == 1 and out == ""
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == ["error: argument --field: invalid choice: 'R' (choose from 'Q', 'Qi')"]


def test_zero_denominator_coefficient_exits_one(tmp_path, capsys):
    def mutate(doc):
        doc["brackets"][0]["terms"][0]["coeff"] = "1/0"

    path = write_h1_with(tmp_path, mutate)
    assert_one_line_error(*run_cli(capsys, "jacobi", str(path)))


def test_integer_coefficient_exits_one(tmp_path, capsys):
    def mutate(doc):
        doc["brackets"][0]["terms"][0]["coeff"] = 1

    path = write_h1_with(tmp_path, mutate)
    assert_one_line_error(*run_cli(capsys, "der", str(path)))


def test_non_object_bracket_entry_exits_one(tmp_path, capsys):
    def mutate(doc):
        doc["brackets"].append(7)

    path = write_h1_with(tmp_path, mutate)
    assert_one_line_error(*run_cli(capsys, "jacobi", str(path)))


def test_integer_map_entry_exits_one(tmp_path, capsys):
    alg = write_h1_with(tmp_path, lambda doc: None)
    mp = tmp_path / "map.json"
    mp.write_text(json.dumps({"matrix": [[0, 0, 0], [0, 0, 0], [0, 0, 1]]}))
    assert_one_line_error(*run_cli(capsys, "certify", str(alg), "--map", str(mp)))


@pytest.mark.parametrize("command", ["certify", "decompose"])
def test_a_map_file_with_unknown_keys_exits_one(tmp_path, capsys, command):
    # a map object holds "matrix" alone; like an algebra file, it rejects
    # any other key instead of ignoring it
    alg = tmp_path / "s1.json"
    run_cli(capsys, "gen", "--schrodinger", "1", "-o", str(alg))
    rows = [["0"] * 6 for _ in range(6)]
    mp = tmp_path / "map.json"
    mp.write_text(json.dumps({"matrix": rows, "x": 1}))
    algebra = ["--n", "1"] if command == "decompose" else [str(alg)]
    argv = [command, *algebra, "--map", str(mp)]
    code, out, err = run_cli(capsys, *argv)
    assert_one_line_error(code, out, err)
    assert err == f"error: {mp}: unknown keys ['x'] in map file\n"
    mp.write_text(json.dumps({"matrix": rows}))
    assert run_cli(capsys, *argv)[0] == 0


def test_certify_above_dimension_bound_exits_one(tmp_path, capsys):
    alg = tmp_path / "s3.json"
    run_cli(capsys, "gen", "--schrodinger", "3", "-o", str(alg))
    rows = [["0"] * 10 for _ in range(10)]
    rows[3][3] = "1"
    mp = tmp_path / "map.json"
    mp.write_text(json.dumps({"matrix": rows}))
    code, out, err = run_cli(capsys, "certify", str(alg), "--map", str(mp))
    assert_one_line_error(code, out, err)
    assert "exceeds the certifier bound" in err


@pytest.mark.parametrize("command", ["certify", "demo-heisenberg"])
def test_an_undecided_certificate_exits_one(tmp_path, capsys, monkeypatch, command):
    # with the bound lowered to 2, h_1 (d = 3) is above it: each command
    # that runs the certifier reports its CertificationError in one line
    monkeypatch.setattr(certifier, "_DIM_BOUND", 2)
    alg = write_h1_with(tmp_path, lambda doc: None)
    mp = tmp_path / "zz.json"
    mp.write_text(json.dumps({"matrix": [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "1"]]}))
    argv = ["certify", str(alg), "--map", str(mp)] if command == "certify" else [command]
    code, out, err = run_cli(capsys, *argv)
    assert_one_line_error(code, out, err)
    assert err == "error: undecided: algebra dimension 3 exceeds the certifier bound 2\n"


@pytest.mark.parametrize("command", ["locder-random", "demo-heisenberg"])
@pytest.mark.parametrize("option", ["--max-probes", "--stall"])
def test_negative_probe_limits_are_usage_errors(capsys, command, option):
    argv = [command, option, "-1"] + (["--n", "1"] if command == "locder-random" else [])
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: argument {option}: expected a non-negative integer, got -1"]


def test_jacobi_command_checks_the_identity_once(tmp_path, capsys, monkeypatch):
    path = write_h1_with(tmp_path, lambda doc: None)
    passes = []
    check = liealg.check_jacobi
    for module in (liealg, cli):
        monkeypatch.setattr(
            module, "check_jacobi", lambda L: passes.append(L.name) or check(L), raising=False
        )
    code, out, _ = run_cli(capsys, "jacobi", str(path))
    assert code == 0 and json.loads(out)["jacobi"] is True
    assert passes == ["heisenberg_1"]


@pytest.mark.parametrize("command", ["der", "locder-basis", "locder-random", "decompose"])
@pytest.mark.parametrize(
    "option", [["--field", "Qi"], ["--field", "Q"], ["--n", "1"]], ids=["Qi", "Q", "n"]
)
def test_n_and_field_next_to_an_algebra_file_are_usage_errors(tmp_path, capsys, command, option):
    # the file fixes the algebra and its field; S_1 runs every command
    alg, mp = tmp_path / "s1.json", tmp_path / "zero.json"
    alg.write_text(to_json(make_schrodinger(1)))
    mp.write_text(json.dumps({"matrix": [["0"] * 6 for _ in range(6)]}))
    argv = [command, str(alg), *option] + (["--map", str(mp)] if command == "decompose" else [])
    code, out, err = run_cli(capsys, *argv)
    assert_one_line_error(code, out, err)
    assert err == "error: --n and --field do not apply to an algebra file\n"


def _not_json(text):
    try:
        json.loads(text)
    except ValueError:
        return True
    return False


_H1_TEXT = to_json(make_heisenberg(1))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.one_of(
        st.text(st.characters(blacklist_categories=("Cs",))),
        # a valid algebra file cut short
        st.integers(0, len(_H1_TEXT) - 2).map(lambda k: _H1_TEXT[:k]),
    ).filter(_not_json)
)
def test_der_rejects_any_file_that_is_not_json(tmp_path, capsys, text):
    path = tmp_path / "alg.json"
    path.write_text(text, encoding="utf-8")
    assert_one_line_error(*run_cli(capsys, "der", str(path)))


def _parse_output(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("exit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _with_the_full_parser(monkeypatch):
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_one_subcommand_parser_prints_what_the_full_parser_prints(capsys, monkeypatch, command):
    # main builds only the parser of the subcommand it runs; its help, and
    # a usage error with its exit code 1, read the same as the full parser's
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command) or real(command))
    # the last case is an error of the subcommand's parser or, past it, of the top one
    cases = [(command, "-h"), (command, "--no-such-option"), (command, "a", "b", "c")]
    one = [_parse_output(capsys, argv) for argv in cases]
    assert built == [command] * len(cases)
    _with_the_full_parser(monkeypatch)
    full = [_parse_output(capsys, argv) for argv in cases]
    assert one == full
    assert one[0][0] == ("exit", 0) and one[0][1].startswith(f"usage: liederiv {command} ")
    assert all(code == 1 and err.startswith("usage: ") for code, _, err in one[1:])


def test_help_and_unknown_or_missing_commands_use_the_full_parser(capsys, monkeypatch):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command) or real(command))
    assert _parse_output(capsys, ["-h"])[0] == ("exit", 0)
    assert _parse_output(capsys, [])[0] == 1
    assert _parse_output(capsys, ["no-such-command"])[0] == 1
    assert built == [None, None, None]
