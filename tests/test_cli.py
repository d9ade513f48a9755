"""CLI: subcommands, output schema, exit codes, determinism."""

import argparse
import gc
import hashlib
import json
import time
import weakref

import pytest

from lpacket import cli
from lpacket import seesaw as seesaw_mod
from lpacket.cli import main
from lpacket.dsl import parse
from lpacket.epsilon import key_text
from lpacket.errors import InvariantViolation
from lpacket.serialize import sign_jsons, sign_str

FIXTURE = """
base { omega_minus_one = -1; n = 3; identify_chi = false; }
param phi1 on U(W,3,+) supercuspidal {
  A dim 1 sign + tempered sl2triv;
  B dim 2 sign + tempered sl2triv;
}
param phi on U(V,4,-) tempered {
  char chi_W;
  C*chi_V^-1*chi*chi_W dim 3 sign + tempered sl2triv;
}
param nochiw on U(V,4,-) tempered {
  X dim 4 sign - tempered sl2triv;
}
param notsc on U(W,3,+) tempered {
  A dim 1 sign + tempered sl2triv;
  B dim 2 sign + tempered sl2triv;
}
epsilon {
  (A, char chi_V^-1; psi2E) = -1;
  (B, char chi_V^-1; psi2E) = -1;
}
"""


@pytest.fixture
def doc_path(tmp_path):
    path = tmp_path / "doc.lpk"
    path.write_text(FIXTURE)
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_packet_members(doc_path, capsys):
    code, out = run_cli(capsys, ["--input", doc_path, "packet", "phi1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "ggp-report/2"
    assert len(payload["members"]) == 4
    sides = [m["side"] for m in payload["members"]]
    assert sides.count("+1") == 2 and sides.count("-1") == 2


def test_theta_up1_table(doc_path, capsys):
    code, out = run_cli(capsys, ["--input", doc_path, "theta", "up1", "phi1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["lifted"]["group"]["rank"] == 4
    assert len(payload["characters"]) == 4
    row = payload["characters"][0]
    assert set(row) == {"source", "target_+1", "target_-1"}


def test_theta_up2_table(doc_path, capsys):
    code, out = run_cli(
        capsys, ["--input", doc_path, "--seed", "9", "theta", "up2", "phi1"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["lifted"]["group"]["rank"] == 5
    assert payload["lifted"]["dual_pairs"]
    assert len(payload["characters"]) == 4


def test_ggp_zero_case(doc_path, capsys):
    code, out = run_cli(capsys, ["--input", doc_path, "ggp", "phi1", "nochiw"])
    assert code == 0
    assert json.loads(out)["case"] == "Zero"


def test_ggp_one_case_with_table_backend(doc_path, capsys):
    code, out = run_cli(
        capsys,
        ["--input", doc_path, "--backend", "one", "ggp", "phi1", "phi"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["case"] == "One"
    upper = payload["distinguished"]["upper"]
    assert set(upper["character"]) <= {"+1"}
    assert payload["recovered_phi2"]["group"]["form"] == "skew"
    assert payload["audit"]


def test_ggp_hypothesis_violation_exit_2(doc_path, capsys):
    code = main(["--input", doc_path, "ggp", "notsc", "phi"])
    capsys.readouterr()
    assert code == 2


def test_parse_diagnostics_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.lpk"
    bad.write_text("base { omega_minus_one = -1; n = 3;\n")
    code = main(["--input", str(bad), "packet", "phi"])
    err = capsys.readouterr().err
    assert code == 1
    assert "line" in err


def test_truncated_document_names_the_end_of_input(tmp_path, capsys):
    bad = tmp_path / "bad.lpk"
    bad.write_text("base {")
    code = main(["--input", str(bad), "packet", "p"])
    err = capsys.readouterr().err
    assert code == 1
    assert err == ("error: unexpected end of input at line 1, col 7 "
                   "(expected: identifier)\n")


def test_missing_input_exit_1(capsys):
    code = main(["packet", "phi"])
    capsys.readouterr()
    assert code == 1


def test_verify_ok_and_deterministic(capsys):
    argv = ["verify", "--seeds", "2", "--max-rank", "3", "--seed", "42"]
    code1, out1 = run_cli(capsys, argv)
    code2, out2 = run_cli(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["all_pass"] is True


def test_ggp_twice_in_one_process_prints_the_same_bytes(doc_path, capsys):
    argv = ["--input", doc_path, "--seed", "5", "ggp", "phi1", "phi"]
    first = run_cli(capsys, argv)
    assert first[0] == 0
    assert run_cli(capsys, argv) == first


@pytest.mark.parametrize("flags, needs", [
    (["--seeds", "0"], "--seeds"),
    (["--max-rank", "0"], "--max-rank"),
    (["--max-rank", "1"], "--max-rank"),
    # the rank n+1 side would have up to 2^(n+1) members
    (["--max-rank", "16"], "--max-rank"),
    (["--max-rank", "100000"], "--max-rank"),
    # the suite builds its own instances and contexts
    (["--identify-chi"], "--identify-chi"),
    (["--input", "/nonexistent"], "--input"),
])
def test_verify_usage_errors_exit_1(flags, needs, capsys):
    start = time.perf_counter()
    code = main(["verify"] + flags)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and needs in captured.err
    assert elapsed < 1.0


def test_verify_table_backend_is_refused_exit_1(doc_path, capsys):
    # random instances use labels no document's epsilon block covers
    code = main(["--input", doc_path, "--backend", "table", "verify",
                 "--seeds", "1", "--max-rank", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == ("error: verify needs --backend hashed or one: "
                            "random instances use labels no epsilon table "
                            "covers\n")


def test_unknown_parameter_exit_1(doc_path, capsys):
    code = main(["--input", doc_path, "packet", "nosuch"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: document declares no parameter 'nosuch'\n"


def test_missing_table_entry_names_a_pasteable_key(tmp_path, capsys):
    # each key the table backend misses, pasted into the epsilon block,
    # fills exactly that gap, until the report runs
    head = FIXTURE.split("epsilon {")[0] + "epsilon {\n"
    prefix = "error: no epsilon table entry for "
    path = tmp_path / "doc.lpk"
    entries = []
    for _ in range(30):
        path.write_text(head + "".join(entries) + "}\n")
        code = main(["--input", str(path), "--backend", "table",
                     "ggp", "phi1", "phi"])
        err = capsys.readouterr().err
        if code == 0:
            break
        assert code == 1 and err.startswith(prefix)
        text = err[len(prefix):].rstrip("\n")
        before = set(parse(path.read_text()).table().entries)
        entries.append(f"  {text} = +1;\n")
        after = set(parse(head + "".join(entries) + "}").table().entries)
        assert [key_text(key) for key in after - before] == [text]
    assert code == 0 and len(entries) > 1


def test_non_utf8_input_exit_1(tmp_path, capsys):
    bad = tmp_path / "latin1.lpk"
    bad.write_bytes(b"base { omega_minus_one = -1; n = 3; }\n# \xff\n")
    code = main(["--input", str(bad), "packet", "phi"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {bad} is not UTF-8 text\n"


def test_flags_accepted_after_subcommand(doc_path, capsys):
    code, out = run_cli(capsys, ["packet", "phi1", "--input", doc_path,
                                 "--pretty"])
    assert code == 0
    assert out.startswith("{\n")


def test_identify_chi_flag(doc_path, tmp_path, capsys):
    ident = tmp_path / "ident.lpk"
    ident.write_text("""
base { omega_minus_one = -1; n = 2; identify_chi = true; }
param phi1 on U(W,2,-) supercuspidal {
  A dim 1 sign - tempered sl2triv;
  B dim 1 sign - tempered sl2triv;
}
param phi on U(V,3,+) tempered {
  char chi_W;
  C*chi^-3 dim 2 sign - tempered sl2triv;
}
""")
    code, out = run_cli(capsys, ["--input", str(ident), "--seed", "4",
                                 "ggp", "phi1", "phi"])
    assert code == 0
    assert json.loads(out)["case"] == "One"


def test_identify_chi_flag_acts_as_the_base_key(doc_path, tmp_path, capsys):
    # the flag resolves the document with chi_V and chi_W identified
    ident = tmp_path / "ident.lpk"
    ident.write_text(FIXTURE.replace("identify_chi = false",
                                     "identify_chi = true"))
    code, flagged = run_cli(capsys, ["--input", doc_path, "--identify-chi",
                                     "ggp", "phi1", "phi"])
    assert code == 0
    code, keyed = run_cli(capsys, ["--input", str(ident), "ggp", "phi1",
                                   "phi"])
    assert code == 0
    assert flagged == keyed


@pytest.mark.parametrize("argv", [
    ["--bogus", "packet", "p"],
    ["verify", "--seeds", "x"],
    # compact JSON is the default; there is no flag for it
    ["--json", "packet", "p"],
])
def test_usage_errors_exit_1(argv, capsys):
    # exit 2 is kept for hypothesis violations
    with pytest.raises(SystemExit) as exited:
        main(argv)
    captured = capsys.readouterr()
    assert exited.value.code == 1
    assert captured.out == ""
    assert captured.err.startswith("usage: lpacket")


@pytest.mark.parametrize("command", [["packet"], ["theta", "up1"],
                                     ["theta", "up2"]])
def test_oversized_packet_is_refused_exit_1(command, tmp_path, capsys):
    # 40 blocks: 2^40 members would never finish; the refusal comes first
    atoms = "".join(f"  Q{i} dim 1 sign - tempered sl2triv;\n"
                    for i in range(40))
    big = tmp_path / "big.lpk"
    big.write_text("base { omega_minus_one = -1; n = 40; "
                   "identify_chi = false; }\n"
                   f"param Q on U(W,40,-) supercuspidal {{\n{atoms}}}\n")
    start = time.perf_counter()
    code = main(["--input", str(big), *command, "Q"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == ("error: Q has 2^40 packet members; "
                            "lpacket lists at most 2^16\n")
    assert elapsed < 1.0


# sha256 of repr((exit code, stdout, stderr)) at 80 columns, recorded
# before a subcommand's arguments were added on dispatch only; argparse
# words these texts as Python 3.11 does
SURFACE = {
    "help": (["--help"], "07968e9d23aa04600d137e9e3b0e30a8"
                         "a8f962b7f00558cd2bea6ca9c0039b64"),
    "packet-help": (["packet", "--help"], "e99e7ff2cca1bfd9800966a626575d69"
                                          "0fc5fb5086472d23133d9dc0841ecc52"),
    "theta-help": (["theta", "--help"], "43c44a25276cc018ebd667de231708901"
                                        "b5ba2e9ddfa29bd2e4a188d96a4133c"),
    "ggp-help": (["ggp", "--help"], "dd3b97d9c1e3c8832e06b3988b382a76"
                                    "2f2b57b7a472e328d303ec0b87a22ebd"),
    "verify-help": (["verify", "--help"], "d37c0a4ba61d94a7ba677f4f8416ce8f"
                                          "5003e694c7618859f1ae4e9eba398c44"),
    "unknown-command": (["bogus"], "50ae7bedd9a4a63edaf4c8972bcca01d"
                                   "bdc342baf1636d8c3c3d1e51d81a0ac4"),
    "missing-positional": (["theta", "up1"],
                           "c695036b0bf1abe7545c0b7725e4d10d"
                           "846484341373bc1005036c07323287e7"),
    "bad-direction": (["theta", "up3", "P"],
                      "92198c6148548f6c54183a9a08d7cde1"
                      "7fcea7b110e5793f2435ffe6916c9897"),
    "flag-eats-command": (["--seed", "theta", "up1", "P"],
                          "bf7aa2576b5cc12a3bfb59694230112d"
                          "b0b4ec76f64bff64213c04dc1185390c"),
}


@pytest.mark.parametrize("name", sorted(SURFACE))
def test_cli_surface_is_pinned(name, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    argv, digest = SURFACE[name]
    with pytest.raises(SystemExit) as exited:
        main(argv)
    captured = capsys.readouterr()
    seen = repr((exited.value.code, captured.out, captured.err))
    assert hashlib.sha256(seen.encode()).hexdigest() == digest


def _subcommand_options(parser):
    """Each subcommand's option strings (or dest) per argument, or None
    for a subcommand whose parser has not been built."""
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return {name: sub and [a.option_strings or [a.dest] for a in sub._actions]
            for name, sub in action.choices.items()}


def test_parser_fills_only_the_dispatched_subcommand(doc_path, monkeypatch,
                                                      capsys):
    commands = ("packet", "theta", "ggp", "verify")
    assert _subcommand_options(cli.build_parser()) == dict.fromkeys(commands)
    built = []
    build = cli.build_parser

    def spy():
        built.append(build())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", spy)
    for _ in range(2):
        assert main(["--input", doc_path, "theta", "up1", "phi1"]) == 0
    capsys.readouterr()
    # a fresh parser per call: nothing is cached across requests
    assert len(built) == 2 and built[0] is not built[1]
    options = _subcommand_options(built[0])
    assert options.pop("theta") == [
        ["-h", "--help"], ["direction"], ["param"], ["--input"], ["--seed"],
        ["--identify-chi"], ["--backend"], ["--pretty"]]
    assert options == dict.fromkeys(("packet", "ggp", "verify"))
    # a parser filled once parses the same subcommand again
    parser = build()
    for seed in ("1", "2"):
        assert parser.parse_args(["theta", "up2", "P", "--seed", seed]).seed \
            == int(seed)


@pytest.mark.parametrize("command, words", [
    pytest.param("packet", ["phi1"], id="packet"),
    pytest.param("theta", ["up2", "phi1"], id="theta"),
    pytest.param("ggp", ["phi1", "nochiw"], id="ggp"),
    pytest.param("verify", ["--seeds", "1", "--max-rank", "2"], id="verify"),
])
def test_one_request_builds_two_parsers(command, words, doc_path,
                                        monkeypatch, capsys):
    # the main parser and the dispatched subcommand's; the other three
    # subcommands are a help line each
    made = []
    init = cli._ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        made.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._ArgumentParser, "__init__", counting)
    document = ["--input", doc_path] if command != "verify" else []
    assert main([*document, command, *words]) == 0
    capsys.readouterr()
    assert made == ["lpacket", f"lpacket {command}"]


@pytest.mark.parametrize("bad", [0, 2, None,
                                 pytest.param([1], id="unhashable")])
def test_sign_text_refuses_non_signs(bad):
    with pytest.raises(InvariantViolation, match=r"is not \+1 or -1"):
        sign_str(bad)
    with pytest.raises(InvariantViolation, match=r"is not \+1 or -1"):
        sign_jsons((+1, bad, -1))
    assert sign_jsons((+1, -1)) == (f'"{sign_str(+1)}"', f'"{sign_str(-1)}"')


def test_non_sign_in_a_table_is_a_diagnostic(doc_path, monkeypatch, capsys):
    # not a bare KeyError reported as "error: 0"
    monkeypatch.setattr(cli.theta_mod, "theta_up2_eps_prime",
                        lambda *args: 0)
    code = main(["--input", doc_path, "theta", "up2", "phi1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: sign 0 is not +1 or -1\n"


def test_repeated_verify_requests_keep_no_parameter_alive(monkeypatch, capsys):
    # derived parameters are kept on the parameter they came from, so a
    # second in-process request prints the same bytes and a drawn
    # parameter dies with its request
    draw = seesaw_mod.random_instance
    refs = []

    def watched(*args, **kwargs):
        inst = draw(*args, **kwargs)
        refs.append(weakref.ref(inst.phi))
        return inst

    monkeypatch.setattr(seesaw_mod, "random_instance", watched)
    outputs = []
    for _ in range(2):
        assert main(["verify", "--seeds", "2"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    gc.collect()
    assert refs and all(ref() is None for ref in refs)
