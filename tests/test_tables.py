"""Streamed tables: the stdout of ``packet`` and ``theta`` equals
``json.dumps`` of a reference payload built here, a fault in the middle of
a table is a diagnostic, and memory stays flat in the number of rows."""

import io
import json
import tracemalloc
from contextlib import redirect_stdout

import pytest

from lpacket import serialize
from lpacket import theta as theta_mod
from lpacket.cli import main
from lpacket.component import (
    central_element,
    component_group,
    enumerate_characters,
    evaluate,
)
from lpacket.dsl import parse
from lpacket.epsilon import make_backend
from lpacket.errors import InvariantViolation
from lpacket.recipe import GGPContext
from lpacket.serialize import SCHEMA, parameter_json, summand_json

SIGN = {+1: "+1", -1: "-1"}
LAYOUTS = {False: {"separators": (",", ":")}, True: {"indent": 2}}


def _document(r):
    """G: r dimension-1 atoms (a pair alone at r = 0) on the standard
    skew-Hermitian group; M: the chi_V chi^-1 atom and r - 1 others, so
    its codimension-1 lift merges."""
    if r == 0:
        return ("base { omega_minus_one = -1; n = 2; identify_chi = false; }\n"
                "param G on U(W,2,-) tempered {\n"
                "  pair z dim 1 sign none tempered sl2triv;\n}\n")
    sign = "+" if r % 2 else "-"
    atoms = [f"  Q{i} dim 1 sign {sign} tempered sl2triv;\n"
             for i in range(r)]
    return (f"base {{ omega_minus_one = -1; n = {r}; identify_chi = false; }}\n"
            f"param G on U(W,{r},{sign}) supercuspidal {{\n{''.join(atoms)}}}\n"
            f"param M on U(W,{r},{sign}) tempered {{\n"
            f"  char chi_V*chi^-1;\n{''.join(atoms[1:])}}}\n")


def _signs(values):
    return [SIGN[v] for v in values]


def _reference(text, command, name):
    """The whole payload of one table, one dict per row."""
    doc = parse(text)
    phi = doc.parameter(name)
    group = component_group(phi)
    chars = list(enumerate_characters(group))
    if command == "packet":
        z = central_element(phi)
        return {
            "schema": SCHEMA,
            "kind": "packet",
            "parameter": parameter_json(phi),
            "basis": [summand_json(s) for s in group.basis],
            "members": [{"character": _signs(eta.values),
                         "side": SIGN[evaluate(eta, z)]} for eta in chars],
        }
    gctx = GGPContext.standard(doc.n, doc.base, identify_chi=False)
    if command == "up1":
        lift = theta_mod.Up1Lift(phi, gctx.up1_recovery())
        rows = []
        for eta in chars:
            row = {"source": _signs(eta.values)}
            for side in (+1, -1):
                out, got = lift.transfer(eta, side)
                row[f"target_{SIGN[side]}"] = {"character": _signs(out.values),
                                               "side": SIGN[got]}
            rows.append(row)
    else:
        backend = make_backend("hashed", 0)
        ctx = gctx.up2_primary()
        lift = theta_mod.Up2Lift(phi, ctx, backend)
        eps = SIGN[theta_mod.theta_up2_eps_prime(+1, phi, ctx, backend)]
        rows = [{"source": _signs(eta.values),
                 "target": _signs(lift.transfer(eta).values),
                 "form_exchange_sign": eps} for eta in chars]
    return {
        "schema": SCHEMA,
        "kind": f"theta-{command}",
        "source": parameter_json(phi),
        "lifted": parameter_json(lift.target),
        "characters": rows,
    }


def _run(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


# (command, parameter, component-group ranks): a merged lift needs the
# chi_V chi^-1 atom and codimension 2 a supercuspidal packet, so neither
# has a rank-0 source
CASES = [
    ("packet", "G", range(9)),
    ("up1", "G", range(9)),
    ("up1", "M", range(1, 9)),
    ("up2", "G", range(1, 9)),
]


@pytest.mark.parametrize("command, name, ranks", CASES,
                         ids=["packet", "up1", "up1-merged", "up2"])
def test_table_bytes_equal_dumps_of_the_whole_payload(command, name, ranks,
                                                      tmp_path):
    argv = ["packet"] if command == "packet" else ["theta", command]
    for r in ranks:
        text = _document(r)
        path = tmp_path / f"rank{r}.lpk"
        path.write_text(text)
        payload = _reference(text, command, name)
        assert len(payload["members" if command == "packet"
                           else "characters"]) == 2 ** r
        for pretty, layout in LAYOUTS.items():
            code, out = _run(["--input", str(path), *argv, name]
                             + ["--pretty"] * pretty)
            assert code == 0
            assert out == json.dumps(payload, sort_keys=True, **layout) + "\n"


@pytest.fixture
def rank9(tmp_path):
    # 512 rows: more than one chunk
    assert 2 ** 9 > serialize.CHUNK_ROWS
    path = tmp_path / "rank9.lpk"
    path.write_text(_document(9))
    return str(path)


def test_fault_after_the_first_chunk_leaves_a_truncated_document(
        rank9, monkeypatch, capsys):
    argv = ["--input", rank9, "theta", "up1", "G"]
    code, whole = _run(argv)
    assert code == 0
    transfer = theta_mod.Up1Lift.transfer
    calls = []

    def faulty(lift, eta, side):
        calls.append(eta)
        # two transfers per row: this is a row of the second chunk
        if len(calls) == 2 * serialize.CHUNK_ROWS + 3:
            raise InvariantViolation("injected fault")
        return transfer(lift, eta, side)

    monkeypatch.setattr(theta_mod.Up1Lift, "transfer", faulty)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: injected fault\n"
    # the head and the first chunk of rows went out, nothing after them
    assert captured.out and whole.startswith(captured.out)
    assert captured.out.count('{"source"') == serialize.CHUNK_ROWS
    with pytest.raises(json.JSONDecodeError):
        json.loads(captured.out)


def test_non_sign_side_in_a_row_is_a_diagnostic(rank9, monkeypatch, capsys):
    # not a bare KeyError reported as "error: 0"
    transfer = theta_mod.Up1Lift.transfer

    def sideless(lift, eta, side):
        return transfer(lift, eta, side)[0], 0

    monkeypatch.setattr(theta_mod.Up1Lift, "transfer", sideless)
    code = main(["--input", rank9, "theta", "up1", "G"])
    captured = capsys.readouterr()
    assert code == 1
    # the fault is in the first chunk, which goes out with the head
    assert captured.out == ""
    assert captured.err == "error: sign 0 is not +1 or -1\n"


class _Sink:
    """A stdout that keeps nothing of what is written to it."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


def _peak_bytes(path):
    tracemalloc.start()
    try:
        with redirect_stdout(_Sink()):
            assert main(["--input", path, "theta", "up1", "G"]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_table_memory_is_flat_in_the_row_count(tmp_path):
    # rank 12 writes 16 times the rows of rank 8; written row by row it
    # peaks at 0.27 MiB, and built whole it peaked at 8.9 MiB
    paths = {}
    for r in (1, 8, 12):
        paths[r] = tmp_path / f"rank{r}.lpk"
        paths[r].write_text(_document(r))
    _peak_bytes(str(paths[1]))  # first-call imports and caches
    small, large = (_peak_bytes(str(paths[r])) for r in (8, 12))
    assert large < 2 ** 20 // 2
    assert large < 2 * small
