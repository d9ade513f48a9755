"""Golden stdout: the sha256 of stdout of a few CLI commands is pinned.

A speed-up must not change any output byte.  The document is generated
from a fixed seed: a rank-21 supercuspidal phi1 with random twists, two
rank-22 parameters phi_one (chi_W once) and phi_two (chi_W twice), each
with a dual pair and an extra character atom, a small supercuspidal
parameter P for the theta tables, and a skew parameter M holding the
chi_V chi^-1 atom, whose codimension-1 lift merges with the appended
chi_W block.  Under ggp-report/1 the first five hashes were recorded
before the oracle-key layer was rewritten and checked unchanged after it;
the theta-up1 and packet hashes were recorded before the lifts were built
once per table.  Every hash was recorded again for ggp-report/2, and a
test ties each /2 output to its /1 hash: the ggp audits count what /1
logged, and every other byte but the schema string is the same.  The two
``--identify-chi`` ggp hashes were recorded before the pair builder read
its lower and chi_W keys off the upper table by atom, and the four
``--pretty`` table hashes before the tables were written row by row.
The two ``--pretty`` ggp hashes and the case-Zero hash (parameter Z
holds no chi_W atom, so its audit is empty) were recorded before the
ggp report was written row by row too.
"""

import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from ast import literal_eval
from collections import Counter
from contextlib import redirect_stdout
from json.encoder import encode_basestring_ascii

import pytest

from conftest import LoggingBackend

import lpacket
from lpacket import recipe as recipe_mod
from lpacket import seesaw as seesaw_mod
from lpacket import serialize as serialize_mod
from lpacket.cli import main
from lpacket.epsilon import key_text
from lpacket.serialize import FIELD, SIGN_JSON

RANK = 21
GRADES = {"chi": 1, "chi_V": RANK % 2, "chi_W": RANK % 2}


def _sign(s):
    return "+" if s > 0 else "-"


def _twist(rng):
    exps = [(name, rng.choice((-1, 0, 0, 1))) for name in GRADES]
    return [(name, e) for name, e in exps if e]


def _grade(mu):
    return sum(e * GRADES[name] for name, e in mu) % 2


def _text(mu):
    return "*".join(name if e == 1 else f"{name}^{e}" for name, e in mu)


def _atoms(rng, prefix, dims, required):
    lines = []
    for i, dim in enumerate(dims):
        mu = _twist(rng)
        head = f"{prefix}{i}*{_text(mu)}" if mu else f"{prefix}{i}"
        sign = _sign(required * (-1 if _grade(mu) else +1))
        lines.append(f"  {head} dim {dim} sign {sign} tempered sl2triv;")
    return lines


def _upper(rng, name, mult):
    rank = RANK + 1
    required = +1 if rank % 2 else -1
    lines = [f"param {name} on U(V,{rank},{_sign(required)}) tempered {{",
             f"  char chi_W mult {mult};" if mult > 1 else "  char chi_W;"]
    pair_mu = _twist(rng)
    pair_head = f"{name}p*{_text(pair_mu)}" if pair_mu else f"{name}p"
    lines.append(f"  pair {pair_head} dim 1 sign none tempered sl2triv;")
    # an extra character atom of the type the even rank requires (grade 1)
    lines.append("  char chi_V*chi_W^-1*chi;")
    remaining = rank - mult - 2 - 1
    twos = remaining // 3
    dims = [2] * twos + [1] * (remaining - 2 * twos)
    rng.shuffle(dims)
    lines += _atoms(rng, f"{name}b", dims, required)
    lines.append("}")
    return lines


def _document():
    rng = random.Random("golden-tower")
    phi1_dims = [2] * (RANK // 3) + [1] * (RANK - 2 * (RANK // 3))
    rng.shuffle(phi1_dims)
    lines = ["base { omega_minus_one = -1; n = 21; identify_chi = false; }",
             f"param phi1 on U(W,{RANK},+) supercuspidal {{"]
    lines += _atoms(rng, "a", phi1_dims, +1)
    lines.append("}")
    lines += _upper(rng, "phi_one", 1)
    lines += _upper(rng, "phi_two", 2)
    lines.append(f"param P on U(W,{RANK},+) supercuspidal {{")
    lines += _atoms(rng, "t", [4, 4, 4, 4, 3, 2], +1)
    lines.append("}")
    # fixed text, no draws: the parameters above stay as they were
    lines += [f"param M on U(W,{RANK},+) tempered {{",
              "  char chi_V*chi^-1;",
              "  m0 dim 2 sign + tempered sl2triv mult 2;",
              "  m1*chi_W dim 3 sign - tempered sl2triv;",
              "  m2*chi^-1 dim 4 sign - tempered sl2triv mult 2;",
              "  m3 dim 1 sign + tempered sl2triv;",
              "  m5 dim 2 sign + tempered sl2triv;",
              "  pair m4*chi_V dim 1 sign none tempered sl2triv;",
              "}",
              f"param Z on U(V,{RANK + 1},-) tempered {{",
              "  z0 dim 2 sign - tempered sl2triv mult 3;",
              "  z1 dim 16 sign - tempered sl2triv;",
              "}"]
    return "\n".join(lines) + "\n"


# sha256 of stdout per command under ggp-report/1, each recorded before
# the rewrite named in the module docstring
V1_GOLDEN = {
    "ggp-one": "9095c277c57634bc55a6194a92a31f3b"
               "70d9adf085ac2799dd857eeb0687b2bc",
    "ggp-merged": "8dad3af123e6b49cdb60b7c158950cdc"
                  "a5be889f02c8c410acec4d83dc097c2f",
    "ggp-at-least-one": "f7420d13becb300e772f49eab40ded54"
                        "aab4694f7361c550a3d6a56251f154da",
    "theta-up2": "23d79c2693861f4597090cdeb9bd780e"
                 "91051a6d7f7be890e57c29fc6b10fc50",
    "theta-up1": "36e05a96bcab1916d8c8c61f4b8567e3"
                 "bd041ecfaf275ef73f64e4157675ce69",
    "theta-up1-merged": "da5ab03f01e4f4cd9e964eb4c958f88d"
                        "eb160fe9db50d192461a86f6450e48c0",
    "packet": "5113b70e8e85d720f0db88f6577adedd"
              "22a582131c589107e429f20054d281fe",
    "verify": "fbf8226b648003ce588da567a6f8ae64"
              "828433197ceb6f6af087cc742ecb69fc",
}

# the command and the sha256 of its stdout under ggp-report/2
GOLDEN = {
    "ggp-one": (("--seed", "11", "ggp", "phi1", "phi_one"),
                "128a3bba379dd72c90ea9afe3c397796"
                "47f69b497ff89cd807be249cd957e31c"),
    "ggp-merged": (("--seed", "12", "ggp", "phi1", "phi_two",
                    "--merged-case-certified"),
                   "979460714b367bfd74f16a31f22cce83"
                   "3f6fabb4debc89eb4a22edcfbf7cd22c"),
    "ggp-at-least-one": (("--seed", "13", "ggp", "phi1", "phi_two"),
                         "a01f05b79b94ab1dfb1f66fac516d82a"
                         "cefd330e3cb2c20bbd37414d1793e18a"),
    "ggp-one-identify-chi": (("--seed", "11", "--identify-chi", "ggp",
                              "phi1", "phi_one"),
                             "4957698774caae735c54372ef5768784"
                             "c11c73892edf033557c364d3f5eff3fd"),
    "ggp-at-least-one-identify-chi": (("--seed", "13", "--identify-chi",
                                       "ggp", "phi1", "phi_two"),
                                      "d8de5299ea883eef6d629b09cf7d27be"
                                      "f72f13e6b35129a05d937ab15cb8cd96"),
    "theta-up2": (("--seed", "14", "theta", "up2", "P"),
                  "a7ed3be3f43d171c6badaf92852ed036"
                  "7fbf76f58a69ae1fafe8269cf61f53b0"),
    "theta-up1": (("theta", "up1", "P"),
                  "450bbdcfdc7f7ddb41530f6691e50f56"
                  "f8c51bd3a7b8b063ab068a3a497386a5"),
    "theta-up1-merged": (("theta", "up1", "M"),
                         "662aeb1b6f8f38f44d55f6814d1767e6"
                         "90d900960d1879d2075f9fac04a6e024"),
    "packet": (("packet", "M"),
               "4f21974eeec24c823d3dcc7bdc38fe73"
               "fc178b3a5931cfc0d5d322ef0219e900"),
    "verify": (("verify", "--seeds", "2"),
               "43b2e9de4281171f9c19e7d0952d748f"
               "0afd8ed66a2241b27b7fc88a1121072c"),
    "packet-pretty": (("packet", "M", "--pretty"),
                      "c315c7d22ca390429cf35c2caf787310"
                      "1a338ae3b3c63c632999919689c2cf1e"),
    "theta-up1-pretty": (("theta", "up1", "P", "--pretty"),
                         "5cee2333c4a881bbcfb9c4e45c80cd58"
                         "0337fdf2b21be24918b71e32621e611c"),
    "theta-up1-merged-pretty": (("theta", "up1", "M", "--pretty"),
                                "4f971f3e0fb6f34cf1289f9cb49de1bb"
                                "248de340a5f4cb15e2e136a88126511b"),
    "theta-up2-pretty": (("--seed", "14", "theta", "up2", "P", "--pretty"),
                         "d8a9dd09d028ec498d8fceebe8c352e8"
                         "98d82c058a2d3c0453da1117c61d3249"),
    "ggp-one-pretty": (("--seed", "11", "ggp", "phi1", "phi_one",
                        "--pretty"),
                       "df6506b48aa3d362929e56c3894095f2"
                       "63b247b23409c4cb665bcf478abcb424"),
    "ggp-at-least-one-pretty": (("--seed", "13", "ggp", "phi1", "phi_two",
                                 "--pretty"),
                                "e4c661fad6d5bb8a6f548d0d97a76f5d"
                                "ca7bd793f2cf47897561768502b9fdde"),
    "ggp-zero": (("ggp", "phi1", "Z"),
                 "48a1759eec30b292e7b211ce720e9b9d"
                 "b4e53f0bc6300f3cc7391b8f918e9dba"),
}


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "tower.lpk"
    path.write_text(_document())
    return str(path)


def _argv(name, doc_path):
    args = list(GOLDEN[name][0])
    # verify reads no document
    if "verify" in args:
        return args
    return ["--input", doc_path, *args]


def _stdout(name, doc_path):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(_argv(name, doc_path)) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def outputs(doc_path):
    """stdout per command under ggp-report/2, each command run once"""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = _stdout(name, doc_path)
        return cache[name]

    return get


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_is_pinned(name, outputs):
    assert _sha(outputs(name)) == GOLDEN[name][1]


def _v1_audit_rows(audit):
    # a /1 audit row per logged consultation, its key in repr
    return [(encode_basestring_ascii(repr(key)), SIGN_JSON[sign])
            for key, sign in audit]


@pytest.mark.parametrize("name", sorted(V1_GOLDEN))
def test_stdout_ties_to_v1(name, outputs, doc_path, monkeypatch):
    new = outputs(name)
    assert new.count('"ggp-report/2"') == 1
    if "ggp" not in GOLDEN[name][0]:
        assert _sha(new.replace("ggp-report/2", "ggp-report/1")) == (
            V1_GOLDEN[name])
        return
    # /1 logged every consultation, with its key in repr
    monkeypatch.setattr(recipe_mod, "RecordingBackend", LoggingBackend)
    monkeypatch.setattr(seesaw_mod, "RecordingBackend", LoggingBackend)
    monkeypatch.setattr(serialize_mod, "AUDIT_ROW",
                        {"key": FIELD, "sign": FIELD})
    monkeypatch.setattr(serialize_mod, "audit_rows", _v1_audit_rows)
    monkeypatch.setattr(serialize_mod, "SCHEMA", "ggp-report/1")
    old = _stdout(name, doc_path)
    assert _sha(old) == V1_GOLDEN[name]
    new, old = json.loads(new), json.loads(old)
    expanded = Counter()
    for row in new.pop("audit"):
        expanded[row["key"], row["sign"]] += row["count"]
    assert expanded == Counter(
        (key_text(literal_eval(row["key"])), row["sign"])
        for row in old.pop("audit"))
    new["schema"] = old["schema"]
    assert new == old


def test_stdout_holds_under_python_O(doc_path):
    # the sign, character and see-saw checks raise instead of asserting,
    # so the tables, ggp reports and verify report print the same bytes
    # with asserts compiled out
    names = ["packet", "theta-up1", "theta-up1-merged", "theta-up2",
             *sorted(name for name in GOLDEN if name.startswith("ggp")),
             "verify"]
    script = (
        "import hashlib, io, json, sys\n"
        "from contextlib import redirect_stdout\n"
        "from lpacket.cli import main\n"
        "codes, digests = [], []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out = io.StringIO()\n"
        "    with redirect_stdout(out):\n"
        "        codes.append(main(argv))\n"
        "    digests.append(hashlib.sha256(out.getvalue().encode())"
        ".hexdigest())\n"
        "print(json.dumps([sys.flags.optimize, codes, digests]))\n"
    )
    commands = [_argv(name, doc_path) for name in names]
    src = os.path.dirname(os.path.dirname(lpacket.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    out = subprocess.run([sys.executable, "-O", "-c", script,
                          json.dumps(commands)], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    optimize, codes, digests = json.loads(out)
    assert optimize == 1
    assert codes == [0] * len(names)
    assert digests == [GOLDEN[name][1] for name in names]


@pytest.fixture(scope="module")
def accented_path(tmp_path_factory):
    """The tower document with phi1's labels a0, a1, ... renamed Aé0,
    Aé1, ...: audit keys outside ASCII."""
    path = tmp_path_factory.mktemp("golden") / "accented.lpk"
    path.write_text(re.sub(r"\ba(\d)", r"Aé\1", _document()),
                    encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("pretty", [False, True], ids=["compact", "pretty"])
def test_dumps_equals_the_cycle_checked_dumps(pretty, doc_path,
                                              accented_path):
    # serialize.dumps skips json's cycle bookkeeping, which only holds
    # while every payload is a fresh tree, and the tables and ggp reports
    # are written row by row: each kind's stdout must be the bytes the
    # checked encoder prints for the document that stdout holds, with an
    # empty audit (case Zero) and with key texts outside ASCII
    names = ["packet", "theta-up1", "theta-up2", "ggp-one", "ggp-merged",
             "ggp-at-least-one", "ggp-zero", "verify"]
    runs = [_argv(name, doc_path) for name in names]
    runs.append(["--input", accented_path, "--seed", "11", "ggp", "phi1",
                 "phi_one"])
    layout = ({"indent": 2} if pretty else {"separators": (",", ":")})
    payloads = []
    for argv in runs:
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(argv + ["--pretty"] * pretty) == 0
        payload = json.loads(out.getvalue())
        assert out.getvalue() == json.dumps(
            payload, sort_keys=True, check_circular=True, **layout) + "\n"
        payloads.append(payload)
    assert [p["kind"] for p in payloads] == [
        "packet", "theta-up1", "theta-up2", "multiplicity", "multiplicity",
        "multiplicity", "multiplicity", "verification", "multiplicity"]
    assert [p.get("case") for p in payloads[3:7]] == [
        "One", "One", "AtLeastOne", "Zero"]
    assert payloads[6]["audit"] == []
    # stdout is ASCII: each é of a key is escaped
    accented = payloads[-1]
    assert accented["case"] == "One"
    assert any("Aé" in row["key"] for row in accented["audit"])
    assert "\\u00e9" in out.getvalue() and "é" not in out.getvalue()
