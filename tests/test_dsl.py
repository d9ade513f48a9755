"""DSL: parse/print round trips over a document corpus, and diagnostics."""

import random
from fractions import Fraction

import pytest

from lpacket.chars import CharE
from lpacket.cli import main
from lpacket.dsl import parse, print_document
from lpacket.epsilon import PsiTag, key_text, term_key
from lpacket.errors import DslSemanticError, DslSyntaxError, LPacketError
from lpacket.params import Summand, char_atom
from lpacket.recipe import GGPContext
from lpacket.theta import theta_up2_param

VALID_DOCS = [
    # 1: minimal
    "base { omega_minus_one = +1; n = 1; identify_chi = false; }",
    # 2: base with identify
    "base { omega_minus_one = -1; n = 2; identify_chi = true; }",
    # 3: extra character declarations
    """base { omega_minus_one = -1; n = 3; identify_chi = false; }
    char eta grade trivial;
    char rho grade omega;""",
    # 4: one-atom skew parameter
    """base { omega_minus_one = -1; n = 3; identify_chi = false; }
    param phi2 on U(W,3,+) tempered { C dim 3 sign + tempered sl2triv; }""",
    # 5: supercuspidal parameter
    """base { omega_minus_one = -1; n = 3; identify_chi = false; }
    param phi1 on U(W,3,+) supercuspidal {
      A dim 1 sign + tempered sl2triv;
      B dim 2 sign + tempered sl2triv;
    }""",
    # 6: twisted atoms
    """base { omega_minus_one = -1; n = 3; identify_chi = false; }
    param phi on U(V,4,-) tempered {
      char chi_W;
      C*chi_V^-1*chi*chi_W dim 3 sign + tempered sl2triv;
    }""",
    # 7: multiplicities
    """base { omega_minus_one = +1; n = 3; identify_chi = false; }
    param phi on U(V,4,-) tempered {
      char chi_W mult 2;
      X dim 2 sign - tempered sl2triv;
    }""",
    # 8: dual pair with slope
    """base { omega_minus_one = -1; n = 3; identify_chi = false; }
    param theta on U(V,5,+) {
      A*chi_V^-1*chi_W dim 1 sign + tempered sl2triv;
      B*chi_V^-1*chi_W dim 2 sign + tempered sl2triv;
      pair char chi_W*norm^1/2;
    }""",
    # 9: dual pair with opaque label
    """base { omega_minus_one = -1; n = 3; identify_chi = false; }
    param phi on U(V,4,-) tempered {
      char chi_W;
      X dim 1 sign - tempered sl2triv;
      pair P dim 1 sign none tempered sl2triv;
    }""",
    # 10: epsilon table
    """base { omega_minus_one = -1; n = 3; identify_chi = false; }
    param phi1 on U(W,3,+) supercuspidal {
      A dim 1 sign + tempered sl2triv;
      B dim 2 sign + tempered sl2triv;
    }
    epsilon {
      (A, B; psi2E) = -1;
      (A, char chi_W; psiE) = +1;
      (B*chi^2, char chi_V^-1; psiNeg2E) = -1;
    }""",
    # 11: epsilon members naming partner labels and twisted atoms
    """base { omega_minus_one = -1; n = 3; identify_chi = false; }
    char eta grade trivial;
    param phi on U(V,4,-) tempered {
      char chi_W;
      X dim 1 sign - tempered sl2triv;
      pair P*eta dim 1 sign none tempered sl2triv;
    }
    epsilon {
      (P~, X*eta^-1; psiE) = +1;
      (char chi_W*norm^1/2, P; psi2E) = -1;
    }""",
    # 12: non-tempered atom flags
    """base { omega_minus_one = -1; n = 2; identify_chi = false; }
    param phi on U(W,2,-) {
      D dim 2 sign - nontempered sl2nontriv;
    }""",
    # 13: even tower
    """base { omega_minus_one = +1; n = 4; identify_chi = false; }
    param phi1 on U(W,4,-) supercuspidal {
      A dim 1 sign - tempered sl2triv;
      B dim 3 sign - tempered sl2triv;
    }""",
    # 14: identify_chi with parameters
    """base { omega_minus_one = -1; n = 2; identify_chi = true; }
    param phi on U(V,3,+) tempered {
      char chi_W;
      C*chi^-3 dim 2 sign - tempered sl2triv;
    }""",
    # 15: comments and whitespace
    """# leading comment
    base { omega_minus_one = -1; n = 1; identify_chi = false; } # trailing
    param phi2 on U(W,1,+) tempered { C dim 1 sign + tempered sl2triv; }
    # done""",
    # 16: several parameters sharing labels consistently
    """base { omega_minus_one = -1; n = 3; identify_chi = false; }
    param phi1 on U(W,3,+) supercuspidal {
      A dim 1 sign + tempered sl2triv;
      B dim 2 sign + tempered sl2triv;
    }
    param lifted on U(V,5,+) {
      A*chi_V^-1*chi_W dim 1 sign + tempered sl2triv;
      B*chi_V^-1*chi_W dim 2 sign + tempered sl2triv;
      pair char chi_W*norm^-1/2;
    }""",
    # 17: signs written as +1/-1
    """base { omega_minus_one = -1; n = 3; identify_chi = false; }
    param phi2 on U(W,3,+1) tempered { C dim 3 sign +1 tempered sl2triv; }""",
    # 18: negative slope and powers
    """base { omega_minus_one = -1; n = 5; identify_chi = false; }
    param phi on U(W,5,+) {
      E*chi^-2 dim 3 sign + tempered sl2triv;
      pair F*norm^-1/2 dim 1 sign none nontempered sl2triv;
    }""",
    # 19: rank-0 component group (pure pair parameter)
    """base { omega_minus_one = -1; n = 2; identify_chi = false; }
    param phi on U(W,2,-) tempered {
      pair P dim 1 sign none tempered sl2triv;
    }""",
    # 20: the full branching fixture
    """base { omega_minus_one = -1; n = 3; identify_chi = false; }
    param phi1 on U(W,3,+) supercuspidal {
      A dim 1 sign + tempered sl2triv;
      B dim 2 sign + tempered sl2triv;
    }
    param phi on U(V,4,-) tempered {
      char chi_W;
      C*chi_V^-1*chi*chi_W dim 3 sign + tempered sl2triv;
    }
    epsilon { (A, C; psi2E) = -1; }""",
    # 21: char atom via trivial expression
    """base { omega_minus_one = -1; n = 1; identify_chi = false; }
    param one on U(W,1,+) tempered { char 1; }""",
    # 22: wrong-sign character pair member
    """base { omega_minus_one = -1; n = 3; identify_chi = false; }
    param phi on U(V,4,-) tempered {
      char chi_W;
      X dim 1 sign - tempered sl2triv;
      pair char chi^2;
    }""",
]


@pytest.mark.parametrize("idx", range(len(VALID_DOCS)))
def test_round_trip_corpus(idx):
    text = VALID_DOCS[idx]
    doc = parse(text)
    printed = print_document(doc)
    doc2 = parse(printed)
    assert doc2 == doc
    assert print_document(doc2) == printed


def test_corpus_size():
    assert len(VALID_DOCS) >= 20


def test_parsed_fixture_matches_engine_transfer():
    doc = parse(VALID_DOCS[15])
    g = GGPContext.standard(doc.n, doc.base)
    assert doc.parameter("lifted") == theta_up2_param(
        doc.parameter("phi1"), g.up2_primary()
    )


def test_document_lookup_and_table():
    doc = parse(VALID_DOCS[9])
    assert doc.parameter("phi1").rank == 2
    table = doc.table()
    assert len(table.entries) == 3
    with pytest.raises(LPacketError, match="no parameter 'missing'"):
        doc.parameter("missing")


SYNTAX_ERRORS = [
    ("base { omega_minus_one = %1; }", 1, 26),
    ("param phi on U(W,3,+) { A dim 1 sign +; }", 1, 1),  # missing base
    ("base { omega_minus_one = -1; n = 3; }\nparam phi on T(W,3,+) { }",
     2, 14),
    ("base { omega_minus_one = -1; n = 3; }\nparam phi on U(X,3,+) { }",
     2, 16),
    ("base { omega_minus_one = -1; n = 3; }\nepsilon { (A, B; psi9) = -1; }",
     2, 18),
    ("base { omega_minus_one = -1; n = 3; }\ntask verify", 2, 1),
    # one pass: base comes first, and each name is declared above its use
    ("char eta grade trivial;\nbase { omega_minus_one = -1; n = 3; }", 1, 1),
    ("base { omega_minus_one = -1; n = 2; }\n"
     "param p on U(W,2,-) { pair char eta; }\nchar eta grade trivial;", 2, 33),
    ("base { omega_minus_one = -1; n = 3; }\n"
     "epsilon { (A, B; psi2E) = -1; }\n"
     "param p on U(W,3,+) { A dim 1 sign + tempered sl2triv;"
     " B dim 2 sign + tempered sl2triv; }", 2, 12),
    # the first error in reading order is the one reported
    ("base { omega_minus_one = -1; n = 2; }\n"
     "param p on U(W,2,-) { pair char zeta; }\ntask verify", 2, 33),
]


def test_syntax_error_positions():
    for text, line, col in SYNTAX_ERRORS:
        with pytest.raises((DslSyntaxError, DslSemanticError)) as err:
            parse(text)
        assert err.value.line == line, text
        assert err.value.col == col, text


@pytest.mark.parametrize("number, col", [
    pytest.param("\u00b2", 34, id="superscript-two"),
    pytest.param("1\u0663", 35, id="arabic-indic-three"),
])
def test_numbers_are_ascii_digits(number, col, tmp_path, capsys):
    # int() reads any Unicode digit, so a number token holds ASCII only
    text = f"base {{ omega_minus_one = -1; n = {number}; }}"
    with pytest.raises(DslSyntaxError) as err:
        parse(text)
    bad = number[-1]
    assert str(err.value).startswith(f"unexpected character {bad!r}")
    assert (err.value.line, err.value.col) == (1, col)
    path = tmp_path / "doc.lpk"
    path.write_text(text, encoding="utf-8")
    assert main(["--input", str(path), "packet", "p"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {err.value}\n"


def test_syntax_error_expected_tokens():
    with pytest.raises(DslSyntaxError) as err:
        parse("base ( omega_minus_one = -1; )")
    assert "{" in err.value.expected
    assert err.value.line == 1 and err.value.col == 6


def _semantic(text):
    with pytest.raises(DslSemanticError) as err:
        parse(text)
    return err.value


def test_semantic_dimension_mismatch():
    err = _semantic(
        "base { omega_minus_one = -1; n = 3; }\n"
        "param phi on U(W,3,+) { A dim 1 sign + tempered sl2triv; }"
    )
    assert "dimension" in str(err)
    assert err.line == 2 and err.col == 7


def test_semantic_wrong_duality_sign():
    err = _semantic(
        "base { omega_minus_one = -1; n = 3; }\n"
        "param phi on U(W,3,+) { A dim 3 sign - tempered sl2triv; }"
    )
    assert "duality" in str(err)
    assert err.line == 2


def test_semantic_flag_contradiction():
    err = _semantic(
        "base { omega_minus_one = -1; n = 3; }\n"
        "param phi on U(W,3,+) supercuspidal {\n"
        "  A dim 3 sign + tempered sl2nontriv;\n"
        "}"
    )
    assert "SL2" in str(err) or "supercuspidal" in str(err)


def test_semantic_duplicate_label():
    err = _semantic(
        "base { omega_minus_one = -1; n = 4; }\n"
        "param phi on U(W,4,-) {\n"
        "  A dim 2 sign - tempered sl2triv;\n"
        "  A dim 2 sign - tempered sl2triv;\n"
        "}"
    )
    assert "duplicate" in str(err)
    assert err.line == 4


def test_semantic_inconsistent_redeclaration():
    err = _semantic(
        "base { omega_minus_one = -1; n = 3; }\n"
        "param p on U(W,3,+) { A dim 3 sign + tempered sl2triv; }\n"
        "param q on U(W,3,+) { A dim 1 sign + tempered sl2triv;"
        " B dim 2 sign + tempered sl2triv; }"
    )
    assert "redeclared" in str(err)


@pytest.mark.parametrize("flags", ["nontempered sl2triv",
                                   "tempered sl2nontriv"])
def test_semantic_redeclaration_with_other_flags(flags):
    # atom equality ignores both flags, so they are compared on their own
    err = _semantic(
        "base { omega_minus_one = -1; n = 3; }\n"
        "param p on U(W,1,+) { A dim 1 sign + tempered sl2triv; }\n"
        f"param q on U(W,1,+) {{ A dim 1 sign + {flags}; }}"
    )
    assert "label 'A' redeclared inconsistently" in str(err)
    assert (err.line, err.col) == (3, 23)


def test_semantic_undeclared_character():
    err = _semantic(
        "base { omega_minus_one = -1; n = 3; }\n"
        "param phi on U(W,3,+) { C*zeta dim 3 sign + tempered sl2triv; }"
    )
    assert "undeclared" in str(err)


def test_semantic_unknown_epsilon_atom():
    err = _semantic(
        "base { omega_minus_one = -1; n = 3; }\n"
        "epsilon { (A, B; psi2E) = -1; }"
    )
    assert "unknown atom" in str(err)
    assert err.line == 2


def test_semantic_duplicate_epsilon_key():
    # (A, C) and (C, A) reduce to one canonical key
    err = _semantic(
        "base { omega_minus_one = -1; n = 3; }\n"
        "param p on U(W,3,+) { A dim 1 sign + tempered sl2triv;"
        " C dim 2 sign + tempered sl2triv; }\n"
        "epsilon {\n"
        "  (A, C; psi2E) = -1;\n"
        "  (C, A; psi2E) = +1;\n"
        "}"
    )
    assert "duplicate epsilon key" in str(err)
    assert "line 4, col 3" in str(err)
    assert err.line == 5 and err.col == 3


def test_semantic_duplicate_base_and_unknown_key():
    err = _semantic(
        "base { omega_minus_one = -1; n = 3; }\n"
        "base { omega_minus_one = -1; n = 3; }"
    )
    assert "duplicate base" in str(err)
    err = _semantic("base { omega_minus_one = -1; n = 3; frobnicate = 1; }")
    assert "unknown base key" in str(err)


@pytest.mark.parametrize("key, value", [
    ("omega_minus_one", "+1"), ("n", "4"), ("identify_chi", "true"),
])
def test_semantic_duplicate_base_key(key, value):
    # a repeated key is reported where it repeats, never overwritten
    err = _semantic(
        "base { omega_minus_one = -1; n = 3; identify_chi = false;\n"
        f"       {key} = {value}; }}"
    )
    assert str(err).startswith(f"duplicate base key {key!r}")
    assert err.line == 2 and err.col == 8


def test_semantic_bad_group_rank_is_positioned():
    err = _semantic(
        "base { omega_minus_one = -1; n = 3; }\n"
        "param p on U(W,0,-) { }"
    )
    assert "group rank must be >= 1, got 0" in str(err)
    assert err.line == 2 and err.col == 7


def test_semantic_missing_base():
    err = _semantic("char eta grade trivial;")
    assert "base block" in str(err)


def test_semantic_builtin_char_redeclaration():
    # both errors point at the declared name
    err = _semantic(
        "base { omega_minus_one = -1; n = 3; }\nchar chi_V grade trivial;"
    )
    assert "built in" in str(err)
    assert err.line == 2 and err.col == 6
    err = _semantic(
        "base { omega_minus_one = -1; n = 3; }\n"
        "char eta grade trivial; char eta grade omega;"
    )
    assert "redeclared with a different grade" in str(err)
    assert err.line == 2 and err.col == 30


def test_semantic_norm_slope_not_half_integer():
    text = ("base { omega_minus_one = -1; n = 2; }\n"
            "param p on U(W,2,-) { pair char chi*norm^%s; }")
    for slope in ("1/0", "1/3", "-5/4"):
        err = _semantic(text % slope)
        assert "not a half-integer" in str(err)
        assert err.line == 2 and err.col == 37
    assert parse(text % "2/4") == parse(text % "1/2")


def test_double_tilde_label_rejected():
    # a partner label adds or drops one '~', so no label ends in '~~'
    err = _semantic(
        "base { omega_minus_one = -1; n = 2; }\n"
        "param p on U(W,2,+) {\n"
        "  pair A~~ dim 1 sign none tempered sl2triv;\n"
        "}"
    )
    assert "'~~'" in str(err)
    assert err.line == 3 and err.col == 3


def test_every_prefix_parses_or_raises_a_diagnostic():
    # a truncated document ends in a positioned error, never a traceback,
    # and the end of the input is named as such
    for text in VALID_DOCS:
        for end in range(len(text)):
            try:
                parse(text[:end])
            except (DslSyntaxError, DslSemanticError) as err:
                assert "unexpected ''" not in str(err), text[:end]


# -- oracle keys printed in epsilon syntax ----------------------------------------

# A and D~ are declared; A~ and D, their partners, resolve from them
KEY_DOC = """base { omega_minus_one = -1; n = 3; identify_chi = false; }
char eta grade trivial;
param pa on U(W,2,+) { pair A dim 1 sign none tempered sl2triv; }
param pd on U(W,2,+) { pair D~ dim 1 sign none tempered sl2triv; }
param pb on U(W,2,+) { B dim 2 sign + tempered sl2triv; }
param pc on U(W,1,-) { C dim 1 sign - tempered sl2triv; }
"""

KEY_ATOMS = [Summand("A", 1, None), Summand("A~", 1, None),
             Summand("D~", 1, None), Summand("B", 2, +1),
             Summand("C", 1, -1), char_atom(CharE.one())]
KEY_GENS = [("chi", 1), ("chi_V", 1), ("chi_W", 1), ("eta", 0)]


def _random_twist(rng):
    mu = CharE.norm_power(Fraction(rng.randint(-3, 3), 2))
    for name, grade in KEY_GENS:
        mu = mu * CharE.generator(name, grade, rng.randint(-2, 2))
    return mu


def test_key_text_round_trips():
    rng = random.Random(2016)
    seen = set()
    for _ in range(100):
        atoms = [rng.choice(KEY_ATOMS) for _ in "ab"]
        a, b = (s.twisted(_random_twist(rng)) for s in atoms)
        key = term_key(a, b, _random_twist(rng), rng.choice(list(PsiTag)))
        text = key_text(key)
        doc = parse(KEY_DOC + f"epsilon {{ {text} = -1; }}\n")
        assert doc.epsilon == {key: -1}, text
        seen |= {label for label, _, _ in key[0]}
        seen.add(("tag", key[3]))
        num, den = key[2]
        seen.add(("slope", den, num > 0))
    assert {"A~", "D", "1"} <= seen
    assert {("slope", 2, True), ("slope", 2, False)} <= seen
    assert {("tag", tag.value) for tag in PsiTag} <= seen
