"""Acceptance criteria, one test per criterion, at their stated bounds.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion (a failing criterion fails its test).
"""

import itertools
import json
import time

import pytest

import lpacket.theta as theta_mod
from lpacket.cli import main as cli_main
from lpacket.component import (
    central_element,
    component_group,
    enumerate_characters,
    evaluate,
)
from lpacket.dsl import parse, print_document
from lpacket.errors import DslSemanticError, DslSyntaxError
from lpacket.params import (
    SKEW,
    GroupTag,
    Summand,
    char_atom,
    mk_parameter,
    multiplicity_of,
)
from lpacket.recipe import closed_form_pair, main_multiplicity, merged_case_eta, recover_phi2
from lpacket.seesaw import merged_instance, random_instance, seesaw_pairs

from test_dsl import SYNTAX_ERRORS, VALID_DOCS
from test_seesaw import MUTATIONS, _agreement_holds, _mult1_instances


def _announce(number, name, started):
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number} ({name}): PASS [{elapsed:.2f}s]")


def test_criterion_1_packet_combinatorics():
    # exhaustive over ranks r <= 5 and all multiplicity parity patterns
    started = time.perf_counter()
    labels = ("L1", "L2", "L3", "L4", "L5")
    for r in range(1, 6):
        for mults in itertools.product((1, 2), repeat=r):
            blocks = [(Summand(labels[i], 1, +1), mults[i]) for i in range(r)]
            total = sum(mults)
            phi = mk_parameter(blocks, GroupTag(total, SKEW, +1))
            group = component_group(phi)
            assert group.rank == r
            chars = list(enumerate_characters(group))
            assert len(chars) == 2 ** r
            assert len({c.values for c in chars}) == 2 ** r
            z = central_element(phi)
            plus = sum(1 for c in chars if evaluate(c, z) == +1)
            if z.is_identity:
                assert plus == 2 ** r
            else:
                assert plus == 2 ** (r - 1)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    _announce(1, "packet combinatorics", started)


def test_criterion_2_theta_shapes_and_signs():
    started = time.perf_counter()
    checked = 0
    seed = 0
    while checked < 1000:
        parity = "odd" if checked % 2 == 0 else "even"
        inst = random_instance(seed, parity, 5, "hashed")
        seed += 1
        phi1 = inst.phi1
        n = phi1.group.n
        up1 = inst.gctx.up1_recovery()
        up2 = inst.gctx.up2_primary()

        # every third instance: source containing the chi_V-role atom,
        # to exercise the merged transfer
        if checked % 3 == 2:
            role = char_atom(up1.chi_V_role)
            rest = n - 1
            blocks = [role]
            if rest:
                req = +1 if n % 2 == 1 else -1
                blocks.append(Summand("R", rest, req))
            phi1 = mk_parameter(blocks, GroupTag.standard(n, SKEW),
                                supercuspidal_packet=True)

        lifted1 = theta_mod.theta_up1_param(phi1, up1)
        assert lifted1.dim() == phi1.dim() + 1
        assert lifted1.group.is_canonical and lifted1.group.n == n + 1
        contains_role = multiplicity_of(phi1, char_atom(up1.chi_V_role)) > 0
        assert lifted1.rank == phi1.rank + (0 if contains_role else 1)

        lifted2 = theta_mod.theta_up2_param(phi1, up2)
        assert lifted2.dim() == phi1.dim() + 2
        assert lifted2.group.is_canonical and lifted2.group.n == n + 2
        assert lifted2.rank == phi1.rank
        assert not lifted2.tempered
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"criterion 2 took {elapsed:.2f}s"
    _announce(2, "theta shape and sign bookkeeping", started)


def test_criterion_3_restrict_round_trip():
    started = time.perf_counter()
    for seed in range(500):
        parity = "odd" if seed % 2 == 0 else "even"
        inst = random_instance(seed, parity, 5, "hashed")
        phi1 = inst.phi1
        lift = theta_mod.Up1Lift(phi1, inst.gctx.up1_recovery())
        for eta in enumerate_characters(component_group(phi1)):
            for side in (+1, -1):
                lifted, _ = lift.transfer(eta, side)
                assert lift.restrict(lifted) == eta
    _announce(3, "restriction round trip", started)


def test_criterion_4_central_value_identity():
    started = time.perf_counter()
    count = 0
    for parity in ("odd", "even"):
        for seed in range(60):
            inst = random_instance(seed, parity, 5, "hashed", chi_w_mult=1)
            upper, lower, _ = closed_form_pair(
                inst.phi1, inst.phi, inst.gctx, inst.backend
            )
            zu = evaluate(upper.character, central_element(upper.parameter))
            zl = evaluate(lower.character, central_element(lower.parameter))
            assert zu == zl
            count += 1
    assert count >= 100
    _announce(4, "central-value identity", started)


def test_criterion_5_trichotomy_zero_case():
    started = time.perf_counter()
    zero_seen = nonzero_seen = 0
    for seed in range(200):
        parity = "odd" if seed % 2 == 0 else "even"
        inst = random_instance(seed, parity, 5, "hashed")
        m = multiplicity_of(inst.phi, inst.gctx.chi_w_atom())
        report = main_multiplicity(inst.phi1, inst.phi, inst.gctx,
                                   inst.backend)
        result = seesaw_pairs(inst.phi1, inst.phi, inst.gctx, inst.backend)
        assert (report.case == "Zero") == (m == 0)
        assert (len(result.pairs) == 0) == (m == 0)
        if m == 0:
            zero_seen += 1
        else:
            nonzero_seen += 1
    assert zero_seen > 10 and nonzero_seen > 10
    _announce(5, "trichotomy zero case", started)


def test_criterion_6_recipe_oracle_agreement_and_mutations():
    started = time.perf_counter()
    for parity in ("odd", "even"):
        for seed in range(200):
            inst = random_instance(seed, parity, 5, "hashed", chi_w_mult=1)
            upper, lower, _ = closed_form_pair(
                inst.phi1, inst.phi, inst.gctx, inst.backend
            )
            result = seesaw_pairs(inst.phi1, inst.phi, inst.gctx,
                                  inst.backend)
            assert len(result.pairs) == 1, "pair must be unique"
            assert result.pairs[0] == (upper, lower)

    # flipping any single transfer sign rule must break the agreement
    for parity in ("odd", "even"):
        instances = _mult1_instances(parity, 12)
        for name, (module, attr, flipped) in sorted(MUTATIONS.items()):
            original = getattr(module, attr)
            setattr(module, attr, flipped)
            try:
                broke = sum(
                    1 for inst in instances if not _agreement_holds(inst)
                )
            finally:
                setattr(module, attr, original)
            assert broke > 0, f"mutation {name} undetected ({parity})"

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"criterion 6 took {elapsed:.2f}s"
    _announce(6, "recipe/see-saw agreement with mutation coverage", started)


def test_criterion_7_merged_branch_fixtures():
    started = time.perf_counter()
    for parity in ("odd", "even"):
        for seed in range(40):
            inst = merged_instance(seed, parity, 5, "hashed")
            phi2 = recover_phi2(inst.phi, inst.gctx)
            assert multiplicity_of(phi2, inst.gctx.merge_atom()) == 1
            pair = merged_case_eta(inst.phi1, phi2, inst.gctx, inst.backend)
            result = seesaw_pairs(inst.phi1, inst.phi, inst.gctx,
                                  inst.backend)
            assert result.pairs == (pair,)
    _announce(7, "merged-branch recipe vs transport", started)


def test_criterion_8_verify_determinism(capsys):
    started = time.perf_counter()
    argv = ["verify", "--seeds", "3", "--max-rank", "4", "--seed", "42"]
    code1 = cli_main(argv)
    out1 = capsys.readouterr().out
    code2 = cli_main(argv)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2, "verify --seed 42 must be byte-identical"
    payload = json.loads(out1)
    assert payload["schema"] == "ggp-report/2"
    assert payload["all_pass"] is True
    _announce(8, "verification determinism", started)


def test_criterion_9_dsl_round_trip_and_diagnostics():
    started = time.perf_counter()
    assert len(VALID_DOCS) >= 20
    for text in VALID_DOCS:
        doc = parse(text)
        printed = print_document(doc)
        assert parse(printed) == doc
        assert print_document(parse(printed)) == printed
    # every diagnostic class carries line/column
    for text, line, col in SYNTAX_ERRORS:
        with pytest.raises((DslSyntaxError, DslSemanticError)) as err:
            parse(text)
        assert err.value.line == line and err.value.col == col
    semantic_cases = [
        "base { omega_minus_one = -1; n = 3; }\n"
        "param p on U(W,3,+) { A dim 1 sign + tempered sl2triv; }",
        "base { omega_minus_one = -1; n = 3; }\n"
        "param p on U(W,3,+) { A dim 3 sign - tempered sl2triv; }",
        "base { omega_minus_one = -1; n = 3; }\n"
        "epsilon { (Z, Z; psi2E) = -1; }",
        "base { omega_minus_one = -1; n = 3; }\n"
        "param p on U(W,3,+) { C*norm^1/0 dim 3 sign + tempered sl2triv; }",
        "base { omega_minus_one = -1; n = 3; }\n"
        "param p on U(W,3,+) { C*norm^1/3 dim 3 sign + tempered sl2triv; }",
    ]
    for text in semantic_cases:
        with pytest.raises(DslSemanticError) as err:
            parse(text)
        assert err.value.line >= 1 and err.value.col >= 1
    _announce(9, "DSL round trip and diagnostics", started)
