"""See-saw transport oracle: emptiness, agreement, traces, mutations."""

import ast
import hashlib
import inspect
import io
import itertools
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

from conftest import (
    make_gctx,
    make_phi1,
    make_phi2_opaque,
    make_phi_from,
    required_sign,
)

import lpacket.params as params_mod
import lpacket.recipe as recipe_mod
import lpacket.seesaw as seesaw_mod
import lpacket.theta as theta_mod
from lpacket.component import SChar
from lpacket.epsilon import ConstantOne, HashedBackend
from lpacket.errors import HypothesisViolation, InvariantViolation
from lpacket.params import (
    HERMITIAN,
    SKEW,
    GroupTag,
    LParameter,
    Summand,
    mk_parameter,
    multiplicity_of,
)
from lpacket.recipe import (
    closed_form_pair,
    main_multiplicity,
    merged_case_eta,
    recover_phi2,
)
from lpacket.seesaw import (
    merged_instance,
    random_instance,
    run_property_suite,
    seesaw_pairs,
)
from lpacket.serialize import write_report


def test_empty_exactly_without_chi_w():
    g = make_gctx(3)
    phi1 = make_phi1(3, labels=("A", "B"))
    phi = mk_parameter([Summand("X", 4, -1)], GroupTag.standard(4, HERMITIAN))
    result = seesaw_pairs(phi1, phi, g, HashedBackend(0))
    assert result.pairs == ()
    assert result.trace.steps[0][0] == "chi_W-absent"


def test_constant_backend_gives_trivial_singleton():
    g = make_gctx(3)
    phi1 = make_phi1(3, labels=("A", "B"))
    phi = make_phi_from(make_phi2_opaque(3), g)
    result = seesaw_pairs(phi1, phi, g, ConstantOne())
    assert len(result.pairs) == 1
    upper, lower = result.pairs[0]
    assert set(upper.character.values) <= {+1}
    assert set(lower.character.values) <= {+1}
    assert upper.side == lower.side == +1


@pytest.mark.parametrize("parity", ["odd", "even"])
def test_agreement_fixture_seed_42(parity):
    n = 3 if parity == "odd" else 2
    g = make_gctx(n)
    phi1 = make_phi1(n, labels=("A", "B") if n > 1 else ("A",))
    phi = make_phi_from(make_phi2_opaque(n), g)
    backend = HashedBackend(42)
    upper_c, lower_c, _ = closed_form_pair(phi1, phi, g, backend)
    result = seesaw_pairs(phi1, phi, g, backend)
    assert result.pairs == ((upper_c, lower_c),)


@pytest.mark.parametrize("parity", ["odd", "even"])
def test_agreement_random_instances(parity):
    for seed in range(40):
        inst = random_instance(seed, parity, 5, "hashed", chi_w_mult=1)
        upper, lower, _ = closed_form_pair(
            inst.phi1, inst.phi, inst.gctx, inst.backend
        )
        result = seesaw_pairs(inst.phi1, inst.phi, inst.gctx, inst.backend)
        assert result.pairs == ((upper, lower),)


@pytest.mark.parametrize("parity", ["odd", "even"])
def test_merged_agreement_random_instances(parity):
    for seed in range(25):
        inst = merged_instance(seed, parity, 5, "hashed")
        phi2 = recover_phi2(inst.phi, inst.gctx)
        assert multiplicity_of(inst.phi, inst.gctx.chi_w_atom()) == 2
        pair = merged_case_eta(inst.phi1, phi2, inst.gctx, inst.backend)
        result = seesaw_pairs(inst.phi1, inst.phi, inst.gctx, inst.backend)
        assert result.pairs == (pair,)


def test_transport_and_reports_are_pinned_in_both_parities():
    # one digest over plain and merged draws of either parity: each
    # see-saw pair with its audit, then the printed report; every parity
    # reaches all three cases, so even-rank witnesses are pinned too
    digest = hashlib.sha256()
    cases = {"odd": set(), "even": set()}
    for parity, seen in cases.items():
        for seed in range(40):
            for make in (random_instance, merged_instance):
                inst = make(seed, parity, 5, "hashed")
                args = (inst.phi1, inst.phi, inst.gctx, inst.backend)
                result = seesaw_pairs(*args)
                digest.update(
                    repr((result.pairs, result.trace.oracle_calls)).encode())
                report = main_multiplicity(*args)
                out = io.StringIO()
                with redirect_stdout(out):
                    write_report(report)
                # the printed report, without the newline print added
                digest.update(out.getvalue()[:-1].encode())
                seen.add(report.case)
    assert list(cases.values()) == [{"Zero", "One", "AtLeastOne"}] * 2
    assert digest.hexdigest() == ("1ebb7275f81250cebd43945915eb6cba"
                                  "29d3c7da81e1a211776651be7059d14e")


def test_trace_replay_determinism():
    inst = random_instance(12, "odd", 5, "hashed", chi_w_mult=1)
    first = seesaw_pairs(inst.phi1, inst.phi, inst.gctx, inst.backend)
    second = seesaw_pairs(inst.phi1, inst.phi, inst.gctx, inst.backend)
    assert first.pairs == second.pairs
    assert first.trace.steps == second.trace.steps
    assert first.trace.oracle_calls == second.trace.oracle_calls
    assert len(first.trace.oracle_calls) > 0


def _mult1_instances(parity, count):
    return [random_instance(seed, parity, 5, "hashed", chi_w_mult=1)
            for seed in range(count)]


def _agreement_holds(inst):
    try:
        upper, lower, _ = closed_form_pair(
            inst.phi1, inst.phi, inst.gctx, inst.backend
        )
        result = seesaw_pairs(inst.phi1, inst.phi, inst.gctx, inst.backend)
        return result.pairs == ((upper, lower),)
    except AssertionError:
        return False


MUTATIONS = {}


def _register_mutations():
    orig_up2_transfer = theta_mod.Up2Lift.transfer
    orig_up1_transfer = theta_mod.Up1Lift.transfer
    orig_eps_prime = theta_mod.theta_up2_eps_prime
    orig_fj = recipe_mod.fj_eta

    def flip_up2_char(self, eta):
        out = orig_up2_transfer(self, eta)
        return SChar(tuple(-v for v in out.values))

    def flip_up1_extension(self, eta, target_side):
        return orig_up1_transfer(self, eta, -target_side)

    def flip_up1_restriction(self, eta, target_side):
        flipped = SChar(tuple(-v for v in eta.values))
        return orig_up1_transfer(self, flipped, target_side)

    def flip_eps_prime(eps, phi, ctx, backend):
        return -orig_eps_prime(eps, phi, ctx, backend)

    def flip_fj_twist(phi_a, phi_b, n, chi, backend):
        return orig_fj(phi_a, phi_b, n, chi.inverse(), backend)

    class FlipOneUp2Factor(theta_mod.Up2Lift):
        def __init__(self, phi, ctx, backend):
            super().__init__(phi, ctx, backend)
            first, *rest = self.factors
            self.factors = (-first, *rest)

    class DropOneOddIndex(theta_mod.Up1Lift):
        def __init__(self, phi, ctx):
            super().__init__(phi, ctx)
            self.odd = self.odd[1:]

    MUTATIONS.update({
        "up2-char-multiplier": (theta_mod.Up2Lift, "transfer", flip_up2_char),
        "up1-extension-target": (theta_mod.Up1Lift, "transfer",
                                 flip_up1_extension),
        "up1-restriction-values": (theta_mod.Up1Lift, "transfer",
                                   flip_up1_restriction),
        "exchange-sign-rule": (theta_mod, "theta_up2_eps_prime",
                               flip_eps_prime),
        "base-recipe-twist": (seesaw_mod, "fj_eta", flip_fj_twist),
        "up2-lift-factor": (theta_mod, "Up2Lift", FlipOneUp2Factor),
        "up1-odd-mask": (theta_mod, "Up1Lift", DropOneOddIndex),
    })


_register_mutations()


@pytest.mark.parametrize("name", sorted(MUTATIONS))
@pytest.mark.parametrize("parity", ["odd", "even"])
def test_single_sign_rule_mutations_break_agreement(name, parity, monkeypatch):
    instances = _mult1_instances(parity, 15)
    assert all(_agreement_holds(inst) for inst in instances)
    module, attr, flipped = MUTATIONS[name]
    monkeypatch.setattr(module, attr, flipped)
    broke = sum(1 for inst in instances if not _agreement_holds(inst))
    assert broke > 0, f"mutation {name} went undetected"


def _engine_faults():
    """One fault per ``engine invariant broken:`` message of
    ``seesaw_pairs``, keyed by that message: (owner, attribute, patch)."""
    fj = seesaw_mod.fj_eta
    up1_init = theta_mod.Up1Lift.__init__
    up1_transfer = theta_mod.Up1Lift.transfer
    eps_prime = theta_mod.theta_up2_eps_prime

    def negate_eta_d(*args):
        eta_d, eta_h = fj(*args)
        return SChar(tuple(-v for v in eta_d.values)), eta_h

    def dual_target(self, phi, ctx):
        up1_init(self, phi, ctx)
        self.target = params_mod.contragredient(self.target)

    def opposite_side(self, eta, target_side):
        out, side = up1_transfer(self, eta, target_side)
        return out, -side

    def negated_eps_prime(*args):
        return -eps_prime(*args)

    def opposite_request(self, eta, target_side):
        return up1_transfer(self, eta, -target_side)

    return {
        "base-case members landed on different pure inner forms":
            (seesaw_mod, "fj_eta", negate_eta_d),
        "transported lower parameter differs from the input":
            (theta_mod.Up1Lift, "__init__", dual_target),
        "the lower member left the pure inner form its transfer chose":
            (theta_mod.Up1Lift, "transfer", opposite_side),
        "upper transfer missed the exchanged form":
            (theta_mod, "theta_up2_eps_prime", negated_eps_prime),
        "transported members landed on different pure inner forms":
            (theta_mod.Up1Lift, "transfer", opposite_request),
    }


ENGINE_FAULTS = _engine_faults()


@pytest.mark.parametrize("message", sorted(ENGINE_FAULTS))
@pytest.mark.parametrize("parity", ["odd", "even"])
def test_every_transport_check_can_fire(message, parity, monkeypatch):
    instances = _mult1_instances(parity, 6)
    owner, attr, patch = ENGINE_FAULTS[message]
    monkeypatch.setattr(owner, attr, patch)
    raised = []
    for inst in instances:
        try:
            seesaw_pairs(inst.phi1, inst.phi, inst.gctx, inst.backend)
        except AssertionError as exc:
            raised.append(str(exc))
    assert raised
    assert set(raised) == {f"engine invariant broken: {message}"}


def test_every_transport_check_has_a_fault():
    # a check that no separate fault reaches restates another one
    tree = ast.parse(inspect.getsource(seesaw_mod))
    prefix = "engine invariant broken: "
    messages = {
        node.exc.args[0].value[len(prefix):]
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
        and node.exc.args and isinstance(node.exc.args[0], ast.Constant)
        and str(node.exc.args[0].value).startswith(prefix)
    }
    assert messages == set(ENGINE_FAULTS)


def test_property_suite_all_pass_and_shape():
    report = run_property_suite(seeds=4, max_rank=4, master_seed=3)
    assert report["schema"] == "ggp-report/2"
    assert report["all_pass"] is True
    names = [entry["check"] for entry in report["results"]]
    assert "recipe-seesaw-agreement" in names
    assert all(entry["instances"] > 0 for entry in report["results"])


def test_property_suite_reports_injected_fault(monkeypatch):
    module, attr, flipped = MUTATIONS["up2-char-multiplier"]
    monkeypatch.setattr(module, attr, flipped)
    report = run_property_suite(seeds=4, max_rank=4, master_seed=3)
    assert report["all_pass"] is False
    failing = {e["check"] for e in report["results"] if e["failures"]}
    assert "recipe-seesaw-agreement" in failing
    for entry in report["results"]:
        for failure in entry["failures"]:
            assert "seed" in failure and "message" in failure


def test_merged_check_fails_a_draw_without_the_merge(monkeypatch):
    # a merged drawer that stops merging must fail the check, not skip it
    def unmerged(seed, parity, max_rank=5, backend_kind="hashed"):
        return random_instance(seed, parity, max_rank, backend_kind,
                               chi_w_mult=1)

    monkeypatch.setattr(seesaw_mod, "merged_instance", unmerged)
    report = run_property_suite(seeds=2)
    entry = next(e for e in report["results"]
                 if e["check"] == "merged-case-agreement")
    assert entry["instances"] == 4
    assert [f["message"] for f in entry["failures"]] == (
        ["merged case needs the chi_V chi^(-1) atom inside phi2"] * 4)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_up1_checks_reach_the_merged_lift(n):
    # a supercuspidal phi1 holding the merge atom lifts with that atom
    # merged into the appended chi_W block: the branch the drawers never
    # reach, since _random_phi1 draws opaque atoms only
    g = make_gctx(n)
    opaque = [Summand("A", n - 1, required_sign(n))]
    phi1 = mk_parameter([g.merge_atom(), *opaque], GroupTag.standard(n, SKEW),
                        supercuspidal_packet=True)
    phi = make_phi_from(make_phi2_opaque(n), g)
    inst = seesaw_mod.Instance(n, n, g, HashedBackend(n), phi1, phi)
    assert theta_mod.Up1Lift(phi1, g.up1_recovery()).slot is None
    seesaw_mod._check_up1_bijection(inst)
    seesaw_mod._check_restrict_roundtrip(inst)


def test_property_suite_empty_config():
    report = run_property_suite(seeds=0, max_rank=3, master_seed=0)
    assert report["all_pass"] is True
    assert all(entry["instances"] == 0 for entry in report["results"])


def test_merged_agreement_beyond_remark_fixtures():
    # merge multiplicity two (chi_W three times upstairs) and dual-pair
    # blocks inside phi2: the general identification still matches
    from lpacket.chars import BaseFieldData
    from lpacket.recipe import GGPContext

    cases = []
    for n, extra in ((3, 1), (4, 2), (2, 0)):
        g = GGPContext.standard(n, BaseFieldData(-1))
        req = +1 if n % 2 == 1 else -1
        blocks = [(g.merge_atom(), 2)]
        if extra:
            blocks.append((Summand("C", extra, req), 1))
        phi2 = mk_parameter(blocks, GroupTag.standard(n, SKEW))
        cases.append((n, g, phi2))
    for n in (3, 4):
        g = GGPContext.standard(n, BaseFieldData(-1))
        req = +1 if n % 2 == 1 else -1
        blocks = [(g.merge_atom(), 1)]
        if n - 3:
            blocks.append((Summand("C", n - 3, req), 1))
        phi2 = mk_parameter(blocks, GroupTag.standard(n, SKEW),
                            pairs=[Summand("P", 1, None)])
        cases.append((n, g, phi2))

    for n, g, phi2 in cases:
        req = +1 if n % 2 == 1 else -1
        phi = theta_mod.theta_up1_param(phi2, g.up1_recovery())
        blocks1 = [Summand("A", 1, req)]
        if n > 1:
            blocks1.append(Summand("B", n - 1, req))
        phi1 = mk_parameter(blocks1, GroupTag.standard(n, SKEW),
                            supercuspidal_packet=True)
        for seed in range(4):
            backend = HashedBackend(seed)
            pair = merged_case_eta(phi1, recover_phi2(phi, g), g, backend)
            result = seesaw_pairs(phi1, phi, g, backend)
            assert result.pairs == (pair,)


def test_seesaw_calls_no_closed_form_helper(monkeypatch):
    cases = [random_instance(seed, parity, 5, "hashed", chi_w_mult=1)
             for parity in ("odd", "even") for seed in range(4)]
    cases += [merged_instance(seed, parity, 5, "hashed")
              for parity in ("odd", "even") for seed in range(4)]
    expected = [seesaw_pairs(i.phi1, i.phi, i.gctx, i.backend).pairs
                for i in cases]

    def forbidden(*args, **kwargs):
        raise RuntimeError("the see-saw called a closed-form helper")

    for module in (recipe_mod, seesaw_mod):
        for name in ("closed_form_pair", "merged_case_eta",
                     "_distinguished_pair", "_pair_keys"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    got = [seesaw_pairs(i.phi1, i.phi, i.gctx, i.backend).pairs
           for i in cases]
    assert got == expected


@pytest.mark.parametrize("make", [random_instance, merged_instance])
def test_instance_without_a_fitting_rank_is_a_hypothesis_violation(make):
    with pytest.raises(HypothesisViolation):
        make(0, "even", 1, "hashed")
    with pytest.raises(HypothesisViolation):
        make(0, "odd", 0, "hashed")


def test_property_suite_builds_each_instance_once(monkeypatch):
    built = []

    def counting(make):
        def wrapper(seed, parity, *args, **kwargs):
            built.append((make.__name__, seed, parity))
            return make(seed, parity, *args, **kwargs)
        return wrapper

    for make in (random_instance, merged_instance):
        monkeypatch.setattr(seesaw_mod, make.__name__, counting(make))
    report = run_property_suite(seeds=3, max_rank=4, master_seed=1)
    assert report["all_pass"] is True
    assert len(built) == len(set(built)) == 2 * 2 * 3
    assert all(entry["instances"] == 2 * 3 for entry in report["results"])


def test_property_suite_shares_one_transport_per_instance(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return seesaw_pairs(*args, **kwargs)

    monkeypatch.setattr(seesaw_mod, "seesaw_pairs", counting)
    report = run_property_suite(seeds=2, master_seed=0)
    assert report["all_pass"] is True
    # cost pin, which may only go down: one shared run per instance that a
    # check reads, one fresh run for trace-replay-determinism, and the run
    # inside main_multiplicity on AtLeastOne instances
    assert len(calls) == 15


def test_property_suite_construction_counts_are_pinned(monkeypatch):
    built = {}

    def counting(cls):
        init = cls.__init__

        def wrapper(self, *args, **kwargs):
            built[cls] = built.get(cls, 0) + 1
            init(self, *args, **kwargs)
        return wrapper

    for cls in (Summand, LParameter):
        monkeypatch.setattr(cls, "__init__", counting(cls))
    report = run_property_suite(seeds=2, master_seed=0)
    assert report["all_pass"] is True
    # cost pin, which may only go down: each atom builds its dual and each
    # of its twists once, and each parameter its contragredient, recovered
    # lower parameter and theta transfers once per context
    assert (built[Summand], built[LParameter]) == (342, 108)


def test_property_suite_mk_parameter_calls_are_pinned(monkeypatch):
    original = params_mod.mk_parameter
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    # every module that imported the constructor calls it through its own name
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("lpacket")
                and getattr(module, "mk_parameter", None) is original):
            monkeypatch.setattr(module, "mk_parameter", counting)
    report = run_property_suite(seeds=2, master_seed=0)
    assert report["all_pass"] is True
    # cost pin, which may only go down: one validating construction per
    # drawn parameter and per (source, context) of each derived parameter
    assert len(calls) == 108


def test_trace_replay_catches_per_process_state(monkeypatch):
    # a trace step that reads state kept across runs: the shared transport
    # and the one fresh run of trace-replay-determinism must then differ
    record = seesaw_mod.SeesawTrace.record
    runs = itertools.count()

    def leaky(self, name, payload=""):
        if name == "exchange-sign":
            payload = f"{payload} run {next(runs)}"
        record(self, name, payload)

    monkeypatch.setattr(seesaw_mod.SeesawTrace, "record", leaky)
    report = run_property_suite(seeds=2, master_seed=0)
    entry = next(e for e in report["results"]
                 if e["check"] == "trace-replay-determinism")
    assert entry["instances"] == 4
    assert [f["message"] for f in entry["failures"]] == (
        ["replayed steps differ"] * 4)


def test_property_suite_failing_transport_fails_every_reader(monkeypatch):
    def boom(*args, **kwargs):
        raise InvariantViolation("boom")

    monkeypatch.setattr(seesaw_mod, "seesaw_pairs", boom)
    report = run_property_suite(seeds=3, master_seed=0)
    chi_w_mult = {}
    merged_ok = set()
    for parity in ("odd", "even"):
        for k in range(3):
            seed = 2 * k + (parity == "even")
            inst = random_instance(seed, parity)
            chi_w_mult[seed] = multiplicity_of(inst.phi, inst.gctx.chi_w_atom())
            merged = merged_instance(seed, parity)
            phi2 = recover_phi2(merged.phi, merged.gctx)
            if (multiplicity_of(merged.phi, merged.gctx.chi_w_atom()) == 2
                    and multiplicity_of(phi2, merged.gctx.merge_atom()) == 1):
                merged_ok.add(seed)
    every = sorted(chi_w_mult)
    expected = {
        "central-value-identity": every,
        "trichotomy-zero": every,
        "recipe-seesaw-agreement": [s for s in every if chi_w_mult[s] == 1],
        "merged-case-agreement": sorted(merged_ok),
        "trace-replay-determinism": every,
    }
    # the draw has instances each reader skips and instances it reads
    assert 0 < len(expected["recipe-seesaw-agreement"]) < len(every)
    assert merged_ok
    for entry in report["results"]:
        failures = entry["failures"]
        assert entry["instances"] == len(every)
        assert sorted(f["seed"] for f in failures) == expected.get(
            entry["check"], []), entry["check"]
        assert all(f["message"] == "boom" for f in failures)


def test_property_suite_failed_build_fails_every_check():
    report = run_property_suite(seeds=2, max_rank=1, parities=("even",))
    assert report["all_pass"] is False
    for entry in report["results"]:
        assert entry["instances"] == 0
        assert [f["seed"] for f in entry["failures"]] == [1, 3]
        assert all("no even tower rank" in f["message"]
                   for f in entry["failures"])


def test_property_suite_fails_under_python_O():
    # checks raise instead of asserting, so -O cannot turn a failure into
    # a pass; an empty packet breaks the packet-count invariant
    script = (
        "import json, sys\n"
        "import lpacket.seesaw as seesaw\n"
        "seesaw.enumerate_characters = lambda group: []\n"
        "report = seesaw.run_property_suite(seeds=1, max_rank=3)\n"
        "print(json.dumps({'optimize': sys.flags.optimize,\n"
        "                  'all_pass': report['all_pass'],\n"
        "                  'failing': [e['check'] for e in report['results']\n"
        "                              if e['failures']]}))\n"
    )
    src = os.path.dirname(os.path.dirname(seesaw_mod.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120).stdout
    result = json.loads(out)
    assert result["optimize"] == 1
    assert result["all_pass"] is False
    assert "packet-counts" in result["failing"]
