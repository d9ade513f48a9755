"""Distinguished-character recipes, recovery, and the trichotomy."""

import hashlib
import io
import json
from collections import Counter
from contextlib import redirect_stdout

import pytest

from conftest import (
    LoggingBackend,
    make_gctx,
    make_phi1,
    make_phi2_opaque,
    make_phi_from,
)

from lpacket import epsilon as epsilon_mod
from lpacket import recipe as recipe_mod
from lpacket import seesaw as seesaw_mod
from lpacket.chars import CharE
from lpacket.component import (
    component_group,
    central_element,
    enumerate_characters,
    evaluate,
    packet_side,
)
from lpacket.epsilon import (
    ConstantOne,
    HashedBackend,
    PsiTag,
    key_table,
    key_text,
    term_key,
)
from lpacket.errors import ChiWAbsent, HypothesisViolation
from lpacket.params import (
    HERMITIAN,
    SKEW,
    GroupTag,
    Summand,
    char_atom,
    contragredient,
    mk_parameter,
    multiplicity_of,
)
from lpacket.recipe import (
    GGPContext,
    closed_form_pair,
    fj_eta,
    main_multiplicity,
    merged_case_eta,
    recover_phi2,
)
from lpacket.seesaw import random_instance
from lpacket.serialize import sign_str, write_report
from lpacket.theta import theta_up1_param, theta_up2_param


def test_fj_eta_parity_selects_tag_only():
    backend = HashedBackend(8)
    phi_a = make_phi1(3, labels=("A", "B"))
    phi_b = make_phi2_opaque(3)
    g = make_gctx(3)
    odd = fj_eta(phi_a, phi_b, 3, g.chi, backend)
    even_style = fj_eta(phi_a, phi_b, 4, g.chi, backend)
    # same expressions, different psi variant: values may differ, shapes agree
    assert len(odd[0].values) == len(even_style[0].values)
    assert odd == fj_eta(phi_a, phi_b, 5, g.chi, backend)


def test_fj_eta_constant_backend_trivial():
    phi_a = make_phi1(2, labels=("A",))
    phi_b = make_phi2_opaque(2)
    g = make_gctx(2)
    eta_a, eta_b = fj_eta(phi_a, phi_b, 2, g.chi, ConstantOne())
    assert set(eta_a.values) <= {+1} and set(eta_b.values) <= {+1}


def test_recover_phi2_round_trip_fixture():
    # rank-3 fixture: phi = C x (recovery twist) + chi_W recovers to C
    g = make_gctx(3)
    phi2 = make_phi2_opaque(3)
    phi = make_phi_from(phi2, g)
    mu = g.up1_recovery().lift_twist
    assert mu == g.chi_V.inverse() * g.chi * g.chi_W
    expected_blocks = {
        Summand("C", 3, +1).twisted(mu),
        char_atom(g.chi_W),
    }
    assert {s for s, _ in phi.blocks} == expected_blocks
    assert recover_phi2(phi, g) == phi2
    assert make_phi_from(recover_phi2(phi, g), g) == phi


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_recover_round_trip_all_ranks(n):
    g = make_gctx(n)
    phi2 = make_phi2_opaque(n)
    phi = make_phi_from(phi2, g)
    assert recover_phi2(phi, g) == phi2


def test_recover_phi2_requires_chi_w():
    g = make_gctx(3)
    phi = mk_parameter([Summand("X", 4, -1)], GroupTag.standard(4, HERMITIAN))
    with pytest.raises(ChiWAbsent):
        recover_phi2(phi, g)


def test_recovered_phi2_is_kept_on_its_source():
    g = make_gctx(3)
    phi = make_phi_from(make_phi2_opaque(3), g)
    recovered = recover_phi2(phi, g)
    # an equal context built apart reads the same entry
    assert recover_phi2(phi, make_gctx(3)) is recovered
    # an equal parameter built apart builds its own result
    twin = make_phi_from(make_phi2_opaque(3), g)
    assert twin == phi and twin is not phi
    assert recover_phi2(twin, g) is not recovered
    assert recover_phi2(twin, g) == recovered
    # two contexts, two entries
    other = make_gctx(3, omega=+1)
    assert other != g
    assert recover_phi2(phi, other) == recovered
    assert recover_phi2(phi, other) is not recovered
    assert recover_phi2(phi, other) is recover_phi2(phi, other)
    # forward only: lifting back builds a new parameter equal to phi
    back = theta_up1_param(recover_phi2(phi, g), g.up1_recovery())
    assert back == phi and back is not phi


def test_recovered_phi2_atoms_keep_their_source_flags():
    g = make_gctx(3)
    plain = make_phi_from(make_phi2_opaque(3), g)
    odd = make_phi_from(mk_parameter([Summand("C", 3, +1, sl2_trivial=False)],
                                     GroupTag.standard(3, SKEW)), g)
    assert plain == odd
    for phi, flag in ((plain, True), (odd, False), (plain, True)):
        (atom, _), = recover_phi2(phi, g).blocks
        assert atom == Summand("C", 3, +1) and atom.sl2_trivial is flag


def test_failed_recovery_stores_nothing():
    g = make_gctx(3)
    phi = mk_parameter([Summand("X", 4, -1)], GroupTag.standard(4, HERMITIAN))
    before = dict(vars(phi))
    for _ in range(2):
        with pytest.raises(ChiWAbsent):
            recover_phi2(phi, g)
    assert vars(phi) == before


def test_recovery_drops_one_chi_w_copy_in_one_construction(monkeypatch):
    # chi_W twice and a dual pair: one chi_W copy stays and untwists onto
    # the merge atom, the pair stays, and the lower parameter is built by
    # one validating constructor call
    g = make_gctx(4)
    mu_inv = g.up1_recovery().lift_twist.inverse()
    pair = Summand("P", 1, None)
    phi = mk_parameter([(g.chi_w_atom(), 2), Summand("C", 1, +1)],
                       GroupTag.standard(5, HERMITIAN), pairs=[pair])
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return mk_parameter(*args, **kwargs)

    monkeypatch.setattr(recipe_mod, "mk_parameter", counting)
    phi2 = recover_phi2(phi, g)
    assert len(calls) == 1
    assert phi2.group == GroupTag.standard(4, SKEW)
    assert multiplicity_of(phi2, g.merge_atom()) == 1
    assert multiplicity_of(phi2, Summand("C", 1, +1).twisted(mu_inv)) == 1
    assert [pair.twisted(mu_inv) in p for p in phi2.pairs] == [True]
    assert theta_up1_param(phi2, g.up1_recovery()) == phi


def test_recover_multiplicity_two_contains_merge_atom():
    g = make_gctx(3)
    merge = g.merge_atom()
    phi2 = mk_parameter(
        [merge, Summand("C", 2, +1)], GroupTag.standard(3, SKEW)
    )
    phi = theta_up1_param(phi2, g.up1_recovery())
    assert multiplicity_of(phi, g.chi_w_atom()) == 2
    recovered = recover_phi2(phi, g)
    assert multiplicity_of(recovered, merge) == 1
    assert recovered == phi2


def test_closed_form_constant_backend():
    g, phi1, phi2, phi = _fixture(3)
    upper, lower, recovered = closed_form_pair(phi1, phi, g, ConstantOne())
    assert recovered == phi2
    assert set(upper.character.values) <= {+1}
    assert set(lower.character.values) <= {+1}
    assert upper.side == +1 and lower.side == +1


def _fixture(n):
    g = make_gctx(n)
    phi1 = make_phi1(n, labels=("A", "B"))
    phi2 = make_phi2_opaque(n)
    phi = make_phi_from(phi2, g)
    return g, phi1, phi2, phi


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closed_form_sides_and_central_identity(n):
    g, phi1, phi2, phi = _fixture(n)
    for seed in range(8):
        backend = HashedBackend(seed)
        upper, lower, _ = closed_form_pair(phi1, phi, g, backend)
        assert upper.side == lower.side
        zu = evaluate(upper.character, central_element(upper.parameter))
        zl = evaluate(lower.character, central_element(lower.parameter))
        assert zu == zl
        assert upper.parameter == theta_up2_param(phi1, g.up2_primary())
        assert lower.parameter == phi


def test_central_value_identity_random_instances():
    # both parities, many hashed backends, arbitrary random instances
    count = 0
    for parity in ("odd", "even"):
        for seed in range(60):
            inst = random_instance(seed, parity, 5, "hashed", chi_w_mult=1)
            upper, lower, _ = closed_form_pair(
                inst.phi1, inst.phi, inst.gctx, inst.backend
            )
            zu = evaluate(upper.character, central_element(upper.parameter))
            zl = evaluate(lower.character, central_element(lower.parameter))
            assert zu == zl and upper.side == lower.side
            count += 1
    assert count >= 120


def test_main_multiplicity_zero_case():
    g, phi1, _, _ = _fixture(3)
    phi = mk_parameter([Summand("X", 4, -1)], GroupTag.standard(4, HERMITIAN))
    report = main_multiplicity(phi1, phi, g, HashedBackend(1))
    assert report.case == "Zero"
    assert report.distinguished is None and report.witness is None


def test_main_multiplicity_one_case():
    g, phi1, phi2, phi = _fixture(3)
    report = main_multiplicity(phi1, phi, g, HashedBackend(42))
    assert report.case == "One"
    assert report.recovered_phi2 == phi2
    upper, lower = report.distinguished
    assert upper.side == lower.side
    assert len(report.audit) > 0


def test_main_multiplicity_at_least_one_case():
    g = make_gctx(3)
    phi1 = make_phi1(3, labels=("A", "B"))
    merge = g.merge_atom()
    phi2 = mk_parameter([merge, Summand("C", 2, +1)],
                        GroupTag.standard(3, SKEW))
    phi = theta_up1_param(phi2, g.up1_recovery())
    report = main_multiplicity(phi1, phi, g, HashedBackend(5))
    assert report.case == "AtLeastOne"
    assert report.witness is not None
    upper, lower = report.witness
    assert upper.side == lower.side
    certified = main_multiplicity(
        phi1, phi, g, HashedBackend(5), merged_case_certified=True
    )
    assert certified.case == "One"
    assert certified.distinguished == report.witness


def test_main_multiplicity_hypothesis_violations():
    g, phi1, phi2, phi = _fixture(3)
    not_sc = mk_parameter(
        [Summand("A", 1, +1), Summand("B", 2, +1)], GroupTag.standard(3, SKEW)
    )
    with pytest.raises(HypothesisViolation):
        main_multiplicity(not_sc, phi, g, ConstantOne())
    with pytest.raises(HypothesisViolation):
        main_multiplicity(phi1, phi2, g, ConstantOne())  # wrong form/rank
    half = CharE.norm_power("1/2")
    nontempered = mk_parameter(
        [Summand("X", 1, -1), char_atom(g.chi_W)],
        GroupTag.standard(4, HERMITIAN),
        pairs=[Summand("P", 1, None, half)],
    )
    with pytest.raises(HypothesisViolation):
        main_multiplicity(phi1, nontempered, g, ConstantOne())


def test_merged_case_eta_rank_shapes():
    g = make_gctx(3)
    phi1 = make_phi1(3, labels=("A", "B"))
    merge = g.merge_atom()
    phi2 = mk_parameter([merge, Summand("C", 2, +1)],
                        GroupTag.standard(3, SKEW))
    upper, lower = merged_case_eta(phi1, phi2, g, HashedBackend(9))
    # the lower character has one value per phi2 generator: no extra slot
    assert lower.character.rank == component_group(phi2).rank
    assert upper.character.rank == component_group(phi1).rank
    unmerged = _fixture(3)
    _, one_lower, _ = closed_form_pair(
        unmerged[1], unmerged[3], unmerged[0], HashedBackend(9)
    )
    assert one_lower.character.rank == component_group(unmerged[2]).rank + 1


def test_merged_case_eta_requires_certification_and_hypotheses():
    g = make_gctx(3)
    phi1 = make_phi1(3, labels=("A", "B"))
    plain = make_phi2_opaque(3)
    with pytest.raises(HypothesisViolation):
        merged_case_eta(phi1, plain, g, ConstantOne())


def test_fj_eta_parity_dependence_tracks_tag_keys():
    # odd and even recipes differ exactly when the backend separates the
    # two psi variants on the keys in play
    from lpacket.epsilon import HashedBackend as HB
    g = make_gctx(3)
    phi_a = make_phi1(3, labels=("A", "B"))
    phi_b = make_phi2_opaque(3)
    for seed in range(12):
        backend = HB(seed)
        odd = fj_eta(phi_a, phi_b, 3, g.chi, backend)
        even = fj_eta(phi_a, phi_b, 4, g.chi, backend)
        keys_differ = False
        tw = g.chi.inverse()
        for s, _ in list(phi_a.blocks) + list(phi_b.blocks):
            other = phi_b if any(s == a for a, _ in phi_a.blocks) else phi_a
            for t, _ in other.blocks:
                k_odd = term_key(s, t, tw, PsiTag.PSI_2E)
                k_even = term_key(s, t, tw, PsiTag.PSI_E)
                if backend.sign(k_odd) != backend.sign(k_even):
                    keys_differ = True
        assert (odd != even) == keys_differ


def test_merged_case_eta_constant_backend_trivial():
    g = make_gctx(3)
    phi1 = make_phi1(3, labels=("A", "B"))
    phi2 = mk_parameter([g.merge_atom(), Summand("C", 2, +1)],
                        GroupTag.standard(3, SKEW))
    upper, lower = merged_case_eta(phi1, phi2, g, ConstantOne())
    assert set(upper.character.values) <= {+1}
    assert set(lower.character.values) <= {+1}
    assert upper.side == lower.side == +1


def _lift(g, blocks, n):
    phi2 = mk_parameter(blocks, GroupTag.standard(n, SKEW))
    return theta_up1_param(phi2, g.up1_recovery())


def _pinned_cases():
    g3, g4 = make_gctx(3), make_gctx(4)
    phi1_3 = make_phi1(3, labels=("A", "B"))
    # chi_W sits between two other generators of phi's basis
    one = _lift(g3, [char_atom(g3.chi_V * g3.chi_W.inverse()),
                     Summand("C", 2, +1)], 3)
    merged = _lift(g3, [g3.merge_atom(), Summand("C", 2, +1)], 3)
    witness = _lift(g4, [g4.merge_atom(), Summand("C", 3, -1)], 4)
    return {
        "One": (phi1_3, one, g3, 42, False),
        "merged": (phi1_3, merged, g3, 5, True),
        "AtLeastOne": (make_phi1(4, labels=("A", "B")), witness, g4, 7, False),
    }


# oracle consultations and sha256 of repr(audit) under ggp-report/1, which
# logged every consultation; recorded before the recipe loops were folded
# into one pair builder
V1_AUDITS = {
    "One": ("One", 20, "227e5a9a75094a581df7bea5a4c9ccc2"
                       "2b514ea0edf39d5be715b54964ac21b0"),
    "merged": ("One", 6, "5a2c1236c3374cc92bd972cbd8bba990"
                         "dd0e128c916c74f883cc4f1531ff090b"),
    "AtLeastOne": ("AtLeastOne", 12, "4a2ae941f46813d7cb58f39cc6432e10"
                                     "b27ab523cbf07c491793923f3f79441e"),
}

# distinct keys and sha256 of repr(audit) under ggp-report/2, which holds
# (key, sign, count) per distinct key; recorded when the schema changed
PINNED_AUDITS = {
    "One": ("One", 6, "084f3e4da7fdc29a953dde7ba6beca42"
                      "4af5655c655c94d3d7d0a001b73d5062"),
    "merged": ("One", 4, "817de1954d9d8b93b4a9c0fa27698768"
                         "ab4334114fdf4ca110d48b4f7c3f84ed"),
    "AtLeastOne": ("AtLeastOne", 4, "f0d28c46801d81273b1ce2b80ef8ced8"
                                    "4e97967214c9443273ad1f3636437118"),
}


def _consultations(audit):
    return sum(count for _key, _sign, count in audit)


@pytest.mark.parametrize("name", sorted(PINNED_AUDITS))
def test_main_multiplicity_audit_is_pinned(name):
    phi1, phi, g, seed, certified = _pinned_cases()[name]
    report = main_multiplicity(phi1, phi, g, HashedBackend(seed),
                               merged_case_certified=certified)
    digest = hashlib.sha256(repr(report.audit).encode()).hexdigest()
    assert (report.case, len(report.audit), digest) == PINNED_AUDITS[name]
    assert _consultations(report.audit) == V1_AUDITS[name][1]


@pytest.mark.parametrize("name", sorted(V1_AUDITS))
def test_audit_counts_expand_to_the_v1_log(name, monkeypatch):
    phi1, phi, g, seed, certified = _pinned_cases()[name]
    new = main_multiplicity(phi1, phi, g, HashedBackend(seed),
                            merged_case_certified=certified)
    # the logging reference in the recorder's place gives the /1 audit
    monkeypatch.setattr(recipe_mod, "RecordingBackend", LoggingBackend)
    monkeypatch.setattr(seesaw_mod, "RecordingBackend", LoggingBackend)
    old = main_multiplicity(phi1, phi, g, HashedBackend(seed),
                            merged_case_certified=certified)
    digest = hashlib.sha256(repr(old.audit).encode()).hexdigest()
    assert (old.case, len(old.audit), digest) == V1_AUDITS[name]
    expanded = Counter()
    for key, sign, count in new.audit:
        expanded[key, sign] += count
    assert expanded == Counter(old.audit)
    assert [key for key, _, _ in new.audit] == list(
        dict.fromkeys(key for key, _ in old.audit))
    assert (new.case, new.distinguished, new.witness, new.recovered_phi2) == (
        old.case, old.distinguished, old.witness, old.recovered_phi2)


# key-builder evaluations: one per key a table builds; the pair builder
# builds the upper table and the rows of even-multiplicity generators only,
# and reads the other lower rows and the chi_W slot off the upper columns,
# so the One case builds fewer keys than it consults
PINNED_KEY_BUILDS = {"One": 6, "merged": 4, "AtLeastOne": 12}


@pytest.mark.parametrize("name", sorted(PINNED_KEY_BUILDS))
def test_key_builds_are_pinned(name, monkeypatch):
    phi1, phi, g, seed, certified = _pinned_cases()[name]
    builds = []
    build = epsilon_mod._least_key

    def counted(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(epsilon_mod, "_least_key", counted)
    report = main_multiplicity(phi1, phi, g, HashedBackend(seed),
                               merged_case_certified=certified)
    assert len(builds) == PINNED_KEY_BUILDS[name]
    consultations = _consultations(report.audit)
    assert consultations == V1_AUDITS[name][1]
    if name == "One":
        assert len(builds) < consultations


@pytest.mark.parametrize("name", sorted(PINNED_AUDITS))
def test_recorder_takes_every_consultation_as_a_table(name, monkeypatch):
    # a cost pin that may only go down: one inner consultation per distinct
    # key, and no per-key call into the recorder
    phi1, phi, g, seed, certified = _pinned_cases()[name]
    per_key = []
    sign = epsilon_mod.RecordingBackend.sign

    def counted(self, key):
        per_key.append(key)
        return sign(self, key)

    monkeypatch.setattr(epsilon_mod.RecordingBackend, "sign", counted)
    inner = LoggingBackend(HashedBackend(seed))
    report = main_multiplicity(phi1, phi, g, inner,
                               merged_case_certified=certified)
    assert len(inner.calls) == len(report.audit) == PINNED_AUDITS[name][1]
    assert per_key == []


class _CountingMemo(dict):
    """A recorder memo that counts its lookups."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


# recorder memo lookups: one per cell of each key table the recorder
# reads; the pair builder's column readings count on the entries its
# reading of the upper table found, so the One case looks up fewer keys
# than it consults
PINNED_LOOKUPS = {"One": 6, "merged": 4, "AtLeastOne": 12}


@pytest.mark.parametrize("name", sorted(PINNED_LOOKUPS))
def test_recorder_lookups_are_pinned(name, monkeypatch):
    # a cost pin that may only go down
    phi1, phi, g, seed, certified = _pinned_cases()[name]
    memos = []
    init = epsilon_mod.RecordingBackend.__init__

    def counted(self, inner):
        init(self, inner)
        self._rows = _CountingMemo()
        memos.append(self._rows)

    monkeypatch.setattr(epsilon_mod.RecordingBackend, "__init__", counted)
    report = main_multiplicity(phi1, phi, g, HashedBackend(seed),
                               merged_case_certified=certified)
    lookups = sum(memo.lookups for memo in memos)
    assert lookups == PINNED_LOOKUPS[name]
    consultations = _consultations(report.audit)
    assert consultations == V1_AUDITS[name][1]
    if name == "One":
        assert lookups < consultations


@pytest.mark.parametrize("name", sorted(PINNED_AUDITS))
def test_audit_json_rows_are_distinct_and_sorted(name):
    phi1, phi, g, seed, certified = _pinned_cases()[name]
    report = main_multiplicity(phi1, phi, g, HashedBackend(seed),
                               merged_case_certified=certified)
    audit = report.audit
    out = io.StringIO()
    with redirect_stdout(out):
        write_report(report)
    rows = json.loads(out.getvalue())["audit"]
    texts = [row["key"] for row in rows]
    assert len(set(texts)) == len(texts) == len(audit)
    assert texts == sorted(texts)
    assert rows == sorted(
        ({"count": count, "key": key_text(key), "sign": sign_str(sign)}
         for key, sign, count in audit), key=lambda row: row["key"])


def _per_family_keys(phi1, phi, phi2, g):
    """The upper, lower and chi_W tables, each built as a table of its
    own family: the reference ``_pair_keys`` must equal."""
    tag = recipe_mod.parity_tag(phi1.group.n)
    lifted = [s.twisted(g.up2_primary().lift_twist) for s, _ in phi1.blocks]
    upper = key_table([(s, 1) for s in lifted], contragredient(phi), tag)
    mu_inv = g.up1_recovery().lift_twist.inverse()
    sources = [s.twisted(mu_inv).dual() for s in component_group(phi).basis]
    lower = key_table([(s, 1) for s in sources], phi1, tag, g.chi.inverse())
    slot = None
    if not multiplicity_of(phi2, g.merge_atom()):
        slot = key_table(phi1, [(s.dual(), m) for s, m in phi2.blocks], tag,
                         g.chi.inverse())
    return lifted, (upper, lower, slot)


def test_pair_keys_equal_the_per_family_tables():
    seen = set()
    for seed in range(120):
        for parity in ("odd", "even"):
            inst = random_instance(seed, parity, 5, "hashed",
                                   chi_w_mult=1 + seed % 2)
            g, phi1, phi = inst.gctx, inst.phi1, inst.phi
            phi2 = recover_phi2(phi, g)
            lifted, want = _per_family_keys(phi1, phi, phi2, g)
            got, own, lower = recipe_mod._pair_keys(lifted, phi1, phi, phi2,
                                                    g)
            upper, want_lower, slot = want
            assert got == upper
            # per generator, the keys its lower entry consults: the next
            # own row, or upper columns read again, group by group
            own = iter(own)
            lower = [next(own) if groups is None else
                     [u[j] for cols in groups for u in upper for j in cols]
                     for groups in lower]
            assert next(own, None) is None
            if slot is not None:
                # the chi_W generator reads the upper table, then the slot
                k = component_group(phi).basis.index(g.chi_w_atom())
                want_lower[k] = [key for table in (upper, slot)
                                 for row in table for key in row]
            assert lower == want_lower
            chars = [s for s, _ in phi.blocks
                     if s.is_char_atom and s != g.chi_w_atom()]
            # identify_chi makes chi_W a power of chi
            identified = {name for (name, _), _ in g.chi_W.exps} == {"chi"}
            seen.update({("merged", want[2] is None, identified),
                         ("pairs", bool(phi.pairs)),
                         ("extra char", bool(chars)),
                         ("even generator", any(m % 2 == 0
                                                for _, m in phi.blocks))})
    assert {("merged", m, i) for m in (True, False) for i in (True, False)} \
        <= seen
    assert {("pairs", True), ("extra char", True),
            ("even generator", True)} <= seen
