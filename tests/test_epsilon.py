"""Epsilon oracle: keys, backends, biadditivity, normalization symmetries."""

import gc
import hashlib
import random
import weakref
from collections import Counter
from fractions import Fraction
from math import prod

import pytest

from conftest import LoggingBackend, make_gctx

from lpacket import chars as chars_mod
from lpacket import epsilon as epsilon_mod
from lpacket.chars import CharE
from lpacket.epsilon import (
    ConstantOne,
    HashedBackend,
    PsiTag,
    RecordingBackend,
    TableBackend,
    eps_half,
    key_table,
    row_signs,
    term_key,
)
from lpacket.errors import MissingTableEntry
from lpacket.params import (
    SKEW,
    GroupTag,
    LParameter,
    Summand,
    char_atom,
    mk_parameter,
    partner_label,
)

A = Summand("A", 1, +1)
B = Summand("B", 2, +1)
C = Summand("C", 1, +1)
ONE = CharE.one()


def test_constant_one_everywhere():
    phi = mk_parameter([A, B], GroupTag.standard(3, SKEW))
    assert eps_half(phi, phi, PsiTag.PSI_E, ConstantOne()) == +1
    assert eps_half(A, char_atom(ONE), PsiTag.PSI_NEG2E, ConstantOne()) == +1


def test_table_multiplicative_in_direct_sums():
    table = TableBackend({term_key(A, B, ONE, PsiTag.PSI_2E): -1,
                          term_key(A, C, ONE, PsiTag.PSI_2E): +1})
    bc = mk_parameter([B, C], GroupTag.standard(3, SKEW))
    assert eps_half(A, bc, PsiTag.PSI_2E, table) == -1


def test_table_missing_entry():
    with pytest.raises(MissingTableEntry):
        eps_half(A, B, PsiTag.PSI_2E, TableBackend())


def test_even_multiplicity_is_plus_one_without_lookup():
    recorder = RecordingBackend(TableBackend())  # would raise on any call
    assert eps_half(A, [(B, 2)], PsiTag.PSI_2E, recorder) == +1
    assert recorder.calls == []


def test_unordered_pair_symmetry():
    assert term_key(A, B, ONE, PsiTag.PSI_E) == term_key(B, A, ONE, PsiTag.PSI_E)


def test_hashed_determinism_frozen_values():
    chi = CharE.generator("chi", 1)
    k1 = term_key(A, B, chi.inverse(), PsiTag.PSI_2E)
    k2 = term_key(A, char_atom(chi), ONE, PsiTag.PSI_NEG2E)
    assert (HashedBackend(42).sign(k1), HashedBackend(42).sign(k2)) == (1, 1)
    assert (HashedBackend(7).sign(k1), HashedBackend(7).sign(k2)) == (-1, 1)
    # and across fresh instances
    assert HashedBackend(42).sign(k1) == HashedBackend(42).sign(k1)


def test_biadditivity_random():
    rng = random.Random(3)
    g = make_gctx(3)
    backend = HashedBackend(99)
    atoms = [A, B, C, char_atom(g.chi_W), Summand("D", 1, +1, g.chi ** 2)]
    phi = mk_parameter(
        [(A, 1), (B, 1), (Summand("D", 1, +1, g.chi ** 2), 1)],
        GroupTag(4, SKEW, +1),
    )
    for _ in range(30):
        tag = rng.choice(list(PsiTag))
        left = rng.choice(atoms)
        whole = eps_half(left, phi, tag, backend)
        split = 1
        for s, m in phi.blocks:
            split *= eps_half(left, [(s, m)], tag, backend)
        assert whole == split


def test_twists_fold_into_keys():
    g = make_gctx(3)
    tw = g.chi_V.inverse() * g.chi_W
    # folding the scalar into either atom gives the same key
    k1 = term_key(A.twisted(tw), B, ONE, PsiTag.PSI_E)
    k2 = term_key(A, B.twisted(tw), ONE, PsiTag.PSI_E)
    k3 = term_key(A, B, tw, PsiTag.PSI_E)
    assert k1 == k2 == k3


def test_conj_dual_pair_cancels_against_self_dual_factor():
    # both members of a dual-pair block carry the same canonical key, so
    # their joint contribution squares away
    g = make_gctx(3)
    member = Summand("P", 1, None, g.chi * CharE.norm_power(Fraction(1, 2)))
    partner = member.conj_dual()
    for z in (A, B, char_atom(g.chi_W)):
        k_m = term_key(member, z, g.chi.inverse(), PsiTag.PSI_2E)
        k_p = term_key(partner, z, g.chi.inverse(), PsiTag.PSI_2E)
        assert k_m == k_p
    phi = mk_parameter([A, B], GroupTag.standard(3, SKEW))
    backend = HashedBackend(5)
    pair_sum = [(member, 1), (partner, 1)]
    assert eps_half(pair_sum, phi, PsiTag.PSI_2E, backend) == +1


def test_dual_with_tag_flip_identification():
    # the dualized factor under psi2E carries the same key as the plain
    # factor under psiE; psiNeg2E is its own partner
    g = make_gctx(4)
    for atom in (Summand("A", 1, -1, g.chi ** -1), Summand("B", 2, -1)):
        k_dual = term_key(atom.dual(), char_atom(g.chi_V), ONE, PsiTag.PSI_2E)
        k_plain = term_key(atom, char_atom(g.chi_V.inverse()), ONE, PsiTag.PSI_E)
        assert k_dual == k_plain
    # psiNeg2E keys take no contragredient identification at all
    k_neg = term_key(A, B, g.chi, PsiTag.PSI_NEG2E)
    k_neg_dual = term_key(A.dual(), B.dual(), g.chi.inverse(), PsiTag.PSI_NEG2E)
    assert k_neg != k_neg_dual
    # and no relation ties psi2E to psiNeg2E
    assert term_key(A, B, g.chi, PsiTag.PSI_2E) != term_key(
        A, B, g.chi, PsiTag.PSI_NEG2E
    )


def test_recording_backend_audit():
    recorder = RecordingBackend(ConstantOne())
    eps_half(A, B, PsiTag.PSI_E, recorder)
    assert len(recorder.calls) == 1
    key, sign, count = recorder.calls[0]
    assert sign == +1 and count == 1
    assert key == term_key(A, B, ONE, PsiTag.PSI_E)


# -- the oracle key before the one-pass rewrite, kept as the reference ---------

_REF_TAG_FLIP = {PsiTag.PSI_E: PsiTag.PSI_2E, PsiTag.PSI_2E: PsiTag.PSI_E}


def _ref_base_entry(s):
    marker = 0 if s.base_duality is None else s.base_duality
    return (s.base, s.dim, marker)


def _ref_flip_entry(entry):
    label, dim, marker = entry
    if marker == 0:
        return (partner_label(label), dim, marker)
    return entry


def _ref_assemble(bases, exps, slope, tag):
    items = tuple(
        sorted((name, grade, e) for (name, grade), e in exps.items() if e != 0)
    )
    return (
        tuple(sorted(bases)),
        items,
        (slope.numerator, slope.denominator),
        tag.value,
    )


def reference_term_key(a, b, extra, tag):
    exps = {}
    for tw in (a.twist, b.twist, extra):
        for gk, e in tw.exps:
            exps[gk] = exps.get(gk, 0) + e
    slope = a.twist.slope + b.twist.slope + extra.slope
    bases = [_ref_base_entry(a), _ref_base_entry(b)]

    def conj(key):
        bs, items, (num, den), t = key
        return _ref_assemble(
            [_ref_flip_entry(e) for e in bs],
            {(n, g): v for n, g, v in items},
            Fraction(-num, den),
            PsiTag(t),
        )

    def dualflip(key):
        bs, items, (num, den), t = key
        return _ref_assemble(
            [_ref_flip_entry(e) for e in bs],
            {(n, g): -v for n, g, v in items},
            Fraction(-num, den),
            _REF_TAG_FLIP[PsiTag(t)],
        )

    raw = _ref_assemble(bases, exps, slope, tag)
    orbit = [raw, conj(raw)]
    if tag in _REF_TAG_FLIP:
        flipped = dualflip(raw)
        orbit += [flipped, conj(flipped)]
    return min(orbit)


_GENERATORS = (("chi", 1), ("chi_V", 0), ("chi_W", 1), ("psi", 0))


def _random_char(rng):
    exps = tuple((gk, rng.randint(-2, 2)) for gk in _GENERATORS
                 if rng.random() < 0.4)
    return CharE(exps, Fraction(rng.randint(-3, 3), 2))


def _random_atom(rng):
    if rng.random() < 0.25:
        return char_atom(_random_char(rng))
    label = rng.choice(("A", "A~", "B", "B~", "C"))
    duality = rng.choice((None, None, +1, -1))
    return Summand(label, rng.randint(1, 2), duality, _random_char(rng))


def test_term_key_equals_reference_on_random_atoms():
    rng = random.Random(20171)
    seen = set()
    for _ in range(6000):
        a, b = _random_atom(rng), _random_atom(rng)
        extra = _random_char(rng) if rng.random() < 0.6 else ONE
        tag = rng.choice(list(PsiTag))
        assert term_key(a, b, extra, tag) == reference_term_key(a, b, extra,
                                                                tag)
        slope = a.twist.slope + b.twist.slope + extra.slope
        seen.update({("tag", tag), ("label", a.base), ("duality", a.base_duality),
                     ("char", a.is_char_atom), ("extra", extra.exps != ()),
                     ("slope", (slope > 0) - (slope < 0)),
                     ("half", slope.denominator)})
    # the draw reaches every case the canonical form distinguishes
    assert {("tag", t) for t in PsiTag} <= seen
    assert {("label", lbl) for lbl in ("A", "A~", "B", "B~", "C")} <= seen
    assert {("duality", d) for d in (None, +1, -1)} <= seen
    assert {("char", True), ("extra", True), ("half", 2),
            ("slope", -1), ("slope", 0), ("slope", +1)} <= seen


# -- key tables: one key rule, built once per row and column ------------------


def _random_operand(rng, seen):
    kind = rng.choice(("param", "param", "summand", "char", "list"))
    seen.add(("operand", kind))
    if kind == "summand":
        return _random_atom(rng)
    if kind == "char":
        return _random_char(rng)
    blocks = [(_random_atom(rng), rng.randint(1, 3))
              for _ in range(rng.randint(1, 4))]
    if kind == "list":
        return blocks
    pairs = [_random_atom(rng) for _ in range(rng.randint(0, 2))]
    n = sum(s.dim * m for s, m in blocks) + sum(2 * p.dim for p in pairs)
    # drawn atoms mix duality signs; key tables read only blocks and pairs
    phi = LParameter(tuple(blocks), tuple((p, p.conj_dual()) for p in pairs),
                     GroupTag(n, SKEW, +1))
    seen.update(("multiplicity", m) for _, m in phi.blocks)
    seen.add(("pairs", bool(phi.pairs)))
    return phi


def _odd_atoms(operand):
    if isinstance(operand, LParameter):
        terms = list(operand.blocks)
        terms += [(member, 1) for p in operand.pairs for member in p]
    elif isinstance(operand, Summand):
        terms = [(operand, 1)]
    elif isinstance(operand, CharE):
        terms = [(char_atom(operand), 1)]
    else:
        terms = operand
    return [s for s, m in terms if m % 2 == 1]


def test_key_table_equals_term_keys_on_random_operands():
    rng = random.Random(5171)
    seen = set()
    for _ in range(400):
        left, right = _random_operand(rng, seen), _random_operand(rng, seen)
        twist = _random_char(rng) if rng.random() < 0.5 else None
        tag = rng.choice(list(PsiTag))
        extra = twist if twist is not None else ONE
        rows, cols = _odd_atoms(left), _odd_atoms(right)
        table = key_table(left, right, tag, twist)
        assert table == [[term_key(a, b, extra, tag) for b in cols]
                         for a in rows]
        assert table == [[reference_term_key(a, b, extra, tag) for b in cols]
                         for a in rows]
        seen.update({("tag", tag), ("twist", twist is not None and
                                    twist.exps != ())})
    # the draw reaches every operand form, multiplicity and twist case
    assert {("operand", k) for k in ("param", "summand", "char", "list")} \
        <= seen
    assert {("multiplicity", m) for m in (1, 2, 3)} <= seen
    assert {("pairs", True), ("twist", True), ("twist", False)} <= seen
    assert {("tag", t) for t in PsiTag} <= seen


def reference_eps_half(left, right, tag, backend, twist=None):
    """The per-term loop ``eps_half`` ran before key tables."""
    extra = twist if twist is not None else ONE
    sign = +1
    for a in _odd_atoms(left):
        for b in _odd_atoms(right):
            sign *= backend.sign(reference_term_key(a, b, extra, tag))
    return sign


def test_eps_half_equals_per_term_loop():
    rng = random.Random(808)
    seen = set()
    for seed in range(300):
        left, right = _random_operand(rng, seen), _random_operand(rng, seen)
        twist = _random_char(rng) if rng.random() < 0.5 else None
        tag = rng.choice(list(PsiTag))
        got = LoggingBackend(HashedBackend(seed))
        want = LoggingBackend(HashedBackend(seed))
        assert (eps_half(left, right, tag, got, twist=twist)
                == reference_eps_half(left, right, tag, want, twist))
        # the same keys are consulted, in the same order
        assert got.calls == want.calls
        seen.add(len(got.calls) > 1)
    assert seen >= {True, False}


def test_hashed_sign_is_sha256_of_the_key_repr():
    rng = random.Random(4421)
    seen = set()
    for seed in range(60):
        backend = HashedBackend(seed)
        for _ in range(4):
            left = _random_operand(rng, set())
            right = _random_operand(rng, set())
            twist = _random_char(rng) if rng.random() < 0.5 else None
            for row in key_table(left, right, rng.choice(list(PsiTag)), twist):
                for key in row:
                    digest = hashlib.sha256(f"{seed}|{key!r}".encode()).digest()
                    assert backend.sign(key) == (+1 if digest[0] % 2 == 0
                                                 else -1)
                    bases, items, (num, den), tag = key
                    labels = [entry[0] for entry in bases]
                    seen.update({("tag", tag), ("items", min(len(items), 2)),
                                 ("char", "1" in labels),
                                 ("partner", any(lbl.endswith("~")
                                                 for lbl in labels)),
                                 ("half", den, (num > 0) - (num < 0))})
    # the draw reaches every kind of key part the hash text is built from
    assert {("tag", t.value) for t in PsiTag} <= seen
    assert {("items", 0), ("items", 1), ("char", True),
            ("partner", True), ("half", 2, 1), ("half", 2, -1)} <= seen


def test_hash_text_is_the_key_repr_from_both_memos():
    rng = random.Random(6067)
    hits = set()
    for seed in (0, -5, 2**31 - 1):
        backend = HashedBackend(seed)
        hashed = set()
        for _ in range(25):
            left = _random_operand(rng, set())
            right = _random_operand(rng, set())
            twist = _random_char(rng) if rng.random() < 0.5 else None
            for row in key_table(left, right, rng.choice(list(PsiTag)), twist):
                for key in row:
                    if key in hashed:
                        continue
                    hashed.add(key)
                    # a key not hashed before, whose parts earlier keys may
                    # have memoized
                    hits.update({
                        ("bases", all(b in backend._bases for b in key[0])),
                        ("tail", key[1:] in backend._tails),
                    })
                    assert backend._hash_text(key) == f"{seed}|{key!r}"
    # the draw hits and misses both memos
    assert {("bases", True), ("bases", False),
            ("tail", True), ("tail", False)} <= hits


def test_half_slopes_match_slope():
    for twice in range(-5, 6):
        mu = CharE.generator("chi", 1) * CharE.norm_power(Fraction(twice, 2))
        assert mu.halves == twice and 2 * mu.slope == twice
    # halves is derived data, not a field
    mu = CharE.norm_power(Fraction(1, 2))
    fresh = CharE.norm_power(Fraction(1, 2))
    assert mu.halves == 1
    assert mu == fresh and hash(mu) == hash(fresh) and repr(mu) == repr(fresh)


# -- memoized signs: scope and audit completeness -------------------------------


def _keys(count, prefix="K"):
    g = make_gctx(3)
    return [
        term_key(Summand(f"{prefix}{i}", 1, None), char_atom(g.chi_W),
                 g.chi ** i, PsiTag.PSI_2E)
        for i in range(count)
    ]


def test_hashed_signs_agree_with_fresh_instances():
    keys = _keys(40)
    backend = HashedBackend(17)
    first = [backend.sign(k) for k in keys]
    repeat = [backend.sign(k) for k in reversed(keys)][::-1]
    fresh = [HashedBackend(17).sign(k) for k in keys]
    assert first == repeat == fresh
    assert set(fresh) == {+1, -1}


def test_hashed_backend_keeps_no_per_key_state():
    # m x m labels under one shared twist give m^2 keys built from 2m base
    # entries and one tail: the backend's memos may hold those parts, but
    # nothing per key
    m = 12
    g = make_gctx(3)
    rows = [Summand(f"L{i}", 1, +1) for i in range(m)]
    cols = [Summand(f"R{j}", 1, +1) for j in range(m)]
    backend = HashedBackend(5)
    keys = {term_key(a, b, g.chi, PsiTag.PSI_2E) for a in rows for b in cols}
    signs = {key: backend.sign(key) for key in keys}
    assert len(keys) == m * m and set(signs.values()) == {+1, -1}
    held = sum(len(v) for v in vars(backend).values() if isinstance(v, dict))
    assert held <= 2 * m + 1
    assert signs == {key: backend.sign(key) for key in keys}


def test_table_backend_needs_a_table():
    table = TableBackend()
    assert epsilon_mod.make_backend("table", 0, table=table) is table
    for kind in ("table", "nosuch"):
        with pytest.raises(ValueError):
            epsilon_mod.make_backend(kind, 0)


def test_recording_over_memo_logs_every_consultation():
    inner = LoggingBackend(HashedBackend(3))
    recorder = RecordingBackend(inner)
    log = LoggingBackend(recorder)
    phi = mk_parameter([A, B], GroupTag.standard(3, SKEW))
    first = eps_half(phi, A, PsiTag.PSI_E, log)
    second = eps_half(phi, A, PsiTag.PSI_E, log)
    assert first == second
    assert len(log.calls) == 4
    assert log.calls[:2] == log.calls[2:]
    # the recorder asks its backend once per distinct key and counts the
    # repeats, in first-consultation order
    assert inner.calls == log.calls[:2]
    assert recorder.calls == [(key, sign, 2) for key, sign in inner.calls]


def test_recorder_tables_equal_key_by_key_consultation():
    rng = random.Random(3911)
    seen = set()
    for seed in range(40):
        a, b = [key_table(_random_operand(rng, set()),
                          _random_operand(rng, set()),
                          rng.choice(list(PsiTag)),
                          _random_char(rng) if rng.random() < 0.5 else None)
                for _ in range(2)]
        # an empty table, an empty row, keys repeated within a table and
        # keys repeated across two successive tables
        tables = [a, [], [[], *b], [row + row for row in a], b]
        inner = LoggingBackend(HashedBackend(seed))
        whole = RecordingBackend(inner)
        by_key = RecordingBackend(HashedBackend(seed))
        logged = LoggingBackend(by_key)
        fresh = HashedBackend(seed)
        for table in tables:
            want = tuple(prod(fresh.sign(k) for k in row) for row in table)
            assert row_signs(table, whole) == row_signs(table, logged) == want
        assert whole.calls == by_key.calls
        keys = [k for table in tables for row in table for k in row]
        counts = Counter(keys)
        assert whole.calls == [(k, fresh.sign(k), counts[k])
                               for k in dict.fromkeys(keys)]
        # the inner backend is asked once per distinct key, in order
        assert inner.calls == [(k, s) for k, s, _ in whole.calls]
        drawn = [k for table in (a, b) for row in table for k in row]
        seen.add(("drawn", len(set(drawn)) < len(drawn)))
        seen.add(("repeated", len(counts) < len(keys)))
    # the draws themselves repeat keys, and the tables built on them do
    assert {("drawn", True), ("repeated", True)} <= seen


def test_dropped_backend_and_character_are_collected():
    backend = HashedBackend(5)
    for k in _keys(10):
        backend.sign(k)
    mu = CharE.norm_power(Fraction(-3, 2))
    assert mu.halves == -3
    refs = (weakref.ref(backend), weakref.ref(mu))
    del backend, mu
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def _module_cache_sizes():
    sizes = {}
    for module in (epsilon_mod, chars_mod):
        for name, value in vars(module).items():
            info = getattr(value, "cache_info", None)
            if info is not None:
                sizes[module.__name__, name] = info().currsize
            elif isinstance(value, (dict, list, set)):
                sizes[module.__name__, name] = len(value)
    return sizes


def test_no_module_level_cache_grows_with_fresh_labels():
    before = _module_cache_sizes()
    for round_ in range(3):
        backend = HashedBackend(round_)
        for k in _keys(200, prefix=f"fresh{round_}_"):
            backend.sign(k)
    assert _module_cache_sizes() == before
