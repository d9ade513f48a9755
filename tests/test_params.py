"""Atoms and parameters: identity, twisting, validation, multiset ops."""

import random
from fractions import Fraction

import pytest

from conftest import make_gctx

from lpacket.chars import CharE, conj_dual_sign
from lpacket.errors import (
    DimensionMismatch,
    FlagContradiction,
    NonUnitarySlope,
    WrongDualitySign,
)
from lpacket.params import (
    HERMITIAN,
    SKEW,
    GroupTag,
    LParameter,
    Summand,
    char_atom,
    contragredient,
    mk_parameter,
    multiplicity_of,
    partner_label,
    tensor_twist,
)

CHI = CharE.generator("chi", 1)


def test_chi_roles_duality_signs():
    # the splitting characters of a rank-n tower: chi_W has the sign of the
    # target-side required sign, and chi_V^-1 chi_W always has sign -1
    for n in (1, 2, 3, 4, 5):
        g = make_gctx(n)
        assert conj_dual_sign(g.chi) == -1
        expected = +1 if n % 2 == 0 else -1
        assert conj_dual_sign(g.chi_W) == expected
        assert conj_dual_sign(g.chi_V.inverse() * g.chi_W) == +1
        assert conj_dual_sign(g.chi_V.inverse() * g.chi * g.chi_W) == -1


def test_summand_identity_ignores_descriptive_flags():
    a = Summand("A", 2, +1, CHI, tempered=True, sl2_trivial=True)
    b = Summand("A", 2, +1, CHI, tempered=False, sl2_trivial=False)
    assert a == b
    assert a != Summand("A", 2, +1, CHI ** 2)
    assert a != Summand("A", 3, +1, CHI)


def test_twist_involution_and_sign_rule():
    a = Summand("A", 2, +1)
    mu = CHI * CharE.norm_power(Fraction(1, 2))
    assert a.twisted(mu).twisted(mu.inverse()) == a
    assert a.twisted(CHI).duality == -1
    assert a.twisted(CHI ** 2).duality == +1


def test_twist_by_slope_kills_duality_and_temperedness():
    half = CharE.norm_power(Fraction(1, 2))
    s = char_atom(CharE.one()).twisted(half)
    assert s.duality is None
    assert not s.is_tempered
    # untwisting restores both (twisting stays an involution)
    back = s.twisted(half.inverse())
    assert back.duality == +1
    assert back.is_tempered


def test_dual_and_conj_dual_involutions():
    mu = CHI * CharE.norm_power(Fraction(-1, 2))
    signede = Summand("A", 2, -1, mu)
    none_atom = Summand("P", 1, None, mu)
    for s in (signede, none_atom):
        # the dual is memoized forward only: its dual is a new atom
        assert s.dual().dual() == s and s.dual().dual() is not s
        assert s.conj_dual().conj_dual() == s
    assert signede.dual().base == "A"
    assert none_atom.dual().base == "P~"
    # conjugate dual keeps the unitary twist and flips only the slope
    assert signede.conj_dual().twist == CHI * CharE.norm_power(Fraction(1, 2))
    # atoms fixed by conj_dual are exactly the conjugate-self-dual ones
    assert signede.twisted(mu.inverse()).conj_dual() == signede.twisted(mu.inverse())
    assert none_atom.conj_dual() != none_atom


def test_memoized_twists_and_duals_keep_their_source_flags():
    mu = CHI * CharE.norm_power(Fraction(1, 2))
    same_mu = CHI * CharE.norm_power(Fraction(1, 2))
    plain = Summand("P", 2, None, CHI)
    odd = Summand("P", 2, None, CHI, tempered=False, sl2_trivial=False)
    for s in (plain, odd):
        flags = (s.tempered, s.sl2_trivial)
        twisted, dual = s.twisted(mu), s.dual()
        # an equal twist built apart reads the same memo entry
        assert same_mu is not mu and s.twisted(same_mu) is twisted
        assert s.dual() is dual
        assert twisted == Summand("P", 2, None, CHI * mu)
        assert dual == Summand("P~", 2, None, CHI.inverse())
        assert (twisted.tempered, twisted.sl2_trivial) == flags
        assert (dual.tempered, dual.sl2_trivial) == flags
    # equal atoms with other flags never share a result
    assert plain.twisted(mu) is not odd.twisted(mu)
    assert plain.dual() is not odd.dual()
    # the memo is no field: equality, hash and repr see only the fields
    assert plain == odd and hash(plain) == hash(odd)
    assert repr(odd) == repr(Summand("P", 2, None, CHI, tempered=False,
                                     sl2_trivial=False))


def test_partner_labels_are_an_involution():
    for label in ("P", "P~", "x_1~"):
        Summand(label, 1, None)
        assert partner_label(partner_label(label)) == label
    for label in ("P~~", "~~", "Q~~~"):
        for duality in (None, +1):
            with pytest.raises(FlagContradiction, match="'~~'"):
                Summand(label, 1, duality)


def test_char_atom_interconversion():
    mu = CHI ** 3
    atom = char_atom(mu)
    assert atom.dim == 1 and atom.is_char_atom
    assert atom.twist == mu
    assert atom.duality == conj_dual_sign(mu)
    assert not Summand("A", 2, +1).is_char_atom


def test_mk_parameter_valid_discrete():
    a = Summand("A", 1, +1)
    b = Summand("B", 2, +1)
    phi = mk_parameter([a, b], GroupTag.standard(3, SKEW))
    assert phi.discrete and phi.tempered
    assert phi.dim() == 3
    assert phi.rank == 2


def test_mk_parameter_dimension_mismatch():
    a = Summand("A", 1, +1)
    b = Summand("B", 2, +1)
    with pytest.raises(DimensionMismatch):
        mk_parameter([(a, 2), (b, 1)], GroupTag.standard(3, SKEW))


def test_mk_parameter_wrong_duality_sign():
    with pytest.raises(WrongDualitySign):
        mk_parameter([Summand("A", 3, -1)], GroupTag.standard(3, SKEW))


def test_mk_parameter_pair_member_must_not_be_same_type():
    ok = mk_parameter(
        [Summand("A", 1, +1)],
        GroupTag.standard(3, SKEW),
        pairs=[Summand("P", 1, None)],
    )
    assert ok.dim() == 3
    with pytest.raises(WrongDualitySign):
        mk_parameter(
            [Summand("A", 1, +1)],
            GroupTag.standard(3, SKEW),
            pairs=[Summand("Q", 1, +1)],
        )


def test_flag_contradictions():
    a = Summand("A", 1, +1)
    with pytest.raises(FlagContradiction):
        mk_parameter([(a, 2), (Summand("B", 1, +1), 1)],
                     GroupTag.standard(3, SKEW),
                     supercuspidal_packet=True)
    with pytest.raises(FlagContradiction):
        mk_parameter(
            [Summand("A", 3, +1, sl2_trivial=False)],
            GroupTag.standard(3, SKEW),
            supercuspidal_packet=True,
        )
    with pytest.raises(FlagContradiction):
        mk_parameter([a, Summand("B", 2, +1)], GroupTag.standard(3, SKEW),
                     tempered=False)


def test_rank_zero_rejected():
    with pytest.raises(DimensionMismatch):
        GroupTag.standard(0, SKEW)


def test_multiplicity_of():
    a = Summand("A", 1, +1)
    b = Summand("B", 2, +1)
    phi = mk_parameter([a, b], GroupTag.standard(3, SKEW))
    assert multiplicity_of(phi, a) == 1
    assert multiplicity_of(phi, Summand("Z", 2, +1)) == 0
    # multiplicity two, as in the merged transfer situation
    g = make_gctx(3)
    chiw = char_atom(g.chi_W)
    phi2 = mk_parameter(
        [(chiw, 2), (Summand("C", 2, -1), 1)], GroupTag.standard(4, HERMITIAN)
    )
    assert multiplicity_of(phi2, chiw) == 2
    # dual-pair blocks are never matched
    pair_phi = mk_parameter(
        [a], GroupTag.standard(3, SKEW), pairs=[Summand("P", 1, None)]
    )
    assert multiplicity_of(pair_phi, Summand("P", 1, None)) == 0


def test_tensor_twist_involution_and_group_sign():
    g = make_gctx(3)
    a = Summand("A", 1, +1)
    b = Summand("B", 2, +1)
    phi = mk_parameter([a, b], GroupTag.standard(3, SKEW))
    mu = g.chi
    twisted = tensor_twist(phi, mu)
    assert twisted.group.duality_sign == -1
    assert not twisted.group.is_canonical
    assert tensor_twist(twisted, mu.inverse()) == phi


def test_tensor_twist_takes_unitary_twists_only():
    g = make_gctx(3)
    phi = mk_parameter([Summand("A", 1, +1), Summand("B", 2, +1)],
                       GroupTag.standard(3, SKEW), supercuspidal_packet=True)
    with pytest.raises(NonUnitarySlope):
        tensor_twist(phi, CharE.norm_power(Fraction(1, 2)))
    assert tensor_twist(phi, g.chi).supercuspidal_packet


def test_twist_multiplicity_invariant_random():
    rng = random.Random(5)
    g = make_gctx(3)
    gens = [g.chi, g.chi_V, g.chi_W]
    a = Summand("A", 1, -1)
    b = Summand("B", 2, -1)
    phi = mk_parameter([(a, 2), (b, 1)], GroupTag.standard(4, SKEW))
    for _ in range(50):
        mu = CharE.one()
        for gen in gens:
            e = rng.choice((-2, -1, 0, 1, 2))
            mu = mu * (gen ** e)
        twisted = tensor_twist(phi, mu)
        for s, m in phi.blocks:
            assert multiplicity_of(twisted, s.twisted(mu)) == m


def test_contragredient_involution_and_flags():
    g = make_gctx(3)
    phi = mk_parameter(
        [Summand("A", 1, +1, g.chi ** 2), Summand("B", 1, +1)],
        GroupTag(4, SKEW, +1),
        pairs=[Summand("P", 1, None, g.chi)],
        supercuspidal_packet=False,
    )
    dual = contragredient(phi)
    assert contragredient(phi) is dual
    # the memo runs forward only, so the involution is still computed
    assert contragredient(dual) == phi and contragredient(dual) is not phi
    assert dual.group == phi.group
    assert multiplicity_of(dual, Summand("A", 1, +1, g.chi ** -2)) == 1


def test_normal_form_determinism():
    rng = random.Random(11)
    blocks = [
        (Summand("A", 1, +1), 2),
        (Summand("B", 1, +1, CHI ** 2), 1),
        (char_atom(CharE.one()), 1),
    ]
    group = GroupTag(4, SKEW, +1)  # non-canonical intermediate, sign matches atoms
    reference = mk_parameter(blocks, group)
    for _ in range(10):
        shuffled = list(blocks)
        rng.shuffle(shuffled)
        assert mk_parameter(shuffled, group) == reference
