"""Component groups: bases, central elements, characters."""

import random

import pytest

from conftest import make_gctx

from lpacket.chars import BaseFieldData
from lpacket.component import (
    GroupElement,
    SChar,
    central_element,
    component_group,
    contragredient_char,
    enumerate_characters,
    evaluate,
    nu_twist,
    packet_side,
)
from lpacket.errors import RankMismatch
from lpacket.params import (
    SKEW,
    GroupTag,
    Summand,
    char_atom,
    contragredient,
    mk_parameter,
)

A = Summand("A", 1, +1)
B = Summand("B", 2, +1)


def test_rank_counts_distinct_summands():
    phi = mk_parameter([A, B], GroupTag.standard(3, SKEW))
    assert component_group(phi).rank == 2
    phi2 = mk_parameter([(A, 2)], GroupTag(2, SKEW, +1))
    assert component_group(phi2).rank == 1


def test_dual_pair_blocks_contribute_no_basis():
    phi = mk_parameter(
        [A], GroupTag.standard(3, SKEW), pairs=[Summand("P", 1, None)]
    )
    assert component_group(phi).rank == 1


def test_basis_matches_canonical_block_order():
    phi = mk_parameter([B, A], GroupTag.standard(3, SKEW))
    group = component_group(phi)
    assert group.basis == phi.same_type_atoms()
    assert group.index_of(A) == 0 and group.index_of(B) == 1


def test_central_element_examples():
    phi = mk_parameter([(A, 2), (B, 1)], GroupTag(4, SKEW, +1))
    assert central_element(phi).bits == (0, 1)
    phi = mk_parameter([A, B], GroupTag.standard(3, SKEW))
    assert central_element(phi).bits == (1, 1)
    phi = mk_parameter([(A, 2)], GroupTag(2, SKEW, +1))
    assert central_element(phi).bits == (0,)
    assert central_element(phi).is_identity


def test_enumeration_count_and_distinctness():
    phi = mk_parameter([A, B], GroupTag.standard(3, SKEW))
    chars = list(enumerate_characters(component_group(phi)))
    assert len(chars) == 4
    assert len({c.values for c in chars}) == 4


def _reference_characters(r):
    # the binary-counting loop of the list-building enumeration
    out = []
    for k in range(2 ** r):
        out.append(SChar(tuple(-1 if (k >> j) & 1 else +1 for j in range(r))))
    return out


def test_enumeration_is_lazy_in_binary_counting_order():
    for r in range(9):
        if r:
            blocks = [Summand(f"L{i}", 1, +1) for i in range(r)]
            phi = mk_parameter(blocks, GroupTag(r, SKEW, +1))
        else:
            phi = mk_parameter([], GroupTag(2, SKEW, +1),
                               pairs=[Summand("P", 1, None)])
        chars = enumerate_characters(component_group(phi))
        assert iter(chars) is chars
        assert list(chars) == _reference_characters(r)
    assert _reference_characters(0) == [SChar(())]


@pytest.mark.parametrize("bad", [0, 2, None, "+1", 1.5])
def test_character_values_must_be_signs(bad):
    with pytest.raises(RankMismatch):
        SChar((+1, bad))
    # membership is by ==, as a tuple test would have it
    assert SChar((True, -1.0)).values == (1, -1)


def test_side_split_brute_force():
    # z != 0: exactly half the characters on each side; z = 0: all on +1
    for mults, bits in (((1, 1), (1, 1)), ((2, 1), (0, 1)), ((2, 2), (0, 0))):
        total = mults[0] * 1 + mults[1] * 2
        phi = mk_parameter([(A, mults[0]), (B, mults[1])],
                           GroupTag(total, SKEW, +1))
        z = central_element(phi)
        assert z.bits == bits
        chars = list(enumerate_characters(component_group(phi)))
        plus = [c for c in chars if evaluate(c, z) == +1]
        if z.is_identity:
            assert len(plus) == len(chars)
        else:
            assert len(plus) == len(chars) // 2


def test_evaluate_is_bilinear():
    phi = mk_parameter([A, B, Summand("C", 1, +1)], GroupTag(4, SKEW, +1))
    group = component_group(phi)
    chars = list(enumerate_characters(group))
    x = GroupElement((1, 0, 1))
    for c1 in chars:
        for c2 in chars:
            prod = SChar(tuple(a * b for a, b in zip(c1.values, c2.values)))
            assert evaluate(prod, x) == evaluate(c1, x) * evaluate(c2, x)


def test_evaluate_equals_the_product_over_set_bits():
    rng = random.Random("evaluate")
    for r in (0, 0, 1, 2, 3, 5, 8, 8):
        eta = SChar(tuple(rng.choice((+1, -1)) for _ in range(r)))
        x = GroupElement(tuple(rng.randint(0, 1) for _ in range(r)))
        sign = 1
        for v, b in zip(eta.values, x.bits):
            if b:
                sign *= v
        assert evaluate(eta, x) == sign
        with pytest.raises(RankMismatch):
            evaluate(eta, GroupElement(x.bits + (1,)))


def test_rank_mismatch():
    with pytest.raises(RankMismatch):
        evaluate(SChar((1, 1)), GroupElement((1,)))
    phi = mk_parameter([A, B], GroupTag.standard(3, SKEW))
    with pytest.raises(RankMismatch):
        nu_twist(SChar((1,)), phi, BaseFieldData(-1))


def test_packet_side_rule():
    phi = mk_parameter([A, B], GroupTag.standard(3, SKEW))
    for eta in enumerate_characters(component_group(phi)):
        assert packet_side(eta, phi) == evaluate(eta, central_element(phi))


def test_nu_twist_odd_dimension_unchanged():
    phi = mk_parameter([A, B], GroupTag.standard(3, SKEW))
    eta = SChar((+1, -1))
    assert nu_twist(eta, phi, BaseFieldData(-1)) == eta


def test_nu_twist_trivial_when_omega_plus_one():
    phi = mk_parameter([(A, 2), (B, 1)], GroupTag(4, SKEW, +1))
    eta = SChar((+1, -1))
    assert nu_twist(eta, phi, BaseFieldData(+1)) == eta


def test_nu_twist_even_dimension_values():
    # dims (1,1), total dimension even, omega(-1) = -1: both values flip
    phi = mk_parameter(
        [Summand("A", 1, -1), Summand("B", 1, -1)], GroupTag.standard(2, SKEW)
    )
    eta = SChar((+1, -1))
    out = nu_twist(eta, phi, BaseFieldData(-1))
    assert out == SChar((-1, +1))
    # and on a dim-2 block the correction is (-1)^2 = +1
    phi2 = mk_parameter(
        [Summand("A", 2, -1), Summand("B", 1, -1), Summand("C", 1, -1)],
        GroupTag.standard(4, SKEW),
    )
    eta2 = SChar((+1, +1, -1))
    assert nu_twist(eta2, phi2, BaseFieldData(-1)) == SChar((+1, -1, +1))


def test_nu_twist_is_involution():
    phi = mk_parameter(
        [Summand("A", 1, -1), Summand("B", 1, -1)], GroupTag.standard(2, SKEW)
    )
    base = BaseFieldData(-1)
    for eta in enumerate_characters(component_group(phi)):
        assert nu_twist(nu_twist(eta, phi, base), phi, base) == eta


def test_contragredient_char_round_trip():
    g = make_gctx(2)
    phi = mk_parameter(
        [Summand("A", 1, -1, g.chi ** 2), Summand("B", 1, -1)],
        GroupTag.standard(2, SKEW),
    )
    base = BaseFieldData(-1)
    for eta in enumerate_characters(component_group(phi)):
        back = contragredient_char(
            contragredient_char(eta, phi, base), contragredient(phi), base
        )
        assert back == eta
        # dualizing never moves a member across pure inner forms
        assert packet_side(eta, phi) == packet_side(
            contragredient_char(eta, phi, base), contragredient(phi)
        )
