"""Theta transfers: parameter shapes, character maps, form bookkeeping."""

import random
from fractions import Fraction

import pytest

from conftest import LoggingBackend, make_gctx, make_phi1

from lpacket.chars import CharE
import lpacket.theta as theta_mod
from lpacket.component import (
    SChar,
    central_element,
    component_group,
    enumerate_characters,
    evaluate,
    packet_side,
)
from lpacket.epsilon import (
    ConstantOne,
    HashedBackend,
    PsiTag,
    TableBackend,
    eps_half,
    term_key,
)
from lpacket.errors import (
    HypothesisViolation,
    NoEmbedding,
    NotSupercuspidalPacket,
    RankMismatch,
)
from lpacket.params import (
    HERMITIAN,
    SKEW,
    GroupTag,
    Summand,
    char_atom,
    mk_parameter,
    multiplicity_of,
)
from lpacket.theta import (
    ThetaContext,
    Up1Lift,
    Up2Lift,
    theta_up1_param,
    theta_up2_eps_prime,
    theta_up2_param,
)


def up1_ctx(g):
    return g.up1_recovery()


def test_up1_shape_generic():
    g = make_gctx(3)
    phi = make_phi1(3, labels=("A", "B"))
    lifted = theta_up1_param(phi, up1_ctx(g))
    assert lifted.dim() == 4
    assert lifted.group == GroupTag.standard(4, HERMITIAN)
    assert lifted.group.is_canonical
    assert lifted.rank == phi.rank + 1
    assert multiplicity_of(lifted, char_atom(g.chi_W)) == 1
    assert lifted.tempered


def test_up1_shape_merged():
    # source containing the chi_V-role atom: the appended block merges
    g = make_gctx(3)
    ctx = up1_ctx(g)
    role = char_atom(ctx.chi_V_role)
    phi = mk_parameter(
        [role, Summand("B", 2, +1)], GroupTag.standard(3, SKEW)
    )
    lifted = theta_up1_param(phi, ctx)
    assert lifted.dim() == 4
    assert lifted.rank == phi.rank
    assert multiplicity_of(lifted, char_atom(g.chi_W)) == 2


def test_up1_requires_skew_source_and_grades():
    g = make_gctx(3)
    ctx = up1_ctx(g)
    hermitian = mk_parameter(
        [Summand("C", 4, -1)], GroupTag.standard(4, HERMITIAN)
    )
    with pytest.raises(HypothesisViolation):
        theta_up1_param(hermitian, ctx)
    wrong_rank = make_phi1(2)
    with pytest.raises(HypothesisViolation):
        theta_up1_param(wrong_rank, ctx)


def test_up1_char_extension_brute_force():
    # generic case: the returned extension is the unique one hitting the
    # requested side, and both requests differ only on the new generator
    g = make_gctx(3)
    ctx = up1_ctx(g)
    phi = make_phi1(3, labels=("A", "B"))
    lift = Up1Lift(phi, ctx)
    lifted = lift.target
    big_group = component_group(lifted)
    new_atom = char_atom(g.chi_W)
    slot = big_group.index_of(new_atom)
    for eta in enumerate_characters(component_group(phi)):
        outs = {}
        for side in (+1, -1):
            out, got = lift.transfer(eta, side)
            assert got == side
            assert evaluate(out, central_element(lifted)) == side
            assert lift.restrict(out) == eta
            outs[side] = out
        diffs = [
            i for i in range(big_group.rank)
            if outs[+1].values[i] != outs[-1].values[i]
        ]
        assert diffs == [slot]


def test_up1_char_merged_ignores_request():
    g = make_gctx(3)
    ctx = up1_ctx(g)
    role = char_atom(ctx.chi_V_role)
    phi = mk_parameter([role, Summand("B", 2, +1)], GroupTag.standard(3, SKEW))
    lift = Up1Lift(phi, ctx)
    lifted = lift.target
    for eta in enumerate_characters(component_group(phi)):
        out_plus, got_plus = lift.transfer(eta, +1)
        out_minus, got_minus = lift.transfer(eta, -1)
        assert out_plus == out_minus and got_plus == got_minus
        assert got_plus == evaluate(out_plus, central_element(lifted))


def test_up1_char_bijection_onto_side():
    g = make_gctx(3)
    ctx = up1_ctx(g)
    phi = make_phi1(3, labels=("A", "B"))
    lift = Up1Lift(phi, ctx)
    lifted = lift.target
    chars = list(enumerate_characters(component_group(phi)))
    for side in (+1, -1):
        images = {lift.transfer(eta, side)[0].values for eta in chars}
        assert len(images) == len(chars)
        target = {
            c.values for c in enumerate_characters(component_group(lifted))
            if evaluate(c, central_element(lifted)) == side
        }
        assert images == target


def test_up2_shape_and_flags():
    g = make_gctx(3)
    phi = make_phi1(3, labels=("A", "B"))
    lifted = theta_up2_param(phi, g.up2_primary())
    assert lifted.dim() == 5
    assert lifted.group == GroupTag.standard(5, HERMITIAN)
    assert lifted.rank == phi.rank
    assert not lifted.tempered
    assert not lifted.discrete
    assert len(lifted.pairs) == 1
    member, partner = lifted.pairs[0]
    assert {member.twist.slope, partner.twist.slope} == {
        Fraction(1, 2), Fraction(-1, 2)
    }
    assert member.twist.exps == g.chi_W.exps


def test_up2_requires_supercuspidal_packet():
    g = make_gctx(3)
    phi = mk_parameter(
        [Summand("A", 3, +1, sl2_trivial=False)], GroupTag.standard(3, SKEW)
    )
    with pytest.raises(NotSupercuspidalPacket):
        theta_up2_param(phi, g.up2_primary())


def test_up2_eps_prime():
    g = make_gctx(3)
    phi = make_phi1(3, labels=("A", "B"))
    ctx = g.up2_primary()
    assert theta_up2_eps_prime(+1, phi, ctx, ConstantOne()) == +1
    assert theta_up2_eps_prime(-1, phi, ctx, ConstantOne()) == -1
    # two blocks, both assigned -1: the product restores the input sign
    chi_v_inv = char_atom(ctx.chi_V_role.inverse())
    table = TableBackend({
        term_key(s, chi_v_inv, CharE.one(), PsiTag.PSI_2E): -1
        for s, _ in phi.blocks
    })
    assert theta_up2_eps_prime(+1, phi, ctx, table) == +1
    # hashed backend: reproducible
    first = theta_up2_eps_prime(+1, phi, ctx, HashedBackend(42))
    assert first == theta_up2_eps_prime(+1, phi, ctx, HashedBackend(42))
    assert first == eps_half(phi, chi_v_inv, PsiTag.PSI_2E, HashedBackend(42))


def test_up2_char_constant_one_is_identity_on_values():
    g = make_gctx(3)
    phi = make_phi1(3, labels=("A", "B"))
    ctx = g.up2_primary()
    lift = Up2Lift(phi, ctx, ConstantOne())
    mu = ctx.lift_twist
    big = component_group(lift.target)
    for eta in enumerate_characters(component_group(phi)):
        out = lift.transfer(eta)
        for s, v in zip(component_group(phi).basis, eta.values):
            assert out.values[big.index_of(s.twisted(mu))] == v


def test_up2_char_multiplier_is_fixed_and_squares_away():
    # the per-generator multiplier does not depend on the character, and
    # applying it twice is the identity
    g = make_gctx(3)
    phi = make_phi1(3, labels=("A", "B"))
    ctx = g.up2_primary()
    lift = Up2Lift(phi, ctx, HashedBackend(17))
    small = component_group(phi)
    big = component_group(lift.target)
    mu = ctx.lift_twist
    multipliers = set()
    for eta in enumerate_characters(small):
        out = lift.transfer(eta)
        factors = tuple(
            out.values[big.index_of(s.twisted(mu))] * eta.values[i]
            for i, s in enumerate(small.basis)
        )
        multipliers.add(factors)
    assert len(multipliers) == 1
    factors = multipliers.pop()
    assert all(f * f == 1 for f in factors)


def test_up2_char_total_multiplier_is_eps_of_whole_parameter():
    g = make_gctx(3)
    phi = make_phi1(3, labels=("A", "B"))
    ctx = g.up2_primary()
    backend = HashedBackend(23)
    lift = Up2Lift(phi, ctx, backend)
    small = component_group(phi)
    big = component_group(lift.target)
    mu = ctx.lift_twist
    eta = next(enumerate_characters(small))
    out = lift.transfer(eta)
    total = 1
    for i, s in enumerate(small.basis):
        total *= out.values[big.index_of(s.twisted(mu))] * eta.values[i]
    whole = eps_half(phi, char_atom(ctx.chi_V_role.inverse()),
                     PsiTag.PSI_2E, backend)
    assert total == whole


def test_up2_char_bijection():
    g = make_gctx(4)
    phi = make_phi1(4, labels=("A", "B", "C"))
    ctx = g.up2_primary()
    lift = Up2Lift(phi, ctx, HashedBackend(3))
    chars = list(enumerate_characters(component_group(phi)))
    images = {lift.transfer(eta).values for eta in chars}
    assert len(images) == len(chars)


def test_up2_side_relation_matches_char_transport():
    # the transported character lands on the form given by the exchange sign
    for n in (1, 2, 3, 4, 5):
        g = make_gctx(n)
        phi = make_phi1(n)
        ctx = g.up2_primary()
        backend = HashedBackend(n * 11 + 1)
        lift = Up2Lift(phi, ctx, backend)
        for eta in enumerate_characters(component_group(phi)):
            src_side = packet_side(eta, phi)
            out = lift.transfer(eta)
            assert packet_side(out, lift.target) == theta_up2_eps_prime(
                src_side, phi, ctx, backend
            )


def test_up1_char_rank_zero_source():
    # no generators below: the new generator takes the requested side directly
    g = make_gctx(2)
    ctx = up1_ctx(g)
    phi = mk_parameter([], GroupTag.standard(2, SKEW),
                       pairs=[Summand("P", 1, None)])
    lift = Up1Lift(phi, ctx)
    assert lift.target.rank == 1
    for side in (+1, -1):
        out, got = lift.transfer(SChar(()), side)
        assert got == side
        assert out.values == (side,)


# -- lifts built once: equivalence with the per-character transfers ------------

# The per-character transfers as they were before the lifts: each call
# rebuilds the lifted parameter and both component groups.


def restrict(eta_big, big, small, image):
    """Pull a character back along an injection of component groups given
    by a summand correspondence (e.g. the twist map of a theta transfer)."""
    if eta_big.rank != big.rank:
        raise RankMismatch("character does not live on the big group")
    values = []
    for s in small.basis:
        target = image(s)
        try:
            idx = big.index_of(target)
        except NoEmbedding:
            raise NoEmbedding(
                f"image {target} of basis summand {s} is absent upstairs"
            )
        values.append(eta_big.values[idx])
    return SChar(tuple(values))


def test_restrict_identity_and_missing_image():
    phi = mk_parameter([Summand("A", 1, +1), Summand("B", 2, +1)],
                       GroupTag.standard(3, SKEW))
    group = component_group(phi)
    eta = SChar((+1, -1))
    assert restrict(eta, group, group, lambda s: s) == eta
    with pytest.raises(NoEmbedding):
        restrict(eta, group, group, lambda s: Summand("Z", 9, +1))


def test_restrict_rank_zero_source():
    # no basis to pull back: the empty character
    phi = mk_parameter([Summand("A", 1, +1), Summand("B", 2, +1)],
                       GroupTag.standard(3, SKEW))
    big = component_group(phi)
    rank0 = mk_parameter(
        [], GroupTag(2, SKEW, +1), pairs=[Summand("P", 1, None)]
    )
    out = restrict(SChar((+1, -1)), big, component_group(rank0), lambda s: s)
    assert out == SChar(())


def ref_theta_up1_char(phi, eta, target_side, ctx):
    if target_side not in (+1, -1):
        raise HypothesisViolation("target side must be +1 or -1")
    group = component_group(phi)
    if eta.rank != group.rank:
        raise RankMismatch("character does not live on the source group")
    theta_phi = theta_up1_param(phi, ctx)
    big_group = component_group(theta_phi)
    mu = ctx.lift_twist
    values = [0] * big_group.rank
    for s, v in zip(group.basis, eta.values):
        values[big_group.index_of(s.twisted(mu))] = v
    if big_group.rank == group.rank:
        out = SChar(tuple(values))
        return out, evaluate(out, central_element(theta_phi))
    slot = big_group.index_of(char_atom(ctx.chi_W_role))
    values[slot] = +1
    partial = evaluate(SChar(tuple(values)), central_element(theta_phi))
    values[slot] = target_side * partial
    return SChar(tuple(values)), target_side


def ref_restrict_up1(eta_big, phi, ctx):
    mu = ctx.lift_twist
    return restrict(
        eta_big,
        component_group(theta_up1_param(phi, ctx)),
        component_group(phi),
        lambda s: s.twisted(mu),
    )


def ref_theta_up2_char(eta, phi, ctx, backend):
    group = component_group(phi)
    if eta.rank != group.rank:
        raise RankMismatch("character does not live on the source group")
    theta_phi = theta_up2_param(phi, ctx)
    big_group = component_group(theta_phi)
    mu = ctx.lift_twist
    chi_v_inv = char_atom(ctx.chi_V_role.inverse())
    values = [0] * big_group.rank
    for s, v in zip(group.basis, eta.values):
        factor = eps_half(s, chi_v_inv, PsiTag.PSI_2E, backend)
        values[big_group.index_of(s.twisted(mu))] = v * factor
    return SChar(tuple(values))


def _random_twist(rng, g):
    mu = CharE.one()
    for gen in (g.chi, g.chi_V, g.chi_W):
        e = rng.choice((-1, 0, 0, 1))
        if e:
            mu = mu * gen ** e
    return mu


def _random_skew(rng, n, g, ctx, merge, pair, supercuspidal):
    """A rank-n skew parameter with random twists; ``merge`` puts in the
    chi_V-role atom of ``ctx``, ``pair`` a dual pair, and blocks of
    multiplicity two appear unless the packet must be supercuspidal.  Up to
    two more character atoms, whose order the lift twist may change."""
    req = +1 if n % 2 == 1 else -1
    blocks, pairs = [], []
    remaining = n
    if merge:
        blocks.append((char_atom(ctx.chi_V_role), 1))
        remaining -= 1
    atoms = {char_atom(ctx.chi_V_role)}
    for _ in range(rng.randint(0, min(2, remaining))):
        atom = char_atom(_random_twist(rng, g))
        if atom.duality == req and atom not in atoms:
            atoms.add(atom)
            blocks.append((atom, 1))
            remaining -= 1
    if pair and remaining >= 2:
        pairs.append(Summand("P", 1, None, _random_twist(rng, g)))
        remaining -= 2
    label = 0
    while remaining:
        d = rng.randint(1, min(2, remaining))
        m = 1 if supercuspidal or 2 * d > remaining else rng.choice((1, 1, 2))
        tw = _random_twist(rng, g)
        blocks.append((Summand(f"X{label}", d, req * (-1 if tw.grade else +1),
                               tw), m))
        label += 1
        remaining -= d * m
    return mk_parameter(blocks, GroupTag.standard(n, SKEW), pairs=pairs,
                        supercuspidal_packet=supercuspidal)


def test_up1_lift_equals_per_character_reference():
    rng = random.Random("up1-lift")
    seen = set()
    for _ in range(60):
        n = rng.randint(2, 7)
        g = make_gctx(n, omega=rng.choice((+1, -1)))
        up1 = g.up1_recovery()
        ctx = rng.choice((up1, up1.dual()))
        merge = rng.random() < 0.4
        pair = rng.random() < 0.3
        if n == 2 and rng.random() < 0.3:
            merge, pair = False, True  # rank 0: the dual pair alone
        phi = _random_skew(rng, n, g, ctx, merge, pair, supercuspidal=False)
        lift = Up1Lift(phi, ctx)
        assert lift.target == theta_up1_param(phi, ctx)
        seen.add("merged" if lift.slot is None else "generic")
        seen.add("odd" if n % 2 else "even")
        if phi.rank == 0:
            seen.add("rank-0")
        for eta in enumerate_characters(component_group(phi)):
            for side in (+1, -1):
                out = lift.transfer(eta, side)
                assert out == ref_theta_up1_char(phi, eta, side, ctx)
                seen.add(("side", side, out[1]))
        for big in enumerate_characters(component_group(lift.target)):
            back = lift.restrict(big)
            assert back == ref_restrict_up1(big, phi, ctx)
    assert seen >= {"merged", "generic", "odd", "even", "rank-0",
                    ("side", +1, +1), ("side", -1, -1), ("side", -1, +1)}


def two_step_up1_transfer(lift, eta, target_side):
    # the rule before the odd-index mask: evaluate the target's central
    # element on the placed values, with the slot at +1 when it exists
    central = central_element(lift.target)
    values = [0] * lift.target.rank
    for p, v in zip(lift.positions, eta.values):
        values[p] = v
    if lift.slot is None:
        out = SChar(tuple(values))
        return out, evaluate(out, central)
    values[lift.slot] = +1
    partial = evaluate(SChar(tuple(values)), central)
    values[lift.slot] = target_side * partial
    return SChar(tuple(values)), target_side


def test_up1_transfer_equals_two_step_rule():
    rng = random.Random("up1-odd-mask")
    seen = set()
    for _ in range(40):
        n = rng.randint(2, 7)
        g = make_gctx(n, omega=rng.choice((+1, -1)))
        up1 = g.up1_recovery()
        ctx = rng.choice((up1, up1.dual()))
        phi = _random_skew(rng, n, g, ctx, merge=rng.random() < 0.5,
                           pair=rng.random() < 0.3, supercuspidal=False)
        lift = Up1Lift(phi, ctx)
        seen.add("merged" if lift.slot is None else "generic")
        if lift.odd and len(lift.odd) < phi.rank:
            seen.add("odd and even images")
        for eta in enumerate_characters(component_group(phi)):
            for side in (+1, -1):
                assert lift.transfer(eta, side) == two_step_up1_transfer(
                    lift, eta, side)
    assert seen == {"merged", "generic", "odd and even images"}


def test_up2_lift_equals_per_character_reference():
    rng = random.Random("up2-lift")
    seen = set()
    for k in range(50):
        n = rng.randint(1, 7)
        g = make_gctx(n, omega=rng.choice((+1, -1)))
        up2 = g.up2_primary()
        ctx = rng.choice((up2, up2.dual()))
        phi = _random_skew(rng, n, g, ctx, False, False, supercuspidal=True)
        backend = rng.choice((ConstantOne(), HashedBackend(k)))
        lift = Up2Lift(phi, ctx, backend)
        assert lift.target == theta_up2_param(phi, ctx)
        seen.add(type(backend).__name__)
        seen.add("odd" if n % 2 else "even")
        seen.update(lift.factors)
        for eta in enumerate_characters(component_group(phi)):
            out = lift.transfer(eta)
            assert out == ref_theta_up2_char(eta, phi, ctx, backend)
    assert seen >= {"ConstantOne", "HashedBackend", "odd", "even", +1, -1}


def test_lift_errors_keep_their_types():
    g = make_gctx(3)
    up1, up2 = g.up1_recovery(), g.up2_primary()
    phi = make_phi1(3, labels=("A", "B"))
    wrong = SChar((+1,))
    lift1 = Up1Lift(phi, up1)
    with pytest.raises(RankMismatch):
        lift1.transfer(wrong, +1)
    with pytest.raises(RankMismatch):
        lift1.restrict(wrong)
    with pytest.raises(HypothesisViolation):
        lift1.transfer(SChar((+1, +1)), 0)
    with pytest.raises(RankMismatch):
        Up2Lift(phi, up2, ConstantOne()).transfer(wrong)

    hermitian = mk_parameter([Summand("C", 4, -1)],
                             GroupTag.standard(4, HERMITIAN))
    off_sign = mk_parameter([Summand("C", 3, -1)], GroupTag(3, SKEW, -1))
    for source in (hermitian, off_sign):
        with pytest.raises(HypothesisViolation):
            Up1Lift(source, up1)
        with pytest.raises(HypothesisViolation):
            Up2Lift(source, up2, ConstantOne())
    not_sc = mk_parameter(
        [Summand("A", 3, +1, sl2_trivial=False)], GroupTag.standard(3, SKEW)
    )
    with pytest.raises(NotSupercuspidalPacket):
        Up2Lift(not_sc, up2, ConstantOne())


# -- cost pins: a lift is built once, a transfer costs no rebuild or oracle call


def test_up2_lift_consults_once_per_generator():
    g = make_gctx(5)
    phi = make_phi1(5)
    rec = LoggingBackend(HashedBackend(8))
    lift = Up2Lift(phi, g.up2_primary(), rec)
    assert len(rec.calls) == phi.rank == 5
    for eta in enumerate_characters(component_group(phi)):
        lift.transfer(eta)
    assert len(rec.calls) == 5


def test_up1_lift_transfers_without_rebuilding(monkeypatch):
    calls = []
    original = theta_mod.mk_parameter

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(theta_mod, "mk_parameter", counting)
    g = make_gctx(5)
    phi = make_phi1(5)
    lift = Up1Lift(phi, g.up1_recovery())
    assert len(calls) == 1
    calls.clear()
    for eta in enumerate_characters(component_group(phi)):
        for side in (+1, -1):
            out, _ = lift.transfer(eta, side)
            lift.restrict(out)
    assert calls == []


# -- memos: a transferred parameter is built once per (source, context)


def test_transferred_parameters_are_kept_on_their_source():
    g = make_gctx(4)
    phi = make_phi1(4)
    twin = make_phi1(4)
    assert twin == phi and twin is not phi
    for transfer, contexts in (
        (theta_up1_param, (g.up1_recovery(), g.up1_recovery().dual())),
        (theta_up2_param, (g.up2_primary(), g.up2_primary().dual())),
    ):
        first, second = contexts
        assert first != second
        lifted = transfer(phi, first)
        # an equal context built apart reads the same entry
        assert transfer(phi, ThetaContext(first.chi_W_role, first.chi_V_role,
                                          first.delta)) is lifted
        # two contexts, two entries
        other = transfer(phi, second)
        assert other != lifted and transfer(phi, second) is other
        # an equal source built apart builds its own result
        assert transfer(twin, first) == lifted
        assert transfer(twin, first) is not lifted
    # the memo is no field: equality, hash and repr see only the fields
    assert hash(phi) == hash(twin) and repr(phi) == repr(twin)


def test_transferred_atoms_keep_their_source_flags():
    g = make_gctx(3)
    ctx = up1_ctx(g)
    plain = mk_parameter([Summand("A", 1, +1), Summand("B", 2, +1)],
                         GroupTag.standard(3, SKEW))
    odd = mk_parameter([Summand("A", 1, +1),
                        Summand("B", 2, +1, tempered=False, sl2_trivial=False)],
                       GroupTag.standard(3, SKEW))
    assert plain == odd
    for phi, flag in ((plain, True), (odd, False), (plain, True)):
        b = next(s for s, _ in theta_up1_param(phi, ctx).blocks
                 if s.base == "B")
        assert (b.tempered, b.sl2_trivial) == (flag, flag)


def test_failed_transfers_store_nothing():
    g = make_gctx(3)
    hermitian = mk_parameter([Summand("C", 4, -1)],
                             GroupTag.standard(4, HERMITIAN))
    not_sc = mk_parameter([Summand("A", 3, +1, sl2_trivial=False)],
                          GroupTag.standard(3, SKEW))
    cases = (
        (theta_up1_param, hermitian, up1_ctx(g), HypothesisViolation),
        (theta_up2_param, hermitian, g.up2_primary(), HypothesisViolation),
        (theta_up2_param, not_sc, g.up2_primary(), NotSupercuspidalPacket),
    )
    for transfer, phi, ctx, error in cases:
        before = dict(vars(phi))
        for _ in range(2):
            with pytest.raises(error):
                transfer(phi, ctx)
        assert vars(phi) == before


def test_dual_context_is_an_involution_and_the_even_rank_context():
    for n in (1, 2, 3, 4):
        g = make_gctx(n)
        for ctx in (g.up1_recovery(), g.up2_primary()):
            assert ctx.dual() != ctx
            assert ctx.dual().dual() == ctx
            assert ctx.dual().lift_twist == ctx.lift_twist.inverse()
    # the contexts the even-rank see-saw lifts through, spelled out
    g = make_gctx(4)
    assert g.up1_recovery().dual() == ThetaContext(
        g.chi_W.inverse(), g.chi_V.inverse() * g.chi, 1)
    assert g.up2_primary().dual() == ThetaContext(
        g.chi_W.inverse(), g.chi_V.inverse(), 2)


def test_lift_twist_is_computed_once_and_no_field():
    g = make_gctx(3)
    ctx = g.up2_primary()
    fresh = g.up2_primary()
    twist = ctx.lift_twist
    assert twist == g.chi_V.inverse() * g.chi_W
    assert ctx.lift_twist is twist
    # the cached value takes no part in equality or hashing
    assert ctx == fresh and hash(ctx) == hash(fresh)
    assert ctx != ctx.dual()


def test_transfers_read_the_mask_and_factors_when_called():
    # the up1-odd-mask and up2-lift-factor mutations reassign ``odd`` and
    # ``factors`` after construction: a transfer must follow them
    rng = random.Random("lift-attributes")
    seen = set()
    for k in range(80):
        n = rng.randint(1, 6)
        g = make_gctx(n, omega=rng.choice((+1, -1)))
        if n >= 2:
            up1 = g.up1_recovery()
            ctx = rng.choice((up1, up1.dual()))
            phi = _random_skew(rng, n, g, ctx, merge=rng.random() < 0.5,
                               pair=rng.random() < 0.5, supercuspidal=False)
            lift = Up1Lift(phi, ctx)
            lift.odd = tuple(i for i in range(phi.rank) if rng.random() < 0.5)
            seen.add(("up1", phi.rank if phi.rank < 2 else "r",
                      "merged" if lift.slot is None else "generic"))
            for eta in enumerate_characters(component_group(phi)):
                side = 1
                for i in lift.odd:
                    side *= eta.values[i]
                for request in (+1, -1):
                    out, got = lift.transfer(eta, request)
                    assert [out.values[p] for p in lift.positions] == list(
                        eta.values)
                    if lift.slot is None:
                        assert got == side
                    else:
                        assert got == request
                        assert out.values[lift.slot] == request * side
        up2 = g.up2_primary()
        ctx = rng.choice((up2, up2.dual()))
        phi = _random_skew(rng, n, g, ctx, False, False, supercuspidal=True)
        lift = Up2Lift(phi, ctx, HashedBackend(k))
        lift.factors = tuple(rng.choice((+1, -1)) for _ in lift.positions)
        seen.add(("up2", phi.rank if phi.rank < 2 else "r"))
        for eta in enumerate_characters(component_group(phi)):
            out = lift.transfer(eta)
            for p, f, v in zip(lift.positions, lift.factors, eta.values):
                assert out.values[p] == v * f
    assert seen >= {("up1", 0, "generic"), ("up1", 1, "generic"),
                    ("up1", 1, "merged"), ("up1", "r", "generic"),
                    ("up1", "r", "merged"), ("up2", 1), ("up2", "r")}
