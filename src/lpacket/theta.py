"""Theta transfers between skew-Hermitian and Hermitian towers.

Two transfers act on parameters of a rank-n skew-Hermitian group, both
driven by a context carrying the pair of splitting characters in force:

* codimension 1 (``theta_up1``): twist every block by
  chi_V_role^(-1) * chi_W_role and append the chi_W_role character atom.
  When the source does not contain the chi_V_role atom the component
  group grows by one generator and a transferred character is extended
  to it by whichever sign lands the member on the requested pure inner
  form; when it does contain it, the appended atom merges with that
  block's image, the component groups are identified, and the surviving
  form is forced by the packet-side rule rather than chosen.

* codimension 2 (``theta_up2``): twist every block the same way and
  append the dual pair chi_W_role * |.|^(+-1/2).  The component group is
  unchanged; a transferred character picks up, on each generator, the
  central root number of that block against chi_V_role^(-1) under the
  psi2E variant, and the source/target pure inner forms are related by
  the same sign evaluated on the whole parameter.

Both transfers build their outputs through the standard validating
constructor, so the sign calculus has to come out right on its own.
Each builds its output once per (phi, ctx): the transferred parameter is
kept on ``phi`` itself (``params.memo_on_source``), keyed by the context.

``Up1Lift`` and ``Up2Lift`` are built once per caller and (phi, ctx),
and never kept on phi (``Up2Lift`` reads the backend): they hold the
lifted parameter, the upstairs index of each source generator and
whatever else does not depend on the character (the appended slot and
the odd-index mask; the per-generator root numbers).  Each also builds
one gather (an ``itemgetter``) from the upstairs indices, so
transferring one character is a single gather (and, for its side or
factors, a product over the mask or the factors, read when called) with
no parameter rebuilt and no oracle call; a caller that walks a packet
builds one lift for the whole table.  The lifts are the only way a
character is transferred or restricted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import prod
from operator import itemgetter, mul
from typing import Callable, Sequence, Tuple

from .chars import CharE
from .component import SChar, central_element, component_group
from .epsilon import Backend, PsiTag, eps_half, key_table, row_signs
from .errors import HypothesisViolation, NotSupercuspidalPacket, RankMismatch
from .params import (
    HERMITIAN,
    SKEW,
    GroupTag,
    LParameter,
    char_atom,
    memo_on_source,
    mk_parameter,
)


@dataclass(frozen=True)
class ThetaContext:
    """Splitting-character roles for one leg of a transfer tower."""

    chi_W_role: CharE
    chi_V_role: CharE
    delta: int  # target rank grows by 1 or 2

    def __post_init__(self):
        if self.delta not in (1, 2):
            raise HypothesisViolation("transfer context delta must be 1 or 2")

    @cached_property
    def lift_twist(self) -> CharE:
        """chi_V_role^(-1) chi_W_role, computed once per context; the
        cached value is no field, so equality and hash ignore it."""
        return self.chi_V_role.inverse() * self.chi_W_role

    def dual(self) -> "ThetaContext":
        """Both roles inverted, ``delta`` kept: an involution on contexts."""
        return ThetaContext(self.chi_W_role.inverse(),
                            self.chi_V_role.inverse(), self.delta)

    def check_grades(self, n: int) -> None:
        if self.chi_W_role.grade != n % 2:
            raise HypothesisViolation(
                f"chi_W role has grade {self.chi_W_role.grade}, "
                f"rank {n} needs {n % 2}"
            )
        if self.chi_V_role.grade != (n + self.delta) % 2:
            raise HypothesisViolation(
                f"chi_V role has grade {self.chi_V_role.grade}, "
                f"target rank {n + self.delta} needs {(n + self.delta) % 2}"
            )


def _require_skew_source(phi: LParameter, ctx: ThetaContext) -> None:
    if phi.group.form != SKEW:
        raise HypothesisViolation("theta transfer source must be skew-Hermitian")
    if not phi.group.is_canonical:
        raise HypothesisViolation("theta transfer source must carry the standard sign")
    ctx.check_grades(phi.group.n)


def _gather(indices: Sequence[int]) -> Callable[[Sequence], Tuple]:
    """The map taking a sequence to the tuple of its items at ``indices``:
    one ``itemgetter``, whose one- and zero-index cases also give tuples
    (rank-0 and rank-1 sources reach both)."""
    if len(indices) > 1:
        return itemgetter(*indices)
    if indices:
        (i,) = indices
        return lambda seq: (seq[i],)
    return lambda seq: ()


def _placing(positions: Tuple[int, ...], rank: int):
    """The gather that moves source values to their upstairs ``positions``
    on a group of ``rank`` generators; an upstairs index that no source
    generator reaches (the up1 slot) reads the value one past the last."""
    source_of = [len(positions)] * rank
    for i, p in enumerate(positions):
        source_of[p] = i
    return _gather(source_of)


@memo_on_source
def theta_up1_param(phi: LParameter, ctx: ThetaContext) -> LParameter:
    """Codimension-1 transferred parameter on the rank n+1 Hermitian group,
    built once per context and kept on ``phi``."""
    _require_skew_source(phi, ctx)
    if ctx.delta != 1:
        raise HypothesisViolation("codimension-1 transfer needs a delta-1 context")
    mu = ctx.lift_twist
    blocks = [(s.twisted(mu), m) for s, m in phi.blocks]
    blocks.append((char_atom(ctx.chi_W_role), 1))
    pairs = [a.twisted(mu) for a, _ in phi.pairs]
    group = GroupTag.standard(phi.group.n + 1, HERMITIAN)
    return mk_parameter(blocks, group, pairs=pairs)


class Up1Lift:
    """The codimension-1 lift of one source parameter, built once.

    Holds the lifted parameter ``target``, the upstairs index of each
    source generator (``positions``), the slot of the appended chi_W
    generator (``None`` when that atom merged with the image of the
    chi_V_role atom) and the odd-index mask ``odd`` (the source indices
    whose image has odd multiplicity upstairs).  Two gathers built here
    place a character upstairs (the slot reads one value appended to the
    source values) and pull it back.
    """

    def __init__(self, phi: LParameter, ctx: ThetaContext):
        self.target = theta_up1_param(phi, ctx)
        big_group = component_group(self.target)
        mu = ctx.lift_twist
        self.positions = tuple(
            big_group.index_of(s.twisted(mu))
            for s in component_group(phi).basis
        )
        self.slot = (
            None if big_group.rank == len(self.positions)
            else big_group.index_of(char_atom(ctx.chi_W_role))
        )
        bits = central_element(self.target).bits
        self.odd = tuple(i for i, p in enumerate(self.positions) if bits[p])
        self._place = _placing(self.positions, big_group.rank)
        self._pull_back = _gather(self.positions)

    def transfer(self, eta: SChar, target_side: int) -> Tuple[SChar, int]:
        """The character on the transferred component group and the pure
        inner form it lives on: the requested ``target_side`` in the
        generic case, the forced side in the merged case (the request is
        ignored there, since only one form survives)."""
        if target_side not in (+1, -1):
            raise HypothesisViolation("target side must be +1 or -1")
        if eta.rank != len(self.positions):
            raise RankMismatch("character does not live on the source group")
        side = prod(map(eta.values.__getitem__, self.odd))
        if self.slot is None:
            return SChar(self._place(eta.values)), side
        extended = (*eta.values, target_side * side)
        return SChar(self._place(extended)), target_side

    def restrict(self, eta_big: SChar) -> SChar:
        """Pull a character on the transferred group back to the source
        group along the twist correspondence."""
        if eta_big.rank != self.target.rank:
            raise RankMismatch("character does not live on the big group")
        return SChar(self._pull_back(eta_big.values))


@memo_on_source
def theta_up2_param(phi: LParameter, ctx: ThetaContext) -> LParameter:
    """Codimension-2 transferred parameter on the rank n+2 Hermitian group,
    built once per context and kept on ``phi``."""
    _require_skew_source(phi, ctx)
    if ctx.delta != 2:
        raise HypothesisViolation("codimension-2 transfer needs a delta-2 context")
    if not phi.supercuspidal_packet:
        raise NotSupercuspidalPacket(
            "codimension-2 transfer requires a supercuspidal-packet parameter"
        )
    mu = ctx.lift_twist
    blocks = [(s.twisted(mu), m) for s, m in phi.blocks]
    pair_member = char_atom(ctx.chi_W_role * CharE.norm_power(Fraction(1, 2)))
    group = GroupTag.standard(phi.group.n + 2, HERMITIAN)
    return mk_parameter(blocks, group, pairs=[pair_member])


def theta_up2_eps_prime(
    eps: int, phi: LParameter, ctx: ThetaContext, backend: Backend
) -> int:
    """Pure-inner-form exchange sign between source and target packets."""
    return eps * eps_half(
        phi, char_atom(ctx.chi_V_role.inverse()), PsiTag.PSI_2E, backend
    )


class Up2Lift:
    """The codimension-2 lift of one source parameter, built once.

    Holds the lifted parameter ``target``, the upstairs index of each
    source generator (``positions``) and, per generator, the central root
    number of its block against chi_V_role^(-1) under psi2E
    (``factors``), read off one key table in basis order.  A character is
    then transferred by one gather built here, with no oracle call.
    """

    def __init__(self, phi: LParameter, ctx: ThetaContext, backend: Backend):
        self.target = theta_up2_param(phi, ctx)
        big_group = component_group(self.target)
        mu = ctx.lift_twist
        basis = component_group(phi).basis
        self.positions = tuple(big_group.index_of(s.twisted(mu)) for s in basis)
        self._place = _placing(self.positions, big_group.rank)
        self.factors = row_signs(
            key_table([(s, 1) for s in basis], ctx.chi_V_role.inverse(),
                      PsiTag.PSI_2E),
            backend,
        )

    def transfer(self, eta: SChar) -> SChar:
        """Each generator's value times its factor, moved to its upstairs
        index."""
        if eta.rank != len(self.positions):
            raise RankMismatch("character does not live on the source group")
        place = self._place
        return SChar(tuple(map(mul, place(eta.values), place(self.factors))))
