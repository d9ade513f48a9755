"""Component groups of parameters as F2-vector spaces with ordered bases.

The component group of a parameter has one Z/2Z generator per distinct
same-type summand, ordered like the parameter's canonical blocks;
dual-pair blocks contribute nothing.  Characters are stored as sign
vectors over that basis, elements as bit vectors.  The central element
has the block multiplicities mod 2 as coordinates, and its value under a
character selects the pure inner form carrying the packet member.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, product
from math import prod
from typing import Iterator, Tuple

from .chars import BaseFieldData
from .errors import NoEmbedding, RankMismatch
from .params import LParameter, Summand, contragredient

Sign = int


@dataclass(frozen=True)
class SPhi:
    """Component group of a parameter: its canonical ordered basis."""

    basis: Tuple[Summand, ...]

    @property
    def rank(self) -> int:
        return len(self.basis)

    def index_of(self, s: Summand) -> int:
        for i, atom in enumerate(self.basis):
            if atom == s:
                return i
        raise NoEmbedding(f"{s} is not a basis summand")


@dataclass(frozen=True)
class GroupElement:
    bits: Tuple[int, ...]

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):
            raise RankMismatch("group element coordinates must be bits")

    @property
    def is_identity(self) -> bool:
        return not any(self.bits)


@dataclass(frozen=True)
class SChar:
    """A character of the component group: its sign on each basis element."""

    values: Tuple[Sign, ...]

    def __post_init__(self):
        if self.values.count(1) + self.values.count(-1) != len(self.values):
            raise RankMismatch("character values must be +1 or -1")

    @property
    def rank(self) -> int:
        return len(self.values)


def component_group(phi: LParameter) -> SPhi:
    return SPhi(phi.same_type_atoms())


def central_element(phi: LParameter) -> GroupElement:
    return GroupElement(tuple(m % 2 for _, m in phi.blocks))


def enumerate_characters(group: SPhi) -> Iterator[SChar]:
    """All 2^r characters, lazily, ordered by binary counting over the
    basis (bit j of the counter flips the sign on basis element j)."""
    for values in product((+1, -1), repeat=group.rank):
        yield SChar(values[::-1])


def evaluate(eta: SChar, x: GroupElement) -> Sign:
    if len(eta.values) != len(x.bits):
        raise RankMismatch(
            f"character rank {len(eta.values)} vs element rank {len(x.bits)}"
        )
    return prod(compress(eta.values, x.bits))


def packet_side(eta: SChar, phi: LParameter) -> Sign:
    """Which pure inner form carries the member labelled by ``eta``."""
    return evaluate(eta, central_element(phi))


def nu_twist(eta: SChar, phi: LParameter, base: BaseFieldData) -> SChar:
    """The contragredient correction character: trivial when the total
    dimension is odd, otherwise omega(-1)^(dim of each basis summand)."""
    group = component_group(phi)
    if eta.rank != group.rank:
        raise RankMismatch("character does not live on S_phi")
    if phi.dim() % 2 == 1 or base.omega_at_minus_one == +1:
        return eta
    values = tuple(
        v * (base.omega_at_minus_one ** s.dim)
        for v, s in zip(eta.values, group.basis)
    )
    return SChar(values)


def contragredient_char(
    eta: SChar, phi: LParameter, base: BaseFieldData
) -> SChar:
    """Character of the dual member on the dual parameter's component group:
    the nu-corrected value carried over to each dual basis summand."""
    corrected = nu_twist(eta, phi, base)
    group = component_group(phi)
    dual_phi = contragredient(phi)
    dual_group = component_group(dual_phi)
    values = [+1] * dual_group.rank
    for v, s in zip(corrected.values, group.basis):
        values[dual_group.index_of(s.dual())] = v
    return SChar(tuple(values))
