"""Formal conjugate-self-dual parameters as multisets of irreducible atoms.

An atom (``Summand``) is an opaque irreducible base label with a
dimension, an optional conjugate-duality sign for the bare base, and an
accumulated character twist.  The effective duality of a twisted atom is
derived: a nonzero slope kills it, a grade-omega unitary twist flips it.
Deriving (rather than storing) the effective sign makes twisting a
genuine involution.

A parameter (``LParameter``) is a multiset of same-type atoms (those
whose effective sign matches the target group's required sign) plus a
list of dual-pair blocks, each a non-self-dual atom together with its
formal conjugate-dual partner.  Two involutions act on atoms:

* ``dual``       -- the contragredient; inverts the whole twist and, for
                    bases without a duality sign, swaps the partner label
                    (the c-conjugation a finer model would track is
                    deliberately collapsed into this one involution);
* ``conj_dual``  -- the conjugate-dual; keeps the unitary twist, negates
                    the slope, and swaps partner labels.  Atoms fixed by
                    it are exactly the conjugate-self-dual ones.

Everything is immutable and in canonical form: blocks sorted by
(base, dim, twist), duplicate atoms merged into multiplicities.  Every
parameter is built by ``mk_parameter``, whose checks always run: there
is no unvalidated intermediate, and ``tensor_twist`` takes unitary
twists only.

Pure transforms of one atom or parameter (``twisted``, ``dual``,
``contragredient`` here; ``recover_phi2`` and the theta transfers
elsewhere) keep their results on their source (``memo_on_source``), so
a transfer builds its output through the validating ``mk_parameter``
once per (phi, ctx).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import wraps
from types import MappingProxyType
from typing import Callable, Iterable, Optional, Tuple, Union

from .chars import CharE, conj_dual_sign
from .errors import DimensionMismatch, FlagContradiction, WrongDualitySign

CHAR_BASE = "1"

HERMITIAN = "hermitian"
SKEW = "skew"


_NO_MEMO = MappingProxyType({})


def memo_on_source(fn: Callable) -> Callable:
    """Keep each result of ``fn(source, *key)`` in ``source.__dict__``.

    The memo belongs to the exact object it was computed from and lives as
    long as it does: it is looked up by ``key`` alone, never by equality of
    the source, so an equal source built apart computes its own result
    (flags that take no part in equality, such as an atom's ``tempered``,
    stay those of the source).  It is no field, so equality, hash and repr
    ignore it.  It runs forward only: nothing is recorded on the result,
    so inverting a transform builds a new object.  A call that raises
    stores nothing and raises again on the next call.
    """
    slot = "_memo_" + fn.__name__

    @wraps(fn)
    def memoized(source, *key):
        memo = source.__dict__
        value = memo.get(slot, _NO_MEMO).get(key)
        if value is None:
            value = fn(source, *key)
            memo.setdefault(slot, {})[key] = value
        return value
    return memoized


def partner_label(base: str) -> str:
    """Label of the formal dual partner of a base without a duality sign;
    an involution on every label ``Summand`` accepts."""
    return base[:-1] if base.endswith("~") else base + "~"


@dataclass(frozen=True)
class Summand:
    """An irreducible atom: base label, dimension, bare-base duality sign
    (None when the base is not conjugate self-dual), and a character twist.

    Temperedness and SL2-triviality describe the bare base and do not
    enter atom identity; the effective ``is_tempered`` also requires a
    zero slope.
    """

    base: str
    dim: int
    base_duality: Optional[int] = +1
    twist: CharE = field(default_factory=CharE.one)
    tempered: bool = field(default=True, compare=False)
    sl2_trivial: bool = field(default=True, compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionMismatch(f"atom dimension must be >= 1, got {self.dim}")
        if self.base_duality not in (None, +1, -1):
            raise FlagContradiction(
                f"base duality must be +1, -1 or None, got {self.base_duality}"
            )
        if self.base.endswith("~~"):
            raise FlagContradiction(
                f"label {self.base!r} ends in '~~'; a partner adds or drops one '~'"
            )
        if self.base == CHAR_BASE:
            if self.dim != 1 or self.base_duality != +1:
                raise FlagContradiction(
                    "the character-atom base is one-dimensional with sign +1"
                )

    # -- derived structure -------------------------------------------------

    @property
    def duality(self) -> Optional[int]:
        """Effective conjugate-duality sign of the twisted atom."""
        if self.base_duality is None or self.twist.halves:
            return None
        return self.base_duality * conj_dual_sign(self.twist)

    @property
    def is_tempered(self) -> bool:
        return self.tempered and not self.twist.halves

    @property
    def is_char_atom(self) -> bool:
        return self.base == CHAR_BASE

    # -- involutions and twisting ------------------------------------------

    @memo_on_source
    def twisted(self, mu: CharE) -> "Summand":
        """This atom under the further twist ``mu``, built once per ``mu``
        and kept on this atom."""
        return self._rebuilt(self.twist * mu, swap=False)

    @memo_on_source
    def dual(self) -> "Summand":
        """The contragredient atom, built once and kept on this atom; the
        dual of the result is a new atom equal to this one."""
        return self._rebuilt(self.twist.inverse())

    def conj_dual(self) -> "Summand":
        return self._rebuilt(self.twist.conj_dual())

    def _rebuilt(self, twist: CharE, swap: bool = True) -> "Summand":
        """An atom under ``twist`` with this atom's dimension, signs and
        flags; its base is the partner label when ``swap`` is set and the
        base has no duality sign."""
        base = self.base
        if swap and self.base_duality is None:
            base = partner_label(base)
        return Summand(base, self.dim, self.base_duality, twist,
                       tempered=self.tempered, sl2_trivial=self.sl2_trivial)

    def sort_key(self):
        return (self.base, self.dim, self.twist.sort_key(),
                0 if self.base_duality is None else self.base_duality)

    def __str__(self) -> str:
        if self.is_char_atom:
            return f"{self.twist}[1]"
        tw = "" if self.twist.is_trivial else f"*{self.twist}"
        return f"{self.base}{tw}[{self.dim}]"


def char_atom(mu: CharE) -> Summand:
    """The one-dimensional atom carried by a formal character of E^x."""
    return Summand(CHAR_BASE, 1, +1, mu)


@dataclass(frozen=True)
class GroupTag:
    """Target unitary group: rank, form type, and required duality sign.

    ``standard`` groups carry the canonical sign (-1)^(n-1); twisting a
    parameter by a grade-omega character produces intermediates whose
    stored sign deviates from the canonical one.
    """

    n: int
    form: str
    duality_sign: int

    def __post_init__(self):
        if self.n < 1:
            raise DimensionMismatch(f"group rank must be >= 1, got {self.n}")
        if self.form not in (HERMITIAN, SKEW):
            raise FlagContradiction(f"form must be hermitian or skew, got {self.form}")
        if self.duality_sign not in (+1, -1):
            raise FlagContradiction("required duality sign must be +1 or -1")

    @classmethod
    def standard(cls, n: int, form: str) -> "GroupTag":
        return cls(n, form, +1 if n % 2 == 1 else -1)

    @property
    def is_canonical(self) -> bool:
        return self == GroupTag.standard(self.n, self.form)


PairBlock = Tuple[Summand, Summand]


def _canonical_pair(member: Summand) -> PairBlock:
    partner = member.conj_dual()
    if partner.sort_key() < member.sort_key():
        member, partner = partner, member
    return (member, partner)


@dataclass(frozen=True)
class LParameter:
    """A validated formal parameter in canonical form."""

    blocks: Tuple[Tuple[Summand, int], ...]
    pairs: Tuple[PairBlock, ...]
    group: GroupTag
    supercuspidal_packet: bool = False

    # -- derived flags -------------------------------------------------------

    @property
    def tempered(self) -> bool:
        atoms = [s for s, _ in self.blocks]
        atoms += [m for p in self.pairs for m in p]
        return all(s.is_tempered for s in atoms)

    @property
    def discrete(self) -> bool:
        return not self.pairs and all(m == 1 for _, m in self.blocks)

    @property
    def rank(self) -> int:
        """Number of distinct same-type summands (component-group rank)."""
        return len(self.blocks)

    def dim(self) -> int:
        total = sum(s.dim * m for s, m in self.blocks)
        total += sum(a.dim + b.dim for a, b in self.pairs)
        return total

    def same_type_atoms(self) -> Tuple[Summand, ...]:
        return tuple(s for s, _ in self.blocks)

    def __str__(self) -> str:
        parts = [f"{m}x{s}" if m > 1 else str(s) for s, m in self.blocks]
        parts += [f"({a} (+) {b})" for a, b in self.pairs]
        return " + ".join(parts) + f" on U_{self.group.form}({self.group.n})"


BlockInput = Union[Summand, Tuple[Summand, int]]


def mk_parameter(
    blocks: Iterable[BlockInput],
    group: GroupTag,
    *,
    pairs: Iterable[Summand] = (),
    tempered: Optional[bool] = None,
    supercuspidal_packet: bool = False,
) -> LParameter:
    """Build a parameter: merge duplicate atoms, sort canonically, check
    dimensions and duality signs, and cross-check user flags.  ``pairs``
    names one member of each dual-pair block; its partner is its
    conjugate dual.

    This is the one way the package makes an ``LParameter``, so every
    parameter it hands out has passed all of these checks.
    """
    merged: dict[Summand, int] = {}
    order: list[Summand] = []
    for entry in blocks:
        s, m = entry if isinstance(entry, tuple) else (entry, 1)
        if m < 1:
            raise DimensionMismatch(f"multiplicity must be >= 1, got {m}")
        if s in merged:
            merged[s] += m
        else:
            merged[s] = m
            order.append(s)
    if not merged and not pairs:
        raise DimensionMismatch("a parameter needs at least one block")

    pair_blocks = [_canonical_pair(member) for member in pairs]

    total = sum(s.dim * m for s, m in merged.items())
    total += sum(a.dim + b.dim for a, b in pair_blocks)
    if total != group.n:
        raise DimensionMismatch(
            f"blocks sum to dimension {total}, group rank is {group.n}"
        )

    for s in merged:
        if s.duality != group.duality_sign:
            raise WrongDualitySign(
                f"summand {s} has duality {s.duality}, "
                f"group requires {group.duality_sign}"
            )
    for a, b in pair_blocks:
        for member in (a, b):
            if member.duality == group.duality_sign:
                raise WrongDualitySign(
                    f"dual-pair member {member} is of the same type as the "
                    "parameter; it belongs in a same-type block"
                )

    blocks_sorted = tuple(sorted(merged.items(), key=lambda bm: bm[0].sort_key()))
    pairs_sorted = tuple(sorted(pair_blocks, key=lambda p: p[0].sort_key()))

    param = LParameter(blocks_sorted, pairs_sorted, group, supercuspidal_packet)

    if tempered is not None and tempered != param.tempered:
        raise FlagContradiction(
            f"tempered flag {tempered} contradicts derived value {param.tempered}"
        )
    if supercuspidal_packet:
        if not param.discrete:
            raise FlagContradiction(
                "a supercuspidal packet requires a discrete parameter"
            )
        if not all(s.sl2_trivial for s, _ in blocks_sorted):
            raise FlagContradiction(
                "a supercuspidal packet requires SL2-trivial summands"
            )
        if not param.tempered:
            raise FlagContradiction("a supercuspidal packet must be tempered")
    return param


# -- operations ---------------------------------------------------------------


def multiplicity_of(phi: LParameter, s: Summand) -> int:
    """Multiplicity of ``s`` among the same-type blocks (dual-pair blocks
    are never searched)."""
    for atom, m in phi.blocks:
        if atom == s:
            return m
    return 0


def tensor_twist(phi: LParameter, mu: CharE) -> LParameter:
    """Twist every block by the unitary character ``mu``; the group's
    required sign is re-derived (a grade-omega twist flips it) and
    dual-pair partners are recomputed.  A twist with a slope has no
    duality sign and raises ``NonUnitarySlope``."""
    sign = phi.group.duality_sign * conj_dual_sign(mu)
    group = GroupTag(phi.group.n, phi.group.form, sign)
    blocks = [(s.twisted(mu), m) for s, m in phi.blocks]
    pairs = [a.twisted(mu) for a, _ in phi.pairs]
    return mk_parameter(blocks, group, pairs=pairs,
                        supercuspidal_packet=phi.supercuspidal_packet)


@memo_on_source
def contragredient(phi: LParameter) -> LParameter:
    """The dual parameter, atomwise through the ``dual`` involution, built
    once and kept on ``phi``; the dual of the result is a new parameter
    equal to ``phi``, never ``phi`` itself."""
    return mk_parameter(
        [(s.dual(), m) for s, m in phi.blocks],
        phi.group,
        pairs=[a.dual() for a, _ in phi.pairs],
        supercuspidal_packet=phi.supercuspidal_packet,
    )
