"""Pluggable +/-1 oracle for local root numbers at the center.

The oracle is keyed by unordered tensor pairs of irreducible atoms: the
two base labels, the merged unitary character twist (both atoms' twists
times any extra scalar character), the merged norm-power slope, and an
additive-character variant tag.  It extends biadditively to formal sums;
since all values are signs, only multiplicity parity matters.

Keys are canonicalized under two term-level symmetries of the root-number
functional equation, applied to both tensor factors at once:

* conjugate-duality: partner labels flip on bases without a duality
  sign, the slope negates, the unitary twist and the tag stay put;
* contragredient with character flip: partner labels flip, the unitary
  exponents and the slope negate, and the psiE / psi2E tags exchange
  (keys under psiNeg2E carry only the first symmetry).

The first makes a dual-pair block contribute a square (hence +1) against
any conjugate-self-dual factor; the second makes the codimension-2
transfer factor and its dualized even-rank counterpart agree.  Together
they are exactly what lets the closed-form distinguished characters and
the see-saw transport coincide key-for-key for every backend.

``term_key`` builds the orbit in one pass: it merges the three twists
and sorts the exponent items once, then writes out the two (or, with the
contragredient symmetry, four) orbit keys directly and returns the least.
The contragredient keys reuse the sorted items with negated exponents.
The twice-flipped bases are flipped twice rather than assumed equal to
the originals, since partner labels are not an involution ("A~~" flips
to "A~", which flips to "A").  Slopes sum as integer halves
(``CharE.halves``) and enter the key as a lowest-terms ``(num, den)``
pair.

Caches live on the character or backend instance they serve (the
``CharE.halves`` property, the ``HashedBackend`` sign memo) and die with
it; the module holds none.  Labels are unique per request in long runs,
so a process-wide cache would grow without bound.
"""

from __future__ import annotations

import hashlib
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .chars import CharE
from .errors import MissingTableEntry
from .params import LParameter, Summand, char_atom, partner_label


class PsiTag(Enum):
    PSI_E = "psiE"
    PSI_2E = "psi2E"
    PSI_NEG2E = "psiNeg2E"


# the contragredient symmetry exchanges only these two variants; keys
# under the third take the conjugate-duality symmetry alone
_TAG_FLIP = {
    PsiTag.PSI_E.value: PsiTag.PSI_2E.value,
    PsiTag.PSI_2E.value: PsiTag.PSI_E.value,
}

# base entry: (label, dim, marker); marker 0 = no duality sign on the base
BaseEntry = Tuple[str, int, int]
RawKey = Tuple[Tuple[BaseEntry, ...], Tuple[Tuple[str, int, int], ...],
               Tuple[int, int], str]


def _base_entry(s: Summand) -> BaseEntry:
    marker = 0 if s.base_duality is None else s.base_duality
    return (s.base, s.dim, marker)


def _flip_entry(entry: BaseEntry) -> BaseEntry:
    label, dim, marker = entry
    if marker == 0:
        return (partner_label(label), dim, marker)
    return entry


def _pair(x: BaseEntry, y: BaseEntry) -> Tuple[BaseEntry, BaseEntry]:
    return (x, y) if x <= y else (y, x)


def _slope(halves: int) -> Tuple[int, int]:
    """The slope halves/2 as (numerator, denominator) in lowest terms."""
    return (halves // 2, 1) if halves % 2 == 0 else (halves, 2)


def term_key(a: Summand, b: Summand, extra: CharE, tag: PsiTag) -> RawKey:
    """Canonical oracle key of the term a (x) b (x) extra under ``tag``:
    the least key of its orbit under the two symmetries."""
    exps: Dict[Tuple[str, int], int] = {}
    for tw in (a.twist, b.twist, extra):
        for gk, e in tw.exps:
            exps[gk] = exps.get(gk, 0) + e
    # each (name, grade) occurs once, so negating the exponents keeps
    # this order
    items = tuple(sorted((name, grade, e)
                         for (name, grade), e in exps.items() if e != 0))
    halves = a.twist.halves + b.twist.halves + extra.halves
    slope, negated = _slope(halves), _slope(-halves)
    base_a, base_b = _base_entry(a), _base_entry(b)
    flip_a, flip_b = _flip_entry(base_a), _flip_entry(base_b)
    flipped_bases = _pair(flip_a, flip_b)
    t = tag.value
    orbit = [
        (_pair(base_a, base_b), items, slope, t),
        (flipped_bases, items, negated, t),
    ]
    dual_tag = _TAG_FLIP.get(t)
    if dual_tag is not None:
        dual_items = tuple((name, grade, -e) for name, grade, e in items)
        # partner labels are no involution ("A~~" -> "A~" -> "A"), so the
        # twice-flipped bases are flipped twice, not taken as the originals
        orbit.append((flipped_bases, dual_items, negated, dual_tag))
        orbit.append((_pair(_flip_entry(flip_a), _flip_entry(flip_b)),
                      dual_items, slope, dual_tag))
    return min(orbit)


# -- backends -----------------------------------------------------------------


class ConstantOne:
    """Backend returning +1 on every key."""

    def sign(self, key: RawKey) -> int:
        return +1

    def describe(self) -> str:
        return "one"


class TableBackend:
    """Backend reading signs from an explicit table; unseen keys error."""

    def __init__(self, entries: Optional[Dict[RawKey, int]] = None):
        self.entries: Dict[RawKey, int] = dict(entries or {})

    def set(self, key: RawKey, sign: int) -> None:
        self.entries[key] = sign

    def sign(self, key: RawKey) -> int:
        try:
            return self.entries[key]
        except KeyError:
            raise MissingTableEntry(f"no epsilon table entry for {key}")

    def describe(self) -> str:
        return f"table({len(self.entries)} entries)"


class HashedBackend:
    """Deterministic pseudo-random signs from a seed and the canonical key.

    Each distinct key is hashed once; the memo lives and dies with the
    instance."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._signs: Dict[RawKey, int] = {}

    def sign(self, key: RawKey) -> int:
        value = self._signs.get(key)
        if value is None:
            digest = hashlib.sha256(f"{self.seed}|{key!r}".encode()).digest()
            value = +1 if digest[0] % 2 == 0 else -1
            self._signs[key] = value
        return value

    def describe(self) -> str:
        return f"hashed(seed={self.seed})"


class RecordingBackend:
    """Wrapper logging every (key, sign) consultation, for audit trails."""

    def __init__(self, inner):
        self.inner = inner
        self.calls: List[Tuple[RawKey, int]] = []

    def sign(self, key: RawKey) -> int:
        value = self.inner.sign(key)
        self.calls.append((key, value))
        return value

    def describe(self) -> str:
        return f"recording({self.inner.describe()})"


Backend = Union[ConstantOne, TableBackend, HashedBackend, RecordingBackend]


def make_backend(kind: str, seed: int, table=None) -> Backend:
    """The backend a ``--backend`` choice names."""
    if kind == "one":
        return ConstantOne()
    if kind == "hashed":
        return HashedBackend(seed)
    if kind == "table":
        return table if table is not None else TableBackend()
    raise ValueError(f"unknown backend kind: {kind}")


# -- biadditive evaluation ------------------------------------------------------

EpsOperand = Union[LParameter, Summand, CharE, Sequence[Tuple[Summand, int]]]


def expand_terms(operand: EpsOperand) -> List[Tuple[Summand, int]]:
    """Flatten an operand into (atom, multiplicity) terms: parameters expand
    blockwise with dual-pair members counted once each."""
    if isinstance(operand, LParameter):
        out = [(s, m) for s, m in operand.blocks]
        out += [(member, 1) for p in operand.pairs for member in p]
        return out
    if isinstance(operand, Summand):
        return [(operand, 1)]
    if isinstance(operand, CharE):
        return [(char_atom(operand), 1)]
    return [(s, m) for s, m in operand]


def eps_half(
    left: EpsOperand,
    right: EpsOperand,
    tag: PsiTag,
    backend: Backend,
    twist: Optional[CharE] = None,
) -> int:
    """Central root-number sign of left (x) right (x) twist, expanded
    biadditively; terms of even multiplicity are skipped outright."""
    extra = twist if twist is not None else CharE.one()
    sign = +1
    for a, ma in expand_terms(left):
        for b, mb in expand_terms(right):
            if (ma * mb) % 2 == 0:
                continue
            sign *= backend.sign(term_key(a, b, extra, tag))
    return sign
