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
"""

from __future__ import annotations

import hashlib
from enum import Enum
from fractions import Fraction
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
    PsiTag.PSI_E: PsiTag.PSI_2E,
    PsiTag.PSI_2E: PsiTag.PSI_E,
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


def _assemble(bases, exps, slope: Fraction, tag: PsiTag) -> RawKey:
    items = tuple(
        sorted((name, grade, e) for (name, grade), e in exps.items() if e != 0)
    )
    return (
        tuple(sorted(bases)),
        items,
        (slope.numerator, slope.denominator),
        tag.value,
    )


def term_key(a: Summand, b: Summand, extra: CharE, tag: PsiTag) -> RawKey:
    """Canonical oracle key of the term a (x) b (x) extra under ``tag``."""
    exps: Dict[Tuple[str, int], int] = {}
    for tw in (a.twist, b.twist, extra):
        for gk, e in tw.exps:
            exps[gk] = exps.get(gk, 0) + e
    slope = a.twist.slope + b.twist.slope + extra.slope
    bases = [_base_entry(a), _base_entry(b)]

    def conj(key: RawKey) -> RawKey:
        bs, items, (num, den), t = key
        return _assemble(
            [_flip_entry(e) for e in bs],
            {(n, g): v for n, g, v in items},
            Fraction(-num, den),
            PsiTag(t),
        )

    def dualflip(key: RawKey) -> RawKey:
        bs, items, (num, den), t = key
        return _assemble(
            [_flip_entry(e) for e in bs],
            {(n, g): -v for n, g, v in items},
            Fraction(-num, den),
            _TAG_FLIP[PsiTag(t)],
        )

    raw = _assemble(bases, exps, slope, tag)
    orbit = [raw, conj(raw)]
    if tag in _TAG_FLIP:
        flipped = dualflip(raw)
        orbit += [flipped, conj(flipped)]
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
    """Deterministic pseudo-random signs from a seed and the canonical key."""

    def __init__(self, seed: int):
        self.seed = int(seed)

    def sign(self, key: RawKey) -> int:
        digest = hashlib.sha256(f"{self.seed}|{key!r}".encode()).digest()
        return +1 if digest[0] % 2 == 0 else -1

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
