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

Keys are built a table at a time: ``key_table(left, right, tag, twist)``
holds, per odd-multiplicity term of ``left``, its keys against the
odd-multiplicity terms of ``right``, in the row-major order ``eps_half``
consults them.  Each row and column is reduced once to its parts: the
base entry, the entry flipped to its partner label, and its twist as a
vector of exponents and slope halves, with ``twist`` folded into the
rows.  Twists then add as vectors, and each distinct merged twist yields
its sorted exponent items, their negation and the lowest-terms
``(num, den)`` slopes once per table.  One builder, ``_least_key``,
turns a row's and a column's parts into the least key of the orbit;
``term_key`` is the table of one row and one column.

Twist vectors read ``CharE.halves``, the slope that a character stores
as an integer count of halves.  ``read_table`` reads key tables: whole
through ``RecordingBackend.read``, counting cells read again on the memo
entries found, or key by key from any other backend.  Caches live on the
backend instance they serve (the ``HashedBackend`` memos of base-entry
reprs and of key-tail texts, from which it assembles the hashed text
``f"{seed}|{key!r}"``; the ``RecordingBackend`` memo of one computation,
the only cache of signs), on one key table, or in one ``key_texts`` call,
and die with it; the module holds none.
Labels are unique per request in long runs, so a process-wide cache
would grow without bound.
"""

from __future__ import annotations

import hashlib
from enum import Enum
from math import prod
from operator import add
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .chars import CharE, GenKey
from .errors import MissingTableEntry
from .params import CHAR_BASE, LParameter, Summand, char_atom, partner_label


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
KeyTable = List[List[RawKey]]


def _pair(x: BaseEntry, y: BaseEntry) -> Tuple[BaseEntry, BaseEntry]:
    return (x, y) if x <= y else (y, x)


def _slope(halves: int) -> Tuple[int, int]:
    """The slope halves/2 as (numerator, denominator) in lowest terms."""
    return (halves // 2, 1) if halves % 2 == 0 else (halves, 2)


# a twist as a vector: its exponent of each generator in play, then its
# slope in halves
TwistVector = Tuple[int, ...]
# per term: base entry, flipped entry, twist vector
AtomParts = Tuple[BaseEntry, BaseEntry, TwistVector]
# per twist: the least orbit key without its bases, then the 2 or 4 orbit
# keys without their bases
Tails = Tuple[tuple, ...]


def _tails(gens: Sequence[GenKey], twist: TwistVector, tag: str,
           dual_tag: Optional[str]) -> Tails:
    """The orbit of a term with the merged ``twist``, bases left out: the
    term and its conjugate dual, then (when ``tag`` has a contragredient
    partner) the contragredient of each, with the least of them first."""
    # the generators are sorted, so the items are, and negating the
    # exponents keeps their order
    items = tuple([(name, grade, e)
                   for (name, grade), e in zip(gens, twist) if e])
    slope = _slope(twist[-1])
    negated = (-slope[0], slope[1])
    orbit = [(items, slope, tag), (items, negated, tag)]
    if dual_tag is not None:
        dual = tuple([(name, grade, -e) for name, grade, e in items])
        orbit += [(dual, negated, dual_tag), (dual, slope, dual_tag)]
    return (min(orbit), *orbit)


def _least_key(row: AtomParts, col: AtomParts, tails: Tails) -> RawKey:
    """The least key of the orbit of one term, from its two atoms' parts
    and its twists' tails: the one key rule."""
    base_r, flip_r, _ = row
    base_c, flip_c, _ = col
    plain = (base_r, base_c) if base_r <= base_c else (base_c, base_r)
    if flip_r == base_r and flip_c == base_c:
        # neither label flips, so every orbit key has these bases
        return (plain, *tails[0])
    flipped = _pair(flip_r, flip_c)
    bases = (plain, flipped, flipped, plain)
    return min((b, *tail) for b, tail in zip(bases, tails[1:]))


def key_texts(keys: Iterable[RawKey]) -> List[str]:
    """Each key in DSL epsilon syntax, e.g. ``(A~, C*chi^-1*norm^1/2; psi2E)``:
    the merged twist goes on the second member, and a character atom (base
    ``1``) prints as ``char <twist>``.  Each distinct merged twist is
    formatted once per call."""
    twists: Dict[tuple, str] = {}
    out = []
    for (first, second), items, slope, tag in keys:
        twist = twists.get((items, slope))
        if twist is None:
            parts = [name if e == 1 else f"{name}^{e}" for name, _, e in items]
            num, den = slope
            if num:
                parts.append(f"norm^{num}" if den == 1 else f"norm^{num}/{den}")
            twist = twists[items, slope] = "*".join(parts)
        a = "char 1" if first[0] == CHAR_BASE else first[0]
        if second[0] == CHAR_BASE:
            b = f"char {twist or 1}"
        else:
            b = f"{second[0]}*{twist}" if twist else second[0]
        out.append(f"({a}, {b}; {tag})")
    return out


def key_text(key: RawKey) -> str:
    """One key in DSL epsilon syntax (see ``key_texts``)."""
    return key_texts([key])[0]


# -- backends -----------------------------------------------------------------


class ConstantOne:
    """Backend returning +1 on every key."""

    def sign(self, key: RawKey) -> int:
        return +1


class TableBackend:
    """Backend reading signs from an explicit table; unseen keys error."""

    def __init__(self, entries: Optional[Dict[RawKey, int]] = None):
        self.entries: Dict[RawKey, int] = dict(entries or {})

    def sign(self, key: RawKey) -> int:
        try:
            return self.entries[key]
        except KeyError:
            raise MissingTableEntry(
                f"no epsilon table entry for {key_text(key)}")


class HashedBackend:
    """Deterministic pseudo-random signs from a seed and the canonical key.

    A pure function of seed and key: every call hashes the text
    ``f"{seed}|{key!r}"``, and keeps no sign.  That text is assembled from
    two memos of reprs, which many keys share: one per base entry, and one
    per tail (the exponent items, slope and tag, closing parentheses
    included), after a prefix built once.  Both memos live and die with
    the instance; a caller that repeats keys puts a ``RecordingBackend``
    in front."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._prefix = f"{self.seed}|(("
        self._bases: Dict[BaseEntry, str] = {}
        self._tails: Dict[tuple, str] = {}

    def _hash_text(self, key: RawKey) -> str:
        """``f"{seed}|{key!r}"``, byte for byte, from memoized reprs."""
        bases = self._bases
        first, second = key[0]
        a = bases.get(first) or bases.setdefault(first, repr(first))
        b = bases.get(second) or bases.setdefault(second, repr(second))
        rest = key[1:]
        tail = self._tails.get(rest)
        if tail is None:
            items, slope, tag = rest
            tail = self._tails[rest] = f"), {items!r}, {slope!r}, {tag!r})"
        return f"{self._prefix}{a}, {b}{tail}"

    def sign(self, key: RawKey) -> int:
        digest = hashlib.sha256(self._hash_text(key).encode()).digest()
        return -1 if digest[0] & 1 else +1


class RecordingBackend:
    """Per-computation memo over a backend, for audit trails: asks the
    backend once per distinct key and counts every consultation.  It
    takes a key table whole (``read``); ``sign`` is the table of one
    key."""

    def __init__(self, inner):
        self.inner = inner
        self._rows: Dict[RawKey, list] = {}

    def read(self, table: KeyTable) -> List[List[list]]:
        """Per cell of ``table``, its memo entry ``[key, sign, count]``;
        the keys count as consulted in row-major order."""
        rows = self._rows
        out = []
        for keys in table:
            line = []
            for key in keys:
                row = rows.get(key)
                if row is None:
                    row = rows[key] = [key, self.inner.sign(key), 0]
                row[2] += 1
                line.append(row)
            out.append(line)
        return out

    def sign(self, key: RawKey) -> int:
        return self.read([[key]])[0][0][1]

    @property
    def calls(self) -> List[Tuple[RawKey, int, int]]:
        """(key, sign, count) per distinct key, in first-consultation
        order."""
        return [tuple(row) for row in self._rows.values()]


Backend = Union[ConstantOne, TableBackend, HashedBackend, RecordingBackend]


def make_backend(kind: str, seed: int, table=None) -> Backend:
    """The backend a ``--backend`` choice names."""
    if kind == "one":
        return ConstantOne()
    if kind == "hashed":
        return HashedBackend(seed)
    if kind == "table":
        if table is None:
            raise ValueError("backend kind table needs a table")
        return table
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


def _atom_parts(s: Summand, gens: Sequence[GenKey],
                fold: Optional[CharE]) -> AtomParts:
    """The base entry of ``s``, that entry flipped to its partner label,
    and its twist (times ``fold``) as a vector over ``gens``."""
    exps = dict(s.twist.exps)
    halves = s.twist.halves
    if fold is not None:
        for gk, e in fold.exps:
            exps[gk] = exps.get(gk, 0) + e
        halves += fold.halves
    vector = (*[exps.get(g, 0) for g in gens], halves)
    if s.base_duality is not None:
        # a base with a duality sign keeps its label
        base = (s.base, s.dim, s.base_duality)
        return (base, base, vector)
    return ((s.base, s.dim, 0), (partner_label(s.base), s.dim, 0), vector)


def key_table(
    left: EpsOperand,
    right: EpsOperand,
    tag: PsiTag,
    twist: Optional[CharE] = None,
) -> KeyTable:
    """Per odd-multiplicity term of ``left``, the canonical keys of that
    term (x) ``twist`` against each odd-multiplicity term of ``right``
    under ``tag``: the keys ``eps_half`` consults, in its row-major order.

    Each row's and column's parts are built once, with ``twist`` folded
    into the rows; twists add as vectors, and each distinct merged twist
    is turned into exponent items and a slope once per table."""
    row_atoms = [s for s, m in expand_terms(left) if m % 2]
    col_atoms = [s for s, m in expand_terms(right) if m % 2]
    twists = [s.twist for s in row_atoms + col_atoms]
    if twist is not None:
        twists.append(twist)
    gens = sorted({gk for mu in twists for gk, _ in mu.exps})
    rows = [_atom_parts(s, gens, twist) for s in row_atoms]
    cols = [_atom_parts(s, gens, None) for s in col_atoms]
    t = tag.value
    dual_t = _TAG_FLIP.get(t)
    by_twist: Dict[TwistVector, Tails] = {}
    by_row: Dict[TwistVector, List[Tails]] = {}
    table = []
    for row in rows:
        tails = by_row.get(row[2])
        if tails is None:
            tails = by_row[row[2]] = []
            for col in cols:
                merged = tuple(map(add, row[2], col[2]))
                tail = by_twist.get(merged)
                if tail is None:
                    tail = by_twist[merged] = _tails(gens, merged, t, dual_t)
                tails.append(tail)
        table.append([_least_key(row, col, tail)
                      for col, tail in zip(cols, tails)])
    return table


def term_key(a: Summand, b: Summand, extra: CharE, tag: PsiTag) -> RawKey:
    """Canonical oracle key of the term a (x) b (x) extra under ``tag``:
    the least key of its orbit under the two symmetries."""
    return key_table([(a, 1)], [(b, 1)], tag, extra)[0][0]


def read_table(table: KeyTable, backend: Backend):
    """Per row of a key table, the product of its oracle signs, keys
    consulted in row-major order; and ``again(columns)``, the product
    over the cells of ``columns`` in every row, consulted again,
    row-major.  A recorder takes the table whole and counts the cells
    read again on the memo entries its reading found, with no lookup;
    any other backend is asked key by key."""
    if isinstance(backend, RecordingBackend):
        cells = backend.read(table)

        def again(columns):
            hit = [line[j] for line in cells for j in columns]
            for entry in hit:
                entry[2] += 1
            return prod([entry[1] for entry in hit])

        return tuple([prod([e[1] for e in line]) for line in cells]), again

    def again(columns):
        return prod([backend.sign(row[j]) for row in table for j in columns])

    return tuple([prod(map(backend.sign, row)) for row in table]), again


def row_signs(table: KeyTable, backend: Backend) -> Tuple[int, ...]:
    """The row signs of a key table, as ``read_table`` reads them."""
    return read_table(table, backend)[0]


def eps_half(
    left: EpsOperand,
    right: EpsOperand,
    tag: PsiTag,
    backend: Backend,
    twist: Optional[CharE] = None,
) -> int:
    """Central root-number sign of left (x) right (x) twist, expanded
    biadditively; terms of even multiplicity are skipped outright."""
    return prod(row_signs(key_table(left, right, tag, twist), backend))
