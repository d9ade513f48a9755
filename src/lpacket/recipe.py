"""Distinguished characters and the branching-multiplicity trichotomy.

Given a supercuspidal-packet parameter phi1 of the rank-n skew tower and
a tempered parameter phi of the rank n+1 Hermitian group, the engine
decides how many packet-member pairs of (theta-lift of phi1, phi) admit
a nonzero branching functional:

* Zero        -- phi does not contain the chi_W character atom;
* One         -- it contains it with multiplicity one: the unique pair
                 is produced by closed-form sign recipes;
* AtLeastOne  -- multiplicity two or more without the merged-case
                 certification: a constructive witness pair is produced
                 by the see-saw transport instead.

The closed forms evaluate central root numbers of each phi1 block,
twisted by chi_V^(-1) chi_W, against the contragredient of phi, and of
phi1 against the duals of the recovered lower parameter's blocks twisted
by chi^(-1); the psi-variant is psi2E for odd n and psiE for even n.
The value on the extra generator coming from the appended chi_W block is
the product of the other two families, which forces the two members onto
a common pure inner form.  The multiplicity-one and certified merged
cases share one pair builder (``_distinguished_pair``).  It builds one
key table, the upper one, and reads the lower family and the appended
generator's slot off it by column (``_pair_keys``); only generators
without a column, those of even multiplicity, get keys of their own.
The upper table is consulted once (``read_table``) and its columns again
by position.  ``fj_eta``, the equal-rank skew recipe the see-saw starts
from, reads one key table per character.  Each member's pure inner form
is derived by ``PacketMember`` from its character and parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Optional, Sequence, Tuple

from .chars import BaseFieldData, CharE, CharSystem
from .component import SChar, component_group, packet_side
from .epsilon import (
    Backend,
    KeyTable,
    PsiTag,
    RecordingBackend,
    expand_terms,
    key_table,
    read_table,
    row_signs,
)
from .errors import ChiWAbsent, HypothesisViolation
from .params import (
    HERMITIAN,
    SKEW,
    GroupTag,
    LParameter,
    Summand,
    char_atom,
    contragredient,
    memo_on_source,
    mk_parameter,
    multiplicity_of,
)
from .theta import ThetaContext, theta_up1_param, theta_up2_param


@dataclass(frozen=True)
class GGPContext:
    """The character data a branching computation runs over: the grade-omega
    character chi, the tower characters chi_V / chi_W, and the base-field
    constant omega(-1)."""

    chi: CharE
    chi_V: CharE
    chi_W: CharE
    base: BaseFieldData

    @classmethod
    def standard(
        cls, n: int, base: BaseFieldData, identify_chi: bool = False
    ) -> "GGPContext":
        sys = CharSystem.standard(n, identify_chi=identify_chi)
        return cls(sys.gen("chi"), sys.gen("chi_V"), sys.gen("chi_W"), base)

    def check_tower(self, n: int) -> None:
        if self.chi.grade != 1:
            raise HypothesisViolation("chi must restrict to omega_{E/F}")
        if self.chi_V.grade != n % 2:
            raise HypothesisViolation(
                f"chi_V grade {self.chi_V.grade} is wrong for tower rank {n}"
            )
        if self.chi_W.grade != n % 2:
            raise HypothesisViolation(
                f"chi_W grade {self.chi_W.grade} is wrong for tower rank {n}"
            )

    # -- transfer contexts --------------------------------------------------

    def up2_primary(self) -> ThetaContext:
        return ThetaContext(self.chi_W, self.chi_V, 2)

    def up1_recovery(self) -> ThetaContext:
        """The codimension-1 context whose lift twist chi_V^(-1) chi chi_W
        ``recover_phi2`` inverts; the even-rank see-saw lifts through its
        dual."""
        return ThetaContext(self.chi_W, self.chi_V * self.chi.inverse(), 1)

    def merge_atom(self) -> Summand:
        """The same-type character atom of the lower parameter whose lift
        merges with the appended chi_W block."""
        return char_atom(self.chi_V * self.chi.inverse())

    def chi_w_atom(self) -> Summand:
        return char_atom(self.chi_W)


def parity_tag(n: int) -> PsiTag:
    return PsiTag.PSI_2E if n % 2 == 1 else PsiTag.PSI_E


@dataclass(frozen=True)
class PacketMember:
    """A labelled packet member: parameter and component-group character.

    ``side``, the pure inner form carrying the member, is derived once by
    the packet-side rule; it is a field, so repr, equality and hash show
    it."""

    parameter: LParameter
    character: SChar
    side: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "side",
                           packet_side(self.character, self.parameter))


@dataclass
class MultiplicityReport:
    case: str  # "Zero" | "One" | "AtLeastOne"
    distinguished: Optional[Tuple[PacketMember, PacketMember]] = None
    witness: Optional[Tuple[PacketMember, PacketMember]] = None
    recovered_phi2: Optional[LParameter] = None
    # (key, sign, count) per distinct oracle key, in first-consultation order
    audit: Tuple = ()


# -- packet-side recipes --------------------------------------------------------


def fj_eta(
    phi_a: LParameter,
    phi_b: LParameter,
    n: int,
    chi: CharE,
    backend: Backend,
) -> Tuple[SChar, SChar]:
    """Distinguished character pair of the equal-rank skew branching
    problem: as in the Hermitian case but twisted by chi^(-1), with the
    psi-variant selected by the parity of n.  Each character is read off
    one key table: its generators against the other parameter."""
    tag = parity_tag(n)
    tw = chi.inverse()

    def eta(phi_x, phi_y):
        atoms = [(s, 1) for s in component_group(phi_x).basis]
        return SChar(row_signs(key_table(atoms, phi_y, tag, tw), backend))

    return eta(phi_a, phi_b), eta(phi_b, phi_a)


# -- recovery of the lower parameter ----------------------------------------------


@memo_on_source
def recover_phi2(phi: LParameter, gctx: GGPContext) -> LParameter:
    """Invert the codimension-1 transfer: strip one chi_W atom and untwist
    by the ``up1_recovery`` lift twist chi_V^(-1) chi chi_W, landing on the
    rank-n skew group.

    The chi_W copy is dropped from ``phi.blocks`` before anything is
    twisted, and the result is built by one validating ``mk_parameter``
    call.  It is kept on ``phi``, once per context; lifting it back
    builds a new parameter equal to ``phi``, never ``phi`` itself, so the
    see-saw's lower-parameter check compares two separately built
    parameters."""
    if phi.group.form != HERMITIAN:
        raise HypothesisViolation("recovery expects a Hermitian-side parameter")
    if not phi.tempered:
        raise HypothesisViolation("recovery expects a tempered parameter")
    chi_w = gctx.chi_w_atom()
    if multiplicity_of(phi, chi_w) < 1:
        raise ChiWAbsent("the parameter does not contain the chi_W atom")
    mu_inv = gctx.up1_recovery().lift_twist.inverse()
    kept = [(s, m - 1 if s == chi_w else m) for s, m in phi.blocks]
    blocks = [(s.twisted(mu_inv), m) for s, m in kept if m]
    pairs = [a.twisted(mu_inv) for a, _ in phi.pairs]
    return mk_parameter(blocks, GroupTag.standard(phi.group.n - 1, SKEW),
                        pairs=pairs)


def _check_hypotheses(phi1: LParameter, phi: LParameter, gctx: GGPContext) -> None:
    if phi1.group.form != SKEW or not phi1.group.is_canonical:
        raise HypothesisViolation("phi1 must live on the standard skew group")
    if not phi1.supercuspidal_packet:
        raise HypothesisViolation("phi1 must carry a supercuspidal packet")
    if phi.group.form != HERMITIAN or not phi.group.is_canonical:
        raise HypothesisViolation("phi must live on the standard Hermitian group")
    if phi.group.n != phi1.group.n + 1:
        raise HypothesisViolation(
            f"rank mismatch: phi1 has rank {phi1.group.n}, "
            f"phi has rank {phi.group.n}"
        )
    if not phi.tempered:
        raise HypothesisViolation("phi must be tempered")
    gctx.check_tower(phi1.group.n)


def _pair_keys(
    lifted: Sequence[Summand],
    phi1: LParameter,
    phi: LParameter,
    phi2: LParameter,
    gctx: GGPContext,
) -> Tuple[KeyTable, KeyTable, list]:
    """The oracle keys of the distinguished pair, read off one table.

    Upper: one row per ``lifted`` phi1 block against each odd-multiplicity
    term of the contragredient of phi; this is the only table built in
    full.  Lower: per generator b of phi, b untwisted onto phi2 and
    dualized, against phi1 twisted by chi^(-1): the upper column of
    b.dual(), as both merge tw(phi1_j) chi_V^(-1) chi_W tw(b)^(-1) over
    the same two bases.  Generators without a column (even multiplicity)
    get rows of their own, in ``own``.  Per generator, ``lower`` holds the
    groups of upper columns it reads over every row, or None for the next
    row of ``own``.  Unless the appended chi_W block merges, its generator
    reads the upper table, then the chi_W slot: the column of the image in
    phi of each odd-multiplicity block of phi2, dualized.
    """
    tag = parity_tag(phi1.group.n)
    cols = [s for s, m in expand_terms(contragredient(phi)) if m % 2]
    upper = key_table([(s, 1) for s in lifted], [(s, 1) for s in cols], tag)
    column = {s: j for j, s in enumerate(cols)}

    mu = gctx.up1_recovery().lift_twist
    mu_inv = mu.inverse()
    basis = component_group(phi).basis
    reads = [column.get(b.dual()) for b in basis]
    own = key_table([(b.twisted(mu_inv).dual(), 1)
                     for b, j in zip(basis, reads) if j is None],
                    phi1, tag, gctx.chi.inverse())
    lower = [None if j is None else ((j,),) for j in reads]
    if not multiplicity_of(phi2, gctx.merge_atom()):
        # the chi_W generator takes the product of the two families over
        # whole parameters, at its place in the basis
        lower[basis.index(gctx.chi_w_atom())] = (range(len(cols)), [
            column[t.twisted(mu).dual()] for t, m in phi2.blocks if m % 2])
    return upper, own, lower


def _distinguished_pair(
    phi1: LParameter,
    phi: LParameter,
    phi2: LParameter,
    gctx: GGPContext,
    backend: Backend,
) -> Tuple[PacketMember, PacketMember]:
    """The distinguished pair of (theta-lift of phi1, phi), where phi is
    the codimension-1 lift of phi2, by the closed-form recipes.

    Upper side: each phi1 block, twisted by chi_V^(-1) chi_W, against the
    contragredient of phi.  Lower side: each generator of phi, untwisted
    onto phi2 and dualized, against phi1 twisted by chi^(-1).  Both, and
    the chi_W slot, come from one upper key table (``_pair_keys``), read
    once; the lower and chi_W readings are its columns, read again.
    Signs are consulted as separate per-family tables would consult them:
    family by family, each row-major.
    """
    up2 = gctx.up2_primary()
    theta_phi1 = theta_up2_param(phi1, up2)
    lifted = [s.twisted(up2.lift_twist) for s, _ in phi1.blocks]
    upper_keys, own, lower = _pair_keys(lifted, phi1, phi, phi2, gctx)
    upper_signs, again = read_table(upper_keys, backend)
    upper = dict(zip(lifted, upper_signs))
    eta_upper = SChar(
        tuple(upper[s] for s in component_group(theta_phi1).basis)
    )
    # own rows are read one at a time, at their generator's place
    own = iter(own)
    values = tuple([row_signs([next(own)], backend)[0] if groups is None
                    else prod(map(again, groups)) for groups in lower])
    upper_member = PacketMember(theta_phi1, eta_upper)
    lower_member = PacketMember(phi, SChar(values))
    if upper_member.side != lower_member.side:
        raise AssertionError(
            "engine invariant broken: distinguished members landed on "
            "different pure inner forms"
        )
    return upper_member, lower_member


def closed_form_pair(
    phi1: LParameter,
    phi: LParameter,
    gctx: GGPContext,
    backend: Backend,
) -> Tuple[PacketMember, PacketMember, LParameter]:
    """The multiplicity-one distinguished pair, by the closed-form recipes
    (no see-saw transport involved)."""
    phi2 = recover_phi2(phi, gctx)
    if multiplicity_of(phi, gctx.chi_w_atom()) != 1:
        raise HypothesisViolation("closed form needs chi_W multiplicity one")
    upper, lower = _distinguished_pair(phi1, phi, phi2, gctx, backend)
    return upper, lower, phi2


def merged_case_eta(
    phi1: LParameter,
    phi2: LParameter,
    gctx: GGPContext,
    backend: Backend,
) -> Tuple[PacketMember, PacketMember]:
    """Distinguished pair in the merged transfer case: phi2 contains the
    chi_V chi^(-1) atom, so the transferred lower parameter holds chi_W
    at least twice and its component group is identified with phi2's.

    Calling it certifies the nonzero-lift irreducibility hypothesis, which
    the engine cannot decide; ``main_multiplicity`` calls it only when its
    caller passes ``merged_case_certified``.
    """
    if not phi1.supercuspidal_packet:
        raise HypothesisViolation("phi1 must carry a supercuspidal packet")
    if phi2.group.form != SKEW or phi2.group.n != phi1.group.n:
        raise HypothesisViolation("phi2 must live on the same skew group as phi1")
    if not phi2.tempered:
        raise HypothesisViolation("phi2 must be tempered")
    if multiplicity_of(phi2, gctx.merge_atom()) < 1:
        raise HypothesisViolation(
            "merged case needs the chi_V chi^(-1) atom inside phi2"
        )
    phi = theta_up1_param(phi2, gctx.up1_recovery())
    return _distinguished_pair(phi1, phi, phi2, gctx, backend)


def main_multiplicity(
    phi1: LParameter,
    phi: LParameter,
    gctx: GGPContext,
    backend: Backend,
    *,
    merged_case_certified: bool = False,
) -> MultiplicityReport:
    """Decide the branching trichotomy and produce the distinguished pair
    (closed forms) or a constructive witness (see-saw transport)."""
    _check_hypotheses(phi1, phi, gctx)
    recorder = RecordingBackend(backend)
    m = multiplicity_of(phi, gctx.chi_w_atom())
    if m == 0:
        return MultiplicityReport(case="Zero", audit=tuple(recorder.calls))
    if m == 1:
        upper, lower, phi2 = closed_form_pair(phi1, phi, gctx, recorder)
        return MultiplicityReport(
            case="One",
            distinguished=(upper, lower),
            recovered_phi2=phi2,
            audit=tuple(recorder.calls),
        )
    phi2 = recover_phi2(phi, gctx)
    if merged_case_certified:
        pair = merged_case_eta(phi1, phi2, gctx, recorder)
        return MultiplicityReport(
            case="One",
            distinguished=pair,
            recovered_phi2=phi2,
            audit=tuple(recorder.calls),
        )
    from .seesaw import seesaw_pairs  # local import: the harness builds on us

    # the transport records its own oracle calls, and nothing before it
    # consulted the oracle
    result = seesaw_pairs(phi1, phi, gctx, backend)
    witness = result.pairs[0] if result.pairs else None
    return MultiplicityReport(
        case="AtLeastOne",
        witness=witness,
        recovered_phi2=phi2,
        audit=tuple(result.trace.oracle_calls),
    )
