"""Independent see-saw transport oracle and randomized property suites.

``seesaw_pairs`` rebuilds the distinguished pair without ever touching
the closed-form recipes: it recovers the lower skew parameter, applies
the equal-rank skew branching recipe to (dual of recovered, phi1), and
transports the resulting pair through one see-saw diagram of the
codimension-2 (upper) and codimension-1 (lower) theta transfers.  Even
tower rank is the dual of that diagram: it runs on the dual sources and
dualizes both lifted members at the end, so parity is decided once when
the sources are chosen and once at that final dualization.  Every step
and every oracle consultation is recorded in a trace, and replaying the
trace with the same backend is deterministic.

``run_property_suite`` executes the engine's exact invariants over
seeded random instances and reports pass/fail with reproduction seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from .chars import BaseFieldData, CharE, conj_dual_sign
from .component import (
    central_element,
    component_group,
    contragredient_char,
    enumerate_characters,
    evaluate,
    nu_twist,
    packet_side,
)
from .epsilon import Backend, PsiTag, RecordingBackend, eps_half, make_backend
from .errors import HypothesisViolation, InvariantViolation, LPacketError
from .params import (
    HERMITIAN,
    SKEW,
    GroupTag,
    LParameter,
    Summand,
    char_atom,
    contragredient,
    mk_parameter,
    multiplicity_of,
    tensor_twist,
)
from .recipe import (
    GGPContext,
    PacketMember,
    _check_hypotheses,
    closed_form_pair,
    fj_eta,
    main_multiplicity,
    merged_case_eta,
    recover_phi2,
)
from .serialize import SCHEMA
from . import theta as theta_mod


@dataclass
class SeesawTrace:
    steps: List[Tuple[str, str]] = field(default_factory=list)
    # (key, sign, count) per distinct key, in first-consultation order
    oracle_calls: List[Tuple[object, int, int]] = field(default_factory=list)

    def record(self, name: str, payload: object = "") -> None:
        self.steps.append((name, str(payload)))


@dataclass
class SeesawResult:
    pairs: Tuple[Tuple[PacketMember, PacketMember], ...]
    trace: SeesawTrace


def seesaw_pairs(
    phi1: LParameter,
    phi: LParameter,
    gctx: GGPContext,
    backend: Backend,
) -> SeesawResult:
    """Candidate pairs with a nonzero branching functional, by transport.

    Returns the empty set exactly when phi does not contain the chi_W
    atom, and a singleton otherwise.  Uses only the branching recipe of
    the equal-rank skew problem and the two theta transfers, in one
    diagram: for odd n it lifts phi1 up two ranks and the recovered phi2
    up one; even n is its dual, lifting the duals of phi1 and phi2
    through the dual contexts and dualizing both lifted members back.
    """
    _check_hypotheses(phi1, phi, gctx)
    trace = SeesawTrace()
    rec = RecordingBackend(backend)
    n = phi1.group.n
    base = gctx.base

    if multiplicity_of(phi, gctx.chi_w_atom()) == 0:
        trace.record("chi_W-absent", "empty candidate set")
        return SeesawResult((), trace)

    phi2 = recover_phi2(phi, gctx)
    trace.record("recover", phi2)
    phi2_dual = contragredient(phi2)

    eta_d, eta_h = fj_eta(phi2_dual, phi1, n, gctx.chi, rec)
    side_d = packet_side(eta_d, phi2_dual)
    side_h = packet_side(eta_h, phi1)
    if side_d != side_h:
        raise AssertionError(
            "engine invariant broken: base-case members landed on "
            "different pure inner forms"
        )
    eps_base = side_h
    trace.record("base-recipe", f"side {eps_base:+d}")

    up1 = gctx.up1_recovery()
    up2 = gctx.up2_primary()
    even = n % 2 == 0
    if even:
        up1, up2 = up1.dual(), up2.dual()
        upper_src = contragredient(phi1)
        eta_upper_src = contragredient_char(eta_h, phi1, base)
        lower_src, eta_lower_src = phi2_dual, eta_d
        trace.record("dualize-base", upper_src)
    else:
        upper_src, eta_upper_src = phi1, eta_h
        lower_src = phi2
        eta_lower_src = contragredient_char(eta_d, phi2_dual, base)
        trace.record("dualize-base", lower_src)

    eps_top = theta_mod.theta_up2_eps_prime(eps_base, upper_src, up2, rec)
    trace.record("exchange-sign", f"{eps_top:+d}")

    upper_lift = theta_mod.Up2Lift(upper_src, up2, rec)
    upper_param = upper_lift.target
    eta_upper = upper_lift.transfer(eta_upper_src)
    lower_lift = theta_mod.Up1Lift(lower_src, up1)
    lower_param = lower_lift.target
    eta_lower, side_lifted = lower_lift.transfer(eta_lower_src, eps_top)
    trace.record("lift", f"side {side_lifted:+d}")

    if even:
        eta_upper = contragredient_char(eta_upper, upper_param, base)
        upper_param = contragredient(upper_param)
        eta_lower = contragredient_char(eta_lower, lower_param, base)
        lower_param = contragredient(lower_param)
        trace.record("dualize-lifts")

    if lower_param != phi:
        raise AssertionError(
            "engine invariant broken: transported lower parameter "
            "differs from the input"
        )
    upper = PacketMember(upper_param, eta_upper)
    lower = PacketMember(phi, eta_lower)
    if lower.side != side_lifted:
        raise AssertionError(
            "engine invariant broken: the lower member left the pure inner "
            "form its transfer chose"
        )
    if upper.side != eps_top:
        raise AssertionError(
            "engine invariant broken: upper transfer missed the exchanged form"
        )
    if upper.side != lower.side:
        raise AssertionError(
            "engine invariant broken: transported members landed on "
            "different pure inner forms"
        )

    pair = (upper, lower)
    trace.oracle_calls = list(rec.calls)
    trace.record("final", "singleton candidate set")
    return SeesawResult((pair,), trace)


# -- randomized instances -------------------------------------------------------


OPAQUE_SAME = ("A", "B", "C", "D", "E")


@dataclass
class Instance:
    seed: int
    n: int
    gctx: GGPContext
    backend: Backend
    phi1: LParameter
    phi: LParameter

    @cached_property
    def transport(self) -> SeesawResult:
        """The see-saw result, computed once and shared by the checks that
        read it (``trace-replay-determinism`` compares it with one fresh
        run); a transport that raises is not cached, so it raises again
        for every such check."""
        return seesaw_pairs(self.phi1, self.phi, self.gctx, self.backend)


def _random_char(rng: random.Random, gctx: GGPContext, grade: Optional[int] = None,
                 avoid: Sequence[CharE] = ()) -> CharE:
    """A small random character monomial, optionally of a fixed grade."""
    gens = [gctx.chi, gctx.chi_V, gctx.chi_W]
    for _ in range(40):
        mu = CharE.one()
        for g in gens:
            e = rng.choice((-1, 0, 0, 1))
            if e:
                mu = mu * (g ** e)
        if grade is not None and mu.grade != grade:
            continue
        if any(mu == bad for bad in avoid):
            continue
        return mu
    # fall back to a guaranteed representative
    mu = CharE.one() if grade in (None, 0) else gctx.chi
    return mu


def _opaque_atom(rng: random.Random, gctx: GGPContext, label: str, dim: int,
                 required: int) -> Summand:
    """An opaque summand under a random twist, its bare sign chosen so
    that the twisted summand has the sign ``required`` (``Summand.duality``
    inverted)."""
    tw = _random_char(rng, gctx)
    return Summand(label, dim, required * conj_dual_sign(tw), tw)


def _random_phi1(rng: random.Random, n: int, gctx: GGPContext) -> LParameter:
    """A supercuspidal-packet parameter: distinct opaque atoms, mult one."""
    group = GroupTag.standard(n, SKEW)
    required = group.duality_sign
    dims: List[int] = []
    remaining = n
    while remaining and len(dims) < len(OPAQUE_SAME):
        d = rng.randint(1, min(3, remaining))
        if len(dims) == len(OPAQUE_SAME) - 1:
            d = remaining
        dims.append(d)
        remaining -= d
    blocks = [_opaque_atom(rng, gctx, label, d, required)
              for label, d in zip(OPAQUE_SAME, dims)]
    return mk_parameter(blocks, group, supercuspidal_packet=True)


def _random_phi(
    rng: random.Random,
    n: int,
    gctx: GGPContext,
    chi_w_mult: int,
) -> LParameter:
    """A tempered parameter of the rank n+1 Hermitian group containing the
    chi_W atom with exactly the requested multiplicity."""
    target = n + 1
    group = GroupTag.standard(target, HERMITIAN)
    required = group.duality_sign
    chi_w = gctx.chi_w_atom()
    blocks: List[Tuple[Summand, int]] = []
    pairs: List[Summand] = []
    remaining = target - chi_w_mult
    if chi_w_mult:
        blocks.append((chi_w, chi_w_mult))

    # optional dual-pair block (kept small)
    if remaining >= 2 and rng.random() < 0.35:
        if rng.random() < 0.5:
            member = Summand("P", 1, None, _random_char(rng, gctx))
        else:
            kappa = _random_char(rng, gctx, grade=(0 if required == -1 else 1))
            member = char_atom(kappa)
        pairs.append(member)
        remaining -= 2

    counter = 0
    while remaining:
        d = rng.randint(1, min(2, remaining))
        if rng.random() < 0.4 and d == 1:
            existing = [a.twist for a, _ in blocks if a.is_char_atom]
            kappa = _random_char(
                rng, gctx,
                grade=(1 if required == -1 else 0),
                avoid=[gctx.chi_W] + existing,
            )
            atom = char_atom(kappa)
            if any(a == atom for a, _ in blocks):
                continue
        else:
            counter += 1
            atom = _opaque_atom(rng, gctx, f"X{counter}", d, required)
        blocks.append((atom, 1))
        remaining -= d

    return mk_parameter(blocks, group, pairs=pairs)


def _random_rank(rng: random.Random, parity: str, max_rank: int) -> int:
    ranks = [k for k in range(1, max_rank + 1)
             if (k % 2 == 1) == (parity == "odd")]
    if not ranks:
        raise HypothesisViolation(f"no {parity} tower rank <= {max_rank}")
    return rng.choice(ranks)


def random_instance(
    seed: int,
    parity: str = "odd",
    max_rank: int = 5,
    backend_kind: str = "hashed",
    chi_w_mult: Optional[int] = None,
) -> Instance:
    """Deterministic random problem instance for the given seed."""
    rng = random.Random(seed)
    n = _random_rank(rng, parity, max_rank)
    base = BaseFieldData(rng.choice((+1, -1)))
    identify = rng.random() < 0.25
    gctx = GGPContext.standard(n, base, identify_chi=identify)
    if chi_w_mult is None:
        chi_w_mult = rng.choice((0, 1, 1, 2))
    phi1 = _random_phi1(rng, n, gctx)
    phi = _random_phi(rng, n, gctx, chi_w_mult)
    backend = make_backend(backend_kind, seed)
    return Instance(seed, n, gctx, backend, phi1, phi)


def merged_instance(seed: int, parity: str = "odd", max_rank: int = 5,
                    backend_kind: str = "hashed") -> Instance:
    """Instance whose lower parameter holds the merge atom once, so the
    transferred parameter contains chi_W with multiplicity two."""
    rng = random.Random(seed)
    n = _random_rank(rng, parity, max_rank)
    base = BaseFieldData(rng.choice((+1, -1)))
    gctx = GGPContext.standard(n, base)
    phi1 = _random_phi1(rng, n, gctx)

    group = GroupTag.standard(n, SKEW)
    required = group.duality_sign
    merge = gctx.merge_atom()
    blocks: List[Tuple[Summand, int]] = [(merge, 1)]
    remaining = n - 1
    counter = 0
    while remaining:
        counter += 1
        d = rng.randint(1, remaining)
        blocks.append((_opaque_atom(rng, gctx, f"M{counter}", d, required), 1))
        remaining -= d
    phi2 = mk_parameter(blocks, group)
    phi = theta_mod.theta_up1_param(phi2, gctx.up1_recovery())
    backend = make_backend(backend_kind, seed)
    return Instance(seed, n, gctx, backend, phi1, phi)


# -- property suite -------------------------------------------------------------


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InvariantViolation(message)


def _check_packet_counts(inst: Instance) -> None:
    for phi in (inst.phi1, inst.phi):
        group = component_group(phi)
        chars = list(enumerate_characters(group))
        _require(len(chars) == 2 ** group.rank, "packet size is not 2^rank")
        _require(len(set(chars)) == len(chars), "packet characters repeat")
        z = central_element(phi)
        plus = sum(1 for c in chars if evaluate(c, z) == +1)
        expected = len(chars) if z.is_identity else len(chars) // 2
        _require(plus == expected, f"{plus} members on +1, not {expected}")


def _check_normal_form(inst: Instance) -> None:
    rng = random.Random(inst.seed + 7)
    phi = inst.phi
    blocks = list(phi.blocks)
    rng.shuffle(blocks)
    rebuilt = mk_parameter(
        blocks, phi.group, pairs=[a for a, _ in phi.pairs],
        supercuspidal_packet=phi.supercuspidal_packet,
    )
    _require(rebuilt == phi, "shuffled blocks give another normal form")


def _check_twist_multiplicativity(inst: Instance) -> None:
    rng = random.Random(inst.seed + 11)
    mu = _random_char(rng, inst.gctx)
    phi = inst.phi
    twisted = tensor_twist(phi, mu)
    for s, m in phi.blocks:
        _require(multiplicity_of(twisted, s.twisted(mu)) == m, f"{s} moved")
    _require(tensor_twist(twisted, mu.inverse()) == phi, "untwist differs")


def _check_contragredient_involution(inst: Instance) -> None:
    for phi in (inst.phi1, inst.phi):
        _require(contragredient(contragredient(phi)) == phi, "not involutive")


def _check_nu_involution(inst: Instance) -> None:
    group = component_group(inst.phi)
    for eta in enumerate_characters(group):
        twice = nu_twist(nu_twist(eta, inst.phi, inst.gctx.base),
                         inst.phi, inst.gctx.base)
        _require(twice == eta, "the nu twist is not an involution")


def _check_up1_shape(inst: Instance) -> None:
    ctx = inst.gctx.up1_recovery()
    phi1 = inst.phi1
    lifted = theta_mod.theta_up1_param(phi1, ctx)
    _require(lifted.dim() == phi1.dim() + 1, "up1 lift has a wrong dimension")
    _require(lifted.group.is_canonical, "up1 lift is off the standard group")
    contains_role = any(
        s == char_atom(ctx.chi_V_role) for s, _ in phi1.blocks
    )
    expected = phi1.rank if contains_role else phi1.rank + 1
    _require(lifted.rank == expected, f"up1 lift rank is not {expected}")


def _check_up2_shape(inst: Instance) -> None:
    ctx = inst.gctx.up2_primary()
    phi1 = inst.phi1
    if inst.n % 2 == 0:
        ctx, phi1 = ctx.dual(), contragredient(phi1)
    lifted = theta_mod.theta_up2_param(phi1, ctx)
    _require(lifted.dim() == phi1.dim() + 2, "up2 lift has a wrong dimension")
    _require(lifted.group.is_canonical, "up2 lift is off the standard group")
    _require(lifted.rank == phi1.rank, "up2 lift changed the rank")
    _require(not lifted.tempered, "up2 lift is tempered")


def _check_restrict_roundtrip(inst: Instance) -> None:
    phi1 = inst.phi1
    lift = theta_mod.Up1Lift(phi1, inst.gctx.up1_recovery())
    for eta in enumerate_characters(component_group(phi1)):
        for side in (+1, -1):
            lifted, _ = lift.transfer(eta, side)
            back = lift.restrict(lifted)
            _require(back == eta, f"{eta.values} side {side:+d} moved")


def _check_up1_bijection(inst: Instance) -> None:
    phi1 = inst.phi1
    lift = theta_mod.Up1Lift(phi1, inst.gctx.up1_recovery())
    merged = lift.target.rank == phi1.rank
    group = component_group(phi1)
    for side in (+1, -1):
        seen = set()
        for eta in enumerate_characters(group):
            out, got = lift.transfer(eta, side)
            seen.add((out.values, got))
        _require(len(seen) == 2 ** group.rank, f"side {side:+d}: not 1-1")
        if not merged:
            _require(all(s == side for _, s in seen), f"missed {side:+d}")


def _check_up2_bijection(inst: Instance) -> None:
    phi1 = inst.phi1
    lift = theta_mod.Up2Lift(phi1, inst.gctx.up2_primary(), inst.backend)
    group = component_group(phi1)
    images = set()
    for eta in enumerate_characters(group):
        images.add(lift.transfer(eta).values)
    _require(len(images) == 2 ** group.rank, "up2 transfer is not injective")


def _check_eps_biadditivity(inst: Instance) -> None:
    tag = PsiTag.PSI_NEG2E
    backend = inst.backend
    phi1, phi = inst.phi1, inst.phi
    whole = eps_half(phi1, phi, tag, backend)
    split = 1
    for s, m in list(phi1.blocks) + [(a, 1) for p in phi1.pairs for a in p]:
        split *= eps_half([(s, m)], phi, tag, backend)
    _require(whole == split, "eps_half is not biadditive")


def _check_base_side_consistency(inst: Instance) -> None:
    if multiplicity_of(inst.phi, inst.gctx.chi_w_atom()) == 0:
        return
    phi2 = recover_phi2(inst.phi, inst.gctx)
    phi2_dual = contragredient(phi2)
    eta_d, eta_h = fj_eta(phi2_dual, inst.phi1, inst.n, inst.gctx.chi,
                          inst.backend)
    same = packet_side(eta_d, phi2_dual) == packet_side(eta_h, inst.phi1)
    _require(same, "base-case members on different forms")


def _check_central_value_identity(inst: Instance) -> None:
    for upper, lower in inst.transport.pairs:
        zu = evaluate(upper.character, central_element(upper.parameter))
        zl = evaluate(lower.character, central_element(lower.parameter))
        _require(zu == zl, "the members' central values differ")


def _check_trichotomy_zero(inst: Instance) -> None:
    m = multiplicity_of(inst.phi, inst.gctx.chi_w_atom())
    result = inst.transport
    report = main_multiplicity(inst.phi1, inst.phi, inst.gctx, inst.backend)
    _require((m == 0) == (report.case == "Zero"), f"case {report.case}")
    _require((m == 0) == (len(result.pairs) == 0), "see-saw pair count")


def _check_agreement(inst: Instance) -> None:
    if multiplicity_of(inst.phi, inst.gctx.chi_w_atom()) != 1:
        return
    upper, lower, _ = closed_form_pair(
        inst.phi1, inst.phi, inst.gctx, inst.backend
    )
    result = inst.transport
    _require(len(result.pairs) == 1, "the see-saw pair is not unique")
    got_upper, got_lower = result.pairs[0]
    _require(got_upper == upper, "upper members differ")
    _require(got_lower == lower, "lower members differ")


def _check_merged_agreement(inst: Instance) -> None:
    phi2 = recover_phi2(inst.phi, inst.gctx)
    pair = merged_case_eta(inst.phi1, phi2, inst.gctx, inst.backend)
    result = inst.transport
    _require(len(result.pairs) == 1, "the see-saw pair is not unique")
    _require(result.pairs[0] == pair, "merged-case pairs differ")


def _check_trace_replay(inst: Instance) -> None:
    """The shared transport against one fresh run: a step that reads
    per-process state makes the two traces differ.  The fresh run shares
    the parameters memoized on the instance (recovered phi2, theta
    transfers, contragredients), so what it still compares is a second
    transport run, with its own lifts, that reads the backend again: its
    pairs, its trace steps and its oracle calls."""
    first = inst.transport
    second = seesaw_pairs(inst.phi1, inst.phi, inst.gctx, inst.backend)
    _require(first.pairs == second.pairs, "replayed pairs differ")
    _require(first.trace.steps == second.trace.steps, "replayed steps differ")
    same = first.trace.oracle_calls == second.trace.oracle_calls
    _require(same, "replayed oracle calls differ")


CHECKS = (
    ("packet-counts", _check_packet_counts),
    ("normal-form-determinism", _check_normal_form),
    ("twist-multiplicativity", _check_twist_multiplicativity),
    ("contragredient-involution", _check_contragredient_involution),
    ("nu-involution", _check_nu_involution),
    ("theta-up1-shape", _check_up1_shape),
    ("theta-up2-shape", _check_up2_shape),
    ("restrict-roundtrip", _check_restrict_roundtrip),
    ("theta-up1-bijection", _check_up1_bijection),
    ("theta-up2-bijection", _check_up2_bijection),
    ("epsilon-biadditivity", _check_eps_biadditivity),
    ("base-side-consistency", _check_base_side_consistency),
    ("central-value-identity", _check_central_value_identity),
    ("trichotomy-zero", _check_trichotomy_zero),
    ("recipe-seesaw-agreement", _check_agreement),
    ("merged-case-agreement", _check_merged_agreement),
    ("trace-replay-determinism", _check_trace_replay),
)


def _attempt(fn, *args, **kwargs):
    """``fn``'s result, or the engine or invariant error it raised."""
    try:
        return fn(*args, **kwargs)
    except (AssertionError, LPacketError) as exc:
        return exc


def run_property_suite(
    seeds: int = 25,
    max_rank: int = 5,
    parities: Sequence[str] = ("odd", "even"),
    backend_kind: str = "hashed",
    master_seed: int = 0,
) -> Dict:
    """Execute every cross-module invariant on seeded random instances,
    built once per (parity, seed) and shared by the checks.  The checks
    that read the see-saw transport share one run per instance
    (``Instance.transport``); ``trace-replay-determinism`` compares that
    run with one fresh run of its own.

    Failures never raise; they become report entries carrying the seed
    that reproduces them (a failed build, for each check that needed it).
    The report is deterministic for fixed inputs.
    """
    results = [{"check": name, "instances": 0, "failures": []}
               for name, _ in CHECKS]
    for parity in parities:
        for k in range(seeds):
            seed = (master_seed * 1_000_003 + k) * 2 + (parity == "even")
            plain = _attempt(random_instance, seed, parity, max_rank,
                             backend_kind)
            merged = _attempt(merged_instance, seed, parity, max_rank,
                              backend_kind)
            for entry, (name, check) in zip(results, CHECKS):
                inst = merged if name == "merged-case-agreement" else plain
                error = inst if isinstance(inst, Exception) else None
                if error is None:
                    entry["instances"] += 1
                    error = _attempt(check, inst)
                if error is not None:
                    entry["failures"].append({
                        "seed": seed,
                        "parity": parity,
                        "message": str(error) or error.__class__.__name__,
                    })
    all_pass = all(not entry["failures"] for entry in results)
    return {
        "schema": SCHEMA,
        "kind": "verification",
        "config": {
            "seeds": seeds,
            "max_rank": max_rank,
            "parities": list(parities),
            "backend": backend_kind,
            "master_seed": master_seed,
        },
        "results": results,
        "all_pass": all_pass,
    }
