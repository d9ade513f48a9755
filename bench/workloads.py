"""Seeded request generators for the benchmark workloads.

Every request is one ``lpacket`` CLI command.  Request ``k`` of a run is
built from ``(workload, seed, k)`` alone, so the same seed always gives
byte-identical documents and arguments, and a run may extend its request
stream without changing the requests already made.

The size and mix of request ``k`` (tower rank, case, flags, command)
follow a fixed schedule that does not depend on the seed; the seed picks
the content: twists, atom dimensions (only their order on ggp-tower),
omega(-1) and backend seeds.
Runs with different seeds therefore carry the same amount of work, which
keeps their medians comparable.  Atom labels carry the request index, so
no label is shared between two requests of a run: a cache can only pay
off inside one request, as for a user who starts a new process for every
command.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

WORKLOADS = ("ggp-tower", "theta-table", "verify")

# ggp-tower: tower ranks 20-61 of phi1, each once per 42 requests
GGP_RANKS = tuple(random.Random("ggp-tower/ranks").sample(range(20, 62), 42))
# most requests are case One; the chi_W-multiplicity-2 rest are split
# between the certified merged case and the see-saw witness (AtLeastOne)
GGP_CASES = ("One", "One", "merged", "One", "One", "AtLeastOne")

# theta-table: each command at each component-group rank once per 15
THETA_RANKS = (6, 7, 8, 9, 10)
THETA_COMMANDS = ("up1", "up2", "packet")

# verify: property-suite seeds per request (instances = checks x 2 x seeds)
VERIFY_SEEDS = 2

# requests after which a workload's schedule repeats
PERIOD = {
    "ggp-tower": len(GGP_RANKS),
    "theta-table": len(THETA_COMMANDS) * len(THETA_RANKS),
    "verify": 1,
}


@dataclass(frozen=True)
class Request:
    """One CLI command.  ``document`` is the DSL text the command reads
    through ``--input`` (None when it reads none); ``args`` are the CLI
    arguments that follow ``--input PATH``; ``expect`` is what the output
    checks need to know about the request."""

    index: int
    document: Optional[str]
    args: Tuple[str, ...]
    expect: Tuple[Tuple[str, object], ...]

    def expected(self) -> Dict[str, object]:
        return dict(self.expect)


def _content_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def _required(rank: int) -> int:
    """Duality sign the standard group of this rank requires."""
    return +1 if rank % 2 == 1 else -1


def _sign_text(sign: int) -> str:
    return "+" if sign > 0 else "-"


class _Characters:
    """Character monomials of one document: the built-in generators chi,
    chi_V, chi_W with their grades at tower rank n, or chi alone when the
    request identifies chi_V = chi^(n+2) and chi_W = chi^n."""

    def __init__(self, n: int, identify: bool):
        self.identify = identify
        if identify:
            self.grades = {"chi": 1}
            self.chi_w = (("chi", n),)
        else:
            self.grades = {"chi": 1, "chi_V": n % 2, "chi_W": n % 2}
            self.chi_w = (("chi_W", 1),)

    def random(self, rng: random.Random) -> Tuple[Tuple[str, int], ...]:
        if self.identify:
            e = rng.randint(-2, 2)
            return (("chi", e),) if e else ()
        exps = ((name, rng.choice((-1, 0, 0, 1))) for name in self.grades)
        return tuple((name, e) for name, e in exps if e)

    def grade(self, mu: Tuple[Tuple[str, int], ...]) -> int:
        return sum(e * self.grades[name] for name, e in mu) % 2

    @staticmethod
    def text(mu: Tuple[Tuple[str, int], ...]) -> str:
        return "*".join(name if e == 1 else f"{name}^{e}" for name, e in mu)


def _atom_line(label: str, dim: int, base_sign: Optional[int],
               mu: Tuple[Tuple[str, int], ...], pair: bool = False) -> str:
    twist = _Characters.text(mu)
    head = f"{label}*{twist}" if twist else label
    sign = "none" if base_sign is None else _sign_text(base_sign)
    prefix = "pair " if pair else ""
    return f"  {prefix}{head} dim {dim} sign {sign} tempered sl2triv;"


def _same_type_atoms(rng: random.Random, chars: _Characters, prefix: str,
                     total: int, required: int) -> List[str]:
    """Opaque atoms filling dimension ``total``, each with the base sign
    that makes its twisted effective sign equal ``required``.  ``total // 3``
    atoms have dimension 2 and the rest dimension 1, in an order the seed
    picks: the number of blocks, which sets the cost, is the same for
    every seed."""
    twos = total // 3
    dims = [2] * twos + [1] * (total - 2 * twos)
    rng.shuffle(dims)
    lines = []
    for i, dim in enumerate(dims):
        mu = chars.random(rng)
        base_sign = required * (-1 if chars.grade(mu) else +1)
        lines.append(_atom_line(f"{prefix}{i}", dim, base_sign, mu))
    return lines


def _supercuspidal_param(rng: random.Random, chars: _Characters, name: str,
                         prefix: str, rank: int) -> str:
    lines = [f"param {name} on U(W,{rank},{_sign_text(_required(rank))}) "
             "supercuspidal {"]
    lines += _same_type_atoms(rng, chars, prefix, rank, _required(rank))
    lines.append("}")
    return "\n".join(lines)


def _ggp_request(seed: int, index: int) -> Request:
    n = GGP_RANKS[index % len(GGP_RANKS)]
    case = GGP_CASES[index % len(GGP_CASES)]
    # a quarter of the requests, spread evenly over the cases
    identify = (index + index // len(GGP_CASES)) % 4 == 3

    rng = _content_rng("ggp-tower", seed, index)
    chars = _Characters(n, identify)
    omega = rng.choice((+1, -1))
    phi1 = _supercuspidal_param(rng, chars, "phi1", f"a{index}_", n)

    rank = n + 1
    required = _required(rank)
    mult = 1 if case == "One" else 2
    chi_w = _Characters.text(chars.chi_w)
    lines = [f"param phi on U(V,{rank},{_sign_text(required)}) tempered {{",
             f"  char {chi_w} mult {mult};" if mult > 1 else f"  char {chi_w};"]
    remaining = rank - mult
    # a third of the requests hold a dual pair
    if index % 3 == 1:
        lines.append(_atom_line(f"p{index}_", 1, None, chars.random(rng),
                                pair=True))
        remaining -= 2
    # zero to two distinct character atoms of the required type besides
    # chi_W; there are at least two in either character system
    seen = {chars.chi_w, ()}
    char_grade = 0 if required == +1 else 1
    while len(seen) - 2 < index // 3 % 3:
        mu = chars.random(rng)
        if mu not in seen and chars.grade(mu) == char_grade:
            seen.add(mu)
            lines.append(f"  char {_Characters.text(mu)};")
            remaining -= 1
    lines += _same_type_atoms(rng, chars, f"b{index}_", remaining, required)
    lines.append("}")

    document = "\n".join([
        f"# ggp-tower request {index}, seed {seed}",
        f"base {{ omega_minus_one = {_sign_text(omega)}1; n = {n}; "
        "identify_chi = false; }",
        phi1,
        "\n".join(lines),
    ]) + "\n"
    backend_seed = rng.randrange(2 ** 31)
    args = ["--seed", str(backend_seed)]
    if identify:
        args.append("--identify-chi")
    args += ["ggp", "phi1", "phi"]
    if case == "merged":
        args.append("--merged-case-certified")
    expect = (("case", "AtLeastOne" if case == "AtLeastOne" else "One"),
              ("identify", identify), ("backend_seed", backend_seed))
    return Request(index, document, tuple(args), expect)


def _theta_request(seed: int, index: int) -> Request:
    command = THETA_COMMANDS[index % len(THETA_COMMANDS)]
    r = THETA_RANKS[index // len(THETA_COMMANDS) % len(THETA_RANKS)]

    rng = _content_rng("theta-table", seed, index)
    # component-group rank r: r opaque blocks of dimension 1-2
    dims = [rng.randint(1, 2) for _ in range(r)]
    n = sum(dims)
    chars = _Characters(n, identify=False)
    omega = rng.choice((+1, -1))
    lines = [f"param P on U(W,{n},{_sign_text(_required(n))}) supercuspidal {{"]
    for i, dim in enumerate(dims):
        mu = chars.random(rng)
        base_sign = _required(n) * (-1 if chars.grade(mu) else +1)
        lines.append(_atom_line(f"t{index}_{i}", dim, base_sign, mu))
    lines.append("}")
    document = "\n".join([
        f"# theta-table request {index}, seed {seed}",
        f"base {{ omega_minus_one = {_sign_text(omega)}1; n = {n}; "
        "identify_chi = false; }",
        "\n".join(lines),
    ]) + "\n"
    if command == "packet":
        args = ("packet", "P")
    else:
        args = ("--seed", str(rng.randrange(2 ** 31)), "theta", command, "P")
    return Request(index, document, args,
                   (("command", command), ("rows", 2 ** r)))


def _verify_request(seed: int, index: int) -> Request:
    rng = _content_rng("verify", seed, index)
    master = rng.randrange(10 ** 6)
    args = ("verify", "--seeds", str(VERIFY_SEEDS), "--seed", str(master))
    return Request(index, None, args, (("seeds", VERIFY_SEEDS),))


_MAKERS = {
    "ggp-tower": _ggp_request,
    "theta-table": _theta_request,
    "verify": _verify_request,
}


def make_request(workload: str, seed: int, index: int) -> Request:
    """Request ``index`` of ``workload`` under ``seed``."""
    return _MAKERS[workload](seed, index)
