"""Command-line interface: packet listing, theta transfers, branching
reports, and the randomized verification suite, all as JSON on stdout.

Exit codes: 0 success, 1 parse/usage diagnostics, 2 hypothesis
violations, 3 verification failures.
"""

from __future__ import annotations

import argparse
import sys

from .component import (
    central_element,
    component_group,
    enumerate_characters,
    evaluate,
)
from .dsl import parse
from .epsilon import make_backend
from .errors import (
    DslSemanticError,
    DslSyntaxError,
    HypothesisViolation,
    LPacketError,
    NotSupercuspidalPacket,
)
from .recipe import GGPContext, main_multiplicity
from .seesaw import run_property_suite
from .serialize import (
    FIELD,
    SCHEMA,
    dumps,
    parameter_json,
    sign_jsons,
    sign_str,
    summand_json,
    write_report,
    write_table,
)
from . import theta as theta_mod


def _load_document(args):
    path = args.input
    if path is None:
        raise LPacketError("this command needs --input FILE")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError:
        raise LPacketError(f"{path} is not UTF-8 text") from None
    return parse(text, identify_chi=args.identify_chi)


def _backend(kind, seed, doc):
    table = doc.table() if kind == "table" else None
    return make_backend(kind, seed, table=table)


# packets have 2^r members: a larger listing is refused before any is built
MAX_LISTED_RANK = 16


def _listable(doc, name):
    phi = doc.parameter(name)
    r = component_group(phi).rank
    if r > MAX_LISTED_RANK:
        raise LPacketError(f"{name} has 2^{r} packet members; lpacket lists "
                           f"at most 2^{MAX_LISTED_RANK}")
    return phi


def cmd_packet(args):
    doc = _load_document(args)
    phi = _listable(doc, args.param)
    group = component_group(phi)
    z = central_element(phi)
    payload = {
        "schema": SCHEMA,
        "kind": "packet",
        "parameter": parameter_json(phi),
        "basis": [summand_json(s) for s in group.basis],
    }
    row = {"character": [FIELD] * group.rank, "side": FIELD}
    rows = (sign_jsons((*eta.values, evaluate(eta, z)))
            for eta in enumerate_characters(group))
    write_table(payload, "members", row, rows, pretty=args.pretty)
    return 0


def cmd_theta(args):
    doc = _load_document(args)
    phi = _listable(doc, args.param)
    gctx = GGPContext.standard(doc.n, doc.base, identify_chi=doc.identify_chi)
    backend = _backend(args.backend, args.seed, doc)
    group = component_group(phi)
    source = [FIELD] * group.rank
    if args.direction == "up1":
        lift = theta_mod.Up1Lift(phi, gctx.up1_recovery())
        target = {"character": [FIELD] * lift.target.rank, "side": FIELD}
        row = {"source": source, "target_+1": target, "target_-1": target}

        def values(eta):
            plus, plus_side = lift.transfer(eta, +1)
            minus, minus_side = lift.transfer(eta, -1)
            return sign_jsons((*eta.values, *plus.values, plus_side,
                               *minus.values, minus_side))
    else:
        ctx = gctx.up2_primary()
        lift = theta_mod.Up2Lift(phi, ctx, backend)
        # the exchange sign does not depend on the character
        eps_prime = sign_str(
            theta_mod.theta_up2_eps_prime(+1, phi, ctx, backend))
        row = {"source": source, "target": [FIELD] * lift.target.rank,
               "form_exchange_sign": eps_prime}

        def values(eta):
            return sign_jsons((*eta.values, *lift.transfer(eta).values))
    payload = {
        "schema": SCHEMA,
        "kind": f"theta-{args.direction}",
        "source": parameter_json(phi),
        "lifted": parameter_json(lift.target),
    }
    rows = map(values, enumerate_characters(group))
    write_table(payload, "characters", row, rows, pretty=args.pretty)
    return 0


def cmd_ggp(args):
    doc = _load_document(args)
    phi1 = doc.parameter(args.phi1)
    phi = doc.parameter(args.phi)
    gctx = GGPContext.standard(doc.n, doc.base, identify_chi=doc.identify_chi)
    backend = _backend(args.backend, args.seed, doc)
    report = main_multiplicity(
        phi1, phi, gctx, backend,
        merged_case_certified=args.merged_case_certified,
    )
    write_report(report, pretty=args.pretty)
    return 0


def cmd_verify(args):
    if args.seeds < 1:
        raise LPacketError("verify needs --seeds 1 or more")
    if args.max_rank < 2:
        raise LPacketError("verify needs --max-rank 2 or more: the even "
                           "parity has no tower rank below 2")
    if args.max_rank + 1 > MAX_LISTED_RANK:
        raise LPacketError(f"verify needs --max-rank {MAX_LISTED_RANK - 1} "
                           "or less: a packet on the rank n+1 side has up "
                           f"to 2^(n+1) members; lpacket lists at most "
                           f"2^{MAX_LISTED_RANK}")
    if args.backend == "table":
        raise LPacketError("verify needs --backend hashed or one: random "
                           "instances use labels no epsilon table covers")
    # the suite builds its own instances and contexts
    if args.input is not None:
        raise LPacketError("verify reads no document: drop --input")
    if args.identify_chi:
        raise LPacketError("verify builds its own contexts: drop "
                           "--identify-chi")
    report = run_property_suite(
        seeds=args.seeds,
        max_rank=args.max_rank,
        parities=("odd", "even"),
        backend_kind=args.backend,
        master_seed=args.seed,
    )
    print(dumps(report, pretty=args.pretty))
    return 0 if report["all_pass"] else 3


def _add_common(parser, suppress):
    # the same flags live on the main parser and on every subcommand, so
    # they are accepted on either side of the subcommand word; the
    # subcommand copies must not clobber values parsed before it
    def dflt(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--input", default=dflt(None), help="DSL document file")
    parser.add_argument("--seed", type=int, default=dflt(0),
                        help="backend/suite seed")
    parser.add_argument("--identify-chi", action="store_true",
                        default=dflt(False),
                        help="identify chi_V and chi_W with powers of chi")
    parser.add_argument("--backend", choices=("hashed", "one", "table"),
                        default=dflt("hashed"))
    parser.add_argument("--pretty", action="store_true", default=dflt(False),
                        help="indented JSON (default: compact)")


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit 1, as diagnostics do; 2 means a hypothesis
    violation.  Subcommand parsers are built from the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# name: (help line, handler, own arguments as (name, add_argument kwargs))
_SUBCOMMANDS = {
    "packet": ("list the packet members", cmd_packet, [("param", {})]),
    "theta": ("theta transfer of a parameter", cmd_theta,
              [("direction", {"choices": ("up1", "up2")}), ("param", {})]),
    "ggp": ("branching multiplicity report", cmd_ggp,
            [("phi1", {}), ("phi", {}),
             ("--merged-case-certified", {
                 "action": "store_true",
                 "help": "certify the irreducible-lifts hypothesis of the "
                         "merged case"})]),
    "verify": ("run the property suite", cmd_verify,
               [("--seeds", {"type": int, "default": 25}),
                ("--max-rank", {"type": int, "default": 5})]),
}


class _FillOnDispatch(argparse._SubParsersAction):
    """Builds a subcommand's parser only when argparse dispatches to it,
    so a request builds the main parser and one subcommand parser, not
    all five.  ``add_choice`` lists a name and its help line as a choice,
    with ``None`` in the name map until the first dispatch to that name
    puts its filled parser there; a later dispatch reuses it."""

    def add_choice(self, name, help_line):
        self._choices_actions.append(
            self._ChoicesPseudoAction(name, (), help_line))
        self._name_parser_map[name] = None

    def __call__(self, parser, namespace, values, option_string=None):
        name = values[0]
        if self._name_parser_map[name] is None:
            _, func, own = _SUBCOMMANDS[name]
            sub = self._parser_class(prog=f"{self._prog_prefix} {name}")
            for arg, kwargs in own:
                sub.add_argument(arg, **kwargs)
            _add_common(sub, suppress=True)
            sub.set_defaults(func=func)
            self._name_parser_map[name] = sub
        super().__call__(parser, namespace, values, option_string)


def build_parser():
    parser = _ArgumentParser(
        prog="lpacket",
        description="Component-group and theta-transfer calculus for "
        "unitary-group parameter packets",
    )
    _add_common(parser, suppress=False)
    parser.register("action", "parsers", _FillOnDispatch)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _, _) in _SUBCOMMANDS.items():
        sub.add_choice(name, help_line)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DslSyntaxError, DslSemanticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (HypothesisViolation, NotSupercuspidalPacket) as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 2
    except (LPacketError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
