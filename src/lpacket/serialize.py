"""Stable JSON views of engine objects.

Signs serialize as "+1"/"-1" strings, characters as exponent maps plus a
slope string, so reports diff cleanly.  Every emitter sorts keys and
never includes wall-clock data; two runs with the same seed are
byte-identical.

Every report that holds a list of rows (packet and theta tables, ggp
audits) is written by ``write_table``, row by row: the text around the
list and one template per row shape come from ``dumps`` itself, so the
bytes are those ``dumps`` would print for the whole payload, in both
layouts, while memory holds one chunk of rows.  ``verify`` reports are
printed by ``dumps``.
"""

from __future__ import annotations

import json
import sys
from itertools import islice
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Dict, Iterable, List, Tuple

from .chars import CharE
from .epsilon import key_texts
from .errors import InvariantViolation
from .params import LParameter, Summand
from .recipe import MultiplicityReport, PacketMember

# the versioned schema of every JSON report
SCHEMA = "ggp-report/2"
# the one text of each sign, and its JSON text, as a row template takes it
SIGN_TEXT = {+1: "+1", -1: "-1"}
SIGN_JSON = {s: json.dumps(text) for s, text in SIGN_TEXT.items()}


def sign_str(s: int) -> str:
    """The text of a sign; anything but +1 or -1 is a broken invariant."""
    try:
        return SIGN_TEXT[s]
    except (KeyError, TypeError):
        raise InvariantViolation(f"sign {s!r} is not +1 or -1") from None


def sign_jsons(values) -> Tuple[str, ...]:
    """``SIGN_JSON`` of each value, one table lookup per value."""
    try:
        return tuple([SIGN_JSON[v] for v in values])
    except (KeyError, TypeError):
        return tuple(map(sign_str, values))  # raises on the bad value


def char_json(mu: CharE) -> Dict:
    return {
        "exponents": {name: e for (name, _g), e in mu.exps},
        "slope": str(mu.slope),
    }


def summand_json(s: Summand) -> Dict:
    return {
        "base": s.base,
        "dim": s.dim,
        "duality": sign_str(s.duality) if s.duality is not None else "none",
        "twist": char_json(s.twist),
        "tempered": s.is_tempered,
        "sl2_trivial": s.sl2_trivial,
    }


def parameter_json(phi: LParameter) -> Dict:
    return {
        "group": {
            "rank": phi.group.n,
            "form": phi.group.form,
            "duality_sign": sign_str(phi.group.duality_sign),
        },
        "blocks": [
            {"summand": summand_json(s), "multiplicity": m}
            for s, m in phi.blocks
        ],
        "dual_pairs": [
            [summand_json(a), summand_json(b)] for a, b in phi.pairs
        ],
        "flags": {
            "tempered": phi.tempered,
            "discrete": phi.discrete,
            "supercuspidal_packet": phi.supercuspidal_packet,
        },
    }


def member_json(member: PacketMember) -> Dict:
    return {
        "parameter": parameter_json(member.parameter),
        "character": [sign_str(v) for v in member.character.values],
        "side": sign_str(member.side),
    }


def report_json(report: MultiplicityReport) -> Dict:
    """A multiplicity report without its audit (see ``write_report``)."""
    out = {
        "schema": SCHEMA,
        "kind": "multiplicity",
        "case": report.case,
    }
    if report.distinguished is not None:
        upper, lower = report.distinguished
        out["distinguished"] = {
            "upper": member_json(upper),
            "lower": member_json(lower),
        }
    if report.witness is not None:
        upper, lower = report.witness
        out["witness"] = {
            "upper": member_json(upper),
            "lower": member_json(lower),
        }
    if report.recovered_phi2 is not None:
        out["recovered_phi2"] = parameter_json(report.recovered_phi2)
    return out


def dumps(payload: Dict, pretty: bool = False) -> str:
    # every payload is a tree built fresh for this call, so json's
    # cycle bookkeeping on each dict and list would find nothing
    if pretty:
        return json.dumps(payload, indent=2, sort_keys=True,
                          check_circular=False)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      check_circular=False)


# rows per write of a streamed table
CHUNK_ROWS = 256
# the stand-in for each value of a row template, and its JSON text
FIELD = "\x00"
_FIELD_JSON = json.dumps(FIELD)


def write_table(payload: Dict, key: str, row: Dict,
                rows: Iterable[tuple], pretty: bool = False) -> None:
    """Write ``payload``, with one row per tuple of ``rows`` as the list
    under ``key``, to stdout: the bytes and final newline that printing
    ``dumps`` of the whole payload gives.

    ``row`` is the shape shared by every row, with ``FIELD`` in place of
    each value; a tuple of ``rows`` holds the values' JSON texts (a
    ``SIGN_JSON``, an ``encode_basestring_ascii`` string, an int) in the
    order their fields appear in the row's sorted-key text.  The head
    around the list goes out with the first chunk of rows: a fault in the
    first chunk leaves stdout empty, a later one leaves a document that
    does not parse.
    """
    head, tail = dumps({**payload, key: [FIELD]}, pretty).split(_FIELD_JSON)
    # a pretty row sits two levels deep
    indent = "\n    " if pretty else ""
    template = (dumps(row, pretty).replace("%", "%%")
                .replace(_FIELD_JSON, "%s").replace("\n", indent))
    sep = "," + indent
    write = sys.stdout.write
    rows = iter(rows)
    text = head
    while chunk := [template % values for values in islice(rows, CHUNK_ROWS)]:
        write(text + sep.join(chunk))
        text = sep
    # an empty list closes where it opens
    write((head.rstrip() + tail.lstrip() if text is head else tail) + "\n")


# the shape of an audit row
AUDIT_ROW = {"count": FIELD, "key": FIELD, "sign": FIELD}


def audit_rows(audit) -> List[tuple]:
    """Per (key, sign, count) of an audit, the JSON texts of its count,
    its key in DSL epsilon syntax and its sign, sorted by key text."""
    rows = sorted(zip(key_texts([key for key, _, _ in audit]),
                      [count for _, _, count in audit],
                      sign_jsons([sign for _, sign, _ in audit])),
                  key=itemgetter(0))
    return [(count, encode_basestring_ascii(text), sign)
            for text, count, sign in rows]


def write_report(report: MultiplicityReport, pretty: bool = False) -> None:
    """Print a multiplicity report, one ``audit_rows`` row per audit key."""
    write_table(report_json(report), "audit", AUDIT_ROW,
                audit_rows(report.audit), pretty)
