"""Stable JSON views of engine objects.

Signs serialize as "+1"/"-1" strings, characters as exponent maps plus a
slope string, so reports diff cleanly.  Every emitter sorts keys and
never includes wall-clock data; two runs with the same seed are
byte-identical.

Reports are built whole and printed by ``dumps``.  The 2^r-row tables
(packets and theta transfers) are written by ``write_table`` as their
rows are computed: the text around the row list and one template per
row shape come from ``dumps`` itself, so the bytes are those ``dumps``
would print for the whole payload, in both layouts, while memory holds
one chunk of rows.
"""

from __future__ import annotations

import json
import sys
from itertools import islice
from operator import itemgetter
from typing import Dict, Iterable, List, Tuple

from .chars import CharE
from .epsilon import key_texts
from .errors import InvariantViolation
from .params import LParameter, Summand
from .recipe import MultiplicityReport, PacketMember

# the versioned schema of every JSON report
SCHEMA = "ggp-report/2"
# the one text of each sign
SIGN_TEXT = {+1: "+1", -1: "-1"}


def sign_str(s: int) -> str:
    """The text of a sign; anything but +1 or -1 is a broken invariant."""
    try:
        return SIGN_TEXT[s]
    except (KeyError, TypeError):
        raise InvariantViolation(f"sign {s!r} is not +1 or -1") from None


def sign_strs(values) -> List[str]:
    """``sign_str`` of each value, one table lookup per value."""
    try:
        return [SIGN_TEXT[v] for v in values]
    except (KeyError, TypeError):
        return [sign_str(v) for v in values]  # raises on the bad value


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
        "character": sign_strs(member.character.values),
        "side": sign_str(member.side),
    }


def audit_json(audit) -> list:
    """One row per distinct key of an audit of (key, sign, count) triples,
    the key in DSL epsilon syntax, sorted by that text."""
    texts = key_texts([key for key, _, _ in audit])
    rows = [{"count": count, "key": text, "sign": sign_str(value)}
            for text, (_, value, count) in zip(texts, audit)]
    rows.sort(key=itemgetter("key"))
    return rows


def report_json(report: MultiplicityReport) -> Dict:
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
    out["audit"] = audit_json(report.audit)
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
                rows: Iterable[Tuple[int, ...]], pretty: bool = False) -> None:
    """Write ``payload``, with one row per tuple of ``rows`` as the list
    under ``key``, to stdout: the bytes and final newline that printing
    ``dumps`` of the whole payload gives.

    ``row`` is the shape shared by every row, with ``FIELD`` in place of
    each sign; a tuple of ``rows`` holds the signs in the order their
    fields appear in the row's sorted-key text, each written by
    ``sign_strs``; a table has at least one row.  The text around
    the list and the row template are rendered before ``rows`` is
    consumed, and that head goes out with the first chunk of rows: a
    fault in the first chunk leaves stdout empty, a later one leaves a
    document that does not parse.
    """
    head, tail = dumps({**payload, key: [FIELD]}, pretty).split(_FIELD_JSON)
    # a pretty row sits two levels deep
    indent = "\n    " if pretty else ""
    template = (dumps(row, pretty).replace("%", "%%")
                .replace(_FIELD_JSON, '"%s"').replace("\n", indent))
    sep = "," + indent
    write = sys.stdout.write
    rows = iter(rows)
    text = head
    while chunk := [template % tuple(sign_strs(signs))
                    for signs in islice(rows, CHUNK_ROWS)]:
        write(text + sep.join(chunk))
        text = sep
    write(tail + "\n")
