"""Output checks and the sign digest.

Each check takes a request and the text the command printed, and returns
the list of problems found (empty when the output is correct).  The
checks read the JSON report by key, never by layout:

* ggp: the case is the one the request was built for; where it is One,
  the pair rebuilt by the independent see-saw transport equals the
  closed-form pair in the report; a witness lies on one pure inner form.
* theta / packet: every table has 2^r rows over distinct characters;
  each up1 row restricts back to its source character along the lift
  twist (recomputed here from the JSON, not by the program); up2 targets
  are distinct; each packet member sits on the side its character's
  central value selects.
* verify: ``all_pass`` holds and the instance count is checks x 2
  parities x seeds.

``sign_data`` keeps only the sign content of an output (case, characters,
sides), so the digest over it survives changes to the JSON layout or to
the audit trail.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Tuple

from workloads import Request

# the property suite has 17 checks; a later suite may add more
MIN_SUITE_CHECKS = 17
PARITIES = 2


def _signs(values) -> List[str]:
    return ["+1" if v > 0 else "-1" for v in values]


def _member_signs(member: Dict) -> Tuple:
    return (tuple(member["character"]), member["side"])


def _seesaw_pair(request: Request):
    """The distinguished pair rebuilt by the see-saw transport alone."""
    from lpacket import GGPContext, HashedBackend, seesaw_pairs
    from lpacket.dsl import parse

    doc = parse(request.document)
    expect = request.expected()
    gctx = GGPContext.standard(
        doc.n, doc.base, identify_chi=expect["identify"] or doc.identify_chi
    )
    result = seesaw_pairs(doc.parameter("phi1"), doc.parameter("phi"), gctx,
                          HashedBackend(expect["backend_seed"]))
    return result.pairs


def check_ggp(request: Request, payload: Dict) -> List[str]:
    expect = request.expected()
    problems = []
    if payload.get("case") != expect["case"]:
        return [f"case {payload.get('case')!r}, expected {expect['case']!r}"]
    if expect["case"] == "One":
        pair = payload["distinguished"]
        try:
            pairs = _seesaw_pair(request)
        except Exception as exc:  # the program's transport failed: a finding
            return [f"see-saw transport raised {type(exc).__name__}: {exc}"]
        if len(pairs) != 1:
            return [f"see-saw found {len(pairs)} pairs, expected one"]
        upper, lower = pairs[0]
        for role, member in (("upper", upper), ("lower", lower)):
            got = _member_signs(pair[role])
            want = (tuple(_signs(member.character.values)),
                    "+1" if member.side > 0 else "-1")
            if got != want:
                problems.append(f"{role} member {got} differs from the "
                                f"see-saw transport {want}")
    else:
        witness = payload["witness"]
        if witness["upper"]["side"] != witness["lower"]["side"]:
            problems.append("witness members lie on different inner forms")
    return problems


def _twist_key(summand: Dict, extra: Dict[str, int]) -> Tuple:
    exps = dict(summand["twist"]["exponents"])
    for name, e in extra.items():
        exps[name] = exps.get(name, 0) + e
    exps = tuple(sorted((k, v) for k, v in exps.items() if v))
    return (summand["base"], summand["dim"], exps, summand["twist"]["slope"])


# the up1 lift twist chi_V^-1 chi chi_W of the recovery context
_UP1_TWIST = {"chi_V": -1, "chi": 1, "chi_W": 1}


def _central_value(character: List[str], blocks: List[Dict]) -> str:
    """The character's value on the central element, which has the block
    multiplicities mod 2 as coordinates: the packet-side rule."""
    minus = sum(1 for value, block in zip(character, blocks)
                if value == "-1" and block["multiplicity"] % 2)
    return "-1" if minus % 2 else "+1"


def _check_rows(rows: List, key: str, expected: int) -> List[str]:
    if len(rows) != expected:
        return [f"{len(rows)} rows, expected {expected}"]
    if len({tuple(row[key]) for row in rows}) != expected:
        return ["source characters repeat"]
    return []


def check_theta(request: Request, payload: Dict) -> List[str]:
    expect = request.expected()
    command, expected = expect["command"], expect["rows"]
    if command == "packet":
        members = payload["members"]
        problems = _check_rows(members, "character", expected)
        for member in members:
            side = _central_value(member["character"],
                                  payload["parameter"]["blocks"])
            if member["side"] != side:
                problems.append(f"member {member['character']} on side "
                                f"{member['side']}, expected {side}")
        return problems

    rows = payload["characters"]
    problems = _check_rows(rows, "source", expected)
    if command == "up2":
        if len({tuple(row["target"]) for row in rows}) != len(rows):
            problems.append("up2 targets repeat")
        return problems

    blocks = payload["lifted"]["blocks"]
    lifted = [_twist_key(block["summand"], {}) for block in blocks]
    source = [_twist_key(block["summand"], _UP1_TWIST)
              for block in payload["source"]["blocks"]]
    try:
        index = [lifted.index(key) for key in source]
    except ValueError:
        return problems + ["a source block has no image in the lift"]
    for row in rows:
        for side in ("+1", "-1"):
            target = row[f"target_{side}"]
            back = [target["character"][i] for i in index]
            if back != row["source"]:
                problems.append(f"up1 row {row['source']} side {side} "
                                f"restricts to {back}")
            if target["side"] != side:
                problems.append(f"up1 row {row['source']} landed on "
                                f"{target['side']}, requested {side}")
            if _central_value(target["character"], blocks) != side:
                problems.append(f"up1 row {row['source']} side {side}: the "
                                "character's central value is not its side")
    return problems


def check_verify(request: Request, payload: Dict) -> List[str]:
    seeds = request.expected()["seeds"]
    results = payload["results"]
    problems = []
    if not payload.get("all_pass"):
        failed = [r["check"] for r in results if r["failures"]]
        problems.append(f"all_pass is false: {failed}")
    if len(results) < MIN_SUITE_CHECKS:
        problems.append(f"{len(results)} suite checks, expected at least "
                        f"{MIN_SUITE_CHECKS}")
    instances = sum(r["instances"] for r in results)
    if instances != len(results) * PARITIES * seeds:
        problems.append(f"{instances} instances, expected "
                        f"{len(results)} x {PARITIES} x {seeds}")
    return problems


CHECKS = {
    "ggp-tower": check_ggp,
    "theta-table": check_theta,
    "verify": check_verify,
}


def sign_data(workload: str, payload: Dict) -> Tuple:
    """The sign content of one output, independent of the JSON layout."""
    if workload == "ggp-tower":
        out = [payload["case"]]
        for role in ("distinguished", "witness"):
            if role in payload:
                out.append((role, _member_signs(payload[role]["upper"]),
                            _member_signs(payload[role]["lower"])))
        return tuple(out)
    if workload == "theta-table":
        if "members" in payload:
            return tuple(_member_signs(m) for m in payload["members"])
        rows = []
        for row in payload["characters"]:
            if "target" in row:
                rows.append((tuple(row["source"]), tuple(row["target"]),
                             row["form_exchange_sign"]))
            else:
                rows.append((tuple(row["source"]),) + tuple(
                    _member_signs(row[f"target_{side}"])
                    for side in ("+1", "-1")))
        return tuple(rows)
    return (payload["all_pass"],) + tuple(sorted(
        (r["check"], r["instances"], len(r["failures"]))
        for r in payload["results"]))


def work_items(workload: str, payload: Dict) -> int:
    """Reports, table rows or suite instances in one output."""
    if workload == "ggp-tower":
        return 1
    if workload == "theta-table":
        return len(payload.get("members") or payload["characters"])
    return sum(r["instances"] for r in payload["results"])


def check_output(workload: str, request: Request,
                 text: str) -> Tuple[List[str], Tuple, int]:
    """Problems found in one output, its sign data and its work items."""
    try:
        payload = json.loads(text)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"], (), 0
    try:
        return (CHECKS[workload](request, payload),
                sign_data(workload, payload), work_items(workload, payload))
    except (KeyError, IndexError, TypeError) as exc:
        return [f"output lacks {exc!r}"], (), 0


def sign_digest(sign: Tuple) -> str:
    """Short SHA-256 of one output's sign data."""
    return hashlib.sha256(repr(sign).encode("utf-8")).hexdigest()[:16]
