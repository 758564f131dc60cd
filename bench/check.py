"""Output checks: canonical digests and the invariants every derivation keeps.

A pinned digest (``expected.json``) is the strong check, but a run may use
any seed. For every seed the rule document must therefore also be well formed
against the generated inputs and keep the ``--cover-all`` invariant: an edge
stays unreached only while some rule bans it.
"""

from __future__ import annotations

import hashlib
import json
import math

from inputs import Inputs

FAMILIES = {
    # family: (sign types that may produce it, highest possible score)
    "no_way": ({"R-101"}, 90.0),
    "one_way": ({"R-400a", "R-400b", "R-400c"}, 90.0),
    "no_turn": ({"R-302", "R-303", "R-400d", "R-400e"}, 60.0),
}
MAX_PROBLEMS = 5


def canonical_digest(document) -> str:
    """sha256 of the document re-encoded with sorted keys and no whitespace."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def global_bans(rules: dict) -> set:
    banned = {entry["edge"] for entry in rules["no_way"]}
    for entry in rules["one_way"]:
        banned.update(entry["banned"])
    return banned


def check_rules(rules, inputs: Inputs) -> list[str]:
    """Problems with a rule document, at most ``MAX_PROBLEMS`` of them."""
    if not isinstance(rules, dict) or sorted(rules) != ["no_turn", "no_way", "one_way", "unreached"]:
        return ["rule document must have exactly no_way, one_way, no_turn and unreached"]
    edges, types = inputs.edges, inputs.sign_types
    problems: list[str] = []
    holders: set = set()
    try:
        for family, (codes, top) in FAMILIES.items():
            for entry in rules[family]:
                sign, score = entry["sign"], entry["score"]
                if sign in holders:
                    problems.append(f"sign {sign!r} holds two rules")
                holders.add(sign)
                if types.get(sign) not in codes:
                    problems.append(f"{family} rule from sign {sign!r} of type {types.get(sign)!r}")
                if not (isinstance(score, (int, float)) and math.isfinite(score) and 0.0 < score <= top):
                    problems.append(f"{family} rule from sign {sign!r} scores {score!r}")
                if family == "no_way":
                    if entry["edge"] not in edges:
                        problems.append(f"no_way bans unknown edge {entry['edge']!r}")
                elif family == "one_way":
                    chosen, banned = entry["chosen"], entry["banned"]
                    node = edges[chosen][0] if chosen in edges else None
                    if not banned or chosen in banned or node is None or any(
                        edges.get(b, (None,))[0] != node for b in banned
                    ):
                        problems.append(f"one_way from sign {sign!r} is not a set of exits of one node")
                elif family == "no_turn":
                    source, banned = entry["from"], entry["banned_to"]
                    node = edges[source][1] if source in edges else None
                    if not banned or node is None or any(
                        edges.get(b, (None,))[0] != node for b in banned
                    ):
                        problems.append(f"no_turn from sign {sign!r} bans no exit of its approach")
        unreached = rules["unreached"]
        if len(set(unreached)) != len(unreached) or any(e not in edges for e in unreached):
            problems.append("unreached lists unknown or repeated edges")
        stray = set(unreached) - global_bans(rules)
        if stray:
            problems.append(f"{len(stray)} unreached edges carry no ban, e.g. {min(stray)!r}")
    except (KeyError, TypeError) as exc:
        problems.append(f"malformed rule entry: {exc!r}")
    return problems[:MAX_PROBLEMS]


def check_overlay(overlay, rules: dict, inputs: Inputs) -> list[str]:
    """Problems with an overlay, judged against the rule document it shows."""
    try:
        features = overlay["features"]
        status = {
            f["properties"]["edge_id"]: f["properties"]["status"]
            for f in features
            if f["geometry"]["type"] == "LineString"
        }
        linked = {
            f["properties"]["sign_id"]: f["properties"]["rule"] is not None
            for f in features
            if f["geometry"]["type"] == "Point"
        }
    except (KeyError, TypeError) as exc:
        return [f"malformed overlay: {exc!r}"]
    problems = []
    if status.keys() != inputs.edges.keys() or linked.keys() != inputs.sign_types.keys():
        problems.append("overlay does not show exactly the input edges and signs")
    banned = global_bans(rules)
    unreached = set(rules["unreached"]) - banned
    for edge, shown in status.items():
        want = "banned" if edge in banned else "unreached" if edge in unreached else "visited"
        if shown != want:
            problems.append(f"overlay shows edge {edge!r} as {shown!r}, rules say {want!r}")
            break
    holders = {e["sign"] for family in FAMILIES for e in rules[family]}
    if {s for s, has_rule in linked.items() if has_rule} != holders:
        problems.append("overlay links rules to other signs than the rule document")
    return problems
