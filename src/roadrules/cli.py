"""Command-line interface.

Subcommands: derive (run a derivation and write the rule document), validate
(score a rule document against ground truth), scenario (emit a synthetic test
scene) and render (write the inspection overlay). Exit codes: 0 success, 1
any ``InputError`` (also an output file or stdout that cannot be written),
2 any other exception (a bug): its traceback, then ``internal error: <repr>``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import logging
import os
import sys
import traceback

from .errors import InputError, shown
from .io import (
    RULE_FIELDS,
    dump_json,
    load_ground_truth,
    load_network,
    load_rules,
    load_signs,
    render_overlay,
    validate,
    write_json,
    write_rules,
)
from .navigator import derive_rules
from .network import RoadGraph
from .scenarios import TEMPLATES, generate_scenario, write_scenario
from .signs import DetectionConfig, SignIndex


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roadrules",
        description="Derive one-way and turn-restriction rules from classified "
        "traffic signs by simulated navigation of a road network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    derive = sub.add_parser("derive", help="derive rules from a network and a sign inventory")
    derive.add_argument("--network", required=True, help="network GeoJSON file")
    derive.add_argument("--signs", required=True, help="signs GeoJSON file")
    derive.add_argument(
        "--start-edge", action="append", default=[], help="edge id to start from (repeatable)"
    )
    derive.add_argument(
        "--cover-all",
        action="store_true",
        help="keep restarting from unvisited edges until the whole graph is covered",
    )
    thresholds = DetectionConfig()
    for flag, value, unit in (
        ("--node-radius", thresholds.node_radius, "meters"),
        ("--edge-radius", thresholds.edge_radius, "meters"),
        ("--lookback", thresholds.lookback, "meters"),
        ("--half-angle", thresholds.visibility_half_angle, "degrees"),
    ):
        derive.add_argument(flag, type=float, default=value, help=unit + " (default %(default)g)")
    derive.add_argument("--out", required=True, help="output rule document (JSON)")
    derive.add_argument("--overlay", help="optional GeoJSON overlay output")
    derive.set_defaults(func=_cmd_derive)

    check = sub.add_parser("validate", help="compare a rule document against ground truth")
    check.add_argument("--rules", required=True, help="rule document (JSON)")
    check.add_argument("--truth", required=True, help="ground-truth JSON")
    check.add_argument("--out", help="optional report output; stdout otherwise")
    check.set_defaults(func=_cmd_validate)

    scenario = sub.add_parser("scenario", help="generate a synthetic scenario")
    scenario.add_argument("--template", required=True, choices=TEMPLATES)
    scenario.add_argument("--rows", type=int, default=3)
    scenario.add_argument("--cols", type=int, default=3)
    scenario.add_argument("--spacing", type=float, default=100.0)
    scenario.add_argument("--out-dir", required=True)
    scenario.set_defaults(func=_cmd_scenario)

    render = sub.add_parser("render", help="write a status overlay for derived rules")
    render.add_argument("--rules", required=True)
    render.add_argument("--network", required=True)
    render.add_argument("--signs", required=True)
    render.add_argument("--out", required=True)
    render.set_defaults(func=_cmd_render)

    return parser


def _file(path: str) -> tuple | str:
    """What ``path`` names: a file that exists by its device and inode, so a
    hard link is its file too, and one not made yet by its resolved path."""
    try:
        st = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return st.st_dev, st.st_ino


def _check_outputs(args: argparse.Namespace, outputs: tuple, inputs: tuple) -> None:
    """Fail, before anything is read, on an output that names an input or another output."""
    named = [(flag, getattr(args, flag)) for flag in outputs + inputs]
    for i, (flag, path) in enumerate(named[: len(outputs)]):
        for other, other_path in named[i + 1 :]:
            if path and other_path and _file(path) == _file(other_path):
                raise InputError(f"--{flag} and --{other} name the same file {path}")


def _load_inputs(args: argparse.Namespace) -> tuple[RoadGraph, SignIndex]:
    """Load the network and index its signs."""
    graph = load_network(args.network)
    return graph, SignIndex(load_signs(args.signs, graph))


def _edge_ids(graph: RoadGraph, names: list[str]) -> list:
    """The graph's id for each ``--start-edge`` argument.

    An exact string id wins; otherwise the argument names the numeric id
    whose JSON text it is. An argument that matches neither is kept, so that
    ``derive_rules`` reports it as an unknown edge.
    """
    if all(name in graph.edges for name in names):
        return names
    numeric = {json.dumps(e): e for e in graph.edges if not isinstance(e, str)}
    return [name if name in graph.edges else numeric.get(name, name) for name in names]


def _cmd_derive(args: argparse.Namespace) -> str:
    if not args.start_edge and not args.cover_all:
        raise InputError("derive needs --start-edge or --cover-all")
    _check_outputs(args, ("out", "overlay"), ("network", "signs"))
    cfg = DetectionConfig(
        node_radius=args.node_radius, edge_radius=args.edge_radius, lookback=args.lookback,
        visibility_half_angle=args.half_angle,
    )
    graph, index = _load_inputs(args)
    result = derive_rules(
        graph, index, cfg, start_edges=_edge_ids(graph, args.start_edge), cover_all=args.cover_all
    )
    rules = write_rules(result, args.out)
    if args.overlay:
        render_overlay(rules, graph, index.signs, args.overlay)
    return (
        "derived {} no-way, {} one-way, {} no-turn rules; "
        "{} edges visited, {} unreached\n".format(
            len(rules["no_way"]),
            len(rules["one_way"]),
            len(rules["no_turn"]),
            len(result.visited_edges),
            len(rules["unreached"]),
        )
    )


def _cmd_validate(args: argparse.Namespace) -> str:
    _check_outputs(args, ("out",), ("rules", "truth"))
    report = validate(load_rules(args.rules), load_ground_truth(args.truth))
    if args.out:
        write_json(report, args.out)
        return ""
    text = io.StringIO()
    dump_json(report, text)
    return text.getvalue()


def _cmd_scenario(args: argparse.Namespace) -> str:
    scenario = generate_scenario(
        args.template, rows=args.rows, cols=args.cols, spacing=args.spacing
    )
    paths = write_scenario(scenario, args.out_dir)
    return "".join(f"{key}: {path}\n" for key, path in paths.items())


def _check_rule_ids(path: str, rules: dict, graph: RoadGraph, index: SignIndex) -> None:
    """Fail on a rule that names an edge the network or a sign the inventory lacks."""
    signs = {sign.id for sign in index.signs}
    entries = [(f, i, entry) for f in RULE_FIELDS for i, entry in enumerate(rules[f])]
    entries += [("unreached", i, {"edge": edge}) for i, edge in enumerate(rules["unreached"])]
    for family, i, entry in entries:
        where = f"{path}: {family} entry {i}"
        edges = [entry[field] for field in ("edge", "chosen", "from") if field in entry]
        for edge in edges + entry.get("banned", []) + entry.get("banned_to", []):
            if edge not in graph.edges:
                raise InputError(f"{where}: edge {shown(edge)} is not in the network")
        if "sign" in entry and entry["sign"] not in signs:
            raise InputError(f"{where}: sign {shown(entry['sign'])} is not in the sign inventory")


def _cmd_render(args: argparse.Namespace) -> str:
    _check_outputs(args, ("out",), ("rules", "network", "signs"))
    graph, index = _load_inputs(args)
    rules = load_rules(args.rules)
    _check_rule_ids(args.rules, rules, graph, index)
    render_overlay(rules, graph, index.signs, args.out)
    return ""


def main(argv: list[str] | None = None) -> int:
    """Run one command, write what it prints to stdout, and return its exit code.

    A run allocates millions of small containers (the parsed features, the
    graph, the sign index, the run state and the documents it writes) and
    makes no cyclic garbage, so every pass of the cyclic garbage collector
    would rescan them and free nothing. The collector is therefore off for
    the whole command and restored to its previous state at the end.
    """
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s: %(message)s")
    args = _build_parser().parse_args(argv)
    enabled = gc.isenabled()
    gc.disable()
    try:
        text = args.func(args)
        try:
            if text:  # a command that prints nothing leaves stdout alone
                sys.stdout.write(text)
                sys.stdout.flush()
        except OSError as exc:
            # drop the unwritten bytes, or the exit flush fails on them again
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
            raise InputError(f"cannot write stdout: {exc}") from exc
        return 0
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - any escape here is a bug
        traceback.print_exc()
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
