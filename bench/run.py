"""Benchmark of ``roadrules derive --cover-all`` on seeded 100x100 grids.

Run from the root of a checkout:

    python3 bench/run.py --workload dense-signs --seed 1 --seconds 30 --trace 0

It writes the workload's inputs under ``.bench_work/``, then spawns the CLI
(through ``bench/probe.py``, one child at a time) again and again for
``--seconds`` seconds, checks every output and prints each metric by name
with its unit. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``. ``--workload all`` measures every workload in turn and ends
with one object keyed by workload. ``bench/README.md`` says what each
workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path

import check
from inputs import WORKLOADS, Inputs, generate
from probe import ONCE

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
PROBE = Path(__file__).resolve().parent / "probe.py"
PINS = Path(__file__).resolve().parent / "expected.json"
CHILD_TIMEOUT_S = 60.0
MAX_SECONDS = 120  # a run must end within 180 s, its last child included
MIN_UNTRACED = 3
MIN_TRACED = 2

SIGNS = {"dense-signs", "lonlat-overlay"}  # workloads whose signs reach scoring
OVERLAY = {"lonlat-overlay"}  # workloads run with --overlay
TRACED_HOOKS = (
    "io.network_from_document", "network.build_graph", "signs_within", "signs_within_line",
    "detect_signs_along", "detect_signs_from", "Frontier", "Frontier.pop",
    "is_navigation_forbidden",
)
SCORING_HOOKS = (
    "best_no_way_edge", "best_no_turn_edge", "best_must_turn_edge", "best_one_way_edge",
    "associate_new_rule", "DerivationState.install",
)
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("derive_s", "s"), ("peak_rss_mb", "MB"))
# About what calibrate() took on the 2-vCPU VM the bounds were set on.
CALIBRATION_REF_S = 0.2


def calibrate() -> float:
    """Seconds this host takes right now for a fixed piece of pure-Python work.

    The work does not touch ``roadrules``, and it is like the CLI's: many
    small tuples, lists, strings and dicts built, sorted and dropped. On a
    shared virtual machine the host's speed drifts by 20-40% over minutes;
    this time drifts with it, so scaling by it removes much of the drift.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        rng = random.Random(0)
        table = {(rng.random(), i): [i, str(i)] for i in range(150_000)}
        order = sorted(table, key=itemgetter(0))
        del table, order
        return time.perf_counter() - start
    finally:
        gc.enable()


@dataclass
class Sample:
    """One child process: what the parent measured and what the probe reported."""

    traced: bool
    spawned: float  # time.monotonic() just before the spawn
    wall_s: float
    report: dict | None
    output_bytes: int
    problems: list[str] = field(default_factory=list)
    # CALIBRATION_REF_S over the mean calibrate() time just before and just
    # after this child: multiplies every time the child gives into seconds
    # at the reference host speed.
    scale: float = 1.0

    @property
    def end_to_end(self) -> dict:
        stamps = self.report["stamps"]
        return {
            "wall_s": self.wall_s * self.scale,
            "setup_s": (stamps["SignIndex"][1] - self.spawned) * self.scale,
            "derive_s": (stamps["derive_rules"][1] - stamps["derive_rules"][0]) * self.scale,
            "peak_rss_mb": self.report["peak_rss_kb"] / 1024.0,
        }


class Outputs:
    """Checks outputs, canonicalising each distinct byte string only once."""

    def __init__(self, workload: str, seed: int, inputs: Inputs, pins: dict) -> None:
        self.inputs = inputs
        self.overlay = workload in OVERLAY
        self.pin = pins.get(workload, {}).get(str(seed))
        self.verdicts: dict[str, tuple[dict, list[str]]] = {}  # raw sha256 -> (digests, problems)
        self.first: dict | None = None  # canonical digests of the first outputs

    def check(self, rules_path: Path, overlay_path: Path) -> list[str]:
        raw = rules_path.read_bytes()
        overlay_raw = overlay_path.read_bytes() if self.overlay else b""
        key = hashlib.sha256(raw + b"\0" + overlay_raw).hexdigest()
        if key not in self.verdicts:
            self.verdicts[key] = self._judge(raw, overlay_raw)
        digests, problems = self.verdicts[key]
        if self.first is None:
            self.first = digests
        elif digests != self.first:
            problems = problems + ["outputs differ from the first run of the same inputs"]
        return problems

    def _judge(self, raw: bytes, overlay_raw: bytes) -> tuple[dict, list[str]]:
        try:
            rules = json.loads(raw)
            overlay = json.loads(overlay_raw) if self.overlay else None
        except ValueError as exc:
            return {}, [f"output is not JSON: {exc}"]
        problems = check.check_rules(rules, self.inputs)
        digests = {"rules": check.canonical_digest(rules)}
        if overlay is not None:
            digests["overlay"] = check.canonical_digest(overlay)
            if not problems:
                problems = check.check_overlay(overlay, rules, self.inputs)
        if self.pin:
            problems += [
                f"{name} sha256 {digest[:12]} differs from the pinned {self.pin[name][:12]}"
                for name, digest in digests.items()
                if self.pin[name] != digest
            ]
        return digests, problems


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def warm_up() -> None:
    """Import the package once so no timed child pays for bytecode compilation."""
    subprocess.run(
        [sys.executable, "-c", "import roadrules.cli"],
        env=_child_env(), cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S,
    )


def spawn(inputs: Inputs, overlay: bool, traced: bool) -> Sample:
    """Run one CLI derive and wait for it."""
    report, rules, overlay_path, log_path = (
        WORK / "report.json", WORK / "rules.json", WORK / "overlay.geojson", WORK / "child.log"
    )
    for path in (report, rules, overlay_path):
        path.unlink(missing_ok=True)
    argv = [
        sys.executable, str(PROBE), str(report), "1" if traced else "0", "--",
        "derive", "--network", str(inputs.network), "--signs", str(inputs.signs),
        "--cover-all", "--out", str(rules),
    ] + (["--overlay", str(overlay_path)] if overlay else [])
    with open(log_path, "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
                                env=_child_env(), cwd=ROOT)
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        end = time.monotonic()
    problems = []
    if proc.returncode != 0:
        tail = log_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
        problems.append(f"exit code {proc.returncode}: {' | '.join(tail)}")
    try:
        data = json.loads(report.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        data = None
        problems.append("the probe wrote no report")
    output_bytes = sum(p.stat().st_size for p in (rules, overlay_path) if p.exists())
    return Sample(traced, start, end - start, data, output_bytes, problems)


def hook_problems(report: dict, workload: str, traced: bool) -> list[str]:
    """A hook that should have fired and did not is a failure, never a 0."""
    calls = report["calls"]
    problems = []
    for name in ONCE:
        want = 0 if name == "render_overlay" and workload not in OVERLAY else 1
        if calls.get(name, 0) != want:
            problems.append(f"hook {name} fired {calls.get(name, 0)} times, expected {want}")
    if traced:
        expected = TRACED_HOOKS + (SCORING_HOOKS if workload in SIGNS else ())
        expected += ("io.overlay_document",) if workload in OVERLAY else ()
        problems += [f"hook {name} never fired" for name in expected if not calls.get(name)]
    return problems


def _ratio(part: float, base: float) -> float:
    return part / base if base else 0.0


def layer_metrics(report: dict) -> dict:
    """Per-layer metrics of one traced child."""
    layers, calls, counts = report["layers"], report["calls"], report["counts"]

    def total(name):
        return layers[name]["total_s"]

    def own(name):
        return layers[name]["total_s"] - layers[name]["child_s"]

    hits, detected = counts.get("signs.query_hits", 0), counts.get("detection.detected", 0)
    candidates, installs = calls.get("associate_new_rule", 0), calls.get("DerivationState.install", 0)
    return {
        "io.network_parse_s": own("io.load_network"),
        "io.network_build_s": own("io.network_from_document"),
        "network.build_graph_s": total("network.build_graph"),
        "io.signs_parse_s": total("io.load_signs"),
        "signs.index_build_s": total("signs.index_build"),
        "signs.queries": layers["signs.query"]["calls"],
        "signs.query_s": total("signs.query"),
        "signs.query_hits": hits,
        "detection.calls": layers["detection"]["calls"],
        "detection.self_s": own("detection"),
        "detection.detected": detected,
        "detection.yield": _ratio(detected, hits),
        "rules.score_calls": layers["rules.score"]["calls"],
        "rules.score_s": total("rules.score"),
        "rules.candidates": candidates,
        "rules.installs": installs,
        "rules.replacements": calls.get("DerivationState.revoke", 0),
        "rules.install_ratio": _ratio(installs, candidates),
        "navigator.navigations": calls.get("Frontier", 0),
        "navigator.edges_popped": calls.get("Frontier.pop", 0),
        "navigator.forbidden_checks": calls.get("is_navigation_forbidden", 0),
        "navigator.coverage": _ratio(counts.get("navigator.visited", 0), counts.get("navigator.edges", 0)),
        "navigator.self_s": own("navigator.derive_rules"),
        "io.rules_write_s": total("io.write_rules"),
        "io.overlay_document_s": total("io.overlay_document"),
        "io.overlay_write_s": own("io.render_overlay"),
        "gc.pause_s": report["gc"]["pause_s"],
        "gc.gen2_collections": report["gc"]["collections"].get("2", 0),
    }


def work_counts(report: dict) -> dict:
    """Everything a traced child counted, minus the collector: must repeat exactly."""
    return {
        "calls": report["calls"],
        "counts": report["counts"],
        "layers": {name: agg["calls"] for name, agg in report["layers"].items()},
    }


def _per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name in ("detection.yield", "rules.install_ratio", "navigator.coverage"):
        return "ratio"
    return "count"


def _timing_line(name: str, values: list[float], unit: str) -> str:
    line = f"  {name:<28} {statistics.median(values):>14.6f} {unit:<6} median of {len(values)}"
    ordered = sorted(values)
    for pct in (99, 90):  # the highest percentile with ten samples beyond it
        beyond = len(ordered) * (100 - pct) // 100
        if beyond >= 10:
            line += f", p{pct} {ordered[-beyond - 1]:.6f}"
            break
    return line


def collect(workload: str, inputs: Inputs, outputs: Outputs, seconds: int, trace: bool) -> list[Sample]:
    """Spawn children one at a time until the next one would overrun ``seconds``.

    With ``trace`` the children alternate traced and untraced, traced first.
    """
    samples: list[Sample] = []
    started = time.monotonic()
    steps: list[float] = []  # seconds per child, checks and calibration included
    calibration = calibrate()
    while True:
        step_start = time.monotonic()
        traced = trace and 2 * sum(s.traced for s in samples) <= len(samples)
        sample = spawn(inputs, workload in OVERLAY, traced)
        if not sample.problems:
            sample.problems += hook_problems(sample.report, workload, traced)
        if not sample.problems:
            sample.problems += outputs.check(WORK / "rules.json", WORK / "overlay.geojson")
        samples.append(sample)
        for problem in sample.problems:
            print(f"  run {len(samples)} failed: {problem}", file=sys.stderr)
        after = calibrate()
        sample.scale = CALIBRATION_REF_S / ((calibration + after) / 2)
        calibration = after
        steps.append(time.monotonic() - step_start)
        n_traced = sum(s.traced for s in samples)
        if trace:
            enough = n_traced >= MIN_TRACED and len(samples) > n_traced
        else:
            enough = len(samples) >= MIN_UNTRACED
        elapsed = time.monotonic() - started
        if enough and elapsed + max(steps[-2:]) > seconds:
            return samples


def end_to_end_metrics(good: list[Sample]) -> dict:
    scales = [s.scale for s in good if not s.traced]
    if scales:
        print(f"  {'host speed':<28} {statistics.median(scales):>14.6f} {'x':<6} "
              f"the reference speed; the timings below are rescaled to the reference")
    metrics = {}
    for name, unit in END_TO_END:
        values = [s.end_to_end[name] for s in good if not s.traced]
        if values:
            print(_timing_line(name, values, unit))
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    return metrics


def per_layer_metrics(good: list[Sample], inputs: Inputs, problems: list[str]) -> dict:
    reports = [s.report for s in good if s.traced]
    (WORK / "trace.json").write_text(json.dumps(reports, indent=1), encoding="utf-8")
    counts = [work_counts(r) for r in reports]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("work counts differ between traced runs of the same seed")
    untraced_walls = [s.end_to_end["wall_s"] for s in good if not s.traced]
    if not reports or not untraced_walls:
        return {}
    traced_walls = [s.end_to_end["wall_s"] for s in good if s.traced]
    per_run = [
        {name: value * s.scale if name.endswith("_s") else value for name, value in layer_metrics(s.report).items()}
        for s in good if s.traced
    ]
    per_layer = {name: [m[name] for m in per_run] for name in per_run[0]}
    per_layer["io.input_bytes"] = [inputs.input_bytes]
    per_layer["io.output_bytes"] = [s.output_bytes for s in good]
    per_layer["trace.overhead_s"] = [statistics.median(traced_walls) - statistics.median(untraced_walls)]
    metrics = {}
    for name in sorted(per_layer):
        values, unit = per_layer[name], _per_layer_unit(name)
        if len(values) > 1 and unit == "s":
            print(_timing_line(name, values, unit))
        else:
            print(f"  {name:<28} {statistics.median(values):>14.6f} {unit}")
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    return metrics


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    pins = json.loads(PINS.read_text(encoding="utf-8")) if PINS.exists() else {}
    inputs = generate(workload, seed, WORK / "inputs")
    info = inputs.describe()
    print(f"workload {workload}, seed {seed}: {info['edges']} edges, {info['signs']} signs, "
          f"{info['input_bytes']} input bytes, inputs sha256 {info['input_sha256']}")
    outputs = Outputs(workload, seed, inputs, pins)
    problems = []
    if outputs.pin is None:
        print("  seed not pinned in bench/expected.json: outputs checked by invariants and repeats")
    elif outputs.pin["inputs"] != inputs.digest:
        problems.append("generated inputs differ from the pinned ones: the generator changed")
    warm_up()

    samples = collect(workload, inputs, outputs, seconds, trace)
    good = [s for s in samples if not s.problems]
    failed = len(samples) - len(good)
    print(f"  {'failed_frac':<28} {failed / len(samples):>14.6f} {'ratio':<6} "
          f"{failed} of {len(samples)} runs")
    metrics = per_layer_metrics(good, inputs, problems) if trace else end_to_end_metrics(good)
    for problem in problems:
        print(f"  check failed: {problem}", file=sys.stderr)
    return {
        "correct": failed == 0 and not problems and bool(metrics),
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int, help=f"1 to {MAX_SECONDS}")
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 1 <= args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be from 1 to {MAX_SECONDS}")
    if not (ROOT / "src" / "roadrules" / "cli.py").is_file():
        print(f"error: no roadrules sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    if args.workload != "all":
        print(json.dumps(measure(args.workload, args.seed, args.seconds, bool(args.trace))))
        return 0
    results = {name: measure(name, args.seed, args.seconds, bool(args.trace)) for name in WORKLOADS}
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
