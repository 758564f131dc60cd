"""Child process of the benchmark: the ``roadrules`` CLI with timing hooks.

Usage: ``python bench/probe.py REPORT TRACE -- derive ...`` with ``src`` on
``PYTHONPATH``. It imports ``roadrules.cli``, patches the hooks into the
modules that look the names up, and then does what ``python -m roadrules.cli``
does: ``sys.exit(main(argv))``. Before exiting it writes a JSON report,
which includes this process's peak resident memory (``VmHWM``).

TRACE ``0`` wraps only the six once-per-run calls in ``roadrules.cli`` and
stamps them with ``time.monotonic()``, which on Linux shares its clock with
the parent, so the parent can measure set-up from the moment it spawned us.
TRACE ``1`` also wraps every layer the per-layer metrics name, keeps one
aggregate per layer (calls, total, time covered by child spans, collector
pauses) and counts the work each layer did.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from collections import Counter

# The calls ``roadrules.cli._cmd_derive`` makes once per run.
ONCE = ("load_network", "load_signs", "SignIndex", "derive_rules", "write_rules", "render_overlay")


class Stamps:
    """Entry and exit stamps of the once-per-run calls; the untraced hooks."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.stamps: dict[str, list[float]] = {}

    def wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            start = time.monotonic()
            result = fn(*args, **kwargs)
            self.stamps[name] = [start, time.monotonic()]
            return result

        return wrapper

    def report(self) -> dict:
        return {"calls": dict(self.calls), "stamps": self.stamps}


class Tracer(Stamps):
    """Layer spans, aggregated per layer name, plus work counters."""

    def __init__(self) -> None:
        super().__init__()
        self.layers: dict[str, dict] = {}
        self.stack: list[list] = []  # open spans: [name, child seconds, gc seconds]
        self.counts: Counter[str] = Counter()
        self.gc_pause = 0.0
        self.gc_outside = 0.0
        self.gc_collections: Counter[int] = Counter()
        self._gc_start = 0.0

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        pause = time.perf_counter() - self._gc_start
        self.gc_pause += pause
        self.gc_collections[info["generation"]] += 1
        if self.stack:
            self.stack[-1][2] += pause
        else:
            self.gc_outside += pause

    def span(self, layer: str, fn, hits: str | None = None, hook: str | None = None):
        """Wrap ``fn`` as a span of ``layer``; ``hits`` counts ``len(result)``."""
        agg = self.layers.setdefault(
            layer, {"calls": 0, "total_s": 0.0, "child_s": 0.0, "gc_s": 0.0, "parents": set()}
        )
        stack, clock, calls, counts = self.stack, time.perf_counter, self.calls, self.counts
        hook = hook or layer

        def wrapper(*args, **kwargs):
            calls[hook] += 1
            frame = [layer, 0.0, 0.0]
            agg["parents"].add(stack[-1][0] if stack else None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                agg["calls"] += 1
                agg["total_s"] += elapsed
                agg["child_s"] += frame[1]
                agg["gc_s"] += frame[2]
                if stack:
                    stack[-1][1] += elapsed
            if hits:
                counts[hits] += len(result)
            return result

        return wrapper

    def counter(self, hook: str, fn):
        """Wrap ``fn`` to count its calls only; its time stays with the caller."""
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[hook] += 1
            return fn(*args, **kwargs)

        return wrapper

    def report(self) -> dict:
        layers = {
            name: dict(agg, parents=sorted(p or "" for p in agg["parents"]))
            for name, agg in self.layers.items()
        }
        return {
            **super().report(),
            "layers": layers,
            "counts": dict(self.counts),
            "gc": {
                "pause_s": self.gc_pause,
                "outside_spans_s": self.gc_outside,
                "collections": {str(g): n for g, n in sorted(self.gc_collections.items())},
            },
        }


def install_stamps(cli, stamps: Stamps) -> None:
    for name in ONCE:
        setattr(cli, name, stamps.wrap(name, getattr(cli, name)))


def install_tracer(tracer: Tracer) -> None:
    """Patch every traced layer; names are patched where they are looked up."""
    import roadrules.cli as cli
    import roadrules.io as io
    import roadrules.navigator as navigator
    import roadrules.rules as rules
    import roadrules.signs as signs

    def span(owner, name, layer, **kwargs):
        setattr(owner, name, tracer.span(layer, getattr(owner, name), **kwargs))

    def count(owner, name, hook):
        setattr(owner, name, tracer.counter(hook, getattr(owner, name)))

    # Once-per-run spans; the stamps hooks run outside them so their clock
    # reads do not count as layer time.
    once_layers = {
        "load_network": "io.load_network",
        "load_signs": "io.load_signs",
        "SignIndex": "signs.index_build",
        "derive_rules": "navigator.derive_rules",
        "write_rules": "io.write_rules",
        "render_overlay": "io.render_overlay",
    }
    for name, layer in once_layers.items():
        span(cli, name, layer)
    install_stamps(cli, tracer)
    span(io, "network_from_document", "io.network_from_document")
    span(io, "build_graph", "network.build_graph")
    span(io, "overlay_document", "io.overlay_document")
    for name in ("signs_within", "signs_within_line"):
        span(signs.SignIndex, name, "signs.query", hits="signs.query_hits", hook=name)
    for name in ("detect_signs_along", "detect_signs_from"):
        span(navigator, name, "detection", hits="detection.detected", hook=name)
    for name in ("best_no_way_edge", "best_no_turn_edge", "best_must_turn_edge", "best_one_way_edge"):
        span(rules, name, "rules.score", hook=name)
    count(rules, "associate_new_rule", "associate_new_rule")
    count(rules.DerivationState, "install", "DerivationState.install")
    count(rules.DerivationState, "revoke", "DerivationState.revoke")
    count(navigator, "is_navigation_forbidden", "is_navigation_forbidden")
    count(navigator.Frontier, "pop", "Frontier.pop")
    count(navigator, "Frontier", "Frontier")  # one Frontier per navigation

    derive = cli.derive_rules

    def derive_with_coverage(*args, **kwargs):
        result = derive(*args, **kwargs)
        tracer.counts["navigator.visited"] = len(result.visited_edges)
        tracer.counts["navigator.edges"] = len(result.visited_edges) + len(result.unreached_edges)
        return result

    cli.derive_rules = derive_with_coverage


def peak_rss_kb() -> int:
    """High-water resident memory of this process since its exec.

    Not ``ru_maxrss`` from ``wait4`` in the parent: when the parent spawns
    with ``vfork``, exec folds the parent's own high-water mark into it.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    report_path, trace, sep, *cli_argv = argv
    if sep != "--" or trace not in ("0", "1"):
        print("usage: probe.py REPORT 0|1 -- derive ...", file=sys.stderr)
        return 2
    import roadrules.cli as cli

    if trace == "1":
        recorder = Tracer()
        install_tracer(recorder)
        gc.callbacks.append(recorder.on_gc)
    else:
        recorder = Stamps()
        install_stamps(cli, recorder)
    code = cli.main(cli_argv)
    if trace == "1":
        gc.callbacks.remove(recorder.on_gc)
    report = dict(recorder.report(), peak_rss_kb=peak_rss_kb())
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
