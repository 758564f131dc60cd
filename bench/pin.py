"""Pin the canonical output digests of seeds 0..49 in ``bench/expected.json``.

Run from the root of a checkout whose outputs are known to be right:

    python3 bench/pin.py

Each entry holds the sha256 of the generated inputs and of the canonical
rule document (and overlay, where the workload writes one). Re-pin only in a
change that is meant to alter the outputs, and say so in that change.
"""

from __future__ import annotations

import json
import sys

from inputs import WORKLOADS, generate
from run import OVERLAY, PINS, WORK, Outputs, hook_problems, spawn, warm_up

SEEDS = 50


def main() -> int:
    pins = {}
    WORK.mkdir(exist_ok=True)
    warm_up()
    for workload in WORKLOADS:
        for seed in range(SEEDS):
            inputs = generate(workload, seed, WORK / "inputs")
            outputs = Outputs(workload, seed, inputs, {})
            sample = spawn(inputs, workload in OVERLAY, traced=False)
            problems = sample.problems or hook_problems(sample.report, workload, traced=False)
            problems = problems or outputs.check(WORK / "rules.json", WORK / "overlay.geojson")
            if problems:
                print(f"{workload} seed {seed}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            pins.setdefault(workload, {})[str(seed)] = {"inputs": inputs.digest, **outputs.first}
            print(f"{workload} seed {seed}: {outputs.first}")
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
