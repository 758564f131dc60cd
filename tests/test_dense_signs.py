"""The sign-dense benchmark workload, loaded and derived in-process and timed.

``bench/inputs.py`` writes the workload; it is imported read-only, as
``tests/test_probe_contract.py`` imports ``bench/run.py``. The counts are
the work the benchmark expects on seed 1, and the time bounds are about five
times what the loads and the derivation take on a development machine, so
they catch a change in complexity, not a drift of a few percent.
"""

import gc
import importlib.util
import sys
import time
from pathlib import Path

from roadrules.io import load_network, load_signs
from roadrules.navigator import derive_rules
from roadrules.signs import SignIndex

BENCH = Path(__file__).resolve().parent.parent / "bench"

LOAD_BOUND_S = 3.3  # load_network, load_signs and SignIndex took 0.45-0.66 s together
DERIVE_BOUND_S = 3.5  # derive_rules(cover_all=True) took 0.45-0.70 s


def _generate():
    spec = importlib.util.spec_from_file_location("bench_inputs", BENCH / "inputs.py")
    # a dataclass looks its module up in sys.modules
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.generate


def test_dense_signs_seed_1_derives_its_rules_in_bounded_time(tmp_path):
    inputs = _generate()("dense-signs", 1, tmp_path)
    # the CLI runs with the collector off, and so are the measured times
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        graph = load_network(inputs.network)
        index = SignIndex(load_signs(inputs.signs, graph))
        loaded = time.perf_counter()
        result = derive_rules(graph, index, cover_all=True)
        derived = time.perf_counter()
    finally:
        if enabled:
            gc.enable()
    assert len(result.rules) == 6115
    assert len(result.unreached_edges) == 2935
    assert loaded - started < LOAD_BOUND_S, f"loads took {loaded - started:.2f} s"
    assert derived - loaded < DERIVE_BOUND_S, f"derive_rules took {derived - loaded:.2f} s"
