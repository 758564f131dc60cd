"""The benchmark's probe still finds every name it patches.

``bench/probe.py`` wraps engine functions by name, and ``bench/run.py``
fails a run in which one of them never fires. This runs the probe, traced
and untraced, on a short-block scene with signs and an overlay, so every
hook must fire, and applies the benchmark's own check to its report.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import short_block_scene, write_scene

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _bench_run():
    """``bench/run.py`` as a module; it imports its siblings by name."""
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


@pytest.mark.parametrize("traced", [True, False])
def test_every_patched_name_fires(tmp_path, traced):
    network, signs = write_scene(*short_block_scene(1), tmp_path)
    report = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [
            sys.executable, str(BENCH / "probe.py"), str(report), "1" if traced else "0", "--",
            "derive", "--network", str(network), "--signs", str(signs), "--cover-all",
            "--out", str(tmp_path / "rules.json"), "--overlay", str(tmp_path / "overlay.geojson"),
        ],
        env=env, check=True, timeout=120,
    )
    problems = _bench_run().hook_problems(
        json.loads(report.read_text(encoding="utf-8")), "lonlat-overlay", traced
    )
    assert problems == []
