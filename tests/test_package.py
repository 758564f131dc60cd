"""Package-level rules: the public surface, the stdlib-only runtime, the module
layers and the README's table of them, and the benchmark records kept at the
root."""

import ast
import json
import sys
from pathlib import Path

import roadrules

ROOT = Path(__file__).resolve().parent.parent
MODULES = {p.stem for p in (ROOT / "src" / "roadrules").glob("*.py")} - {"__init__"}

# Each module imports only modules before it: the fixed meaning of a sign
# (``signs``) never reaches into what a run changes (``rules``, ``navigator``).
LAYERS = [
    "errors", "ids", "geometry", "network", "signs", "rules", "navigator", "stream", "io",
    "scenarios", "cli",
]

ENTRY_POINTS = [
    "DetectionConfig",
    "RoadRulesError",
    "SignIndex",
    "derive_rules",
    "generate_scenario",
    "load_ground_truth",
    "load_network",
    "load_rules",
    "load_signs",
    "render_overlay",
    "validate",
    "write_rules",
    "write_scenario",
]


def test_all_lists_exactly_the_entry_points():
    assert roadrules.__all__ == ENTRY_POINTS
    for name in roadrules.__all__:
        assert getattr(roadrules, name) is not None


def test_runtime_imports_are_relative_or_stdlib():
    sources = sorted(Path(roadrules.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name} imports {module}"


def test_modules_import_only_lower_layers():
    assert sorted(LAYERS) == sorted(MODULES)
    violations = []
    for name in LAYERS:
        path = ROOT / "src" / "roadrules" / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module not in LAYERS[: LAYERS.index(name)]:
                    violations.append(f"{name} imports {node.module}")
    assert violations == []


def test_readme_layout_names_every_module():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Package layout", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1].strip() for line in table.splitlines() if line.startswith("| `")]
    assert {row.strip("`") for row in rows} == MODULES
    assert len(rows) == len(MODULES)


def test_bench_records_hold_every_workload_correct():
    # each BENCH_*.json holds last lines of ``bench/run.py --workload all``:
    # every run correct on every workload BENCHMARK.json declares, and every
    # --trace 0 run with the four end-to-end metrics
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {workload["name"] for workload in benchmark["workloads"]}
    end_to_end = {metric["name"] for metric in benchmark["end_to_end"]}
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        runs = json.loads(path.read_text(encoding="utf-8"))["runs"]
        assert {run["trace"] for run in runs} == {0, 1}, path.name
        for run in runs:
            assert set(run["result"]) == workloads, path.name
            for workload, result in run["result"].items():
                assert result["correct"] is True and result["failed"] == 0, (path.name, workload)
                if run["trace"] == 0:
                    assert set(result["metrics"]) == end_to_end, (path.name, workload)
