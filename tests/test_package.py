"""Package-level rules: the public surface and the stdlib-only runtime."""

import ast
import sys
from pathlib import Path

import roadrules

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
