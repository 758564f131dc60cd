"""Derive enforceable traffic rules (one-way streets, turn restrictions) from
classified road signs by simulating navigation over a directed road network.

The package root exports the entry points only: load the inputs, run
``derive_rules``, and write or validate what it derived. Everything else is
reachable through its module.
"""

from .errors import RoadRulesError
from .io import (
    load_ground_truth,
    load_network,
    load_rules,
    load_signs,
    render_overlay,
    validate,
    write_rules,
)
from .navigator import derive_rules
from .scenarios import generate_scenario, write_scenario
from .signs import DetectionConfig, SignIndex

__version__ = "0.1.0"

__all__ = [
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
