"""loadsmith: deterministic load-case processing with an evaluation harness.

Processing pipeline: ingest (JSON/YAML deliveries) -> transform (rename,
correction factors, unit conversion) -> analysis (equilibrium, envelope
downselection) -> export (.inp decks, markdown, extremes JSON) -> compare
(exceedance against a previous envelope). The evalkit subpackage adds a
scenario runner with deterministic checks, pluggable judges and pass^k
statistics; docserver serves versioned design-practice documents over
JSON-RPC.
"""

from .analysis import (
    EnvelopeSelection,
    EquilibriumResult,
    EquilibriumSurvey,
    Tolerance,
    check_equilibrium_all,
    envelope_extremes,
    envelope_select,
)
from .compare import (
    ComparisonCell,
    ComparisonReport,
    compare_envelopes,
    comparison_to_markdown,
    write_comparison_report,
)
from .errors import InputSyntaxError, LoadsmithError, SchemaError, UnknownUnitError
from .export import (
    envelope_to_markdown,
    export_all_inp,
    load_node_map,
    read_envelope_json,
    write_ansys_inp,
    write_envelope_json,
)
from .ingest import (
    Finding,
    ValidationReport,
    load_delivery,
    parse_delivery,
    validate_delivery,
    write_delivery_json,
)
from .model import (
    Component,
    ComponentSet,
    EnvelopeExtremes,
    ExtremeCell,
    LoadCase,
    LoadsDelivery,
    SI_UNITS,
    UnitSystem,
    point_names,
)
from .transform import (
    CoordinateSystemCheck,
    convert_units,
    rename_points,
    scale_component,
    verify_coordinate_system,
)

__version__ = "0.1.0"

__all__ = [
    "Component",
    "ComponentSet",
    "ComparisonCell",
    "ComparisonReport",
    "CoordinateSystemCheck",
    "EnvelopeExtremes",
    "EnvelopeSelection",
    "EquilibriumResult",
    "EquilibriumSurvey",
    "ExtremeCell",
    "Finding",
    "InputSyntaxError",
    "LoadCase",
    "LoadsDelivery",
    "LoadsmithError",
    "SI_UNITS",
    "SchemaError",
    "Tolerance",
    "UnitSystem",
    "UnknownUnitError",
    "ValidationReport",
    "check_equilibrium_all",
    "compare_envelopes",
    "comparison_to_markdown",
    "convert_units",
    "envelope_extremes",
    "envelope_select",
    "envelope_to_markdown",
    "export_all_inp",
    "load_delivery",
    "load_node_map",
    "parse_delivery",
    "point_names",
    "read_envelope_json",
    "rename_points",
    "scale_component",
    "validate_delivery",
    "verify_coordinate_system",
    "write_ansys_inp",
    "write_comparison_report",
    "write_delivery_json",
    "write_envelope_json",
]
