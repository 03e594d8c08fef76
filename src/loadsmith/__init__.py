"""loadsmith: deterministic load-case processing with an evaluation harness.

Processing pipeline: ingest (JSON/YAML deliveries) -> transform (rename,
correction factors, unit conversion) -> analysis (equilibrium, envelope
downselection) -> export (.inp decks, markdown, extremes JSON) -> compare
(exceedance against a previous envelope). The evalkit subpackage adds a
scenario runner with deterministic checks, a local rubric judge and
pass^k statistics; docserver serves versioned design-practice documents over
JSON-RPC.
"""

__version__ = "0.1.0"
