"""Spans around loadsmith's layer calls, recorded from outside the program.

``instrumented(tracer)`` replaces each function in ``LAYER_CALLS``, wherever
a loaded loadsmith module binds it, with a wrapper that opens a span named
after the layer call and records counts taken from the call's arguments and
result. Leaving the block restores the originals, so untraced passes run the
program untouched. The benchmark uses it around traced in-process passes, and
``cli_child.py`` uses it inside the CLI subprocesses of traced passes.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from pathlib import Path


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _parse_counts(args, kwargs, delivery) -> dict:
    return {
        "ingest.bytes": len(_arg(args, kwargs, 0, "raw")),
        "ingest.values": 6 * sum(len(case.loads) for case in delivery.cases),
    }


def _envelope_counts(args, kwargs, selection) -> dict:
    return {
        "analysis.cases": len(_arg(args, kwargs, 0, "delivery").cases),
        "analysis.selected_cases": len(selection.selected_case_ids),
    }


def _deck_counts(args, kwargs, paths) -> dict:
    return {
        "export.decks": len(paths),
        "export.deck_bytes": sum(Path(p).stat().st_size for p in paths),
    }


def _compare_counts(args, kwargs, report) -> dict:
    cells = [cell for per_comp in report.cells.values() for cell in per_comp.values()]
    return {
        "compare.cells": len(cells),
        "compare.exceeding_cells": sum(c.max_exceeds or c.min_exceeds for c in cells),
    }


def _sidecar_counts(args, kwargs, _) -> dict:
    files = [*_arg(args, kwargs, 2, "inputs"), *_arg(args, kwargs, 3, "outputs")]
    return {"trace.bytes_hashed": sum(Path(p).stat().st_size for p in files)}


# (span name, module, function, counts from (args, kwargs, result))
LAYER_CALLS = (
    ("ingest.parse", "ingest", "parse_delivery", _parse_counts),
    ("ingest.validate", "ingest", "validate_delivery", None),
    ("ingest.write_json", "ingest", "write_delivery_json", None),
    ("transform.rename", "transform", "rename_points", None),
    ("transform.scale", "transform", "scale_component", None),
    ("transform.units", "transform", "convert_units", None),
    ("analysis.equilibrium", "analysis", "check_equilibrium_all", None),
    ("analysis.envelope", "analysis", "envelope_select", _envelope_counts),
    ("export.decks", "export", "export_all_inp", _deck_counts),
    ("export.envelope_md", "export", "envelope_to_markdown", None),
    ("export.extremes_json", "export", "write_envelope_json", None),
    ("export.read_extremes", "export", "read_envelope_json", None),
    ("compare.compare", "compare", "compare_envelopes", _compare_counts),
    ("compare.write", "compare", "write_comparison_report", None),
    ("compare.write", "compare", "comparison_to_markdown", None),
    ("trace.sidecar", "trace", "write_cli_trace", _sidecar_counts),
)


def _wrap(tracer, name, func, counts):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        with tracer.span(name) as span:
            result = func(*args, **kwargs)
        if counts is not None:
            for key, value in counts(args, kwargs, result).items():
                span.count(key, value)
        return result

    return traced


@contextmanager
def instrumented(tracer):
    """Trace every layer call made inside the block; see the module docstring."""
    modules = [m for n, m in list(sys.modules.items()) if n == "loadsmith" or n.startswith("loadsmith.")]
    patched = []
    for name, module, attr, counts in LAYER_CALLS:
        original = getattr(sys.modules[f"loadsmith.{module}"], attr)
        wrapper = _wrap(tracer, name, original, counts)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    patched.append((mod, key, original))
    try:
        yield
    finally:
        for mod, key, original in reversed(patched):
            setattr(mod, key, original)
