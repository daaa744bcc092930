"""Report serialization to JSON.

A report renders from its record's ``to_payload()``, with floats fixed
to 6 significant digits, so a fixed seed gives fixed bytes.  A NaN or an
infinity is never written: rendering it is a ``ValueError``.
"""

from __future__ import annotations

import json
import math

from .model import _kind, _Record


def _round6(value):
    """Fix floats to 6 significant digits so output bytes are stable."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"report value {value} is not finite")
        return float(f"{value:.6g}")
    if isinstance(value, dict):
        return {k: _round6(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round6(v) for v in value]
    return value


def render_report(report: _Record, format: str = "json") -> str:
    """Serialize a report deterministically as JSON, the only ``format``.

    ``report`` is a report record, one with a ``to_payload()`` method
    (``CalibratedContext``, ``Prediction``, ``AccuracyReport``, ...);
    anything else is a ValueError naming ``report``.
    """
    if format != "json":
        raise ValueError(f"unknown format {format!r}")
    if not (isinstance(report, _Record) and hasattr(report, "to_payload")):
        raise ValueError(f"report must be a report record, got {_kind(report)}")
    return json.dumps(_round6(report.to_payload()), indent=2, sort_keys=True) + "\n"
