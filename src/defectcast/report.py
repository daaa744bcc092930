"""Report serialization to JSON.

A report renders from one payload, a dict or its ``to_payload()``, with
floats fixed to 6 significant digits, so a fixed seed gives fixed bytes.
A NaN or an infinity is never written: rendering it is a ``ValueError``.
"""

from __future__ import annotations

import json
import math


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


def render_report(report, format: str = "json") -> str:
    """Serialize a report deterministically as JSON, the only ``format``.

    ``report`` is a dict, whose keys are written as strings, or a report
    object with a ``to_payload()`` method.
    """
    if format != "json":
        raise ValueError(f"unknown format {format!r}")
    if isinstance(report, dict):
        payload = {str(k): v for k, v in report.items()}
    else:
        payload = report.to_payload()
    return json.dumps(_round6(payload), indent=2, sort_keys=True) + "\n"
