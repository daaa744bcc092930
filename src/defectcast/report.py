"""Report serialization to JSON, CSV or text.

A report renders from one payload, a dict or its ``to_payload()``, with
floats fixed to 6 significant digits, so a fixed seed gives fixed bytes.
A NaN or an infinity is never written: rendering it is a ``ValueError``.
"""

from __future__ import annotations

import io
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


def _payload_to_csv(payload: dict) -> str:
    """One ``key,value`` row per top-level key; values are JSON."""
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    for k, v in payload.items():
        writer.writerow([k, json.dumps(v, sort_keys=True)])
    return buf.getvalue()


def _text_lines(payload: dict, prefix: str = "") -> list[str]:
    """One ``key value`` line per leaf; nested keys are joined by dots."""
    lines = []
    for key, value in payload.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            lines += _text_lines(value, name + ".")
        else:
            shown = json.dumps(value) if isinstance(value, list) else value
            lines.append(f"{name:<28} {shown}")
    return lines


def render_report(report, format: str = "json") -> str:
    """Serialize a report deterministically to the given format.

    ``report`` is a dict, whose keys are written as strings, or a report
    object with a ``to_payload()`` method.
    """
    if isinstance(report, dict):
        payload = {str(k): v for k, v in report.items()}
    else:
        payload = report.to_payload()
    payload = _round6(payload)
    if format == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if format == "csv":
        return _payload_to_csv(payload)
    if format == "text":
        return "\n".join(_text_lines(payload)) + "\n"
    raise ValueError(f"unknown format {format!r}")
