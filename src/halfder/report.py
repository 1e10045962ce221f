"""The report of one command, its deterministic text and JSON forms, and
the usage error that stops a command without one."""

from __future__ import annotations

import json


class UsageError(ValueError):
    """Bad input on the command line: exit 2, and no report."""


class Report:
    """One command's result; status is pass, fail, witness-found or none."""

    def __init__(self, command, verb, status, payload, elapsed, fmt="text"):
        self.command, self.verb, self.status = command, verb, status
        self.payload, self.elapsed, self.fmt = payload, elapsed, fmt


def _text_value(v) -> str:
    if isinstance(v, str):
        return v
    return json.dumps(v, sort_keys=True)


def emit_report(report: Report, fmt: str | None = None) -> str:
    """Render a report; json output is byte-stable and round-trips."""
    fmt = fmt or report.fmt
    if fmt == "json":
        doc = {"command": report.command, "verb": report.verb, "status": report.status}
        doc.update(report.payload)
        return json.dumps(doc, sort_keys=True, indent=2)
    lines = [f"{report.verb}: {report.status.upper()}"]
    for key in sorted(report.payload):
        value = report.payload[key]
        if key in ("basis", "table", "algebras") and isinstance(value, list):
            lines.append(f"{key}:")
            for entry in value:
                lines.append(f"  {_text_value(entry)}")
        else:
            lines.append(f"{key}: {_text_value(value)}")
    return "\n".join(lines)
