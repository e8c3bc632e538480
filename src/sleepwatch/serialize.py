"""Byte-stable JSON and CSV emission.

Output files are regression artifacts: reruns with the same config must
produce identical bytes. JSON objects are therefore emitted with sorted
keys and floats formatted to 17 significant digits (enough to round-trip
float64 exactly); CSVs use LF line endings and the same float format.
"""

from __future__ import annotations

import math
from pathlib import Path

from .simulate import SimulationTrace

TRACE_HEADER = "tick,dead,sleep,active,inactive,battery"


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"refusing to serialize non-finite value {x!r}")
    return format(float(x), ".17g")


def dumps_canonical(value, indent: int = 0) -> str:
    """Serialize to JSON with sorted keys and fixed float formatting."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, str):
        import json

        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [dumps_canonical(v, indent + 2) for v in value]
        return "[\n" + ",\n".join(inner + s for s in items) + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            parts.append(f'{inner}"{key}": ' + dumps_canonical(value[key], indent + 2))
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(value).__name__} canonically")


def write_json(path: str | Path, value) -> None:
    write_json_text(path, dumps_canonical(value))


def write_json_text(path: str | Path, text: str) -> None:
    """Write the output of :func:`dumps_canonical` as a JSON file."""
    Path(path).write_text(text + "\n")


def trace_to_csv(trace: SimulationTrace) -> str:
    lines = [TRACE_HEADER]
    for rec in trace.per_tick:
        lines.append(
            f"{rec.tick},{rec.dead},{rec.sleep},{rec.active},{rec.inactive},"
            f"{format_float(rec.battery)}"
        )
    return "\n".join(lines) + "\n"


def write_trace_csv(path: str | Path, trace: SimulationTrace) -> None:
    Path(path).write_text(trace_to_csv(trace))
