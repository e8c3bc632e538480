"""Byte-stable JSON and CSV emission.

Output files are regression artifacts: reruns with the same config must
produce identical bytes. JSON objects are therefore emitted with sorted
keys and floats formatted to 17 significant digits (enough to round-trip
float64 exactly); CSVs use LF line endings and the same float format.

The JSON emitter makes one pass over the document: every nesting level
appends its pieces to one shared list, joined once at the end, so no
subtree's text is copied into its parent's. A list or tuple whose items
are all exactly ``float`` (a row of the ``analyze`` matrices) is checked
for finiteness and then formatted by a single ``%`` on a template of one
``%.17g`` per item, which gives the same text as :func:`format_float`
item by item. Lists holding anything else, ``bool``, ``int`` and float
subclasses included, are emitted item by item. Object keys and string
values go through one escaper, the one ``json.dumps`` uses for a
string, so both come out as ASCII that ``json.loads`` reads back.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .simulate import SimulationTrace

TRACE_HEADER = "tick,dead,sleep,active,inactive,battery"


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"refusing to serialize non-finite value {x!r}")
    return format(float(x), ".17g")


def dumps_canonical(value) -> str:
    """Serialize to JSON with sorted keys and fixed float formatting."""
    out: list[str] = []
    _emit(value, 0, out)
    return "".join(out)


def _emit(value, indent: int, out: list[str]) -> None:
    """Append the canonical text of ``value``, nested at ``indent``, to ``out``."""
    if value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(format_float(value))
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = " " * (indent + 2)
        if all(type(v) is float for v in value):
            if not all(map(math.isfinite, value)):
                format_float(next(v for v in value if not math.isfinite(v)))  # raises
            out.append("[\n" + inner)
            out.append((",\n" + inner).join(["%.17g"] * len(value)) % tuple(value))
        else:
            sep = "[\n"
            for item in value:
                out.append(sep + inner)
                _emit(item, indent + 2, out)
                sep = ",\n"
        out.append("\n" + " " * indent + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = " " * (indent + 2)
        sep = "{\n"
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            out.append(f"{sep}{inner}{encode_basestring_ascii(key)}: ")
            _emit(value[key], indent + 2, out)
            sep = ",\n"
        out.append("\n" + " " * indent + "}")
    else:
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
