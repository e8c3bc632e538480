"""Recursive reference for the canonical JSON emitter.

``dumps_canonical`` here is the emitter as it was first written: one
recursive call per value, each nesting level building its text from the
strings of its children. :func:`sleepwatch.serialize.dumps_canonical`
must produce the same text and raise the same errors, so
``test_serialize`` compares the two with ``==``. A 1-D or 2-D float64
``ndarray`` is written as its ``.tolist()``; any other ``ndarray`` is
refused. Nothing here is used by the library.
"""

from __future__ import annotations

import numpy as np

from sleepwatch.serialize import format_float


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
    if isinstance(value, np.ndarray):
        if value.dtype != np.float64 or value.ndim not in (1, 2):
            raise TypeError(f"cannot serialize a {value.ndim}-D {value.dtype} ndarray canonically")
        return dumps_canonical(value.tolist(), indent)
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
