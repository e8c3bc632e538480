"""Validator for the JSON Schema subset used by ``src/sleepwatch/schemas``.

The shipped schemas use only ``type``, ``required``, ``properties``,
``additionalProperties: false``, ``items``, ``enum``, ``const``,
``minimum``, ``maximum``, ``exclusiveMinimum`` and local ``$ref``.
The benchmark checks every artifact against them; the general
``jsonschema`` package takes about 12 s on the 35 MB analyze report,
which would dominate a run, so this stdlib checker is used instead.
``selftest.py`` compares its verdicts with ``jsonschema`` where that
package is installed.
"""

from __future__ import annotations

_KNOWN = {"$schema", "title", "$defs", "$ref", "type", "required", "properties",
          "additionalProperties", "items", "enum", "const", "minimum", "maximum",
          "exclusiveMinimum"}


class SchemaError(ValueError):
    pass


def _is_type(value, name: str) -> bool:
    if name == "null":
        return value is None
    if name == "boolean":
        return isinstance(value, bool)
    if isinstance(value, bool):
        return False
    if name == "integer":
        return isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if name == "number":
        return isinstance(value, (int, float))
    if name == "string":
        return isinstance(value, str)
    if name == "array":
        return isinstance(value, list)
    if name == "object":
        return isinstance(value, dict)
    raise SchemaError(f": unsupported schema type {name!r}")


def validate(doc, schema: dict, root: dict | None = None) -> None:
    """Raise SchemaError naming the first place where ``doc`` breaks ``schema``."""
    try:
        _check(doc, schema, schema if root is None else root)
    except SchemaError as exc:
        raise SchemaError(f"${exc}") from None


def _check(doc, schema: dict, root: dict) -> None:
    # Messages start with the path below the current value; callers prepend
    # their own key or index, so no path string is built for valid input.
    unknown = set(schema) - _KNOWN
    if unknown:
        raise SchemaError(f": unsupported schema keyword(s) {sorted(unknown)}")
    if "$ref" in schema:
        prefix = "#/$defs/"
        if not schema["$ref"].startswith(prefix):
            raise SchemaError(f": unsupported $ref {schema['$ref']!r}")
        _check(doc, root["$defs"][schema["$ref"][len(prefix):]], root)
    if "type" in schema:
        types = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
        if not any(_is_type(doc, t) for t in types):
            raise SchemaError(f": {doc!r:.60} is not of type {types}")
    if "const" in schema and (type(doc) is not type(schema["const"]) or doc != schema["const"]):
        raise SchemaError(f": {doc!r:.60} != {schema['const']!r}")
    if "enum" in schema and not any(type(doc) is type(e) and doc == e for e in schema["enum"]):
        raise SchemaError(f": {doc!r:.60} not in {schema['enum']}")
    if _is_type(doc, "number"):
        if "minimum" in schema and doc < schema["minimum"]:
            raise SchemaError(f": {doc!r} < minimum {schema['minimum']}")
        if "maximum" in schema and doc > schema["maximum"]:
            raise SchemaError(f": {doc!r} > maximum {schema['maximum']}")
        if "exclusiveMinimum" in schema and doc <= schema["exclusiveMinimum"]:
            raise SchemaError(f": {doc!r} <= exclusiveMinimum {schema['exclusiveMinimum']}")
    if isinstance(doc, dict):
        missing = [k for k in schema.get("required", ()) if k not in doc]
        if missing:
            raise SchemaError(f": missing required key(s) {missing}")
        props = schema.get("properties", {})
        if schema.get("additionalProperties", True) is False:
            extra = sorted(set(doc) - set(props))
            if extra:
                raise SchemaError(f": unexpected key(s) {extra}")
        for key, sub in props.items():
            if key in doc:
                try:
                    _check(doc[key], sub, root)
                except SchemaError as exc:
                    raise SchemaError(f".{key}{exc}") from None
    if isinstance(doc, list) and "items" in schema:
        for i, item in enumerate(doc):
            try:
                _check(item, schema["items"], root)
            except SchemaError as exc:
                raise SchemaError(f"[{i}]{exc}") from None
