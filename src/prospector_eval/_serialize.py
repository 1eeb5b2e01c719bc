"""Deterministic JSON and CSV formatting.

All files this package writes go through these helpers.  Floats are rendered
with 17 significant digits (lossless for IEEE doubles), dict keys keep
insertion order, and lines always end with "\n", so a given object has
exactly one serialized form on every platform.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring
from typing import Any, Iterable

_SCALARS = (type(None), bool, int, float, str)


def format_float(value: float) -> str:
    """Render a float with 17 significant digits (round-trips exactly)."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value cannot be serialized: {value!r}")
    return format(value, ".17g")


def dumps(obj: Any, indent: int = 2) -> str:
    """Serialize to deterministic JSON with a trailing newline."""
    pieces: list[str] = []
    _write(obj, pieces, 0, indent)
    pieces.append("\n")
    return "".join(pieces)


def _write(obj: Any, out: list[str], level: int, indent: int) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(encode_basestring(obj))
    elif isinstance(obj, dict):
        _write_dict(obj, out, level, indent)
    elif isinstance(obj, (list, tuple)):
        _write_list(obj, out, level, indent)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_dict(obj: dict, out: list[str], level: int, indent: int) -> None:
    if not obj:
        out.append("{}")
        return
    inner = " " * (indent * (level + 1))
    out.append("{\n")
    for i, (key, value) in enumerate(obj.items()):
        if not isinstance(key, str):
            raise TypeError(f"JSON object keys must be strings, got {key!r}")
        out.append(inner)
        out.append(encode_basestring(key))
        out.append(": ")
        _write(value, out, level + 1, indent)
        out.append(",\n" if i < len(obj) - 1 else "\n")
    out.append(" " * (indent * level) + "}")


def _write_list(obj: Iterable, out: list[str], level: int, indent: int) -> None:
    items = list(obj)
    if not items:
        out.append("[]")
        return
    if all(isinstance(item, _SCALARS) for item in items):
        out.append("[")
        for i, item in enumerate(items):
            _write(item, out, level + 1, indent)
            if i < len(items) - 1:
                out.append(", ")
        out.append("]")
        return
    inner = " " * (indent * (level + 1))
    out.append("[\n")
    for i, item in enumerate(items):
        out.append(inner)
        _write(item, out, level + 1, indent)
        out.append(",\n" if i < len(items) - 1 else "\n")
    out.append(" " * (indent * level) + "]")


def format_cell(value: Any) -> str:
    """Render one CSV field: floats at 17 digits, None as empty."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, int):
        return str(value)
    text = str(value)
    if "," in text or "\n" in text or '"' in text:
        raise ValueError(f"CSV field would need quoting: {text!r}")
    return text


def csv_text(header: Iterable[str], rows: Iterable[Iterable[Any]]) -> str:
    """Render a CSV document (header + rows) deterministically."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_cell(cell) for cell in row))
    return "\n".join(lines) + "\n"
