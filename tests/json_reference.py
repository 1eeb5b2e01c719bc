"""The package's JSON layout, rendered leaf by leaf.

A reference for ``prospector_eval._serialize.dumps``, which renders the same
layout from templates: one ``format`` or ``encode_basestring`` call per
leaf, written in document order, so the first bad value in document order
raises.  Floats use 17 significant digits (-0.0 as ``-0.0``), dict keys
keep insertion order, lists of scalars stay on one line and other lists put
one element on each line.
"""

import math
from json.encoder import encode_basestring

_SCALARS = (type(None), bool, int, float, str)


def format_float(value) -> str:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value cannot be serialized: {value!r}")
    if value == 0.0 and math.copysign(1.0, value) < 0.0:
        return "-0.0"  # "-0" would read back as the integer 0
    return format(value, ".17g")


def dumps(obj, indent: int = 2) -> str:
    pieces: list[str] = []
    _write(obj, pieces, 0, indent)
    pieces.append("\n")
    return "".join(pieces)


def _write(obj, out: list[str], level: int, indent: int) -> None:
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


def _write_list(obj, out: list[str], level: int, indent: int) -> None:
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
