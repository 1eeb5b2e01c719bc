"""Deterministic JSON and CSV formatting.

All files this package writes go through these helpers.  Floats are rendered
with 17 significant digits (lossless for IEEE doubles), dict keys keep
insertion order, and lines always end with "\n", so a given object has
exactly one serialized form on every platform.

JSON is written as one ``%``-template filled by one ``%``-call.  The layout
code writes literal text ``%``-escaped and each leaf as a slot: ``%.17g``
for a float, ``%s`` for the JSON text of any other leaf.  A list of dicts or
lists renders each distinct element shape once: every element is walked
once for its shape (dict keys, nesting and leaf types) and its leaf values,
and the elements of one shape share one template.  Errors come in document
order, so the first unsupported value, non-string key or non-finite float
raises as rendering leaf by leaf would.
"""

from __future__ import annotations

from json.encoder import encode_basestring
from math import isfinite
from typing import Any, Iterable

_SCALARS = (type(None), bool, int, float, str)

#: Each JSON type, with the conversion that turns an instance of a subclass
#: into a value of the type itself: an int subclass is written as its
#: integer value and a str subclass as its characters, whatever its own
#: ``__str__`` returns.
_BASES = (
    (int, int),
    (float, float),
    (str, str.__str__),
    (dict, dict),
    (list, list),
    (tuple, tuple),
)


def format_float(value: float) -> str:
    """Render a float with 17 significant digits (round-trips exactly)."""
    value = float(value)
    if not isfinite(value):
        raise ValueError(f"non-finite value cannot be serialized: {value!r}")
    return format(value, ".17g")


def dumps(obj: Any, indent: int = 2) -> str:
    """Serialize to deterministic JSON with a trailing newline."""
    out: list[str] = []
    leaves: list = []
    _write(obj, out, leaves, 0, indent)
    out.append("\n")
    return "".join(out) % tuple(leaves)


def _as_base(obj: Any) -> Any:
    """``obj``, an instance of a subclass of a JSON type, as that type."""
    for base, convert in _BASES:
        if isinstance(obj, base):
            return convert(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _walk(items: Iterable, shape: list, leaves: list) -> None:
    """Append the shape tokens and the slot values of each of ``items`` in
    document order.  A scalar's token is its template text (a slot or
    ``null``), a dict's its key tuple and a list's its length.  Keys are
    checked by the renderer, which renders every new shape."""
    for obj in items:
        kind = type(obj)
        if kind is float:
            if not isfinite(obj):
                format_float(obj)
            shape.append("%.17g")
            leaves.append(obj)
        elif kind is dict:
            shape.append(tuple(obj))
            _walk(obj.values(), shape, leaves)
        elif kind is str:
            shape.append("%s")
            leaves.append(encode_basestring(obj))
        elif kind is bool:
            shape.append("%s")
            leaves.append("true" if obj else "false")
        elif kind is int:
            shape.append("%s")
            leaves.append(obj)
        elif obj is None:
            shape.append("null")
        elif kind is list or kind is tuple:
            shape.append(len(obj))
            _walk(obj, shape, leaves)
        else:
            _walk((_as_base(obj),), shape, leaves)


def _write(obj: Any, out: list[str], leaves: list, level: int, indent: int) -> None:
    """Append the template text of ``obj`` to ``out`` and its slot values
    to ``leaves``."""
    if isinstance(obj, dict):
        _write_dict(obj, out, leaves, level, indent)
    elif isinstance(obj, (list, tuple)):
        _write_list(obj, out, leaves, level, indent)
    else:
        _walk((obj,), out, leaves)


def _write_dict(obj: dict, out: list[str], leaves: list, level: int, indent: int) -> None:
    if not obj:
        out.append("{}")
        return
    inner = " " * (indent * (level + 1))
    out.append("{\n")
    for i, (key, value) in enumerate(obj.items()):
        if not isinstance(key, str):
            raise TypeError(f"JSON object keys must be strings, got {key!r}")
        out.append(inner)
        out.append(encode_basestring(key).replace("%", "%%"))
        out.append(": ")
        _write(value, out, leaves, level + 1, indent)
        out.append(",\n" if i < len(obj) - 1 else "\n")
    out.append(" " * (indent * level) + "}")


def _write_list(obj: Iterable, out: list[str], leaves: list, level: int, indent: int) -> None:
    items = list(obj)
    if not items:
        out.append("[]")
        return
    if all(isinstance(item, _SCALARS) for item in items):
        tokens: list[str] = []
        _walk(items, tokens, leaves)
        out.append("[" + ", ".join(tokens) + "]")
        return
    # The walk leaves keys to the renderer, so when it raises, rendering
    # the element raises the element's first error, a bad key's included.
    templates: dict[tuple, str] = {}
    elements = []
    for item in items:
        shape: list = []
        try:
            _walk((item,), shape, leaves)
        except (TypeError, ValueError):
            _write(item, [], [], level + 1, indent)
            raise
        key = tuple(shape)
        template = templates.get(key)
        if template is None:
            text: list[str] = []
            _write(item, text, [], level + 1, indent)
            template = templates[key] = "".join(text)
        elements.append(template)
    inner = " " * (indent * (level + 1))
    out.append("[\n" + inner)
    out.append((",\n" + inner).join(elements))
    out.append("\n" + " " * (indent * level) + "]")


def format_cell(value: float | str) -> str:
    """Render one CSV field: a float at 17 digits, or a string that needs no
    quoting."""
    if isinstance(value, float):
        return format_float(value)
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
