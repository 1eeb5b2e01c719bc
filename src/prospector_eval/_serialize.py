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

Array CSV rows are byte slots and masks.  ``float_fields`` writes ``%.17g``
of each finite x with 1e-4 <= |x| < 1 (``[-]0.``, 0-3 zeros, 17 significant
digits less trailing zeros) from the exact product of its 53-bit significand
and 5**(16 - k), k = floor(log10 |x|), rounded half to even; others use ``%``.
"""

from __future__ import annotations

from functools import cache
from json.encoder import encode_basestring
from math import isfinite
from typing import Any, Iterable, Sequence

import numpy as np

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


#: Bytes per field of ``float_fields``: the longest ``%.17g`` text of a
#: double, ``-2.2250738585072014e-308``, then its separator.
FIELD = 25

_LOW32 = np.uint64(0xFFFFFFFF)
#: 5**(16 - k) at index k, for the decimal exponents k = -4 ... -1.
_POW5 = np.array([5**20, 5**19, 5**18, 5**17], dtype=np.uint64)


@cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Built on first use, not at import: the four ASCII digits of each of
    0 ... 9999 as one uint32; the number of trailing zeros among them; and
    the kept bytes of a fast-path field, at index 68 * negative + 17 * zeros
    after the point + significant digits - 1."""
    quad = np.ix_(*[np.arange(10, dtype=np.uint8)] * 4)
    text = (np.stack(np.broadcast_arrays(*quad), axis=-1) + 48).view(np.uint32).ravel()
    trailing = (quad[3] == 0) * (1 + (quad[2] == 0) * (1 + (quad[1] == 0) * (1 + (quad[0] == 0))))
    sign, zeros, digits = (i[..., None] for i in np.ix_(range(2), range(4), range(1, 18)))
    pos = np.arange(FIELD)
    masks = (pos < sign) | ((pos >= 1) & (pos < 3 + zeros)) | ((pos >= 6) & (pos < 6 + digits))
    return text, trailing.ravel(), masks.reshape(-1, FIELD) | (pos == FIELD - 1)


def float_fields(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``%.17g`` text of a 2-D float array as CSV fields: byte slots of
    shape (rows, columns * FIELD), each value's text followed by a comma,
    and the mask of their kept bytes.  A non-finite value raises
    ``format_float``'s ValueError for the first one in row-major order."""
    quad_text, quad_zeros, masks = _tables()
    values = np.ascontiguousarray(values, dtype=float)
    flat = values.ravel()
    size = np.abs(flat)
    fast = (size >= 1e-4) & (size < 1.0)
    size = np.where(fast, size, 0.5)  # keeps the other rows' arithmetic defined
    mantissa, exponent = np.frexp(size)
    mantissa = (mantissa * 2.0**53).astype(np.uint64)
    # The doubles 1e-3, 1e-2 and 0.1 each lie above that power of ten.
    k = (size >= 1e-3).astype(np.int64) + (size >= 1e-2) + (size >= 0.1) - 4
    # round-half-even(mantissa * 5**(16 - k) / 2**shift): the 17 digits.
    power, shift = _POW5[k], (37 + k - exponent).astype(np.uint64)
    m0, m1, p0, p1 = mantissa & _LOW32, mantissa >> 32, power & _LOW32, power >> 32
    low, middle = m0 * p0, m0 * p1 + m1 * p0
    carry = (low >> 32) + (middle & _LOW32)
    lo = (low & _LOW32) | (carry << 32)
    hi = m1 * p1 + (middle >> 32) + (carry >> 32)
    digits = (hi << (64 - shift)) | (lo >> shift)
    rest, half = lo & ((1 << shift) - 1), np.uint64(1) << (shift - 1)
    digits += (rest > half) | ((rest == half) & (digits & 1).astype(bool))
    lead, digits = np.divmod(digits, 10**16)
    quads = np.empty((flat.size, 4), dtype=np.int64)
    quads[:, 0], quads[:, 1] = np.divmod(digits // 10**8, 10**4)
    quads[:, 2], quads[:, 3] = np.divmod(digits % 10**8, 10**4)
    slots = np.empty((flat.size, FIELD), dtype=np.uint8)
    slots[:, :6] = np.frombuffer(b"-0.000", dtype=np.uint8)
    slots[:, 6] = lead + 48
    slots[:, 7:23] = quad_text[quads].view(np.uint8)
    slots[:, -1] = ord(",")
    trailing = 0  # zeros among the last 16 digits; the lead digit is never 0
    for quad in quads.T:
        trailing = quad_zeros[quad] + (quad == 0) * trailing
    mask = masks[68 * (flat < 0) - 17 * (k + 1) + 16 - trailing]
    other = np.flatnonzero(~fast)
    rare = flat[other]
    if not np.isfinite(rare).all():
        format_float(rare[~np.isfinite(rare)][0])
    text = np.array(("%.17g " * rare.size % tuple(rare.tolist())).split(), dtype=f"S{FIELD - 1}")
    slots[other, :-1] = text.view(np.uint8).reshape(-1, FIELD - 1)
    mask[other, :-1] = slots[other, :-1] != 0
    shape = (len(values), values.shape[1] * FIELD)
    return slots.reshape(shape), mask.reshape(shape)


def text_fields(texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Each text's UTF-8 bytes as one row of byte slots, as wide as the
    longest, and the mask of its bytes."""
    encoded = [text.encode("utf-8") for text in texts]
    slots = np.array(encoded, dtype=bytes)
    lengths = np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded))
    width = slots.itemsize
    return slots.view(np.uint8).reshape(-1, width), np.arange(width) < lengths[:, None]


def csv_rows(*parts: tuple[np.ndarray, np.ndarray]) -> str:
    """The text of CSV rows given as (slots, mask) parts of equal row count,
    joined left to right.  Each row ends in a kept separator byte, which
    becomes the row's newline."""
    slots = np.concatenate([part[0] for part in parts], axis=1)
    mask = np.concatenate([part[1] for part in parts], axis=1)
    slots[:, -1] = ord("\n")
    return slots[mask].tobytes().decode("utf-8")
