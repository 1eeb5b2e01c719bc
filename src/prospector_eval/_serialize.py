"""Deterministic JSON and CSV formatting.

All files this package writes go through these helpers.  Floats are rendered
with 17 significant digits (lossless for IEEE doubles), dict keys keep
insertion order, and lines always end with "\n", so a given object has
exactly one serialized form on every platform.

JSON is written as a ``%``-template whose literal text is ``%``-escaped and
whose leaves are ``%s`` slots, filled with their JSON text by one
``%``-call.  ``dumps`` walks a document element by element, which suits its
small head.  A long list whose elements share one layout enters the
document as ``Rows``, one column per leaf: its element templates are
rendered once from example elements, and one ``%``-call per chunk of rows
fills their slots from the columns.  The floats of the head, and those of
each chunk, are formatted by one ``float_fields`` call.  Errors come in
document order, so the first unsupported value, non-string key or
non-finite float raises as rendering leaf by leaf would.

Array CSV rows are fixed-width byte slots whose unused bytes hold ``PAD``,
0xFF, a byte UTF-8 never writes, so each slot carries its own extent:
``csv_rows`` assigns the parts into one row buffer and keeps its bytes that
are not ``PAD``.  Each field leads with its separator, so its text is one
run; the gather's cost follows the bytes it scans, so the slots are kept
narrow.  ``float_fields`` writes a comma and ``%.17g`` of each finite x
with 1e-4 <= |x| < 1 (``,[-]0.``, 0-3 zeros, 17 significant digits less
trailing zeros) from the exact product of its 53-bit significand and
5**(16 - k), k = floor(log10 |x|), rounded half to even, in three 8-byte
words spelt by SWAR (Warren, Hacker's Delight, ch. 10): its digit bytes
take their ASCII ``'0'`` bits up to the last kept digit and pad bits after
it.  Others use ``%``.
"""

from __future__ import annotations

from collections import UserString
from json.encoder import encode_basestring
from math import isfinite
from typing import Any, Iterable, Sequence

import numpy as np

_SCALARS = (type(None), bool, int, float, str)


def format_float(value: float) -> str:
    """Render a float with 17 significant digits (round-trips exactly)."""
    value = float(value)
    if not isfinite(value):
        raise ValueError(f"non-finite value cannot be serialized: {value!r}")
    return format(value, ".17g")


class Rows:
    """A JSON list for ``dumps`` to write, given as columns.

    Element k is ``examples[layout[k]]`` (``examples[0]`` without a
    layout), a dict or list, with its leaves in document order taken from
    row k of ``columns``, one column per leaf of ``examples[0]``; each
    column is written as the type of that leaf.  Where row k's example
    lacks int leaves (they sit in a null there), those columns hold None.
    """

    __slots__ = ("examples", "columns", "layout")

    def __init__(self, examples: Sequence, columns: Sequence[Sequence], layout=None):
        self.examples, self.columns, self.layout = examples, columns, layout


def dumps(obj: Any) -> str:
    """Serialize to deterministic two-space-indented JSON with a trailing newline."""
    template, leaves = _template(obj, 0)
    return (template + "\n") % tuple(_slot_values(leaves, [[leaf] for leaf in leaves]))


def _write(obj: Any, out: list[str], leaves: list, level: int) -> None:
    """Append the template text of ``obj`` to ``out`` and its leaves, as
    JSON scalars, to ``leaves``; a non-finite float raises here."""
    if isinstance(obj, dict):
        _write_dict(obj, out, leaves, level)
    elif isinstance(obj, (list, tuple)):
        _write_list(obj, out, leaves, level)
    elif obj is None:
        out.append("null")
    elif isinstance(obj, Rows):
        out.append("%s")
        # JSON text already: a UserString leaf is written as it is, uncopied.
        leaves.append(UserString(_write_rows(obj, level)))
    else:
        if type(obj) not in _SCALARS:
            raise TypeError(f"cannot serialize {type(obj).__name__}")
        if type(obj) is float and not isfinite(obj):
            format_float(obj)
        out.append("%s")
        leaves.append(obj)


def _write_dict(obj: dict, out: list[str], leaves: list, level: int) -> None:
    if not obj:
        out.append("{}")
        return
    inner = "  " * (level + 1)
    out.append("{\n")
    for i, (key, value) in enumerate(obj.items()):
        if not isinstance(key, str):
            raise TypeError(f"JSON object keys must be strings, got {key!r}")
        out.append(inner)
        out.append(encode_basestring(key).replace("%", "%%"))
        out.append(": ")
        _write(value, out, leaves, level + 1)
        out.append(",\n" if i < len(obj) - 1 else "\n")
    out.append("  " * level + "}")


def _write_list(obj: Iterable, out: list[str], leaves: list, level: int) -> None:
    items = list(obj)
    if not items:
        out.append("[]")
    elif all(isinstance(item, _SCALARS) for item in items):
        out.append("[")
        for i, item in enumerate(items):
            _write(item, out, leaves, level + 1)
            out.append(", " if i < len(items) - 1 else "]")
    else:
        inner = "  " * (level + 1)
        out.append("[\n")
        for i, item in enumerate(items):
            out.append(inner)
            _write(item, out, leaves, level + 1)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append("  " * level + "]")


def _template(obj: Any, level: int) -> tuple[str, list]:
    """The template text of ``obj`` at ``level`` and its leaves."""
    text: list[str] = []
    leaves: list = []
    _write(obj, text, leaves, level)
    return "".join(text), leaves


#: Rows that ``_write_rows`` fills at a time.  Filling a 4000-table network
#: file at once nearly doubled the writer's peak memory (9.1 against 4.8 MB).
_CHUNK = 512


def _write_rows(rows: Rows, level: int) -> str:
    """The JSON text of ``rows`` as a list at ``level``."""
    count = len(rows.columns[0])
    if not count:
        return "[]"
    templates, leaves = zip(*(_template(example, level + 1) for example in rows.examples))
    layout = [0] * count if rows.layout is None else rows.layout
    inner = "  " * (level + 1)
    separator = ",\n" + inner
    chunks = []
    for start in range(0, count, _CHUNK):
        part = slice(start, start + _CHUNK)
        values = _slot_values(leaves[0], [column[part] for column in rows.columns])
        if any(layout[part]):  # some rows lack the leaves that hold None
            values = [value for value in values if value is not None]
        chunks.append(separator.join([templates[k] for k in layout[part]]) % tuple(values))
    return "[\n" + inner + separator.join(chunks) + "\n" + "  " * level + "]"


def _slot_values(examples: Sequence, columns: Sequence[Sequence]) -> list:
    """The values that fill the slots of the rows of ``columns``, row by
    row, from one column per slot.  A column is written as the type of its
    example leaf: a str through ``encode_basestring``, a bool as ``true`` or
    ``false``, an int with ``%s``, and the floats by one ``float_fields``
    call, so a non-finite one raises for the first in document order; -0.0
    is written ``-0.0``, which a JSON reader reads back as -0.0."""
    kinds = list(map(type, examples))
    width = len(kinds)
    values: list = [None] * (len(columns[0]) * width if columns else 0)
    floats = [j for j, kind in enumerate(kinds) if kind is float]
    if floats:
        slots = float_fields(np.column_stack([columns[j] for j in floats]))
        text = slots[slots != PAD].tobytes() + b","
        # Only "-0" ends so: an exponent has two digits.
        texts = text.replace(b"-0,", b"-0.0,").decode("ascii").split(",")
        for i, j in enumerate(floats):
            values[j::width] = texts[1 + i : -1 : len(floats)]
    for j, (kind, column) in enumerate(zip(kinds, columns, strict=True)):
        if kind is str:
            values[j::width] = map(encode_basestring, column)
        elif kind is bool:
            values[j::width] = ["true" if value else "false" for value in column]
        elif kind is not float:
            values[j::width] = column
    return values


def format_cell(value: float | str) -> str:
    """Render one CSV field: a float at 17 digits, or a string that needs no
    quoting."""
    if isinstance(value, float):
        return format_float(value)
    text = str(value)
    if "," in text or "\n" in text or "\r" in text or '"' in text:
        raise ValueError(f"CSV field would need quoting: {text!r}")
    return text


def csv_text(header: Iterable[str], rows: Iterable[Iterable[Any]]) -> str:
    """Render a CSV document (header + rows) deterministically."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_cell(cell) for cell in row))
    return "\n".join(lines) + "\n"


#: Bytes per field of ``float_fields``, three little-endian words: a
#: fast-path field's ``,[-]0.``, zeros and lead digit right-aligned, then its
#: 16 other digits; any other value's comma and text start the field.  A call
#: widens its fields by a fourth word when some such text needs the room.
FIELD = 24

#: Fills every byte of a slot that holds no text: UTF-8 never writes it.
PAD = 0xFF

_LOW32 = np.uint64(0xFFFFFFFF)
#: 5**(16 - k) at index k + 4, for the decimal exponents k = -4 ... -1.
_POW5 = np.array([5**20, 5**19, 5**18, 5**17], dtype=np.uint64)
#: SWAR steps (m, shift, lanes, bits, divisor) that spell v < 10**8 as 8 digit
#: bytes, most significant first: each lane becomes q = v * m >> shift & lanes
#: (exact there) plus, in its upper half, v - q * divisor, in one subtraction.
_SPLITS = ((3518437209, 45, 0x3FFF, 32, 10**4), (5243, 19, 0x7F0000007F, 16, 100),
           (103, 10, 0xF000F000F000F, 8, 10))

#: Word 0 of a fast-path field with lead digit 0, pads first, at 4 * negative + k + 4.
_PREFIXES = np.frombuffer(b"".join(
    (b",-"[: 1 + neg] + b"0." + b"0" * (3 - c)).rjust(7, b"\xff") + b"0"
    for neg in (0, 1) for c in range(4)
), dtype="<u8")
#: Column kept: the bits making digit bytes ASCII up to the last kept one, ``PAD`` after.
_DIGIT_BITS = np.frombuffer(
    b"".join(b"0" * kept + b"\xff" * (16 - kept) for kept in range(17)), dtype="<u8"
).reshape(17, 2).T.copy()


def float_fields(values: np.ndarray) -> np.ndarray:
    """The ``%.17g`` text of a float array as CSV fields: byte slots of
    shape (..., columns * width), each value's text led by a comma and
    padded with ``PAD``; width is ``FIELD``, or 32 where some value's text
    needs it.  A non-finite value raises ``format_float``'s ValueError for
    the first one in row-major order."""
    values = np.ascontiguousarray(values, dtype=float)
    flat = values.ravel()
    size = np.abs(flat)
    fast = (size >= 1e-4) & (size < 1.0)
    other = np.flatnonzero(~fast)
    rare = flat[other]
    if not np.isfinite(rare).all():
        format_float(rare[~np.isfinite(rare)][0])
    texts = (",%.17g " * rare.size % tuple(rare.tolist())).split()
    width = FIELD if max(map(len, texts), default=0) <= FIELD else 32
    # Arithmetic is done in place where an operand is spent: every new array
    # of a large call costs fresh pages.
    size[other] = 0.5  # keeps the other rows' arithmetic defined
    mantissa, exponent = np.frexp(size)
    mantissa *= 2.0**53
    mantissa = mantissa.astype(np.uint64)
    # k + 4; the doubles 1e-3, 1e-2 and 0.1 each lie above that power of ten.
    k4 = (size >= 1e-3).astype(np.int64)
    k4 += size >= 1e-2
    k4 += size >= 0.1
    # round-half-even(mantissa * 5**(16 - k) / 2**shift): the 17 digits.
    power, shift = _POW5.take(k4), (33 + k4 - exponent).astype(np.uint64)
    m0, m1, p0, p1 = mantissa & _LOW32, mantissa >> 32, power & _LOW32, power >> 32
    lo, middle, hi = m0 * p0, m0 * p1, m1 * p1
    middle += m1 * p0
    carry = lo >> 32
    carry += middle & _LOW32
    lo &= _LOW32
    lo |= carry << 32
    hi += middle >> 32
    hi += carry >> 32
    back = 64 - shift
    digits = hi << back
    digits |= lo >> shift
    # Half to even: the bits shifted out, left-aligned and | odd, exceed a half.
    lo <<= back
    lo |= digits & 1
    digits += lo > np.uint64(1 << 63)
    top, lead = digits // 10**8, digits // 10**16  # floor divides: divmod is slower
    eights = np.empty((2, flat.size), dtype=np.uint64)  # the other 16 digits
    np.subtract(top, lead * 10**8, out=eights[0])
    np.subtract(digits, top * 10**8, out=eights[1])
    for m, right, lanes, bits, divisor in _SPLITS:
        quotients = eights * m
        quotients >>= right
        quotients &= lanes
        quotients *= (divisor << bits) - 1
        eights <<= bits
        eights -= quotients
    # Digits kept after the lead: the byte length of the 16 digit bytes as one
    # number, from a double's exponent (no byte exceeds 9, so rounding stays).
    kept = (np.frexp(eights[1] * 2.0**64 + eights[0])[1] + 7) // 8
    words = np.empty((flat.size, width // 8), dtype="<u8")
    words[:, 0] = _PREFIXES.take(4 * (flat < 0) + k4) | lead << 56
    words[:, 1], words[:, 2] = eights | _DIGIT_BITS.take(kept, axis=1)
    slots = words.view(np.uint8)
    slots[:, FIELD:] = PAD  # the fourth word of a widened call
    padded = "".join([text.ljust(width, "\xff") for text in texts])
    slots[other] = np.frombuffer(padded.encode("latin-1"), dtype=np.uint8).reshape(-1, width)
    return slots.reshape(*values.shape[:-1], values.shape[-1] * width)


def text_fields(texts: Sequence[str]) -> np.ndarray:
    """Each text's UTF-8 bytes as one row of byte slots, as wide as the
    longest, padded with ``PAD``."""
    encoded = [text.encode("utf-8") for text in texts]
    width = max(map(len, encoded), default=0)
    padded = b"".join([text.ljust(width, b"\xff") for text in encoded])
    return np.frombuffer(padded, dtype=np.uint8).reshape(len(encoded), width)


def csv_rows(*parts: np.ndarray) -> str:
    """The bytes other than ``PAD`` of byte-slot parts, joined left to right
    in one buffer: the parts' leading axes broadcast to the rows'.  Each
    field carries its own separator, so the text is every row's fields in
    order."""
    shape = np.broadcast_shapes(*(part.shape[:-1] for part in parts))
    rows = np.empty((*shape, sum(part.shape[-1] for part in parts)), dtype=np.uint8)
    start = 0
    for part in parts:
        rows[..., start : start + part.shape[-1]] = part
        start += part.shape[-1]
    return str(rows[rows != PAD], "utf-8")
