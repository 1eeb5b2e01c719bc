"""``_serialize.dumps``, the templating JSON writer, against the leaf-by-leaf
reference in ``json_reference``."""

import collections
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import json_reference
from prospector_eval import _serialize

#: Keys that need care in a %-template or in JSON escaping.
ODD_KEYS = ("%", "%s", "%%", "%(x)s", "\x00s", "\x00", 'say "hi"', "back\\slash")

keys = st.text(max_size=4) | st.sampled_from(ODD_KEYS)
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6)
    | st.sampled_from(ODD_KEYS)
)
documents = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(keys, children, max_size=4),
    max_leaves=30,
)
#: Lists of dicts with the same keys, so that shapes repeat and differ only
#: in leaf types, nesting and list lengths.
records = st.lists(
    st.fixed_dictionaries(
        {
            "a": scalars,
            "b": st.lists(scalars, max_size=2),
            "c": st.none()
            | st.fixed_dictionaries({"%s": scalars, "d": st.lists(documents, max_size=2)}),
        }
    ),
    max_size=8,
)


def raised(write, obj) -> tuple[type, str]:
    with pytest.raises((TypeError, ValueError)) as excinfo:
        write(obj)
    return type(excinfo.value), str(excinfo.value)


class Count(int):
    pass


class Name(str):
    pass


class Point(collections.namedtuple("Point", "x y")):
    pass


class TestDumps:
    @settings(max_examples=300, deadline=None)
    @given(documents)
    def test_any_document_matches_the_reference(self, obj):
        assert _serialize.dumps(obj) == json_reference.dumps(obj)

    @settings(max_examples=200, deadline=None)
    @given(records)
    def test_lists_of_similar_elements_match_the_reference(self, obj):
        assert _serialize.dumps(obj) == json_reference.dumps(obj)

    def test_elements_that_differ_only_in_a_leaf_type(self):
        values = [1, 1.5, True, "1", None, {}, []]
        document = [{"v": v, "w": 2.5} for v in values] * 2
        text = _serialize.dumps(document)
        assert text == json_reference.dumps(document)
        assert json.loads(text) == document

    def test_nested_lists_of_dicts_inside_elements(self):
        document = {
            "outer": [
                {"rows": [{"a": 1.0}, {"a": 2}, {"a": [{"deep": None}]}], "n": 3},
                {"rows": [{"a": 3.5}], "n": 1},
                {"rows": [], "n": 0},
                [[{"x": [{"y": 1}, {"y": "1"}]}], []],
            ]
        }
        assert _serialize.dumps(document) == json_reference.dumps(document)

    def test_container_subclasses_render_as_their_base_type(self):
        document = [
            {"point": Point(1.5, None)},
            collections.OrderedDict(count=2, name="m", point=(0.5, True)),
        ]
        assert _serialize.dumps(document) == json_reference.dumps(document)

    @pytest.mark.parametrize("leaf", [Count(7), Name("n"), np.float64(0.1), np.float64("nan")])
    def test_scalar_subclasses_are_refused(self, leaf):
        """Only the JSON scalar types themselves are written: every value the
        package writes is one, so a subclass is refused, not converted."""
        with pytest.raises(TypeError, match=f"cannot serialize {type(leaf).__name__}"):
            _serialize.dumps([{"a": 1.5, "b": [leaf]}])

    def test_negative_zero_as_the_last_float(self):
        """A float field carries no comma after its text, so the last float
        of the head and of each ``Rows`` chunk is followed by none: -0.0
        there is still written ``-0.0``."""
        assert _serialize.dumps([1.5, -0.0]) == json_reference.dumps([1.5, -0.0])
        count = _serialize._CHUNK + 1
        last = [0.25] * count
        last[_serialize._CHUNK - 1] = last[-1] = -0.0
        columns = ([0.5] * count, ["n"] * count, last)
        rows = _serialize.Rows([{"a": 0.0, "s": "", "b": 0.0}], columns)
        document = [{"a": a, "s": t, "b": b} for a, t, b in zip(*columns)]
        text = _serialize.dumps({"rows": rows})
        assert text == json_reference.dumps({"rows": document})
        assert text.count("-0.0") == 2

    @pytest.mark.parametrize("count", [1, 511, 512, 513, 1024, 1025])
    def test_rows_at_the_chunk_edges(self, count):
        """Every chunk's text is followed by a separator and the last one is
        replaced by the closing text, so a list that ends on a chunk edge or
        one row past it closes as the reference does.  Rows without
        provenance (their int columns hold None) sit first and last in every
        chunk."""
        chunk = _serialize._CHUNK
        bare = [k % chunk in (0, chunk - 1) or k == count - 1 for k in range(count)]
        example = {"kind": "", "provenance": {"seed": 0, "index": 0}, "cells": [0.0, 0.0]}
        kinds = [f"k{k}" for k in range(count)]
        seeds = [None if b else k for k, b in enumerate(bare)]
        indices = [None if b else 3 * k for k, b in enumerate(bare)]
        cells = np.random.default_rng(count).uniform(-1.5, 1.5, (count, 2)).tolist()
        columns = (kinds, seeds, indices, *zip(*cells))
        rows = _serialize.Rows((example, {**example, "provenance": None}), columns, bare)
        document = [
            {"kind": kind, "provenance": None if s is None else {"seed": s, "index": i}, "cells": c}
            for kind, s, i, c in zip(kinds, seeds, indices, cells)
        ]
        text = _serialize.dumps({"networks": rows})
        assert text == json_reference.dumps({"networks": document})
        assert text.count('"provenance": null') == sum(bare)

    def test_keys_that_look_like_format_directives(self):
        document = [dict.fromkeys(ODD_KEYS, "%s"), {key: 1.0 for key in ODD_KEYS}]
        text = _serialize.dumps(document)
        assert text == json_reference.dumps(document)
        assert json.loads(text) == document
        assert _serialize.dumps({"\x00s": [{"\x00s": "\x00s"}]}) == json_reference.dumps(
            {"\x00s": [{"\x00s": "\x00s"}]}
        )

    @pytest.mark.parametrize(
        "obj, error",
        [
            ([{"a": 1}, {1: 2}], TypeError),
            ({"a": 1.5, 2: "b"}, TypeError),
            ([{"a": object()}], TypeError),
            ([{"a": 1}, {"a": {1, 2}}], TypeError),
            ([{"a": [math.nan, object()]}], ValueError),
            ({"a": math.inf, "b": object()}, ValueError),
            ([{"a": object(), "b": math.nan}], TypeError),
            ([{"a": math.nan, 1: 2}], ValueError),
            ([{1: 2, "a": math.nan}], TypeError),
            ([{"a": 1.0}, {"a": -math.inf}], ValueError),
            ([{"a": [{"b": 1}, {2: 1, "b": math.nan}]}], TypeError),
            ([1, object()], TypeError),
        ],
    )
    def test_errors_match_the_reference(self, obj, error):
        expected = raised(json_reference.dumps, obj)
        assert expected[0] is error
        assert raised(_serialize.dumps, obj) == expected


def assert_fields_match(values) -> None:
    """``float_fields`` equals ``format(v, ".17g")`` for every value, as a
    column and as one row: either way each value is led by a comma, so the
    text is the same.  The first mismatches are reported, not a diff of the
    whole text."""
    values = np.asarray(values, dtype=float).ravel().tolist()
    expected = [format(v, ".17g") for v in values]
    for shape in ((-1, 1), (1, -1)):
        text = _serialize.csv_rows(_serialize.float_fields(np.reshape(values, shape)))
        assert text.startswith(",")
        fields = text[1:].split(",")
        assert len(fields) == len(expected)
        assert [(v, f, e) for v, f, e in zip(values, fields, expected) if f != e][:5] == []


def decimal_ties() -> np.ndarray:
    """Odd m / 2**p, for p = 18 ... 21, in the decade where 17 significant
    digits are p - 1 decimal places: each value is an exact tie halfway
    between two 17-digit decimals, so it tests round-half-even."""
    families = []
    for p in (18, 19, 20, 21):
        low, high = 10.0 ** (17 - p), 10.0 ** (18 - p)
        families.append(np.arange(math.ceil(low * 2**p) | 1, high * 2**p, 2) / 2.0**p)
    return np.concatenate(families)


def assert_slots_padded(values) -> None:
    """Each slot of ``float_fields`` holds its value's ``,%.17g`` text as
    one run and ``PAD`` in every other byte: the pads alone mark the text."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    slots = _serialize.float_fields(values)
    texts = [("," + format(v, ".17g")).encode() for v in values.ravel().tolist()]
    width = _serialize.FIELD if max(map(len, texts)) <= _serialize.FIELD else 32
    assert slots.dtype == np.uint8 and slots.shape == (*values.shape[:-1], values.shape[-1] * width)
    pad = bytes([_serialize.PAD])
    for slot, text in zip(slots.reshape(-1, width), texts):
        raw = slot.tobytes()
        assert (raw.strip(pad), raw.count(pad)) == (text, width - len(text))


def kept_digits_examples() -> list[float]:
    """One fast-path value per count of digits kept after the lead, 0 to 16:
    t / 2**e for odd t near 0.3 * 2**e is exactly a decimal of e digits,
    t * 5**e, in [0.1, 1)."""
    return [((round(0.3 * 2**e) | 1) / 2**e) for e in range(1, 18)]


floats = st.floats(allow_nan=False, allow_infinity=False)
fast_floats = st.floats(min_value=1e-4, max_value=1.0, exclude_max=True)


class TestFloatFields:
    def test_exact_decimal_ties(self):
        ties = decimal_ties()
        assert len(ties) > 140_000
        assert_fields_match(np.concatenate((ties, -ties)))

    def test_neighbours_of_the_fast_path_bounds(self):
        bounds = np.array([1e-4, 1e-3, 1e-2, 0.1, 1.0])
        values = np.concatenate(
            [bounds, np.nextafter(bounds, 0.0), np.nextafter(bounds, 2.0)]
        )
        assert_fields_match(np.concatenate((values, -values)))

    def test_zeros_subnormals_and_values_outside_the_fast_path(self):
        values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                  -2.2250738585072014e-308, 1.0, -1.0, 1e300, -1e300, 1e16, 1.5e-5]
        assert_fields_match(values)
        text = _serialize.csv_rows(_serialize.float_fields(np.array([values])))
        assert text.startswith(",0,-0,4.9406564584124654e-324,-4.9406564584124654e-324,")

    def test_random_doubles_across_the_fast_path(self):
        rng = np.random.default_rng(9)
        values = 10.0 ** rng.uniform(-4.0, 0.0, 100_000) * rng.choice((-1.0, 1.0), 100_000)
        assert_fields_match(values)

    def test_digits_ending_at_a_word_boundary(self):
        """A field keeps 16, 8 or no digits after the lead, so its last kept
        byte ends the second digit word, the first or the prefix word; 7
        and 1 kept digits stop one byte before and after such an end."""
        values = [0.1, 0.3, 0.123456789, 0.0123456789, 0.000123456789, 0.12345678,
                  0.5, 0.02, 0.002, 0.0001, 0.75]
        significant = {len(format(v, ".17g")[2:].lstrip("0").rstrip("0")) for v in values}
        assert significant == {17, 9, 8, 1, 2}
        assert_fields_match(values + [-v for v in values])

    @pytest.mark.parametrize("negative", [False, True])
    @pytest.mark.parametrize("zeros", [0, 1, 2, 3])
    def test_each_prefix(self, negative, zeros):
        """Sign and leading zeros pick one of the eight prefixes, here with
        short and full digit strings and the decade's ends."""
        low = 10.0 ** -(zeros + 1)
        values = np.array(
            [low, 1.5 * low, 5 * low, np.nextafter(10 * low, 0.0), 0.123456789 * 10 * low]
        )
        assert_fields_match(-values if negative else values)
        prefix = "-" * negative + "0." + "0" * zeros
        texts = [format(v, ".17g") for v in (-values if negative else values)]
        assert {text[: len(prefix) + 1] for text in texts} <= {prefix + d for d in "123456789"}

    def test_rows_mixing_fast_and_other_values(self):
        """Every row holds values of both paths, so the other path's fields
        sit between fast-path fields in one row."""
        values = np.array([
            [0.25, 1.0, -0.003, 0.0, 0.1, -1e-5],
            [1e300, -0.5, 2.5, 0.0001, -0.0, 0.98765432099999995],
            [-5e-324, 0.07, 1e16, -0.3, 123.456, 0.000123456789],
        ])
        slots = _serialize.float_fields(values)
        # -5e-324's text and comma take 25 bytes, so every field takes 32.
        assert slots.shape == (3, 6 * 32)
        expected = "".join("," + format(v, ".17g") for row in values.tolist() for v in row)
        assert _serialize.csv_rows(slots) == expected

    @pytest.mark.parametrize("wide", [-4.9406564584124654e-324, -1.2345678901234567e-200])
    def test_one_long_text_widens_every_field(self, wide):
        """A negative 17-digit value with a three-digit exponent is 24
        characters, 25 with its comma: that call's fields are 32 bytes
        wide, fast-path ones too, and their text is unchanged."""
        values = np.array([[0.25, wide, -0.0012345678901234567], [1.0, -0.5, 0.98765432099999995]])
        slots = _serialize.float_fields(values)
        assert len(format(wide, ".17g")) == 24
        assert slots.shape == (2, 3 * 32)
        expected = "".join("," + format(v, ".17g") for row in values.tolist() for v in row)
        assert _serialize.csv_rows(slots) == expected
        assert_fields_match(values)
        # Without the sign, the text and its comma fill 24 bytes exactly.
        narrow = np.array([[1.0, -wide, -0.5]])
        slots = _serialize.float_fields(narrow)
        assert slots.shape == (1, 3 * _serialize.FIELD) == (1, 3 * 24)
        assert _serialize.csv_rows(slots) == f",1,{-wide:.17g},-0.5"

    @settings(max_examples=200, deadline=None)
    @given(st.lists(floats | fast_floats | fast_floats.map(lambda x: -x), min_size=1, max_size=40))
    def test_any_finite_floats(self, values):
        assert_fields_match(values)

    @pytest.mark.parametrize(
        "values, message",
        [
            ([[0.5, math.nan], [math.inf, 1.0]], "nan"),
            ([[0.5, 1.0], [-math.inf, math.nan]], "-inf"),
            ([[1e-5, 0.25], [0.5, math.inf]], "inf"),
        ],
    )
    def test_first_non_finite_value_raises(self, values, message):
        with pytest.raises(ValueError) as excinfo:
            _serialize.float_fields(np.array(values))
        assert str(excinfo.value) == f"non-finite value cannot be serialized: {message}"

    @pytest.mark.parametrize("kept", range(17))
    @pytest.mark.parametrize("widened", [False, True])
    def test_slots_pad_after_every_kept_count(self, kept, widened):
        """The digit bytes after the last kept one are pads, for each kept
        count, in 24-byte fields and, beside a text that widens the call,
        in 32-byte ones, whose fourth word is all pad."""
        value = kept_digits_examples()[kept]
        assert len(format(value, ".17g").rstrip("0")) == 3 + kept
        row = [value, -value, 0.5] + [-5e-324] * widened
        assert_slots_padded(row)
        width = 32 if widened else _serialize.FIELD
        assert _serialize.float_fields(np.array([row])).shape == (1, len(row) * width)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(floats | fast_floats | fast_floats.map(lambda x: -x), min_size=1, max_size=40))
    def test_slots_hold_each_text_and_pads(self, values):
        assert_slots_padded(values)
        assert_slots_padded(np.reshape(values, (-1, 1)))

    def test_text_fields_keep_every_byte(self):
        texts = _serialize.text_fields(["\nnét-α", "\nnul\x00", "\n%s"])
        values = _serialize.float_fields(np.array([[0.5], [1.0], [-0.0]]))
        assert _serialize.csv_rows(texts, values) == "\nnét-α,0.5\nnul\x00,1\n%s,-0"
