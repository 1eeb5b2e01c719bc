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
    def __str__(self):
        return "not used"


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

    def test_numpy_float64_leaves(self):
        document = [
            {"x": np.float64(0.1), "y": [np.float64(-0.0), 2.0]},
            {"x": 0.1, "y": [np.float64(1e-300), np.float64(3)]},
            np.float64(2.5),
        ]
        text = _serialize.dumps(document)
        assert text == json_reference.dumps(document)
        assert json.loads(text)[0]["x"] == 0.1

    def test_subclasses_render_as_their_base_type(self):
        document = [
            {"count": Count(7), "name": Name("n"), "point": Point(1.5, None)},
            collections.OrderedDict(count=2, name="m", point=(0.5, True)),
        ]
        assert _serialize.dumps(document) == json_reference.dumps(document)

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
            ([np.float64(math.nan)], ValueError),
            ([1, object()], TypeError),
        ],
    )
    def test_errors_match_the_reference(self, obj, error):
        expected = raised(json_reference.dumps, obj)
        assert expected[0] is error
        assert raised(_serialize.dumps, obj) == expected


def assert_fields_match(values) -> None:
    """``float_fields`` equals ``format(v, ".17g")`` for every value, as a
    column (each value ends its row with a newline) and as one row (each
    value but the last is followed by a comma).  The first mismatches are
    reported, not a diff of the whole text."""
    values = np.asarray(values, dtype=float).ravel().tolist()
    expected = [format(v, ".17g") for v in values]
    for shape, separator in (((-1, 1), "\n"), ((1, -1), ",")):
        text = _serialize.csv_rows(_serialize.float_fields(np.reshape(values, shape)))
        assert text.endswith("\n")
        fields = text[:-1].split(separator)
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
        assert text.startswith("0,-0,4.9406564584124654e-324,-4.9406564584124654e-324,")

    def test_random_doubles_across_the_fast_path(self):
        rng = np.random.default_rng(9)
        values = 10.0 ** rng.uniform(-4.0, 0.0, 100_000) * rng.choice((-1.0, 1.0), 100_000)
        assert_fields_match(values)

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

    def test_text_fields_keep_every_byte(self):
        texts = _serialize.text_fields(["nét-α,", "nul\x00,", "%s,"])
        values = _serialize.float_fields(np.array([[0.5], [1.0], [-0.0]]))
        assert _serialize.csv_rows(texts, values) == "nét-α,0.5\nnul\x00,1\n%s,-0\n"
