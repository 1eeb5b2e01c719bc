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
