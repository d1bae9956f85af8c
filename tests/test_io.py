"""Tests for graph loading, canonical JSON and FormExpr serialization."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncgeom.errors import ValidationError
from ncgeom.finite_calculus import FormExpr
from ncgeom.io import (
    dumps_canonical,
    form_expr_from_json,
    form_expr_to_json,
    format_float,
    load_digraph,
    load_json,
)


def write(tmp_path, text, name="graph.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


def graph_to_json(graph, lengths):
    """The JSON graph format for a loaded digraph, via the canonical writer."""
    labels = graph.base.labels
    data = {
        "points": list(labels),
        "arrows": [[labels[i], labels[j]] for i, j in sorted(graph.arrows)],
    }
    if lengths is not None:
        data["lengths"] = [
            [labels[i], labels[j], ell] for (i, j), ell in sorted(lengths.items())
        ]
    return dumps_canonical(data)


# -- JSON graphs ---------------------------------------------------------


def test_json_graph_with_labels_and_lengths(tmp_path):
    text = json.dumps({
        "points": ["a", 7, "c"],
        "arrows": [["a", 7], [7, "c"], ["c", "a"]],
        "lengths": [["a", 7, 2], [7, "c", 0.5]],
    })
    graph, lengths = load_digraph(write(tmp_path, text, "g.json"))
    assert graph.base.labels == ("a", 7, "c")
    assert graph.arrows == {(0, 1), (1, 2), (2, 0)}
    assert lengths == {(0, 1): 2.0, (1, 2): 0.5}
    assert all(type(ell) is float for ell in lengths.values())


def test_json_graph_without_lengths(tmp_path):
    text = '  {"points": [0, 1], "arrows": [[0, 1]]}'
    graph, lengths = load_digraph(write(tmp_path, text, "g.json"))
    assert graph.arrows == {(0, 1)}
    assert lengths is None


def test_json_graph_round_trip(tmp_path):
    text = json.dumps({
        "points": ["x", "y", 3],
        "arrows": [["x", "y"], ["y", 3], [3, "x"], ["y", "x"]],
        "lengths": [["x", "y", 0.1], [3, "x", 1e-7]],
    })
    graph, lengths = load_digraph(write(tmp_path, text, "a.json"))
    again = load_digraph(write(tmp_path, graph_to_json(graph, lengths), "b.json"))
    assert again == (graph, lengths)


# -- edge lists ------------------------------------------------------------


def test_edge_list_with_comments_and_lengths(tmp_path):
    text = "# Fig. 1\n\n1 2 0.5  # weighted\n2 3\n  1 4 2\n4 3 # plain\n"
    graph, lengths = load_digraph(write(tmp_path, text))
    assert graph.base.labels == ("1", "2", "3", "4")
    assert graph.arrows == {(0, 1), (1, 2), (0, 3), (3, 2)}
    assert lengths == {(0, 1): 0.5, (0, 3): 2.0}


def test_edge_list_without_lengths(tmp_path):
    graph, lengths = load_digraph(write(tmp_path, "a b\nb a\n"))
    assert graph.arrows == {(0, 1), (1, 0)}
    assert lengths is None


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_edge_list_round_trip(tmp_path_factory, data):
    n = data.draw(st.integers(2, 6))
    labels = data.draw(st.lists(
        st.text("abcxyz_0123456789", min_size=1, max_size=4),
        min_size=n, max_size=n, unique=True,
    ))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    arrows = data.draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    weights = st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False)
    lengths = {a: data.draw(weights) for a in arrows}
    text = "".join(f"{labels[i]} {labels[j]} {lengths[(i, j)]!r}\n" for i, j in arrows)
    graph, loaded = load_digraph(write(tmp_path_factory.mktemp("edges"), text))
    # points are numbered in order of first appearance
    seen = list(dict.fromkeys(labels[v] for a in arrows for v in a))
    assert graph.base.labels == tuple(seen)
    index = {lab: k for k, lab in enumerate(seen)}
    expected = {(index[labels[i]], index[labels[j]]): ell for (i, j), ell in lengths.items()}
    assert graph.arrows == set(expected)
    assert loaded == expected


# -- rejected input ------------------------------------------------------


@pytest.mark.parametrize("text", [
    '{"points": [0, 1], "arrows": [[0, 1]',  # malformed JSON
    '{"arrows": []}',
    '["points"]',
    '{"points": []}',
    '{"points": "ab"}',
    '{"points": [1.5]}',
    '{"points": [[0]]}',
    '{"points": ["a", "a"]}',
    '{"points": [0, 1], "arrows": [[0, 1, 2]]}',
    '{"points": [0, 1], "arrows": [0]}',
    '{"points": [0, 1], "arrows": [[0, 2]]}',
    '{"points": [0, 1], "arrows": [[1, 1]]}',
    '{"points": [0, 1], "arrows": [[0, 1]], "lengths": [[0, 1]]}',
    '{"points": [0, 1], "arrows": [[0, 1]], "lengths": [[0, 5, 1.0]]}',
    '{"points": [0, 1], "arrows": [[0, 1]], "lengths": [[0, 1, 0]]}',
    '{"points": [0, 1], "arrows": [[0, 1]], "lengths": [[0, 1, -2.5]]}',
    '{"points": [0, 1], "arrows": [[0, 1]], "lengths": [[0, 1, "1"]]}',
    '{"points": [0, 1], "arrows": [[0, 1]], "lengths": [[0, 1, NaN]]}',
    '{"points": [0, 1], "arrows": [[0, 1]], "lengths": [[0, 1, Infinity]]}',
    '{"points": [0, 1], "arrows": [[0, 1]], "lengths": [[0, 1, 1e999]]}',
    # a length for an arrow that is not listed
    '{"points": [0, 1], "arrows": [[0, 1]], "lengths": [[1, 0, 1.0]]}',
    # true and false load as bool, a subclass of int
    '{"points": [0, 1], "arrows": [[0, 1]], "lengths": [[0, 1, true]]}',
    '{"points": [0, 1], "arrows": [[0, 1]], "lengths": [[0, 1, false]]}',
    # a second length for the same arrow
    '{"points": [0, 1], "arrows": [[0, 1]], "lengths": [[0, 1, 2.0], [0, 1, 5]]}',
    # a repeated arrow, which the edge-list format rejects too
    '{"points": [0, 1], "arrows": [[0, 1], [0, 1]]}',
])
def test_json_graph_rejected(tmp_path, text):
    with pytest.raises(ValidationError, match="g.json"):
        load_digraph(write(tmp_path, text, "g.json"))


@pytest.mark.parametrize("text", [
    "",
    "# only a comment\n\n",
    "a\n",
    "a b 1 2\n",
    "a a\n",
    "a b\nb c\na b 2\n",
    "a b one\n",
    "a b 0\n",
    "a b -1\n",
    "a b nan\n",
    "a b inf\n",
    "a b -inf\n",
])
def test_edge_list_rejected(tmp_path, text):
    with pytest.raises(ValidationError, match="graph.txt"):
        load_digraph(write(tmp_path, text))


def test_load_json(tmp_path):
    assert load_json(write(tmp_path, '{"a": [1, 2.5]}', "x.json")) == {"a": [1, 2.5]}
    with pytest.raises(ValidationError, match="line 2, column"):
        load_json(write(tmp_path, '{"a":\n ]', "y.json"))


# -- canonical JSON ------------------------------------------------------


def test_dumps_canonical_sorts_keys_at_every_level():
    obj = {"b": 1, "a": {"z": None, "y": [True, False]}, 3: "x"}
    assert dumps_canonical(obj) == (
        '{"3": "x", "a": {"y": [true, false], "z": null}, "b": 1}'
    )


def test_dumps_canonical_floats():
    assert dumps_canonical(0.1) == "0.10000000000000001"
    assert dumps_canonical(2.0) == "2.0"
    assert dumps_canonical(-3.0) == "-3.0"
    assert dumps_canonical(1e20) == "1e+20"
    assert dumps_canonical(math.inf) == '"inf"'
    assert dumps_canonical(-math.inf) == '"-inf"'
    assert dumps_canonical(math.nan) == '"nan"'
    assert dumps_canonical([1, 2.5, "s", (3, 4)]) == '[1, 2.5, "s", [3, 4]]'


def test_dumps_canonical_numpy():
    assert dumps_canonical(np.float64(0.1)) == "0.10000000000000001"
    assert dumps_canonical(np.int64(7)) == "7"
    assert dumps_canonical(np.bool_(True)) == "true"
    assert dumps_canonical(np.array([[1.0, np.inf], [0.5, 2.0]])) == (
        '[[1.0, "inf"], [0.5, 2.0]]'
    )
    assert dumps_canonical({"v": np.arange(3)}) == '{"v": [0, 1, 2]}'


def test_dumps_canonical_rejects_unknown_types():
    with pytest.raises(ValidationError):
        dumps_canonical(object())
    with pytest.raises(ValidationError):
        dumps_canonical({"s": {1, 2}})


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=100, deadline=None)
@given(json_values)
def test_dumps_canonical_parses_back_exactly(value):
    text = dumps_canonical(value)
    assert json.loads(text) == value
    assert dumps_canonical(json.loads(text)) == text


def test_format_float():
    assert format_float(math.inf) == "inf"
    assert format_float(-math.inf) == "-inf"
    assert format_float(0.1) == "0.10000000000000001"


# -- FormExpr serialization ----------------------------------------------


def test_form_expr_json_round_trip():
    expr = FormExpr({(0, 1, 2): 2, (0, 3, 2): -0.5, (1,): 1 + 2j, (2, 0): 3.25})
    records = form_expr_to_json(expr)
    assert [r["path"] for r in records] == [[1], [2, 0], [0, 1, 2], [0, 3, 2]]
    assert records[0] == {"path": [1], "re": 1.0, "im": 2.0}
    back = form_expr_from_json(json.loads(dumps_canonical(records)))
    assert back == expr
    assert type(back.coefficient((0, 1, 2))) is float
    assert back.coefficient((1,)) == 1 + 2j


def test_form_expr_from_json_sums_repeated_paths_and_drops_zeros():
    records = [
        {"path": [0, 1], "re": 1.5},
        {"path": [0, 1], "re": -1.5},
        {"path": [1, 0], "im": 2.0},
    ]
    assert form_expr_from_json(records) == FormExpr({(1, 0): 2j})
    assert form_expr_to_json(FormExpr.zero()) == []
