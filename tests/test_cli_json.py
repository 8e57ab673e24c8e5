"""The one JSON writer: ``cli._json_text``, which is ``analysis.json_text``.

One walk over a report's records writes its text; on plain values that text
is ``json.dumps(v, indent=2) + "\\n"``. Checked over arbitrary nested values
(hypothesis) and over every payload the golden corpora render. Each report
the CLI prints is in that indented form, and the dict API is that text read
back: ``analysis_to_dict`` is the parse of ``analyze`` stdout. One render
leaves no cyclic garbage behind.
"""

import contextlib
import gc
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_analysis_golden import analyze_stdout, corpus
from test_verify_golden import CASES, run_verify

import polyurn.cli as cli
from polyurn.analysis import analysis_payload, analysis_to_dict, analyze_model

PROPERTIES = settings(derandomize=True, database=None, deadline=None, max_examples=400)


def dumped(value) -> str:
    return json.dumps(value, indent=2) + "\n"


# Non-ASCII, astral, lone-surrogate and control characters, quotes and backslashes.
TEXT = st.text(st.characters(codec=None, exclude_categories=()), max_size=8)
SCALARS = (
    TEXT
    | st.integers()
    | st.integers(min_value=-(1 << 200), max_value=1 << 200)
    | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    | st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, math.inf, -math.inf, math.nan])
    | st.booleans()
    | st.none()
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(TEXT, inner, max_size=4)
    ),
    max_leaves=30,
)


@PROPERTIES
@given(VALUES)
def test_writer_gives_the_bytes_of_json_dumps(value):
    assert cli._json_text(value) == dumped(value)


@pytest.mark.parametrize("value", [
    {}, [], (), {"a": {}, "b": [], "c": ()}, [[[]]], [{}],
    {1: "int key", None: 2, True: 3, 2.5: 4},  # keys json.dumps converts
    {"nested": {0: [1, 2]}},
    [math.nan, math.inf, -math.inf, -0.0],
    [True, 1, False, 0, None],  # bools are not ints
    ["\x00\x1f\x7f", "é中", "\U0001f600", "\ud800", '"\\/'],
    10 ** 300, -(10 ** 300),
], ids=repr)
def test_writer_matches_json_dumps_on_edge_values(value):
    assert cli._json_text(value) == dumped(value)


class _Str(str):
    pass


class _Dict(dict):
    pass


class _List(list):
    pass


def test_writer_hands_subclasses_to_json_dumps():
    value = {"s": _Str("x"), "d": _Dict(a=[1, _List([2, 3])]), "l": _List([{"k": (4,)}])}
    assert cli._json_text(value) == dumped(value)
    assert cli._json_text([[_Dict(a=_List([1]))]]) == dumped([[_Dict(a=_List([1]))]])


def test_writer_raises_what_json_dumps_raises():
    for bad in ({"a": [1, {2, 3}]}, [object()], {("a", "b"): 1}):
        with pytest.raises(TypeError) as ours:
            cli._json_text(bad)
        with pytest.raises(TypeError) as theirs:
            dumped(bad)
        assert str(ours.value) == str(theirs.value)


def test_writer_gives_the_bytes_of_json_dumps_on_the_golden_analyses():
    for model in corpus():
        payload = analysis_to_dict(analyze_model(model))
        assert cli._json_text(payload) == dumped(payload)


def reindented(out: str) -> str:
    """``out`` read as JSON and written again by ``json.dumps(indent=2)``."""
    return dumped(json.loads(out))


@pytest.mark.parametrize("case", CASES)
def test_writer_gives_the_bytes_of_json_dumps_on_the_golden_verify_cases(case):
    _, out, _ = run_verify(case, "json")
    assert out == reindented(out)


def test_writer_gives_the_bytes_of_json_dumps_on_a_simulate_summary():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["simulate", "--two-draw", "15/2,3,4,1,3,21", "--w0", "5", "--b0", "2",
                         "--steps", "300", "--replicates", "6", "--format", "json"])
    assert code == 0
    assert out.getvalue() == reindented(out.getvalue())


def test_analysis_dict_is_the_analyze_stdout_read_back():
    for model in corpus():
        assert analysis_to_dict(analyze_model(model)) == json.loads(analyze_stdout(model))


def test_one_render_leaves_no_cyclic_garbage():
    analysis = analyze_model(corpus()[7])
    for payload in (analysis_to_dict(analysis), analysis_payload(analysis)):
        cli._json_text(payload)  # first call: lazy set-up is not garbage
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            cli._json_text(payload)
            gc.collect()
            garbage = list(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert garbage == []
