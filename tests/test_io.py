import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oitkit.cli import read_file, render_text
from oitkit.io import (
    FormatError,
    chain_from_json,
    model_from_json,
    model_to_json,
    time_pairs_from_json,
    to_json_text,
)
from oitkit.metrics import metric_report, volume
from oitkit.model import validate
from oitkit.scenarios import penguin_model

from generate import random_chain, random_relation, random_relation_set, random_restorable_model
from oracles import json_ready, json_text_oracle


def test_penguin_roundtrip_is_lossless(penguin):
    doc = model_to_json(penguin)
    back = model_from_json(doc)
    assert back == penguin
    assert model_to_json(back) == doc


def test_large_model_file_round_trips_through_the_reader(tmp_path):
    rng = random.Random(2000)
    m = random_restorable_model(rng, n_states=2000)
    relation, edges = random_relation(rng, m), random_relation_set(rng, m)
    path = tmp_path / "large.json"
    path.write_text(to_json_text(model_to_json(m)), encoding="utf-8")
    back = read_file(str(path), "a model", model_from_json)
    assert len(back.states) == 2000
    assert back == m

    def report(model):
        return to_json_text(metric_report(model, relation=relation, relations=edges, target=m))

    assert report(back) == report(m)


def test_random_models_roundtrip():
    rng = random.Random(77)
    for _ in range(40):
        m = random_restorable_model(rng, with_duplicates=True)
        back = model_from_json(model_to_json(m))
        assert back == m
        assert validate(back).ok
        assert volume(back) == volume(m)


def test_times_serialize_as_decimal_strings(penguin):
    doc = model_to_json(penguin)
    assert doc["occurrence"]["intervals"] == [["0", "0.01"]]
    text = to_json_text(doc)
    assert '"0.01"' in text


def _read(path):
    return json.loads(path.read_text())


def test_fixture_files_load_and_validate(fixtures_dir):
    penguin = model_from_json(_read(fixtures_dir / "penguin.json"))
    assert validate(penguin).ok
    assert penguin == penguin_model()
    chain = chain_from_json(_read(fixtures_dir / "chain3.json"))
    assert len(chain) == 3
    for link in chain:
        assert validate(link).ok
    network = model_from_json(_read(fixtures_dir / "network4.json"))
    assert validate(network).ok


def test_chain_file_accepts_bare_lists(tmp_path):
    rng = random.Random(1)
    chain = random_chain(rng, links=2)
    path = tmp_path / "chain.json"
    path.write_text(to_json_text([model_to_json(link) for link in chain]))
    assert chain_from_json(_read(path)) == chain


def test_a_wrong_typed_field_raises_format_error_with_its_path(penguin):
    doc = model_to_json(penguin)
    doc["states"][0]["time"]["intervals"][0][1] = [1]
    with pytest.raises(FormatError) as caught:
        model_from_json(doc)
    assert isinstance(caught.value, ValueError)
    assert caught.value.path == ("states", 0, "time", "intervals", 0, 1)
    assert str(caught.value) == (
        "cannot interpret [1] as seconds (at states[0].time.intervals[0][1])"
    )
    with pytest.raises(FormatError, match=r"got a boolean \(at \[1\]\[0\]\)$"):
        time_pairs_from_json([[1, 2], [True, 3]])


def test_library_numbers_in_a_document_read_as_before(penguin):
    """Fractions are no JSON type, but a document built in Python may hold
    them; they take the exact check's path and read as their strings do."""
    doc = model_to_json(penguin)
    doc["occurrence"]["intervals"] = [[Fraction(0), Fraction(1, 100)]]
    doc["reflections"][0]["value"] = [Fraction(1, 3), 2]
    as_text = model_to_json(penguin)
    as_text["reflections"][0]["value"] = [Fraction(1, 3), 2]
    assert model_from_json(doc) == model_from_json(as_text)


def test_json_text_is_deterministic(penguin):
    a = to_json_text(model_to_json(penguin))
    b = to_json_text(model_from_json(json.loads(a)) and model_to_json(penguin))
    assert a == b
    assert a.index('"carriers"') < a.index('"noumena"')  # keys sorted


def test_json_ready_conversions():
    doc = json_ready(
        {
            "frac": Fraction(999, 100),
            "third": Fraction(1, 3),
            "arr": np.array([[1.0, 2.0]]),
            "npfloat": np.float64(1.5),
            "tup": (1, 2),
            "ids": frozenset({"b", "a"}),
        }
    )
    assert doc == {
        "frac": "9.99",
        "third": "1/3",
        "arr": [[1.0, 2.0]],
        "npfloat": 1.5,
        "tup": [1, 2],
        "ids": ["a", "b"],
    }
    json.dumps(doc)  # everything is JSON-encodable


_fractions = st.one_of(
    st.builds(Fraction, st.integers(-(10**12), 10**12), st.sampled_from([1, 2, 8, 10, 125, 1000])),
    st.fractions(),
)
_floats = st.one_of(
    st.floats(), st.sampled_from([-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 1e300])
)
_strings = st.one_of(
    st.text(), st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u2028", "é€😀", "\ud800", "a/b"])
)
_ints = st.one_of(st.booleans(), st.integers(), st.integers(10**20, 10**40).map(lambda n: -n))
_numpy = st.one_of(
    st.lists(_floats, max_size=4).map(np.array),
    st.lists(st.lists(st.integers(-9, 9), min_size=2, max_size=2), max_size=3).map(np.array),
    st.lists(_fractions, max_size=3).map(lambda xs: np.array(xs, dtype=object)),
    _floats.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.text(max_size=4).map(np.str_),
)
# str() of these keys collides: 1 and "1", True and "True", None and "None",
# Fraction(1, 2) and "1/2"
_keys = st.one_of(
    st.sampled_from(["1", 1, True, "True", None, "None", Fraction(1, 2), "1/2", "", "a"]),
    _strings,
    st.integers(),
    _fractions,
)
_report_values = st.recursive(
    st.one_of(
        st.none(), _strings, _ints, _floats, _fractions, st.frozensets(st.text(max_size=3)), _numpy
    ),
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.lists(st.tuples(_keys, kids), max_size=5).map(dict),
    ),
    max_leaves=12,
)
# each of these makes json.dumps(json_ready(...)) raise TypeError
_unwritable = st.sampled_from([{1, 2}, object(), frozenset({Fraction(1, 3)}), b"x", 1j])


def _beside(kept, bad, in_dict):
    return {"kept": kept, "bad": [bad]} if in_dict else [kept, bad]


@given(st.one_of(_report_values, st.builds(_beside, _report_values, _unwritable, st.booleans())))
@example([{1: "i", "1": "s"}, {"True": 0, True: "b"}, {None: 1, "None": 2}, {Fraction(1, 2): 1, "1/2": 2}])
@example([-0.0, float("nan"), float("inf"), float("-inf"), 1e300, np.float64("nan"), np.int64(-3)])
@example((frozenset("bé"), np.array([[1.5, -0.0]]), np.bool_(True), Fraction(1, 3), Fraction(-1, 8)))
def test_json_text_matches_the_json_module(x):
    try:
        expected = json_text_oracle(x)
    except TypeError:
        with pytest.raises(TypeError):
            to_json_text(x)
    else:
        assert to_json_text(x) == expected


@given(_report_values)
@example({1: "i", "1": "s", "k": [Fraction(1, 3), (float("nan"), -0.0)], "a": {}})
@example([np.array([[1.5, -0.0]]), np.float64("inf"), frozenset("ba"), "\ud800", 10**30])
def test_text_view_of_the_json_text_is_that_of_the_plain_copy(x):
    assert render_text(json.loads(to_json_text(x))) == render_text(json_ready(x))
