import json
import random
from fractions import Fraction

import numpy as np

from oitkit.io import (
    json_ready,
    load_chain,
    load_model,
    model_from_json,
    model_to_json,
    to_json_text,
)
from oitkit.metrics import volume
from oitkit.model import validate
from oitkit.scenarios import penguin_model

from generate import random_chain, random_restorable_model


def test_penguin_roundtrip_is_lossless(penguin):
    doc = model_to_json(penguin)
    back = model_from_json(doc)
    assert back == penguin
    assert model_to_json(back) == doc


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


def test_fixture_files_load_and_validate(fixtures_dir):
    penguin = load_model(fixtures_dir / "penguin.json")
    assert validate(penguin).ok
    assert penguin == penguin_model()
    chain = load_chain(fixtures_dir / "chain3.json")
    assert len(chain) == 3
    for link in chain:
        assert validate(link).ok
    network = load_model(fixtures_dir / "network4.json")
    assert validate(network).ok


def test_chain_file_accepts_bare_lists(tmp_path):
    rng = random.Random(1)
    chain = random_chain(rng, links=2)
    path = tmp_path / "chain.json"
    path.write_text(to_json_text([model_to_json(link) for link in chain]))
    assert load_chain(path) == chain


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
