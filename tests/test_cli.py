import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from oitkit import cli, metrics, physics
from oitkit.cli import COMMANDS, main
from oitkit.io import model_from_json, model_to_json, to_json_text
from oitkit.model import validate
from oitkit.scenarios import penguin_model


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out) if out else None, err


def test_validate_penguin_fixture(capsys, fixtures_dir):
    code, doc, _ = run_json(capsys, "validate", str(fixtures_dir / "penguin.json"))
    assert code == 0
    assert doc["valid"] is True
    assert doc["restorable"] is True


def test_validate_reports_violations_and_exits_1(capsys, tmp_path):
    doc = json.loads(to_json_text(model_to_json(penguin_model())))
    doc["carriers"] = []
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run_json(capsys, "validate", str(bad))
    assert code == 1
    rules = {v["rule"]: v["postulate"] for v in out["violations"]}
    assert rules["carriers-nonempty"] == "postulate-1"


def test_missing_file_is_a_usage_error(capsys):
    code, _, err = run(capsys, "validate", "no-such-file.json")
    assert code == 2
    assert "not found" in err


def test_unknown_verb_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_metrics_report(capsys, fixtures_dir):
    code, doc, _ = run_json(capsys, "metrics", str(fixtures_dir / "penguin.json"))
    assert code == 0
    assert doc["volume"] == {"value": 8388608, "unit": "bit"}
    assert doc["delay"]["value"] == "3599.99"


def test_restore_command(capsys, fixtures_dir):
    code, doc, _ = run_json(
        capsys, "restore", str(fixtures_dir / "penguin.json"), "--index", "0"
    )
    assert code == 0
    assert doc["restored_state"]["value"] == "penguins-under-blue-sky"


def test_chain_command_roundtrips(capsys, fixtures_dir, tmp_path):
    code, doc, _ = run_json(capsys, "chain", str(fixtures_dir / "chain3.json"))
    assert code == 0
    assert doc["delay_s"] == "6"
    assert doc["link_delays_s"] == ["1", "2", "3"]
    # the emitted composed model re-validates and reloads losslessly
    composed = model_from_json(doc["model"])
    assert validate(composed).ok
    out = tmp_path / "composed.json"
    out.write_text(json.dumps(doc["model"]))
    assert model_from_json(json.loads(out.read_text())) == composed


def test_classical_subcommands(capsys, fixtures_dir):
    code, doc, _ = run_json(capsys, "classical", "entropy", "--probs", "0.5,0.25,0.25")
    assert code == 0 and doc["entropy_bits"] == 1.5

    code, doc, _ = run_json(capsys, "classical", "chain-delay", "--delays", "1,2,3")
    assert code == 0 and doc["total_delay_s"] == "6"

    code, doc, _ = run_json(
        capsys, "classical", "radar",
        "--power", "1e6", "--gain", "1e3", "--aperture", "1",
        "--min-signal", "1e-13", "--sigma", "1",
    )
    assert code == 0 and doc["max_range_m"] == pytest.approx(8.9206e4, rel=1e-4)

    code, doc, _ = run_json(
        capsys, "classical", "rayleigh", "--wavelength", "500e-9", "--aperture", "5e-3"
    )
    assert code == 0 and doc["granularity_rad"] == pytest.approx(1e-4)

    code, doc, _ = run_json(capsys, "classical", "asl", "--algorithm", "bisection", "--n", "7")
    assert code == 0 and doc["asl"] == "17/7"

    code, doc, _ = run_json(
        capsys, "classical", "mtbf", "--sessions", "[[10,0],[20,0],[30,0]]"
    )
    assert code == 0 and doc["mean_duration_s"] == "20"

    code, doc, _ = run_json(
        capsys, "classical", "nyquist", "--period", "0.5", "--rate", "1"
    )
    assert code == 0 and doc["min_rate_hz"] == "1" and doc["restorable"] is True

    code, doc, _ = run_json(
        capsys, "classical", "metcalfe", "--nodes", "4",
        "--model", str(fixtures_dir / "network4.json"),
    )
    assert code == 0 and doc["value"] == 16 and doc["equal"] is True


def test_classical_kalman_trace(capsys, fixtures_dir):
    code, doc, _ = run_json(
        capsys, "classical", "kalman", str(fixtures_dir / "kalman_scalar.json")
    )
    assert code == 0
    assert doc["steps"][0]["x"][0] == pytest.approx(0.5, abs=1e-12)
    assert doc["steps"][1]["x"][0] == pytest.approx(4 / 3, abs=1e-12)
    assert doc["steps"][1]["P"][0][0] == pytest.approx(1 / 3, abs=1e-12)


def test_kalman_overflow_exits_1_without_numpy_warnings(capsys, fixtures_dir, tmp_path):
    doc = json.loads((fixtures_dir / "kalman_scalar.json").read_text())
    doc["Q"] = doc["P0"] = [[1e308]]
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "classical", "kalman", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: arithmetic failed: overflow encountered in add\n"
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("name", ["A", "H", "Q", "R", "x0", "P0", "B", "z", "U"])
def test_non_finite_kalman_number_is_refused(capsys, fixtures_dir, tmp_path, name):
    doc = json.loads((fixtures_dir / "kalman_scalar.json").read_text())
    doc["B"], doc["U"] = [[1.0]], [[0.0] for _ in doc["z"]]
    if name == "x0":
        doc[name] = [float("nan")]
    else:
        doc[name][-1] = [float("nan")]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "classical", "kalman", str(path))
    assert out == ""
    if name in ("z", "U"):  # a step's row, like one of the wrong width: a domain error
        assert code == 1
        field = "measurements" if name == "z" else "inputs"
        assert err == f"error: {field} must be finite numbers\n"
    else:
        assert code == 2
        assert err == (
            f"error: {path} is not a Kalman scenario file: {name} must hold only finite numbers\n"
        )


def test_classical_checks_on_model_files(capsys, fixtures_dir, tmp_path):
    relation = tmp_path / "relation.json"
    relation.write_text(json.dumps({"labels": {"0": "a"}}))
    code, doc, _ = run_json(
        capsys, "classical", "variety-check",
        str(fixtures_dir / "penguin.json"), "--relation", str(relation),
    )
    assert code == 0 and doc["equal"] is True

    edges = tmp_path / "edges.json"
    edges.write_text(json.dumps({"edges": [[0, 0, "self"]]}))
    code, doc, _ = run_json(
        capsys, "classical", "aggregation-check",
        str(fixtures_dir / "penguin.json"), "--edges", str(edges),
    )
    assert code == 0 and doc["equal"] is True


def test_classical_search_scenario(capsys, fixtures_dir, tmp_path):
    from oitkit.io import model_to_json
    from oitkit.scenarios import network_model

    candidates = [model_to_json(network_model(n)) for n in (2, 3, 4)]
    scenario = tmp_path / "search.json"
    scenario.write_text(
        json.dumps({"candidates": candidates, "target": model_to_json(network_model(5))})
    )
    code, doc, _ = run_json(capsys, "classical", "search", str(scenario))
    assert code == 0
    assert doc["comparisons"] == 3  # nothing reaches the zero threshold


def test_physics_universe_profiles(capsys):
    code, doc, _ = run_json(capsys, "physics", "--constants", "paper", "universe")
    assert code == 0
    assert doc["qubits"]["value"] == pytest.approx(6.1e122, rel=0.05)
    assert doc["profile"] == "paper"

    code, codata_doc, _ = run_json(capsys, "physics", "--constants", "codata", "universe")
    assert code == 0
    assert codata_doc["qubits"]["value"] != doc["qubits"]["value"]


def test_physics_constants_file(capsys, tmp_path):
    custom = tmp_path / "constants.json"
    custom.write_text(json.dumps({"name": "paper", "H0": 4.2e-18}))
    code, doc, _ = run_json(
        capsys, "physics", "--constants", str(custom), "universe"
    )
    assert code == 0
    # rho_c scales with H0^2: doubling H0 quadruples the base-profile value
    assert doc["rho_c"]["value"] == pytest.approx(4 * 7.8568e-27, rel=1e-3)


def test_physics_quantum_and_bitmass(capsys):
    code, doc, _ = run_json(
        capsys, "physics", "quantum", "--energy", "1.65e-34", "--time", "1"
    )
    assert code == 0 and doc["exact_qubits"] == 2

    code, doc, _ = run_json(capsys, "physics", "bitmass", "--temperature", "300")
    assert code == 0
    assert doc["bits_per_kg"] == pytest.approx(3.1363e37, rel=1e-4)

    code, doc, _ = run_json(capsys, "physics", "qubit-rate")
    assert code == 0
    assert doc["qubits_per_kg_s"] == pytest.approx(5.4545e50, rel=1e-4)
    assert "differs" in doc["note"]


def test_physics_domain_error_exits_1(capsys):
    code, _, err = run(capsys, "physics", "quantum", "--energy", "-1", "--time", "1")
    assert code == 1
    assert "energy" in err


@pytest.mark.parametrize("flag", ["--energy", "--time"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_physics_quantum_rejects_non_finite_arguments(capsys, flag, value):
    argv = {"--energy": "1e-20", "--time": "1", flag: value}
    code, out, err = run(capsys, "physics", "quantum", *(x for pair in argv.items() for x in pair))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {flag[2:]} must be a finite number")


@pytest.mark.parametrize(
    "argv, name",
    [
        (["carrier", "--mass", "inf", "--time", "1", "--regime", "long"], "mass"),
        (["carrier", "--mass", "1", "--time", "nan", "--regime", "long"], "duration"),
        (["carrier", "--count", "nan", "--regime", "instant"], "quantum_count"),
        (["bitmass", "--temperature", "nan"], "temperature"),
        (["bitmass", "--temperature", "inf"], "temperature"),
        (["universe", "--age", "inf"], "age"),
        (["universe", "--radius-ly", "nan"], "radius_ly"),
    ],
    ids=lambda x: "-".join(x).replace("--", "") if isinstance(x, list) else None,
)
def test_physics_rejects_non_finite_arguments(capsys, argv, name):
    code, out, err = run(capsys, "physics", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {name} must be a finite number")


def test_non_finite_constant_in_a_constants_file_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "consts.json"
    path.write_text('{"h": NaN}')
    code, out, err = run(capsys, "physics", "--constants", str(path), "universe")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(path) in err and "h must be a finite number" in err


@pytest.mark.parametrize(
    "side, value",
    [("states", {"a": 1}), ("reflections", [{"a": 1}]), ("reflections", [[1, 2]])],
    ids=["state-dict", "reflection-dict-in-array", "reflection-nested-array"],
)
def test_ill_typed_value_is_a_usage_error_naming_the_file(capsys, tmp_path, side, value):
    doc = json.loads(to_json_text(model_to_json(penguin_model())))
    doc[side][0]["value"] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for argv in (["validate", str(path)], ["metrics", str(path)]):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path} is not a model file: value must be")


@pytest.mark.parametrize(
    "restored, truth, flag",
    [
        ('{"a":1}', '{"b":2}', "--restored"),
        ("[1, 2]", "[1, null]", "--truth"),
        ("{", "1", "--restored"),
    ],
    ids=["dict", "null-in-array", "unparseable"],
)
def test_ill_typed_inline_value_is_a_usage_error_naming_the_flag(
    capsys, fixtures_dir, restored, truth, flag
):
    model = str(fixtures_dir / "penguin.json")
    code, out, err = run(capsys, "metrics", model, "--restored", restored, "--truth", truth)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag} is not a state value")


@pytest.mark.parametrize("flag", ["--restored", "--truth"])
@pytest.mark.parametrize("value", [True, [1, False], {"a": 1}, [1, None]], ids=repr)
def test_a_flag_value_follows_the_rule_of_a_file_value(
    capsys, fixtures_dir, tmp_path, value, flag
):
    model = fixtures_dir / "penguin.json"
    doc = json.loads(model.read_text())
    doc["states"][0]["value"] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    reason = err.removeprefix(f"error: {path} is not a model file: ")
    assert reason.endswith(" (at states[0].value)\n")
    reason = reason.removesuffix(" (at states[0].value)\n")
    values = ["--restored", "[1, 2]", "--truth", "[1, 3]"]
    values[values.index(flag) + 1] = json.dumps(value)
    code, out, err = run(capsys, "metrics", str(model), *values)
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} is not a state value: {reason}\n"


@pytest.mark.parametrize(
    "table, key, rule",
    [
        ("noumenon", "penguin-1", "noumenon-measure-numeric"),
        ("carrier", "laptop", "carrier-measure-numeric"),
        ("reflection", "0", "reflection-measure-numeric"),
    ],
)
@pytest.mark.parametrize("bad", ["x", float("nan"), float("inf"), True], ids=repr)
def test_ill_typed_or_non_finite_measure_exits_1_naming_the_rule(
    capsys, tmp_path, table, key, rule, bad
):
    doc = json.loads(to_json_text(model_to_json(penguin_model())))
    doc["measures"][table][key] = bad
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_json(capsys, "validate", str(path))
    assert code == 1
    assert [v["rule"] for v in out["violations"]] == [rule]
    assert "not a finite number" in out["violations"][0]["message"]
    code, _, err = run(capsys, "metrics", str(path))
    assert code == 1
    assert err.startswith("error: model is invalid:") and "Traceback" not in err


@pytest.mark.parametrize("part, rule", [("weight", "copy-weight-numeric"),
                                        ("carrier_measure", "copy-measure-numeric")])
def test_boolean_copy_weight_or_measure_exits_1_naming_the_rule(capsys, tmp_path, part, rule):
    doc = json.loads(to_json_text(model_to_json(penguin_model())))
    doc["copies"][0][part] = True
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_json(capsys, "validate", str(path))
    assert code == 1
    assert [v["rule"] for v in out["violations"]] == [rule]


# A mutation of a shipped input file, the JSON path of the field it spoils,
# and what the file's error line then says after "is not <kind> file: ".
def _spoil(doc, path, value):
    *outer, last = path
    for step in outer:
        doc = doc[step]
    if value is DROP:
        del doc[last]
    else:
        doc[last] = value


DROP = object()
WRONG_FIELDS = {
    # kind of file: (its argv, with "{}" for it; the shipped file; cases)
    "a model": (["validate", "{}"], "penguin.json", [
        (["noumena"], "penguin-1", "expected an array, got a string", "noumena"),
        (["carriers", 0], 7, "expected a string, got a number", "carriers[0]"),
        (["occurrence"], DROP, "missing field 'occurrence'", "occurrence"),
        (["occurrence", "points"], "12", "expected an array, got a string", "occurrence.points"),
        (["reflection", "intervals", 0], "05", "expected a [lo, hi] pair of times, got a string",
         "reflection.intervals[0]"),
        (["states", 0, "subjects"], "penguin-1", "expected an array, got a string",
         "states[0].subjects"),
        (["states", 0, "time", "intervals", 0, 1], "1e999999", "has an exponent beyond",
         "states[0].time.intervals[0][1]"),
        (["states", 0, "time", "intervals", 0, 1], [1], "cannot interpret [1] as seconds",
         "states[0].time.intervals[0][1]"),
        (["states", 0, "time", "intervals", 0, 0], "1/0", "time '1/0' has a zero denominator",
         "states[0].time.intervals[0][0]"),
        (["states", 0, "time", "points"], [True], "expected a time, got a boolean",
         "states[0].time.points[0]"),
        (["occurrence", "intervals", 0, 0], False, "expected a time, got a boolean",
         "occurrence.intervals[0][0]"),
        (["states", 0, "value"], True, "expected a string, a number or an array of numbers",
         "states[0].value"),
        (["reflections", 0, "value"], {"a": 1}, "value must be", "reflections[0].value"),
        (["reflections", 0, "value"], [1, False], "got an array holding a boolean",
         "reflections[0].value"),
        (["mapping", 0], [0], "expected an [s, r] pair of indices, got 1 item", "mapping[0]"),
        (["mapping", 0, 1], 0.5, "an index must be an integer", "mapping[0][1]"),
        (["measures"], [], "expected an object, got an array", "measures"),
        (["measures", "noumenon"], [], "expected an object, got an array", "measures.noumenon"),
        (["measures", "reflection_unit"], 7, "expected a string, got a number",
         "measures.reflection_unit"),
        (["measures", "reflection"], {"+0": 1}, "an index must be an integer",
         'measures.reflection["+0"]'),
        (["copies"], {}, "expected an array, got an object", "copies"),
        (["copies", 0, "carrier_measure"], DROP, "missing field 'carrier_measure'",
         "copies[0].carrier_measure"),
        (["enabled"], "false", "expected a boolean, got a string", "enabled"),
        (["label"], 5, "expected a string, got a number", "label"),
    ]),
    "a chain": (["chain", "{}"], "chain3.json", [
        (["links", 1, "noumena"], "sensor", "expected an array, got a string", "links[1].noumena"),
        (["links"], {}, "expected an array, got an object", "links"),
    ]),
    "a relation": (["metrics", "{penguin}", "--relation", "{}"], "golden/relation.json", [
        (["labels", "0"], {"a": 1}, "expected a string or a number, got an object", 'labels["0"]'),
        (["labels", "1"], [1], "expected a string or a number, got an array", 'labels["1"]'),
        (["labels"], [], "expected an object, got an array", "labels"),
    ]),
    "an edges": (["metrics", "{penguin}", "--edges", "{}"], "golden/edges.json", [
        (["edges", 0, 2], {"a": 1}, "expected a string or a number, got an object",
         "edges[0][2]"),
        (["edges", 1, 2], [1], "expected a string or a number, got an array", "edges[1][2]"),
        (["edges", 2, 0], "2", "an index must be an integer", "edges[2][0]"),
    ]),
    "a search scenario": (["classical", "search", "{}"], "golden/search.json", [
        (["order_keys", 1], "x", "expected a number, got a string", "order_keys[1]"),
        (["candidates", 2, "label"], 5, "expected a string, got a number", "candidates[2].label"),
        (["target", "enabled"], 1, "expected a boolean, got a number", "target.enabled"),
        (["algorithm"], 2, "expected a string, got a number", "algorithm"),
    ]),
    "a Kalman scenario": (["classical", "kalman", "{}"], "kalman_scalar.json", [
        (["z"], {"a": 1}, "expected an array, got an object", "z"),
        (["z", 1], 3.0, "expected an array of numbers, got a number", "z[1]"),
        (["A", 0, 0], 10**400, "number too large for a float", "A[0][0]"),
        (["x0", 0], "0", "expected a number, got a string", "x0[0]"),
        (["P0"], DROP, "missing field 'P0'", "P0"),
    ]),
    "a constants": (["physics", "--constants", "{}", "universe"], "golden/constants.json", [
        (["H0"], "4.2e-18", "expected a number, got a string", "H0"),
        (["name"], 5, "expected a string, got a number", "name"),
    ]),
}


@pytest.mark.parametrize(
    "kind, argv, shipped, path, value, message, where",
    [
        pytest.param(kind, argv, shipped, *case, id=f"{kind.split()[-1]}-{case[3]}")
        for kind, (argv, shipped, cases) in WRONG_FIELDS.items()
        for case in cases
    ],
)
def test_wrong_typed_or_missing_field_exits_2_naming_its_path(
    capsys, fixtures_dir, tmp_path, kind, argv, shipped, path, value, message, where
):
    doc = json.loads((fixtures_dir / shipped).read_text())
    _spoil(doc, path, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    penguin = str(fixtures_dir / "penguin.json")
    code, out, err = run(
        capsys, *(str(bad) if a == "{}" else penguin if a == "{penguin}" else a for a in argv)
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {bad} is not {kind} file: ")
    assert message in err
    assert err.rstrip("\n").endswith(f" (at {where})")


@pytest.mark.parametrize(
    "path", [["states", 0, "value"], ["occurrence", "intervals", 0, 0], ["mapping", 0, 0]]
)
def test_deeply_nested_field_is_a_usage_error_naming_the_file(capsys, tmp_path, path):
    doc = json.loads(to_json_text(model_to_json(penguin_model())))
    deep = []
    for _ in range(900):
        deep = [deep]
    _spoil(doc, path, deep)
    bad = tmp_path / "deep.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {bad} is ")


@pytest.mark.parametrize("argv", [
    ["classical", "chain-delay", "--delays", "1e999999"],
    ["classical", "chain-delay", "--delays", "1,1e9999999"],
    ["classical", "nyquist", "--period", "1e99999999999"],
    ["metrics", "{penguin}", "--gaps", '[["0", "1e999999"]]'],
])
def test_time_flag_with_a_huge_exponent_exits_2_at_once(capsys, fixtures_dir, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *with_fixtures(fixtures_dir, argv))
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert out == ""
    assert "has an exponent beyond ±1000" in err


@pytest.mark.parametrize("argv, flag", [
    (["classical", "chain-delay", "--delays", "1,1/0"], "--delays"),
    (["classical", "nyquist", "--period", "1/0"], "--period"),
    (["metrics", "{penguin}", "--gaps", '[["1/0", 2]]'], "--gaps"),
])
def test_time_flag_with_a_zero_denominator_is_a_usage_error(capsys, fixtures_dir, argv, flag):
    code, out, err = run(capsys, *with_fixtures(fixtures_dir, argv))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag} is not ")
    assert "time '1/0' has a zero denominator" in err


def test_demo_runs_end_to_end(capsys):
    code, doc, _ = run_json(capsys, "demo")
    assert code == 0
    assert doc["penguin"]["valid"] is True
    assert doc["penguin"]["volume_bits"] == 8388608
    assert doc["universe"]["qubits"]["value"] == pytest.approx(6.1e122, rel=0.05)
    assert "note" in doc["unit_mass_rate"]


def test_reports_are_byte_identical_across_runs(capsys, fixtures_dir):
    _, first, _ = run(capsys, "metrics", str(fixtures_dir / "penguin.json"), "--format", "json")
    _, second, _ = run(capsys, "metrics", str(fixtures_dir / "penguin.json"), "--format", "json")
    assert first == second


def test_output_flag_writes_file(capsys, fixtures_dir, tmp_path):
    out = tmp_path / "report.json"
    code, stdout, _ = run(
        capsys, "validate", str(fixtures_dir / "penguin.json"),
        "--format", "json", "--output", str(out),
    )
    assert code == 0
    assert stdout == ""
    assert json.loads(out.read_text())["valid"] is True


def test_a_closed_stdout_exits_2_without_a_traceback():
    src = str(Path(__file__).resolve().parent.parent / "src")
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "oitkit", "demo", "--format", "json"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])
            )),
            text=True,
            check=False,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write stdout: Broken pipe\n"


# Model files whose mapping pair or time interval is not a pair.
BAD_PAIRS = {
    "mapping_triple": lambda doc: doc.update(mapping=[[0, 0, 0]]),
    "mapping_number": lambda doc: doc.update(mapping=[0]),
    "interval_triple": lambda doc: doc["occurrence"].update(intervals=[["0", "0.01", "1"]]),
    "interval_number": lambda doc: doc["occurrence"].update(intervals=[0]),
    # an index that is not an integer, or a measure key that is not the
    # decimal string of one, would be truncated or read leniently by `int`
    "mapping_float": lambda doc: doc.update(mapping=[[0.9, 0.7]]),
    "mapping_bool": lambda doc: doc.update(mapping=[[True, False]]),
    "measure_key_sign": lambda doc: doc["measures"].update(reflection={"+0": 8388608}),
}


# Other files, by name: the kind of file each should have been, and its text.
BAD_FILES = {
    "float_edges": ("an edges", '{"edges": [[0.6, 0.2, "x"]]}'),
    "short_edges": ("an edges", '{"edges": [[0, 1]]}'),
    "signed_labels": ("a relation", '{"labels": {"0": "a", "+0": "b"}}'),
}


@pytest.mark.parametrize(
    "argv, bad",
    [
        pytest.param(["chain", "{missing}"], "missing", id="chain-missing-file"),
        pytest.param(["chain", "{garbled}"], "garbled", id="chain-unparseable"),
        pytest.param(["chain", "{empty}"], "empty", id="chain-no-links"),
        pytest.param(["classical", "kalman", "{empty}"], "empty", id="kalman-no-A"),
        pytest.param(["classical", "search", "{empty}"], "empty", id="search-no-candidates"),
        pytest.param(
            ["metrics", "{penguin}", "--relation", "{empty}"], "empty", id="metrics-no-labels"
        ),
        pytest.param(
            ["classical", "variety-check", "{penguin}", "--relation", "{empty}"],
            "empty",
            id="variety-check-no-labels",
        ),
        pytest.param(
            ["classical", "aggregation-check", "{penguin}", "--edges", "{empty}"],
            "empty",
            id="aggregation-check-no-edges",
        ),
        pytest.param(
            ["metrics", "{penguin}", "--edges", "{float_edges}"], "float_edges", id="edges-float"
        ),
        pytest.param(
            ["metrics", "{penguin}", "--edges", "{short_edges}"], "short_edges", id="edges-pair"
        ),
        pytest.param(
            ["metrics", "{penguin}", "--relation", "{signed_labels}"],
            "signed_labels",
            id="labels-signed-key",
        ),
        pytest.param(["validate", "{array}"], "array", id="validate-array"),
        pytest.param(
            ["physics", "--constants", "{array}", "universe"], "array", id="constants-array"
        ),
        pytest.param(
            ["validate", "{penguin}", "--output", "{missing_dir}"],
            "missing_dir",
            id="output-missing-dir",
        ),
        *(
            pytest.param(["validate", f"{{{bad}}}"], bad, id=bad.replace("_", "-"))
            for bad in BAD_PAIRS
        ),
    ],
)
def test_bad_files_are_usage_errors_naming_the_file(capsys, fixtures_dir, tmp_path, argv, bad):
    files = {
        "missing": tmp_path / "missing.json",
        "garbled": tmp_path / "garbled.json",
        "empty": tmp_path / "empty.json",
        "array": tmp_path / "array.json",
        "penguin": fixtures_dir / "penguin.json",
        "missing_dir": tmp_path / "no-such-dir" / "report.json",
    }
    files["garbled"].write_text("{not json")
    files["empty"].write_text("{}")
    files["array"].write_text("[1, 2]")
    for name, spoil in BAD_PAIRS.items():
        doc = json.loads(files["penguin"].read_text())
        spoil(doc)
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(doc))
    for name, (_, text) in BAD_FILES.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(text)
    code, out, err = run(capsys, *(arg.format(**files) for arg in argv))
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: ") and str(files[bad]) in err
    if bad in BAD_PAIRS:
        assert err.startswith(f"error: {files[bad]} is not a model file: ")
    if bad in BAD_FILES:
        assert err.startswith(f"error: {files[bad]} is not {BAD_FILES[bad][0]} file: ")


@pytest.mark.parametrize(
    "argv, name",
    [
        (
            ["radar", "--power", "nan", "--gain", "1", "--aperture", "1",
             "--min-signal", "1", "--sigma", "1"],
            "transmit_power",
        ),
        (
            ["radar", "--power", "1", "--gain", "1", "--aperture", "1",
             "--min-signal", "1", "--sigma", "inf"],
            "reflection_area",
        ),
        (["rayleigh", "--wavelength", "inf", "--aperture", "1"], "wavelength"),
        (["rayleigh", "--wavelength", "1", "--aperture", "nan"], "aperture_width"),
        (["entropy", "--probs", "nan,0.5"], "probabilities[0]"),
        (["entropy", "--probs", "0.5,-inf"], "probabilities[1]"),
    ],
    ids=lambda x: "-".join(x).replace("--", "") if isinstance(x, list) else None,
)
def test_classical_rejects_non_finite_arguments(capsys, argv, name):
    code, out, err = run(capsys, "classical", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {name} must be a finite number")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["metrics", "{penguin}", "--gaps", '{"a":1}'], "--gaps"),
        (["metrics", "{penguin}", "--gaps", "[[1]]"], "--gaps"),
        (["metrics", "{penguin}", "--gaps", '[["1", "x"]]'], "--gaps"),
        (["metrics", "{penguin}", "--gaps", "[1, 2"], "--gaps"),
        (["classical", "mtbf", "--sessions", "[[1]]"], "--sessions"),
        (["classical", "mtbf", "--sessions", '"12"'], "--sessions"),
        (["classical", "mtbf", "--sessions", "[[10, null]]"], "--sessions"),
        (["classical", "mtbf", "--sessions", "[[NaN, 0]]"], "--sessions"),
    ],
)
def test_malformed_time_pairs_are_usage_errors_naming_the_flag(capsys, fixtures_dir, argv, flag):
    penguin = str(fixtures_dir / "penguin.json")
    code, out, err = run(capsys, *(arg.replace("{penguin}", penguin) for arg in argv))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag} is not a list of time pairs")


def with_fixtures(fixtures_dir, argv):
    """`argv` with "{penguin}" and "{search}" replaced by those fixture paths."""
    paths = {"{penguin}": "penguin.json", "{search}": "golden/search.json"}
    return [str(fixtures_dir / paths[arg]) if arg in paths else arg for arg in argv]


@pytest.mark.parametrize(
    "argv, flag, what",
    [
        (["classical", "nyquist", "--period", "abc"], "--period", "a time"),
        (["classical", "nyquist", "--period", "1", "--rate", "x"], "--rate", "a number"),
        (["classical", "chain-delay", "--delays", "a,b"], "--delays", "a list of times"),
        (["classical", "entropy", "--probs", "x"], "--probs", "a list of numbers"),
        (["metrics", "{penguin}", "--weights", "x"], "--weights", "a list of numbers"),
        (
            ["classical", "search", "{search}", "--weights", "1,x"],
            "--weights",
            "a list of numbers",
        ),
    ],
)
def test_malformed_numbers_and_times_are_usage_errors_naming_the_flag(
    capsys, fixtures_dir, argv, flag, what
):
    code, out, err = run(capsys, *with_fixtures(fixtures_dir, argv))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag} is not {what}: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["metrics", "{penguin}", "--target", "{penguin}", "--weights", "nan,1,1,1,1,1"],
        ["metrics", "{penguin}", "--target", "{penguin}", "--weights", "inf,0,0,0,0,0"],
        ["classical", "search", "{search}", "--weights", "nan,1,1,1,1,1"],
    ],
)
def test_non_finite_weights_are_domain_errors(capsys, fixtures_dir, argv):
    code, out, err = run(capsys, *with_fixtures(fixtures_dir, argv))
    assert code == 1
    assert out == ""
    assert err.startswith("error: weights must be six finite")


def test_unknown_key_in_a_constants_file_is_a_usage_error(capsys, fixtures_dir):
    path = str(fixtures_dir / "penguin.json")
    code, out, err = run(capsys, "physics", "--constants", path, "universe")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path} is not a constants file: unknown constants [")


def test_deeply_nested_file_is_a_usage_error_naming_the_file(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot parse {path}: maximum recursion depth exceeded")


@pytest.mark.parametrize(
    "argv, flag, what",
    [
        (["metrics", "{penguin}", "--restored"], "--restored", "a state value"),
        (["metrics", "{penguin}", "--truth"], "--truth", "a state value"),
        (["metrics", "{penguin}", "--gaps"], "--gaps", "a list of time pairs"),
        (["classical", "mtbf", "--sessions"], "--sessions", "a list of time pairs"),
    ],
    ids=["restored", "truth", "gaps", "sessions"],
)
@pytest.mark.parametrize(
    "value", ["[" * 5000, "[" * 990 + "]" * 990], ids=["5000-open", "990-closed"]
)
def test_deeply_nested_flag_value_is_a_usage_error_naming_the_flag(
    capsys, fixtures_dir, argv, flag, what, value
):
    code, out, err = run(capsys, *with_fixtures(fixtures_dir, argv), value)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag} is not {what}: ")
    assert err.count("\n") == 1


# `--help` of the root, of each group and of each leaf, recorded from the
# parser as it was when every verb still imported the whole package. Python
# 3.13 wraps some usage lines differently; its texts for those are recorded
# as well.
HELP = json.loads((Path(__file__).resolve().parent / "cli_help.json").read_text("utf-8"))


@pytest.mark.parametrize("path", sorted(HELP["help"]), ids=lambda path: path or "oitkit")
def test_help_texts_are_unchanged(capsys, monkeypatch, path):
    monkeypatch.setenv("COLUMNS", str(HELP["columns"]))
    expected = HELP["help"][path]
    if sys.version_info >= (3, 13):
        expected = HELP["help_3_13"].get(path, expected)
    with pytest.raises(SystemExit) as exit_info:
        main([*path.split(), "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == expected


def test_help_texts_cover_every_command():
    assert sorted(HELP["help"]) == sorted(["", *(" ".join(path) for path in COMMANDS)])


def test_choices_are_those_of_the_library():
    assert cli.DISTANCE_KINDS == metrics.DISTANCE_KINDS
    assert cli.REGIMES == physics.REGIMES
    choices = {}
    for row in COMMANDS.values():
        for flags, options in row.args:
            if "choices" in options:
                choices.setdefault(flags[0], set()).add(tuple(options["choices"]))
    assert choices["--distance"] == {metrics.DISTANCE_KINDS}
    assert choices["--regime"] == {physics.REGIMES}


CONSTANTS_VERBS = [
    ["physics", "{constants}", "quantum", "--energy", "1.65e-34", "--time", "1"],
    ["physics", "{constants}", "carrier", "--mass", "1", "--time", "1", "--regime", "long"],
    ["physics", "{constants}", "bitmass"],
    ["physics", "{constants}", "qubit-rate"],
    ["physics", "{constants}", "universe"],
    ["demo", "{constants}"],
]


def _with_constants(argv, *constants):
    i = argv.index("{constants}")
    return [*argv[:i], *constants, *argv[i + 1 :]]


@pytest.mark.parametrize(
    "argv", CONSTANTS_VERBS, ids=lambda argv: " ".join(argv[:3]).replace(" {constants}", "")
)
def test_constants_profiles_and_files(capsys, tmp_path, argv):
    def report(*constants):
        return run(capsys, *_with_constants(argv, *constants), "--format", "json")

    code, default, _ = report()
    assert code == 0
    assert '"profile": "paper"' in default
    assert report("--constants", "paper") == (0, default, "")

    code, codata, _ = report("--constants", "codata")
    assert code == 0
    assert '"profile": "codata"' in codata
    assert '"profile": "paper"' not in codata

    custom = tmp_path / "constants.json"
    custom.write_text(json.dumps({"name": "codata"}), encoding="utf-8")
    assert report("--constants", str(custom)) == (0, codata, "")

    code, out, err = run(capsys, *_with_constants(argv, "--constants", "no-such-profile"))
    assert (code, out) == (2, "")
    assert err == "error: file not found: no-such-profile\n"
