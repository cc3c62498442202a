import json

import pytest

from oitkit.cli import main
from oitkit.io import load_model, model_from_json, model_to_json, to_json_text
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
    assert load_model(out) == composed


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


@pytest.mark.parametrize(
    "table, key, rule",
    [
        ("noumenon", "penguin-1", "noumenon-measure-numeric"),
        ("carrier", "laptop", "carrier-measure-numeric"),
        ("reflection", "0", "reflection-measure-numeric"),
    ],
)
@pytest.mark.parametrize("bad", ["x", float("nan"), float("inf")], ids=repr)
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
        pytest.param(["validate", "{array}"], "array", id="validate-array"),
        pytest.param(
            ["physics", "--constants", "{array}", "universe"], "array", id="constants-array"
        ),
        pytest.param(
            ["validate", "{penguin}", "--output", "{missing_dir}"],
            "missing_dir",
            id="output-missing-dir",
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
    code, out, err = run(capsys, *(arg.format(**files) for arg in argv))
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: ") and str(files[bad]) in err


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


def test_unknown_key_in_a_constants_file_is_a_usage_error(capsys, fixtures_dir):
    path = str(fixtures_dir / "penguin.json")
    code, out, err = run(capsys, "physics", "--constants", path, "universe")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path} is not a constants file: unknown constants [")
