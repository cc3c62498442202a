"""Command-line front end, driven by one command table.

`COMMANDS` has one row per command path, such as ``("classical", "entropy")``:
its description and help text, its argument specs, and `run`, which turns the
parsed arguments into a report dict. A row without `run` is a group, whose
arguments are flags given before the subcommand (``physics --constants``).
`build_parser` builds the argparse tree from the table in one loop; `main` runs
the chosen row and emits its report, as JSON or as a text view of the same
document. Every file argument is read by `read_file`. Exit codes: 0 success,
1 domain error (invalid model, missing measure, non-restorable mapping, ...;
also any report whose `valid` field is false), 2 usage error (unknown flags; a
file that is missing, unparseable, or of the wrong shape).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Callable

from . import classical, metrics, physics, scenarios
from .errors import OitError
from .io import (
    chain_from_json,
    entry_to_json,
    json_ready,
    model_from_json,
    model_to_json,
    to_json_text,
)
from .model import compose_chain, is_restorable, restore, validate, value_key
from .timeset import seconds

USAGE_EXIT = 2
DOMAIN_EXIT = 1


class UsageError(Exception):
    pass


def read_file(path: str, kind: str, convert: Callable[[Any], Any]) -> Any:
    """Parse the JSON file at `path` and turn it into a value with `convert`.

    A missing or unreadable file, unparseable JSON, and a document that
    `convert` rejects for its shape or a missing field are usage errors that
    name the file; `kind` says what the file should have held.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except FileNotFoundError as exc:
        raise UsageError(f"file not found: {path}") from exc
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise UsageError(f"cannot parse {path}: {exc}") from exc
    try:
        return convert(doc)
    except KeyError as exc:
        raise UsageError(f"{path} is not a {kind} file: missing field {exc}") from exc
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        raise UsageError(f"{path} is not a {kind} file: {exc}") from exc


def reader(kind: str, convert: Callable[[Any], Any]) -> Callable[[str], Any]:
    """An argparse `type` that reads a file argument through `read_file`."""
    return lambda path: read_file(path, kind, convert)


def inline_value(flag: str) -> Callable[[str], Any]:
    """An argparse `type` for a state value given inline as JSON: a string, a
    number or an array of numbers. Anything else is a usage error naming `flag`."""

    def parse(text: str) -> Any:
        try:
            value = json.loads(text)
            value_key(value)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"{flag} is not a state value: {exc}") from exc
        return value

    return parse


def time_pairs(flag: str) -> Callable[[str], list]:
    """An argparse `type` for a JSON list of [a, b] time pairs, such as
    '[[1, 2], ["3.5", 4]]'. Anything else is a usage error naming `flag`."""

    def parse(text: str) -> list:
        try:
            pairs = json.loads(text)
            if not isinstance(pairs, list) or not all(
                isinstance(pair, list) and len(pair) == 2 for pair in pairs
            ):
                raise ValueError(f"expected a JSON list of [a, b] pairs, got {text}")
            for pair in pairs:
                for t in pair:
                    seconds(t)  # raises for anything that is not a time
        except (TypeError, ValueError) as exc:
            raise UsageError(f"{flag} is not a list of time pairs: {exc}") from exc
        return pairs

    return parse


def _parse_constants(value: str) -> physics.PhysicalConstants:
    if value in physics.PROFILES:
        return physics.profile(value)
    return read_file(
        value,
        "constants",
        lambda doc: physics.constants_from_dict(doc, name=doc.get("name", "custom")),
    )


def _parse_number_list(text: str) -> list[float]:
    return [float(part) for part in text.replace(",", " ").split()]


def _distance_spec(args) -> metrics.DistanceSpec:
    weights = (1, 1, 1, 1, 1, 1)
    if args.weights:
        weights = tuple(_parse_number_list(args.weights))
    return metrics.DistanceSpec(kind=args.distance, weights=weights)


def render_text(doc, indent: int = 0) -> str:
    """Generic text view of a report document; derived from the JSON form."""
    pad = "  " * indent
    if isinstance(doc, dict):
        lines = []
        for key in sorted(doc):
            value = doc[key]
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.append(render_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {value}")
        return "\n".join(lines)
    if isinstance(doc, list):
        lines = []
        for value in doc:
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}-")
                lines.append(render_text(value, indent + 1))
            else:
                lines.append(f"{pad}- {value}")
        return "\n".join(lines)
    return f"{pad}{doc}"


def emit(report: dict, args) -> None:
    doc = json_ready(report)
    text = to_json_text(doc) if args.format == "json" else render_text(doc)
    if args.output:
        try:
            Path(args.output).write_text(text + "\n", encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot write {args.output}: {exc.strerror}") from exc
    else:
        print(text)


def _violations(found) -> list[dict]:
    return [{"rule": v.rule, "message": v.message, "postulate": v.postulate} for v in found]


def run_validate(args) -> dict:
    report = validate(args.model)
    doc = {
        "valid": report.ok,
        "violations": _violations(report.violations),
        "warnings": _violations(report.warnings),
    }
    if report.ok:
        doc["restorable"] = is_restorable(args.model)
    return doc


def run_metrics(args) -> dict:
    return metrics.metric_report(
        args.model,
        relation=args.relation,
        relations=args.edges,
        gaps=args.gaps,
        spec=_distance_spec(args),
        restored=args.restored,
        truth=args.truth,
        target=args.target,
    )


def run_restore(args) -> dict:
    entry = restore(args.model, args.index)
    return {"reflection_index": args.index, "restored_state": entry_to_json(entry)}


def run_chain(args) -> dict:
    composed = compose_chain(args.chain)
    return {
        "links": len(args.chain),
        "delay_s": metrics.delay(composed),
        "link_delays_s": [metrics.delay(link) for link in args.chain],
        "model": model_to_json(composed),
    }


def run_demo(args) -> dict:
    penguin = scenarios.penguin_model()
    penguin_doc = {
        "valid": validate(penguin).ok,
        "restorable": is_restorable(penguin),
        "volume_bits": metrics.volume(penguin),
        "volume_note": "1 MB at 2^20 bytes/MB is 8388608 bits",
        "delay_s": metrics.delay(penguin),
        "duration_s": metrics.duration(penguin),
        "scope": metrics.scope(penguin),
        "coverage": metrics.coverage(penguin),
        "restored_value": restore(penguin, 0).value,
    }
    return {
        "penguin": penguin_doc,
        "universe": physics.universe_info(args.constants),
        "unit_mass_rate": physics.qubits_per_kg_second(args.constants),
    }


def run_entropy(args) -> dict:
    probs = _parse_number_list(args.probs)
    return {"entropy_bits": classical.shannon_min_volume(probs), "probabilities": probs}


def run_chain_delay(args) -> dict:
    delays = args.delays.replace(",", " ").split()
    return {"total_delay_s": classical.serial_chain_delay(delays)}


def run_radar(args) -> dict:
    rng = classical.radar_max_range(
        args.power, args.gain, args.aperture, args.min_signal, args.sigma
    )
    return {"max_range_m": rng, "scope_sigma_m2": args.sigma}


def run_variety_check(args) -> dict:
    result = classical.variety_invariance_check(args.model, args.relation)
    return {
        "state_classes": result.state_side,
        "reflection_classes": result.reflection_side,
        "equal": result.equal,
    }


def run_nyquist(args) -> dict:
    doc = {"min_rate_hz": classical.nyquist_min_rate(args.period)}
    if args.rate is not None:
        doc["rate_hz"] = seconds(args.rate)
        doc["restorable"] = classical.nyquist_restorable(args.rate, args.period)
    return doc


def run_aggregation_check(args) -> dict:
    result = classical.aggregation_invariance_check(args.model, args.edges)
    return {
        "state_ratio": result.state_side,
        "reflection_ratio": result.reflection_side,
        "equal": result.equal,
    }


def run_metcalfe(args) -> dict:
    doc = {"nodes": args.nodes, "value": classical.metcalfe_value(args.nodes)}
    if args.model is not None:
        result = classical.network_value_check(args.model, args.nodes)
        doc["scope_times_coverage"] = result.scope_times_coverage
        doc["equal"] = result.equal
    return doc


def _kalman_scenario(doc: dict):
    matrices = {key: doc[key] for key in ("A", "H", "Q", "R", "x0", "P0")}
    return classical.LinearSystemSpec(**matrices, B=doc.get("B")), doc["z"], doc.get("U")


def run_kalman(args) -> dict:
    system, measurements, inputs = args.scenario
    steps = classical.kalman_filter(system, measurements, inputs)
    return {
        "steps": [
            {"step": k + 1, "x": s.x, "P": s.P, "gain": s.gain} for k, s in enumerate(steps)
        ]
    }


def run_asl(args) -> dict:
    value = classical.asl(args.algorithm, args.n)
    return {"algorithm": args.algorithm, "n": args.n, "asl": value}


def _search_scenario(doc: dict) -> dict:
    return {
        "candidates": [model_from_json(m) for m in doc["candidates"]],
        "target": model_from_json(doc["target"]),
        "algorithm": doc.get("algorithm", "sequential"),
        "order_keys": doc.get("order_keys"),
    }


def run_search(args) -> dict:
    setup = classical.SearchSetup(
        **args.scenario, spec=_distance_spec(args), threshold=args.threshold
    )
    result = classical.search_min_mismatch(setup)
    return {"index": result.index, "comparisons": result.comparisons, "mismatch": result.mismatch}


def run_quantum(args) -> dict:
    qv = physics.quantum_volume(args.energy, args.time, args.constants)
    return {
        "exact_qubits": qv.exact,
        "asymptotic_qubits": qv.asymptotic,
        "transition_time_s": qv.transition_time,
        "relative_gap": qv.relative_gap,
        "profile": qv.profile,
    }


def run_carrier(args) -> dict:
    spec = physics.CarrierSpec(args.mass, args.radiation, args.count, args.time)
    return physics.carrier_volume(spec, args.regime, args.constants)


def run_bitmass(args) -> dict:
    consts = args.constants
    return {
        "temperature_K": args.temperature,
        "min_bit_mass_kg": physics.min_bit_mass(args.temperature, consts),
        "bits_per_kg": physics.bits_per_kg(args.temperature, consts),
        "note": "classical equilibrium memory only; not for quantum carriers",
        "profile": consts.name,
    }


class Command:
    """One row of `COMMANDS`, as the module docstring describes."""

    def __init__(self, description: str, run: Callable | None = None, *args, help=None):
        self.description = description
        self.run = run
        self.args = args
        self.help = help


def arg(*flags: str, **options) -> tuple:
    """One argument spec: the `add_argument` flags and options."""
    return flags, options


MODEL_FILE = reader("model", model_from_json)
LABELS_FILE = reader("relation", lambda doc: metrics.EquivalenceRelation(doc["labels"]))
EDGES_FILE = reader("edges", lambda doc: metrics.RelationSet(doc["edges"]))
MODEL = arg("model", type=MODEL_FILE)
CONSTANTS = arg(
    "--constants",
    type=_parse_constants,
    default=physics.PAPER,
    help="constants profile: 'paper', 'codata', or a JSON file",
)
DISTANCE = arg("--distance", choices=metrics.DISTANCE_KINDS, default="L2")

COMMANDS: dict[tuple[str, ...], Command] = {
    ("validate",): Command(
        "Check a model file against the structural postulates (nonempty "
        "noumena/carriers, resolvable states, total surjective mapping) "
        "and report whether the mapping is restorable.",
        run_validate,
        MODEL,
        help="check the four structural postulates and restorability",
    ),
    ("metrics",): Command(
        "Compute volume, delay, scope, granularity, variety, duration, "
        "sampling rate, aggregation, coverage, distortion and mismatch, "
        "skipping any metric whose inputs are not supplied.",
        run_metrics,
        MODEL,
        arg("--relation", type=LABELS_FILE, help="JSON file with {'labels': {state_index: label}}"),
        arg("--edges", type=EDGES_FILE, help="JSON file with {'edges': [[i, j, label], ...]}"),
        arg("--gaps", type=time_pairs("--gaps"), help="JSON list of [lo, hi] occurrence gaps"),
        arg("--target", type=MODEL_FILE, help="model file to measure mismatch against"),
        arg(
            "--restored",
            type=inline_value("--restored"),
            help="JSON value for the distortion input",
        ),
        arg(
            "--truth",
            type=inline_value("--truth"),
            help="JSON value for the distortion reference",
        ),
        DISTANCE,
        arg("--weights", help="six component weights, e.g. '1,1,1,1,1,1'"),
        help="compute the eleven information metrics for a model",
    ),
    ("restore",): Command(
        "Recover the state entry behind one reflection entry of a restorable model.",
        run_restore,
        MODEL,
        arg("--index", type=int, required=True),
        help="invert the mapping at a reflection entry",
    ),
    ("chain",): Command(
        "Compose a chain of restorable links into one end-to-end model; "
        "the composed delay is the exact sum of the link delays.",
        run_chain,
        arg(
            "chain",
            type=reader("chain", chain_from_json),
            help="JSON file: a list of models or {'links': [...]}",
        ),
        help="compose a serial transmission chain",
    ),
    ("classical",): Command(
        "Shannon entropy bound, serial delay, radar range equation, "
        "Rayleigh resolution, variety/aggregation invariance, MTBF "
        "average duration, Nyquist rate, Metcalfe value, Kalman filter, "
        "and average-search-length accounting.",
        help="calculators for the classical principles behind each metric",
    ),
    ("classical", "entropy"): Command(
        "Shannon source-coding bound in bits.",
        run_entropy,
        arg("--probs", required=True, help="probabilities, e.g. '0.5,0.25,0.25'"),
    ),
    ("classical", "chain-delay"): Command(
        "Sum of serial link delays, exact.",
        run_chain_delay,
        arg("--delays", required=True, help="delays in seconds, e.g. '1,2,3'"),
    ),
    ("classical", "radar"): Command(
        "Radar range equation: max range from scope.",
        run_radar,
        arg("--power", type=float, required=True, help="transmit power, W"),
        arg("--gain", type=float, required=True, help="antenna gain"),
        arg("--aperture", type=float, required=True, help="effective aperture, m^2"),
        arg("--min-signal", type=float, required=True, help="min detectable signal, W"),
        arg("--sigma", type=float, required=True, help="target reflection area, m^2"),
    ),
    ("classical", "rayleigh"): Command(
        "Rayleigh criterion: wavelength / aperture width.",
        lambda args: {
            "granularity_rad": classical.rayleigh_granularity(args.wavelength, args.aperture)
        },
        arg("--wavelength", type=float, required=True, help="m"),
        arg("--aperture", type=float, required=True, help="m"),
    ),
    ("classical", "variety-check"): Command(
        "Equivalence-class count is preserved through a restorable mapping.",
        run_variety_check,
        MODEL,
        arg("--relation", type=LABELS_FILE, required=True),
    ),
    ("classical", "mtbf"): Command(
        "Mean duration over monitoring sessions.",
        lambda args: {"mean_duration_s": classical.mtbf_duration(args.sessions)},
        arg(
            "--sessions",
            type=time_pairs("--sessions"),
            required=True,
            help="JSON [[sup, inf], ...]",
        ),
    ),
    ("classical", "nyquist"): Command(
        "Minimum restorable sampling rate of periodic information.",
        run_nyquist,
        arg("--period", required=True, help="signal period, s"),
        arg("--rate", help="sampling rate to test, 1/s"),
    ),
    ("classical", "aggregation-check"): Command(
        "Relations-per-element ratio is preserved through a restorable mapping.",
        run_aggregation_check,
        MODEL,
        arg("--edges", type=EDGES_FILE, required=True),
    ),
    ("classical", "metcalfe"): Command(
        "Network value n^2 = max scope x max coverage.",
        run_metcalfe,
        arg("--nodes", type=int, required=True),
        arg("--model", type=MODEL_FILE, help="optional network model file to cross-check"),
    ),
    ("classical", "kalman"): Command(
        "Discrete Kalman filter: minimum-distortion state estimate; "
        "scenario file with A, H, Q, R, x0, P0 and measurements z.",
        run_kalman,
        arg("scenario", type=reader("Kalman scenario", _kalman_scenario)),
    ),
    ("classical", "asl"): Command(
        "Average search length, sequential or bisection.",
        run_asl,
        arg("--algorithm", choices=("sequential", "bisection"), required=True),
        arg("--n", type=int, required=True),
    ),
    ("classical", "search"): Command(
        "Minimum-mismatch lookup over candidate models.",
        run_search,
        arg("scenario", type=reader("search scenario", _search_scenario)),
        arg("--threshold", type=float, default=0.0),
        DISTANCE,
        arg("--weights"),
    ),
    ("physics",): Command(
        "Margolus-Levitin qubit counting for a single quantum, the "
        "matter/radiation carrier volume, the thermodynamic bit-mass "
        "bound, and the whole-universe information budget.",
        None,
        CONSTANTS,
        help="quantum and cosmological information volumes",
    ),
    ("physics", "quantum"): Command(
        "Distinguishable states of one quantum over a window.",
        run_quantum,
        arg("--energy", type=float, required=True, help="average energy, J"),
        arg("--time", type=float, required=True, help="window length, s"),
    ),
    ("physics", "carrier"): Command(
        "Qubit volume of a matter/radiation carrier.",
        run_carrier,
        arg("--mass", type=float, default=0.0, help="kg"),
        arg("--radiation", type=float, default=0.0, help="J"),
        arg("--count", type=float, default=0.0, help="number of quanta"),
        arg("--time", type=float, default=0.0, help="window length, s"),
        arg("--regime", choices=physics.REGIMES, required=True),
    ),
    ("physics", "bitmass"): Command(
        "Thermodynamic minimum mass per bit and bits per kg.",
        run_bitmass,
        arg("--temperature", type=float, default=300.0, help="K"),
    ),
    ("physics", "qubit-rate"): Command(
        "Long-window qubit rate of 1 kg: 4*C^2/h.",
        lambda args: physics.qubits_per_kg_second(args.constants),
    ),
    ("physics", "universe"): Command(
        "Critical-density information budget of the universe.",
        lambda args: physics.universe_info(args.constants, args.radius_ly, args.age),
        arg("--radius-ly", type=float, default=4.56e10, help="light-years"),
        arg("--age", type=float, default=4.3e17, help="s"),
    ),
    ("demo",): Command(
        "End-to-end demonstration: validate and measure the built-in "
        "penguin picture model, then compute the universe information "
        "budget under the chosen constants profile.",
        run_demo,
        CONSTANTS,
        help="run the built-in picture-file and universe scenarios",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of `COMMANDS`; each leaf parser carries its row."""
    root = argparse.ArgumentParser(
        prog="oitkit",
        description=(
            "Sextuple information models: validation, metrics, classical "
            "calculators, and physical information budgets."
        ),
    )
    subparsers = {(): root.add_subparsers(dest="verb", required=True)}
    for path, row in COMMANDS.items():
        parser = subparsers[path[:-1]].add_parser(
            path[-1], help=row.help, description=row.description
        )
        for flags, options in row.args:
            parser.add_argument(*flags, **options)
        if row.run is None:
            subparsers[path] = parser.add_subparsers(dest="subcommand", required=True)
            continue
        parser.add_argument("--format", choices=("json", "text"), default="text")
        parser.add_argument("--output", help="write the report to a file instead of stdout")
        parser.set_defaults(command=row)
    return root


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        report = args.command.run(args)
        emit(report, args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (OitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_EXIT
    return 0 if report.get("valid", True) else DOMAIN_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
