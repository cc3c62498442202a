"""Command-line front end, driven by one command table.

`COMMANDS` has one row per command path, such as ``("classical", "entropy")``:
its description and help text, its argument specs, and `run`, which turns the
parsed arguments into a report dict. A row without `run` is a group, whose
arguments are flags given before the subcommand (``physics --constants``).
`build_parser` builds the argparse tree from the table in one loop; `main` runs
the chosen row and emits its report as JSON text, or as a text view rendered
from that text. Every JSON input is read by an `io` reader: a file argument
through `read_file`, with the reader `io` has for its kind, and a flag's
JSON text through `inline`; this module knows nothing of a file's fields or
of what a state value or a time may be.
Exit codes: 0 success, 1 domain error (invalid model, missing measure,
non-restorable mapping, ...; also any report whose `valid` field is false),
2 usage error (unknown flags; a flag value that does not parse; a file that is
missing or unparseable, or that its reader rejects, naming the field's JSON
path).

Of the other oitkit modules, only `errors` and `io` (with the `timeset` it
uses), which every report goes through, are imported with this one. The rest
are reached through the package, as `oitkit.metrics` and so on, which imports
a module on first access (PEP 562); so a verb loads only the modules its row
uses.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Callable

import oitkit

from .errors import OitError
from .io import (
    chain_from_json,
    constants_from_json,
    edges_from_json,
    entry_to_json,
    kalman_from_json,
    model_from_json,
    model_to_json,
    relation_from_json,
    search_from_json,
    time_pairs_from_json,
    to_json_text,
    value_from_json,
)
from .timeset import seconds

USAGE_EXIT = 2
DOMAIN_EXIT = 1


class UsageError(Exception):
    pass


def read_file(path: str, kind: str, convert: Callable[[Any], Any]) -> Any:
    """Parse the JSON file at `path` and turn it into a value with `convert`.

    A missing or unreadable file, unparseable JSON (nested too deep
    included), and a document that `convert` rejects with a `ValueError`
    (an `io.FormatError` naming the field, or a constructor's own check) are
    usage errors that name the file; `kind` says, with its article, what the
    file should have held ("an edges").
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except FileNotFoundError as exc:
        raise UsageError(f"file not found: {path}") from exc
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from exc
    except (RecursionError, ValueError) as exc:
        raise UsageError(f"cannot parse {path}: {exc}") from exc
    try:
        return convert(doc)
    except ValueError as exc:
        raise UsageError(f"{path} is not {kind} file: {exc}") from exc


def reader(kind: str, convert: Callable[[Any], Any]) -> Callable[[str], Any]:
    """An argparse `type` that reads a file argument through `read_file`."""
    return lambda path: read_file(path, kind, convert)


def inline(convert: Callable[[Any], Any]) -> Callable[[str], Any]:
    """Parse a flag's JSON text, such as '[[1, 2], ["3.5", 4]]', and turn it
    into a value with the `io` reader `convert`."""
    return lambda text: convert(json.loads(text))


def listed(parse: Callable[[str], Any]) -> Callable[[str], list]:
    """Read items separated by commas or spaces, such as '1,2,3', with `parse`."""
    return lambda text: [parse(part) for part in text.replace(",", " ").split()]


def _parse_constants(value: str) -> oitkit.physics.PhysicalConstants:
    if value in oitkit.physics.PROFILES:
        return oitkit.physics.profile(value)
    return read_file(value, "a constants", constants_from_json)


def _distance_spec(args) -> oitkit.metrics.DistanceSpec:
    weights = args.weights or (1, 1, 1, 1, 1, 1)
    return oitkit.metrics.DistanceSpec(kind=args.distance, weights=weights)


def render_text(doc, indent: int = 0) -> str:
    """Generic text view of a report document; derived from the JSON form."""
    pad = "  " * indent
    if isinstance(doc, dict):
        rows = [(f"{key}:", doc[key]) for key in sorted(doc)]
    elif isinstance(doc, list):
        rows = [("-", value) for value in doc]
    else:
        return f"{pad}{doc}"
    lines = []
    for head, value in rows:
        if isinstance(value, (dict, list)):
            lines.append(f"{pad}{head}")
            lines.append(render_text(value, indent + 1))
        else:
            lines.append(f"{pad}{head} {value}")
    return "\n".join(lines)


def emit(report: dict, args) -> None:
    text = to_json_text(report)
    if args.format == "text":
        text = render_text(json.loads(text))
    try:
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        else:
            print(text, flush=True)
    except OSError as exc:
        if not args.output:
            # the interpreter flushes stdout again as it exits; a closed pipe
            # would make that flush print a second error
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise UsageError(f"cannot write {args.output or 'stdout'}: {exc.strerror}") from exc


def _violations(found) -> list[dict]:
    return [{"rule": v.rule, "message": v.message, "postulate": v.postulate} for v in found]


def run_validate(args) -> dict:
    report = oitkit.model.validate(args.model)
    doc = {
        "valid": report.ok,
        "violations": _violations(report.violations),
        "warnings": _violations(report.warnings),
    }
    if report.ok:
        doc["restorable"] = oitkit.model.is_restorable(args.model)
    return doc


def run_metrics(args) -> dict:
    return oitkit.metrics.metric_report(
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
    entry = oitkit.model.restore(args.model, args.index)
    return {"reflection_index": args.index, "restored_state": entry_to_json(entry)}


def run_chain(args) -> dict:
    composed = oitkit.model.compose_chain(args.chain)
    return {
        "links": len(args.chain),
        "delay_s": oitkit.metrics.delay(composed),
        "link_delays_s": [oitkit.metrics.delay(link) for link in args.chain],
        "model": model_to_json(composed),
    }


def run_demo(args) -> dict:
    from . import scenarios

    penguin = scenarios.penguin_model()
    penguin_doc = {
        "valid": oitkit.model.validate(penguin).ok,
        "restorable": oitkit.model.is_restorable(penguin),
        "volume_bits": oitkit.metrics.volume(penguin),
        "volume_note": "1 MB at 2^20 bytes/MB is 8388608 bits",
        "delay_s": oitkit.metrics.delay(penguin),
        "duration_s": oitkit.metrics.duration(penguin),
        "scope": oitkit.metrics.scope(penguin),
        "coverage": oitkit.metrics.coverage(penguin),
        "restored_value": oitkit.model.restore(penguin, 0).value,
    }
    return {
        "penguin": penguin_doc,
        "universe": oitkit.physics.universe_info(args.constants),
        "unit_mass_rate": oitkit.physics.qubits_per_kg_second(args.constants),
    }


def run_entropy(args) -> dict:
    entropy = oitkit.classical.shannon_min_volume(args.probs)
    return {"entropy_bits": entropy, "probabilities": args.probs}


def run_chain_delay(args) -> dict:
    return {"total_delay_s": oitkit.classical.serial_chain_delay(args.delays)}


def run_radar(args) -> dict:
    rng = oitkit.classical.radar_max_range(
        args.power, args.gain, args.aperture, args.min_signal, args.sigma
    )
    return {"max_range_m": rng, "scope_sigma_m2": args.sigma}


def run_variety_check(args) -> dict:
    result = oitkit.classical.variety_invariance_check(args.model, args.relation)
    return {
        "state_classes": result.state_side,
        "reflection_classes": result.reflection_side,
        "equal": result.equal,
    }


def run_nyquist(args) -> dict:
    doc = {"min_rate_hz": oitkit.classical.nyquist_min_rate(args.period)}
    if args.rate is not None:
        doc["rate_hz"] = args.rate
        doc["restorable"] = oitkit.classical.nyquist_restorable(args.rate, args.period)
    return doc


def run_aggregation_check(args) -> dict:
    result = oitkit.classical.aggregation_invariance_check(args.model, args.edges)
    return {
        "state_ratio": result.state_side,
        "reflection_ratio": result.reflection_side,
        "equal": result.equal,
    }


def run_metcalfe(args) -> dict:
    doc = {"nodes": args.nodes, "value": oitkit.classical.metcalfe_value(args.nodes)}
    if args.model is not None:
        result = oitkit.classical.network_value_check(args.model, args.nodes)
        doc["scope_times_coverage"] = result.scope_times_coverage
        doc["equal"] = result.equal
    return doc


def run_kalman(args) -> dict:
    system, measurements, inputs = args.scenario
    steps = oitkit.classical.kalman_filter(system, measurements, inputs)
    return {
        "steps": [
            {"step": k + 1, "x": s.x, "P": s.P, "gain": s.gain} for k, s in enumerate(steps)
        ]
    }


def run_asl(args) -> dict:
    value = oitkit.classical.asl(args.algorithm, args.n)
    return {"algorithm": args.algorithm, "n": args.n, "asl": value}


def run_search(args) -> dict:
    setup = oitkit.classical.SearchSetup(
        **args.scenario, spec=_distance_spec(args), threshold=args.threshold
    )
    result = oitkit.classical.search_min_mismatch(setup)
    return {"index": result.index, "comparisons": result.comparisons, "mismatch": result.mismatch}


def run_quantum(args) -> dict:
    qv = oitkit.physics.quantum_volume(args.energy, args.time, args.constants)
    return {
        "exact_qubits": qv.exact,
        "asymptotic_qubits": qv.asymptotic,
        "transition_time_s": qv.transition_time,
        "relative_gap": qv.relative_gap,
        "profile": qv.profile,
    }


def run_carrier(args) -> dict:
    spec = oitkit.physics.CarrierSpec(args.mass, args.radiation, args.count, args.time)
    return oitkit.physics.carrier_volume(spec, args.regime, args.constants)


def run_bitmass(args) -> dict:
    consts = args.constants
    return {
        "temperature_K": args.temperature,
        "min_bit_mass_kg": oitkit.physics.min_bit_mass(args.temperature, consts),
        "bits_per_kg": oitkit.physics.bits_per_kg(args.temperature, consts),
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


def flag_arg(flag: str, kind: tuple[str, Callable[[str], Any]], **options) -> tuple:
    """The spec of a flag whose text holds `kind`: what it should be, and the
    function that parses it. A `TypeError` or `ValueError` from that function,
    or a `RecursionError` from a value nested too deep, is a usage error
    naming the flag."""
    what, parse = kind

    def convert(text: str) -> Any:
        try:
            return parse(text)
        except (RecursionError, TypeError, ValueError) as exc:
            raise UsageError(f"{flag} is not {what}: {exc}") from exc

    return arg(flag, type=convert, **options)


STATE_VALUE = ("a state value", inline(value_from_json))
TIME_PAIRS = ("a list of time pairs", inline(time_pairs_from_json))
NUMBERS = ("a list of numbers", listed(float))
TIMES = ("a list of times", listed(seconds))
MODEL_FILE = reader("a model", model_from_json)
LABELS_FILE = reader("a relation", relation_from_json)
EDGES_FILE = reader("an edges", edges_from_json)
MODEL = arg("model", type=MODEL_FILE)
# argparse passes a string default through `type`, so "paper" becomes the
# paper profile without importing `physics` to build the table.
CONSTANTS = arg(
    "--constants",
    type=_parse_constants,
    default="paper",
    help="constants profile: 'paper', 'codata', or a JSON file",
)
# these equal metrics.DISTANCE_KINDS and physics.REGIMES, which a test checks
DISTANCE_KINDS = ("discrete", "L1", "L2", "Linf")
REGIMES = ("long", "instant")
DISTANCE = arg("--distance", choices=DISTANCE_KINDS, default="L2")
WEIGHTS = flag_arg("--weights", NUMBERS, help="six component weights, e.g. '1,1,1,1,1,1'")

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
        flag_arg("--gaps", TIME_PAIRS, help="JSON list of [lo, hi] occurrence gaps"),
        arg("--target", type=MODEL_FILE, help="model file to measure mismatch against"),
        flag_arg("--restored", STATE_VALUE, help="JSON value for the distortion input"),
        flag_arg("--truth", STATE_VALUE, help="JSON value for the distortion reference"),
        DISTANCE,
        WEIGHTS,
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
            type=reader("a chain", chain_from_json),
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
        flag_arg("--probs", NUMBERS, required=True, help="probabilities, e.g. '0.5,0.25,0.25'"),
    ),
    ("classical", "chain-delay"): Command(
        "Sum of serial link delays, exact.",
        run_chain_delay,
        flag_arg("--delays", TIMES, required=True, help="delays in seconds, e.g. '1,2,3'"),
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
            "granularity_rad": oitkit.classical.rayleigh_granularity(
                args.wavelength, args.aperture
            )
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
        lambda args: {"mean_duration_s": oitkit.classical.mtbf_duration(args.sessions)},
        flag_arg("--sessions", TIME_PAIRS, required=True, help="JSON [[sup, inf], ...]"),
    ),
    ("classical", "nyquist"): Command(
        "Minimum restorable sampling rate of periodic information.",
        run_nyquist,
        flag_arg("--period", ("a time", seconds), required=True, help="signal period, s"),
        flag_arg("--rate", ("a number", seconds), help="sampling rate to test, 1/s"),
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
        arg("scenario", type=reader("a Kalman scenario", kalman_from_json)),
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
        arg("scenario", type=reader("a search scenario", search_from_json)),
        arg("--threshold", type=float, default=0.0),
        DISTANCE,
        WEIGHTS,
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
        arg("--regime", choices=REGIMES, required=True),
    ),
    ("physics", "bitmass"): Command(
        "Thermodynamic minimum mass per bit and bits per kg.",
        run_bitmass,
        arg("--temperature", type=float, default=300.0, help="K"),
    ),
    ("physics", "qubit-rate"): Command(
        "Long-window qubit rate of 1 kg: 4*C^2/h.",
        lambda args: oitkit.physics.qubits_per_kg_second(args.constants),
    ),
    ("physics", "universe"): Command(
        "Critical-density information budget of the universe.",
        lambda args: oitkit.physics.universe_info(args.constants, args.radius_ly, args.age),
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
    except ArithmeticError as exc:  # a float overflowed on inputs that are too large
        print(f"error: arithmetic failed: {exc.args[-1]}", file=sys.stderr)
        return DOMAIN_EXIT
    return 0 if report.get("valid", True) else DOMAIN_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
