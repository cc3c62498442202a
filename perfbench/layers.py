"""Per-layer metrics of the traced run.

The layers are the modules of `src/oitkit` on a measured path: cli, io,
timeset, model, metrics and classical (physics only through its two CLI
verbs). Each metric is taken from the workload whose ops exercise that
layer most, as the table in `perfbench/README.md` lists; a timing is the
median over that workload's ops of the time spent in the span per op.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import time

import cli_oneshot
import gen
from oitkit import io, metrics, model

METRIC_NAMES = (
    "volume", "delay", "scope", "granularity", "variety", "duration",
    "sampling_rate", "aggregation", "coverage", "distortion", "mismatch",
)

# (workload phase, span name) pairs; the metric is "<span>_ms"
SPAN_METRICS = (
    [("cli_oneshot", f"cli.{verb}.wall") for verb, _ in cli_oneshot.VERBS]
    + [
        ("report_large", span)
        for span in (
            "io.read_json", "io.model_from_json", "io.model_to_json", "io.to_json_text",
            "timeset.construct", "timeset.issubset",
            "model.validate", "model.is_restorable", "model.restore",
            "metrics.metric_report",
        )
    ]
    + [("report_large", f"metrics.{name}") for name in METRIC_NAMES]
    + [
        ("many_small", span)
        for span in (
            "model.decompose_atomic", "model.combine", "model.compose_chain",
            "classical.variety_invariance_check", "classical.aggregation_invariance_check",
            "classical.search_min_mismatch", "classical.kalman_filter",
        )
    ]
)

# values the benchmark notes at a layer boundary: name -> unit
NOTE_METRICS = {
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    "cli.child_cpu_ms": "ms",
    "import.numpy_ms": "ms",
    "import.oitkit_ms": "ms",
    "io.input_bytes": "bytes",
    "io.report_bytes": "bytes",
    "classical.search_comparisons": "count",
    "classical.kalman_steps": "count",
}

SMALL_KINDS = ("model", "chain", "search", "kalman")

SCALE_SIZES = (100, 1000, 10000)
SCALE_STAGES = (
    "model_from_json", "validate", "restore", "decompose_atomic",
    "granularity", "metric_report", "to_json_text",
)

PROBE_REPEATS = 5


def cli_probes(tr) -> None:
    """A bare interpreter, and one that only imports `oitkit.cli`."""
    env = cli_oneshot.child_env()
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        bare = cli_oneshot.run_child(["-c", "pass"], env)
        t1 = time.perf_counter()
        imp = cli_oneshot.run_child(["-c", "import oitkit.cli"], env)
        t2 = time.perf_counter()
        if bare.returncode or imp.returncode:
            raise RuntimeError(f"interpreter probe failed: {imp.stderr.decode()[-500:]}")
        tr.note("cli.interp_ms", (t1 - t0) * 1000)
        tr.note("cli.import_ms", ((t2 - t1) - (t1 - t0)) * 1000)


def _slope(sizes, seconds) -> float:
    """Least-squares slope of log(time) against log(n)."""
    xs = [math.log(n) for n in sizes]
    ys = [math.log(t) for t in seconds]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def scale_sweep(seed: int) -> tuple[dict[str, float], dict[str, list[float]], int]:
    """One pass per size over `report_large`-shaped models.

    Returns the log–log slope per stage, the raw stage times, and the number
    of sizes whose outputs failed their check.
    """
    rng = random.Random(f"scale/{seed}")
    times: dict[str, list[float]] = {stage: [] for stage in SCALE_STAGES}
    failed = 0

    def timed(stage, call):
        t = time.perf_counter()
        result = call()
        times[stage].append(time.perf_counter() - t)
        return result

    for n in SCALE_SIZES:
        bundle, planted = gen.report_bundle(rng, n)
        doc = json.loads(json.dumps(bundle))
        target = io.model_from_json(doc["target"])
        relation = metrics.EquivalenceRelation(doc["relation"]["labels"])
        relations = metrics.RelationSet(doc["edges"]["edges"])
        m = timed("model_from_json", lambda: io.model_from_json(doc["model"]))
        timed("validate", lambda: model.validate(m))
        entry = timed("restore", lambda: model.restore(m, planted.restore_index))
        timed("decompose_atomic", lambda: model.decompose_atomic(m))
        timed("granularity", lambda: metrics.granularity(m))
        report = timed(
            "metric_report",
            lambda: metrics.metric_report(m, relation=relation, relations=relations, target=target),
        )
        timed("to_json_text", lambda: io.to_json_text(report))
        if entry.key() != planted.preimage_key or report["volume"].get("value") != planted.volume:
            failed += 1
    slopes = {f"scale.{stage}": _slope(SCALE_SIZES, t) for stage, t in times.items()}
    return slopes, times, failed


def per_layer(tr, small_latencies: dict[str, list[float]]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric except the scale slopes and the overhead."""
    out: dict[str, tuple[float, str]] = {}
    per_phase = {phase: tr.per_op_ms(phase) for phase in ("cli_oneshot", "report_large", "many_small")}
    for phase, span in SPAN_METRICS:
        out[f"{span}_ms"] = (statistics.median(per_phase[phase][span]), "ms")
    for name, unit in NOTE_METRICS.items():
        out[name] = (statistics.median(tr.notes[name]), unit)
    for kind in SMALL_KINDS:
        out[f"small.{kind}_op_ms"] = (statistics.median(small_latencies[kind]), "ms")
    return out
