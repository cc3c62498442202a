#!/usr/bin/env python3
"""The oitkit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from `src/`. One
run drives one workload (`cli_oneshot`, `report_large` or `many_small`) from
this one process, in a closed loop with one client: the next op starts when
the previous one has returned. Inputs come from `--seed` only. Every op's
output is checked outside the timed region; an op that raises or fails its
check is a failed op.

`--trace 0` measures the end-to-end metrics for `--seconds` seconds (and at
least the workload's fixed op count). `--trace 1` is the traced run: a fixed
traced pass over every workload, the scale sweep, and then `--seconds` of
rounds of the named workload, each run untraced and traced, whose median
gap is the tracing overhead. The spans are written to
`perfbench/.work/trace-<workload>-<seed>.json` when the run ends.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The lines before it name every metric
with its unit.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / ".work"
WORKLOADS = ("cli_oneshot", "report_large", "many_small")
SETUP_REPEATS = 3
# fixed size of each workload's pass in the traced run
LAYER_PASS_OPS = {"cli_oneshot": 20, "report_large": 3, "many_small": 128}


def tail_percentile(ops: int) -> float:
    """The highest percentile (to 0.1) with at least ten samples beyond it."""
    return math.floor(1000 * (1 - 10 / ops)) / 10


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    return sorted_values[max(1, math.ceil(pct / 100 * len(sorted_values))) - 1]


class Tally:
    """Latencies and failures of the ops of one phase."""

    def __init__(self):
        self.ms: list[float] = []
        self.kinds: list[str] = []
        self.failed = 0
        self.failed_checks: dict[str, int] = {}

    def absorb(self, other: "Tally") -> None:
        self.ms += other.ms
        self.kinds += other.kinds
        self.failed += other.failed
        for layer, count in other.failed_checks.items():
            self.failed_checks[layer] = self.failed_checks.get(layer, 0) + count

    def by_kind(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for kind, ms in zip(self.kinds, self.ms):
            out.setdefault(kind, []).append(ms)
        return out


def run_op(wl, i: int, tr, phase: str, tally: Tally, probe: bool = False) -> None:
    kind = wl.kind(i)
    tr.begin_op(i, phase)
    start = time.perf_counter()
    try:
        with tr.span(f"op.{kind}"):
            out = wl.op(i, tr)
    except Exception as exc:  # an op that raises is a failed op; the run goes on
        elapsed = time.perf_counter() - start
        bad = "raised"
        if tally.failed == 0:
            print(f"perfbench: op {i} ({kind}) raised {type(exc).__name__}: {exc}", file=sys.stderr)
    else:
        elapsed = time.perf_counter() - start
        bad = wl.check(i, out)
        if bad is None and probe:
            wl.probe(i, out, tr)
    tally.ms.append(elapsed * 1000)
    tally.kinds.append(kind)
    if bad is not None:
        tally.failed += 1
        tally.failed_checks[bad] = tally.failed_checks.get(bad, 0) + 1


def measure(wl, tr, phase: str, seconds: float, min_ops: int, probe: bool = False):
    """Whole rounds of ops until `seconds` have passed and `min_ops` ran."""
    tally = Tally()
    i = 0
    start = time.perf_counter()
    while i < min_ops or time.perf_counter() - start < seconds:
        for _ in range(wl.round_size):
            run_op(wl, i, tr, phase, tally, probe)
            i += 1
    return tally, time.perf_counter() - start


def set_up(name: str, seed: int, repeats: int):
    """Import the workload (and with it the package), then build its inputs
    and warm it up `repeats` times; set-up time is the import time plus the
    median build time."""
    start = time.perf_counter()
    module = importlib.import_module(name)
    import_s = time.perf_counter() - start
    builds = []
    for _ in range(repeats):
        start = time.perf_counter()
        wl = module.Workload(seed, WORKDIR / name)
        wl.setup()
        builds.append(time.perf_counter() - start)
    return wl, import_s + statistics.median(builds)


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli_oneshot" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def untraced(args) -> tuple[Tally, dict]:
    from spans import NULL

    wl, setup_s = set_up(args.workload, args.seed, SETUP_REPEATS)
    tally, elapsed = measure(wl, NULL, "measure", args.seconds, wl.tail_ops)
    pct = tail_percentile(wl.tail_ops)
    ordered = sorted(tally.ms)
    print(f"workload {args.workload}: {len(ordered)} ops in {elapsed:.2f} s, one client, closed loop")
    print(f"latency_tail_ms is p{pct:g} (the fixed op count {wl.tail_ops} leaves "
          f"{wl.tail_ops - math.ceil(pct / 100 * wl.tail_ops)} samples beyond it; "
          f"this run has {len(ordered)} samples)")
    error_rate = tally.failed / len(ordered)
    print(f"error_rate: {error_rate} ({tally.failed} of {len(ordered)} ops failed"
          + (f": {tally.failed_checks}" if tally.failed else "") + ")")
    return tally, {
        "latency_p50_ms": (statistics.median(ordered), "ms"),
        "latency_tail_ms": (nearest_rank(ordered, pct), "ms"),
        "throughput_ops_per_s": (len(ordered) / elapsed, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(args.workload), "MB"),
    }


def traced(args) -> tuple[Tally, dict]:
    import layers
    from spans import NULL, Tracer

    wls = {name: set_up(name, args.seed, 1)[0] for name in WORKLOADS}
    tr = Tracer()
    passes = {}
    for name in WORKLOADS:
        passes[name], _ = measure(
            wls[name], tr, name, 0, LAYER_PASS_OPS[name], probe=name == "report_large"
        )
    layers.cli_probes(tr)
    found = layers.per_layer(tr, passes["many_small"].by_kind())
    slopes, scale_times, scale_failed = layers.scale_sweep(args.seed)
    found.update({name: (value, "log-log") for name, value in slopes.items()})

    # each round runs untraced and traced on the same inputs, in alternating
    # order, so both sides see the same inputs and the same machine load
    wl = wls[args.workload]
    plain, with_spans = Tally(), Tally()
    rounds = 0
    start = time.perf_counter()
    while rounds < 2 or time.perf_counter() - start < args.seconds:
        sides = ((plain, NULL), (with_spans, tr))
        for side, tracer in sides if rounds % 2 == 0 else reversed(sides):
            for i in range(rounds * wl.round_size, (rounds + 1) * wl.round_size):
                run_op(wl, i, tracer, "overhead", side)
        rounds += 1
    plain_ms, traced_ms = statistics.median(plain.ms), statistics.median(with_spans.ms)

    found["trace.overhead_ms"] = (traced_ms - plain_ms, "ms")
    print(f"tracing overhead on {args.workload}: p50 {traced_ms:.3f} ms traced vs "
          f"{plain_ms:.3f} ms untraced ({(traced_ms / plain_ms - 1) * 100:+.1f}%)")

    total = Tally()
    for tally in (*passes.values(), plain, with_spans):
        total.absorb(tally)
    # each size of the sweep counts as one op; the tracer already charged
    # every op that raised to the layer it raised in
    total.ms += [sum(t[k] for t in scale_times.values()) * 1000 for k in range(len(layers.SCALE_SIZES))]
    total.failed += scale_failed
    failed_by_layer = tr.failed_by_layer()
    for layer, count in {**total.failed_checks, "scale": scale_failed}.items():
        if layer != "raised":
            failed_by_layer[layer] = failed_by_layer.get(layer, 0) + count
    print("failed ops by layer:", json.dumps({f"{k}.failed": v for k, v in sorted(failed_by_layer.items())}))
    print("self time per span (median ms):", json.dumps(
        {name: round(s["self_ms_median"], 3) for name, s in tr.self_time_summary().items()}
    ))
    out = WORKDIR / f"trace-{args.workload}-{args.seed}.json"
    tr.write(out, {
        "workload": args.workload,
        "seed": args.seed,
        "overhead": {"traced_p50_ms": traced_ms, "untraced_p50_ms": plain_ms},
        "scale": {"sizes": list(layers.SCALE_SIZES), "seconds": scale_times, "slopes": slopes},
        "failed_by_layer": failed_by_layer,
    })
    print(f"spans written to {out.relative_to(ROOT)}")
    return total, found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/oitkit/__init__.py", "fixtures/penguin.json", "tests/oracles.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: run from a full checkout; missing {missing}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    tally, found = (traced if args.trace else untraced)(args)
    for name, (value, unit) in found.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": len(tally.ms),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in found.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
