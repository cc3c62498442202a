"""Workload `cli_oneshot`: one op is one `python -m oitkit <verb>` process.

The ops cycle through a fixed rotation of ten verbs over the shipped
fixtures; the seed picks where in the rotation a run starts. Each op's
stdout must equal, byte for byte, the output recorded in `expected/` at the
commit that added this benchmark: reports are byte-stable by contract.
The traced form adds `-X importtime` to the child, which writes to stderr
only, and parses that stderr.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = Path(__file__).resolve().parent / "expected"

VERBS = (
    ("validate", ["validate", "fixtures/penguin.json"]),
    ("metrics", ["metrics", "fixtures/penguin.json", "--format", "json"]),
    ("restore", ["restore", "fixtures/penguin.json", "--index", "0"]),
    ("chain", ["chain", "fixtures/chain3.json"]),
    ("classical_entropy", ["classical", "entropy", "--probs", "0.5,0.25,0.25"]),
    ("classical_kalman", ["classical", "kalman", "fixtures/kalman_scalar.json", "--format", "json"]),
    ("classical_asl", ["classical", "asl", "--algorithm", "bisection", "--n", "7"]),
    ("physics_universe", ["physics", "universe"]),
    ("physics_quantum", ["physics", "quantum", "--energy", "1.65e-34", "--time", "1"]),
    ("demo", ["demo"]),
)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_child(argv: list[str], env: dict, importtime: bool = False) -> subprocess.CompletedProcess:
    opts = ["-X", "importtime"] if importtime else []
    return subprocess.run(
        [sys.executable, *opts, *argv], cwd=ROOT, env=env, capture_output=True, check=False
    )


def children_cpu_s() -> float:
    use = resource.getrusage(resource.RUSAGE_CHILDREN)
    return use.ru_utime + use.ru_stime


def import_times_ms(stderr: bytes) -> tuple[float, float]:
    """(numpy, oitkit-without-numpy) cumulative import times from the
    `-X importtime` report of one process.

    The report lists each module after the modules it imported, indented by
    nesting depth, so numpy lines seen before a top-level `oitkit*` line
    belong to it and are taken out of oitkit's figure.
    """
    numpy_us = oitkit_us = pending_numpy_us = 0
    for line in stderr.decode("utf-8", "replace").splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, field = line.split("|", 2)
        name = field[1:]
        depth = (len(name) - len(name.lstrip(" "))) // 2
        name = name.strip()
        us = int(cumulative)
        if name == "numpy":
            numpy_us += us
            pending_numpy_us += us
        if depth == 0:
            if name.split(".")[0] == "oitkit":
                oitkit_us += us - pending_numpy_us
            pending_numpy_us = 0
    return numpy_us / 1000, oitkit_us / 1000


class Workload:
    name = "cli_oneshot"
    round_size = len(VERBS)
    tail_ops = 80

    def __init__(self, seed: int, workdir: Path):
        start = seed % len(VERBS)
        self.rotation = VERBS[start:] + VERBS[:start]
        self.env = child_env()

    def setup(self) -> None:
        self.expected = {name: (EXPECTED / f"{name}.out").read_bytes() for name, _ in VERBS}
        # one child compiles the package's bytecode and warms the file cache
        warm = run_child(["-m", "oitkit", "demo"], self.env)
        if warm.returncode != 0 or warm.stdout != self.expected["demo"]:
            raise RuntimeError(f"warm-up child failed: {warm.stderr.decode()[-500:]}")

    def kind(self, i: int) -> str:
        return self.rotation[i % len(VERBS)][0]

    def op(self, i: int, tr):
        name, argv = self.rotation[i % len(VERBS)]
        cpu = children_cpu_s()
        with tr.span(f"cli.{name}.wall"):
            proc = run_child(["-m", "oitkit", *argv], self.env, importtime=tr.enabled)
        if tr.enabled:
            tr.note("cli.child_cpu_ms", (children_cpu_s() - cpu) * 1000)
            numpy_ms, oitkit_ms = import_times_ms(proc.stderr)
            tr.note("import.numpy_ms", numpy_ms)
            tr.note("import.oitkit_ms", oitkit_ms)
        return proc

    def check(self, i: int, proc) -> str | None:
        if proc.returncode != 0 or proc.stdout != self.expected[self.kind(i)]:
            return "cli"
        return None
