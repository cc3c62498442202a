"""The benchmark's own tests: a short run emits every metric that
BENCHMARK.json names, and a corrupted output counts as a failed op, so the
correctness checks are not vacuous.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
from fractions import Fraction
from pathlib import Path

import pytest

import cli_oneshot
import layers
import many_small
import report_large
import run
from spans import NULL, Tracer

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))


def last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_short_untraced_run_emits_every_end_to_end_metric(monkeypatch, capsys):
    monkeypatch.setattr(many_small.Workload, "tail_ops", 64)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    assert run.main(["--workload", "many_small", "--seed", "5", "--seconds", "0", "--trace", "0"]) == 0
    result = last_json_line(capsys.readouterr().out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 64
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_short_traced_run_emits_every_per_layer_metric(monkeypatch, capsys):
    monkeypatch.setattr(layers, "SCALE_SIZES", (20, 40, 80))
    monkeypatch.setattr(layers, "PROBE_REPEATS", 1)
    assert run.main(["--workload", "many_small", "--seed", "5", "--seconds", "0", "--trace", "1"]) == 0
    out = capsys.readouterr().out
    result = last_json_line(out)
    assert result["correct"] and result["failed"] == 0
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert "tracing overhead on many_small" in out
    trace = json.loads((run.WORKDIR / "trace-many_small-5.json").read_text(encoding="utf-8"))
    assert trace["spans"] and trace["scale"]["sizes"] == [20, 40, 80]


def count_failures(wl, ops) -> run.Tally:
    tally = run.Tally()
    for i in ops:
        run.run_op(wl, i, NULL, "test", tally)
    return tally


class FlipFirstStdoutByte(cli_oneshot.Workload):
    def op(self, i, tr):
        proc = super().op(i, tr)
        flipped = bytes([proc.stdout[0] ^ 1]) + proc.stdout[1:]
        return subprocess.CompletedProcess(proc.args, proc.returncode, flipped, proc.stderr)


def test_flipped_stdout_byte_is_a_failed_op(tmp_path):
    good = cli_oneshot.Workload(0, tmp_path)
    good.setup()
    assert count_failures(good, [0]).failed == 0
    bad = FlipFirstStdoutByte(0, tmp_path)
    bad.setup()
    tally = count_failures(bad, [0, 1])
    assert tally.failed == 2 and tally.failed_checks == {"cli": 2}


def test_wrong_restore_index_is_a_failed_op(tmp_path):
    wl = report_large.Workload(7, tmp_path)
    wl.setup()
    assert count_failures(wl, [1]).failed == 0
    planted = wl.planted[1]
    planted.restore_index = (planted.restore_index + 1) % report_large.N_STATES
    tally = count_failures(wl, [1])
    assert tally.failed == 1 and tally.failed_checks == {"model": 1}


@pytest.fixture
def small(tmp_path):
    wl = many_small.Workload(3, tmp_path)
    wl.setup()
    return wl


def test_wrong_planted_answers_fail_many_small_ops(small):
    chain, search = many_small.KINDS.index("chain"), many_small.KINDS.index("search")
    assert count_failures(small, [0, chain, search]).failed == 0
    small.planted[chain] += Fraction(1, 1000)
    small.planted[search] = (small.planted[search] + 1) % 64
    small.planted[0].volume += 1
    tally = count_failures(small, [0, chain, search])
    assert tally.failed == 3
    assert tally.failed_checks == {"metrics": 1, "model": 1, "classical": 1}


def test_op_that_raises_is_a_failed_op_charged_to_its_layer(small):
    tr = Tracer()
    small.planted[1].restore_index = 10_000  # no such reflection entry
    tally = run.Tally()
    run.run_op(small, 1, tr, "test", tally)
    assert tally.failed == 1
    assert tr.failed_by_layer()["model"] == 1 and tr.failed_by_layer()["op"] == 0


def test_self_time_excludes_children():
    tr = Tracer()
    with tr.span("parent"):
        with tr.span("child"):
            pass
    own = tr.self_times()
    parent, child = tr.spans
    assert own[0] == pytest.approx((parent[2] - parent[1]) - (child[2] - child[1]))
    assert own[1] == pytest.approx(child[2] - child[1])


def test_tail_percentile_leaves_ten_samples():
    assert run.tail_percentile(40) == 75.0
    assert run.tail_percentile(80) == 87.5
    assert run.tail_percentile(1024) == 99.0


def test_import_times_split_numpy_out_of_oitkit():
    stderr = (
        b"import time: self [us] | cumulative | imported package\n"
        b"import time:       100 |       5000 |     numpy\n"
        b"import time:       200 |       8000 |   oitkit.classical\n"
        b"import time:        50 |       9000 | oitkit\n"
        b"import time:        70 |        700 | json\n"
        b"import time:        30 |       1000 | oitkit.cli\n"
    )
    assert cli_oneshot.import_times_ms(stderr) == (5.0, 5.0)
