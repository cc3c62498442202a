"""Workload `many_small`: the model and metrics layers used the other way
round, on many fresh small instances, plus the classical layer.

Ops run in a fixed rotation of 64: 60 `model` ops (a 4–32 state model taken
through every structural operation, four metrics, both invariance checks
and serialisation), 2 `chain` ops (3 links of 8 states), 1 `search` op (64
candidates, one planted zero-mismatch copy of the target) and 1 `kalman`
op (4 states, 2 measurements, 500 steps). Every op parses its JSON text
afresh and uses each instance only a few times, so a per-instance index or
cache that pays off on `report_large` shows its construction cost here.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import numpy as np

import gen
from oitkit import classical, io, metrics, model
from spans import NULL

sys.path.append(str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import batch_mmse  # noqa: E402  (the tests' independent Kalman oracle)

KINDS = tuple(
    {15: "chain", 31: "search", 47: "chain", 63: "kalman"}.get(i, "model") for i in range(64)
)
INPUT_ROUNDS = 2  # distinct inputs cycle every INPUT_ROUNDS rounds
# (states, carriers, occurrence intervals) of the 60 model ops of a round:
# every round covers 4–32 states, 1–4 carriers and 1–3 intervals evenly, so
# the seed changes the models but not the mix of their sizes
MODEL_SHAPES = tuple(
    (4 + round(j * 28 / 59), 1 + j % 4, 1 + j % 3) for j in range(KINDS.count("model"))
)
KALMAN_CHECK_STEP = 20


def _system(doc: dict) -> classical.LinearSystemSpec:
    return classical.LinearSystemSpec(
        A=doc["A"], H=doc["H"], Q=doc["Q"], R=doc["R"], x0=doc["x0"], P0=doc["P0"]
    )


def model_op(doc: dict, restore_index: int, tr):
    with tr.span("io.model_from_json"):
        m = io.model_from_json(doc["model"])
    relation = metrics.EquivalenceRelation(doc["relation"]["labels"])
    relations = metrics.RelationSet(doc["edges"]["edges"])
    with tr.span("model.validate"):
        model.validate(m)
    with tr.span("model.is_restorable"):
        model.is_restorable(m)
    with tr.span("model.restore"):
        entry = model.restore(m, restore_index)
    with tr.span("model.decompose_atomic"):
        atoms = model.decompose_atomic(m)
    with tr.span("model.combine"):
        whole = model.combine(atoms)
    with tr.span("metrics.volume"):
        volumes = (metrics.volume(m), metrics.volume(whole))
    with tr.span("metrics.delay"):
        metrics.delay(m)
    with tr.span("metrics.scope"):
        metrics.scope(m)
    with tr.span("metrics.granularity"):
        metrics.granularity(m)
    with tr.span("classical.variety_invariance_check"):
        classical.variety_invariance_check(m, relation)
    with tr.span("classical.aggregation_invariance_check"):
        classical.aggregation_invariance_check(m, relations)
    with tr.span("io.model_to_json"):
        out = io.model_to_json(m)
    with tr.span("io.to_json_text"):
        io.to_json_text(out)
    return entry, volumes


def chain_op(doc: dict, tr):
    with tr.span("io.model_from_json"):
        links = [io.model_from_json(link) for link in doc["links"]]
    with tr.span("model.compose_chain"):
        composed = model.compose_chain(links)
    with tr.span("metrics.delay"):
        return metrics.delay(composed)


def search_op(doc: dict, tr):
    with tr.span("io.model_from_json"):
        candidates = [io.model_from_json(c) for c in doc["candidates"]]
        target = io.model_from_json(doc["target"])
    setup = classical.SearchSetup(candidates, target, threshold=0)
    with tr.span("classical.search_min_mismatch"):
        result = classical.search_min_mismatch(setup)
    tr.note("classical.search_comparisons", result.comparisons)
    return result


def kalman_op(doc: dict, tr):
    system = _system(doc)
    with tr.span("classical.kalman_filter"):
        steps = classical.kalman_filter(system, doc["z"])
    tr.note("classical.kalman_steps", len(steps))
    return steps


class Workload:
    name = "many_small"
    round_size = len(KINDS)
    tail_ops = 1024

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        rng = random.Random(f"many_small/{self.seed}")
        lines, self.planted = [], []
        for _ in range(INPUT_ROUNDS):
            shapes = list(MODEL_SHAPES)
            rng.shuffle(shapes)
            for kind in KINDS:
                if kind == "model":
                    bundle, planted = gen.small_model_bundle(rng, *shapes.pop())
                elif kind == "chain":
                    bundle, planted = gen.chain_bundle(rng)
                elif kind == "search":
                    bundle, planted = gen.search_bundle(rng)
                else:
                    bundle = gen.kalman_doc(rng)
                    planted = batch_mmse(_system(bundle), np.asarray(bundle["z"]), KALMAN_CHECK_STEP)
                lines.append(json.dumps(bundle))
                self.planted.append(planted)
        self.workdir.mkdir(parents=True, exist_ok=True)
        path = self.workdir / "small.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.texts = path.read_text(encoding="utf-8").splitlines()
        for i in range(len(KINDS)):
            if self.check(i, self.op(i, NULL)) is not None:
                raise RuntimeError(f"warm-up op {i} failed its check")

    def kind(self, i: int) -> str:
        return KINDS[i % len(KINDS)]

    def op(self, i: int, tr):
        k = i % len(self.texts)
        with tr.span("io.read_json"):
            doc = json.loads(self.texts[k])
        kind = KINDS[i % len(KINDS)]
        if kind == "model":
            return model_op(doc, self.planted[k].restore_index, tr)
        if kind == "chain":
            return chain_op(doc, tr)
        if kind == "search":
            return search_op(doc, tr)
        return kalman_op(doc, tr)

    def check(self, i: int, out) -> str | None:
        planted = self.planted[i % len(self.texts)]
        kind = KINDS[i % len(KINDS)]
        if kind == "model":
            entry, (vol, whole_vol) = out
            if entry.key() != planted.preimage_key:
                return "model"
            return None if vol == whole_vol == planted.volume else "metrics"
        if kind == "chain":
            return None if out == planted else "model"
        if kind == "search":
            return None if out.index == planted else "classical"
        x = out[KALMAN_CHECK_STEP - 1].x
        scale = max(1.0, float(np.max(np.abs(planted))))
        return None if float(np.max(np.abs(x - planted))) / scale <= 1e-9 else "classical"
