"""Workload `report_large`: the pipeline behind `oitkit validate/restore/
metrics`, in process, on one large model per op.

One op parses a model file's text and runs `model_from_json`, `validate`,
`is_restorable`, `restore` of one index, `metric_report` (with relation,
edges and target) and `to_json_text`. The ops rotate over distinct seeded
models, and every op parses its text afresh, so no op reuses an instance.
Validation cost grows with the occurrence intervals per entry and with how
often a model is re-validated, which is what this workload exposes; import
cost falls in set-up.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import gen
from oitkit import TimeSet, io, metrics, model
from spans import NULL

N_STATES = 200
MODELS = 8


def pipeline(doc: dict, restore_index: int, tr):
    """The op's calls after parsing, each in its layer's span."""
    with tr.span("io.model_from_json"):
        m = io.model_from_json(doc["model"])
        target = io.model_from_json(doc["target"])
    relation = metrics.EquivalenceRelation(doc["relation"]["labels"])
    relations = metrics.RelationSet(doc["edges"]["edges"])
    with tr.span("model.validate"):
        report = model.validate(m)
    with tr.span("model.is_restorable"):
        restorable = model.is_restorable(m)
    with tr.span("model.restore"):
        entry = model.restore(m, restore_index)
    with tr.span("metrics.metric_report"):
        metric_doc = metrics.metric_report(m, relation=relation, relations=relations, target=target)
    with tr.span("io.to_json_text"):
        text = io.to_json_text(metric_doc)
    return m, target, relation, relations, report, restorable, entry, metric_doc, text


class Workload:
    name = "report_large"
    round_size = 1
    tail_ops = 40

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        rng = random.Random(f"report_large/{self.seed}")
        self.workdir.mkdir(parents=True, exist_ok=True)
        paths, self.planted = [], []
        for k in range(MODELS):
            bundle, planted = gen.report_bundle(rng, N_STATES)
            path = self.workdir / f"large-{k}.json"
            path.write_text(json.dumps(bundle), encoding="utf-8")
            paths.append(path)
            self.planted.append(planted)
        self.texts = [p.read_text(encoding="utf-8") for p in paths]
        if self.check(0, self.op(0, NULL)) is not None:
            raise RuntimeError("warm-up op failed its check")

    def kind(self, i: int) -> str:
        return "report"

    def op(self, i: int, tr):
        k = i % MODELS
        with tr.span("io.read_json"):
            doc = json.loads(self.texts[k])
        return pipeline(doc, self.planted[k].restore_index, tr)

    def check(self, i: int, out) -> str | None:
        planted = self.planted[i % MODELS]
        _, _, _, _, report, restorable, entry, metric_doc, _ = out
        if not report.ok or restorable is not True:
            return "model"
        if entry.key() != planted.preimage_key:
            return "model"
        if metric_doc["volume"].get("value") != planted.volume:
            return "metrics"
        if metric_doc["delay"].get("value") != planted.delay:
            return "metrics"
        return None

    def probe(self, i: int, out, tr) -> None:
        """Traced-run extras after an op: the timeset layer on its own, each
        metric on its own, model serialisation, and the op's byte counts."""
        m, target, relation, relations, _, _, _, _, text = out
        doc = json.loads(self.texts[i % MODELS])["model"]
        tr.note("io.input_bytes", len(self.texts[i % MODELS].encode("utf-8")))
        tr.note("io.report_bytes", len(text.encode("utf-8")))
        interval_lists = [e["time"]["intervals"] for e in doc["states"] + doc["reflections"]]
        interval_lists += [doc["occurrence"]["intervals"], doc["reflection"]["intervals"]]
        with tr.span("timeset.construct"):
            for intervals in interval_lists:
                TimeSet(intervals=intervals)
        with tr.span("timeset.issubset"):
            for e in m.states:
                e.time.issubset(m.occurrence)
            for e in m.reflections:
                e.time.issubset(m.reflection_time)
        first = m.mapping[0][0]
        restored, truth = m.states[first].value, target.states[first].value
        for name, call in (
            ("volume", lambda: metrics.volume(m)),
            ("delay", lambda: metrics.delay(m)),
            ("scope", lambda: metrics.scope(m)),
            ("granularity", lambda: metrics.granularity(m)),
            ("variety", lambda: metrics.variety(m, relation)),
            ("duration", lambda: metrics.duration(m)),
            ("sampling_rate", lambda: metrics.sampling_rate(m)),
            ("aggregation", lambda: metrics.aggregation(m, relations)),
            ("coverage", lambda: metrics.coverage(m)),
            ("distortion", lambda: metrics.distortion(restored, truth)),
            ("mismatch", lambda: metrics.mismatch(m, target)),
        ):
            with tr.span(f"metrics.{name}"):
                call()
        with tr.span("io.model_to_json"):
            io.model_to_json(m)

