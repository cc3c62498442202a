"""In-memory spans around the benchmark's calls into each layer.

A span records its name, start, end, parent span and op id. Spans are kept
in a list and written out once, when the run ends. Untraced runs use
`NULL`, whose spans cost one attribute lookup and record nothing.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import nullcontext
from pathlib import Path


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", index: int):
        self.tracer = tracer
        self.index = index

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        tr = self.tracer
        rec = tr.spans[self.index]
        rec[2] = time.perf_counter()
        if exc is not None and exc is not tr.last_exc:
            # charge the failure to the innermost span it left, not its parents
            rec[5] = True
            tr.last_exc = exc
        tr.stack.pop()
        return False


class Tracer:
    """Records spans; each record is [name, start, end, parent, op, failed]."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.phase = ""
        self.notes: dict[str, list[float]] = {}
        self.last_exc: BaseException | None = None

    def begin_op(self, op: int, phase: str) -> None:
        self.op = op
        self.phase = phase

    def span(self, name: str) -> _Span:
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, (self.phase, self.op), False])
        self.stack.append(index)
        return _Span(self, index)

    def note(self, name: str, value: float) -> None:
        """Record a value measured at a layer boundary (one per call), such
        as a count of work done or a time the layer reports itself."""
        self.notes.setdefault(name, []).append(value)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [rec[2] - rec[1] for rec in self.spans]
        for rec in self.spans:
            if rec[3] >= 0:
                own[rec[3]] -= rec[2] - rec[1]
        return own

    def per_op_ms(self, phase: str) -> dict[str, list[float]]:
        """Per span name, the total time (ms) it took within each op of `phase`."""
        totals: dict[str, dict[int, float]] = {}
        for name, start, end, _, (ph, op), _ in self.spans:
            if ph == phase:
                per = totals.setdefault(name, {})
                per[op] = per.get(op, 0.0) + (end - start) * 1000
        return {name: list(per.values()) for name, per in totals.items()}

    def failed_by_layer(self) -> dict[str, int]:
        """Spans left by an exception, per layer (the name's first part)."""
        out: dict[str, int] = {}
        for rec in self.spans:
            layer = rec[0].split(".")[0]
            out[layer] = out.get(layer, 0) + int(rec[5])
        return out

    def self_time_summary(self) -> dict[str, dict]:
        own = self.self_times()
        by_name: dict[str, list[float]] = {}
        for rec, t in zip(self.spans, own):
            by_name.setdefault(rec[0], []).append(t * 1000)
        return {
            name: {"calls": len(v), "self_ms_median": statistics.median(v), "self_ms_total": sum(v)}
            for name, v in sorted(by_name.items())
        }

    def write(self, path: Path, extra: dict) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        doc = {
            "spans": [
                {
                    "name": name,
                    "start_ms": (start - origin) * 1000,
                    "end_ms": (end - origin) * 1000,
                    "parent": parent,
                    "phase": phase,
                    "op": op,
                    "failed": failed,
                }
                for name, start, end, parent, (phase, op), failed in self.spans
            ],
            "self_time": self.self_time_summary(),
            "notes": self.notes,
            **extra,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc), encoding="utf-8")


class _NullTracer:
    enabled = False
    _ctx = nullcontext()

    def begin_op(self, op: int, phase: str) -> None:
        pass

    def span(self, name: str):
        return self._ctx

    def note(self, name: str, value: float) -> None:
        pass


NULL = _NullTracer()
