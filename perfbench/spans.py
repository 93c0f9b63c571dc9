"""In-memory span recorder for the traced run.

A span is ``(id, parent, trace, name, start, end, attrs)``; spans of one job
share a ``trace`` id.  Spans are recorded from the benchmark's own code,
around its calls into each layer, plus children rebuilt from the program's
public reports (``IterationStats``, ``ExtractReport``, a service record's
``stage_timings``).  They stay in memory and are written out once, at the
end of the run.

A span's *self time* is its duration minus the part of it its children
cover, so the self times of one job's spans add up to the job's wall time.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

#: Span name of each pipeline stage, by layer (module) name.  Both batch
#: workloads and the service record stage spans under these names.
STAGE_SPAN = {
    "ingest": "rtl.ingest",
    "warm-start": "egraph.load",
    "saturate": "egraph.saturate",
    "save-egraph": "egraph.save",
    "extract": "egraph.extract",
    "verify": "verify.verify",
}


@dataclass
class Span:
    id: int
    parent: int | None
    trace: str
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []

    def add(
        self, name: str, trace: str, parent: Span | None, start: float,
        end: float = 0.0,
    ) -> Span:
        """Record a span whose times the caller measured."""
        span = Span(
            len(self.spans), parent.id if parent is not None else None,
            trace, name, start, end,
        )
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, trace: str, parent: Span | None = None, **attrs):
        """Time the body as one span."""
        span = self.add(name, trace, parent, self.clock())
        span.attrs.update(attrs)
        try:
            yield span
        finally:
            span.end = self.clock()

    def child(
        self, parent: Span, name: str, start: float, duration: float, **attrs
    ) -> Span:
        """A child reconstructed from a report: ``duration`` seconds at
        ``start`` (clamped into the parent, so children never overhang)."""
        start = min(max(start, parent.start), parent.end)
        span = self.add(
            name, parent.trace, parent, start,
            min(start + max(duration, 0.0), parent.end),
        )
        span.attrs.update(attrs)
        return span

    def totals(self) -> dict[str, float]:
        """Seconds per span name, children included."""
        out: dict[str, float] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + span.duration
        return out

    def self_times(self) -> dict[str, float]:
        """Seconds per span name not covered by that span's children."""
        covered: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] = covered.get(span.parent, 0.0) + span.duration
        out: dict[str, float] = {}
        for span in self.spans:
            own = span.duration - covered.get(span.id, 0.0)
            out[span.name] = out.get(span.name, 0.0) + own
        return out

    def write(self, path: Path, extra: dict | None = None) -> None:
        """Write every span (and ``extra`` payload) as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"spans": [asdict(span) for span in self.spans]}
        payload.update(extra or {})
        path.write_text(json.dumps(payload, sort_keys=True))


def stage_seconds(tracer: Tracer, jobs: int) -> dict[str, float]:
    """Per-job seconds of every stage-level layer metric.

    ``egraph.extract_s`` is the extract stage minus the ILP solver inside
    it: the greedy fixpoint (the whole stage on a greedy-only run).
    """
    total = tracer.totals()

    def per_job(name: str) -> float:
        return total.get(name, 0.0) / jobs

    return {
        "rtl.ingest_s": per_job("rtl.ingest"),
        "egraph.saturate_s": per_job("egraph.saturate"),
        "egraph.extract_s": per_job("egraph.extract") - per_job("solve.ilp"),
        "egraph.load_s": per_job("egraph.load"),
        "egraph.save_s": per_job("egraph.save"),
        "solve.ilp_s": per_job("solve.ilp"),
        "verify.verify_s": per_job("verify.verify"),
    }
