"""The ``service_resubmit`` workload: one closed-loop client against a real
``python -m repro serve`` daemon.

Each stream runs on a freshly spawned daemon with two tenants and a fresh
cache directory, submits the seeded stream from :func:`gen.service_stream`
one request at a time (submit, then ``wait_for_result`` with its default
poll, as the CLI's ``submit --wait`` does), and shuts the daemon down
gracefully.  The daemon runs without a wall budget, so every job stops on
its registry quotas.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import gen
import outcheck
from repro.pipeline import Job, RunRecord
from repro.service import job_to_dict, request, wait_for_result
from spans import STAGE_SPAN, stage_seconds

#: Result fields a cache hit must replay exactly from the run it repeats.
REPLAYED = (
    "output", "stop_reason", "nodes", "iterations", "optimized_delay",
    "optimized_area", "dag_delay", "dag_area",
)


@dataclass
class Sample:
    sub: gen.Submission
    job: Job
    #: ``time.perf_counter`` at submission, and wall seconds from there
    #: until the record was received.
    start: float
    wall: float
    #: The submit round trip (the daemon computes the cache key in it).
    submit_s: float
    record: RunRecord

    @property
    def compute_s(self) -> float:
        """Seconds the daemon computed for this submission: the submit
        round trip and, on a miss, the job's run (a hit's record replays
        the run it repeats).  The rest of the wall is waiting: the queue
        and the client's result poll."""
        return self.submit_s + (0.0 if self.record.cache_hit else self.record.runtime_s)


def job_for(sub: gen.Submission) -> Job:
    design = sub.design
    return Job(
        name=f"{sub.index}-{design.name}", design=design.label,
        source=design.source, iter_limit=design.iter_limit,
        node_limit=design.node_limit, verify=False,
    )


class Daemon:
    """A ``repro serve`` child process on a fresh cache under ``workdir``."""

    def __init__(self, workdir: Path) -> None:
        if workdir.exists():
            shutil.rmtree(workdir)
        workdir.mkdir(parents=True)
        self.workdir = workdir
        # Relative to the working directory: AF_UNIX paths are length-capped.
        self.sock = os.path.relpath(workdir / "d.sock")
        self.started = started = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", self.sock,
                "--tenants", ",".join(gen.TENANTS),
                "--cache-file", str(workdir / "cache.json"),
            ],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            self._await_ping(started + 60.0)
        except BaseException:
            self.kill()
            raise
        #: Spawn to first answered ``ping``: ``[started, ready]``.
        self.ready = time.perf_counter()

    def _await_ping(self, deadline: float) -> None:
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode}")
            try:
                if request(self.sock, {"op": "ping"}, timeout=5.0).get("ok"):
                    return
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise TimeoutError("daemon did not answer ping")
            time.sleep(0.002)

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Graceful shutdown after a clean run; kill after an error.
        Either way the process has ended when this returns."""
        try:
            if exc_type is None:
                request(self.sock, {"op": "shutdown"}, timeout=120.0)
                self.proc.wait(timeout=120.0)
        finally:
            self.kill()
            shutil.rmtree(self.workdir, ignore_errors=True)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def run_stream(daemon: Daemon, stream: list[gen.Submission], tracer=None) -> list[Sample]:
    """Submit the stream closed-loop; one sample per submission."""
    samples = []
    for sub in stream:
        job = job_for(sub)
        started = time.perf_counter()
        reply = request(
            daemon.sock, {"op": "submit", "tenant": sub.tenant, "job": job_to_dict(job)}
        )
        if not reply.get("ok"):
            raise RuntimeError(f"submit refused: {reply}")
        submitted = time.perf_counter()
        record = wait_for_result(daemon.sock, reply["ticket"], timeout=150.0)
        done = time.perf_counter()
        samples.append(
            Sample(sub, job, started, done - started, submitted - started, record)
        )
        if tracer is not None:
            _trace_sample(tracer, samples[-1], started, submitted, done)
    return samples


def _trace_sample(tracer, sample: Sample, started, submitted, done) -> None:
    """Spans for one submission: submit and wait, with the wait's children
    taken from the record (queue wait, then the stages a miss ran)."""
    name = sample.job.name
    root = tracer.add("job", name, None, started, done)
    tracer.add("service.submit", name, root, started, submitted)
    wait = tracer.add("service.poll", name, root, submitted, done)
    record = sample.record
    at = tracer.child(wait, "service.queue", submitted, record.queue_wait_s).end
    if not record.cache_hit:
        for stage, seconds in record.stage_timings.items():
            at = tracer.child(wait, STAGE_SPAN.get(stage, stage), at, seconds).end


def layer_times(tracer, traced: list[Sample]) -> dict:
    """Per-submission seconds per layer from the traced stream."""
    total, n = tracer.totals(), len(traced)
    return {
        **stage_seconds(tracer, n),
        "service.submit_s": total.get("service.submit", 0.0) / n,
        "service.queue_wait_s.p50": statistics.median(
            s.record.queue_wait_s for s in traced
        ),
        # The wait span's self time: what polling adds beyond queue and work.
        "service.poll_s": tracer.self_times().get("service.poll", 0.0) / n,
    }


def check(samples: list[Sample]) -> dict[int, list[str]]:
    """Failures per submission index (a record that is not what the stream
    asked for counts as a wrong output)."""
    by_index = {s.sub.index: s for s in samples}
    failures: dict[int, list[str]] = {}
    for s in samples:
        record = s.record
        problems = outcheck.record_failures(record)
        if record.dag_delay <= 0 or record.dag_area <= 0:
            problems.append("record has no DAG cost")
        if s.sub.kind == "repeat":
            original = by_index[s.sub.repeats].record
            if s.sub.repeats in failures:
                problems.append("repeats a failed submission")
            if not record.cache_hit:
                problems.append("repeat was not served from the cache")
            for key in REPLAYED:
                if getattr(record, key) != getattr(original, key):
                    problems.append(f"repeat changed {key}")
        elif record.cache_hit:
            problems.append(f"{s.sub.kind} submission was served from the cache")
        if problems:
            failures[s.sub.index] = problems
    return failures


def fingerprint(samples: list[Sample]) -> list:
    return [
        [
            s.sub.kind, s.record.cache_hit, s.record.warm_start,
            *(getattr(s.record, key) for key in REPLAYED),
        ]
        for s in samples
    ]
