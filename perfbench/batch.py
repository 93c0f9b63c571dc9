"""The batch workloads: ``table3_verify`` and ``ilp_extract``.

A pass runs every generated design once, one job after another in this
process.  The untraced path makes the calls ``execute_job`` makes
(``job_design`` -> ``job_stages`` -> ``Pipeline.run`` ->
``record_from_context``) but keeps the context, because the output check
needs the extracted trees and the ILP stage needs its wall window lifted.
The traced path drives the same stage list one stage at a time through
``Pipeline([stage]).run(ctx=ctx)`` and records job -> stage spans, with
children rebuilt from ``IterationStats`` and ``ExtractReport``.

Every limit is a work quota: registry iteration/e-node limits, the ILP's
B&B step quota, the verifier's BDD-node and trial counts.  A job whose
record shows a stop on a wall clock counts as failed
(:func:`outcheck.record_failures`, shared with the service).
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field

import gen
import measure
import outcheck
from repro.pipeline import (
    Job,
    Pipeline,
    PipelineContext,
    job_design,
    job_stages,
    record_from_context,
)
from repro.solve.extract_opt import OptimalExtract
from repro.synth import dag_cost, min_delay_point
from spans import STAGE_SPAN, stage_seconds

WORKLOADS = ("table3_verify", "ilp_extract")

#: ``ilp_extract`` saturates this many iterations before the ILP.
ILP_ITERS = 4

#: The ILP stage's own per-cone B&B step quota (its default).
ILP_MAX_STEPS = OptimalExtract().max_steps

PROVED = ("exhaustive", "bdd")


def make_job(workload: str, design: gen.Design) -> Job:
    """The job the program receives: generated source, label, knobs."""
    if workload == "table3_verify":
        return Job(
            name=design.name, design=design.label, source=design.source,
            iter_limit=design.iter_limit, node_limit=design.node_limit,
            verify=True,
        )
    return Job(
        name=design.name, design=design.label, source=design.source,
        iter_limit=ILP_ITERS, node_limit=design.node_limit,
        extract_objective="ilp",
    )


def build(job: Job):
    """``(design, stages)`` with the ILP's wall window lifted, so its step
    quota, not a clock, ends every search."""
    design = job_design(job)
    stages = [
        OptimalExtract(time_limit=math.inf) if isinstance(s, OptimalExtract) else s
        for s in job_stages(job, design)
    ]
    return design, stages


@dataclass
class Outcome:
    """What one job produced, reduced to what the checks and metrics need
    (the e-graph itself is dropped as soon as the job ends)."""

    name: str
    #: Registry design family (seeded variants belong to their design's).
    family: str
    #: ``time.perf_counter`` at the job's start, and its wall seconds.
    start: float
    wall: float
    output: str = ""
    roots: dict = field(default_factory=dict)
    extracted: dict = field(default_factory=dict)
    ranges: dict = field(default_factory=dict)
    record: object = None
    #: Deterministic facts: work counts and result costs (the fingerprint).
    facts: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)


def _ilp_cones(block: dict | None) -> list[tuple[str, str, int, bool]]:
    """``(cone, status, steps, adopted)`` for every cone the ILP solved,
    from the stage's ``extract_ilp`` artifact."""
    if not block:
        return []
    cones = []
    for label, info in sorted(block["detail"].items()):
        if "steps" not in info:
            continue  # a quota/infeasible fallback: greedy result kept
        status = block["roots"].get(label.split("+")[0], "")
        cones.append((label, status, info["steps"], bool(info["adopted"])))
    return cones


def ilp_clock_cuts(block: dict | None, max_steps: int = ILP_MAX_STEPS) -> list[str]:
    """ILP searches a clock ended instead of the step quota.

    An adopted ``incumbent`` cone below its quota was cut by the clock.  An
    unadopted one is not flagged: the stage also turns a proved ``optimal``
    into ``incumbent`` when the rebuilt tree does not win, and the two read
    alike (with the window lifted, only the latter can happen).  An
    ``incumbent`` root that no cone covers was skipped on a deadline.
    """
    if not block:
        return []
    cuts = [
        f"ILP search on {label} cut by the clock"
        for label, status, steps, adopted in _ilp_cones(block)
        if status == "incumbent" and steps < max_steps and adopted
    ]
    solved = {name for label in block["detail"] for name in label.split("+")}
    cuts += [
        f"ILP skipped {name} on a deadline"
        for name, status in sorted(block["roots"].items())
        if status == "incumbent" and name not in solved
    ]
    return cuts


def _outcome(
    job: Job, design, ctx, record, start: float, wall: float, error: str | None,
) -> Outcome:
    out = Outcome(job.name, job.design, start, wall)
    if error is not None:
        out.failures.append(error)
        return out
    out.output = design.output
    out.roots = dict(ctx.roots)
    out.extracted = dict(ctx.extracted)
    out.ranges = dict(ctx.input_ranges)
    out.record = record
    iterations = [it for report in ctx.reports for it in report.iterations]
    verdicts = {
        name: [v.method, v.trials, v.bdd_nodes, v.equivalent]
        for name, v in sorted(ctx.equivalence.items())
    }
    block = ctx.artifacts.get("extract_ilp")
    out.facts = {
        "stop": record.stop_reason,
        "nodes": record.nodes,
        "iterations": len(iterations),
        "applications": sum(sum(it.applied.values()) for it in iterations),
        "rules_fired": len({r for it in iterations for r, n in it.applied.items() if n}),
        "extract": [(r.status, r.steps) for r in ctx.extract_reports],
        "verify": verdicts,
        "verify_method": record.verify_method,
        "ilp": _ilp_cones(block),
        "dag": [record.dag_delay, record.dag_area],
    }
    # No result may be decided by a wall clock.
    out.failures += outcheck.record_failures(
        record, [v.method for v in ctx.equivalence.values()]
    )
    out.failures += ilp_clock_cuts(block)
    return out


def run_job(job: Job) -> Outcome:
    """One untraced job, timed from job description to record."""
    started = time.perf_counter()
    ctx = PipelineContext()
    design = record = error = None
    try:
        design, stages = build(job)
        ctx.input_ranges = dict(design.input_ranges)
        Pipeline(stages).run(ctx=ctx)
        record = record_from_context(job.name, job.design, design.output, ctx)
    except Exception as err:  # a failed job is counted, not fatal
        error = f"{type(err).__name__}: {err}"
    return _outcome(
        job, design, ctx, record, started, time.perf_counter() - started, error
    )


def _report_children(tracer, span, reports, extracts) -> None:
    """Children of a stage span, rebuilt from the program's reports."""
    at = span.start
    for report in reports:
        for it in report.iterations:
            tracer.child(span, "egraph.search", at, it.search_time, iteration=it.index)
            at += it.search_time
            tracer.child(
                span, "egraph.apply", at, it.apply_time,
                iteration=it.index, applied=dict(it.applied),
            )
            at += it.apply_time
            tracer.child(span, "egraph.rebuild", at, it.rebuild_time, iteration=it.index)
            at += it.rebuild_time
    for report in extracts:
        name = "solve.ilp" if report.status.startswith("ilp:") else "egraph.greedy"
        tracer.child(
            span, name, at, report.total_time, status=report.status, steps=report.steps,
        )
        at += report.total_time


def run_job_traced(job: Job, tracer) -> Outcome:
    """One job driven stage by stage, recording job -> stage spans."""
    ctx = PipelineContext()
    design = record = error = None
    with tracer.span("job", job.name) as root:
        try:
            with tracer.span("rtl.ingest", job.name, root):
                design, stages = build(job)
            ctx.input_ranges = dict(design.input_ranges)
            for stage in stages:
                seen = len(ctx.reports), len(ctx.extract_reports)
                with tracer.span(STAGE_SPAN.get(stage.name, stage.name), job.name, root) as span:
                    Pipeline([stage]).run(ctx=ctx)
                _report_children(
                    tracer, span, ctx.reports[seen[0]:], ctx.extract_reports[seen[1]:]
                )
            record = record_from_context(job.name, job.design, design.output, ctx)
        except Exception as err:  # a failed job is counted, not fatal
            error = f"{type(err).__name__}: {err}"
    return _outcome(job, design, ctx, record, root.start, root.duration, error)


# ------------------------------------------------------------------ checks
def check_outputs(outcomes: list[Outcome], seed: int) -> None:
    """Engine-independent output check; appends failures in place."""
    for out in outcomes:
        if out.record is None:
            continue
        rng = random.Random(f"{seed}:{out.name}")
        out.failures += outcheck.mismatches(out.roots, out.extracted, out.ranges, rng)


def quality(workload: str, outcomes: list[Outcome]) -> tuple[dict, float]:
    """Result-quality metrics over one pass, plus seconds spent lowering
    netlists (the measuring instrument, outside the timed region)."""
    ok = [out for out in outcomes if not out.failures]
    # (family, ratio) pairs: each design family weighs the same.
    dag_delay, dag_area, net_delay, net_area = [], [], [], []
    netlist_s = 0.0
    for out in ok:
        root, optimized = out.roots[out.output], out.extracted[out.output]
        before = dag_cost(root, out.ranges)
        dag_delay.append((out.family, out.record.dag_delay / before.delay))
        dag_area.append((out.family, out.record.dag_area / before.area))
        started = time.perf_counter()
        b = min_delay_point(root, out.ranges)
        o = min_delay_point(optimized, out.ranges)
        netlist_s += time.perf_counter() - started
        out.facts["netlist"] = [b.delay, b.area, o.delay, o.area]
        net_delay.append((out.family, o.delay / b.delay))
        net_area.append((out.family, o.area / b.area))
    metrics = {
        "ok_share": len(ok) / len(outcomes),
        "dag_delay_ratio": measure.family_geomean(dag_delay),
        "dag_area_ratio": measure.family_geomean(dag_area),
        "netlist_delay_ratio": measure.family_geomean(net_delay),
        "netlist_area_ratio": measure.family_geomean(net_area),
    }
    if workload == "table3_verify":
        verified = [out for out in ok if out.record.verify_method]
        proved = [out for out in verified if out.record.verify_method in PROVED]
        metrics["proved_share"] = len(proved) / len(verified)
    return metrics, netlist_s


def work_counts(outcomes: list[Outcome]) -> dict:
    """Exact per-pass work counts (identical on every run of a seed)."""
    facts = [out.facts for out in outcomes if out.facts]
    cones = [cone for f in facts for cone in f["ilp"]]
    verdicts = [v for f in facts for v in f["verify"].values()]
    return {
        "egraph.enodes": sum(f["nodes"] for f in facts),
        "egraph.applications": sum(f["applications"] for f in facts),
        "egraph.iterations": sum(f["iterations"] for f in facts),
        "egraph.rules_fired": sum(f["rules_fired"] for f in facts),
        "solve.bb_steps": sum(steps for _, _, steps, _ in cones),
        "solve.optimal_share": (
            sum(status == "optimal" for _, status, _, _ in cones) / len(cones)
            if cones else 0.0
        ),
        "solve.adopted_share": (
            sum(adopted for *_, adopted in cones) / len(cones) if cones else 0.0
        ),
        "verify.bdd_nodes": sum(v[2] for v in verdicts),
        "verify.trials": sum(v[1] for v in verdicts),
    }


def layer_times(tracer, jobs: int) -> dict:
    """Per-job seconds per layer from the traced pass's spans."""
    total = tracer.totals()

    def per_job(name: str, table=total) -> float:
        return table.get(name, 0.0) / jobs

    return {
        **stage_seconds(tracer, jobs),
        "egraph.search_s": per_job("egraph.search"),
        "egraph.apply_s": per_job("egraph.apply"),
        "egraph.rebuild_s": per_job("egraph.rebuild"),
        "pipeline.overhead_s": per_job("job", tracer.self_times()),
    }
