"""The benchmark's own tests: generator determinism, the tail rule, metric
names, family-weighted quality ratios, the wall-clock stop rules, the
host-speed rescaling, and that a wrong optimized output is counted against
``ok_share``.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

import batch
import gen
import measure
import outcheck
import run
import serve_load
from spans import Tracer


def test_generator_is_deterministic_per_seed():
    for workload in gen.LANES:
        assert gen.batch_designs(workload, 7) == gen.batch_designs(workload, 7)
        assert gen.batch_designs(workload, 7) != gen.batch_designs(workload, 8)
    assert gen.service_stream(7) == gen.service_stream(7)
    assert gen.service_stream(7) != gen.service_stream(8)


def test_pass_and_stream_shapes():
    for workload, lanes in gen.LANES.items():
        designs = gen.batch_designs(workload, 3)
        assert len(designs) == len(gen.REGISTRY) + lanes
        assert {d.name for d in designs} >= set(gen.REGISTRY)
    stream = gen.service_stream(3)
    for sub in stream:
        if sub.kind == "repeat":
            original = stream[sub.repeats]
            assert original.index < sub.index
            assert original.design == sub.design
            assert original.tenant != sub.tenant
    kinds = [sub.kind for sub in stream]
    assert kinds.count("repeat") > len(stream) / 2


def test_edits_expose_distinct_wire_roles():
    for sub in gen.service_stream(5):
        if sub.kind == "edit":
            name = sub.design.name.split("+")[1]
            assert f"assign tap_{name} = {name};" in sub.design.source
            assert f"tap_{name}" in sub.design.source.split(");")[0]


@pytest.mark.parametrize(
    ("n", "value", "pct"),
    [(11, 1.0, 100 / 11), (20, 10.0, 50.0), (30, 20.0, 100 * 20 / 30), (54, 44.0, 100 * 44 / 54)],
)
def test_tail_has_ten_samples_beyond(n, value, pct):
    samples = [float(i) for i in range(n, 0, -1)]  # 1..n, unsorted
    got, got_pct, got_n = measure.tail(samples)
    assert (got, got_n) == (value, n)
    assert got_pct == pytest.approx(pct)
    assert sum(s > got for s in samples) == measure.TAIL_BEYOND


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        measure.tail([1.0] * measure.TAIL_BEYOND)


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    for table in (run.END_TO_END, run.PER_LAYER):
        for name in table:
            assert measure.METRIC_NAME.fullmatch(name), name
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_self_times_account_for_the_wall():
    ticks = iter([0.0, 1.0, 4.0, 5.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("job", "j") as root:
        with tracer.span("stage", "j", root) as stage:
            pass
    tracer.child(stage, "part", 1.0, 2.5)
    overhang = tracer.child(stage, "overhang", 3.5, 9.0)
    assert overhang.end == stage.end  # clamped into its parent
    self_times = tracer.self_times()
    assert sum(self_times.values()) == pytest.approx(root.duration)
    assert self_times == {"job": 2.0, "stage": 0.0, "part": 2.5, "overhang": 0.5}


def _lzc_outcome() -> batch.Outcome:
    design = next(d for d in gen.batch_designs("table3_verify", 1) if d.name == "lzc_example")
    out = batch.run_job(batch.make_job("table3_verify", design))
    assert not out.failures
    return out


def test_wrong_output_counts_against_ok_share():
    good, bad = _lzc_outcome(), _lzc_outcome()
    bad.extracted[bad.output] = bad.extracted[bad.output] + 1
    batch.check_outputs([good, bad], seed=1)
    assert not good.failures
    assert bad.failures
    quality, _ = batch.quality("table3_verify", [good, bad])
    assert quality["ok_share"] == 0.5


def test_repeat_with_changed_result_is_a_failure():
    stream = [s for s in gen.service_stream(1) if s.design.label == "lzc_example"]
    cold = stream[0]
    repeat = next(s for s in stream if s.kind == "repeat" and s.repeats == cold.index)

    def sample(sub, **fields):
        from repro.pipeline import RunRecord

        record = RunRecord(job="j", design="lzc_example", output="out",
                           dag_delay=1.0, dag_area=2.0, **fields)
        return serve_load.Sample(sub, serve_load.job_for(sub), 0.0, 0.1, 0.01, record)

    ok = [sample(cold), sample(repeat, cache_hit=True)]
    assert serve_load.check(ok) == {}
    changed = [sample(cold), sample(repeat, cache_hit=True, nodes=5)]
    assert serve_load.check(changed) == {repeat.index: ["repeat changed nodes"]}


def test_quality_ratios_weigh_each_family_once():
    lanes = [("stress_wide", 0.5)] * 18
    table = [("fp_sub", 1.0), ("interpolation", 1.0), ("stress_wide", 0.5)]
    assert measure.family_geomean(lanes + table) == pytest.approx(0.5 ** (1 / 3))
    # A change confined to one of six families moves the mean by its sixth root.
    six = [(f"d{i}", 1.0) for i in range(6)]
    worse = [("d0", 1.6)] + six[1:]
    assert measure.family_geomean(worse) == pytest.approx(1.6 ** (1 / 6))


def _ilp_block(status: str, steps: int, adopted: bool) -> dict:
    return {
        "roots": {"out": status, "tap": "incumbent"},
        "detail": {"out+tap": {"steps": steps, "adopted": adopted}},
    }


def test_ilp_clock_cut_rule():
    quota = batch.ILP_MAX_STEPS
    assert batch.ilp_clock_cuts(_ilp_block("optimal", 10, True)) == []
    assert batch.ilp_clock_cuts(_ilp_block("incumbent", quota + 1, True)) == []
    # A proved optimum the rebuilt tree did not beat reads "incumbent".
    assert batch.ilp_clock_cuts(_ilp_block("incumbent", 10, False)) == []
    assert batch.ilp_clock_cuts(_ilp_block("incumbent", 10, True)) == [
        "ILP search on out+tap cut by the clock"
    ]
    skipped = {"roots": {"out": "incumbent"}, "detail": {}}
    assert batch.ilp_clock_cuts(skipped) == ["ILP skipped out on a deadline"]
    fallback = {"roots": {"out": "fallback:quota"}, "detail": {"out": {"reason": "quota"}}}
    assert batch.ilp_clock_cuts(fallback) == []


def test_wall_clock_stops_are_failures():
    from repro.pipeline import RunRecord

    def record(**fields):
        return RunRecord(job="j", design="d", output="out", **fields)

    assert outcheck.record_failures(
        record(stop_reason="iteration limit", extract_status="complete,ilp:optimal")
    ) == []
    assert outcheck.record_failures(record(stop_reason="saturated,time limit")) == [
        "saturation stopped on its time limit"
    ]
    assert outcheck.record_failures(record(extract_status="deadline")) == [
        "extraction stopped on a deadline"
    ]
    assert outcheck.record_failures(record(verify_method="timeout")) == [
        "verification timed out"
    ]
    assert outcheck.record_failures(record(), ["bdd", "timeout"]) == [
        "verification timed out"
    ]


def _speed(probe_s: float, start: float = 0.0, end: float = 10.0) -> measure.HostSpeed:
    """A sampler whose probes all took ``probe_s``, one every period."""
    speed = measure.HostSpeed()
    at = start
    while at < end:
        speed.probes.append((at, at + probe_s))
        at += speed.period
    return speed


def test_rescale_removes_host_speed():
    ref = measure.REFERENCE_PROBE_S
    # On a host half as fast the probes take twice as long: 2 s of compute
    # is 1 s at the reference speed, once the probes' own time is removed.
    slow = _speed(2 * ref)
    probes = slow.probe_seconds(3.0, 5.0)
    assert probes == pytest.approx(2.0 / slow.period * 2 * ref)
    assert slow.factor(3.0, 5.0) == pytest.approx(0.5)
    assert slow.rescale(3.0, 5.0) == pytest.approx((2.0 - probes) * 0.5)
    # Work in a child process ran beside the probes: nothing is removed.
    assert slow.rescale(3.0, 5.0, probed=False) == pytest.approx(1.0)
    # Only the compute part is rescaled; a poll's sleep is not.
    assert slow.rescale(3.0, 5.0, 1.0, probed=False) == pytest.approx(1.0 + 0.5)


def test_rescale_trims_outlying_probes():
    ref = measure.REFERENCE_PROBE_S
    speed = _speed(ref)
    speed.probes[50] = (speed.probes[50][0], speed.probes[50][0] + 40 * ref)
    assert speed.factor(2.0, 8.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        measure.HostSpeed().factor(0.0, 1.0)


def test_sampler_probes_during_work():
    with measure.HostSpeed() as speed:
        started = time.perf_counter()
        while time.perf_counter() - started < 0.3:
            pass
    assert len(speed.probes) >= 3
    assert speed.rescale(started, started + 0.3) > 0
