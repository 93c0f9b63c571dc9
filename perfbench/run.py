"""The repository's benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload table3_verify --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``table3_verify`` -- every registry design plus seeded variants at
  registry knobs, greedy extraction, ``verify=True``; netlist quality at
  the min-delay point.
* ``ilp_extract`` -- the same designs at ``iter_limit=4`` with the ILP
  objective, the ILP ended by its B&B step quota.
* ``service_resubmit`` -- one closed-loop client against a real
  ``python -m repro serve`` daemon: cold submissions, edited
  resubmissions (warm starts) and exact repeats under the other tenant.

The timed phase runs whole passes (batch) or whole streams (service) until
``--seconds`` have elapsed; result quality and work counts come from the
first pass, so they are fixed by the seed.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs one untraced and one traced pass and
prints the per-layer metrics, writing the spans to
``.perfbench_run/trace-<workload>-<seed>.json``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.

The process re-executes itself with ``PYTHONHASHSEED=0``: the e-graph's
node-limit stops depend on hash order, and a fixed hash seed is what makes
every count and ratio repeat exactly for a given ``--seed``.

Time metrics (``setup_s``, ``jobs_per_s``, ``job_s.*``, ``cpu_s_per_job``)
are given at a fixed reference host speed.  On a shared host the speed of
a core swings by a third over seconds, CPU time with it, and no run length
the time limit allows averages that out.  So :class:`measure.HostSpeed`
runs a fixed pure-Python probe loop every 50 ms through the run and each
job's compute seconds are rescaled by the probe's speed around that job
(see there).  The notes above the result line give every time metric as
measured too, with the host speed factor.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_run"

WORKLOADS = ("table3_verify", "ilp_extract", "service_resubmit")

#: Fresh-interpreter start-ups (or daemon spawns) per run; ``setup_s`` is
#: their median.  Half run before the timed phase and half after it, so the
#: median samples the host at both ends of the run, not in one burst.
SETUP_RUNS = 8

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_s.p50": "s",
    "job_s.tail": "s",
    "cpu_s_per_job": "s",
    "ok_share": "share",
    "peak_rss_mb": "MB",
    "proved_share": "share",
    "dag_delay_ratio": "ratio",
    "dag_area_ratio": "ratio",
    "netlist_delay_ratio": "ratio",
    "netlist_area_ratio": "ratio",
}

PER_LAYER = {
    "rtl.ingest_s": "s",
    "egraph.saturate_s": "s",
    "egraph.search_s": "s",
    "egraph.apply_s": "s",
    "egraph.rebuild_s": "s",
    "egraph.extract_s": "s",
    "egraph.load_s": "s",
    "egraph.save_s": "s",
    "egraph.enodes": "count",
    "egraph.applications": "count",
    "egraph.iterations": "count",
    "egraph.rules_fired": "count",
    "solve.ilp_s": "s",
    "solve.bb_steps": "count",
    "solve.optimal_share": "share",
    "solve.adopted_share": "share",
    "verify.verify_s": "s",
    "verify.bdd_nodes": "count",
    "verify.trials": "count",
    "synth.netlist_s": "s",
    "service.submit_s": "s",
    "service.queue_wait_s.p50": "s",
    "service.poll_s": "s",
    "service.hit_share": "share",
    "service.warm_share": "share",
    "pipeline.overhead_s": "s",
    "host.calib_s": "s",
    "host.cpu_share": "share",
    "trace.wall_ratio": "ratio",
}

#: End-to-end metrics a workload cannot observe.  Every workload must print
#: every end-to-end metric, so these read the neutral 1.0 there (and the
#: run says so): no Verify stage runs on ``ilp_extract`` or the service,
#: and service records carry no optimized trees to lower to a netlist.
NOT_OBSERVED = {
    "ilp_extract": ("proved_share",),
    "service_resubmit": ("proved_share", "netlist_delay_ratio", "netlist_area_ratio"),
}


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--dump", type=Path, default=None,
        help="also write every metric and the run's work fingerprint here",
    )
    return parser.parse_args(argv)


def _setup_env() -> None:
    """Re-execute under a fixed hash seed with the program on the path."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    paths = [str(SRC), str(HERE)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    if os.environ.get("PYTHONHASHSEED") != "0" or os.environ.get("PERFBENCH") != "1":
        env = dict(os.environ, PYTHONHASHSEED="0", PERFBENCH="1",
                   PYTHONPATH=os.pathsep.join(paths))
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], env)
    os.chdir(ROOT)


def _probe_setup(workload: str, seed: int) -> float:
    """Seconds, at the reference host speed, of one fresh interpreter
    getting its first job ready (rescaled by the probes it ran itself)."""
    import measure

    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        check=True, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
    )
    ended = time.perf_counter()
    speed = measure.HostSpeed()
    speed.probes = [tuple(probe) for probe in json.loads(done.stdout)]
    return speed.rescale(started, ended)


def _as_measured(raw: dict, rescaled: dict, factor: float) -> list[str]:
    """Notes giving the timing metrics as the wall clock read them."""
    lines = [f"host speed factor {factor:.4f} over the timed phase "
             "(time metrics are at the reference host speed):"]
    lines += [
        f"  {name:<16} {rescaled[name]:10.4f} rescaled {value:10.4f} as measured"
        for name, value in raw.items()
    ]
    return lines


# ------------------------------------------------------------------- batch
def _run_batch(args) -> dict:
    import batch
    import gen
    import measure
    from spans import Tracer

    jobs = [batch.make_job(args.workload, d) for d in gen.batch_designs(args.workload, args.seed)]
    first: list = []
    timed: list = []  # every timed job of every pass
    failed = attempted = 0
    notes: list[str] = []
    layers: dict = {}
    with measure.HostSpeed() as speed:
        setups = [_probe_setup(args.workload, args.seed)
                  for _ in range(SETUP_RUNS // 2)]
        cpu0, started = measure.cpu_seconds(), time.perf_counter()
        while True:
            outcomes = [batch.run_job(job) for job in jobs]
            timed += outcomes
            attempted += len(outcomes)
            if not first:
                first = outcomes
            else:  # later passes: status and quota checks only
                failed += sum(1 for out in outcomes if out.failures)
            if args.trace or time.perf_counter() - started >= args.seconds:
                break
        ended = time.perf_counter()
        cpu = measure.cpu_seconds() - cpu0
        rss = measure.peak_rss_mb()
        setups += [_probe_setup(args.workload, args.seed)
                   for _ in range(SETUP_RUNS // 2)]
        if args.trace:
            tracer = Tracer()
            traced = [batch.run_job_traced(job, tracer) for job in jobs]

    def rescaled(outcomes) -> list[float]:
        return [speed.rescale(out.start, out.start + out.wall) for out in outcomes]

    if args.trace:
        traced_wall = sum(out.wall for out in traced)
        layers = batch.layer_times(tracer, len(traced))
        layers["trace.wall_ratio"] = sum(rescaled(traced)) / sum(rescaled(first))
        for untraced, out in zip(first, traced, strict=True):
            if untraced.facts != out.facts:
                untraced.failures.append("traced run did different work")
        _write_trace(args, tracer, [out.facts for out in first])
        notes += _self_time_table(tracer, traced_wall)

    batch.check_outputs(first, args.seed)
    failed += sum(1 for out in first if out.failures)
    for out in first:
        for reason in out.failures:
            notes.append(f"FAILED {out.name}: {reason}")
    quality, netlist_s = batch.quality(args.workload, first)

    walls = rescaled(timed)
    factor = speed.factor(started, ended)
    # The probes ran on this process's CPU: take them out before rescaling.
    cpu_job = (cpu - speed.probe_seconds(started, ended)) * factor / len(walls)
    value, pct, n = measure.tail(walls)
    notes.append(f"job_s.tail is p{pct:.1f} of {n} job samples")
    end_to_end = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": len(walls) / sum(walls),
        "job_s.p50": statistics.median(walls),
        "job_s.tail": value,
        "cpu_s_per_job": cpu_job,
        "peak_rss_mb": rss,
        **quality,
    }
    raw = [out.wall for out in timed]
    notes += _as_measured({
        "jobs_per_s": len(raw) / (ended - started),
        "job_s.p50": statistics.median(raw),
        "job_s.tail": measure.tail(raw)[0],
        "cpu_s_per_job": cpu / len(raw),
    }, end_to_end, factor)
    per_layer = {
        **layers,
        **batch.work_counts(first),
        "synth.netlist_s": netlist_s / len(first),
        "host.calib_s": speed.median_probe_s(),
        "host.cpu_share": cpu / (ended - started),
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "fingerprint": [out.facts for out in first],
        "notes": notes,
    }


# ----------------------------------------------------------------- service
def _run_service(args) -> dict:
    import gen
    import measure
    import serve_load
    from repro.pipeline import resolve_design
    from repro.synth import dag_cost
    from spans import Tracer

    stream = gen.service_stream(args.seed)

    def probe_daemons(count: int) -> list[float]:
        setups = []
        for index in range(count):
            with serve_load.Daemon(WORKDIR / f"probe-{index}") as daemon:
                setups.append(daemon_setup(daemon))
        return setups

    def daemon_setup(daemon) -> float:
        return speed.rescale(daemon.started, daemon.ready, probed=False)

    samples: list = []
    first: list = []
    failures: dict = {}
    failed = 0
    wall = daemon_cpu = client_cpu = 0.0
    notes: list[str] = []
    per_layer: dict = {}
    with measure.HostSpeed() as speed:
        # The first stream's daemon is one of the SETUP_RUNS spawns.
        setups = probe_daemons(SETUP_RUNS // 2 - 1)
        phase = [time.perf_counter()]
        while True:
            cpu_children = measure.cpu_seconds(resource.RUSAGE_CHILDREN)
            with serve_load.Daemon(WORKDIR / "daemon") as daemon:
                setups.append(daemon_setup(daemon))
                cpu0, started = measure.cpu_seconds(), time.perf_counter()
                got = serve_load.run_stream(daemon, stream)
                wall += time.perf_counter() - started
                client_cpu += measure.cpu_seconds() - cpu0
            daemon_cpu += measure.cpu_seconds(resource.RUSAGE_CHILDREN) - cpu_children
            samples += got
            round_failures = serve_load.check(got)
            failed += len(round_failures)
            if not first:
                first, failures = got, round_failures
            if args.trace or wall >= args.seconds:
                break
        phase.append(time.perf_counter())
        rss = measure.peak_rss_mb(resource.RUSAGE_CHILDREN)
        setups += probe_daemons(SETUP_RUNS // 2)
        if args.trace:
            tracer = Tracer()
            with serve_load.Daemon(WORKDIR / "daemon") as daemon:
                traced = serve_load.run_stream(daemon, stream, tracer)

    def rescaled(got) -> list[float]:
        return [
            speed.rescale(s.start, s.start + s.wall, s.compute_s, probed=False)
            for s in got
        ]

    if args.trace:
        if serve_load.fingerprint(traced) != serve_load.fingerprint(first):
            failures.setdefault(-1, []).append("traced stream did different work")
            failed += 1
        per_layer = serve_load.layer_times(tracer, traced)
        per_layer["trace.wall_ratio"] = sum(rescaled(traced)) / sum(rescaled(first))
        _write_trace(args, tracer, serve_load.fingerprint(first))
        notes += _self_time_table(tracer, sum(s.wall for s in traced))
    for index, reasons in sorted(failures.items()):
        notes += [f"FAILED submission {index}: {reason}" for reason in reasons]

    dag_delay, dag_area = [], []
    for s in first:
        if s.sub.index in failures:
            continue
        roots, ranges = resolve_design(s.job)
        before = dag_cost(roots[s.record.output], ranges)
        dag_delay.append((s.sub.design.label, s.record.dag_delay / before.delay))
        dag_area.append((s.sub.design.label, s.record.dag_area / before.area))

    walls = rescaled(samples)
    factor = speed.factor(*phase)
    value, pct, n = measure.tail(walls)
    notes.append(f"job_s.tail is p{pct:.1f} of {n} submissions")
    misses = [s for s in first if not s.record.cache_hit]
    end_to_end = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": len(walls) / sum(walls),
        "job_s.p50": statistics.median(walls),
        "job_s.tail": value,
        "cpu_s_per_job": daemon_cpu * factor / len(walls),
        "ok_share": sum(1 for s in first if s.sub.index not in failures) / len(first),
        "peak_rss_mb": rss,
        "dag_delay_ratio": measure.family_geomean(dag_delay),
        "dag_area_ratio": measure.family_geomean(dag_area),
    }
    raw = [s.wall for s in samples]
    notes += _as_measured({
        "jobs_per_s": len(raw) / wall,
        "job_s.p50": statistics.median(raw),
        "job_s.tail": measure.tail(raw)[0],
        "cpu_s_per_job": daemon_cpu / len(raw),
    }, end_to_end, factor)
    per_layer.update({
        "egraph.enodes": sum(s.record.nodes for s in misses),
        "egraph.iterations": sum(s.record.iterations for s in misses),
        "service.hit_share": sum(s.record.cache_hit for s in first) / len(first),
        "service.warm_share": sum(
            s.record.warm_start.startswith("hit:") for s in misses
        ) / len(misses),
        "host.calib_s": speed.median_probe_s(),
        "host.cpu_share": (daemon_cpu + client_cpu) / wall,
    })
    return {
        "attempted": len(samples),
        "failed": failed,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "fingerprint": serve_load.fingerprint(first),
        "notes": notes,
    }


# ---------------------------------------------------------------- reporting
def _self_time_table(tracer, wall: float) -> list[str]:
    """Self time per layer, as a share of the traced jobs' wall time."""
    lines = ["self time per layer (traced pass):"]
    self_times = tracer.self_times()
    for name, seconds in sorted(self_times.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {name:<22} {seconds:9.4f} s {100 * seconds / wall:6.1f}%")
    lines.append(
        f"  {'accounted':<22} {sum(self_times.values()):9.4f} s of {wall:.4f} s job wall"
    )
    return lines


def _write_trace(args, tracer, fingerprint) -> None:
    path = WORKDIR / f"trace-{args.workload}-{args.seed}.json"
    tracer.write(path, {"workload": args.workload, "seed": args.seed,
                        "fingerprint": fingerprint})


def _terminate(signum, _frame) -> None:
    # Unwind through the ``finally`` blocks, which stop the daemon.
    raise SystemExit(128 + signum)


def main(argv: list[str]) -> int:
    args = _parse(argv)
    _setup_env()
    signal.signal(signal.SIGTERM, _terminate)
    result = (_run_service if args.workload == "service_resubmit" else _run_batch)(args)
    for name in NOT_OBSERVED.get(args.workload, ()):
        result["end_to_end"][name] = 1.0
        result["notes"].append(f"{name}: not observed on {args.workload}; reads 1.0")

    result["notes"] += [
        f"{name} {result['per_layer'][name]:.6g} (host drift diagnostic)"
        for name in ("host.calib_s", "host.cpu_share")
    ]
    wanted = PER_LAYER if args.trace else END_TO_END
    source = {**result["end_to_end"], **result["per_layer"]}
    metrics = {
        name: {"value": float(source.get(name, 0.0)), "unit": unit}
        for name, unit in wanted.items()
    }
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for note in result["notes"]:
        print(f"  {note}")
    for name, metric in metrics.items():
        print(f"  {name:<26} {metric['value']:>14.6g} {metric['unit']}")
    if args.dump is not None:
        args.dump.parent.mkdir(parents=True, exist_ok=True)
        args.dump.write_text(json.dumps(
            {"metrics": source, "fingerprint": result["fingerprint"]},
            sort_keys=True, default=str,
        ))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
