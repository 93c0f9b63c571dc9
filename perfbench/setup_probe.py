"""One fresh interpreter getting a batch workload's first job ready.

Imports the program, elaborates every design of the seed's pass (the same
``job_design`` call each job makes) and builds the first job's stage list,
then exits.  ``run.py`` times several of these and reports the median as
``setup_s``.

The host-speed probe (:class:`measure.HostSpeed`) runs in this process from
before the program's import to the end, and the probes are printed as JSON,
so the parent can rescale the start-up to the reference host speed with
probes taken on the core that did the work.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

from __future__ import annotations

import json
import sys

import measure


def main(workload: str, seed: int) -> None:
    import batch
    import gen
    from repro.pipeline import job_design

    jobs = [batch.make_job(workload, d) for d in gen.batch_designs(workload, seed)]
    for job in jobs:
        job_design(job)
    batch.build(jobs[0])


if __name__ == "__main__":
    with measure.HostSpeed() as speed:
        main(sys.argv[1], int(sys.argv[2]))
    print(json.dumps(speed.probes))
