"""Run one seed twice and fail unless the work repeated exactly.

Compares every ratio and share, and every ``egraph.*``, ``solve.*`` and
``verify.*`` count, plus each job's full work fingerprint (stop reasons,
e-node and iteration counts, rule applications, B&B steps, verifier
methods, trials and BDD nodes, result costs).  Times are not compared.

    python3 perfbench/selfcheck.py --workload ilp_extract --seed 1
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".perfbench_run"

#: Metrics that must repeat exactly: quality and work counts, not times.
EXACT_UNITS = ("share", "ratio", "count")


def _run(workload: str, seed: int, trace: int, tag: str) -> dict:
    dump = OUT / f"selfcheck-{workload}-{seed}-{trace}-{tag}.json"
    subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
            "--dump", str(dump),
        ],
        check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
    )
    return json.loads(dump.read_text())


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(HERE))
    from run import END_TO_END, PER_LAYER

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    units = {**END_TO_END, **PER_LAYER}
    exact = [
        name for name, unit in units.items()
        if unit in EXACT_UNITS and name not in ("host.cpu_share", "trace.wall_ratio")
    ]
    differences = []
    # The traced run reports the counts; the untraced one the ratios.
    for trace in (0, 1):
        first = _run(args.workload, args.seed, trace, "a")
        second = _run(args.workload, args.seed, trace, "b")
        for name in exact:
            a, b = first["metrics"].get(name), second["metrics"].get(name)
            if a != b:
                differences.append(f"trace={trace} {name}: {a} != {b}")
        if first["fingerprint"] != second["fingerprint"]:
            differences.append(f"trace={trace}: job work fingerprints differ")
    for line in differences:
        print(line)
    print(f"selfcheck {args.workload} seed={args.seed}: "
          f"{'FAILED' if differences else 'identical'}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
