"""Output checks: the engine-independent evaluation, and the rule that no
result may be decided by a wall clock.

Evaluates the behavioural and the optimized root of every output on seeded
input vectors drawn inside the design's input ranges, with the IR's concrete
semantics (``repro.ir.evaluate``) only — no e-graph, no ``Verify`` stage, no
BDD.  Inside the ranges every ``ASSUME`` holds, so both sides must produce
the same integer.
"""

from __future__ import annotations

import random

from repro.egraph.runner import StopReason
from repro.ir.evaluate import BOT, evaluate, input_variables

#: Vectors evaluated per output.
VECTORS = 64


def record_failures(record, verify_methods=None) -> list[str]:
    """Why a job's ``RunRecord`` fails: a status other than ``ok``, or a
    stop on a wall clock (saturation ``time limit``, extraction
    ``deadline``, verification ``timeout``).

    ``verify_methods`` is every output's verdict method when the caller has
    them; by default only the record's primary output is checked.
    """
    problems = []
    if record.status != "ok":
        problems.append(f"status {record.status}: {record.error}")
    if StopReason.TIME_LIMIT.value in record.stop_reason.split(","):
        problems.append("saturation stopped on its time limit")
    if "deadline" in record.extract_status.split(","):
        problems.append("extraction stopped on a deadline")
    if verify_methods is None:
        verify_methods = [record.verify_method]
    if "timeout" in verify_methods:
        problems.append("verification timed out")
    return problems


def _domain(width: int, iset) -> list[tuple[int, int]]:
    """``(lo, hi)`` pieces of a variable's domain: its width clipped by its
    input range, when it has one."""
    top = (1 << width) - 1
    if iset is None:
        return [(0, top)]
    pieces = [(max(p.lo, 0), min(p.hi, top)) for p in iset.parts]
    return [(lo, hi) for lo, hi in pieces if lo <= hi]


def mismatches(
    roots: dict, optimized: dict, ranges: dict, rng: random.Random,
    vectors: int = VECTORS,
) -> list[str]:
    """Human-readable mismatch reports (empty when every output agrees)."""
    problems = []
    for name, behavioural in roots.items():
        candidate = optimized.get(name)
        if candidate is None:
            problems.append(f"{name}: no optimized output")
            continue
        widths = input_variables(behavioural)
        for var, width in input_variables(candidate).items():
            widths.setdefault(var, width)
        domains = {var: _domain(w, ranges.get(var)) for var, w in sorted(widths.items())}
        for _ in range(vectors):
            env = {}
            for var, pieces in domains.items():
                lo, hi = pieces[rng.randrange(len(pieces))]
                env[var] = rng.randint(lo, hi)
            want, got = evaluate(behavioural, env), evaluate(candidate, env)
            if want is BOT or got is BOT or want != got:
                problems.append(f"{name}: {env} -> {want} vs {got}")
                break
    return problems
