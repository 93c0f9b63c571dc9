"""Brute-force oracle tests for the extraction ILP's branch-and-bound.

The solver's claim is global optimality over the 0/1 program (DAG cost,
lazy cycle exclusion).  These tests hold it to that claim the only way that
means anything: seeded-random problems small enough to enumerate
exhaustively, solved both ways, keys compared exactly.  The fuzz problems
deliberately include shared children (where tree-greedy and DAG-optimal
diverge), extra candidates with arbitrary back edges (so the lazy cycle
constraint is exercised), and pure cycle rings (no acyclic selection at
all — both sides must say so).

Dominance pruning is held to the same oracle: the brute force of the
*unpruned* program and the solver on the *pruned* one must agree, so the
filter provably never drops the optimum.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.solve.ilp import (
    Candidate,
    ExtractionProblem,
    brute_force,
    dominance_filter,
    evaluate_selection,
    feasible_selection,
    prune_dominated,
    solve_extraction,
)


def random_problem(
    rng: random.Random, classes: int, skeleton: bool = True
) -> ExtractionProblem:
    """A small random program, by default with a guaranteed acyclic skeleton.

    Class ``i``'s first candidate only points at higher-numbered classes,
    so a feasible selection always exists; every further candidate draws
    children from the *whole* id space, so cycles (including mutual ones)
    appear and the lazy exclusion constraint does real work.  With
    ``skeleton=False`` the first candidates form one ring over all classes
    instead, so only the extra candidates can break it — some programs
    have no acyclic selection at all.
    """
    candidates: dict[int, tuple[Candidate, ...]] = {}
    for cid in range(classes):
        members = []
        if skeleton:
            forward = tuple(
                sorted(
                    rng.sample(
                        range(cid + 1, classes),
                        k=rng.randint(0, min(2, classes - cid - 1)),
                    )
                )
            )
        else:
            forward = ((cid + 1) % classes,)
        members.append(
            Candidate(
                forward,
                delay=float(rng.randint(1, 8)),
                area=float(rng.randint(1, 8)),
                payload=f"skeleton:{cid}",
            )
        )
        for extra in range(rng.randint(0, 2)):
            anywhere = tuple(
                rng.sample(range(classes), k=rng.randint(0, 2))
            )
            members.append(
                Candidate(
                    anywhere,
                    delay=float(rng.randint(0, 8)),
                    area=float(rng.randint(0, 8)),
                    payload=f"extra:{cid}:{extra}",
                )
            )
        candidates[cid] = tuple(members)
    roots = tuple(sorted(rng.sample(range(classes), k=rng.randint(1, 2))))
    return ExtractionProblem(roots=roots, candidates=candidates)


class TestOracleFuzz:
    def test_solver_matches_brute_force_on_random_programs(self):
        """200 seeded problems, exact key equality against enumeration."""
        rng = random.Random(0x51317)
        for trial in range(200):
            problem = random_problem(rng, classes=rng.randint(2, 6))
            oracle = brute_force(problem)
            result = solve_extraction(problem)
            assert oracle is not None  # the skeleton guarantees feasibility
            assert result is not None
            assert result.status == "optimal", f"trial {trial}"
            assert result.key == oracle.key, (
                f"trial {trial}: solver {result.key} != oracle {oracle.key}"
            )
            # The returned selection really evaluates to the claimed key.
            check = evaluate_selection(problem, result.selection)
            assert check is not None and check[0] == result.key

    def test_descent_off_still_matches_oracle(self):
        """The proof must not depend on the warm-improvement phase."""
        rng = random.Random(0xBEEF)
        for _ in range(60):
            problem = random_problem(rng, classes=rng.randint(2, 5))
            oracle = brute_force(problem)
            result = solve_extraction(problem, descend=False)
            assert result is not None and oracle is not None
            assert result.key == oracle.key

    def test_warm_start_never_worsens_the_answer(self):
        """Any feasible warm start — even a deliberately bad one — leaves
        the optimum unchanged and the incumbent never above it."""
        rng = random.Random(0xABC)
        for _ in range(60):
            problem = random_problem(rng, classes=rng.randint(2, 5))
            oracle = brute_force(problem)
            warm = feasible_selection(problem)
            assert warm is not None
            result = solve_extraction(problem, incumbent=warm)
            assert result is not None and oracle is not None
            assert result.key == oracle.key


class TestCycles:
    def _ring(self, size: int) -> ExtractionProblem:
        return ExtractionProblem(
            roots=(0,),
            candidates={
                cid: (Candidate(((cid + 1) % size,), 1.0, 1.0),)
                for cid in range(size)
            },
        )

    def test_pure_cycle_is_infeasible_for_both(self):
        problem = self._ring(3)
        assert brute_force(problem) is None
        assert solve_extraction(problem) is None
        assert feasible_selection(problem) is None

    def test_cycle_with_escape_takes_the_escape(self):
        """The ring is cheaper per edge, but only the expensive leaf can
        appear in an acyclic selection."""
        problem = ExtractionProblem(
            roots=(0,),
            candidates={
                0: (Candidate((1,), 1.0, 1.0), Candidate((), 9.0, 9.0)),
                1: (Candidate((0,), 1.0, 1.0),),
            },
        )
        oracle = brute_force(problem)
        result = solve_extraction(problem)
        assert oracle is not None and result is not None
        assert result.key == oracle.key
        assert result.selection[0] == 1  # the escape leaf

    def test_evaluate_rejects_cyclic_and_partial_selections(self):
        problem = self._ring(2)
        assert evaluate_selection(problem, {0: 0, 1: 0}) is None  # cycle
        assert evaluate_selection(problem, {0: 0}) is None  # missing choice


class TestSharingObjective:
    def test_dag_cost_prefers_the_shared_subterm(self):
        """The defining divergence from the greedy tree objective: a class
        reused by two parents is paid once, so sharing an expensive block
        beats duplicating cheap ones when tree cost says otherwise."""
        # root -> (a, a) via candidate 0 (delay 1, area 1); the shared `a`
        # costs 10.  Alternative: root realized as one fat leaf, area 13.
        problem = ExtractionProblem(
            roots=(0,),
            candidates={
                0: (
                    Candidate((1, 1), 1.0, 1.0),
                    Candidate((), 11.0, 13.0),
                ),
                1: (Candidate((), 10.0, 10.0),),
            },
        )
        result = solve_extraction(problem)
        assert result is not None
        # Shared: delay 11, area 11 — tree cost would have priced area 21.
        assert (result.delay, result.area) == (11.0, 11.0)
        assert result.selection[0] == 0

    def test_anytime_expiry_returns_the_incumbent_not_none(self):
        rng = random.Random(7)
        problem = random_problem(rng, classes=6)
        warm = feasible_selection(problem)
        assert warm is not None
        warm_key = evaluate_selection(problem, warm)[0]
        expired = solve_extraction(
            problem, incumbent=warm, deadline=-math.inf, clock=lambda: 0.0
        )
        assert expired is not None
        assert expired.status == "incumbent"
        assert expired.key <= warm_key  # never worse than the warm start

    def test_step_quota_expiry_is_anytime_too(self):
        rng = random.Random(8)
        problem = random_problem(rng, classes=6)
        result = solve_extraction(problem, max_steps=1)
        assert result is not None
        assert result.status == "incumbent"
        assert result.steps <= 1  # bound evaluations, never past the quota
        full = solve_extraction(problem)
        assert full is not None and full.key <= result.key

    def test_quota_ended_search_reports_exactly_max_steps(self):
        rng = random.Random(0x51317)
        for _ in range(50):
            problem = random_problem(rng, classes=6)
            full = solve_extraction(problem, descend=False)
            assert full is not None
            if full.steps < 3:
                continue
            cut = solve_extraction(problem, descend=False, max_steps=2)
            assert cut is not None
            assert (cut.status, cut.steps) == ("incumbent", 2)


class TestDominancePruning:
    def test_pruned_solver_matches_unpruned_brute_force(self):
        """200 seeded programs — a quarter built on a pure ring, some with
        no acyclic selection — solved pruned, enumerated unpruned."""
        rng = random.Random(0x51317)
        infeasible = 0
        for trial in range(200):
            problem = random_problem(
                rng, classes=rng.randint(2, 6), skeleton=trial % 4 != 0
            )
            oracle = brute_force(problem)
            pruned = prune_dominated(problem)
            result = solve_extraction(pruned)
            assert (oracle is None) == (result is None), f"trial {trial}"
            assert (oracle is None) == (feasible_selection(pruned) is None)
            if oracle is None:
                infeasible += 1
                continue
            assert result.status == "optimal", f"trial {trial}"
            assert result.key == oracle.key, (
                f"trial {trial}: pruned {result.key} != oracle {oracle.key}"
            )
            check = evaluate_selection(pruned, result.selection)
            assert check is not None and check[0] == result.key
        assert infeasible  # the rings really exercise the infeasible side

    def test_child_subset_dominance(self):
        """Fewer children at no higher cost wins; a class only the dropped
        candidate reached leaves the program.  A cheaper candidate with
        more children is not dominated."""
        problem = ExtractionProblem(
            roots=(0,),
            candidates={
                0: (
                    Candidate((1, 2), 3.0, 3.0, payload="wide"),
                    Candidate((1,), 3.0, 2.0, payload="narrow"),
                    Candidate((), 9.0, 9.0, payload="leaf"),
                ),
                1: (Candidate((), 1.0, 1.0),),
                2: (Candidate((), 1.0, 1.0),),
            },
        )
        pruned = prune_dominated(problem)
        assert [m.payload for m in pruned.candidates[0]] == ["narrow", "leaf"]
        assert 2 not in pruned.candidates
        assert pruned.dominators == {0: {"wide": 0}}

    def test_exact_tie_keeps_the_first(self):
        """Equal costs and equal child *sets* (repeats and order do not
        matter to the objective) — the first candidate stays."""
        members = [
            Candidate((1, 2), 2.0, 2.0, payload="first"),
            Candidate((2, 1, 1), 2.0, 2.0, payload="second"),
        ]
        kept, stand_in = dominance_filter(members)
        assert [m.payload for m in kept] == ["first"]
        assert stand_in == {"second": 0}

    def test_assume_wire_is_never_dropped_for_a_costlier_candidate(self):
        """An ``ASSUME`` costs as a wire over its guarded child: a leaf with
        fewer children but any cost cannot dominate it, while a costlier
        node over the same child is dropped in its favour."""
        wire = Candidate((1,), 0.0, 0.0, payload="assume")
        members = [
            Candidate((), 0.5, 1.0, payload="leaf"),
            Candidate((1,), 0.5, 0.0, payload="buffer"),
            wire,
        ]
        kept, stand_in = dominance_filter(members)
        assert [m.payload for m in kept] == ["leaf", "assume"]
        assert stand_in == {"buffer": 1}

    def test_assume_survives_pruning_on_a_saturated_egraph(self):
        from repro.designs.registry import get_design
        from repro.ir import ops
        from repro.pipeline import Ingest, Pipeline, Saturate
        from repro.solve.ilp import extraction_problem
        from repro.synth.cost import DelayAreaCost

        design = get_design("unorm_to_float")
        ctx = Pipeline(
            [
                Ingest(source=design.verilog),
                Saturate(iter_limit=2, node_limit=8_000, time_limit=10**6),
            ]
        ).run(input_ranges=design.input_ranges)
        egraph = ctx.require_egraph()
        problem = extraction_problem(
            egraph, list(ctx.root_ids.values()), DelayAreaCost()
        )
        assert problem is not None
        assumes = 0
        for cid, members in problem.candidates.items():
            kept = {m.payload for m in members}
            for enode in egraph[cid].nodes:
                if enode.op is not ops.ASSUME or enode in kept:
                    assumes += enode.op is ops.ASSUME
                    continue
                stand_in = members[problem.dominators[cid][enode]]
                assert (stand_in.delay, stand_in.area) == (0.0, 0.0)
        assert assumes  # the design really offers ASSUME wires

    def test_preferred_dropped_node_maps_to_its_dominator(self):
        """A greedy warm start naming a dropped node takes the node that
        dominates it, not the head of the cheapest-delay-first ranking."""
        problem = ExtractionProblem(
            roots=(0,),
            candidates={
                0: (
                    Candidate((), 0.5, 9.0, payload="fast"),
                    Candidate((1,), 1.0, 1.0, payload="lean"),
                    Candidate((1, 2), 2.0, 2.0, payload="greedy"),
                ),
                1: (Candidate((), 1.0, 1.0),),
                2: (Candidate((), 1.0, 1.0),),
            },
        )
        pruned = prune_dominated(problem)
        names = [m.payload for m in pruned.candidates[0]]
        assert names == ["fast", "lean"]
        warm = feasible_selection(pruned, prefer={0: "greedy"})
        assert warm is not None
        assert names[warm[0]] == "lean"
        assert names[feasible_selection(pruned)[0]] == "fast"
