"""0/1 ILP formulation of e-graph extraction, with an anytime branch-and-bound.

The greedy extractor (:mod:`repro.egraph.extract`) minimizes *tree* cost per
root: a shared subterm is priced once per parent, so a selection that reuses
an already-needed class can look more expensive than duplicating cheaper
hardware.  This module states extraction as the integer program it really is
and optimizes the *DAG* cost — each selected e-node's own area counts once,
however many parents reuse it — which is the objective ROVER-style global
extraction pays off on.

Formulation (per output cone):

* variables: ``x[n] ∈ {0,1}`` per e-node candidate, ``y[c] ∈ {0,1}`` per
  e-class;
* root constraint: ``y[c] = 1`` for every root class;
* class choice: ``Σ_{n ∈ c} x[n] = y[c]`` — a needed class realizes exactly
  one of its e-nodes;
* child implication: ``x[n] ≤ y[c']`` for every cost child class ``c'`` of
  ``n`` — choosing a node needs its children;
* cycle exclusion: the selected subgraph must be acyclic (enforced lazily —
  a cyclic selection evaluates as infeasible instead of enumerating the
  exponentially many cycle-cut constraints up front);
* objective: minimize ``key(delay, area)`` where ``delay`` is the longest
  own-delay path from any root through the selection and ``area`` is the
  sum of the *needed* selected nodes' own areas, counted once each.

Before any search, **dominance pruning** shrinks the program as it is
built: a candidate is dropped when another candidate of its class is no
worse on delay, area and child set (of exact ties the first stays).  Any
selection using the dropped one turns into one at most as costly by
switching, so the optimum survives; classes only dropped candidates reached
leave the cone.  This replaces exact-signature dedup, which only merged
identical candidates.

The solver is a pure-python branch-and-bound (stdlib only, like the rest of
the repo).  Bounding is LP-style relaxation in spirit: the delay bound is
the per-class min-delay fixpoint (the value an LP relaxation of the delay
rows attains), the area bound sums each definitely-needed class's cheapest
member — both are monotone under any of the repo's objective keys, so
pruning is sound.  The search is **anytime**: it starts from a feasible
incumbent (normally the greedy extractor's selection), every improvement
replaces it, and a deadline or step-quota expiry returns the best incumbent
with ``status="incumbent"`` instead of raising; a drained search tree
returns ``status="optimal"``.  ``steps`` counts bound evaluations and never
exceeds the quota.  On the registry designs at ``iter_limit=4`` the search
drains for float_to_unorm, unorm_to_float and stress_wide; fp_sub and
interpolation still end on the stage's 50,000-step quota (``incumbent``),
because the area bound is too weak to close their trees.

``ASSUME`` nodes cost as wires over their guarded child (the paper treats
them as assignment statements); constraint children never contribute
hardware and are therefore not part of the problem — the stage rebuilding
the winning expression re-attaches them from the greedy extractor's trees.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from repro.ir import ops
from repro.synth.cost import default_key

__all__ = [
    "Candidate",
    "ExtractionProblem",
    "SolveResult",
    "extraction_problem",
    "dominance_filter",
    "prune_dominated",
    "evaluate_selection",
    "feasible_selection",
    "solve_extraction",
    "brute_force",
]


@dataclass(frozen=True)
class Candidate:
    """One e-node a class may realize: its cost children and own cost.

    ``children`` are *canonical* child class ids of the cost-relevant
    children only (the guarded child for ``ASSUME``, all children
    otherwise).  ``payload`` is opaque to the solver — the pipeline stores
    the :class:`~repro.egraph.enode.ENode` for rebuilding, tests store
    whatever identifies the choice.
    """

    children: tuple[int, ...]
    delay: float
    area: float
    payload: Any = None


@dataclass
class ExtractionProblem:
    """The 0/1 program over one cone: classes, candidates, roots, objective."""

    roots: tuple[int, ...]
    #: class id -> candidate tuple (every id reachable from the roots).
    candidates: dict[int, tuple[Candidate, ...]]
    #: (delay, area) -> totally ordered comparison key; must be monotone in
    #: both arguments (all of :mod:`repro.synth.cost`'s keys are).
    key: Callable[[float, float], tuple] = default_key
    #: class id -> {payload of a dropped dominated candidate: index of the
    #: kept candidate standing in for it} (see :func:`dominance_filter`).
    dominators: dict[int, dict[Any, int]] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.candidates)

    def variables(self) -> int:
        """Number of 0/1 selection variables (one per candidate + one per
        class), for governance reporting."""
        return self.size + sum(len(c) for c in self.candidates.values())


@dataclass
class SolveResult:
    """Outcome of one branch-and-bound run (the anytime contract's receipt).

    ``status`` is ``"optimal"`` when the search tree drained (the incumbent
    is provably the best feasible selection) and ``"incumbent"`` when the
    deadline or step quota cut the proof short — the incumbent is still the
    best selection *seen*, never worse than the warm start.
    """

    status: str  # "optimal" | "incumbent"
    selection: dict[int, int]  # class id -> candidate index
    delay: float
    area: float
    key: tuple
    #: Search nodes expanded (bound evaluations), the governance unit.
    steps: int = 0
    #: Whether the result strictly improved on the warm-start incumbent.
    improved: bool = False


# --------------------------------------------------------------------- build
def extraction_problem(
    egraph,
    root_ids: Iterable[int],
    cost_fn,
    max_classes: int | None = None,
) -> ExtractionProblem | None:
    """Build the cone's program from a saturated e-graph.

    ``cost_fn`` needs the decomposed interface of
    :class:`~repro.synth.cost.DelayAreaCost`: ``own_cost(egraph, cid,
    enode)`` and a monotone ``key(delay, area)``.  Returns ``None`` when the
    reachable cone exceeds ``max_classes`` — the caller's quota-blow-up
    signal, which degrades to greedy instead of building a hopeless model.
    Dominated e-nodes are dropped as each class is read (see
    :func:`dominance_filter`), so classes only they reach stay out.
    """
    find = egraph.find

    def members(cid: int) -> list[Candidate]:
        out = []
        for enode in egraph[cid].nodes:
            if enode.op is ops.ASSUME:
                children = (find(enode.children[0]),)
                own_delay = own_area = 0.0
            else:
                children = tuple(find(c) for c in enode.children)
                own_delay, own_area = cost_fn.own_cost(egraph, cid, enode)
            out.append(Candidate(children, own_delay, own_area, payload=enode))
        return out

    return _pruned_cone(
        tuple(dict.fromkeys(find(r) for r in root_ids)),
        members,
        cost_fn.key,
        max_classes,
    )


def prune_dominated(problem: ExtractionProblem) -> ExtractionProblem:
    """``problem`` with every dominated candidate dropped, and the classes
    only those candidates reached — the same filter
    :func:`extraction_problem` applies while it builds."""
    return _pruned_cone(
        problem.roots, problem.candidates.__getitem__, problem.key
    )


def _pruned_cone(
    roots: tuple[int, ...],
    members_of: Callable[[int], Iterable[Candidate]],
    key: Callable[[float, float], tuple],
    max_classes: int | None = None,
) -> ExtractionProblem | None:
    """Walk the classes reachable from ``roots`` through kept candidates."""
    candidates: dict[int, tuple[Candidate, ...]] = {}
    dominators: dict[int, dict[Any, int]] = {}
    stack = list(roots)
    while stack:
        cid = stack.pop()
        if cid in candidates:
            continue
        if max_classes is not None and len(candidates) >= max_classes:
            return None
        # A self-loop can never appear in an acyclic selection.
        kept, stand_in = dominance_filter(
            [m for m in members_of(cid) if cid not in m.children]
        )
        candidates[cid] = kept
        if stand_in:
            dominators[cid] = stand_in
        for member in kept:
            stack.extend(c for c in member.children if c not in candidates)
    return ExtractionProblem(
        roots=roots, candidates=candidates, key=key, dominators=dominators
    )


def dominance_filter(
    members: list[Candidate],
) -> tuple[tuple[Candidate, ...], dict[Any, int]]:
    """Drop every candidate some other candidate of the class dominates.

    ``A`` dominates ``B`` when ``A.delay <= B.delay``, ``A.area <= B.area``
    and ``set(A.children) <= set(B.children)``; of exact ties the first
    stays.  Switching any selection from ``B`` to ``A`` only removes edges
    and needed classes (own areas are non-negative), so it stays acyclic
    and — for any key monotone in delay and area — never gets worse: the
    optimum survives the filter.

    Returns the kept candidates in their original order, and for each
    dropped one its payload -> the index of the first kept candidate that
    dominates it (what a warm start preferring the dropped one takes).
    """
    child_sets = [frozenset(m.children) for m in members]

    def dominates(a: int, b: int) -> bool:
        return (
            members[a].delay <= members[b].delay
            and members[a].area <= members[b].area
            and child_sets[a] <= child_sets[b]
        )

    count = len(members)
    kept = [
        b
        for b in range(count)
        if not any(
            a != b and dominates(a, b) and (a < b or not dominates(b, a))
            for a in range(count)
        )
    ]
    dropped = sorted(set(range(count)).difference(kept))
    stand_in = {
        members[b].payload: next(
            slot for slot, a in enumerate(kept) if dominates(a, b)
        )
        for b in dropped
    }
    return tuple(members[i] for i in kept), stand_in


# ---------------------------------------------------------------- evaluation
def evaluate_selection(
    problem: ExtractionProblem, selection: Mapping[int, int]
) -> tuple[tuple, float, float, set[int]] | None:
    """Exact objective of a (possibly partial) selection.

    Returns ``(key, delay, area, needed)`` — or ``None`` when the selection
    is infeasible: a needed class has no chosen candidate, or the choices
    close a cycle (the lazily-enforced cycle-exclusion constraint).
    """
    candidates = problem.candidates
    GRAY, BLACK = 1, 2
    color: dict[int, int] = {}
    arrival: dict[int, float] = {}
    area = 0.0
    stack: list[tuple[int, bool]] = [(c, False) for c in problem.roots]
    while stack:
        cid, ready = stack.pop()
        if ready:
            chosen = candidates[cid][selection[cid]]
            arrival[cid] = chosen.delay + max(
                (arrival[k] for k in chosen.children), default=0.0
            )
            area += chosen.area
            color[cid] = BLACK
            continue
        state = color.get(cid)
        if state == BLACK:
            continue
        if state == GRAY:
            return None  # back edge: the selection closes a cycle
        index = selection.get(cid)
        if index is None or index >= len(candidates[cid]):
            return None  # needed class without a (valid) choice
        color[cid] = GRAY
        stack.append((cid, True))
        stack.extend((k, False) for k in candidates[cid][index].children)
    delay = max((arrival[r] for r in problem.roots), default=0.0)
    return problem.key(delay, area), delay, area, set(color)


def feasible_selection(
    problem: ExtractionProblem,
    prefer: Mapping[int, Any] | None = None,
) -> dict[int, int] | None:
    """A feasible (acyclic) selection covering every class that supports one.

    ``prefer`` maps class id -> candidate payload (e.g. the greedy
    extractor's best e-node per class); the preferred candidate — or, when
    the dominance filter dropped it, the candidate that dominates it — is
    tried first, falling back down a cheap-first ranking when it would close a
    cycle — the same path-guard discipline as
    :meth:`repro.egraph.extract.Extractor.expr_of`, so a greedy warm start
    with zero-progress wire cycles still lands on a sound incumbent.
    """
    prefer = prefer or {}
    candidates = problem.candidates
    ranked: dict[int, list[int]] = {}
    for cid, members in candidates.items():
        order = _cheap_first(members)
        liked = prefer.get(cid)
        if liked is not None:
            index = next(
                (i for i, m in enumerate(members) if m.payload == liked),
                problem.dominators.get(cid, {}).get(liked),
            )
            if index is not None:
                order.remove(index)
                order.insert(0, index)
        ranked[cid] = order
    chosen: dict[int, int] = {}

    def build(cid: int, path: frozenset[int]) -> bool:
        if cid in chosen:
            return True
        if cid in path:
            return False
        path = path | {cid}
        for index in ranked[cid]:
            if all(build(k, path) for k in candidates[cid][index].children):
                # Children may have been memoized through this candidate's
                # own path; the memo only ever holds acyclic subtrees, so
                # the combination stays acyclic (same argument as the
                # extractor's ``_build``).
                chosen[cid] = index
                return True
        return False

    for root in problem.roots:
        if not build(root, frozenset()):
            return None
    # Cover the remaining classes too (descent may wander into them): any
    # acyclic choice is fine, and unreachable-from-roots classes never
    # affect the objective.
    for cid in candidates:
        build(cid, frozenset())
    return chosen


def _cheap_first(members: tuple[Candidate, ...]) -> list[int]:
    """Candidate indices by delay, then area, then position."""
    return sorted(
        range(len(members)),
        key=lambda i: (members[i].delay, members[i].area, i),
    )


# -------------------------------------------------------------------- bounds
def _min_delay_fixpoint(problem: ExtractionProblem) -> dict[int, float]:
    """Per-class lower bound on any acyclic selection's arrival delay.

    The min-over-candidates / max-over-children fixpoint — what an LP
    relaxation of the delay rows attains.  Classes only realizable through
    cycles stay at ``inf`` (no acyclic selection reaches them at all).
    """
    candidates = problem.candidates
    parents: dict[int, set[int]] = {cid: set() for cid in candidates}
    for cid, members in candidates.items():
        for member in members:
            for child in member.children:
                parents[child].add(cid)
    bound = {cid: math.inf for cid in candidates}
    pending = list(candidates)
    queued = set(pending)
    while pending:
        cid = pending.pop()
        queued.discard(cid)
        best = bound[cid]
        for member in candidates[cid]:
            worst_child = 0.0
            for child in member.children:
                arrival = bound[child]
                if arrival > worst_child:
                    worst_child = arrival
            value = member.delay + worst_child
            if value < best:
                best = value
        if best < bound[cid]:
            bound[cid] = best
            for parent in parents[cid]:
                if parent not in queued:
                    pending.append(parent)
                    queued.add(parent)
    return bound


def _min_area(problem: ExtractionProblem) -> dict[int, float]:
    """Cheapest own area any candidate of the class could contribute."""
    return {
        cid: min((m.area for m in members), default=math.inf)
        for cid, members in problem.candidates.items()
    }


def _partial_bound(
    problem: ExtractionProblem,
    selection: Mapping[int, int],
    lb_delay: Mapping[int, float],
    lb_area: Mapping[int, float],
    reversed_children: Mapping[int, tuple[tuple[int, ...], ...]],
) -> tuple[tuple, int | None] | None:
    """Lower bound of any completion of a partial selection.

    Walks the definitely-needed region: classes reachable from the roots
    through *decided* (selected) candidates' children.  Decided classes
    contribute their chosen candidate's own cost; undecided reached classes
    are boundary leaves contributing their class-level lower bounds (every
    completion must realize them — ``y[c] = 1`` is already implied).
    Returns ``(bound_key, branch)`` — ``branch`` is the first undecided
    class in discovery order, or ``None`` when the needed region is fully
    decided — or ``None`` when the decided region itself closes a cycle
    (the subtree is infeasible and the caller prunes it).

    ``reversed_children[cid][index]`` is candidate ``index``'s children in
    reverse, so the stack pops them in order.  The stack holds bare class
    ids with ``~cid`` (always negative) as the post-order marker.  Own
    delays are non-negative, so a child-free candidate arrives at its own
    delay, as with ``max(..., default=0.0)``.
    """
    candidates = problem.candidates
    arrival: dict[int, float] = {}  # finished ("black") classes
    open_: set[int] = set()  # on the current DFS path ("gray")
    area = 0.0
    branch = None
    stack = list(reversed(problem.roots))
    while stack:
        cid = stack.pop()
        if cid < 0:
            cid = ~cid
            chosen = candidates[cid][selection[cid]]
            worst = 0.0
            for k in chosen.children:
                if arrival[k] > worst:
                    worst = arrival[k]
            arrival[cid] = chosen.delay + worst
            open_.discard(cid)
            continue
        if cid in arrival:
            continue
        if cid in open_:
            return None  # the decided region is already cyclic
        index = selection.get(cid)
        if index is None:
            arrival[cid] = lb_delay[cid]
            area += lb_area[cid]
            if branch is None:
                branch = cid
            continue
        open_.add(cid)
        area += candidates[cid][index].area
        stack.append(~cid)
        stack.extend(reversed_children[cid][index])
    delay = 0.0
    for root in problem.roots:
        if arrival[root] > delay:
            delay = arrival[root]
    return problem.key(delay, area), branch


# -------------------------------------------------------------------- solver
def solve_extraction(
    problem: ExtractionProblem,
    incumbent: Mapping[int, int] | None = None,
    deadline: float | None = None,
    clock: Callable[[], float] | None = None,
    max_steps: int = 200_000,
    descend: bool = True,
) -> SolveResult | None:
    """Anytime branch-and-bound over the extraction program.

    ``incumbent`` is the warm start (normally the greedy selection via
    :func:`feasible_selection`); when omitted or infeasible one is derived
    internally, and if none exists the problem has no acyclic solution and
    ``None`` comes back.  The search never returns anything worse than the
    warm start: improvements replace the incumbent in place, expiry keeps
    it.  ``descend`` runs a coordinate-descent improvement pass before the
    tree search — it finds most sharing wins in a handful of evaluations,
    so a tight deadline still usually beats greedy before the proof work
    starts.
    """
    clock = clock if clock is not None else time.monotonic
    limit = math.inf if deadline is None else deadline
    steps = 0

    best_sel = dict(incumbent) if incumbent else None
    best_eval = (
        evaluate_selection(problem, best_sel) if best_sel is not None else None
    )
    if best_eval is None:
        best_sel = feasible_selection(problem)
        if best_sel is None:
            return None
        best_eval = evaluate_selection(problem, best_sel)
        if best_eval is None:
            return None
    start_key = best_eval[0]

    defaults = dict(best_sel)
    fallback = feasible_selection(problem)
    if fallback:
        for cid, index in fallback.items():
            defaults.setdefault(cid, index)

    # Phase 1: coordinate descent on the needed set — switch one needed
    # class's candidate at a time, keep strict improvements, repeat until a
    # full sweep finds nothing (or the budget expires).
    if descend:
        improved_once = True
        while improved_once and steps < max_steps and clock() <= limit:
            improved_once = False
            for cid in sorted(best_eval[3]):
                members = problem.candidates[cid]
                if len(members) < 2:
                    continue
                current = best_sel[cid]
                for index in range(len(members)):
                    if index == current:
                        continue
                    steps += 1
                    trial = dict(defaults)
                    trial.update(best_sel)
                    trial[cid] = index
                    trial_eval = evaluate_selection(problem, trial)
                    if trial_eval is not None and trial_eval[0] < best_eval[0]:
                        best_sel = trial
                        best_eval = trial_eval
                        improved_once = True
                        current = index
                    if steps >= max_steps or clock() > limit:
                        break
                if steps >= max_steps or clock() > limit:
                    break

    # Phase 2: branch-and-bound for the optimality proof (and any wins the
    # descent's one-swap neighbourhood cannot reach).
    lb_delay = _min_delay_fixpoint(problem)
    lb_area = _min_area(problem)
    reversed_children = {
        cid: tuple(m.children[::-1] for m in members)
        for cid, members in problem.candidates.items()
    }
    branch_order = {
        cid: _cheap_first(members) for cid, members in problem.candidates.items()
    }
    complete = True

    def search(selection: dict[int, int]) -> bool:
        """Depth-first expansion; returns False when the budget expired."""
        nonlocal best_sel, best_eval, steps, complete
        if steps >= max_steps or clock() > limit:
            complete = False
            return False
        steps += 1
        bound = _partial_bound(
            problem, selection, lb_delay, lb_area, reversed_children
        )
        if bound is None:
            return True  # cyclic decided region: prune, keep searching
        bound_key, branch = bound
        if bound_key >= best_eval[0]:
            return True  # cannot beat the incumbent
        if branch is None:
            # Fully decided needed region — ``bound`` was exact.
            result = evaluate_selection(problem, selection)
            if result is not None and result[0] < best_eval[0]:
                best_sel = dict(selection)
                best_eval = result
            return True
        for index in branch_order[branch]:
            selection[branch] = index
            alive = search(selection)
            del selection[branch]
            if not alive:
                return False
        return True

    if steps < max_steps and clock() <= limit:
        # The DFS depth is bounded by the class count, not the DAG depth —
        # give the interpreter headroom on big cones instead of dying.
        needed_limit = 3 * problem.size + 1000
        old_limit = sys.getrecursionlimit()
        if old_limit < needed_limit:
            sys.setrecursionlimit(needed_limit)
        try:
            search({})
        finally:
            if old_limit < needed_limit:
                sys.setrecursionlimit(old_limit)
    else:
        complete = False

    return SolveResult(
        status="optimal" if complete else "incumbent",
        selection=best_sel,
        delay=best_eval[1],
        area=best_eval[2],
        key=best_eval[0],
        steps=steps,
        improved=best_eval[0] < start_key,
    )


# -------------------------------------------------------------------- oracle
def brute_force(problem: ExtractionProblem) -> SolveResult | None:
    """Exhaustive enumeration of every selection — the test oracle.

    Exponential in the class count; only for the small fuzzed problems the
    oracle tests build.  Returns the optimum (ties broken by enumeration
    order) or ``None`` when no acyclic selection exists.
    """
    cids = sorted(problem.candidates)
    best: SolveResult | None = None
    assignment: dict[int, int] = {}

    def enumerate_from(position: int) -> None:
        nonlocal best
        if position == len(cids):
            result = evaluate_selection(problem, assignment)
            if result is not None and (best is None or result[0] < best.key):
                best = SolveResult(
                    status="optimal",
                    selection=dict(assignment),
                    delay=result[1],
                    area=result[2],
                    key=result[0],
                )
            return
        cid = cids[position]
        members = problem.candidates[cid]
        if not members:
            # No candidate at all: legal only if the class is never needed.
            enumerate_from(position + 1)
            return
        for index in range(len(members)):
            assignment[cid] = index
            enumerate_from(position + 1)
            del assignment[cid]

    enumerate_from(0)
    return best
