"""The sequential branch-and-reduce solver (Fig. 1, iterative form).

This is the paper's *Sequential* baseline: one CPU worker composing the
shared node step (:mod:`repro.core.nodestep`) with a frontier policy
(:mod:`repro.core.frontier`) — by default the explicit depth-first stack
(the same structure the GPU blocks use, which keeps the implementations
directly comparable, as required for the paper's "all versions use the
same data structure and reduction rules" fairness note).

The default traversal order matches Fig. 1/Fig. 4: at a branching node
the ``G - vmax`` child is explored first and the ``G - N(vmax)`` child is
deferred to the frontier.  Any other registered frontier policy
(``repro solve --frontier ...``) replays the same node step under a
different discipline — FIFO, hybrid-threshold, stealing, or best-first —
and must reach the same optimum (the engine-equivalence property tests
enforce this).
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import faults, obs
from ..graph.csr import CSRGraph
from ..graph.degree_array import VCState, Workspace, cover_vertices, fresh_state
from .bounds import BoundPolicy, GreedyBound, make_bound
from .branching import PivotFn, max_degree_pivot
from .formulation import BestBound, Formulation, FoundFlag, MVCFormulation, PVCFormulation
from .frontier import Frontier, LifoFrontier, make_frontier
from .greedy import greedy_cover
from .kernel_backends import resolve_kernels
from .nodestep import LEAF, PRUNED, NodeStep, Reducer
from .outcome import SolveOutcome, finish_outcome
from .stats import ChargeFn, SearchStats, null_charge

__all__ = ["ChunkWalk", "branch_and_reduce", "compiled_kind",
           "solve_mvc_sequential", "solve_pvc_sequential"]


def branch_and_reduce(
    graph: CSRGraph,
    formulation: Formulation,
    *,
    ws: Optional[Workspace] = None,
    node_budget: Optional[int] = None,
    pivot: PivotFn = max_degree_pivot,
    rng: Optional[np.random.Generator] = None,
    root: Optional[VCState] = None,
    stats: Optional[SearchStats] = None,
    charge: ChargeFn = null_charge,
    should_stop: Optional[Callable[[], bool]] = None,
    reducer: Optional[Reducer] = None,
    frontier: Union[Frontier, str, None] = None,
    bound: Union[BoundPolicy, str, None] = None,
    kernels=None,
    deadline: Optional[float] = None,
    clock: Callable[[], float] = time.monotonic,
) -> SearchStats:
    """Exhaust the search tree under ``formulation`` starting from ``root``.

    Results accumulate into the formulation's shared holders (``BestBound``
    or ``FoundFlag``).  Returns the traversal statistics; sets
    ``stats.extra['timed_out']`` if the node budget ran out first.
    ``charge`` receives the same work-unit stream the GPU engines emit,
    which is how the harness prices the Sequential baseline through the
    CPU cost model for Table I.

    ``reducer`` picks the reduction cascade (see
    :func:`repro.core.nodestep.default_reducer`: the selected kernel
    backend's cascade for uncharged runs, the charge-exact reference
    rules otherwise).

    ``kernels`` picks the kernel backend for the uncharged hot paths: a
    :class:`~repro.core.kernel_backends.KernelBackend` instance, a
    registered ``KERNELS`` name, or ``None`` for the default
    (``auto``).  Backends are bit-identical, so the optimum — and every
    charge stream — never depends on the choice.

    ``frontier`` picks the worklist discipline: a
    :class:`~repro.core.frontier.Frontier` instance, a registered policy
    name, or ``None`` for the Fig. 1 depth-first stack.  Frontier items
    are ``(state, depth)`` pairs — each carries the node's true ancestry
    depth, because a continued child deepens the tree without a push, so
    the frontier population undercounts depth whenever branching resumes
    under a popped deferred child.

    ``bound`` picks the pruning policy: a
    :class:`~repro.core.bounds.BoundPolicy` instance, a registered name
    from ``BOUNDS``, or ``None`` for the paper's default (``greedy``).
    A non-default bound also re-keys a ``best-first`` frontier by its own
    lower bound.

    ``deadline`` is a wall-clock budget in seconds (measured on ``clock``
    from entry; injectable for deterministic tests — ``deadline=0`` trips
    before the first node).  When the deadline or the node budget trips,
    the in-flight node is pushed *back* onto the frontier before the
    loop exits, so the frontier afterwards holds exactly the unexplored
    remainder of the tree — the outcome finisher serializes it as a
    checkpoint (:mod:`repro.core.outcome`).  ``stats.extra`` records
    ``timed_out`` for either trip and ``deadline_tripped`` for the
    wall-clock one.

    If a fault-injection plan arms the step sites
    (:func:`repro.faults.step_guard_active`), each node is backed up
    before its step and re-enqueued pristine when the injected
    :class:`~repro.faults.FaultInjected` fires — the traversal recovers
    to the same optimum; ``stats.extra['faults_recovered']`` counts the
    hits.

    The plain configuration — no ``reducer``, ``null_charge``, the
    max-degree pivot, the greedy bound, a depth-first
    :class:`~repro.core.frontier.LifoFrontier`, an exact MVC/PVC
    formulation, no ``deadline`` or ``should_stop``, no armed fault plan
    or tracer — runs the whole loop in compiled code when the
    kernel backend offers it (:meth:`KernelBackend.search`: ``native``),
    with the same node order, counters and frontier remainder;
    ``stats.extra['native_search']`` records that it did.
    """
    if ws is None:
        ws = Workspace.for_graph(graph)
    if stats is None:
        stats = SearchStats()
    if bound is None or isinstance(bound, str):
        bound = make_bound(bound or "greedy", graph, ws)
    if frontier is None:
        frontier = LifoFrontier()
    elif isinstance(frontier, str):
        frontier = make_frontier(frontier, bound=bound)
    if (reducer is None and charge is null_charge and pivot is max_degree_pivot
            and deadline is None and should_stop is None
            and type(frontier) is LifoFrontier
            and _search_compiled(graph, formulation, root, frontier, bound,
                                 kernels, node_budget, stats)):
        return stats
    step = NodeStep(
        graph, formulation, ws,
        reducer=reducer, pivot=pivot, rng=rng, charge=charge,
        counters=stats.reductions, bound=bound, kernels=kernels,
    ).run
    fpush = frontier.push
    fpop = frontier.pop
    stop_requested = formulation.stop_requested
    accept = formulation.accept
    release_deg = ws.release_deg
    deadline_at = None if deadline is None else clock() + deadline
    fault_guard = faults.step_guard_active()
    recovered = 0
    current: Optional[VCState] = root if root is not None else fresh_state(graph)
    depth = 0
    # Traversal counters live in locals for the duration of the loop (the
    # attribute churn would otherwise dominate the step wrapper's cost) and
    # are written back — including on an error escaping the step — below.
    nodes = stats.nodes_visited
    branches = stats.branches
    prunes = stats.prunes
    solutions = stats.solutions_found
    max_stack = stats.max_stack_depth
    max_depth = stats.max_depth_reached
    timed_out = False
    deadline_tripped = False

    try:
        while True:
            if stop_requested():
                break
            if current is None:
                item = fpop()
                if item is None:
                    break
                current, depth = item
            if node_budget is not None and nodes >= node_budget:
                timed_out = True
                fpush((current, depth))  # keep the frontier checkpoint-complete
                break
            if deadline_at is not None and clock() >= deadline_at:
                timed_out = True
                deadline_tripped = True
                fpush((current, depth))
                break
            if should_stop is not None and should_stop():
                timed_out = True
                fpush((current, depth))
                break
            nodes += 1
            if fault_guard:
                backup = current.copy()
                try:
                    outcome = step(current)
                except faults.FaultInjected:
                    recovered += 1
                    fpush((backup, depth))
                    current = None
                    continue
            else:
                outcome = step(current)
            if outcome is PRUNED:
                prunes += 1
                current = None
                continue
            if outcome is LEAF:
                solutions += 1
                stop_all = accept(current)
                release_deg(current.deg)  # accept() extracted the cover
                current = None
                if stop_all:
                    break
                continue
            current = outcome.continued
            depth += 1  # both children live one level below the branching node
            fpush((outcome.deferred, depth))
            branches += 1
            population = len(frontier)
            if population > max_stack:
                max_stack = population
            if depth > max_depth:
                max_depth = depth
    finally:
        stats.nodes_visited = nodes
        stats.branches = branches
        stats.prunes = prunes
        stats.solutions_found = solutions
        stats.max_stack_depth = max_stack
        stats.max_depth_reached = max_depth
        if timed_out:
            stats.extra["timed_out"] = 1.0
        if deadline_tripped:
            stats.extra["deadline_tripped"] = 1.0
        if recovered:
            # Accumulate: a resumed traversal passes the same stats again.
            stats.extra["faults_recovered"] = (
                stats.extra.get("faults_recovered", 0.0) + recovered)
    return stats


def compiled_kind(formulation: Formulation, bound: BoundPolicy) -> Optional[str]:
    """``'mvc'``/``'pvc'`` when the compiled loop can walk ``formulation``.

    The one eligibility predicate of the compiled walks: an exact
    MVC/PVC formulation over exact holders (a subclass may change
    acceptance), no stop already signalled, the greedy bound, and no
    armed fault plan or tracer (both wrap the per-node step; armed
    metrics alone do not).
    ``None`` means the interpreted loop.  The kernel backend must offer
    the loop too (:meth:`KernelBackend.walker`).
    """
    if type(bound) is not GreedyBound:
        return None
    ftype = type(formulation)
    if ftype is MVCFormulation and type(formulation.best) is BestBound:
        kind = "mvc"
    elif (ftype is PVCFormulation and type(formulation.flag) is FoundFlag
          and not formulation.flag.found):
        kind = "pvc"
    else:
        return None
    if faults.step_guard_active() or obs.trace.armed():
        return None
    return kind


def _walk_bound(formulation: Formulation, kind: str) -> int:
    """The compiled loop's ``bound``: the incumbent size, or k."""
    return formulation.best.size if kind == "mvc" else formulation.k


def _absorb_run(out, kind: str, formulation: Formulation, stats: SearchStats) -> int:
    """Fold one compiled run's results into the holders and ``stats``;
    returns its status (0 exhausted, 1 PVC cover found, 2 budget)."""
    (status, best, updates, incumbent, nodes, branches, prunes, solutions,
     max_stack, max_depth, c1, c2, ch, sweeps) = out[:14]
    if incumbent is not None:
        if kind == "mvc":
            formulation.best.size = best
            formulation.best.cover = cover_vertices(incumbent)
            formulation.best.updates += updates
        else:
            formulation.flag.set(VCState(incumbent, best, 0))
    stats.nodes_visited += nodes
    stats.branches += branches
    stats.prunes += prunes
    stats.solutions_found += solutions
    stats.max_stack_depth = max(stats.max_stack_depth, max_stack)
    stats.max_depth_reached = max(stats.max_depth_reached, max_depth)
    counters = stats.reductions
    counters.degree_one += c1
    counters.degree_two_triangle += c2
    counters.high_degree += ch
    counters.sweeps += sweeps
    return status


def _item(state: VCState, depth: int):
    """A stack item in the compiled loop's tuple form."""
    return (state.deg, state.cover_size, state.edge_count, state.dirty,
            state.max_deg_hint, depth)


def _search_compiled(graph: CSRGraph, formulation: Formulation,
                     root: Optional[VCState], frontier: LifoFrontier,
                     bound: BoundPolicy, kernels,
                     node_budget: Optional[int], stats: SearchStats) -> bool:
    """Run the loop in the backend's compiled ``search``; False if it cannot.

    Besides the configuration ``branch_and_reduce`` checks, this needs
    :func:`compiled_kind` to accept the formulation and bound.  The
    frontier is handed over bottom to top with ``root`` on top, and
    refilled with the remainder; it is left as it was when the backend
    has no compiled loop or the call raises.
    """
    kind = compiled_kind(formulation, bound)
    if kind is None:
        return False
    if root is None:
        root = fresh_state(graph)
    pending = frontier.drain()[::-1]
    items = [_item(s, depth) for s, depth in pending]
    items.append(_item(root, 0))
    out = None
    try:
        out = resolve_kernels(kernels).bind(graph.n, graph.m).search(
            graph, items, kind, _walk_bound(formulation, kind),
            None if node_budget is None else node_budget - stats.nodes_visited)
    finally:
        if out is None:
            for item in pending:
                frontier.push(item)
    if out is None:
        return False
    for deg, cover, edges, dirty, max_deg_hint, depth in out[14]:
        frontier.push((VCState(deg, cover, edges, dirty, max_deg_hint), depth))
    if _absorb_run(out, kind, formulation, stats) == 2:  # the budget tripped
        stats.extra["timed_out"] = 1.0
    stats.extra["native_search"] = 1.0
    return True


class ChunkWalk:
    """A depth-first walk resumed in node-budget chunks on one stack.

    The unit a caller that talks to others between chunks (a distributed
    worker) walks with: :meth:`push` sub-trees, :meth:`run` a chunk,
    :meth:`donate_bottom` or :meth:`drain` what is left.  When
    :func:`compiled_kind` accepts the configuration and the kernel
    backend offers a compiled :meth:`~KernelBackend.walker`, one native
    ``Walker`` holds the stack for the walk's whole life, so stack items
    cross into Python only when they are pushed, donated or drained.
    Otherwise each chunk is a ``branch_and_reduce`` call on a
    :class:`LifoFrontier` (the interpreted loop, with its fault guard and
    step spans).  Results accumulate into the formulation's holders and
    ``stats``, as ``branch_and_reduce`` leaves them.
    """

    def __init__(self, graph: CSRGraph, formulation: Formulation, *,
                 bound: Union[BoundPolicy, str] = "greedy", kernels=None,
                 stats: Optional[SearchStats] = None) -> None:
        self.graph = graph
        self.formulation = formulation
        self.stats = SearchStats() if stats is None else stats
        self._ws = Workspace.for_graph(graph)
        self._bound = make_bound(bound, graph, self._ws) if isinstance(bound, str) else bound
        self._kernels = resolve_kernels(kernels)
        self._kind = compiled_kind(formulation, self._bound)
        self._walker = None
        if self._kind is not None:
            self._walker = self._kernels.bind(graph.n, graph.m).walker(graph, self._kind)
        self._frontier = LifoFrontier()

    @property
    def walker(self):
        """The native ``Walker`` holding the stack, or ``None``."""
        return self._walker

    def __len__(self) -> int:
        return len(self._frontier if self._walker is None else self._walker)

    def push(self, states) -> None:
        """Push sub-tree roots at depth 0, the last on top."""
        if self._walker is None:
            for state in states:
                self._frontier.push((state, 0))
        else:
            self._walker.push([_item(state, 0) for state in states])

    def run(self, chunk: int) -> None:
        """Walk at most ``chunk`` nodes (none on an empty stack)."""
        stats = self.stats
        if self._walker is not None:
            out = self._walker.run(_walk_bound(self.formulation, self._kind), chunk)
            _absorb_run(out, self._kind, self.formulation, stats)
            return
        item = self._frontier.pop()
        if item is None:
            return
        branch_and_reduce(self.graph, self.formulation, ws=self._ws, root=item[0],
                          frontier=self._frontier, stats=stats, bound=self._bound,
                          kernels=self._kernels,
                          node_budget=stats.nodes_visited + chunk)
        stats.extra.pop("timed_out", None)

    def donate_bottom(self, k: int) -> List[VCState]:
        """Up to ``k`` sub-trees off the bottom, shallowest first; the top
        one always stays."""
        if self._walker is not None:
            return [VCState(*item[:5]) for item in self._walker.donate_bottom(k)]
        items = self._frontier.drain()[::-1]  # bottom to top
        give = max(0, min(k, len(items) - 1))
        for item in items[give:]:
            self._frontier.push(item)
        return [state for state, _ in items[:give]]

    def drain(self) -> List[VCState]:
        """Every sub-tree left, bottom first; the stack is empty after."""
        if self._walker is not None:
            return [VCState(*item[:5]) for item in self._walker.drain()]
        return [state for state, _ in self._frontier.drain()[::-1]]


def solve_mvc_sequential(
    graph: CSRGraph,
    *,
    node_budget: Optional[int] = None,
    deadline: Optional[float] = None,
    roots: Optional[Sequence[VCState]] = None,
    initial_best: Optional[Tuple[int, np.ndarray]] = None,
    pivot: PivotFn = max_degree_pivot,
    rng: Optional[np.random.Generator] = None,
    frontier: Union[Frontier, str, None] = None,
    bound: Union[BoundPolicy, str, None] = None,
    kernels=None,
) -> SolveOutcome:
    """Solve MINIMUM VERTEX COVER with the Fig. 1 algorithm.

    ``best`` is initialised from the greedy heuristic, exactly as the paper
    does before launching the traversal, or from ``initial_best``
    ``(size, cover)`` when that is smaller.  ``roots`` replaces the fresh
    root with sub-tree roots (a checkpoint's pending states); ``deadline``
    is a wall-clock budget in seconds (see :func:`branch_and_reduce`).
    """
    return _solve(graph, None, node_budget=node_budget, deadline=deadline,
                  roots=roots, initial_best=initial_best, pivot=pivot, rng=rng,
                  frontier=frontier, bound=bound, kernels=kernels)


def solve_pvc_sequential(
    graph: CSRGraph,
    k: int,
    *,
    node_budget: Optional[int] = None,
    deadline: Optional[float] = None,
    roots: Optional[Sequence[VCState]] = None,
    pivot: PivotFn = max_degree_pivot,
    rng: Optional[np.random.Generator] = None,
    frontier: Union[Frontier, str, None] = None,
    bound: Union[BoundPolicy, str, None] = None,
    kernels=None,
) -> SolveOutcome:
    """Solve PARAMETERIZED VERTEX COVER: find a cover of size at most ``k``.

    The search stops at its first accepted cover; the greedy bound plays
    no part (Section IV-E bounds the stack depth by ``k`` instead).
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    return _solve(graph, k, node_budget=node_budget, deadline=deadline,
                  roots=roots, initial_best=None, pivot=pivot, rng=rng,
                  frontier=frontier, bound=bound, kernels=kernels)


def _solve(graph: CSRGraph, k: Optional[int], *, node_budget, deadline, roots,
           initial_best, pivot, rng, frontier, bound, kernels) -> SolveOutcome:
    """The one sequential driver: MVC when ``k`` is None, else PVC."""
    start = time.perf_counter()
    stats = SearchStats()
    if graph.m == 0:
        return finish_outcome(graph, k, engine="sequential",
                              cover=np.empty(0, dtype=np.int32), stats=stats)
    ws = Workspace.for_graph(graph)
    formulation: Formulation
    if k is None:
        greedy = greedy_cover(graph, ws, kernels=kernels)
        best = BestBound(size=greedy.size, cover=greedy.cover)
        if initial_best is not None and initial_best[0] < best.size:
            best = BestBound(size=int(initial_best[0]),
                             cover=np.asarray(initial_best[1], dtype=np.int32))
        formulation = MVCFormulation(best)
    else:
        flag = FoundFlag()
        formulation = PVCFormulation(k=k, flag=flag)
    policy = (bound if isinstance(bound, BoundPolicy)
              else make_bound(bound or "greedy", graph, ws))
    worklist = (LifoFrontier() if frontier is None
                else make_frontier(frontier, bound=policy) if isinstance(frontier, str)
                else frontier)
    root = None
    if roots is not None:
        root = roots[0]
        for state in roots[1:]:
            worklist.push((state, 0))
    branch_and_reduce(graph, formulation, ws=ws, node_budget=node_budget,
                      deadline=deadline, pivot=pivot, rng=rng, root=root,
                      stats=stats, frontier=worklist, bound=policy, kernels=kernels)
    interrupted = bool(stats.extra.get("timed_out"))
    if k is None:
        cover, size = best.cover, best.size
    else:
        cover, size = flag.cover, flag.size
    return finish_outcome(
        graph, k, engine="sequential", cover=cover, size=size,
        interrupted=interrupted,
        deadline_tripped=bool(stats.extra.get("deadline_tripped")),
        nodes=stats.nodes_visited, pending=worklist.drain() if interrupted else (),
        bound=policy, frontier=frontier if isinstance(frontier, str) else None,
        wall_seconds=time.perf_counter() - start, stats=stats,
        supervision={"recovered": stats.extra.get("faults_recovered", 0.0),
                     "workers_lost": 0.0})
