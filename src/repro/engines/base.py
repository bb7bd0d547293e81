"""Common scaffolding for the simulated-GPU engines.

All three GPU engines (StackOnly, Hybrid, GlobalOnly) share:

* the launch ritual — greedy bound on the "CPU", stack-depth bound, launch
  configuration per Section IV-E, block/SM placement;
* the per-tree-node processing step — the shared
  :class:`~repro.core.nodestep.NodeStep` (reduce → prune-check →
  find-max → accept-or-branch), charged through the cost model with the
  parallel-semantics reduction rules of Section IV-D;
* the worklist wait/termination protocol of Section IV-C.

Engine subclasses provide only their frontier discipline as a block
program (a generator yielding cycle costs) composing the step with the
bounded local stack and/or the broker worklist.

Cross-node dirty propagation: the states produced by ``expand_children``
carry the branch step's touched-vertex hint (``VCState.dirty``) through
the per-block local stacks and the global worklist unchanged.  The
simulated engines' ``reduce`` is the Section IV-D charged cascade, which
deliberately consumes the hint *unhonoured* — its per-sweep full scans
are the paper's work meter, so makespans and Table I cycles stay
bit-identical to the pre-hint trees.  Only the wall-clock CPU paths
(the sequential solver and the socket engine's workers) seed their
cascades from it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core import nodestep
from ..core.formulation import (
    BestBound,
    Formulation,
    FoundFlag,
    MVCFormulation,
    PVCFormulation,
)
from ..core.greedy import greedy_cover
from ..core.outcome import SolveOutcome, finish_outcome
from ..graph.csr import CSRGraph
from ..graph.degree_array import VCState, fresh_state
from ..sim.broker import BrokerWorklist
from ..sim.context import BlockContext, SharedState
from ..sim.costmodel import CostModel
from ..sim.device import SMALL_SIM, DeviceSpec
from ..sim.launch import LaunchConfig, select_launch_config
from ..sim.metrics import LaunchMetrics
from ..sim.scheduler import Simulator

__all__ = ["LaunchReport", "SimEngineBase", "PRUNED", "SOLUTION"]

#: Sentinels returned by the node-processing step.
PRUNED = "pruned"
SOLUTION = "solution"


@dataclass
class LaunchReport:
    """What one simulated kernel launch measured; rides in
    :attr:`SolveOutcome.stats <repro.core.outcome.SolveOutcome>`."""

    makespan_cycles: float
    sim_seconds: float
    launch: LaunchConfig
    metrics: LaunchMetrics
    worklist_stats: Optional[Any] = None
    params: Dict[str, Any] = field(default_factory=dict)


class SimEngineBase:
    """Base class for the simulated-GPU traversal engines."""

    name = "abstract"

    def __init__(
        self,
        device: DeviceSpec = SMALL_SIM,
        cost_model: Optional[CostModel] = None,
        worklist_capacity: int = 1024,
        block_size_override: Optional[int] = None,
        bound: str = "greedy",
        kernels: Optional[str] = None,
    ):
        from ..core.bounds import BOUNDS
        from ..core.kernel_backends import KERNELS

        self.device = device
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.worklist_capacity = worklist_capacity
        self.block_size_override = block_size_override
        if bound not in BOUNDS:
            raise ValueError(f"unknown bound {bound!r}; choose from {sorted(BOUNDS)}")
        #: bound-policy name every block's NodeStep prunes with; the
        #: default keeps makespans bit-identical to the pre-bound engines,
        #: non-default policies charge `lower_bound` cycles (costmodel.py).
        self.bound = bound
        if kernels is not None and kernels not in KERNELS:
            raise ValueError(
                f"unknown kernels {kernels!r}; choose from: {', '.join(sorted(KERNELS))}"
            )
        #: kernel-backend name for the launch's *uncharged* host-side work
        #: (the greedy bound pass).  The blocks' charged cascades are the
        #: Section IV-D parallel-semantics rules regardless — backends are
        #: bit-identical, so makespans and Table I never depend on this.
        self.kernels = kernels
        #: optional ``WallTracer(clock="cycles")`` (repro.obs.trace)
        #: receiving one span per charge of every block
        self.tracer = None

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def solve_mvc(
        self,
        graph: CSRGraph,
        *,
        node_budget: Optional[int] = None,
        cycle_budget: Optional[float] = None,
        deadline: Optional[float] = None,
        roots: Optional[Sequence[VCState]] = None,
        initial_best: Optional[Tuple[int, np.ndarray]] = None,
        **_: Any,
    ) -> SolveOutcome:
        """Minimum vertex cover on the simulated device.

        ``deadline`` is a wall-clock budget in seconds; ``roots`` seeds the
        launch from a checkpoint's pending states instead of the fresh
        root; ``initial_best`` ``(size, cover)`` pre-loads an incumbent
        stronger than the greedy one.
        """
        greedy = greedy_cover(graph, kernels=self.kernels)
        best = BestBound(size=greedy.size, cover=greedy.cover)
        if initial_best is not None and initial_best[0] < best.size:
            best = BestBound(size=int(initial_best[0]),
                             cover=np.asarray(initial_best[1], dtype=np.int32))
        return self._run(graph, MVCFormulation(best), max(greedy.size + 1, 2),
                         node_budget, cycle_budget=cycle_budget, deadline=deadline,
                         roots=roots)

    def solve_pvc(
        self,
        graph: CSRGraph,
        k: int,
        *,
        node_budget: Optional[int] = None,
        cycle_budget: Optional[float] = None,
        deadline: Optional[float] = None,
        roots: Optional[Sequence[VCState]] = None,
        **_: Any,
    ) -> SolveOutcome:
        """Parameterized vertex cover on the simulated device."""
        if k < 0:
            raise ValueError("k must be non-negative")
        return self._run(graph, PVCFormulation(k=k, flag=FoundFlag()), max(k + 1, 2),
                         node_budget, cycle_budget=cycle_budget, deadline=deadline,
                         roots=roots)

    # ------------------------------------------------------------------ #
    # launch machinery
    # ------------------------------------------------------------------ #
    def _run(
        self,
        graph: CSRGraph,
        formulation: Formulation,
        depth_bound: int,
        node_budget: Optional[int],
        cycle_budget: Optional[float] = None,
        deadline: Optional[float] = None,
        roots: Optional[Sequence[VCState]] = None,
    ) -> SolveOutcome:
        start = time.perf_counter()
        k = formulation.k if isinstance(formulation, PVCFormulation) else None
        if graph.m == 0:
            launch = select_launch_config(self.device, max(graph.n, 1), 1)
            report = LaunchReport(0.0, 0.0, launch,
                                  LaunchMetrics(blocks=[], num_sms=self.device.num_sms),
                                  params=self._params())
            return finish_outcome(graph, k, engine=self.name,
                                  cover=np.empty(0, dtype=np.int32), stats=report)
        launch = select_launch_config(
            self.device, graph.n, depth_bound, block_size_override=self.block_size_override
        )
        worklist = BrokerWorklist(
            capacity=self.worklist_capacity,
            serial_cycles=self.cost_model.worklist_serial_cycles,
        )
        shared = SharedState(
            graph=graph,
            formulation=formulation,
            worklist=worklist,
            device=self.device,
            launch=launch,
            cost=self.cost_model,
            num_blocks=launch.num_blocks,
            node_budget=node_budget,
            cycle_budget=cycle_budget,
            bound=self.bound,
        )
        if deadline is not None:
            shared.deadline_at = time.monotonic() + deadline
        shared.active = launch.num_blocks
        self._seed(shared, roots)
        contexts = [
            BlockContext(b, b % self.device.num_sms, shared, depth_bound)
            for b in range(launch.num_blocks)
        ]
        if self.tracer is not None:
            for ctx in contexts:
                ctx.tracer = self.tracer
        programs = [self._program(ctx) for ctx in contexts]
        sim = Simulator()
        makespan = sim.run(programs, clocks=contexts)
        worklist.audit()
        metrics = LaunchMetrics(
            blocks=[c.metrics for c in contexts],
            num_sms=self.device.num_sms,
            makespan_cycles=makespan,
        )
        for ctx in contexts:
            ctx.metrics.peak_stack_depth = ctx.stack.peak_depth
            ctx.metrics.finish_time = ctx.now
        # Interrupted launches leave their unexplored remainder spread over
        # block stacks, in-flight deposits, the worklist, and (StackOnly)
        # the undispensed sub-trees — gather all of it so the checkpoint
        # holds a frontier that dominates the untraversed tree.
        pending: List[VCState] = []
        if shared.timed_out:
            for ctx in contexts:
                pending.extend(ctx.stack.entries)
                pending.extend(ctx.leftover)
            if worklist.entries:
                pending.extend(worklist.entries)
                worklist.entries.clear()
            pending.extend(self._unstarted_roots(shared))
        if k is None:
            cover, size = formulation.best.cover, formulation.best.size
        else:
            cover, size = formulation.flag.cover, formulation.flag.size
        return finish_outcome(
            graph, k, engine=self.name, cover=cover, size=size,
            interrupted=shared.timed_out, deadline_tripped=shared.deadline_tripped,
            nodes=shared.nodes_visited, pending=[(state, 0) for state in pending],
            bound=self.bound, wall_seconds=time.perf_counter() - start,
            stats=LaunchReport(
                makespan_cycles=makespan,
                sim_seconds=self.device.cycles_to_seconds(makespan),
                launch=launch,
                metrics=metrics,
                worklist_stats=worklist.stats,
                params=self._params(),
            ))

    # ------------------------------------------------------------------ #
    # hooks
    # ------------------------------------------------------------------ #
    def _seed(self, shared: SharedState, roots: Optional[Sequence[VCState]] = None) -> None:
        """Prepare shared state before blocks start (e.g. enqueue the root).

        ``roots`` replaces the fresh root with a checkpoint's pending
        states (anytime resume); the default engine feeds them all through
        the global worklist.
        """
        states = [fresh_state(shared.graph)] if roots is None else list(roots)
        for state in states:
            shared.worklist.entries.append(state)
            shared.worklist.stats.adds += 1
        shared.worklist.stats.peak_population = max(
            shared.worklist.stats.peak_population, shared.worklist.population
        )

    def _unstarted_roots(self, shared: SharedState) -> List[VCState]:
        """Sub-tree roots an interrupted launch never dispensed (StackOnly)."""
        return []

    def _program(self, ctx: BlockContext) -> Iterator[float]:
        raise NotImplementedError

    def _params(self) -> Dict[str, Any]:
        params = {
            "device": self.device.name,
            "worklist_capacity": self.worklist_capacity,
            "block_size_override": self.block_size_override,
            "bound": self.bound,
        }
        if self.kernels is not None:
            params["kernels"] = self.kernels
        return params

    # ------------------------------------------------------------------ #
    # shared traversal steps
    # ------------------------------------------------------------------ #
    @staticmethod
    def process_node(ctx: BlockContext, state: VCState) -> Union[str, Tuple[VCState, VCState]]:
        """One Fig. 4 iteration body: the shared node step plus sim bookkeeping.

        Returns :data:`PRUNED`, :data:`SOLUTION`, or the pair
        ``(deferred_child, continued_child)``.  The step itself — reduce,
        prune-check, find-max, branch — is the one
        :class:`~repro.core.nodestep.NodeStep` every engine composes
        (bound to this block's charge hook in ``BlockContext``); this
        wrapper adds the device-side bookkeeping (node counting, the
        virtual-time breaker) and performs the Fig. 4 line 17 acceptance,
        which in the DES is a shared-memory interaction linearised between
        yields.  All work is charged to the block; the caller yields
        ``ctx.take_pending()`` afterwards.
        """
        shared = ctx.shared
        ctx.metrics.nodes_visited += 1
        shared.check_time(ctx.now)
        shared.note_node()
        outcome = ctx.step.run(state)
        if outcome is nodestep.PRUNED:
            return PRUNED
        if outcome is nodestep.LEAF:
            # No edges remain: a vertex cover has been found (Fig. 4 line 17).
            shared.formulation.accept(state)
            ctx.ws.release_deg(state.deg)  # accept() extracted the cover
            return SOLUTION
        return outcome.deferred, outcome.continued

    @staticmethod
    def wl_wait_remove(ctx: BlockContext) -> Iterator[float]:
        """Section IV-C's removal loop; a generator used via ``yield from``.

        Returns (via ``StopIteration.value``) the obtained state, or
        ``None`` when the traversal is globally finished.
        """
        shared = ctx.shared
        shared.waiting += 1
        while True:
            if shared.stop_search():
                shared.waiting -= 1
                return None
            state, cycles = shared.worklist.try_remove(ctx.now)
            if state is not None:
                # Leave the waiting set *before* yielding: another block must
                # not count us as idle while we hold a tree node, or it could
                # falsely declare global termination.
                shared.waiting -= 1
                ctx.charge_cycles("wl_remove", cycles + ctx.state_move_cycles())
                yield ctx.take_pending()
                ctx.metrics.subtrees_taken += 1
                return state
            ctx.charge_cycles("wl_remove", cycles)
            # Failed removal: are we all waiting on an empty list?
            if shared.waiting >= shared.active and shared.worklist.population == 0:
                shared.done = True
                shared.waiting -= 1
                yield ctx.take_pending()
                return None
            ctx.charge_cycles("wl_remove", shared.cost.worklist_sleep_cycles)
            ctx.metrics.wl_sleeps += 1
            yield ctx.take_pending()
