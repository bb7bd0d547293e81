"""Shared launch state and per-block execution context.

A :class:`SharedState` is the simulated device's global memory: the CSR
graph, the formulation's shared holders (incumbent bound / found flag), the
global worklist, and the termination-protocol counters.  Because the DES
resumes blocks in simulated-time order, plain Python mutation here is
equivalent to the CUDA implementation's atomics.

A :class:`BlockContext` is one thread block's view: its clock (written by
the scheduler before each resume), its local stack, its metrics, and the
``charge`` helpers that convert work units into cycles via the cost model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

from ..core.bounds import DEFAULT_BOUND, make_bound
from ..core.formulation import Formulation
from ..core.nodestep import NodeStep
from ..core.parallel_reductions import apply_reductions_parallel
from ..graph.csr import CSRGraph
from ..graph.degree_array import Workspace
from .broker import BrokerWorklist
from .costmodel import CostModel
from .device import DeviceSpec
from .launch import LaunchConfig
from .local_stack import LocalStack
from .metrics import BlockMetrics

__all__ = ["SharedState", "BlockContext"]


@dataclass
class SharedState:
    """Device-global state for one kernel launch."""

    graph: CSRGraph
    formulation: Formulation
    worklist: BrokerWorklist
    device: DeviceSpec
    launch: LaunchConfig
    cost: CostModel
    num_blocks: int
    node_budget: Optional[int] = None
    cycle_budget: Optional[float] = None
    #: bound-policy name every block's NodeStep prunes with (BOUNDS registry).
    bound: str = DEFAULT_BOUND
    #: wall-clock deadline (absolute ``time.monotonic`` value) — the
    #: ``deadline`` option's real-time breaker, distinct from the *virtual*
    #: cycle budget.
    deadline_at: Optional[float] = None
    nodes_visited: int = 0
    timed_out: bool = False
    deadline_tripped: bool = False
    waiting: int = 0
    active: int = 0
    done: bool = False
    subtree_cursor: int = 0   # StackOnly's next sub-tree index
    subtree_total: int = 0

    def note_node(self) -> None:
        """Count a visited tree node; trip the budget breaker if configured."""
        self.nodes_visited += 1
        if self.node_budget is not None and self.nodes_visited >= self.node_budget:
            self.timed_out = True
        if self.deadline_at is not None and time.monotonic() >= self.deadline_at:
            self.timed_out = True
            self.deadline_tripped = True

    def check_time(self, now: float) -> None:
        """Trip the (virtual) wall-clock breaker — the paper's two-hour cap."""
        if self.cycle_budget is not None and now > self.cycle_budget:
            self.timed_out = True

    def stop_search(self) -> bool:
        """True when every block should wind down."""
        return self.timed_out or self.done or self.formulation.stop_requested()

    def next_subtree(self) -> Optional[int]:
        """StackOnly's atomic sub-tree dispenser (hardware block dispatch)."""
        if self.subtree_cursor >= self.subtree_total:
            return None
        idx = self.subtree_cursor
        self.subtree_cursor += 1
        return idx


class BlockContext:
    """One simulated thread block's execution context."""

    __slots__ = ("block_id", "sm_id", "shared", "stack", "ws", "step", "metrics",
                 "now", "_pending", "tracer", "leftover")

    def __init__(self, block_id: int, sm_id: int, shared: SharedState, stack_bound: int):
        self.block_id = block_id
        self.sm_id = sm_id
        self.shared = shared
        self.stack = LocalStack(stack_bound)
        self.ws = Workspace.for_graph(shared.graph)
        # The shared node step, metered through this block's charge hook
        # with the Section IV-D parallel-semantics reduction rules and the
        # launch's bound policy (non-default bounds charge `lower_bound`).
        # faultable=False: a FaultInjected raise inside a cycle-charged
        # generator program would desynchronize the DES charge stream, not
        # model a recoverable crash — fault sites target the real engines.
        self.step = NodeStep(
            shared.graph, shared.formulation, self.ws,
            reducer=apply_reductions_parallel, charge=self.charge_units,
            bound=make_bound(shared.bound, shared.graph, self.ws),
            faultable=False,
        )
        self.metrics = BlockMetrics(block_id=block_id, sm_id=sm_id)
        self.now = 0.0           # written by the scheduler before each resume
        self._pending = 0.0      # cycles charged since the last yield
        self.tracer = None       # optional clock="cycles" repro.obs.trace.WallTracer
        #: states this block still held when the launch was interrupted —
        #: the engine programs deposit their in-flight node here on exit,
        #: and the base engine folds it into the outcome's checkpoint.
        self.leftover: List = []

    # ------------------------------------------------------------------ #
    # charging
    # ------------------------------------------------------------------ #
    def charge_units(self, kind: str, units: float) -> None:
        """ChargeFn-compatible callback: work units → cycles via the model.

        ``state_copy`` charges from :func:`expand_children` are dropped
        here; the copy cost is instead charged when the child state is
        actually moved (stack push or worklist add), which is where the
        CUDA implementation pays it.
        """
        if kind == "state_copy":
            return
        self.charge_cycles(kind, self.shared.cost.op_cycles(
            kind, units, self.shared.launch.block_size,
            use_shared=self.shared.launch.use_shared_mem,
        ))

    def charge_cycles(self, kind: str, cycles: float) -> None:
        """Charge pre-computed cycles (worklist ops report their own cost).

        A traced launch gets one span per positive charge; it begins
        after the work already pending since the last yield completes.
        """
        self.metrics.charge(kind, cycles)
        self._pending += cycles
        if self.tracer is not None and cycles > 0:
            start = self.now + self._pending - cycles
            self.tracer.add(kind, start, start + cycles, self.sm_id, self.block_id)

    def state_move_cycles(self) -> float:
        """Cycles to copy one degree array between memory spaces."""
        return self.shared.cost.state_move_cycles(
            self.shared.graph.n, self.shared.launch.block_size,
            use_shared=self.shared.launch.use_shared_mem,
        )

    def take_pending(self) -> float:
        """Cycles accumulated since the last yield (the next yield value)."""
        out = self._pending
        self._pending = 0.0
        return out
