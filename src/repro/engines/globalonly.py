"""Pure global-worklist traversal: the Section IV-A ablation.

Every tree node is a unit of work; on branching, *both* children are
pushed to the global worklist and the block asks the worklist for its next
node.  This maximises extractable parallelism and load balance, but (a)
turns the traversal breadth-first, exploding the worklist population, and
(b) funnels every node through the broker's serialised critical section.
The engine exists to measure exactly those two drawbacks against the
hybrid scheme.

When the worklist saturates, a block keeps its own children on a small
local spill list (tracked in the metrics) — the real implementation would
simply corrupt or drop work, which is not a useful failure mode to model.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional

from ..core.frontier import LifoFrontier
from ..graph.degree_array import VCState
from ..sim.context import BlockContext
from ..sim.costmodel import CostModel
from ..sim.device import SMALL_SIM, DeviceSpec
from .base import PRUNED, SOLUTION, SimEngineBase

__all__ = ["GlobalOnlyEngine"]


class GlobalOnlyEngine(SimEngineBase):
    """One-node-per-grab traversal through the global worklist only."""

    name = "globalonly"

    def __init__(
        self,
        device: DeviceSpec = SMALL_SIM,
        cost_model: Optional[CostModel] = None,
        worklist_capacity: int = 8192,
        block_size_override: Optional[int] = None,
        bound: str = "greedy",
    ):
        super().__init__(device, cost_model, worklist_capacity, block_size_override,
                         bound=bound)

    def _params(self) -> Dict[str, Any]:
        return super()._params()

    def _program(self, ctx: BlockContext) -> Iterator[float]:
        shared = ctx.shared
        spill: LifoFrontier = LifoFrontier()  # saturation overflow, not policy
        current: Optional[VCState] = None
        while True:
            if shared.stop_search() and not shared.done:
                break
            if current is None:
                if spill:
                    current = spill.pop()
                    ctx.charge_cycles("stack_pop", ctx.state_move_cycles())
                    yield ctx.take_pending()
                else:
                    current = yield from self.wl_wait_remove(ctx)
                    if current is None:
                        break
                if shared.timed_out:  # a budget tripped while this block waited
                    break
            outcome = self.process_node(ctx, current)
            if outcome is PRUNED or outcome is SOLUTION:
                yield ctx.take_pending()
                current = None
                continue
            deferred, continued = outcome
            accepted, cycles = shared.worklist.add(deferred, ctx.now)
            ctx.charge_cycles("wl_add", cycles + ctx.state_move_cycles())
            if not accepted:
                spill.push(deferred)
                ctx.charge_cycles("stack_push", ctx.state_move_cycles())
                ctx.metrics.peak_stack_depth = max(ctx.metrics.peak_stack_depth, len(spill))
            accepted, cycles = shared.worklist.add(continued, ctx.now)
            ctx.charge_cycles("wl_add", cycles + ctx.state_move_cycles())
            if accepted:
                current = None
            else:
                # Saturated: keep processing this child ourselves.
                current = continued
            yield ctx.take_pending()
        if current is not None:
            ctx.leftover.append(current)  # interrupted in-flight node
        ctx.leftover.extend(spill.drain())
        shared.active -= 1
        ctx.charge_cycles(
            "terminate",
            shared.cost.op_cycles("terminate", 0.0, shared.launch.block_size,
                                  use_shared=shared.launch.use_shared_mem),
        )
        yield ctx.take_pending()
