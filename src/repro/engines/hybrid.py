"""The paper's contribution: hybrid local-stack + global-worklist engine (Fig. 4).

Each thread block traverses depth-first with its local stack, but every
time it branches it first inspects the global worklist: if the population
is below ``threshold`` the deferred child is *donated* to the worklist so
idle blocks can pick it up; otherwise it goes to the local stack.  Blocks
that run dry pop their stack first and only then turn to the worklist,
which keeps contention low (Section IV-A).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional

from ..core.frontier import hybrid_should_donate
from ..sim.context import BlockContext
from ..sim.costmodel import CostModel
from ..sim.device import SMALL_SIM, DeviceSpec
from .base import PRUNED, SOLUTION, SimEngineBase

__all__ = ["HybridEngine"]


class HybridEngine(SimEngineBase):
    """Hybrid work distribution with dynamic load balancing."""

    name = "hybrid"

    def __init__(
        self,
        device: DeviceSpec = SMALL_SIM,
        cost_model: Optional[CostModel] = None,
        worklist_capacity: int = 1024,
        worklist_threshold_fraction: float = 0.25,
        block_size_override: Optional[int] = None,
        bound: str = "greedy",
    ):
        super().__init__(device, cost_model, worklist_capacity, block_size_override,
                         bound=bound)
        if not 0.0 < worklist_threshold_fraction <= 1.0:
            raise ValueError("threshold fraction must lie in (0, 1]")
        self.worklist_threshold_fraction = worklist_threshold_fraction

    @property
    def threshold(self) -> int:
        """Worklist population below which blocks donate work (Fig. 4 line 23)."""
        return max(1, int(self.worklist_capacity * self.worklist_threshold_fraction))

    def _params(self) -> Dict[str, Any]:
        params = super()._params()
        params["worklist_threshold"] = self.threshold
        params["worklist_threshold_fraction"] = self.worklist_threshold_fraction
        return params

    def _program(self, ctx: BlockContext) -> Iterator[float]:
        shared = ctx.shared
        threshold = self.threshold
        current = None
        while True:
            if shared.stop_search() and not shared.done:
                # PVC found-flag / node-budget check at the top of the loop.
                break
            if current is None:
                if not ctx.stack.empty:
                    current = ctx.stack.pop()
                    ctx.charge_cycles("stack_pop",
                                      shared.cost.op_cycles("stack_pop", 0.0, shared.launch.block_size,
                                                            use_shared=shared.launch.use_shared_mem)
                                      + ctx.state_move_cycles())
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
            deferred, current = outcome
            # Fig. 4 lines 23-26: donate to the worklist while it is hungry
            # (the one threshold predicate every hybrid variant shares).
            if not hybrid_should_donate(shared.worklist.population, threshold):
                ctx.stack.push(deferred)
                ctx.charge_cycles("stack_push",
                                  shared.cost.op_cycles("stack_push", 0.0, shared.launch.block_size,
                                                        use_shared=shared.launch.use_shared_mem)
                                  + ctx.state_move_cycles())
            else:
                accepted, cycles = shared.worklist.add(deferred, ctx.now)
                ctx.charge_cycles("wl_add", cycles + ctx.state_move_cycles())
                if not accepted:  # capacity race: fall back to the stack
                    ctx.stack.push(deferred)
                    ctx.charge_cycles("stack_push", ctx.state_move_cycles())
            yield ctx.take_pending()
        if current is not None:
            ctx.leftover.append(current)  # interrupted in-flight node
        shared.active -= 1
        ctx.charge_cycles("terminate",
                          shared.cost.op_cycles("terminate", 0.0, shared.launch.block_size,
                                                use_shared=shared.launch.use_shared_mem))
        yield ctx.take_pending()
