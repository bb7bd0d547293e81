"""The one branch-and-reduce node step every engine runs.

The paper's fairness note — "all versions use the same data structure and
reduction rules" — is enforced structurally here: the body of one search
tree node (Fig. 1 lines 4-11 / Fig. 4 lines 10-29) lives in exactly one
place, and every traversal discipline (sequential stack, simulated GPU
blocks, real thread/process workers) composes it with a frontier policy
from :mod:`repro.core.frontier`.

One step is ``reduce → prune-check → find-max → leaf-check → branch``:

1. run the reduction cascade (whichever ``reducer`` the engine meters
   work with) to its fixpoint;
2. if the active bound policy (:mod:`repro.core.bounds`) prunes the node
   under the formulation's budget, recycle its degree-array buffer and
   report :data:`PRUNED`; non-default bounds charge their evaluation to
   the ``lower_bound`` activity kind first (the default ``greedy`` prune
   is free by construction, keeping the Table I meters untouched);
3. charge the ``find_max`` degree scan, exactly where every engine pays
   it;
4. if no edges remain the node *is* a cover: report :data:`LEAF` — the
   caller performs ``formulation.accept`` itself because acceptance is a
   shared-state interaction (lock discipline, stop propagation) that
   differs per engine;
5. otherwise pick a pivot and expand the two children
   (``G - N(vmax)`` deferred, ``G - vmax`` continued).

State that crosses the step boundary — the ``dirty`` touched-vertex hint,
the stale-high ``max_deg_hint``, and any future :class:`VCState` field —
therefore crosses it in exactly one place, whatever the engine.

Performance contract: :meth:`NodeStep.run` is the hot-path entry (a
closure with every dependency bound at construction — no per-node
attribute lookups), and the returned :class:`Children` object is a
*reused* scratch instance, valid only until the same step runs again.
Every current caller unpacks it immediately; a caller that must retain
both children across steps copies the two references out first.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple, Union

import numpy as np

from .. import faults, obs
from ..graph.csr import CSRGraph
from ..graph.degree_array import VCState, Workspace
from .bounds import BoundPolicy, GreedyBound, make_bound
from .branching import PivotFn, expand_children, max_degree_pivot
from .formulation import Formulation
from .kernel_backends import KernelBackend, resolve_kernels
from .stats import ChargeFn, ReductionCounters, null_charge

__all__ = [
    "PRUNED",
    "LEAF",
    "Children",
    "StepOutcome",
    "NodeStep",
    "Reducer",
    "default_reducer",
]

#: A reduction cascade: ``reducer(graph, state, formulation, ws, charge=,
#: counters=)`` mutating ``state`` to the rules' fixpoint.
Reducer = Callable[..., None]


class _Sentinel:
    """Identity-compared step outcome marker."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<StepOutcome {self.name}>"


#: The formulation's bound killed the node (its buffer is already recycled).
PRUNED = _Sentinel("PRUNED")

#: No edges remain: the input state is a cover.  The caller accepts it
#: (under its own lock discipline) and recycles the buffer.
LEAF = _Sentinel("LEAF")


class Children:
    """A branching outcome: ``(deferred, continued)`` in Fig. 4 order.

    ``deferred`` removes all neighbours of the pivot into the cover and
    goes to the frontier; ``continued`` removes the pivot alone and is the
    state the caller keeps processing (it *is* the mutated input state).
    Instances returned by :class:`NodeStep` are reused scratch — consume
    them before the next step call.
    """

    __slots__ = ("deferred", "continued")

    def __init__(self, deferred: Optional[VCState] = None,
                 continued: Optional[VCState] = None) -> None:
        self.deferred = deferred
        self.continued = continued

    def __iter__(self):
        yield self.deferred
        yield self.continued


StepOutcome = Union[_Sentinel, Children]


def default_reducer(charge: ChargeFn,
                    kernels: Optional[KernelBackend] = None) -> Reducer:
    """The sequential baseline's reducer choice (see ``branch_and_reduce``).

    Uncharged runs take the selected kernel backend's cascade (the
    wall-clock hot path, ``KERNELS`` registry); charged runs keep the
    reference rules, whose per-sweep charge stream *is* the Table I work
    meter.  Every backend reaches the same fixpoint, so results never
    depend on the choice.
    """
    from .reductions import apply_reductions_reference

    if charge is null_charge:
        return resolve_kernels(kernels).cascade
    return apply_reductions_reference


class NodeStep:
    """One search-tree node's processing step, bound to one traversal.

    Parameterized by the reduction cascade, the formulation (budget /
    acceptance), the bound policy (prune strength, from the ``BOUNDS``
    registry), the pivot strategy, and the engine's charge hook.
    Construct once per traversal (or per worker — it owns no cross-node
    state beyond the workspace's scratch) and call :attr:`run` per node.
    """

    __slots__ = ("graph", "formulation", "ws", "reducer", "pivot", "rng",
                 "charge", "counters", "bound", "kernels", "run")

    def __init__(
        self,
        graph: CSRGraph,
        formulation: Formulation,
        ws: Workspace,
        *,
        reducer: Optional[Reducer] = None,
        pivot: PivotFn = max_degree_pivot,
        rng: Optional[np.random.Generator] = None,
        charge: ChargeFn = null_charge,
        counters: Optional[ReductionCounters] = None,
        bound: Union[BoundPolicy, str, None] = None,
        kernels: Union[KernelBackend, str, None] = None,
        faultable: bool = True,
    ) -> None:
        # The kernel backend (KERNELS registry: name, instance, or None
        # for the default) is resolved once per traversal — for
        # ``auto``, to the concrete backend it picks — and bound into
        # both hot-path calls below, so no node pays the dispatch.
        kernels = resolve_kernels(kernels).bind(graph.n, graph.m)
        if reducer is None:
            reducer = default_reducer(charge, kernels)
        if bound is None or isinstance(bound, str):
            bound = make_bound(bound or "greedy", graph, ws)
        self.graph = graph
        self.formulation = formulation
        self.ws = ws
        self.reducer = reducer
        self.pivot = pivot
        self.rng = rng
        self.charge = charge
        self.counters = counters
        self.bound = bound
        self.kernels = kernels

        # Bind every dependency into the closure: the per-node cost of the
        # step wrapper is one function call, not a chain of attribute
        # lookups (the sequential acceptance bar is a <=2% solver delta).
        children = Children()
        n_units = float(graph.n)
        # The default policy's test IS formulation.prune (two comparisons
        # over carried counters) — bind it directly so the default hot
        # path pays zero extra calls per node.  Non-default policies go
        # through the budget composition; *charged* ones meter each
        # evaluation to the `lower_bound` kind — emitted only when the
        # policy actually evaluates (the free Buss pre-test and negative
        # budgets kill the node without paying), priced at the policy's
        # full `cost_units` (a deterministic worst case; cap truncation
        # is not modelled).  The default greedy prune never charges,
        # which keeps its charge stream — and every Table I / makespan
        # number — bit-identical to the pre-bound-layer engines.
        if type(bound) is GreedyBound:
            prune = formulation.prune
        else:
            budget = formulation.budget
            bound_prune = bound.prune
            if bound.charged:
                cost_units = bound.cost_units

                def prune(state: VCState) -> bool:
                    b = budget(state.cover_size)
                    if b < 0 or state.edge_count > b * b:
                        return True  # Buss pre-test: nothing evaluated
                    charge("lower_bound", cost_units(state))
                    return bound_prune(state, b)
            else:

                def prune(state: VCState) -> bool:
                    return bound_prune(state, budget(state.cover_size))

        # Tracing follows the same construction-time rule as the fault
        # wrapping below: an armed tracer (repro.obs) rebuilds the step
        # around `cascade`/`bound`/`node_step` spans, whose self-time is
        # the per-kind wall attribution, while an untraced step binds the
        # bare callables, paying nothing per node.
        telemetry = obs.step_telemetry()
        if telemetry is not None:
            reducer = telemetry.wrap_reducer(reducer)
            prune = telemetry.wrap_prune(prune)

        release_deg = ws.release_deg
        if charge is null_charge and ws.n == graph.n:
            expand = kernels.expand_children
        else:
            def expand(g: CSRGraph, state: VCState, vmax: int,
                       w: Workspace) -> Tuple[VCState, VCState]:
                return expand_children(g, state, vmax, w, charge=charge)

        def run(state: VCState,
                _reducer: Reducer = reducer,
                _graph: CSRGraph = graph,
                _formulation: Formulation = formulation,
                _ws: Workspace = ws,
                _charge: ChargeFn = charge,
                _counters: Optional[ReductionCounters] = counters,
                _prune: Callable[[VCState], bool] = prune,
                _release: Callable[[np.ndarray], None] = release_deg,
                _pivot: PivotFn = pivot,
                _rng: Optional[np.random.Generator] = rng,
                _children: Children = children,
                _expand: Callable[..., Tuple[VCState, VCState]] = expand,
                _n: float = n_units) -> StepOutcome:
            _reducer(_graph, state, _formulation, _ws, charge=_charge,
                     counters=_counters)
            if _prune(state):
                _release(state.deg)  # dead branch: recycle its buffer
                return PRUNED
            _charge("find_max", _n)
            if state.edge_count == 0:
                return LEAF
            vmax = _pivot(state, _rng)
            deferred, continued = _expand(_graph, state, vmax, _ws)
            _children.deferred = deferred
            _children.continued = continued
            return _children

        if telemetry is not None:
            run = telemetry.wrap_run(run)

        # Fault-injection wrapping is decided once, at construction: the
        # clean path binds the bare closure (zero overhead), and the sim
        # engines opt out entirely (``faultable=False``) because a raise
        # inside a cycle-charged generator program would desynchronize the
        # simulator's charge stream rather than model a recoverable crash.
        if faultable and faults.step_guard_active():
            bare_run = run
            fire = faults.fire

            def run(state: VCState) -> StepOutcome:  # type: ignore[misc]
                fire("reduce_raise")
                outcome = bare_run(state)
                if outcome is not PRUNED and outcome is not LEAF:
                    fire("branch_raise")
                return outcome

        self.run = run

    def __call__(self, state: VCState) -> StepOutcome:
        return self.run(state)
