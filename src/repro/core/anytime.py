"""Resuming interrupted solves: thin calls into the solve facade.

Every engine can be interrupted — by a wall-clock ``deadline`` or a
``node_budget`` passed to :func:`repro.core.solver.solve_mvc` /
:func:`~repro.core.solver.solve_pvc` — and returns a
:class:`~repro.core.outcome.SolveOutcome` carrying

* the best cover found so far (MVC always has one: the greedy incumbent),
* an admissible lower bound on the uninterrupted optimum, computed from
  the surviving frontier by the active bound policy,
* a :class:`~repro.core.outcome.Checkpoint` — the pending tree nodes as
  codec-v2 frames against the graph's root degrees —
  from which :func:`resume_from` provably reaches the same optimum as the
  uninterrupted run (the explored region was only ever pruned against
  incumbents the checkpoint carries, so incumbent + pending sub-trees
  dominate the whole tree).

The engines stay oblivious to checkpoint *format*: each one accepts
``roots``/``initial_best`` seeds, and the one outcome finisher
(:func:`~repro.core.outcome.finish_outcome`) is the only place that
serializes.  A checkpoint taken on one engine can resume on another —
the frontier is just a set of sub-tree roots, which is exactly the
self-contained-node property the paper's GPU scheme is built on.
"""

from __future__ import annotations

from typing import Any, Optional

from ..graph.csr import CSRGraph
from .outcome import Checkpoint, SolveOutcome
from .solver import solve_mvc, solve_pvc

__all__ = ["resume_from", "solve_to_completion"]


def resume_from(
    checkpoint: Checkpoint,
    graph: CSRGraph,
    *,
    engine: Optional[str] = None,
    **options: Any,
) -> SolveOutcome:
    """Continue an interrupted solve from its checkpoint.

    Defaults (engine, frontier policy, bound, ``k``) come from the
    checkpoint; ``engine`` may be overridden — the frontier is engine-
    agnostic sub-tree roots.  Budgets are *not* inherited: pass fresh
    ``node_budget``/``deadline`` options or let the resumed leg run to
    completion.  The leg never consults the cache, and its
    ``nodes_visited`` includes the nodes the checkpoint already spent.
    """
    checkpoint.validate_graph(graph)
    engine = checkpoint.engine if engine is None else engine
    options.update(bound=checkpoint.bound, cache=False)
    if checkpoint.items:
        options["roots"] = [state for state, _ in checkpoint.states(graph)]
    if engine == "sequential" and checkpoint.frontier is not None:
        options["frontier"] = checkpoint.frontier
    if checkpoint.formulation == "mvc":
        if checkpoint.best_size is not None and checkpoint.best_cover is not None:
            options["initial_best"] = (checkpoint.best_size, checkpoint.best_cover)
        out = solve_mvc(graph, engine=engine, **options)
    else:
        out = solve_pvc(graph, checkpoint.k, engine=engine, **options)
    out.nodes_visited += checkpoint.nodes_visited
    if out.checkpoint is not None:
        out.checkpoint.nodes_visited = out.nodes_visited
    return out


def solve_to_completion(
    graph: CSRGraph,
    k: Optional[int] = None,
    *,
    engine: str = "sequential",
    node_budget: Optional[int] = None,
    max_legs: int = 1000,
    **options: Any,
) -> SolveOutcome:
    """Chain interrupted legs until the claim is proven.

    Each leg gets the same per-leg ``node_budget``; wall-clock deadlines
    are deliberately not accepted here (a too-small deadline would make
    no progress per leg).  Raises if ``max_legs`` legs don't finish.
    """
    def solve_leg() -> SolveOutcome:
        if k is None:
            return solve_mvc(graph, engine=engine, node_budget=node_budget, **options)
        return solve_pvc(graph, k, engine=engine, node_budget=node_budget, **options)

    outcome = solve_leg()
    # The checkpoint records frontier/bound; resume legs take them from it.
    resume_options = {key: value for key, value in options.items()
                      if key not in ("frontier", "bound", "cache")}
    legs = 1
    while not outcome.complete:
        if legs >= max_legs:
            raise RuntimeError(f"solve_to_completion did not converge in {max_legs} legs")
        if outcome.resumable:
            outcome = resume_from(outcome.checkpoint, graph, engine=engine,
                                  node_budget=node_budget, **resume_options)
        else:
            # A component-wise outcome (cache armed, disconnected MVC) has
            # no checkpoint of its own; the cache stored one per component,
            # and repeating the request resumes each of them.
            outcome = solve_leg()
        legs += 1
    return outcome
