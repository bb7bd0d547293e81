"""Public solve facade: one entry point over every engine.

``solve_mvc`` / ``solve_pvc`` dispatch through :data:`ENGINE_TABLE`:

* ``"sequential"`` — the Fig. 1 CPU baseline (default);
* ``"stackonly"`` — prior work's fixed-depth sub-tree GPU scheme, on the
  simulated device;
* ``"hybrid"`` — the paper's contribution, on the simulated device;
* ``"globalonly"`` — the Section IV-A pure-worklist ablation;
* ``"distributed"`` — the paper's hybrid protocol on real threads:
  the supervised lease protocol over a socket transport, a coordinator
  plus local worker threads and remote worker processes
  (``repro serve-worker`` joins extra hosts into the pool);
* ``"cpu-threads"`` and ``"cpu-process"`` — ``"distributed"`` with
  ``hosts=0``: local worker threads only (both names predate the
  thread team and are kept for committed specs and checkpoints).

Engine modules are imported on first dispatch, not with the facade, so
``import repro`` does not pay for the socket and simulated engines.
"""

from __future__ import annotations

import importlib
import os
import time
from typing import Any, Dict, NamedTuple, Optional, Tuple

from .. import obs
from ..graph.csr import CSRGraph
from .outcome import SolveOutcome

__all__ = ["ENGINES", "ENGINE_TABLE", "POOL_ENGINES", "solve_mvc", "solve_pvc",
           "publish_result"]


class EngineRow(NamedTuple):
    """Where one engine lives and how the facade calls it."""

    #: module holding the entry points, relative to the ``repro`` package
    module: str
    #: the MVC entry point, or the simulated-engine class when ``pvc`` is None
    mvc: str
    #: the PVC entry point; ``None`` when ``mvc`` names an engine class
    pvc: Optional[str] = None
    #: options the engine name pins, over whatever the caller passed
    fixed: Tuple[Tuple[str, Any], ...] = ()
    #: takes a worker pool (``n_workers``) and runs in wall-clock mode
    pool: bool = False


ENGINE_TABLE: Dict[str, EngineRow] = {
    "sequential": EngineRow(".core.sequential", "solve_mvc_sequential",
                            "solve_pvc_sequential"),
    "stackonly": EngineRow(".engines.stackonly", "StackOnlyEngine"),
    "hybrid": EngineRow(".engines.hybrid", "HybridEngine"),
    "globalonly": EngineRow(".engines.globalonly", "GlobalOnlyEngine"),
    "cpu-threads": EngineRow(".net.distributed", "solve_mvc_distributed",
                             "solve_pvc_distributed", fixed=(("hosts", 0),),
                             pool=True),
    "cpu-process": EngineRow(".net.distributed", "solve_mvc_distributed",
                             "solve_pvc_distributed", fixed=(("hosts", 0),),
                             pool=True),
    "distributed": EngineRow(".net.distributed", "solve_mvc_distributed",
                             "solve_pvc_distributed", pool=True),
}

ENGINES = tuple(ENGINE_TABLE)

#: The engines with a worker pool: they take ``n_workers`` and run in
#: wall-clock mode.
POOL_ENGINES = tuple(name for name, row in ENGINE_TABLE.items() if row.pool)

_PACKAGE = __package__.rpartition(".")[0]


def publish_result(engine: str, result: SolveOutcome,
                   wall_seconds: Optional[float] = None) -> None:
    """Publish one solve's surfaces into the armed metrics registry.

    The facade calls this after every dispatch; the CLI and experiment
    layers get comms totals, supervision counters and search aggregates
    as real metrics without each engine knowing the registry exists.
    No-op when the plane is disarmed.
    """
    from ..obs import metrics as obs_metrics

    if not obs_metrics.armed():
        return
    obs_metrics.publish_search(engine, result.nodes_visited, optimum=result.optimum,
                               wall_seconds=wall_seconds)
    if result.comms is not None:
        obs_metrics.publish_comms(engine, result.comms["totals"])
    # Engines without a supervisor still count recoveries and losses.
    obs_metrics.publish_supervision(
        engine, result.supervision or {"recovered": 0.0, "workers_lost": 0.0})


#: ``REPRO_CACHE`` as a key of the environment mapping's backing dict.
_CACHE_ENV_KEY = os.environ.encodekey("REPRO_CACHE")


def _cache_env() -> Optional[str]:
    """``$REPRO_CACHE``, or ``None``, read without raising.

    ``os.environ.get`` raises and catches ``KeyError`` twice when the
    variable is unset (the usual case); on a sub-millisecond solve that
    is most of the facade's fixed cost.  The mapping's backing dict sees
    every change made through ``os.environ`` and answers directly.
    """
    environ = os.environ
    data = getattr(environ, "_data", None)
    if data is None:  # not the stdlib mapping (replaced by a caller)
        return environ.get("REPRO_CACHE")
    raw = data.get(_CACHE_ENV_KEY)
    return None if raw is None else environ.decodevalue(raw)


def _armed_cache(options: Dict[str, Any]):
    """Resolve the ``cache=`` option / ``REPRO_CACHE`` env into a cache.

    Returns ``None`` on the default path without importing or executing
    any cache code — the disarmed hot path is two dict probes.
    """
    cache = options.pop("cache", None)
    if cache is None:
        cache = _cache_env() or None
    if cache is None or cache is False:
        return None
    from ..cache import resolve_cache

    return resolve_cache(cache)


def solve_mvc(graph: CSRGraph, *, engine: str = "sequential",
              **options: Any) -> SolveOutcome:
    """Find a minimum vertex cover of ``graph`` with the chosen engine.

    Every engine returns a :class:`~repro.core.outcome.SolveOutcome`
    whose cover was checked at the boundary.  ``node_budget`` and
    ``deadline`` (seconds) interrupt the search; an interrupted outcome
    carries the best cover so far, an admissible lower bound and a
    :class:`~repro.core.outcome.Checkpoint` that
    :func:`~repro.core.anytime.resume_from` continues on any engine.

    ``cache=`` (a store path, ``True``, or a
    :class:`~repro.cache.SolveCache`; default: the ``REPRO_CACHE`` env
    var, else off) routes the solve through the content-addressed
    certificate cache (:func:`repro.cache.solve_cached`): repeated or
    isomorphic-by-relabeling instances return their stored, verified
    cover with zero search nodes, interrupted solves leave a checkpoint
    that a repeat request resumes, and disconnected instances are
    memoized one component at a time.  Pass ``cache=False`` to force the
    cache off regardless of the environment.
    """
    return _solve(graph, None, engine, options)


def solve_pvc(graph: CSRGraph, k: int, *, engine: str = "sequential",
              **options: Any) -> SolveOutcome:
    """Find a vertex cover of size at most ``k``, or prove none exists.

    Takes the same options as :func:`solve_mvc`; a stored optimal MVC
    certificate on the same instance also answers the PVC query directly
    (feasible iff the optimum is at most ``k``).
    """
    return _solve(graph, k, engine, options)


def _solve(graph: CSRGraph, k: Optional[int], engine: str,
           options: Dict[str, Any]) -> SolveOutcome:
    """The one solve path: the cache (when armed) around the dispatch,
    under a ``solve`` span when telemetry is armed."""
    cache = _armed_cache(options)
    if cache is None and not obs.armed():  # the disarmed facade adds no frame
        return _dispatch(graph, k, engine, options)
    t0 = time.perf_counter()
    with obs.trace.span("solve"):
        if cache is None:
            out = _dispatch(graph, k, engine, options)
        else:
            from ..cache import solve_cached

            out = solve_cached(cache, graph, k, engine, options, _dispatch)
    publish_result(engine, out, wall_seconds=time.perf_counter() - t0)
    return out


#: Options the simulated engines take at construction.  ``bound`` and
#: ``kernels`` go back to the per-solve engines, which take them per call;
#: the rest do not apply to those engines and are dropped.
_ENGINE_CTOR_KEYS = ("device", "cost_model", "start_depth", "worklist_capacity",
                     "worklist_threshold_fraction", "block_size_override", "bound",
                     "kernels")


def _dispatch(graph: CSRGraph, k: Optional[int], engine: str,
              options: Dict[str, Any]) -> SolveOutcome:
    """Run one solve on ``engine``: MVC when ``k`` is None, else PVC."""
    row = ENGINE_TABLE.get(engine)
    if row is None:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
    if engine != "sequential":
        _reject_frontier_opt(engine, options)
    ctor = {key: options.pop(key) for key in _ENGINE_CTOR_KEYS if key in options}
    module = importlib.import_module(row.module, _PACKAGE)
    if row.pvc is None:  # a simulated engine, configured at construction
        solver = getattr(module, row.mvc)(**ctor)
        run = solver.solve_mvc if k is None else solver.solve_pvc
    else:
        options.update((key, ctor[key]) for key in ("bound", "kernels")
                       if key in ctor)
        run = getattr(module, row.mvc if k is None else row.pvc)
    options.update(row.fixed)
    out = run(graph, **options) if k is None else run(graph, k, **options)
    if out.engine != engine:  # an alias row: report the name it was called by
        out.engine = engine
        if out.checkpoint is not None:
            out.checkpoint.engine = engine
    return out


def _reject_frontier_opt(engine: str, options: Dict[str, Any]) -> None:
    """Frontier policies are a sequential-traversal knob.

    The parallel engines' disciplines are fixed by what they model
    (per-block stacks, the broker worklist, the coordinator's lease
    queue); silently dropping a requested
    policy would misreport the scenario that ran.
    """
    if options.pop("frontier", None) is not None:
        raise ValueError(
            f"the 'frontier' option applies to engine='sequential' only; "
            f"engine {engine!r} has a fixed worklist discipline"
        )
