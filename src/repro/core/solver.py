"""Public solve facade: one entry point over every engine.

``solve_mvc`` / ``solve_pvc`` dispatch to:

* ``"sequential"`` — the Fig. 1 CPU baseline (default);
* ``"stackonly"`` — prior work's fixed-depth sub-tree GPU scheme, on the
  simulated device;
* ``"hybrid"`` — the paper's contribution, on the simulated device;
* ``"globalonly"`` — the Section IV-A pure-worklist ablation;
* ``"cpu-threads"`` — a real shared-memory parallel engine mirroring
  the hybrid protocol;
* ``"distributed"`` — the supervised lease protocol over a socket
  transport: a coordinator plus local and remote worker processes
  (``repro serve-worker`` joins extra hosts into the pool);
* ``"cpu-process"`` — an alias of ``"distributed"`` with ``hosts=0``:
  forked local workers only.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, Optional

from .. import obs
from ..graph.csr import CSRGraph
from .sequential import SearchOutcome, solve_mvc_sequential, solve_pvc_sequential

__all__ = ["ENGINES", "solve_mvc", "solve_pvc", "publish_result"]

ENGINES = ("sequential", "stackonly", "hybrid", "globalonly",
           "cpu-threads", "cpu-process", "cpu-worksteal", "distributed")


def publish_result(engine: str, result: Any,
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
    nodes = getattr(result, "nodes_visited", None)
    if nodes is None:
        nodes = getattr(getattr(result, "stats", None), "nodes_visited", 0)
    obs_metrics.publish_search(engine, int(nodes or 0),
                               optimum=getattr(result, "optimum", None),
                               wall_seconds=wall_seconds)
    comms = getattr(result, "comms", None)
    if isinstance(comms, dict) and isinstance(comms.get("totals"), dict):
        obs_metrics.publish_comms(engine, comms["totals"])
    supervision = getattr(result, "supervision", None)
    if supervision is None:
        # Engines without a supervisor still count recoveries and losses.
        supervision = {
            "recovered": float(getattr(result, "faults_recovered", 0) or 0),
            "workers_lost": float(getattr(result, "workers_lost", 0) or 0),
        }
    obs_metrics.publish_supervision(engine, supervision)


def _solve_enveloped(engine: str, thunk):
    """Run one dispatch under a ``solve`` span and publish its surfaces."""
    if not obs.armed():
        return thunk()
    t0 = time.perf_counter()
    with obs.trace.span("solve"):
        result = thunk()
    publish_result(engine, result, wall_seconds=time.perf_counter() - t0)
    return result


def _sim_engine(name: str):
    from ..engines import globalonly, hybrid, stackonly

    return {"stackonly": stackonly.StackOnlyEngine,
            "hybrid": hybrid.HybridEngine,
            "globalonly": globalonly.GlobalOnlyEngine}[name]


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


def solve_mvc(graph: CSRGraph, *, engine: str = "sequential", **options: Any):
    """Find a minimum vertex cover of ``graph`` with the chosen engine.

    Returns a :class:`~repro.core.sequential.SearchOutcome` for the
    sequential engine and an :class:`~repro.engines.base.EngineResult` for
    the parallel ones (both expose ``optimum``, ``cover`` and
    ``timed_out``).

    ``cache=`` (a store path, ``True``, or a
    :class:`~repro.cache.SolveCache`; default: the ``REPRO_CACHE`` env
    var, else off) routes the solve through the content-addressed
    certificate cache: repeated or isomorphic-by-relabeling instances
    return their stored, verified cover with zero search nodes, and
    disconnected instances are memoized one component at a time (a
    :class:`~repro.cache.CachedSolveResult`).  Pass ``cache=False`` to
    force the cache off regardless of the environment.
    """
    cache = _armed_cache(options)
    if cache is not None:
        from ..cache import cached_solve_mvc

        return _solve_enveloped(
            engine, lambda: cached_solve_mvc(
                cache, graph, engine=engine, options=options,
                dispatch=_dispatch_mvc))
    if not obs.armed():  # the disarmed facade adds no frame to the dispatch
        return _dispatch_mvc(graph, engine=engine, **options)
    return _solve_enveloped(
        engine, lambda: _dispatch_mvc(graph, engine=engine, **options))


def _dispatch_mvc(graph: CSRGraph, *, engine: str = "sequential", **options: Any):
    if engine == "sequential":
        opts = _split_engine_opts(options)  # device/cost-model knobs do not apply
        _forward_bound_opt(opts, options)
        return solve_mvc_sequential(graph, **options)
    _reject_frontier_opt(engine, options)
    if engine in ("stackonly", "hybrid", "globalonly"):
        eng = _sim_engine(engine)(**_split_engine_opts(options))
        return eng.solve_mvc(graph, **options)
    if engine == "cpu-threads":
        from ..engines.cpu_threads import solve_mvc_threads

        _forward_bound_opt(_split_engine_opts(options), options)
        return solve_mvc_threads(graph, **options)
    if engine == "cpu-worksteal":
        from ..engines.cpu_worksteal import solve_mvc_worksteal

        _forward_bound_opt(_split_engine_opts(options), options)
        return solve_mvc_worksteal(graph, **options)
    if engine in ("distributed", "cpu-process"):
        from ..net.distributed import solve_mvc_distributed

        _forward_bound_opt(_split_engine_opts(options), options)
        if engine == "cpu-process":  # forked local workers, no extra hosts
            options["hosts"] = 0
        return solve_mvc_distributed(graph, **options)
    raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")


def solve_pvc(graph: CSRGraph, k: int, *, engine: str = "sequential", **options: Any):
    """Find a vertex cover of size at most ``k``, or prove none exists.

    Takes the same ``cache=`` option as :func:`solve_mvc`; a stored
    optimal MVC certificate on the same instance also answers the PVC
    query directly (feasible iff the optimum is at most ``k``).
    """
    cache = _armed_cache(options)
    if cache is not None:
        from ..cache import cached_solve_pvc

        return _solve_enveloped(
            engine, lambda: cached_solve_pvc(
                cache, graph, k, engine=engine, options=options,
                dispatch=_dispatch_pvc))
    if not obs.armed():
        return _dispatch_pvc(graph, k, engine=engine, **options)
    return _solve_enveloped(
        engine, lambda: _dispatch_pvc(graph, k, engine=engine, **options))


def _dispatch_pvc(graph: CSRGraph, k: int, *, engine: str = "sequential",
                  **options: Any):
    if engine == "sequential":
        opts = _split_engine_opts(options)  # device/cost-model knobs do not apply
        _forward_bound_opt(opts, options)
        return solve_pvc_sequential(graph, k, **options)
    _reject_frontier_opt(engine, options)
    if engine in ("stackonly", "hybrid", "globalonly"):
        eng = _sim_engine(engine)(**_split_engine_opts(options))
        return eng.solve_pvc(graph, k, **options)
    if engine == "cpu-threads":
        from ..engines.cpu_threads import solve_pvc_threads

        _forward_bound_opt(_split_engine_opts(options), options)
        return solve_pvc_threads(graph, k, **options)
    if engine == "cpu-worksteal":
        from ..engines.cpu_worksteal import solve_pvc_worksteal

        _forward_bound_opt(_split_engine_opts(options), options)
        return solve_pvc_worksteal(graph, k, **options)
    if engine in ("distributed", "cpu-process"):
        from ..net.distributed import solve_pvc_distributed

        _forward_bound_opt(_split_engine_opts(options), options)
        if engine == "cpu-process":  # forked local workers, no extra hosts
            options["hosts"] = 0
        return solve_pvc_distributed(graph, k, **options)
    raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")


_ENGINE_CTOR_KEYS = ("device", "cost_model", "start_depth", "worklist_capacity",
                     "worklist_threshold_fraction", "block_size_override", "bound",
                     "kernels")


def _reject_frontier_opt(engine: str, options: Dict[str, Any]) -> None:
    """Frontier policies are a sequential-traversal knob.

    The parallel engines' disciplines are fixed by what they model
    (per-block stacks, the broker worklist, stealing deques); silently
    dropping a requested policy would misreport the scenario that ran.
    """
    if options.pop("frontier", None) is not None:
        raise ValueError(
            f"the 'frontier' option applies to engine='sequential' only; "
            f"engine {engine!r} has a fixed worklist discipline"
        )


def _split_engine_opts(options: Dict[str, Any]) -> Dict[str, Any]:
    """Pop constructor-level options out of the per-solve option dict."""
    ctor: Dict[str, Any] = {}
    for key in _ENGINE_CTOR_KEYS:
        if key in options:
            ctor[key] = options.pop(key)
    return ctor


def _forward_bound_opt(ctor: Dict[str, Any], options: Dict[str, Any]) -> None:
    """Hand ``bound`` and ``kernels`` back to a per-solve engine.

    Both sit in :data:`_ENGINE_CTOR_KEYS` because the simulated engines
    take them at construction; the sequential and ``cpu-*`` engines take
    them per solve call, so the split puts them back for them.
    """
    if "bound" in ctor:
        options["bound"] = ctor["bound"]
    if "kernels" in ctor:
        options["kernels"] = ctor["kernels"]
