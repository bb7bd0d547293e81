"""Experiment cells: one engine on one instance formulation, priced.

:func:`run_cell` is the one entry point every cell of the paper's
evaluation runs through.  The :mod:`repro.experiment` runner calls it for
every planned cell of an :class:`~repro.experiment.spec.ExperimentSpec`,
and the paper's tables and figures are report sections over the stored
cells (:mod:`repro.experiment.report`; ``repro table1 … ablation`` are
presets of that one driver, :mod:`repro.experiment.presets`).

Censoring follows the paper: cells whose virtual time exceeds the budget
(the analog of the paper's two-hour cap) — or whose real node count
exceeds a wall-clock guard — print as ``>budget`` and are excluded from
speedup aggregation.

:func:`run_sweeps` (Section V-A's robustness sweeps) varies engine
parameters the spec grid does not carry, so it runs outside the store,
through the same solve facade.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

from ..core.solver import POOL_ENGINES, solve_mvc, solve_pvc
from ..graph.generators.suites import HIGH_DEGREE, LOW_DEGREE, suite_instance
from ..obs.breakdown import breakdown_row, wall_by_kind_from_spans
from ..sim.costmodel import CostModel
from ..sim.device import EPYC_LIKE
from . import tables
from .load_balance import load_summary_from_metrics
from .sequential_sim import solve_mvc_sequential_sim, solve_pvc_sequential_sim

__all__ = [
    "CellResult",
    "run_cell",
    "run_sweeps",
    "INSTANCE_TYPES",
    "TABLE1_ENGINES",
    "FIG5_GRAPHS",
    "ABLATION_GRAPHS",
    "PRIOR_WORK_TABLE3_SECONDS",
    "PAPER_TABLE2",
]

#: The four problem instances of Table I, in column order.
INSTANCE_TYPES = ("mvc", "pvc_km1", "pvc_k", "pvc_kp1")

#: The engines of Table I's columns, in column order.
TABLE1_ENGINES = ("sequential", "stackonly", "hybrid")

#: Fig. 5's two instances.  The paper contrasts its densest with its
#: sparsest graph (p_hat1000-1 vs US power grid); at reproduction scale
#: the tier-1 complements are trivial, so the high-degree showcase is the
#: hardest p_hat instance — where imbalance actually appears.
FIG5_GRAPHS = ("p_hat_500_3", "us_power_grid")

#: The instances of the Section IV-A GlobalOnly ablation.
ABLATION_GRAPHS = ("p_hat_300_3", "sister_cities")

#: Execution times (seconds) reported by Abu-Khzam et al. [15] as replicated
#: in the paper's Table III (PVC, k = min, two AMD FirePro D500 GPUs).
PRIOR_WORK_TABLE3_SECONDS: Dict[str, float] = {
    "p_hat_300_1": 4.400, "p_hat_300_2": 5.000, "p_hat_300_3": 2.800,
    "p_hat_500_1": 10.700, "p_hat_500_2": 10.100, "p_hat_500_3": 6.000,
    "p_hat_700_1": 21.000, "p_hat_700_2": 14.800,
    "p_hat_1000_1": 48.300, "p_hat_1000_2": 30.800,
}

#: The paper's Table II (geometric-mean speedups), for EXPERIMENTS.md
#: shape comparison.  Keys: (category, baseline, instance type).
PAPER_TABLE2: Dict[Tuple[str, str, str], float] = {
    (HIGH_DEGREE, "stackonly", "mvc"): 167.1, (HIGH_DEGREE, "stackonly", "pvc_km1"): 171.3,
    (HIGH_DEGREE, "stackonly", "pvc_k"): 4.2, (HIGH_DEGREE, "stackonly", "pvc_kp1"): 0.9,
    (LOW_DEGREE, "stackonly", "mvc"): 6.1, (LOW_DEGREE, "stackonly", "pvc_km1"): 5.7,
    (LOW_DEGREE, "stackonly", "pvc_k"): 1.2, (LOW_DEGREE, "stackonly", "pvc_kp1"): 1.2,
    ("overall", "stackonly", "mvc"): 72.9, ("overall", "stackonly", "pvc_km1"): 73.1,
    ("overall", "stackonly", "pvc_k"): 3.0, ("overall", "stackonly", "pvc_kp1"): 1.0,
    (HIGH_DEGREE, "sequential", "mvc"): 30.0, (HIGH_DEGREE, "sequential", "pvc_km1"): 30.1,
    (HIGH_DEGREE, "sequential", "pvc_k"): 1.8, (HIGH_DEGREE, "sequential", "pvc_kp1"): 2.4,
    (LOW_DEGREE, "sequential", "mvc"): 93.1, (LOW_DEGREE, "sequential", "pvc_km1"): 85.0,
    (LOW_DEGREE, "sequential", "pvc_k"): 1.5, (LOW_DEGREE, "sequential", "pvc_kp1"): 1.5,
    ("overall", "sequential", "mvc"): 39.0, ("overall", "sequential", "pvc_km1"): 38.2,
    ("overall", "sequential", "pvc_k"): 1.7, ("overall", "sequential", "pvc_kp1"): 2.1,
}


@dataclass
class CellResult:
    """One experiment cell's outcome."""

    engine: str
    instance_type: str
    seconds: Optional[float]      # virtual seconds; None when censored
    timed_out: bool
    nodes: int
    optimum: Optional[int]
    feasible: Optional[bool]
    wall_seconds: float
    detail: str = ""              # best depth / best worklist config
    #: accumulated virtual cycles — the charge stream's integral.  Stored
    #: at full float precision so a persisted cell can be asserted
    #: bit-identical against a fresh engine invocation.
    cycles: Optional[float] = None
    #: search-tree shape counters (sequential cells only).
    tree: Optional[Dict[str, int]] = None
    #: per-kind activity attribution, captured only under the spec's
    #: ``telemetry``: ``{"cycles_by_kind": ...}`` on the simulated
    #: engines (predicted side), ``{"wall_by_kind": ...}`` on the
    #: wall-clock ones (measured side).
    obs: Optional[Dict[str, object]] = None
    #: what the simulated launch measured, for the figure sections:
    #: ``load`` (Fig. 5's per-SM LoadSummary), ``breakdown`` (Fig. 6's
    #: per-block activity fractions) and ``worklist`` (peak population,
    #: adds and rejected adds, for the ablation).
    launch: Optional[Dict[str, object]] = None

    def to_record(self) -> Dict[str, object]:
        """The JSON-serializable form persisted by the experiment store.

        JSON round-trips Python floats exactly (shortest-repr), so
        ``seconds``/``cycles`` and the ``launch`` figures survive the store
        bit-identical.
        """
        record: Dict[str, object] = {
            "engine": self.engine,
            "instance_type": self.instance_type,
            "seconds": self.seconds,
            "timed_out": bool(self.timed_out),
            "nodes": int(self.nodes),
            "optimum": None if self.optimum is None else int(self.optimum),
            "feasible": self.feasible,
            "wall_seconds": float(self.wall_seconds),
            "detail": self.detail,
            "cycles": self.cycles,
            "tree": self.tree,
        }
        if self.obs is not None:
            record["obs"] = self.obs
        if self.launch is not None:
            record["launch"] = self.launch
        return record


def k_for(itype: str, minimum: int) -> int:
    """The PVC ``k`` of a Table I instance type, given the minimum."""
    return {"pvc_km1": minimum - 1, "pvc_k": minimum, "pvc_kp1": minimum + 1}[itype]


# --------------------------------------------------------------------- #
# cell runners
# --------------------------------------------------------------------- #
def _sim_obs(cycles_by_kind: Optional[Dict[str, float]]) -> Optional[Dict[str, object]]:
    """A sim cell's predicted-side obs payload (``None`` when empty)."""
    if not cycles_by_kind:
        return None
    return {"cycles_by_kind": {k: float(v) for k, v in sorted(cycles_by_kind.items()) if v > 0}}


def _launch_record(stats) -> Dict[str, object]:
    """The figure sections' slice of a simulated launch's report."""
    launch: Dict[str, object] = {
        "load": asdict(load_summary_from_metrics(stats.metrics)),
        "breakdown": breakdown_row("", stats.metrics).fractions,
    }
    wl = stats.worklist_stats
    if wl is not None:
        launch["worklist"] = {"peak": wl.peak_population, "adds": wl.adds,
                              "rejected": wl.rejected_adds}
    return launch


def _cell_detail(frontier: Optional[str], bound: Optional[str]) -> str:
    """The non-default axis values a cell ran under, for the detail column."""
    parts = []
    if frontier not in (None, "lifo"):
        parts.append(f"frontier={frontier}")
    if bound not in (None, "greedy"):
        parts.append(f"bound={bound}")
    return ",".join(parts)


def _run_sequential_cell(graph, itype: str, k: Optional[int], spec,
                         frontier: Optional[str] = None,
                         bound: Optional[str] = None) -> CellResult:
    start = time.perf_counter()
    budgets = dict(cpu=EPYC_LIKE, cost_model=CostModel(),
                   node_budget=spec.seq_node_guard,
                   cycle_budget=spec.seq_cycle_budget,
                   frontier=frontier, bound=bound)
    out = (solve_mvc_sequential_sim(graph, **budgets) if itype == "mvc"
           else solve_pvc_sequential_sim(graph, k, **budgets))
    stats = out.stats
    return CellResult(
        engine="sequential",
        instance_type=itype,
        seconds=None if out.timed_out else out.sim_seconds,
        timed_out=out.timed_out,
        nodes=out.nodes_visited,
        optimum=out.optimum,
        feasible=out.feasible,
        wall_seconds=time.perf_counter() - start,
        detail=_cell_detail(frontier, bound),
        cycles=out.cycles,
        obs=_sim_obs(out.cycles_by_kind) if spec.telemetry else None,
        tree={
            "branches": stats.branches,
            "prunes": stats.prunes,
            "solutions": stats.solutions_found,
            "max_depth": stats.max_depth_reached,
            "max_stack": stats.max_stack_depth,
        },
    )


def _engine_grid(engine_name: str, spec) -> List[Tuple[str, Dict[str, object]]]:
    """A simulated engine's (detail, options) parameter grid."""
    if engine_name == "stackonly":
        return [(f"depth={depth}", {"start_depth": depth})
                for depth in spec.stackonly_depths]
    if engine_name == "hybrid":
        return [(f"cap={cap},thr={frac}",
                 {"worklist_capacity": cap, "worklist_threshold_fraction": frac})
                for cap in spec.hybrid_capacities for frac in spec.hybrid_fractions]
    if engine_name == "globalonly":
        return [("", {})]
    raise ValueError(engine_name)


def _run_engine_cell(engine_name: str, graph, itype: str, k: Optional[int],
                     spec, bound: str = "greedy") -> CellResult:
    """Run one simulated GPU engine, taking the best over its parameter grid.

    Sim-priced cells never use the solve cache: their product is a
    predicted cycle count, which a zero-node cache hit would falsify.
    """
    start = time.perf_counter()
    best = None
    best_detail = ""
    for detail, params in _engine_grid(engine_name, spec):
        options = dict(params, engine=engine_name, device=spec.device_spec,
                       cost_model=CostModel(), bound=bound, cache=False,
                       node_budget=spec.engine_node_guard,
                       cycle_budget=spec.gpu_cycle_budget)
        res = solve_mvc(graph, **options) if itype == "mvc" else solve_pvc(graph, k, **options)
        if best is None or (not res.timed_out and (best.timed_out or res.stats.sim_seconds < best.stats.sim_seconds)):
            best = res
            best_detail = detail
    assert best is not None
    best_detail = ",".join(p for p in (best_detail, _cell_detail(None, bound)) if p)
    return CellResult(
        engine=engine_name,
        instance_type=itype,
        seconds=None if best.timed_out else best.stats.sim_seconds,
        timed_out=best.timed_out,
        nodes=best.nodes_visited,
        optimum=best.optimum,
        feasible=best.feasible,
        wall_seconds=time.perf_counter() - start,
        detail=best_detail,
        cycles=best.stats.makespan_cycles,
        obs=_sim_obs(best.stats.metrics.cycles_by_kind()) if spec.telemetry else None,
        launch=_launch_record(best.stats),
    )


def _run_cpu_cell(engine_name: str, graph, itype: str, k: Optional[int],
                  spec, bound: str = "greedy",
                  workers: Optional[int] = None, hosts: int = 0) -> CellResult:
    """Run one real ``cpu-*`` / ``distributed`` engine in wall-clock mode.

    These cells have no virtual pricing: ``seconds``/``cycles`` stay
    ``None`` and ``wall_seconds`` is the measurement.  Node counts are
    scheduling-dependent, so only the deterministic fields (optimum /
    feasibility) are verifiable.

    Under the spec's ``telemetry`` the cell runs traced (on the caller's
    tracer if one is armed) and stores the span self-time of its own
    spans as ``wall_by_kind``; a tracer that dropped spans meanwhile
    leaves the cell with no ``obs`` rather than a partial attribution.
    """
    from ..obs import trace as obs_trace

    n_workers = spec.cpu_workers if workers is None else workers
    tracer = obs_trace.get() if spec.telemetry else None
    armed_here = spec.telemetry and tracer is None
    if armed_here:
        tracer = obs_trace.arm()
    if tracer is not None:
        first, dropped = len(tracer.spans), tracer.dropped
    start = time.perf_counter()
    kwargs = dict(engine=engine_name, n_workers=n_workers,
                  node_budget=spec.engine_node_guard, bound=bound,
                  **({"kernels": spec.kernels} if spec.kernels else {}),
                  **({"cache": spec.cache} if spec.cache else {}),
                  **({"hosts": hosts} if engine_name == "distributed" else {}))
    try:
        if itype == "mvc":
            out = solve_mvc(graph, **kwargs)
            feasible = None
        else:
            assert k is not None
            out = solve_pvc(graph, k, **kwargs)
            feasible = out.feasible
    finally:
        if armed_here:
            obs_trace.disarm()
    obs = None
    if tracer is not None and tracer.dropped == dropped:
        by_kind = wall_by_kind_from_spans(tracer.spans[first:])
        if by_kind:
            obs = {"wall_by_kind": {kind: float(secs)
                                    for kind, secs in sorted(by_kind.items())}}
    detail = ",".join(p for p in (
        f"wall-clock,workers={n_workers}",
        f"hosts={hosts}" if hosts else "",
        _cell_detail(None, bound)) if p)
    return CellResult(
        engine=engine_name,
        instance_type=itype,
        seconds=None,
        timed_out=out.timed_out,
        nodes=out.nodes_visited,
        optimum=out.optimum,
        feasible=feasible,
        wall_seconds=time.perf_counter() - start,
        detail=detail,
        cycles=None,
        obs=obs,
    )


def run_cell(
    engine: str,
    graph,
    itype: str,
    k: Optional[int],
    spec,
    frontier: Optional[str] = None,
    bound: str = "greedy",
    workers: Optional[int] = None,
    hosts: int = 0,
) -> CellResult:
    """Run one experiment cell: one engine on one instance formulation.

    ``spec`` is the :class:`~repro.experiment.spec.ExperimentSpec` whose
    budgets, device and parameter grids the cell runs under.  Every cell
    is priced with the ``EPYC_LIKE`` CPU and the default ``CostModel``.
    ``frontier`` applies to the sequential engine only (the parallel
    engines' disciplines are fixed by what they model); ``bound``
    applies to every engine.  The real ``cpu-*`` and ``distributed``
    engines run in wall-clock mode (no virtual pricing); ``workers``
    overrides their team width per cell (``None``: ``spec.cpu_workers``)
    and ``hosts`` joins that many extra localhost ``serve-worker``
    processes — the distributed engine only.
    """
    if engine == "sequential":
        return _run_sequential_cell(graph, itype, k, spec, frontier, bound)
    if frontier is not None:
        raise ValueError(
            f"the 'frontier' axis applies to engine='sequential' only; "
            f"engine {engine!r} has a fixed worklist discipline"
        )
    if hosts and engine != "distributed":
        raise ValueError(
            f"the 'hosts' axis applies to engine='distributed' only; "
            f"engine {engine!r} has no socket transport"
        )
    if engine in POOL_ENGINES:
        return _run_cpu_cell(engine, graph, itype, k, spec, bound,
                             workers=workers, hosts=hosts)
    if workers is not None:
        raise ValueError(
            f"the 'workers' axis applies to the wall-clock engines only; "
            f"engine {engine!r} has no worker pool"
        )
    return _run_engine_cell(engine, graph, itype, k, spec, bound)


# --------------------------------------------------------------------- #
# §V-A sweeps
# --------------------------------------------------------------------- #
@dataclass
class SweepResult:
    name: str
    rows: List[Dict[str, object]]

    def render(self) -> str:
        if not self.rows:
            return f"{self.name}: no data"
        headers = list(self.rows[0])
        body = [[row[h] for h in headers] for row in self.rows]
        return tables.render_table(headers, body, title=self.name)


def run_sweeps(spec, *, instance: str = "p_hat_300_3") -> List[SweepResult]:
    """Section V-A's robustness sweeps on one representative hard instance.

    Reads the spec's scale, device and engine budgets; the swept
    parameters (block size, start depth, worklist size and threshold)
    are not spec axes, so the sweeps solve directly, without a store.
    """
    graph = suite_instance(instance, spec.scale).graph()
    device = spec.device_spec

    def solve(engine: str, **params):
        return solve_mvc(graph, engine=engine, device=device, cost_model=CostModel(),
                         cache=False, node_budget=spec.engine_node_guard,
                         cycle_budget=spec.gpu_cycle_budget, **params)

    results: List[SweepResult] = []
    rows = []
    for bs in (32, 64, 128, 256):
        if bs > device.max_threads_per_block:
            continue
        for engine_name, params in (("stackonly", {"start_depth": 6}), ("hybrid", {})):
            res = solve(engine_name, block_size_override=bs, **params)
            rows.append({
                "engine": engine_name, "block_size": bs,
                "seconds": tables.format_seconds(res.stats.sim_seconds, res.timed_out),
                "cycles": f"{res.stats.makespan_cycles:.3g}",
            })
    results.append(SweepResult(f"Block-size sweep on {instance}", rows))

    rows = []
    for depth in (2, 4, 6, 8, 10):
        res = solve("stackonly", start_depth=depth)
        rows.append({
            "start_depth": depth,
            "seconds": tables.format_seconds(res.stats.sim_seconds, res.timed_out),
            "nodes": res.nodes_visited,
            "max/mean load": f"{load_summary_from_metrics(res.stats.metrics).imbalance:.2f}",
        })
    results.append(SweepResult(f"StackOnly start-depth sweep on {instance}", rows))

    rows = []
    for cap in (256, 1024, 4096):
        for frac in (0.25, 0.5, 1.0):
            res = solve("hybrid", worklist_capacity=cap, worklist_threshold_fraction=frac)
            rows.append({
                "capacity": cap, "threshold": int(cap * frac),
                "seconds": tables.format_seconds(res.stats.sim_seconds, res.timed_out),
                "wl peak": res.stats.worklist_stats.peak_population,
            })
    results.append(SweepResult(f"Hybrid worklist sweep on {instance}", rows))
    return results
