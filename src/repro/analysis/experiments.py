"""End-to-end experiment harness: one entry point per paper table/figure.

Every public ``run_*`` function regenerates one artefact of the paper's
evaluation section on the synthetic suite:

========== =========================================================
Table I    :func:`run_table1` — per-instance execution times for
           {Sequential, StackOnly, Hybrid} × {MVC, PVC k=min−1, k=min,
           k=min+1}
Table II   :func:`run_table2` — geometric-mean speedups by category
Table III  :func:`run_table3` — PVC k=min comparison with prior work
Fig. 5     :func:`run_fig5` — per-SM load distributions on the two
           degree extremes
Fig. 6     :func:`run_fig6` — execution-time breakdown of the Hybrid
           MVC kernel
§V-A       :func:`run_sweeps` — robustness to block size, StackOnly
           depth and worklist size/threshold
§IV-A      :func:`run_ablation` — Hybrid vs the pure global worklist
========== =========================================================

Censoring follows the paper: cells whose virtual time exceeds the budget
(the analog of the paper's two-hour cap) — or whose real node count
exceeds a wall-clock guard — print as ``>budget`` and are excluded from
speedup aggregation.

Cells execute through :func:`run_cell` — the same entry point the
:mod:`repro.experiment` runner uses — and :func:`run_table1` can be
rebased on the experiment store (``store=``): fingerprint-matched cells
load from ``results.jsonl`` instead of re-solving, fresh ones append,
making the Table I harness itself resumable (see ``docs/EXPERIMENTS.md``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.matching import konig_cover
from ..core.sequential import solve_mvc_sequential
from ..core.solver import POOL_ENGINES
from ..engines.globalonly import GlobalOnlyEngine
from ..engines.hybrid import HybridEngine
from ..engines.stackonly import StackOnlyEngine
from ..graph.generators.suites import HIGH_DEGREE, LOW_DEGREE, SuiteInstance, paper_suite
from ..obs.breakdown import ACTIVITY_LABELS, BreakdownRow, breakdown_row, mean_breakdown
from ..sim.costmodel import CostModel
from ..sim.device import EPYC_LIKE, SMALL_SIM, CPUSpec, DeviceSpec
from ..sim.metrics import LaunchMetrics
from . import tables
from .load_balance import LoadSummary, load_summary_from_metrics
from .sequential_sim import solve_mvc_sequential_sim, solve_pvc_sequential_sim
from .speedup import aggregate_speedups, geometric_mean

__all__ = [
    "ExperimentConfig",
    "CellResult",
    "Table1Row",
    "Table1Result",
    "run_cell",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_fig5",
    "run_fig6",
    "run_sweeps",
    "run_ablation",
    "INSTANCE_TYPES",
    "PRIOR_WORK_TABLE3_SECONDS",
    "PAPER_TABLE2",
]

#: The four problem instances of Table I, in column order.
INSTANCE_TYPES = ("mvc", "pvc_km1", "pvc_k", "pvc_kp1")

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
class ExperimentConfig:
    """Knobs shared by every experiment."""

    scale: str = "small"
    device: DeviceSpec = SMALL_SIM
    cpu: CPUSpec = EPYC_LIKE
    cost_model: CostModel = field(default_factory=CostModel)
    #: virtual-time cap per cell — the analog of the paper's two hours.
    virtual_budget_s: float = 0.03
    #: real-work guards so a pure-Python run stays tractable.
    seq_node_guard: int = 40_000
    engine_node_guard: int = 20_000
    #: StackOnly start depths to try (the paper tries {8, 12, 16}).
    stackonly_depths: Tuple[int, ...] = (4, 6, 8)
    #: Hybrid (capacity, threshold-fraction) grid (the paper sweeps both).
    hybrid_capacities: Tuple[int, ...] = (1024,)
    hybrid_fractions: Tuple[float, ...] = (0.25,)
    #: worker-team width for the wall-clock ``cpu-*`` engines.
    cpu_workers: int = 2
    #: KERNELS backend forced on the wall-clock ``cpu-*`` engines
    #: (``None``: the process default dispatcher; bit-identical results
    #: either way, so this knob is fingerprint-neutral).
    kernels: Optional[str] = None
    #: capture per-cell telemetry (predicted cycles-by-kind on the sim
    #: engines, measured wall-by-kind on the real ones) into
    #: :attr:`CellResult.obs`.  Observation only — never changes what a
    #: cell computes — so it is fingerprint-neutral like ``kernels``.
    telemetry: bool = False
    #: solve-cache store path armed for the wall-clock engines (``None``:
    #: off).  Hits return the stored, verified certificate — the same
    #: optimum/feasibility the cold solve produces — so the knob is
    #: fingerprint-neutral like ``kernels``.  Sim-priced cells ignore it:
    #: their product is a predicted cycle count, which a zero-node cache
    #: hit would falsify.
    cache: Optional[str] = None

    def quick(self) -> "ExperimentConfig":
        """A cheaper copy for pytest benchmarks."""
        return ExperimentConfig(
            scale=self.scale,
            device=self.device,
            cpu=self.cpu,
            cost_model=self.cost_model,
            virtual_budget_s=min(self.virtual_budget_s, 0.02),
            seq_node_guard=12_000,
            engine_node_guard=8_000,
            stackonly_depths=(6,),
            hybrid_capacities=(1024,),
            hybrid_fractions=(0.25,),
            cpu_workers=self.cpu_workers,
            kernels=self.kernels,
            telemetry=self.telemetry,
            cache=self.cache,
        )

    @property
    def seq_cycle_budget(self) -> float:
        return self.virtual_budget_s * self.cpu.clock_mhz * 1e6

    @property
    def gpu_cycle_budget(self) -> float:
        return self.virtual_budget_s * self.device.clock_mhz * 1e6


@dataclass
class CellResult:
    """One Table I cell."""

    engine: str
    instance_type: str
    seconds: Optional[float]      # virtual seconds; None when censored
    timed_out: bool
    nodes: int
    optimum: Optional[int]
    feasible: Optional[bool]
    wall_seconds: float
    detail: str = ""              # best depth / best worklist config
    metrics: Optional[LaunchMetrics] = None
    #: accumulated virtual cycles — the charge stream's integral.  Stored
    #: at full float precision so a persisted cell can be asserted
    #: bit-identical against a fresh engine invocation.
    cycles: Optional[float] = None
    #: search-tree shape counters (sequential cells only).
    tree: Optional[Dict[str, int]] = None
    #: per-kind activity attribution, captured only under
    #: ``ExperimentConfig.telemetry``: ``{"cycles_by_kind": ...}`` on the
    #: simulated engines (predicted side), ``{"wall_by_kind": ...}`` on
    #: the wall-clock ones (measured side).
    obs: Optional[Dict[str, object]] = None

    def to_record(self) -> Dict[str, object]:
        """The JSON-serializable form persisted by the experiment store.

        ``metrics`` (per-SM load objects) deliberately does not travel:
        everything the paper tables need — virtual seconds, exact cycles,
        node counts, tree shape — is scalar.  JSON round-trips Python
        floats exactly (shortest-repr), so ``seconds``/``cycles`` survive
        the store bit-identical.
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
        return record

    @classmethod
    def from_record(cls, record: Dict[str, object]) -> "CellResult":
        """Rebuild a cell from :meth:`to_record` output (metrics-free)."""
        return cls(
            engine=str(record["engine"]),
            instance_type=str(record["instance_type"]),
            seconds=record["seconds"],  # type: ignore[arg-type]
            timed_out=bool(record["timed_out"]),
            nodes=int(record["nodes"]),  # type: ignore[arg-type]
            optimum=record["optimum"],  # type: ignore[arg-type]
            feasible=record["feasible"],  # type: ignore[arg-type]
            wall_seconds=float(record["wall_seconds"]),  # type: ignore[arg-type]
            detail=str(record.get("detail", "")),
            cycles=record.get("cycles"),  # type: ignore[arg-type]
            tree=record.get("tree"),  # type: ignore[arg-type]
            obs=record.get("obs"),  # type: ignore[arg-type]
        )


@dataclass
class Table1Row:
    instance: SuiteInstance
    n: int
    m: int
    avg_degree: float
    minimum: Optional[int]
    min_source: str
    cells: Dict[Tuple[str, str], CellResult] = field(default_factory=dict)

    def seconds(self, engine: str, itype: str) -> Optional[float]:
        cell = self.cells.get((engine, itype))
        if cell is None or cell.timed_out:
            return None
        return cell.seconds


@dataclass
class Table1Result:
    rows: List[Table1Row]
    config: ExperimentConfig

    def render(self) -> str:
        headers = ["Graph", "|V|", "|E|", "d"]
        for itype in INSTANCE_TYPES:
            label = {"mvc": "MVC", "pvc_km1": "PVC k-1", "pvc_k": "PVC k", "pvc_kp1": "PVC k+1"}[itype]
            for eng in ("seq", "stack", "hybrid"):
                headers.append(f"{label}/{eng}")
        body = []
        for row in self.rows:
            cells: List[object] = [row.instance.name, row.n, row.m, f"{row.avg_degree:.1f}"]
            for itype in INSTANCE_TYPES:
                for engine in ("sequential", "stackonly", "hybrid"):
                    cell = row.cells.get((engine, itype))
                    if cell is None:
                        cells.append("--")
                    else:
                        cells.append(tables.format_seconds(cell.seconds, cell.timed_out))
            body.append(cells)
        return tables.render_table(headers, body, title="Table I — execution time (virtual seconds)")


# --------------------------------------------------------------------- #
# minimum resolution
# --------------------------------------------------------------------- #
_MIN_CACHE: Dict[Tuple[str, str], Tuple[Optional[int], str]] = {}


def resolve_minimum(inst: SuiteInstance, scale: str, node_guard: int = 150_000) -> Tuple[Optional[int], str]:
    """The instance's exact minimum cover size, and how we know it.

    Bipartite instances use König's theorem (polynomial time) — this is
    how the ``k = min`` columns stay runnable on instances whose MVC
    search is over budget, mirroring the paper's use of externally known
    optima for the PACE graphs.  Other instances are solved once with the
    sequential engine and memoised.
    """
    key = (inst.name, scale)
    if key in _MIN_CACHE:
        return _MIN_CACHE[key]
    graph = inst.graph()
    if inst.bipartite:
        result = konig_cover(graph)
        if result is None:
            raise AssertionError(f"{inst.name} declared bipartite but is not")
        _MIN_CACHE[key] = (result.size, "konig")
        return _MIN_CACHE[key]
    out = solve_mvc_sequential(graph, node_budget=node_guard)
    if out.timed_out:
        _MIN_CACHE[key] = (None, "unknown")
    else:
        _MIN_CACHE[key] = (out.optimum, "search")
    return _MIN_CACHE[key]


# --------------------------------------------------------------------- #
# cell runners
# --------------------------------------------------------------------- #
def _sim_obs(cycles_by_kind: Optional[Dict[str, float]]) -> Optional[Dict[str, object]]:
    """A sim cell's predicted-side obs payload (``None`` when empty)."""
    if not cycles_by_kind:
        return None
    return {"cycles_by_kind": {k: float(v) for k, v in sorted(cycles_by_kind.items()) if v > 0}}


def _wall_obs(out, wall_before: Dict[str, float]) -> Optional[Dict[str, object]]:
    """A wall cell's measured-side obs payload.

    Two sources merge: the parent-process registry delta (in-process
    engines attribute reduce/bound/branch/idle there directly) and the
    ``obs_<kind>_s`` keys the distributed workers ship home in their
    comms totals.  The two never overlap — ``serve-worker`` hosts cannot
    reach the parent registry, and worker threads attribute to a private
    sink (``breakdown.local_attribution``).
    """
    from ..obs import breakdown as obs_breakdown

    by_kind: Dict[str, float] = {}
    for kind, secs in obs_breakdown.wall_by_kind().items():
        delta = secs - wall_before.get(kind, 0.0)
        if delta > 0:
            by_kind[kind] = delta
    if out.comms is not None:
        for kind, secs in obs_breakdown.wall_from_obs_keys(out.comms["totals"]).items():
            by_kind[kind] = by_kind.get(kind, 0.0) + secs
    if not by_kind:
        return None
    return {"wall_by_kind": {k: float(v) for k, v in sorted(by_kind.items())}}


def _cell_detail(frontier: Optional[str], bound: Optional[str]) -> str:
    """The non-default axis values a cell ran under, for the detail column."""
    parts = []
    if frontier not in (None, "lifo"):
        parts.append(f"frontier={frontier}")
    if bound not in (None, "greedy"):
        parts.append(f"bound={bound}")
    return ",".join(parts)


def _run_sequential_cell(
    graph, itype: str, k: Optional[int], cfg: ExperimentConfig,
    frontier: Optional[str] = None,
    bound: Optional[str] = None,
) -> CellResult:
    start = time.perf_counter()
    if itype == "mvc":
        out = solve_mvc_sequential_sim(
            graph, cpu=cfg.cpu, cost_model=cfg.cost_model,
            node_budget=cfg.seq_node_guard, cycle_budget=cfg.seq_cycle_budget,
            frontier=frontier, bound=bound,
        )
        feasible = None
    else:
        assert k is not None
        out = solve_pvc_sequential_sim(
            graph, k, cpu=cfg.cpu, cost_model=cfg.cost_model,
            node_budget=cfg.seq_node_guard, cycle_budget=cfg.seq_cycle_budget,
            frontier=frontier, bound=bound,
        )
        feasible = out.feasible
    stats = out.stats
    return CellResult(
        engine="sequential",
        instance_type=itype,
        seconds=None if out.timed_out else out.sim_seconds,
        timed_out=out.timed_out,
        nodes=out.nodes_visited,
        optimum=out.optimum,
        feasible=feasible,
        wall_seconds=time.perf_counter() - start,
        detail=_cell_detail(frontier, bound),
        cycles=out.cycles,
        obs=_sim_obs(out.cycles_by_kind) if cfg.telemetry else None,
        tree={
            "branches": stats.branches,
            "prunes": stats.prunes,
            "solutions": stats.solutions_found,
            "max_depth": stats.max_depth_reached,
            "max_stack": stats.max_stack_depth,
        },
    )


def _run_engine_cell(engine_name: str, graph, itype: str, k: Optional[int],
                     cfg: ExperimentConfig, bound: str = "greedy") -> CellResult:
    """Run one GPU engine, taking the best over its parameter grid."""
    start = time.perf_counter()
    candidates = []
    if engine_name == "stackonly":
        for depth in cfg.stackonly_depths:
            eng = StackOnlyEngine(device=cfg.device, cost_model=cfg.cost_model,
                                  start_depth=depth, bound=bound)
            candidates.append((f"depth={depth}", eng))
    elif engine_name == "hybrid":
        for cap in cfg.hybrid_capacities:
            for frac in cfg.hybrid_fractions:
                eng = HybridEngine(
                    device=cfg.device, cost_model=cfg.cost_model,
                    worklist_capacity=cap, worklist_threshold_fraction=frac,
                    bound=bound,
                )
                candidates.append((f"cap={cap},thr={frac}", eng))
    elif engine_name == "globalonly":
        candidates.append(("", GlobalOnlyEngine(device=cfg.device,
                                                cost_model=cfg.cost_model,
                                                bound=bound)))
    else:
        raise ValueError(engine_name)

    best = None
    best_detail = ""
    for detail, eng in candidates:
        if itype == "mvc":
            res = eng.solve_mvc(graph, node_budget=cfg.engine_node_guard,
                                cycle_budget=cfg.gpu_cycle_budget)
        else:
            assert k is not None
            res = eng.solve_pvc(graph, k, node_budget=cfg.engine_node_guard,
                                cycle_budget=cfg.gpu_cycle_budget)
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
        metrics=best.stats.metrics,
        cycles=best.stats.makespan_cycles,
        obs=(_sim_obs(best.stats.metrics.cycles_by_kind())
             if cfg.telemetry and best.stats.metrics is not None else None),
    )


def _run_cpu_cell(engine_name: str, graph, itype: str, k: Optional[int],
                  cfg: ExperimentConfig, bound: str = "greedy",
                  workers: Optional[int] = None, hosts: int = 0) -> CellResult:
    """Run one real ``cpu-*`` / ``distributed`` engine in wall-clock mode.

    These cells have no virtual pricing: ``seconds``/``cycles`` stay
    ``None`` and ``wall_seconds`` is the measurement — the store schema
    has carried it since PR 4, this is the mode that fills it with real
    engine runs.  Node counts are scheduling-dependent, so only the
    deterministic fields (optimum / feasibility) are verifiable.
    """
    from ..core.solver import solve_mvc, solve_pvc

    n_workers = cfg.cpu_workers if workers is None else workers
    wall_before: Dict[str, float] = {}
    armed_here = False
    if cfg.telemetry:
        from ..obs import breakdown as obs_breakdown
        from ..obs import metrics as obs_metrics

        if not obs_metrics.armed():
            obs_metrics.arm()
            armed_here = True
        # Delta against whatever the registry already holds, so cells
        # isolate cleanly whether we armed or the caller did.
        wall_before = obs_breakdown.wall_by_kind()
    start = time.perf_counter()
    kwargs = dict(engine=engine_name, n_workers=n_workers,
                  node_budget=cfg.engine_node_guard, bound=bound,
                  **({"kernels": cfg.kernels} if cfg.kernels else {}),
                  **({"cache": cfg.cache} if cfg.cache else {}),
                  **({"hosts": hosts} if engine_name == "distributed" else {}))
    try:
        if itype == "mvc":
            out = solve_mvc(graph, **kwargs)
            feasible = None
        else:
            assert k is not None
            out = solve_pvc(graph, k, **kwargs)
            feasible = out.feasible
        obs = _wall_obs(out, wall_before) if cfg.telemetry else None
    finally:
        if armed_here:
            from ..obs import metrics as obs_metrics

            obs_metrics.disarm()
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
    cfg: ExperimentConfig,
    frontier: Optional[str] = None,
    bound: str = "greedy",
    workers: Optional[int] = None,
    hosts: int = 0,
) -> CellResult:
    """Run one experiment cell: one engine on one instance formulation.

    The single entry point both the Table I harness and the
    :mod:`repro.experiment` runner execute cells through, so stored
    cells and live cells are produced by the very same code path.
    ``frontier`` applies to the sequential engine only (the parallel
    engines' disciplines are fixed by what they model); ``bound``
    applies to every engine.  The real ``cpu-*`` and ``distributed``
    engines run in wall-clock mode (no virtual pricing); ``workers``
    overrides their team width per cell (``None``: ``cfg.cpu_workers``)
    and ``hosts`` joins that many extra localhost ``serve-worker``
    processes — the distributed engine only.
    """
    if engine == "sequential":
        return _run_sequential_cell(graph, itype, k, cfg, frontier, bound)
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
        return _run_cpu_cell(engine, graph, itype, k, cfg, bound,
                             workers=workers, hosts=hosts)
    if workers is not None:
        raise ValueError(
            f"the 'workers' axis applies to the wall-clock engines only; "
            f"engine {engine!r} has no worker pool"
        )
    return _run_engine_cell(engine, graph, itype, k, cfg, bound)


def _k_for(itype: str, minimum: int) -> int:
    return {"pvc_km1": minimum - 1, "pvc_k": minimum, "pvc_kp1": minimum + 1}[itype]


# --------------------------------------------------------------------- #
# Table I / II
# --------------------------------------------------------------------- #
def _table1_descriptor(
    cfg: ExperimentConfig,
    suite_names: Sequence[str],
    engines: Sequence[str],
    instance_types: Sequence[str],
) -> Dict[str, object]:
    """The deterministic identity of one store-backed Table I run.

    Everything that can change a cell's *result* goes in — including the
    full device/CPU/cost-model parameters, not just their names, so a
    custom ``CostModel`` (or a re-tuned device preset) can never be
    served another configuration's cells as fingerprint matches.
    """
    from dataclasses import asdict

    return {
        "kind": "table1",
        "scale": cfg.scale,
        "device": asdict(cfg.device),
        "cpu": asdict(cfg.cpu),
        "cost_model": asdict(cfg.cost_model),
        "virtual_budget_s": cfg.virtual_budget_s,
        "seq_node_guard": cfg.seq_node_guard,
        "engine_node_guard": cfg.engine_node_guard,
        "stackonly_depths": list(cfg.stackonly_depths),
        "hybrid_capacities": list(cfg.hybrid_capacities),
        "hybrid_fractions": list(cfg.hybrid_fractions),
        "instances": list(suite_names),
        "engines": list(engines),
        "instance_types": list(instance_types),
    }


def run_table1(
    cfg: Optional[ExperimentConfig] = None,
    *,
    instances: Optional[Sequence[str]] = None,
    engines: Sequence[str] = ("sequential", "stackonly", "hybrid"),
    instance_types: Sequence[str] = INSTANCE_TYPES,
    verbose: bool = False,
    store=None,
) -> Table1Result:
    """Regenerate Table I on the synthetic suite.

    With a :class:`repro.experiment.store.RunStore` in ``store``, the
    harness is store-backed: each cell is keyed by its fingerprint
    (graph hash × configuration hash), fingerprint-matched cells are
    loaded from the run's ``results.jsonl`` instead of re-solved, and
    newly computed cells are appended — so an interrupted ``repro
    table1 --store …`` resumes where it stopped and later PRs can diff
    the very same cells across runs.
    """
    cfg = cfg or ExperimentConfig()
    suite = paper_suite(cfg.scale)
    if instances is not None:
        wanted = set(instances)
        suite = [inst for inst in suite if inst.name in wanted]
        missing = wanted - {inst.name for inst in suite}
        if missing:
            raise KeyError(f"unknown suite instances: {sorted(missing)}")

    run = None
    done: Dict[str, Dict[str, object]] = {}
    if store is not None:
        from ..experiment.spec import cell_fingerprint, graph_fingerprint

        descriptor = _table1_descriptor(
            cfg, [inst.name for inst in suite], engines, instance_types)
        run = store.open_run(name="table1", spec=descriptor)
        done = run.completed()

    rows: List[Table1Row] = []
    for inst in suite:
        graph = inst.graph()
        minimum, min_source = resolve_minimum(inst, cfg.scale)
        graph_fp = graph_fingerprint(graph) if run is not None else ""
        row = Table1Row(
            instance=inst, n=graph.n, m=graph.m,
            avg_degree=graph.average_degree(),
            minimum=minimum, min_source=min_source,
        )
        for itype in instance_types:
            if itype != "mvc":
                if minimum is None:
                    continue  # k unknown: the paper could not run these either
                k = _k_for(itype, minimum)
                if k < 0:
                    continue
            else:
                k = None
            for engine in engines:
                fp = None
                if run is not None:
                    payload = {
                        "instance": inst.name,
                        "engine": engine,
                        "frontier": None,
                        "instance_type": itype,
                        "k": k,
                        "repeat": 0,
                        "config": run.manifest["spec"],
                    }
                    fp = cell_fingerprint(graph_fp, payload)
                if fp is not None and fp in done:
                    cell = CellResult.from_record(done[fp]["result"])
                else:
                    cell = run_cell(engine, graph, itype, k, cfg)
                    if run is not None:
                        run.append({
                            "fingerprint": fp,
                            "instance": inst.name,
                            "engine": engine,
                            "frontier": None,
                            "instance_type": itype,
                            "k": k,
                            "repeat": 0,
                            "result": cell.to_record(),
                        })
                row.cells[(engine, itype)] = cell
                if verbose:
                    print(
                        f"  {inst.name:20s} {itype:8s} {engine:10s} "
                        f"{tables.format_seconds(cell.seconds, cell.timed_out):>10s} "
                        f"(nodes={cell.nodes}, wall={cell.wall_seconds:.1f}s)"
                    )
        rows.append(row)
    if run is not None:
        run.finish("complete")
        store.index_run(run)
    return Table1Result(rows=rows, config=cfg)


@dataclass
class Table2Result:
    """Geometric-mean speedups in the paper's Table II layout."""

    speedups: Dict[Tuple[str, str, str], float]  # (category, baseline, itype)
    table1: Table1Result

    def render(self) -> str:
        headers = ["Category", "Baseline"] + [
            {"mvc": "MVC", "pvc_km1": "PVC k-1", "pvc_k": "PVC k", "pvc_kp1": "PVC k+1"}[t]
            for t in INSTANCE_TYPES
        ]
        body = []
        for cat in (HIGH_DEGREE, LOW_DEGREE, "overall"):
            for baseline in ("stackonly", "sequential"):
                cells: List[object] = [cat, f"hybrid vs {baseline}"]
                for itype in INSTANCE_TYPES:
                    val = self.speedups.get((cat, baseline, itype))
                    cells.append(tables.format_speedup(val))
                body.append(cells)
        return tables.render_table(headers, body, title="Table II — aggregate speedup (geometric mean)")


def run_table2(table1: Optional[Table1Result] = None, cfg: Optional[ExperimentConfig] = None) -> Table2Result:
    """Aggregate Table I into Table II's geometric-mean speedups."""
    if table1 is None:
        table1 = run_table1(cfg)
    speedups: Dict[Tuple[str, str, str], float] = {}
    for baseline in ("stackonly", "sequential"):
        for itype in INSTANCE_TYPES:
            rows = [
                {
                    "category": row.instance.category,
                    "base": row.seconds(baseline, itype),
                    "subject": row.seconds("hybrid", itype),
                }
                for row in table1.rows
            ]
            agg = aggregate_speedups(rows, baseline_key="base", subject_key="subject")
            for cat, val in agg.items():
                speedups[(cat, baseline, itype)] = val
    return Table2Result(speedups=speedups, table1=table1)


# --------------------------------------------------------------------- #
# Table III
# --------------------------------------------------------------------- #
@dataclass
class Table3Result:
    rows: List[Dict[str, object]]
    config: ExperimentConfig

    def render(self) -> str:
        headers = ["Graph", "Sequential", "StackOnly", "Hybrid", "AbuKhzam'18 (paper, other HW)"]
        body = []
        for row in self.rows:
            body.append([
                row["name"],
                tables.format_seconds(row["sequential"], row["sequential"] is None),
                tables.format_seconds(row["stackonly"], row["stackonly"] is None),
                tables.format_seconds(row["hybrid"], row["hybrid"] is None),
                f"{row['prior']:.1f}" if row["prior"] is not None else "--",
            ])
        return tables.render_table(
            headers, body,
            title="Table III — PVC (k = min) execution time (virtual seconds); prior-work column "
                  "replicates the paper's reported numbers for context",
        )


def run_table3(cfg: Optional[ExperimentConfig] = None, table1: Optional[Table1Result] = None) -> Table3Result:
    """The PVC k=min comparison on the p_hat sub-suite (paper Table III)."""
    cfg = cfg or ExperimentConfig()
    names = list(PRIOR_WORK_TABLE3_SECONDS)
    if table1 is None:
        table1 = run_table1(cfg, instances=names, instance_types=("pvc_k",))
    rows = []
    for row in table1.rows:
        if row.instance.name not in PRIOR_WORK_TABLE3_SECONDS:
            continue
        rows.append({
            "name": row.instance.name,
            "sequential": row.seconds("sequential", "pvc_k"),
            "stackonly": row.seconds("stackonly", "pvc_k"),
            "hybrid": row.seconds("hybrid", "pvc_k"),
            "prior": PRIOR_WORK_TABLE3_SECONDS[row.instance.name],
        })
    return Table3Result(rows=rows, config=cfg)


# --------------------------------------------------------------------- #
# Fig. 5
# --------------------------------------------------------------------- #
@dataclass
class Fig5Entry:
    graph_name: str
    engine: str
    instance_type: str
    normalized_load: np.ndarray
    summary: LoadSummary


@dataclass
class Fig5Result:
    entries: List[Fig5Entry]
    config: ExperimentConfig

    def render(self) -> str:
        headers = ["Graph", "Instance", "Engine", "min", "p25", "median", "p75", "max", "max/mean"]
        body = []
        for e in self.entries:
            s = e.summary
            body.append([
                e.graph_name, e.instance_type, e.engine,
                f"{s.min:.2f}", f"{s.p25:.2f}", f"{s.median:.2f}",
                f"{s.p75:.2f}", f"{s.max:.2f}", f"{s.imbalance:.2f}",
            ])
        return tables.render_table(
            headers, body,
            title="Fig. 5 — distribution of per-SM load (tree nodes / mean)",
        )


def run_fig5(cfg: Optional[ExperimentConfig] = None, *, graphs: Optional[Sequence[str]] = None) -> Fig5Result:
    """Per-SM load distributions on the degree extremes (paper Fig. 5)."""
    cfg = cfg or ExperimentConfig()
    suite = paper_suite(cfg.scale)
    if graphs is None:
        # The paper contrasts its densest with its sparsest graph
        # (p_hat1000-1 vs US power grid); at reproduction scale the
        # tier-1 complements are trivial, so the high-degree showcase is
        # the hardest p_hat instance — where imbalance actually appears.
        graphs = ["p_hat_500_3", "us_power_grid"]
    entries: List[Fig5Entry] = []
    for name in graphs:
        inst = next(i for i in suite if i.name == name)
        graph = inst.graph()
        minimum, _ = resolve_minimum(inst, cfg.scale)
        for itype in INSTANCE_TYPES:
            if itype != "mvc" and minimum is None:
                continue
            k = None if itype == "mvc" else _k_for(itype, minimum)
            if k is not None and k < 0:
                continue
            for engine in ("stackonly", "hybrid"):
                cell = _run_engine_cell(engine, graph, itype, k, cfg)
                if cell.metrics is None:
                    continue
                entries.append(Fig5Entry(
                    graph_name=name,
                    engine=engine,
                    instance_type=itype,
                    normalized_load=cell.metrics.normalized_load(),
                    summary=load_summary_from_metrics(cell.metrics),
                ))
    return Fig5Result(entries=entries, config=cfg)


# --------------------------------------------------------------------- #
# Fig. 6
# --------------------------------------------------------------------- #
@dataclass
class Fig6Result:
    rows: List[BreakdownRow]
    config: ExperimentConfig

    def render(self) -> str:
        kinds = list(ACTIVITY_LABELS)
        headers = ["Graph"] + [ACTIVITY_LABELS[k].split()[0] + "…" for k in kinds]
        body = []
        for row in self.rows:
            body.append([row.name] + [f"{row.fractions.get(k, 0.0) * 100:.1f}%" for k in kinds])
        legend = "\n".join(f"  {ACTIVITY_LABELS[k].split()[0] + '…':<12s} = {ACTIVITY_LABELS[k]}" for k in kinds)
        return (
            tables.render_table(headers, body, title="Fig. 6 — breakdown of Hybrid MVC execution time")
            + "\n\nLegend:\n" + legend
        )


def run_fig6(cfg: Optional[ExperimentConfig] = None, *, instances: Optional[Sequence[str]] = None) -> Fig6Result:
    """Execution-time breakdown of the Hybrid MVC kernel (paper Fig. 6)."""
    cfg = cfg or ExperimentConfig()
    suite = paper_suite(cfg.scale)
    if instances is not None:
        wanted = set(instances)
        suite = [inst for inst in suite if inst.name in wanted]
    rows: List[BreakdownRow] = []
    for inst in suite:
        cell = _run_engine_cell("hybrid", inst.graph(), "mvc", None, cfg)
        if cell.metrics is None:
            continue
        rows.append(breakdown_row(inst.name, cell.metrics))
    rows.append(mean_breakdown(rows))
    return Fig6Result(rows=rows, config=cfg)


# --------------------------------------------------------------------- #
# §V-A sweeps and §IV-A ablation
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


def run_sweeps(
    cfg: Optional[ExperimentConfig] = None,
    *,
    instance: str = "p_hat_300_3",
) -> List[SweepResult]:
    """Section V-A's robustness sweeps on one representative hard instance."""
    cfg = cfg or ExperimentConfig()
    inst = next(i for i in paper_suite(cfg.scale) if i.name == instance)
    graph = inst.graph()
    results: List[SweepResult] = []

    # -- block size sweep (both engines) --
    rows = []
    for bs in (32, 64, 128, 256):
        if bs > cfg.device.max_threads_per_block:
            continue
        for engine_name, ctor in (
            ("stackonly", lambda bs=bs: StackOnlyEngine(device=cfg.device, cost_model=cfg.cost_model,
                                                        start_depth=6, block_size_override=bs)),
            ("hybrid", lambda bs=bs: HybridEngine(device=cfg.device, cost_model=cfg.cost_model,
                                                  block_size_override=bs)),
        ):
            res = ctor().solve_mvc(graph, node_budget=cfg.engine_node_guard,
                                   cycle_budget=cfg.gpu_cycle_budget)
            rows.append({
                "engine": engine_name, "block_size": bs,
                "seconds": tables.format_seconds(res.stats.sim_seconds, res.timed_out),
                "cycles": f"{res.stats.makespan_cycles:.3g}",
            })
    results.append(SweepResult(f"Block-size sweep on {instance}", rows))

    # -- StackOnly depth sweep --
    rows = []
    for depth in (2, 4, 6, 8, 10):
        res = StackOnlyEngine(device=cfg.device, cost_model=cfg.cost_model, start_depth=depth) \
            .solve_mvc(graph, node_budget=cfg.engine_node_guard, cycle_budget=cfg.gpu_cycle_budget)
        rows.append({
            "start_depth": depth,
            "seconds": tables.format_seconds(res.stats.sim_seconds, res.timed_out),
            "nodes": res.nodes_visited,
            "max/mean load": f"{load_summary_from_metrics(res.stats.metrics).imbalance:.2f}",
        })
    results.append(SweepResult(f"StackOnly start-depth sweep on {instance}", rows))

    # -- Hybrid worklist size x threshold sweep --
    rows = []
    for cap in (256, 1024, 4096):
        for frac in (0.25, 0.5, 1.0):
            res = HybridEngine(device=cfg.device, cost_model=cfg.cost_model,
                               worklist_capacity=cap, worklist_threshold_fraction=frac) \
                .solve_mvc(graph, node_budget=cfg.engine_node_guard, cycle_budget=cfg.gpu_cycle_budget)
            rows.append({
                "capacity": cap, "threshold": int(cap * frac),
                "seconds": tables.format_seconds(res.stats.sim_seconds, res.timed_out),
                "wl peak": res.stats.worklist_stats.peak_population,
            })
    results.append(SweepResult(f"Hybrid worklist sweep on {instance}", rows))
    return results


def run_ablation(
    cfg: Optional[ExperimentConfig] = None,
    *,
    instances: Sequence[str] = ("p_hat_300_3", "sister_cities"),
) -> SweepResult:
    """Hybrid vs the pure global worklist (Section IV-A's two drawbacks)."""
    cfg = cfg or ExperimentConfig()
    suite = {i.name: i for i in paper_suite(cfg.scale)}
    rows = []
    for name in instances:
        graph = suite[name].graph()
        for engine_name, eng in (
            ("hybrid", HybridEngine(device=cfg.device, cost_model=cfg.cost_model)),
            ("globalonly", GlobalOnlyEngine(device=cfg.device, cost_model=cfg.cost_model)),
        ):
            res = eng.solve_mvc(graph, node_budget=cfg.engine_node_guard,
                                cycle_budget=cfg.gpu_cycle_budget)
            wl = res.stats.worklist_stats
            rows.append({
                "graph": name,
                "engine": engine_name,
                "seconds": tables.format_seconds(res.stats.sim_seconds, res.timed_out),
                "wl peak": wl.peak_population,
                "wl adds": wl.adds,
                "rejected adds": wl.rejected_adds,
                "nodes": res.nodes_visited,
            })
    return SweepResult("GlobalOnly ablation (Section IV-A)", rows)
