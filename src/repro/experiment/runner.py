"""Experiment runner: expand a spec, fan out, skip what already ran.

The runner turns an :class:`~repro.experiment.spec.ExperimentSpec` into
planned cells, resolves each instance once (graph construction, graph
fingerprint, exact minimum for the PVC columns), drops the cells whose
fingerprint already has a record in the run's ``results.jsonl`` (the
resume contract), and executes the remainder — inline, or fanned out
over a ``ProcessPoolExecutor``.

Every cell goes through :func:`repro.analysis.experiments.run_cell`,
i.e. the exact NodeStep × frontier × engine composition a direct
``repro solve`` invocation uses — which is what lets
:mod:`repro.experiment.report` assert stored charge streams bit-identical
against live re-execution.  The paper's tables and figures are presets of
this one driver (:mod:`repro.experiment.presets`).
"""

from __future__ import annotations

import multiprocessing as mp
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from ..analysis.experiments import k_for, run_cell
from ..graph.csr import CSRGraph
from .spec import ExperimentSpec, InstanceRef, cell_fingerprint, graph_fingerprint
from .store import Run, RunStore

__all__ = [
    "InstanceInfo",
    "PlannedCell",
    "RunOutcome",
    "load_instance_graph",
    "plan_run",
    "run_experiment",
]

#: Node guard for the one-off exact-minimum resolution of file instances.
_MINIMUM_NODE_GUARD = 150_000


# --------------------------------------------------------------------- #
# instance resolution
# --------------------------------------------------------------------- #
def load_instance_graph(ref: InstanceRef, scale: str) -> CSRGraph:
    """Build a suite instance or read an on-disk graph file by extension."""
    if ref.suite is not None:
        from ..graph.generators.suites import suite_instance

        return suite_instance(ref.suite, scale).graph()
    path = Path(ref.path)  # type: ignore[arg-type]
    suffix = path.suffix.lower()
    if suffix in (".col", ".clq", ".dimacs"):
        from ..graph.io.dimacs import read_dimacs

        return read_dimacs(path)
    if suffix in (".graph", ".metis"):
        from ..graph.io.metis import read_metis

        return read_metis(path)
    from ..graph.io.edgelist import read_edgelist

    return read_edgelist(path)[0]


def _resolve_minimum(graph: CSRGraph) -> Tuple[Optional[int], str]:
    """Exact minimum cover size of an instance, and how we know it.

    Bipartite instances use König's theorem (polynomial time) — this is
    how the ``k = min`` columns stay runnable on instances whose MVC
    search is over budget, mirroring the paper's use of externally known
    optima for the PACE graphs.  Other instances are solved once with the
    sequential engine under a node guard; past it the minimum is unknown
    and the instance's PVC cells are not planned.
    """
    from ..core.matching import konig_cover
    from ..core.sequential import solve_mvc_sequential

    konig = konig_cover(graph)
    if konig is not None:
        return konig.size, "konig"
    out = solve_mvc_sequential(graph, node_budget=_MINIMUM_NODE_GUARD)
    if out.timed_out:
        return None, "unknown"
    return out.optimum, "search"


@dataclass
class InstanceInfo:
    """Per-instance metadata recorded in the run manifest."""

    label: str
    ref: object               # the spec's JSON form of the instance
    n: int
    m: int
    avg_degree: float
    graph_fp: str
    minimum: Optional[int]
    min_source: str

    def to_json(self) -> Dict[str, object]:
        return {
            "label": self.label, "ref": self.ref, "n": self.n, "m": self.m,
            "avg_degree": self.avg_degree, "graph_fp": self.graph_fp,
            "minimum": self.minimum, "min_source": self.min_source,
        }


@dataclass
class PlannedCell:
    """One executable cell with its resolved ``k`` and fingerprint."""

    instance: InstanceInfo
    engine: str
    frontier: Optional[str]
    bound: str
    instance_type: str
    k: Optional[int]
    repeat: int
    fingerprint: str
    workers: Optional[int] = None
    hosts: int = 0

    def identity(self) -> Dict[str, object]:
        """The record fields shared by results.jsonl and the index."""
        return {
            "fingerprint": self.fingerprint,
            "instance": self.instance.label,
            "engine": self.engine,
            "frontier": self.frontier,
            "bound": self.bound,
            "instance_type": self.instance_type,
            "k": self.k,
            "repeat": self.repeat,
            # non-default only: records from pre-axis stores stay valid
            **({"workers": self.workers} if self.workers is not None else {}),
            **({"hosts": self.hosts} if self.hosts else {}),
        }


@dataclass
class RunOutcome:
    """What one ``run_experiment`` invocation did."""

    run: Run
    planned: int
    executed: int
    skipped: int
    instances: List[InstanceInfo] = field(default_factory=list)
    #: cells whose every attempt failed this invocation; their ``error``
    #: records are in the store and a ``resume`` retries them.
    quarantined: int = 0


# --------------------------------------------------------------------- #
# planning
# --------------------------------------------------------------------- #
def plan_run(spec: ExperimentSpec) -> Tuple[List[InstanceInfo], List[PlannedCell]]:
    """Resolve instances and expand the grid into fingerprinted cells.

    PVC cells whose ``k`` cannot be resolved (minimum unknown within the
    guard) or would be negative are dropped here — deterministically, so
    a resume plans the identical cell list.  A spec of MVC cells only
    needs no minimum and resolves none.
    """
    needs_minimum = any(itype != "mvc" for itype in spec.instance_types)
    infos: Dict[InstanceRef, InstanceInfo] = {}
    for ref in spec.instances:
        graph = load_instance_graph(ref, spec.scale)
        minimum, min_source = (_resolve_minimum(graph) if needs_minimum
                               else (None, "not needed"))
        infos[ref] = InstanceInfo(
            label=ref.label, ref=ref.to_json(), n=graph.n, m=graph.m,
            avg_degree=graph.average_degree(),
            graph_fp=graph_fingerprint(graph),
            minimum=minimum, min_source=min_source,
        )

    planned: List[PlannedCell] = []
    config = spec.cell_config()
    for cell in spec.expand_cells():
        info = infos[cell.instance]
        if cell.instance_type == "mvc":
            k = None
        else:
            if info.minimum is None:
                continue  # the paper could not run these either
            k = k_for(cell.instance_type, info.minimum)
            if k < 0:
                continue
        payload = {
            "instance": info.label,
            "engine": cell.engine,
            "frontier": cell.frontier,
            "instance_type": cell.instance_type,
            "k": k,
            "repeat": cell.repeat,
            "config": config,
        }
        if cell.bound != "greedy":
            # non-default only: default-bound cells fingerprint exactly
            # as they did before the axis existed, preserving resume of
            # pre-existing stores
            payload["bound"] = cell.bound
        if cell.workers is not None:
            # same contract as ``bound``: the axis unset (None — use the
            # ``cpu_workers`` scalar) fingerprints as before it existed
            payload["workers"] = cell.workers
        if cell.hosts:
            payload["hosts"] = cell.hosts
        planned.append(PlannedCell(
            instance=info, engine=cell.engine, frontier=cell.frontier,
            bound=cell.bound, instance_type=cell.instance_type, k=k,
            repeat=cell.repeat, workers=cell.workers, hosts=cell.hosts,
            fingerprint=cell_fingerprint(info.graph_fp, payload),
        ))
    return list(infos.values()), planned


# --------------------------------------------------------------------- #
# execution
# --------------------------------------------------------------------- #
#: Per-process graph cache for pool workers (key: ref JSON × scale).
_GRAPH_CACHE: Dict[str, CSRGraph] = {}


def _cached_graph(ref_json: object, scale: str) -> CSRGraph:
    key = f"{ref_json!r}@{scale}"
    graph = _GRAPH_CACHE.get(key)
    if graph is None:
        graph = load_instance_graph(InstanceRef.from_json(ref_json), scale)
        _GRAPH_CACHE[key] = graph
    return graph


def _execute_cell(spec_dict: Dict[str, object], cell_fields: Dict[str, object],
                  ref_json: object) -> Dict[str, object]:
    """Worker entry point: rebuild the graph, run the cell, return the record.

    Top-level (picklable) on purpose; runs both inline and inside pool
    workers so the two paths cannot drift.
    """
    spec = ExperimentSpec.from_dict(spec_dict)
    graph = _cached_graph(ref_json, spec.scale)
    result = run_cell(
        cell_fields["engine"],  # type: ignore[arg-type]
        graph,
        cell_fields["instance_type"],  # type: ignore[arg-type]
        cell_fields["k"],  # type: ignore[arg-type]
        spec,
        frontier=cell_fields["frontier"],  # type: ignore[arg-type]
        bound=cell_fields.get("bound", "greedy"),  # type: ignore[arg-type]
        workers=cell_fields.get("workers"),  # type: ignore[arg-type]
        hosts=cell_fields.get("hosts", 0),  # type: ignore[arg-type]
    )
    return {**cell_fields, "result": result.to_record()}


class _CellTimeout(RuntimeError):
    """A cell outlived ``cell_timeout_s`` and its process was terminated."""


def _cell_proc_entry(out_q, spec_dict, cell_fields, ref_json) -> None:
    """Child entry for timeout-guarded cells (SimpleQueue: durable put)."""
    try:
        out_q.put(("ok", _execute_cell(spec_dict, cell_fields, ref_json)))
    except Exception as exc:  # noqa: BLE001 - shipped back, not swallowed
        out_q.put(("err", f"{type(exc).__name__}: {exc}"))


def _execute_with_timeout(spec_dict, cell_fields, ref_json,
                          timeout_s: float) -> Dict[str, object]:
    """Run one cell in its own process, terminating it at the timeout."""
    ctx = mp.get_context("fork")
    out_q = ctx.SimpleQueue()
    proc = ctx.Process(target=_cell_proc_entry,
                       args=(out_q, spec_dict, cell_fields, ref_json),
                       daemon=True)
    proc.start()
    msg = None
    end = time.monotonic() + timeout_s
    try:
        while msg is None:
            if not out_q.empty():
                msg = out_q.get()
                break
            if not proc.is_alive():
                # died without reporting (or the result raced the check)
                msg = out_q.get() if not out_q.empty() else None
                if msg is None:
                    raise RuntimeError(
                        f"cell worker died with exit code {proc.exitcode}")
                break
            if time.monotonic() >= end:
                raise _CellTimeout(f"cell exceeded cell_timeout_s={timeout_s}")
            time.sleep(0.01)
    finally:
        if proc.is_alive():
            proc.terminate()
        proc.join(timeout=5.0)
    status, payload = msg
    if status == "ok":
        return payload
    raise RuntimeError(payload)


def _execute_cell_guarded(
    spec_dict: Dict[str, object],
    cell_fields: Dict[str, object],
    ref_json: object,
    timeout_s: Optional[float],
    retries: int,
) -> Dict[str, object]:
    """Execute a cell under the spec's timeout/retry policy.

    Never raises for a cell-level failure: after ``retries + 1`` failed
    attempts the cell is *quarantined* — an ``error`` record with the
    full cell identity, which the store treats as "not completed", so a
    ``resume`` retries exactly these cells.
    """
    last_error: Optional[str] = None
    timed_out = False
    attempts = 0
    for attempts in range(1, retries + 2):
        try:
            if timeout_s is None:
                return _execute_cell(spec_dict, cell_fields, ref_json)
            return _execute_with_timeout(spec_dict, cell_fields, ref_json, timeout_s)
        except _CellTimeout as exc:
            last_error, timed_out = str(exc), True
        except Exception as exc:  # noqa: BLE001 - quarantine, don't kill the run
            last_error = f"{type(exc).__name__}: {exc}"
    return {
        **cell_fields,
        "error": {
            "type": "timeout" if timed_out else "exception",
            "message": (last_error or "unknown")[:500],
            "attempts": attempts,
        },
    }


def run_experiment(
    spec: ExperimentSpec,
    store: RunStore,
    *,
    n_workers: int = 0,
    resume: bool = True,
    run_id: Optional[str] = None,
    echo: Optional[Callable[[str], None]] = None,
) -> RunOutcome:
    """Execute a spec against a store; skip fingerprint-matched cells.

    ``n_workers <= 1`` runs inline (deterministic order, no processes);
    larger values fan the pending cells out over a process pool.  With
    ``resume=False`` every planned cell re-executes and shadows its old
    record.  Returns the executed/skipped counts the resume tests (and
    the ``--smoke`` CI gate) assert on.

    A failing or ``cell_timeout_s``-exceeding cell never kills the run:
    after ``cell_retries`` extra attempts it is quarantined — an
    ``error`` record in the store — and the sweep continues; a later
    ``resume`` retries the quarantined cells.  ``KeyboardInterrupt``
    marks the run ``interrupted`` (completed records are already durable)
    and re-raises for the CLI to report the resume command.
    """
    spec.validate()
    say = echo if echo is not None else (lambda _msg: None)
    run = store.open_run(name=spec.name, spec=spec.to_dict(), run_id=run_id)
    t0 = time.perf_counter()
    infos, planned = plan_run(spec)
    run.update_manifest(
        n_cells=len(planned),
        instances=[info.to_json() for info in infos],
    )
    done = run.completed() if resume else {}
    pending = [cell for cell in planned if cell.fingerprint not in done]
    skipped = len(planned) - len(pending)
    say(f"{run.run_id}: {len(planned)} cells planned, {skipped} already "
        f"complete, {len(pending)} to run")

    spec_dict = spec.to_dict()
    quarantined = 0

    def note(cell: PlannedCell, record: Dict[str, object]) -> None:
        nonlocal quarantined
        label = (f"{cell.instance.label}/{cell.instance_type}/"
                 f"{cell.engine}{'/' + cell.frontier if cell.frontier else ''}"
                 f"{'/' + cell.bound if cell.bound != 'greedy' else ''}")
        if "error" in record:
            quarantined += 1
            say(f"  QUARANTINED {label}: {record['error']['message']}")  # type: ignore[index]
        else:
            say(f"  done {label}")

    try:
        if n_workers <= 1 or len(pending) <= 1:
            for cell in pending:
                record = _execute_cell_guarded(
                    spec_dict, cell.identity(), cell.instance.ref,
                    spec.cell_timeout_s, spec.cell_retries)
                run.append(record)
                note(cell, record)
        else:
            with ProcessPoolExecutor(max_workers=n_workers) as pool:
                futures = {
                    pool.submit(_execute_cell_guarded, spec_dict, cell.identity(),
                                cell.instance.ref, spec.cell_timeout_s,
                                spec.cell_retries): cell
                    for cell in pending
                }
                for future in as_completed(futures):
                    cell = futures[future]
                    record = future.result()
                    run.append(record)  # single-writer append
                    note(cell, record)
    except KeyboardInterrupt as exc:
        run.finish("interrupted")
        store.index_run(run)
        exc.run_id = run.run_id  # type: ignore[attr-defined]  # for the CLI
        raise
    run.finish("complete")
    store.index_run(run)
    say(f"{run.run_id}: executed {len(pending) - quarantined}, skipped "
        f"{skipped}, quarantined {quarantined} "
        f"[{time.perf_counter() - t0:.1f}s wall]")
    return RunOutcome(
        run=run, planned=len(planned), executed=len(pending) - quarantined,
        skipped=skipped, instances=infos, quarantined=quarantined,
    )
