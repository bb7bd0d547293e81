"""Reports from the store: paper tables without re-solving anything.

Once a run's cells are persisted, every paper artifact they feed can be
regenerated offline — Table I (virtual seconds), the Table II-style
geometric-mean speedups, and the Fig. 4-adjacent search-tree shape
summary — by reading ``results.jsonl`` instead of re-running engines.

The one thing a store must never do is drift from the engines it claims
to describe, so :func:`verify_run_against_live` re-executes stored cells
through the very same :func:`~repro.analysis.experiments.run_cell` path
and asserts the persisted charge-stream integrals (virtual cycles,
virtual seconds), node counts and optima **bit-identical** — JSON
round-trips doubles exactly, so equality here is ``==``, not "approx".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..analysis import tables
from ..analysis.experiments import (
    INSTANCE_TYPES,
    CellResult,
    Table1Result,
    Table1Row,
    Table2Result,
    run_table2,
)
from .runner import _execute_cell, experiment_config
from .spec import ExperimentSpec
from .store import Run, RunStore

__all__ = [
    "table1_from_run",
    "speedups_from_run",
    "tree_shape_rows",
    "breakdown_rows",
    "render_report",
    "write_report",
    "VerificationError",
    "verify_run_against_live",
    "RunDiff",
    "diff_runs",
    "render_diff",
]


def _spec_of(run: Run) -> ExperimentSpec:
    """The run's spec — refusing cleanly when the run is not spec-shaped.

    The store also hosts runs created by ``repro table1|2|3 --store``
    (manifest spec kind ``table1``); those resume through the table
    commands, not through ``repro experiment``.
    """
    spec = dict(run.manifest["spec"])  # type: ignore[arg-type]
    if spec.get("kind") != "repro-vc-experiment-spec":
        raise ValueError(
            f"run {run.run_id!r} was not created by 'repro experiment run' "
            f"(spec kind {spec.get('kind', 'unknown')!r}); re-run the command "
            "that created it — e.g. 'repro table1 --store' runs resume there"
        )
    return ExperimentSpec.from_dict(spec)


def _suite_instance_for(info: Dict[str, object], scale: str):
    """A row's SuiteInstance: the live suite member, or a file stand-in."""
    from ..graph.generators.suites import SuiteInstance, suite_instance

    ref = info["ref"]
    if isinstance(ref, str):
        return suite_instance(ref, scale)
    return SuiteInstance(
        name=str(info["label"]),
        category="file",
        paper_graph=str(ref["path"]),  # type: ignore[index]
        builder=lambda: (_ for _ in ()).throw(
            RuntimeError("file instances render from stored metadata only")),
    )


def _select_cell(
    records: List[Dict[str, object]],
) -> Optional[Dict[str, object]]:
    """The Table I representative among a cell group's records.

    Groups hold one record per (frontier, bound, repeat); Table I shows
    the default discipline's first repeat — the same cell a plain
    ``run_table1`` computes — preferring ``lifo``/``None`` frontier, the
    default ``greedy`` bound and ``repeat == 0``, falling back
    deterministically.
    """
    if not records:
        return None

    def rank(rec: Dict[str, object]) -> Tuple[int, int, int, str, str]:
        frontier = rec["frontier"]
        bound = rec.get("bound", "greedy")
        return (0 if frontier in (None, "lifo") else 1,
                0 if bound == "greedy" else 1,
                int(rec["repeat"]),  # type: ignore[arg-type]
                str(frontier), str(bound))

    return sorted(records, key=rank)[0]


def table1_from_run(store: RunStore, run_id: str) -> Table1Result:
    """Rebuild the Table I layout purely from a run's stored cells."""
    run = store.get_run(run_id)
    spec = _spec_of(run)
    cfg = experiment_config(spec)
    grouped: Dict[Tuple[str, str, str], List[Dict[str, object]]] = {}
    for record in run.completed().values():
        key = (str(record["instance"]), str(record["engine"]),
               str(record["instance_type"]))
        grouped.setdefault(key, []).append(record)

    rows: List[Table1Row] = []
    for info in run.manifest.get("instances", []):  # type: ignore[union-attr]
        row = Table1Row(
            instance=_suite_instance_for(info, spec.scale),
            n=int(info["n"]), m=int(info["m"]),
            avg_degree=float(info["avg_degree"]),
            minimum=info["minimum"], min_source=str(info["min_source"]),
        )
        for itype in INSTANCE_TYPES:
            for engine in spec.engines:
                record = _select_cell(grouped.get(
                    (str(info["label"]), engine, itype), []))
                if record is not None:
                    row.cells[(engine, itype)] = CellResult.from_record(
                        record["result"])  # type: ignore[arg-type]
        rows.append(row)
    return Table1Result(rows=rows, config=cfg)


def speedups_from_run(store: RunStore, run_id: str) -> Table2Result:
    """Table II-style geometric-mean speedups computed from stored cells."""
    return run_table2(table1=table1_from_run(store, run_id))


def tree_shape_rows(run: Run) -> List[Dict[str, object]]:
    """Search-tree shape of every stored sequential cell (Fig. 4 stats)."""
    rows = []
    for record in run.completed().values():
        result = record["result"]
        tree = result.get("tree")  # type: ignore[union-attr]
        if record["engine"] != "sequential" or not tree:
            continue
        rows.append({
            "instance": record["instance"],
            "type": record["instance_type"],
            "frontier": record["frontier"] or "lifo",
            "bound": record.get("bound", "greedy"),
            "repeat": record["repeat"],
            "nodes": result["nodes"],  # type: ignore[index]
            "branches": tree["branches"],
            "prunes": tree["prunes"],
            "max depth": tree["max_depth"],
            "max stack": tree["max_stack"],
        })
    rows.sort(key=lambda r: (r["instance"], r["type"], r["frontier"],
                             r["bound"], r["repeat"]))
    return rows


def breakdown_rows(run: Run) -> List[Dict[str, object]]:
    """Per-group activity fractions of every stored cell carrying ``obs``.

    Cells of a telemetry-enabled spec persist either a predicted
    attribution (``cycles_by_kind``, sim engines) or a measured one
    (``wall_by_kind``, wall-clock engines); folding both onto the
    paper's four activity groups puts the cost model's prediction and
    the instrumented reality side by side in one table — the Fig. 6
    claim, checked against real engines instead of asserted.
    """
    from ..obs import breakdown as obs_breakdown

    grouped: Dict[Tuple[str, str, str], List[Dict[str, object]]] = {}
    for record in run.completed().values():
        result = record["result"]
        if isinstance(result, dict) and result.get("obs"):
            key = (str(record["instance"]), str(record["instance_type"]),
                   str(record["engine"]))
            grouped.setdefault(key, []).append(record)

    entries: List[Dict[str, object]] = []
    for instance, itype, engine in sorted(grouped):
        record = _select_cell(grouped[(instance, itype, engine)])
        obs = record["result"]["obs"]  # type: ignore[index]
        entry: Dict[str, object] = {"instance": f"{instance}/{itype}",
                                    "engine": engine}
        cycles = obs.get("cycles_by_kind")  # type: ignore[union-attr]
        if cycles:
            entry["predicted"] = obs_breakdown.group_fractions(cycles)
        wall = obs.get("wall_by_kind")  # type: ignore[union-attr]
        if wall:
            entry["measured"] = obs_breakdown.group_fractions(wall)
        if "predicted" in entry or "measured" in entry:
            entries.append(entry)
    return entries


def render_report(store: RunStore, run_id: str) -> str:
    """The run's ``report.md``: paper tables + reproduction footer."""
    run = store.get_run(run_id)
    manifest = run.manifest
    table1 = table1_from_run(store, run_id)
    speedups = speedups_from_run(store, run_id)
    shape = tree_shape_rows(run)

    parts = [
        f"# Experiment report — `{run.run_id}`",
        "",
        f"{len(run.completed())} stored cells over "
        f"{len(manifest.get('instances', []))} instances "  # type: ignore[arg-type]
        f"(status: {manifest['status']}).",
        "",
        "## Table I — execution time (virtual seconds)",
        "",
        "```",
        table1.render(),
        "```",
        "",
        "## Aggregate speedups (geometric mean)",
        "",
        "```",
        speedups.render(),
        "```",
        "",
        "## Search-tree shape (sequential cells)",
        "",
    ]
    if shape:
        headers = list(shape[0])
        parts.append(tables.render_markdown_table(
            headers, [[row[h] for h in headers] for row in shape]))
    else:
        parts.append("_no sequential cells in this run_")

    breakdown = breakdown_rows(run)
    if breakdown:
        from ..obs.breakdown import render_breakdown_table

        parts += [
            "",
            "## Activity breakdown — sim-predicted vs wall-measured",
            "",
            "```",
            render_breakdown_table(breakdown),
            "```",
        ]

    # Table I's layout fixes its engine columns (sequential / stackonly /
    # hybrid); any other stored engine — e.g. the globalonly ablation —
    # still gets its cells reported rather than silently dropped.
    table1_engines = {"sequential", "stackonly", "hybrid"}
    extra = sorted(
        (rec for rec in run.completed().values()
         if rec["engine"] not in table1_engines),
        key=lambda rec: (rec["instance"], rec["instance_type"],
                         rec["engine"], rec["repeat"]),
    )
    if extra:
        def timing_cell(rec: Dict[str, object]) -> str:
            # Wall-clock engines carry null virtual seconds; render their
            # measured wall instead of a misleading ">budget".
            result = rec["result"]  # type: ignore[index]
            seconds = result["seconds"]  # type: ignore[index]
            if seconds is None and result.get("wall_seconds") is not None:  # type: ignore[union-attr]
                wall = tables.format_seconds(result["wall_seconds"],  # type: ignore[index]
                                             bool(result["timed_out"]))  # type: ignore[index]
                return f"{wall} (wall)"
            return tables.format_seconds(seconds, bool(result["timed_out"]))  # type: ignore[arg-type,index]

        def team_cell(rec: Dict[str, object]) -> str:
            workers = rec.get("workers")
            hosts = rec.get("hosts")
            if workers is None and not hosts:
                return ""
            return f"{workers or ''}" + (f"+{hosts}h" if hosts else "")

        parts += ["", "## Engines outside the Table I columns", ""]
        parts.append(tables.render_markdown_table(
            ["instance", "type", "engine", "team", "seconds", "nodes", "optimum"],
            [[rec["instance"], rec["instance_type"], rec["engine"],
              team_cell(rec), timing_cell(rec),
              rec["result"]["nodes"], rec["result"]["optimum"]]  # type: ignore[index]
             for rec in extra]))
    prov = manifest["provenance"]
    parts += [
        "",
        "---",
        f"run `{run.run_id}` · spec `{str(manifest['spec_hash'])[:12]}` · "
        f"git `{str(prov['git_sha'])[:12]}` · "  # type: ignore[index]
        f"python {prov['python']} · numpy {prov['numpy']}",  # type: ignore[index]
        "",
    ]
    return "\n".join(parts)


def write_report(store: RunStore, run_id: str) -> str:
    """Render and persist ``report.md``; return the text."""
    text = render_report(store, run_id)
    store.get_run(run_id).write_report(text)
    return text


# --------------------------------------------------------------------- #
# bit-identical verification against live engines
# --------------------------------------------------------------------- #
class VerificationError(AssertionError):
    """A stored cell disagreed with its live re-execution."""


#: Result fields that must survive the store bit-identically.  Everything
#: deterministic is here; ``wall_seconds`` is real time and excluded.
_EXACT_FIELDS = ("seconds", "cycles", "nodes", "optimum", "feasible",
                 "timed_out", "detail", "tree")


def _verifiable_fields(record: Dict[str, object],
                       live: Dict[str, object]) -> Tuple[str, ...]:
    """Which result fields a live re-execution must reproduce exactly.

    Virtually priced cells are fully deterministic.  Wall-clock ``cpu-*``
    cells run under real scheduling: node counts, tie-broken covers and
    budget races vary run to run, so only the decision-level facts are
    comparable — the MVC optimum (exhaustive search is schedule-independent
    when it completes) and PVC feasibility; a best-so-far from a run that
    tripped its budget — on *either* side, stored or live — is not
    comparable at all.
    """
    from .spec import WALL_CLOCK_ENGINES

    if record["engine"] not in WALL_CLOCK_ENGINES:
        return _EXACT_FIELDS
    if record["result"].get("timed_out") or live.get("timed_out"):  # type: ignore[union-attr]
        return ()
    if record["instance_type"] == "mvc":
        return ("optimum", "feasible")
    return ("feasible",)


def verify_run_against_live(
    store: RunStore,
    run_id: str,
    *,
    max_cells: Optional[int] = None,
) -> int:
    """Re-run stored cells live; assert charge streams bit-identical.

    Every compared field — virtual ``seconds`` and ``cycles`` (the charge
    stream's integral), ``nodes``, ``optimum``, feasibility, tree shape —
    must match with ``==``.  Raises :class:`VerificationError` naming
    every mismatching cell and field; returns the number of verified
    cells on success.
    """
    run = store.get_run(run_id)
    spec_dict = _spec_of(run).to_dict()  # clean refusal for non-spec runs
    records = sorted(
        run.completed().values(),
        key=lambda rec: (rec["instance"], rec["engine"], rec["instance_type"],
                         str(rec["frontier"]), rec["repeat"]),
    )
    if max_cells is not None:
        records = records[:max_cells]
    mismatches: List[str] = []
    for record in records:
        identity = {key: record[key] for key in (
            "fingerprint", "instance", "engine", "frontier",
            "instance_type", "k", "repeat")}
        identity["bound"] = record.get("bound", "greedy")
        ref = next(
            info["ref"] for info in run.manifest["instances"]  # type: ignore[union-attr]
            if info["label"] == record["instance"])
        live = _execute_cell(spec_dict, identity, ref)["result"]
        stored = record["result"]
        for field in _verifiable_fields(record, live):
            if stored.get(field) != live.get(field):  # type: ignore[union-attr]
                mismatches.append(
                    f"{record['instance']}/{record['instance_type']}/"
                    f"{record['engine']}"
                    f"{'/' + str(record['frontier']) if record['frontier'] else ''}"
                    f" repeat={record['repeat']}: {field} stored="
                    f"{stored.get(field)!r} live={live.get(field)!r}")  # type: ignore[union-attr]
    if mismatches:
        raise VerificationError(
            "stored cells diverged from live engine invocation:\n  "
            + "\n  ".join(mismatches))
    return len(records)


# --------------------------------------------------------------------- #
# cross-run diff (over the SQLite index)
# --------------------------------------------------------------------- #
@dataclass
class RunDiff:
    """What changed between two runs' stored cells.

    Cells pair up by *logical identity* — (instance, engine, frontier,
    bound, instance type, k, repeat) — not by fingerprint, so a config
    change (new budget, re-tuned device) shows up as *changed* cells with
    deltas instead of disjoint added/removed sets.
    """

    run_a: str
    run_b: str
    added: List[Dict[str, object]] = field(default_factory=list)
    removed: List[Dict[str, object]] = field(default_factory=list)
    changed: List[Dict[str, object]] = field(default_factory=list)
    unchanged: int = 0


#: Logical identity of a cell within a run (fingerprint-independent).
_DIFF_KEY = ("instance", "engine", "frontier", "bound", "instance_type",
             "k", "repeat")

#: Result fields compared (and delta'd where numeric) between runs.
_DIFF_FIELDS = ("optimum", "feasible", "timed_out", "nodes", "cycles", "seconds")


def _diff_key(record: Dict[str, object]) -> Tuple[object, ...]:
    rec = dict(record)
    rec.setdefault("bound", "greedy")
    return tuple(rec.get(key) for key in _DIFF_KEY)


def diff_runs(store: RunStore, run_a: str, run_b: str) -> RunDiff:
    """Compare two runs' cells through the cross-run SQLite index.

    Both runs are (re)indexed from their on-disk artifacts first — the
    index is derived state, so the diff can never be stale — then read
    back with :meth:`RunStore.query_cells`.  Returns the added / removed
    / changed cell sets, with per-field deltas (nodes, cycles, seconds)
    on the changed ones.
    """
    store.index_run(store.get_run(run_a))
    store.index_run(store.get_run(run_b))
    cells_a = {_diff_key(rec): rec for rec in store.query_cells(run_id=run_a)}
    cells_b = {_diff_key(rec): rec for rec in store.query_cells(run_id=run_b)}

    diff = RunDiff(run_a=run_a, run_b=run_b)
    for key in sorted(set(cells_a) | set(cells_b), key=repr):
        a, b = cells_a.get(key), cells_b.get(key)
        if a is None:
            diff.added.append(b)
            continue
        if b is None:
            diff.removed.append(a)
            continue
        res_a, res_b = a["result"], b["result"]
        deltas: Dict[str, object] = {}
        for fld in _DIFF_FIELDS:
            va, vb = res_a.get(fld), res_b.get(fld)
            if va == vb:
                continue
            if isinstance(va, (int, float)) and isinstance(vb, (int, float)):
                deltas[fld] = {"a": va, "b": vb, "delta": vb - va}
            else:
                deltas[fld] = {"a": va, "b": vb}
        if deltas:
            diff.changed.append({**{k: v for k, v in zip(_DIFF_KEY, key)},
                                 "deltas": deltas})
        else:
            diff.unchanged += 1
    return diff


def render_diff(diff: RunDiff) -> str:
    """Human-readable summary of a :func:`diff_runs` result."""

    def label(rec_or_key: Dict[str, object]) -> str:
        parts = [str(rec_or_key["instance"]), str(rec_or_key["instance_type"]),
                 str(rec_or_key["engine"])]
        if rec_or_key.get("frontier"):
            parts.append(str(rec_or_key["frontier"]))
        bound = rec_or_key.get("bound") or "greedy"
        if bound != "greedy":
            parts.append(f"bound={bound}")
        if rec_or_key.get("repeat"):
            parts.append(f"r{rec_or_key['repeat']}")
        return "/".join(parts)

    lines = [
        f"diff {diff.run_a} -> {diff.run_b}: "
        f"{len(diff.added)} added, {len(diff.removed)} removed, "
        f"{len(diff.changed)} changed, {diff.unchanged} unchanged",
    ]
    for rec in diff.added:
        lines.append(f"  + {label(rec)}")
    for rec in diff.removed:
        lines.append(f"  - {label(rec)}")
    for cell in diff.changed:
        deltas = cell["deltas"]
        rendered = []
        for fld, info in deltas.items():
            if "delta" in info:
                rendered.append(f"{fld} {info['a']} -> {info['b']} "
                                f"({info['delta']:+g})")
            else:
                rendered.append(f"{fld} {info['a']} -> {info['b']}")
        lines.append(f"  ~ {label(cell)}: " + ", ".join(rendered))
    return "\n".join(lines)
