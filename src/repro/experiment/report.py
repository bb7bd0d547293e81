"""Reports from the store: the paper's tables and figures over stored cells.

Once a run's cells are persisted, every paper artifact they feed is a
*section* computed from ``results.jsonl`` without re-running an engine:
Table I (virtual seconds), Table II (geometric-mean speedups), Table III
(PVC k = min against prior work), Fig. 5 (per-SM load), Fig. 6 (Hybrid
activity breakdown) and the Section IV-A GlobalOnly ablation.  ``repro
experiment report`` prints every section whose cells exist; the ``repro
table1 … ablation`` presets (:mod:`repro.experiment.presets`) print one.

The one thing a store must never do is drift from the engines it claims
to describe, so :func:`verify_run_against_live` re-executes stored cells
through the very same :func:`~repro.analysis.experiments.run_cell` path
and asserts the persisted charge-stream integrals (virtual cycles,
virtual seconds), node counts, optima and launch figures **bit-identical**
— JSON round-trips doubles exactly, so equality here is ``==``, not
"approx".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..analysis import tables
from ..analysis.experiments import (
    FIG5_GRAPHS,
    INSTANCE_TYPES,
    PRIOR_WORK_TABLE3_SECONDS,
    TABLE1_ENGINES,
)
from ..analysis.speedup import aggregate_speedups
from ..graph.generators.suites import HIGH_DEGREE, LOW_DEGREE
from .runner import _execute_cell
from .spec import ExperimentSpec
from .store import Run, RunStore

__all__ = [
    "RunCells",
    "run_cells",
    "SECTIONS",
    "table2_speedups",
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

    Stores written before the paper commands became presets also hold
    runs of spec kind ``table1``; their cells were keyed by another
    identity, so they are refused with a pointer to the preset.
    """
    spec = dict(run.manifest["spec"])  # type: ignore[arg-type]
    if spec.get("kind") != "repro-vc-experiment-spec":
        raise ValueError(
            f"run {run.run_id!r} was not created by 'repro experiment run' "
            f"(spec kind {spec.get('kind', 'unknown')!r}); regenerate it with "
            "the preset, e.g. 'repro table1 --store DIR'"
        )
    return ExperimentSpec.from_dict(spec)


def _select_cell(
    records: List[Dict[str, object]],
) -> Optional[Dict[str, object]]:
    """The representative among a cell group's records.

    Groups hold one record per (frontier, bound, repeat); the paper
    sections show the default discipline's first repeat, preferring
    ``lifo``/``None`` frontier, the default ``greedy`` bound and
    ``repeat == 0``, falling back deterministically.  Among records that
    still tie, the last stored wins: after a retune re-keys a run's
    cells, the re-executed ones shadow the stale ones.
    """
    if not records:
        return None

    def rank(item: Tuple[int, Dict[str, object]]) -> Tuple[int, int, int, str, str, int]:
        index, rec = item
        frontier = rec["frontier"]
        bound = rec.get("bound", "greedy")
        return (0 if frontier in (None, "lifo") else 1,
                0 if bound == "greedy" else 1,
                int(rec["repeat"]),  # type: ignore[arg-type]
                str(frontier), str(bound), -index)

    return min(enumerate(records), key=rank)[1]


# --------------------------------------------------------------------- #
# the paper sections
# --------------------------------------------------------------------- #
@dataclass
class RunCells:
    """A run's stored cells as the paper sections read them."""

    #: the manifest's instance rows in spec order, each with a
    #: ``category`` (the suite category; ``file`` for graph files)
    instances: List[Dict[str, object]]
    #: (instance, engine, instance type) -> the representative result
    cells: Dict[Tuple[str, str, str], Dict[str, object]]

    def get(self, instance: str, engine: str, itype: str) -> Optional[Dict[str, object]]:
        return self.cells.get((instance, engine, itype))

    def seconds(self, instance: str, engine: str, itype: str) -> Optional[float]:
        """A cell's virtual seconds; ``None`` when missing or censored."""
        cell = self.get(instance, engine, itype)
        if cell is None or cell["timed_out"]:
            return None
        return cell["seconds"]  # type: ignore[return-value]

    def labels(self, names) -> List[str]:
        """The run's instances among ``names``, in spec order."""
        return [str(info["label"]) for info in self.instances if info["label"] in names]


def run_cells(run: Run) -> RunCells:
    """Read a run's completed cells into a :class:`RunCells`."""
    from ..graph.generators.suites import suite_instance

    scale = _spec_of(run).scale
    grouped: Dict[Tuple[str, str, str], List[Dict[str, object]]] = {}
    for record in run.completed().values():
        key = (str(record["instance"]), str(record["engine"]),
               str(record["instance_type"]))
        grouped.setdefault(key, []).append(record)
    instances = []
    for info in run.manifest.get("instances", []):  # type: ignore[union-attr]
        ref = info["ref"]
        category = suite_instance(ref, scale).category if isinstance(ref, str) else "file"
        instances.append({**info, "category": category})
    return RunCells(
        instances=instances,
        cells={key: _select_cell(recs)["result"]  # type: ignore[index]
               for key, recs in grouped.items()},
    )


_ITYPE_LABELS = {"mvc": "MVC", "pvc_km1": "PVC k-1", "pvc_k": "PVC k", "pvc_kp1": "PVC k+1"}


def table1_section(view: RunCells) -> Optional[str]:
    """Table I: virtual seconds per instance × problem instance × engine."""
    if not any(engine in TABLE1_ENGINES for _, engine, _ in view.cells):
        return None
    headers = ["Graph", "|V|", "|E|", "d"] + [
        f"{_ITYPE_LABELS[itype]}/{short}" for itype in INSTANCE_TYPES
        for short in ("seq", "stack", "hybrid")]
    body = []
    for info in view.instances:
        row: List[object] = [info["label"], info["n"], info["m"],
                             f"{info['avg_degree']:.1f}"]
        for itype in INSTANCE_TYPES:
            for engine in TABLE1_ENGINES:
                cell = view.get(str(info["label"]), engine, itype)
                row.append("--" if cell is None else tables.format_seconds(
                    cell["seconds"], cell["timed_out"]))  # type: ignore[arg-type]
        body.append(row)
    return tables.render_table(headers, body, title="Table I — execution time (virtual seconds)")


def table2_speedups(view: RunCells) -> Dict[Tuple[str, str, str], float]:
    """Table II: hybrid's geometric-mean speedups, keyed (category,
    baseline, instance type); only cells where both engines finished count."""
    speedups: Dict[Tuple[str, str, str], float] = {}
    for baseline in ("stackonly", "sequential"):
        for itype in INSTANCE_TYPES:
            rows = [{"category": info["category"],
                     "base": view.seconds(str(info["label"]), baseline, itype),
                     "subject": view.seconds(str(info["label"]), "hybrid", itype)}
                    for info in view.instances]
            agg = aggregate_speedups(rows, baseline_key="base", subject_key="subject")
            for cat, val in agg.items():
                speedups[(cat, baseline, itype)] = val
    return speedups


def table2_section(view: RunCells) -> Optional[str]:
    engines = {engine for _, engine, _ in view.cells}
    if "hybrid" not in engines or not engines & {"stackonly", "sequential"}:
        return None
    speedups = table2_speedups(view)
    headers = ["Category", "Baseline"] + [_ITYPE_LABELS[t] for t in INSTANCE_TYPES]
    body = []
    for cat in (HIGH_DEGREE, LOW_DEGREE, "overall"):
        for baseline in ("stackonly", "sequential"):
            body.append([cat, f"hybrid vs {baseline}"] + [
                tables.format_speedup(speedups.get((cat, baseline, itype)))
                for itype in INSTANCE_TYPES])
    return tables.render_table(headers, body, title="Table II — aggregate speedup (geometric mean)")


def table3_section(view: RunCells) -> Optional[str]:
    """Table III: PVC k = min on the p_hat instances, beside prior work."""
    names = view.labels(PRIOR_WORK_TABLE3_SECONDS)
    if not any(view.get(name, engine, "pvc_k") for name in names for engine in TABLE1_ENGINES):
        return None
    headers = ["Graph", "Sequential", "StackOnly", "Hybrid", "AbuKhzam'18 (paper, other HW)"]
    body = []
    for name in names:
        row: List[object] = [name]
        for engine in TABLE1_ENGINES:
            seconds = view.seconds(name, engine, "pvc_k")
            row.append(tables.format_seconds(seconds, seconds is None))
        body.append(row + [f"{PRIOR_WORK_TABLE3_SECONDS[name]:.1f}"])
    return tables.render_table(
        headers, body,
        title="Table III — PVC (k = min) execution time (virtual seconds); prior-work column "
              "replicates the paper's reported numbers for context",
    )


def _launch(view: RunCells, instance: str, engine: str, itype: str) -> Dict[str, object]:
    """A simulated cell's ``launch`` figures (empty when not stored)."""
    cell = view.get(instance, engine, itype)
    return (cell or {}).get("launch") or {}  # type: ignore[return-value]


def fig5_section(view: RunCells) -> Optional[str]:
    """Fig. 5: the per-SM load distribution on its two instances."""
    body = []
    for name in view.labels(FIG5_GRAPHS):
        for itype in INSTANCE_TYPES:
            for engine in ("stackonly", "hybrid"):
                load = _launch(view, name, engine, itype).get("load")
                if load is not None:
                    body.append([name, itype, engine] + [
                        f"{load[key]:.2f}" for key in  # type: ignore[index]
                        ("min", "p25", "median", "p75", "max", "imbalance")])
    if not body:
        return None
    headers = ["Graph", "Instance", "Engine", "min", "p25", "median", "p75", "max", "max/mean"]
    return tables.render_table(
        headers, body, title="Fig. 5 — distribution of per-SM load (tree nodes / mean)")


def _short_labels(labels: Dict[str, str]) -> Dict[str, str]:
    """Each label's shortest word prefix that no other label starts with."""
    words = {kind: label.split() for kind, label in labels.items()}
    short = {}
    for kind, ws in words.items():
        n = 1
        while n < len(ws) and any(other != kind and ow[:n] == ws[:n]
                                  for other, ow in words.items()):
            n += 1
        short[kind] = " ".join(ws[:n]) + "…"
    return short


def fig6_section(view: RunCells) -> Optional[str]:
    """Fig. 6: the Hybrid MVC kernel's activity breakdown, plus the mean."""
    from ..obs.breakdown import ACTIVITY_LABELS, BreakdownRow, mean_breakdown

    rows = []
    for info in view.instances:
        breakdown = _launch(view, str(info["label"]), "hybrid", "mvc").get("breakdown")
        if breakdown is not None:
            rows.append(BreakdownRow(str(info["label"]), breakdown))
    if not rows:
        return None
    rows.append(mean_breakdown(rows))
    short = _short_labels(ACTIVITY_LABELS)
    headers = ["Graph"] + [short[kind] for kind in ACTIVITY_LABELS]
    body = [[row.name] + [f"{row.fractions.get(kind, 0.0) * 100:.1f}%" for kind in ACTIVITY_LABELS]
            for row in rows]
    legend = "\n".join(f"  {short[kind]:<12s} = {label}" for kind, label in ACTIVITY_LABELS.items())
    return (tables.render_table(headers, body, title="Fig. 6 — breakdown of Hybrid MVC execution time")
            + "\n\nLegend:\n" + legend)


def ablation_section(view: RunCells) -> Optional[str]:
    """Section IV-A: Hybrid vs the pure global worklist."""
    body = []
    for info in view.instances:
        name = str(info["label"])
        if "worklist" not in _launch(view, name, "globalonly", "mvc"):
            continue
        for engine in ("hybrid", "globalonly"):
            cell = view.get(name, engine, "mvc")
            wl = _launch(view, name, engine, "mvc").get("worklist")
            if cell is not None and wl is not None:
                body.append([name, engine,
                             tables.format_seconds(cell["seconds"], cell["timed_out"]),  # type: ignore[arg-type]
                             wl["peak"], wl["adds"], wl["rejected"], cell["nodes"]])  # type: ignore[index]
    if not body:
        return None
    headers = ["graph", "engine", "seconds", "wl peak", "wl adds", "rejected adds", "nodes"]
    return tables.render_table(headers, body, title="GlobalOnly ablation (Section IV-A)")


#: Every paper section, in report order: the preset that prints it alone,
#: its report heading and its renderer (``None`` when its cells are absent).
SECTIONS: Dict[str, Tuple[str, Callable[[RunCells], Optional[str]]]] = {
    "table1": ("Table I — execution time (virtual seconds)", table1_section),
    "table2": ("Table II — aggregate speedups (geometric mean)", table2_section),
    "table3": ("Table III — PVC k = min against prior work", table3_section),
    "fig5": ("Fig. 5 — per-SM load distribution", fig5_section),
    "fig6": ("Fig. 6 — Hybrid MVC activity breakdown", fig6_section),
    "ablation": ("GlobalOnly ablation (Section IV-A)", ablation_section),
}


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
    """The run's ``report.md``: every paper section whose cells exist,
    the tree shape and activity breakdown, and the reproduction footer."""
    run = store.get_run(run_id)
    manifest = run.manifest
    view = run_cells(run)
    shape = tree_shape_rows(run)

    parts = [
        f"# Experiment report — `{run.run_id}`",
        "",
        f"{len(run.completed())} stored cells over "
        f"{len(manifest.get('instances', []))} instances "  # type: ignore[arg-type]
        f"(status: {manifest['status']}).",
    ]
    for heading, section in SECTIONS.values():
        text = section(view)
        if text is not None:
            parts += ["", f"## {heading}", "", "```", text, "```"]
    parts += ["", "## Search-tree shape (sequential cells)", ""]
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
    # hybrid) and the ablation section shows the globalonly MVC cells
    # that carry a worklist record; any other stored cell — e.g. of the
    # wall-clock pool engines — still gets reported rather than dropped.
    def in_a_section(rec: Dict[str, object]) -> bool:
        launch = rec["result"].get("launch") or {}  # type: ignore[union-attr]
        return rec["engine"] in TABLE1_ENGINES or (
            rec["engine"] == "globalonly" and rec["instance_type"] == "mvc"
            and "worklist" in launch)

    extra = sorted(
        (rec for rec in run.completed().values() if not in_a_section(rec)),
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
        f"git `{str(prov['git_sha'])[:12]}`"  # type: ignore[index]
        f"{' (uncommitted changes)' if prov.get('git_dirty') else ''} · "  # type: ignore[union-attr]
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
        # ``launch`` joined the record later: cells stored without it
        # (older runs) still verify on every field they carry
        return _EXACT_FIELDS + (("launch",) if "launch" in record["result"] else ())  # type: ignore[operator]
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
    stream's integral), ``nodes``, ``optimum``, feasibility, tree shape,
    the stored ``launch`` figures — must match with ``==``.  Raises :class:`VerificationError` naming
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
            "instance_type", "k", "repeat", "workers", "hosts") if key in record}
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
