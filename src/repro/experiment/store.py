"""Persistent, resumable experiment results store.

Layout (everything human-readable, everything machine-validated)::

    <store root>/
        index.sqlite                  # cross-run index: runs + cells tables
        <run_id>/
            manifest.json             # spec + hashes + provenance + status
            results.jsonl             # one completed cell per line, append-only
            report.md                 # regenerated paper tables (report.py)

``results.jsonl`` is the source of truth: it is appended (and flushed)
record-by-record, so a killed run loses at most the cell in flight.
Resume reads the surviving lines back as a ``fingerprint -> record`` map
and skips every matched cell; a truncated trailing line (the kill victim)
is ignored, and re-appending after it keeps the file valid.

The SQLite index is a *derived* artifact in the spirit of the
experimentation-layer exemplars: it is rebuilt offline from the run
directories (``repro experiment index``), never written mid-run, and
exists so cross-PR questions — "how did `p_hat_300_3` mvc cells move
across the last five runs?" — are one SQL query instead of a JSONL crawl.
"""

from __future__ import annotations

import json
import sqlite3
import subprocess
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Union

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "Run",
    "RunStore",
    "StoreUnavailable",
    "validate_manifest",
    "validate_cell_record",
]

#: Bump when manifest.json / results.jsonl layout changes
#: (documented in docs/EXPERIMENTS.md).
MANIFEST_SCHEMA_VERSION = 1

MANIFEST_KIND = "repro-vc-experiment-manifest"

_RESULT_REQUIRED = (
    "engine", "instance_type", "seconds", "timed_out", "nodes",
    "optimum", "feasible", "wall_seconds", "cycles",
)


def _fail(msg: str) -> None:
    raise ValueError(f"experiment artifact schema violation: {msg}")


def validate_manifest(manifest: Dict[str, object]) -> None:
    """Assert a run manifest matches the documented schema."""
    if not isinstance(manifest, dict):
        _fail("manifest is not an object")
    if manifest.get("schema_version") != MANIFEST_SCHEMA_VERSION:
        _fail(f"manifest schema_version != {MANIFEST_SCHEMA_VERSION}")
    if manifest.get("kind") != MANIFEST_KIND:
        _fail(f"manifest kind != {MANIFEST_KIND!r}")
    for key in ("run_id", "name", "spec", "spec_hash", "status",
                "created_unix", "provenance"):
        if key not in manifest:
            _fail(f"manifest missing {key!r}")
    if not isinstance(manifest["spec"], dict):
        _fail("manifest spec is not an object")
    if manifest["status"] not in ("running", "complete", "interrupted"):
        _fail(f"manifest status {manifest['status']!r} unknown")
    prov = manifest["provenance"]
    if not isinstance(prov, dict):
        _fail("manifest provenance is not an object")
    for key in ("git_sha", "python", "numpy", "platform"):
        if key not in prov:
            _fail(f"manifest provenance missing {key!r}")


def validate_cell_record(record: Dict[str, object]) -> None:
    """Assert one results.jsonl record matches the documented schema.

    A record carries exactly one of ``result`` (a completed cell) or
    ``error`` (a quarantined cell: the runner gave up on it after its
    timeout/retry budget).  Quarantined records keep the full identity,
    so a resume re-plans exactly those cells.
    """
    if not isinstance(record, dict):
        _fail("cell record is not an object")
    for key in ("fingerprint", "instance", "engine", "frontier",
                "instance_type", "k", "repeat"):
        if key not in record:
            _fail(f"cell record missing {key!r}")
    # ``bound`` joined the record in PR 5; absent means the pre-bound-axis
    # default (``greedy``), so old stores stay readable.
    if "bound" in record and not isinstance(record["bound"], str):
        _fail("cell bound is not a string")
    if not isinstance(record["fingerprint"], str) or len(record["fingerprint"]) != 64:
        _fail("cell fingerprint is not a sha256 hex digest")
    if not isinstance(record["repeat"], int):
        _fail("cell repeat is not an integer")
    if ("result" in record) == ("error" in record):
        _fail("cell record must carry exactly one of 'result' or 'error'")
    if "error" in record:
        error = record["error"]
        if not isinstance(error, dict):
            _fail("cell error is not an object")
        for key in ("type", "message", "attempts"):
            if key not in error:
                _fail(f"cell error missing {key!r}")
        if not isinstance(error["attempts"], int) or error["attempts"] < 1:
            _fail("cell error attempts is not a positive integer")
        return
    result = record["result"]
    if not isinstance(result, dict):
        _fail("cell result is not an object")
    for key in _RESULT_REQUIRED:
        if key not in result:
            _fail(f"cell result missing {key!r}")
    if result["seconds"] is not None and not isinstance(result["seconds"], (int, float)):
        _fail("cell result seconds is neither null nor a number")
    if not isinstance(result["timed_out"], bool):
        _fail("cell result timed_out is not a boolean")
    if not isinstance(result["nodes"], int) or result["nodes"] < 0:
        _fail("cell result nodes is not a non-negative integer")
    # ``obs`` joined the result in PR 9 (telemetry-enabled specs only);
    # absent means the cell ran without telemetry, so old stores stay
    # readable and new ones stay readable by old code.
    if "obs" in result and not isinstance(result["obs"], dict):
        _fail("cell result obs is not an object")


def _git_dirty() -> bool:
    """Whether tracked files differ from ``HEAD``: a run made from
    uncommitted code cannot be regenerated from the commit it names."""
    try:
        out = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return False
    return out.returncode == 0 and bool(out.stdout.strip())


def _provenance() -> Dict[str, object]:
    import platform
    import sys

    import numpy as np

    from ..analysis.microbench import _git_sha

    return {
        "git_sha": _git_sha(),
        "git_dirty": _git_dirty(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


class Run:
    """Handle on one run directory; owns its three artifacts."""

    def __init__(self, store: "RunStore", run_id: str):
        self.store = store
        self.run_id = run_id
        self.directory = store.root / run_id
        self.manifest_path = self.directory / "manifest.json"
        self.results_path = self.directory / "results.jsonl"
        self.report_path = self.directory / "report.md"
        self._manifest: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------ #
    # manifest
    # ------------------------------------------------------------------ #
    @property
    def manifest(self) -> Dict[str, object]:
        if self._manifest is None:
            self._manifest = json.loads(self.manifest_path.read_text())
        return self._manifest

    def _write_manifest(self, manifest: Dict[str, object]) -> None:
        validate_manifest(manifest)
        tmp = self.manifest_path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        tmp.replace(self.manifest_path)  # atomic: a kill never truncates it
        self._manifest = manifest

    def update_manifest(self, **fields: object) -> None:
        manifest = dict(self.manifest)
        manifest.update(fields)
        self._write_manifest(manifest)

    def finish(self, status: str) -> None:
        self.update_manifest(status=status, finished_unix=time.time())

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #
    def _records(self) -> Dict[str, Dict[str, object]]:
        """``fingerprint -> latest intact record`` (completed or error).

        A line that fails to parse (the torn tail of a killed run) is
        skipped; later records for the same fingerprint win, so a
        forced re-run simply shadows the stale record.
        """
        latest: Dict[str, Dict[str, object]] = {}
        if not self.results_path.exists():
            return latest
        with self.results_path.open() as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    validate_cell_record(record)
                except ValueError:
                    continue  # torn write: the record was never completed
                latest[record["fingerprint"]] = record
        return latest

    def completed(self) -> Dict[str, Dict[str, object]]:
        """``fingerprint -> record`` for every *successfully* completed cell.

        Quarantined (``error``) records are excluded on purpose: resume
        treats them as never run, so the quarantined cells retry.
        """
        return {fp: rec for fp, rec in self._records().items() if "result" in rec}

    def quarantined(self) -> Dict[str, Dict[str, object]]:
        """``fingerprint -> record`` for cells whose latest attempt failed."""
        return {fp: rec for fp, rec in self._records().items() if "error" in rec}

    def append(self, record: Dict[str, object]) -> None:
        """Validate and durably append one completed cell.

        If the file's last byte is not a newline — the signature of a
        write torn by a kill — the torn line is terminated first, so the
        new record never concatenates onto the corpse (which would
        corrupt *two* records instead of zero).
        """
        validate_cell_record(record)
        torn_tail = False
        if self.results_path.exists() and self.results_path.stat().st_size > 0:
            with self.results_path.open("rb") as fh:
                fh.seek(-1, 2)
                torn_tail = fh.read(1) != b"\n"
        with self.results_path.open("a") as fh:
            if torn_tail:
                fh.write("\n")
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.flush()

    def write_report(self, text: str) -> Path:
        self.report_path.write_text(text)
        return self.report_path


class StoreUnavailable(OSError):
    """The store root or a run directory cannot be created or written."""


@contextmanager
def _store_io(root: Path):
    try:
        yield
    except OSError as exc:
        raise StoreUnavailable(
            f"cannot use experiment store {str(root)!r}: {exc}") from None


class RunStore:
    """A directory of runs plus the cross-run SQLite index."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        with _store_io(self.root):
            self.root.mkdir(parents=True, exist_ok=True)
        self.index_path = self.root / "index.sqlite"

    # ------------------------------------------------------------------ #
    # runs
    # ------------------------------------------------------------------ #
    def open_run(
        self,
        *,
        name: str,
        spec: Dict[str, object],
        run_id: Optional[str] = None,
    ) -> Run:
        """Create the run for ``spec`` — or reopen it for resume.

        The run id derives from the spec hash, so an unchanged spec maps
        to the same directory and its completed cells; any spec edit
        yields a fresh run.  Reopening flips the status back to
        ``running`` (the resume path) but never touches results.
        """
        from .spec import spec_hash

        digest = spec_hash(spec)
        if run_id is None:
            run_id = f"{name}-{digest[:10]}"
        run = Run(self, run_id)
        if run.manifest_path.exists():
            if run.manifest["spec_hash"] != digest:
                raise ValueError(
                    f"run {run_id!r} exists with a different spec "
                    f"(stored {run.manifest['spec_hash'][:10]}, requested {digest[:10]}); "
                    "rename the experiment or remove the stale run directory"
                )
            run.update_manifest(status="running")
            return run
        with _store_io(self.root):
            run.directory.mkdir(parents=True, exist_ok=True)
            run._write_manifest({
                "schema_version": MANIFEST_SCHEMA_VERSION,
                "kind": MANIFEST_KIND,
                "run_id": run_id,
                "name": name,
                "spec": spec,
                "spec_hash": digest,
                "status": "running",
                "created_unix": time.time(),
                "provenance": _provenance(),
            })
        return run

    def get_run(self, run_id: str) -> Run:
        """An existing run by id (raises ``KeyError`` with the known ids)."""
        run = Run(self, run_id)
        if not run.manifest_path.exists():
            known = sorted(r.run_id for r in self.runs())
            raise KeyError(
                f"no run {run_id!r} under {self.root}; "
                f"known runs: {', '.join(known) if known else '(none)'}"
            )
        return run

    def runs(self) -> List[Run]:
        """Every run directory with an intact manifest, sorted by id."""
        found = []
        for path in sorted(self.root.iterdir()) if self.root.is_dir() else []:
            if path.is_dir() and (path / "manifest.json").exists():
                found.append(Run(self, path.name))
        return found

    # ------------------------------------------------------------------ #
    # SQLite index
    # ------------------------------------------------------------------ #
    def connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self.index_path)
        conn.execute(
            "CREATE TABLE IF NOT EXISTS runs ("
            " run_id TEXT PRIMARY KEY, name TEXT, spec_hash TEXT,"
            " status TEXT, created_unix REAL, git_sha TEXT,"
            " n_cells INTEGER, n_done INTEGER)"
        )
        conn.execute(
            "CREATE TABLE IF NOT EXISTS cells ("
            " run_id TEXT, fingerprint TEXT, instance TEXT, engine TEXT,"
            " frontier TEXT, bound TEXT, instance_type TEXT, repeat INTEGER,"
            " seconds REAL, timed_out INTEGER, nodes INTEGER,"
            " optimum INTEGER, cycles REAL, wall_seconds REAL, record TEXT,"
            " status TEXT,"
            " PRIMARY KEY (run_id, fingerprint))"
        )
        # Older index files lack later columns; the index is derived, so
        # migrate in place (values backfill on the next reindex).
        columns = {row[1] for row in conn.execute("PRAGMA table_info(cells)")}
        if "bound" not in columns:  # pragma: no cover - legacy index file
            conn.execute("ALTER TABLE cells ADD COLUMN bound TEXT")
        if "status" not in columns:  # pragma: no cover - legacy index file
            conn.execute("ALTER TABLE cells ADD COLUMN status TEXT")
        return conn

    def index_run(self, run: Run) -> int:
        """(Re)index one run from its on-disk artifacts; return ok-cell count.

        Quarantined cells are indexed too (``status='error'``, null result
        columns) so "what failed across runs" is a one-liner; only the
        completed cells count toward ``n_done``.
        """
        manifest = run.manifest
        all_records = list(run._records().values())
        n_ok = sum(1 for rec in all_records if "result" in rec)
        with self.connect() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO runs VALUES (?,?,?,?,?,?,?,?)",
                (
                    run.run_id,
                    manifest["name"],
                    manifest["spec_hash"],
                    manifest["status"],
                    manifest["created_unix"],
                    manifest["provenance"]["git_sha"],  # type: ignore[index]
                    manifest.get("n_cells"),
                    n_ok,
                ),
            )
            conn.execute("DELETE FROM cells WHERE run_id = ?", (run.run_id,))
            def _row(rec: Dict[str, object]):
                result = rec.get("result")
                ok = isinstance(result, dict)
                return (
                    run.run_id,
                    rec["fingerprint"],
                    rec["instance"],
                    rec["engine"],
                    rec["frontier"],
                    rec.get("bound", "greedy"),
                    rec["instance_type"],
                    rec["repeat"],
                    result["seconds"] if ok else None,  # type: ignore[index]
                    int(bool(result["timed_out"])) if ok else None,  # type: ignore[index]
                    result["nodes"] if ok else None,  # type: ignore[index]
                    result["optimum"] if ok else None,  # type: ignore[index]
                    result["cycles"] if ok else None,  # type: ignore[index]
                    result["wall_seconds"] if ok else None,  # type: ignore[index]
                    json.dumps(rec, sort_keys=True),
                    "ok" if ok else "error",
                )
            conn.executemany(
                "INSERT INTO cells (run_id, fingerprint, instance, engine,"
                " frontier, bound, instance_type, repeat, seconds, timed_out,"
                " nodes, optimum, cycles, wall_seconds, record, status)"
                " VALUES (?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?)",
                [_row(rec) for rec in all_records],
            )
        return n_ok

    def reindex(self) -> Dict[str, int]:
        """Rebuild the whole index offline from the run directories."""
        counts = {}
        for run in self.runs():
            counts[run.run_id] = self.index_run(run)
        return counts

    def query_cells(
        self,
        *,
        run_id: Optional[str] = None,
        instance: Optional[str] = None,
        engine: Optional[str] = None,
        instance_type: Optional[str] = None,
        bound: Optional[str] = None,
        status: Optional[str] = None,
    ) -> List[Dict[str, object]]:
        """Full cell records matching the filters, across runs."""
        clauses, params = [], []
        for column, value in (("run_id", run_id), ("instance", instance),
                              ("engine", engine), ("instance_type", instance_type),
                              ("bound", bound), ("status", status)):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        sql = "SELECT record FROM cells"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY run_id, instance, engine, instance_type, repeat"
        with self.connect() as conn:
            rows = conn.execute(sql, params).fetchall()
        return [json.loads(row[0]) for row in rows]
