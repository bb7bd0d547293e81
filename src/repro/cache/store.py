"""Persistent certificate store behind the solve cache.

Layout, modeled on the experiment store (SQLite index + on-disk
artifacts, everything rebuildable)::

    <cache root>/
        index.sqlite          # one row per entry: identity, claim, stats
        hits.log              # hit journal: "<uid> <unix time>" per hit
        entries/
            <entry_uid>.pkl   # artifact: cover, canonical order, checkpoint

The index row is the *claim* — canonical key, exact graph fingerprint,
config hash, status, optimum — and is everything a lookup needs to
decide whether an entry can answer a request.  The artifact carries the
bulky payload (the cover array, the canonical-order permutation for
isomorphic transfers, and the serialized :class:`~repro.core.outcome.Checkpoint`
for escalations) and is only read for the entry that answers.  It is a
pickle of builtins only (ints, strings, bytes) and loads with no pickle
globals (:func:`~repro.core.strict_pickle.strict_loads`): a file that
names one is a damaged artifact, never a call.

A hit writes nothing to the index: :meth:`CacheStore.touch` appends one
line to the hit journal, and the next index write transaction
(:meth:`~CacheStore.put`, :meth:`~CacheStore.delete`,
:meth:`~CacheStore.clear`, :meth:`~CacheStore.gc`) and every
:meth:`~CacheStore.ls`/:meth:`~CacheStore.stats` fold the journal into
the ``hits``/``last_hit_at`` columns.  Claim rows are written at
SQLite's durable defaults; a crash can lose a hit count, never a claim.

Identity is two-level, matching the two hit tiers of
:mod:`repro.graph.canonical`:

* ``(graph_fp, config_hash)`` is UNIQUE — the exact-instance identity;
  :meth:`CacheStore.put` upserts on it, so an escalated solve replaces
  its own partial entry in place.
* ``(canonical_key, config_hash)`` is an indexed non-unique bucket —
  the relabel-invariant identity a lookup scans for isomorphic donors.
"""

from __future__ import annotations

import math
import os
import pickle
import sqlite3
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

import numpy as np

from ..core.strict_pickle import strict_loads

__all__ = ["CacheEntry", "CacheStore", "DamagedArtifact", "CACHE_SCHEMA_VERSION"]

#: Bump when the index schema or artifact payload layout changes.
CACHE_SCHEMA_VERSION = 1

_ARTIFACT_KIND = "repro-vc-cache-artifact"


#: The hit journal's file name under the cache root.
HITS_JOURNAL = "hits.log"


class DamagedArtifact(ValueError):
    """An index row's artifact is missing, truncated or cannot be decoded."""


def _fail(msg: str) -> None:
    raise DamagedArtifact(f"cache artifact schema violation: {msg}")


@dataclass
class CacheEntry:
    """One cached solve: the index row plus (optionally loaded) artifact.

    ``cover`` is stored in the *original coordinates of the graph that
    populated the entry*; ``order`` (canonical rank -> original vertex
    id, present iff the donor graph was WL-individualized) is what maps
    it into canonical coordinates for an isomorphic transfer.
    """

    canonical_key: str
    config_hash: str
    graph_fp: str
    formulation: str                      # "mvc" | "pvc"
    k: Optional[int]
    n: int
    m: int
    individualized: bool
    structure_hash: Optional[str]
    status: str                           # SolveOutcome status ladder
    optimum: Optional[int]                # optimum, or incumbent size if partial
    feasible: Optional[bool]              # pvc only
    lower_bound: Optional[int]
    nodes_visited: int = 0
    wall_seconds: float = 0.0
    cover: Optional[np.ndarray] = None
    order: Optional[np.ndarray] = None
    checkpoint_blob: Optional[bytes] = None
    # bookkeeping (filled by the store)
    uid: str = ""
    nbytes: int = 0
    created_at: float = 0.0
    last_hit_at: Optional[float] = None
    hits: int = 0

    def artifact_payload(self) -> Dict[str, object]:
        """The artifact as builtins only, so it loads with no globals."""
        return {
            "version": CACHE_SCHEMA_VERSION,
            "kind": _ARTIFACT_KIND,
            "cover": None if self.cover is None
            else np.asarray(self.cover, dtype="<i8").tobytes(),
            "order": None if self.order is None
            else np.asarray(self.order, dtype="<i8").tobytes(),
            "checkpoint": None if self.checkpoint_blob is None
            else bytes(self.checkpoint_blob),
        }

    def load_artifact_payload(self, payload: Dict[str, object]) -> None:
        if not isinstance(payload, dict):
            _fail("artifact does not decode to a payload dict")
        if payload.get("version") != CACHE_SCHEMA_VERSION:
            _fail(f"artifact version {payload.get('version')!r} "
                  f"!= {CACHE_SCHEMA_VERSION}")
        if payload.get("kind") != _ARTIFACT_KIND:
            _fail(f"artifact kind {payload.get('kind')!r} != {_ARTIFACT_KIND!r}")
        cover = payload.get("cover")
        order = payload.get("order")
        checkpoint = payload.get("checkpoint")
        if not all(blob is None or type(blob) is bytes
                   for blob in (cover, order, checkpoint)):
            _fail("cover, order and checkpoint must be bytes or None")
        self.cover = None if cover is None else np.frombuffer(cover, dtype="<i8").astype(np.int64)
        self.order = None if order is None else np.frombuffer(order, dtype="<i8").astype(np.int64)
        self.checkpoint_blob = checkpoint


_COLUMNS = (
    "uid", "canonical_key", "config_hash", "graph_fp", "formulation", "k",
    "n", "m", "individualized", "structure_hash", "status", "optimum",
    "feasible", "lower_bound", "nodes_visited", "wall_seconds", "nbytes",
    "created_at", "last_hit_at", "hits",
)


#: The index schema, one transaction (one commit on a fresh index); a
#: process runs it once per index file (see :func:`_index_identity`).
_SCHEMA = (
    "BEGIN;"
    "CREATE TABLE IF NOT EXISTS entries ("
    "  uid TEXT PRIMARY KEY,"
    "  canonical_key TEXT NOT NULL,"
    "  config_hash TEXT NOT NULL,"
    "  graph_fp TEXT NOT NULL,"
    "  formulation TEXT NOT NULL,"
    "  k INTEGER,"
    "  n INTEGER NOT NULL,"
    "  m INTEGER NOT NULL,"
    "  individualized INTEGER NOT NULL,"
    "  structure_hash TEXT,"
    "  status TEXT NOT NULL,"
    "  optimum INTEGER,"
    "  feasible INTEGER,"
    "  lower_bound INTEGER,"
    "  nodes_visited INTEGER NOT NULL DEFAULT 0,"
    "  wall_seconds REAL NOT NULL DEFAULT 0,"
    "  nbytes INTEGER NOT NULL DEFAULT 0,"
    "  created_at REAL NOT NULL,"
    "  last_hit_at REAL,"
    "  hits INTEGER NOT NULL DEFAULT 0,"
    "  UNIQUE (graph_fp, config_hash)"
    ");"
    "CREATE INDEX IF NOT EXISTS idx_entries_key "
    "ON entries (canonical_key, config_hash);"
    "CREATE INDEX IF NOT EXISTS idx_entries_fp ON entries (graph_fp);"
    "COMMIT;"
)

#: Index files whose schema this process has created, by
#: :func:`_index_identity`.  Every cached request opens a new
#: :class:`CacheStore`, so a per-handle flag would run the DDL per request.
_SCHEMA_DONE: set = set()


def _index_identity(path: Path) -> Optional[tuple]:
    """``(absolute path, device, inode)`` of an index file, or ``None``
    while it is empty (SQLite has just created it, maybe on a recycled
    inode) or missing.  The path is not resolved (``realpath`` stats
    every component on every request); a second path to one file only
    runs the idempotent DDL once more."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    if st.st_size == 0:
        return None
    return os.path.abspath(path), st.st_dev, st.st_ino


class CacheStore:
    """SQLite-indexed, artifact-backed store of solve certificates."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.entries_dir = self.root / "entries"
        self.entries_dir.mkdir(exist_ok=True)
        self.index_path = self.root / "index.sqlite"
        self.hits_path = self.root / HITS_JOURNAL

    # ------------------------------------------------------------------ #
    # schema
    # ------------------------------------------------------------------ #
    @contextmanager
    def connect(self, *, fold_hits: bool = False) -> Iterator[sqlite3.Connection]:
        """One transaction: commit or roll back, then close.  The schema DDL
        runs unless this process created it in this very index file.

        ``fold_hits`` first folds the hit journal into the transaction;
        the taken journal is removed once the connection is closed, so a
        rolled-back fold loses those hit counts and nothing else.
        """
        conn = sqlite3.connect(self.index_path)
        taken = None
        try:
            with conn:
                if _index_identity(self.index_path) not in _SCHEMA_DONE:
                    conn.executescript(_SCHEMA)
                    identity = _index_identity(self.index_path)
                    if identity is not None:
                        _SCHEMA_DONE.add(identity)
                if fold_hits:
                    taken = self._fold_hits(conn)
                yield conn
        finally:
            conn.close()
            if taken is not None:
                taken.unlink(missing_ok=True)

    def _fold_hits(self, conn: sqlite3.Connection) -> Optional[Path]:
        """Apply the hit journal to ``hits``/``last_hit_at`` in ``conn``'s
        transaction; returns the journal, taken to a private name, or
        ``None`` when there is none.

        The journal is taken with one atomic rename, so a concurrent
        :meth:`touch` either lands in this fold or starts a new journal;
        one whose descriptor was opened before the rename and written
        after the read is lost (one hit count).  Torn or garbage lines
        are skipped.
        """
        taken = self.root / f"{HITS_JOURNAL}.{uuid.uuid4().hex}"
        try:
            os.replace(self.hits_path, taken)
        except FileNotFoundError:
            return None
        folded: Dict[str, List[float]] = {}  # uid -> [hits, last hit]
        # The final element follows the last newline: empty, or torn.
        for line in taken.read_bytes().split(b"\n")[:-1]:
            fields = line.split()
            if len(fields) != 2:
                continue
            try:
                uid, at = fields[0].decode("ascii"), float(fields[1])
            except (UnicodeDecodeError, ValueError):
                continue
            if not math.isfinite(at):
                continue
            slot = folded.setdefault(uid, [0, at])
            slot[0] += 1
            slot[1] = max(slot[1], at)
        conn.executemany(
            "UPDATE entries SET hits = hits + ?, "
            "last_hit_at = MAX(COALESCE(last_hit_at, 0), ?) WHERE uid = ?",
            [(count, last, uid) for uid, (count, last) in folded.items()])
        return taken

    # ------------------------------------------------------------------ #
    # write path
    # ------------------------------------------------------------------ #
    def put(self, entry: CacheEntry) -> CacheEntry:
        """Insert or replace the entry for ``(graph_fp, config_hash)``.

        An escalated or completed solve replaces its own earlier partial
        entry in place; the superseded artifact file is removed.
        """
        entry.uid = uuid.uuid4().hex[:16]
        entry.created_at = entry.created_at or time.time()
        blob = pickle.dumps(entry.artifact_payload(),
                            protocol=pickle.HIGHEST_PROTOCOL)
        path = self.entries_dir / f"{entry.uid}.pkl"
        path.write_bytes(blob)
        entry.nbytes = len(blob)
        with self.connect(fold_hits=True) as conn:
            old = conn.execute(
                "SELECT uid FROM entries WHERE graph_fp = ? AND config_hash = ?",
                (entry.graph_fp, entry.config_hash)).fetchone()
            if old is not None:
                conn.execute("DELETE FROM entries WHERE uid = ?", (old[0],))
            conn.execute(
                f"INSERT INTO entries ({', '.join(_COLUMNS)}) "
                f"VALUES ({', '.join('?' for _ in _COLUMNS)})",
                (entry.uid, entry.canonical_key, entry.config_hash,
                 entry.graph_fp, entry.formulation, entry.k, entry.n, entry.m,
                 int(entry.individualized), entry.structure_hash, entry.status,
                 entry.optimum,
                 None if entry.feasible is None else int(entry.feasible),
                 entry.lower_bound, entry.nodes_visited, entry.wall_seconds,
                 entry.nbytes, entry.created_at, entry.last_hit_at, entry.hits),
            )
        if old is not None:
            self._unlink_artifact(old[0])
        return entry

    def touch(self, uid: str) -> None:
        """Record a hit against an entry (LRU input for ``gc``).

        One append to the hit journal: no index transaction, no fsync.
        A failed append loses the hit count and never fails the caller.
        """
        line = f"{uid} {time.time()!r}\n".encode()
        try:
            fd = os.open(self.hits_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT,
                         0o644)
        except OSError:
            return
        try:
            os.write(fd, line)
        except OSError:
            pass
        finally:
            os.close(fd)

    # ------------------------------------------------------------------ #
    # read path
    # ------------------------------------------------------------------ #
    @staticmethod
    def _from_row(row) -> CacheEntry:
        return CacheEntry(
            canonical_key=row[1], config_hash=row[2], graph_fp=row[3],
            formulation=row[4], k=row[5], n=row[6], m=row[7],
            individualized=bool(row[8]), structure_hash=row[9], status=row[10],
            optimum=row[11],
            feasible=None if row[12] is None else bool(row[12]),
            lower_bound=row[13], nodes_visited=row[14], wall_seconds=row[15],
            uid=row[0], nbytes=row[16], created_at=row[17], last_hit_at=row[18],
            hits=row[19],
        )

    _SELECT = (
        "SELECT uid, canonical_key, config_hash, graph_fp, formulation, k, "
        "n, m, individualized, structure_hash, status, optimum, feasible, "
        "lower_bound, nodes_visited, wall_seconds, nbytes, created_at, "
        "last_hit_at, hits FROM entries"
    )

    def lookup(self, graph_fp: str, canonical_key: str) -> List[CacheEntry]:
        """Every entry on this exact instance or in its relabel-invariant
        bucket, under any config hash, oldest first — everything one
        request's tiers, escalation and warm start choose from, in one
        read.  Artifacts are not loaded (see :meth:`load_artifact`)."""
        with self.connect() as conn:
            rows = conn.execute(
                f"{self._SELECT} WHERE graph_fp = ? OR canonical_key = ? "
                "ORDER BY created_at", (graph_fp, canonical_key)).fetchall()
        return [self._from_row(row) for row in rows]

    def load_artifact(self, entry: CacheEntry) -> CacheEntry:
        """Fill ``entry``'s cover, order and checkpoint from its artifact;
        raises :class:`DamagedArtifact` when the file is missing,
        truncated, names a pickle global or is not a cache artifact."""
        path = self.entries_dir / f"{entry.uid}.pkl"
        try:
            entry.load_artifact_payload(strict_loads(path.read_bytes()))
        except (FileNotFoundError, ValueError) as exc:
            raise DamagedArtifact(f"cache artifact {path.name}: {exc}") from exc
        return entry

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #
    def ls(self) -> List[Dict[str, object]]:
        with self.connect(fold_hits=True) as conn:
            rows = conn.execute(
                f"{self._SELECT} ORDER BY created_at").fetchall()
        out = []
        for row in rows:
            entry = self._from_row(row)
            out.append({
                "uid": entry.uid,
                "key": entry.canonical_key[:12],
                "graph_fp": entry.graph_fp[:12],
                "formulation": entry.formulation,
                "k": entry.k,
                "n": entry.n,
                "m": entry.m,
                "status": entry.status,
                "optimum": entry.optimum,
                "individualized": entry.individualized,
                "nbytes": entry.nbytes,
                "hits": entry.hits,
            })
        return out

    def stats(self) -> Dict[str, object]:
        with self.connect(fold_hits=True) as conn:
            total, nbytes, hits = conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(nbytes), 0), "
                "COALESCE(SUM(hits), 0) FROM entries").fetchone()
            by_status = dict(conn.execute(
                "SELECT status, COUNT(*) FROM entries GROUP BY status").fetchall())
        return {"entries": int(total), "bytes": int(nbytes),
                "hits": int(hits), "by_status": by_status,
                "root": str(self.root)}

    def gc(self, *, max_bytes: Optional[int] = None,
           max_age_s: Optional[float] = None) -> int:
        """Evict entries, oldest-access first, until the limits hold.

        ``max_age_s`` drops entries whose last access (hit, else
        creation) is older than the horizon; ``max_bytes`` then evicts
        in LRU order until the store fits.  Returns the eviction count.
        """
        now = time.time()
        with self.connect(fold_hits=True) as conn:
            rows = conn.execute(
                "SELECT uid, nbytes, COALESCE(last_hit_at, created_at) "
                "FROM entries ORDER BY COALESCE(last_hit_at, created_at)"
            ).fetchall()
            victims: List[str] = []
            if max_age_s is not None:
                victims.extend(uid for uid, _, seen in rows
                               if now - seen > max_age_s)
            if max_bytes is not None:
                doomed = set(victims)
                live = [(uid, nb) for uid, nb, _ in rows if uid not in doomed]
                excess = sum(nb for _, nb in live) - max_bytes
                for uid, nb in live:
                    if excess <= 0:
                        break
                    victims.append(uid)
                    excess -= nb
            conn.executemany("DELETE FROM entries WHERE uid = ?",
                             [(uid,) for uid in victims])
        for uid in victims:
            self._unlink_artifact(uid)
        return len(victims)

    def delete(self, uid: str) -> None:
        with self.connect(fold_hits=True) as conn:
            conn.execute("DELETE FROM entries WHERE uid = ?", (uid,))
        self._unlink_artifact(uid)

    def _unlink_artifact(self, uid: str) -> None:
        (self.entries_dir / f"{uid}.pkl").unlink(missing_ok=True)

    def clear(self) -> int:
        """Drop every entry; returns how many were removed."""
        with self.connect(fold_hits=True) as conn:
            (count,) = conn.execute("SELECT COUNT(*) FROM entries").fetchone()
            conn.execute("DELETE FROM entries")
        for path in self.entries_dir.glob("*.pkl"):
            path.unlink()
        return int(count)
