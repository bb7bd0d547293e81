"""The content-addressed solve cache (PR 10).

Covers the four hit tiers and the guarantees the subsystem sells:

* canonical keys are relabel-invariant (hypothesis property) and the
  structure hash proves isomorphism only when WL individualizes — the
  C6 / two-triangles pair shares a key but never cross-hits;
* cached answers are identical to cold answers across the engine x
  bound matrix, including cross-engine hits (sequential populates,
  distributed hits) with ``nodes_visited == 0``;
* component memoization: a disjoint union that shares a piece with a
  previous request only searches the new pieces;
* checkpoint escalation: a budget-bumped repeat resumes the cached
  frontier instead of restarting, and incumbent covers warm-start
  ``initial_best`` across config hashes;
* the disarmed path never touches cache code (raising spy) and costs
  at most 2% (alternating A/B pairs in process CPU time);
* a hit is read-only against the index (one connection, a hit journal
  folded at the next write), and a damaged artifact is a miss;
* counters land in the metrics registry and the Prometheus rendering;
* the store's SQLite index supports ls/stats/gc/clear and the CLI
  surfaces them.
"""

import os
import sqlite3
import statistics
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import (CacheUnavailableWarning, SolveCache, config_hash,
                         resolve_cache)
from repro.cache.store import CacheEntry, CacheStore
from repro.core.outcome import SolveOutcome
from repro.core.solver import solve_mvc, solve_pvc
from repro.core.verify import assert_valid_cover, is_vertex_cover
from repro.graph.canonical import canonical_form, canonical_key, wl_colors
from repro.graph.csr import CSRGraph
from repro.graph.fingerprint import graph_fingerprint
from repro.graph.generators.phat import phat_complement
from repro.graph.generators.random_graphs import gnp
from repro.obs import metrics


def relabel(graph: CSRGraph, perm: np.ndarray) -> CSRGraph:
    """Rebuild ``graph`` with vertex ``v`` renamed to ``perm[v]``."""
    edges = []
    for u in range(graph.n):
        for v in graph.neighbors(u):
            if u < v:
                edges.append((int(perm[u]), int(perm[v])))
    return CSRGraph.from_edges(graph.n, edges)


def cycle(n: int) -> CSRGraph:
    return CSRGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def disjoint_union(a: CSRGraph, b: CSRGraph) -> CSRGraph:
    edges = []
    for u in range(a.n):
        for v in a.neighbors(u):
            if u < v:
                edges.append((u, int(v)))
    for u in range(b.n):
        for v in b.neighbors(u):
            if u < v:
                edges.append((a.n + u, a.n + int(v)))
    return CSRGraph.from_edges(a.n + b.n, edges)


# --------------------------------------------------------------------- #
# canonical keys
# --------------------------------------------------------------------- #
class TestCanonicalKeys:
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 24), p=st.floats(0.1, 0.8),
           seed=st.integers(0, 500), pseed=st.integers(0, 500))
    def test_relabeling_preserves_key_and_structure_hash(self, n, p, seed, pseed):
        """Random relabelings never change the key; when WL individualizes
        the graph, the canonical-order adjacency hash survives too."""
        g = gnp(n, p, seed=seed)
        perm = np.random.default_rng(pseed).permutation(n)
        h = relabel(g, perm)
        fa, fb = canonical_form(g), canonical_form(h)
        assert fa.key == fb.key
        assert fa.individualized == fb.individualized
        if fa.individualized:
            assert fa.structure_hash == fb.structure_hash

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 20), p=st.floats(0.1, 0.8),
           seed=st.integers(0, 300))
    def test_key_separates_different_degree_sequences(self, n, p, seed):
        """Graphs with different (n, m, degree multiset) get distinct keys."""
        g = gnp(n, p, seed=seed)
        h = gnp(n + 1, p, seed=seed)
        assert canonical_key(g) != canonical_key(h)

    def test_path_vs_star_distinct(self):
        path = CSRGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        star = CSRGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert canonical_key(path) != canonical_key(star)

    def test_c6_vs_two_triangles_share_key_but_abstain(self):
        """The classic WL blind spot: equal keys, no isomorphism proof."""
        c6 = cycle(6)
        two_c3 = disjoint_union(cycle(3), cycle(3))
        fa, fb = canonical_form(c6), canonical_form(two_c3)
        assert fa.key == fb.key          # WL cannot tell them apart...
        assert not fa.individualized     # ...and the form says so,
        assert not fb.individualized     # so tier 2 never engages.
        assert fa.structure_hash is None and fb.structure_hash is None

    def test_wl_colors_refine_beyond_degree(self):
        # A path P5: degrees (1,2,2,2,1) but WL separates the middle
        # vertex from the other degree-2 vertices after one round.
        p5 = CSRGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        colors = wl_colors(p5)
        assert len(np.unique(colors)) == 3
        assert colors[1] == colors[3] and colors[0] == colors[4]
        assert colors[2] != colors[1]

    def test_canonical_order_is_readonly(self):
        form = canonical_form(gnp(12, 0.4, seed=1))
        if form.order is not None:
            with pytest.raises(ValueError):
                form.order[0] = 0


# --------------------------------------------------------------------- #
# store
# --------------------------------------------------------------------- #
class TestCacheStore:
    def _entry(self, **over) -> CacheEntry:
        base = dict(
            canonical_key="k" * 64, config_hash=config_hash("mvc"),
            graph_fp="fp0", formulation="mvc", k=None, n=4, m=3,
            individualized=True, structure_hash="s" * 64, status="optimal",
            optimum=2, feasible=None, lower_bound=2,
            cover=np.array([0, 1], dtype=np.int64),
            order=np.arange(4, dtype=np.int64),
        )
        base.update(over)
        return CacheEntry(**base)

    def test_put_lookup_roundtrip(self, tmp_path):
        store = CacheStore(tmp_path / "c")
        store.put(self._entry())
        got = _exact(store, "fp0", config_hash("mvc"))
        assert got is not None and got.optimum == 2
        np.testing.assert_array_equal(got.cover, [0, 1])
        np.testing.assert_array_equal(got.order, np.arange(4))
        assert got.cover.dtype == np.int64

    def test_put_upserts_same_identity(self, tmp_path):
        store = CacheStore(tmp_path / "c")
        store.put(self._entry(status="budget_exhausted", optimum=3))
        store.put(self._entry())
        assert store.stats()["entries"] == 1
        assert _exact(store, "fp0", config_hash("mvc")).status == "optimal"

    def test_touch_bumps_hits(self, tmp_path):
        store = CacheStore(tmp_path / "c")
        entry = store.put(self._entry())
        store.touch(entry.uid)
        store.touch(entry.uid)
        assert store.ls()[0]["hits"] == 2

    def test_gc_evicts_lru_until_under_budget(self, tmp_path):
        store = CacheStore(tmp_path / "c")
        old = store.put(self._entry(graph_fp="fp-old"))
        new = store.put(self._entry(graph_fp="fp-new"))
        store.touch(new.uid)  # most recently used survives
        per_entry = store.stats()["bytes"] // 2
        evicted = store.gc(max_bytes=per_entry)
        assert evicted == 1
        assert _exact(store, "fp-old", config_hash("mvc")) is None
        assert _exact(store, "fp-new", config_hash("mvc")) is not None

    def test_gc_by_age(self, tmp_path):
        store = CacheStore(tmp_path / "c")
        store.put(self._entry())
        assert store.gc(max_age_s=0.0) == 1
        assert store.stats()["entries"] == 0

    def test_clear_removes_everything(self, tmp_path):
        store = CacheStore(tmp_path / "c")
        store.put(self._entry())
        store.put(self._entry(graph_fp="fp1"))
        assert store.clear() == 2
        assert store.stats() == {"entries": 0, "bytes": 0, "hits": 0,
                                 "by_status": {}, "root": str(store.root)}
        assert list((store.root / "entries").iterdir()) == []

    def test_every_connection_is_closed(self, tmp_path):
        store = CacheStore(tmp_path / "c")
        entry = store.put(self._entry())
        store.load_artifact(store.lookup("fp0", "k" * 64)[0])
        store.touch(entry.uid)
        store.ls()
        store.stats()
        store.gc(max_age_s=1e9)
        store.clear()
        assert _open_handles(store.index_path) == []

    def test_failed_transaction_rolls_back_and_closes(self, tmp_path):
        store = CacheStore(tmp_path / "c")
        store.put(self._entry())
        with pytest.raises(RuntimeError):
            with store.connect() as conn:
                conn.execute("DELETE FROM entries")
                raise RuntimeError("abort mid-transaction")
        assert store.stats()["entries"] == 1
        assert _open_handles(store.index_path) == []

    def test_schema_ddl_runs_once_per_index_file(self, tmp_path, monkeypatch):
        import repro.cache.store as store_mod

        store = CacheStore(tmp_path / "c")
        entry = store.put(self._entry())
        # From here on any DDL run would fail: neither this handle nor a
        # fresh one on the same index file may re-run it.
        monkeypatch.setattr(store_mod, "_SCHEMA", "NOT VALID SQL;")
        store.touch(entry.uid)
        assert store.ls()[0]["hits"] == 1
        assert CacheStore(tmp_path / "c").stats()["entries"] == 1
        with pytest.raises(sqlite3.OperationalError):
            CacheStore(tmp_path / "d").stats()  # a new index file runs it

    @pytest.mark.parametrize("swap", ["delete", "replace"])
    def test_swapped_index_file_gets_the_schema_again(self, tmp_path, swap):
        """Between two requests on one root the index file is deleted, or
        replaced by an SQLite file without the schema: the second request
        still solves and records."""
        g = phat_complement(30, 2, seed=3)
        root = tmp_path / "c"
        first = solve_mvc(g, cache=str(root))
        index = root / "index.sqlite"
        if swap == "delete":
            index.unlink()
        else:
            other = tmp_path / "other.sqlite"
            conn = sqlite3.connect(other)
            conn.execute("CREATE TABLE unrelated (x INTEGER)")
            conn.commit()
            conn.close()
            os.replace(other, index)
        second = solve_mvc(g, cache=str(root))
        assert second.engine != "cache" and second.nodes_visited > 0
        assert second.optimum == first.optimum
        assert len(CacheStore(root).ls()) == 1
        assert solve_mvc(g, cache=str(root)).engine == "cache"


def _exact(store, graph_fp, cfg, key="k" * 64):
    """The loaded entry for ``(graph_fp, cfg)`` out of one
    :meth:`CacheStore.lookup` read, or ``None``."""
    entry = next((e for e in store.lookup(graph_fp, key)
                  if e.graph_fp == graph_fp and e.config_hash == cfg), None)
    return None if entry is None else store.load_artifact(entry)


def _open_handles(path) -> list:
    """Entries of ``/proc/self/fd`` that point at ``path``."""
    target = os.path.realpath(path)
    fds = "/proc/self/fd"
    if not os.path.isdir(fds):
        pytest.skip("needs /proc/self/fd")
    out = []
    for fd in os.listdir(fds):
        try:
            if os.readlink(os.path.join(fds, fd)) == target:
                out.append(fd)
        except OSError:
            pass
    return out


def _index_state(path):
    """The index file's bytes and modification time."""
    return path.read_bytes(), os.stat(path).st_mtime_ns


def _raw_hits(store):
    """``(uid, hits, last_hit_at)`` straight from the index, no fold."""
    conn = sqlite3.connect(store.index_path)
    try:
        return conn.execute(
            "SELECT uid, hits, last_hit_at FROM entries ORDER BY created_at"
        ).fetchall()
    finally:
        conn.close()


class TestHitJournal:
    """A hit appends to ``hits.log``; index writes fold it in."""

    _entry = TestCacheStore._entry

    def test_hit_leaves_the_index_untouched(self, tmp_path):
        g = phat_complement(30, 2, seed=3)
        root = tmp_path / "c"
        solve_mvc(g, cache=str(root))
        before = _index_state(root / "index.sqlite")
        time.sleep(0.01)  # a write would move st_mtime_ns
        hit = solve_mvc(g, cache=str(root))
        assert hit.engine == "cache" and hit.nodes_visited == 0
        assert _index_state(root / "index.sqlite") == before
        assert (root / "hits.log").exists()
        assert [row["hits"] for row in CacheStore(root).ls()] == [1]
        assert not (root / "hits.log").exists()

    def test_one_connection_per_hit_two_per_miss(self, tmp_path, monkeypatch):
        opened = []
        connect = sqlite3.connect
        monkeypatch.setattr(sqlite3, "connect",
                            lambda *a, **kw: opened.append(a) or connect(*a, **kw))
        g = phat_complement(30, 2, seed=3)
        root = str(tmp_path / "c")
        solve_mvc(g, cache=root)
        assert len(opened) == 2  # one read, one write
        opened.clear()
        solve_mvc(g, cache=root)
        assert len(opened) == 1
        opened.clear()
        solve_pvc(g, g.n, cache=root)  # derived from the MVC certificate
        assert len(opened) == 1

    @pytest.mark.parametrize("fold", ["put", "delete", "gc", "ls", "stats"])
    def test_index_writes_and_reads_fold_the_journal(self, tmp_path, fold):
        store = CacheStore(tmp_path / "c")
        entry = store.put(self._entry())
        other = store.put(self._entry(graph_fp="fp1"))
        store.touch(entry.uid)
        store.touch(entry.uid)
        assert [hits for _, hits, _ in _raw_hits(store)] == [0, 0]
        {"put": lambda: store.put(self._entry(graph_fp="fp2")),
         "delete": lambda: store.delete(other.uid),
         "gc": lambda: store.gc(max_age_s=1e9),
         "ls": store.ls, "stats": store.stats}[fold]()
        assert not store.hits_path.exists()
        uid, hits, last = _raw_hits(store)[0]
        assert (uid, hits) == (entry.uid, 2) and last is not None
        assert [p.name for p in store.root.iterdir()
                if p.name.startswith("hits")] == []

    def test_clear_consumes_the_journal(self, tmp_path):
        store = CacheStore(tmp_path / "c")
        store.touch(store.put(self._entry()).uid)
        assert store.clear() == 1
        assert not store.hits_path.exists()
        assert store.stats()["hits"] == 0

    def test_torn_and_garbage_lines_are_skipped(self, tmp_path):
        store = CacheStore(tmp_path / "c")
        entry = store.put(self._entry())
        store.hits_path.write_bytes(
            f"{entry.uid} 1000.5\n".encode()
            + b"\xff\xfe garbage\n"                 # not ascii
            + f"{entry.uid}\n".encode()               # one field
            + f"{entry.uid} nan\n".encode()           # not a time
            + f"{entry.uid} 1 2\n".encode()           # three fields
            + b"0123456789abcdef 99.0\n"              # no such entry
            + f"{entry.uid} 2000.25".encode())        # torn: no newline
        assert store.ls()[0]["hits"] == 1
        assert _raw_hits(store)[0][2] == 1000.5

    def test_failed_append_is_silent(self, tmp_path):
        g = phat_complement(30, 2, seed=3)
        cache = SolveCache(tmp_path / "c")
        solve_mvc(g, cache=cache)
        cache.store.hits_path = tmp_path / "missing-dir" / "hits.log"
        hit = solve_mvc(g, cache=cache)
        assert hit.engine == "cache" and cache.session["hits_exact"] == 1

    def test_concurrent_hits_lose_counts_never_entries(self, tmp_path):
        """Appenders race folding writers: a fold may drop a hit whose
        descriptor was open across its rename, never an entry."""
        store = CacheStore(tmp_path / "c")
        hot = store.put(self._entry())
        touches, appenders, puts = 300, 4, 20
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(
                target=lambda: [store.touch(hot.uid) for _ in range(touches)])
                for _ in range(appenders)]
            for w in workers:
                w.start()
            for i in range(puts):
                store.put(self._entry(graph_fp=f"fp-{i}"))
            for w in workers:
                w.join(timeout=60)
            assert not any(w.is_alive() for w in workers)
        finally:
            sys.setswitchinterval(previous)
        rows = store.ls()  # one more fold
        assert len(rows) == puts + 1
        for entry in store.lookup("fp0", "k" * 64):
            np.testing.assert_array_equal(store.load_artifact(entry).cover,
                                          [0, 1])
        hits = rows[0]["hits"]
        assert touches * appenders - appenders * (puts + 1) <= hits \
            <= touches * appenders


class TestDamagedArtifact:
    """An index row whose artifact is missing, truncated or undecodable
    is deleted and the request solves cold and records afresh."""

    DAMAGE = {
        "missing": lambda path: path.unlink(),
        "truncated": lambda path: path.write_bytes(path.read_bytes()[:20]),
        "unpicklable": lambda path: path.write_bytes(b"not a pickle at all"),
    }

    @pytest.mark.parametrize("mode", sorted(DAMAGE))
    def test_damaged_artifact_is_a_miss(self, tmp_path, mode):
        from repro.graph.generators.suites import suite_instance

        g = suite_instance("p_hat_300_1", "tiny").graph()
        root = tmp_path / "c"
        cold = solve_mvc(g, cache=str(root))
        [old] = CacheStore(root).ls()
        self.DAMAGE[mode](root / "entries" / f"{old['uid']}.pkl")
        cache = SolveCache(root)
        out = solve_mvc(g, cache=cache)
        assert out.optimum == cold.optimum == 26 and out.engine != "cache"
        assert_valid_cover(g, out.cover, expected_size=26)
        assert cache.session["misses"] == 1
        [new] = cache.store.ls()
        assert new["uid"] != old["uid"] and new["status"] == "optimal"
        assert sorted(p.name for p in (root / "entries").iterdir()) \
            == [f"{new['uid']}.pkl"]
        again = solve_mvc(g, cache=cache)
        assert again.engine == "cache" and again.optimum == 26

    def test_artifact_naming_a_pickle_global_is_never_called(self, tmp_path):
        """An artifact loads with no pickle globals: one whose
        ``__reduce__`` names a function is refused as damage, the
        function is never called, and the request solves cold."""
        import pickle

        g = phat_complement(60, 2, seed=4)
        root = tmp_path / "c"
        cold = solve_mvc(g, cache=str(root))
        [old] = CacheStore(root).ls()
        path = root / "entries" / f"{old['uid']}.pkl"
        path.write_bytes(pickle.dumps(_Trap(pickle.loads(path.read_bytes()))))
        _TRAP_CALLS.clear()
        out = solve_mvc(g, cache=str(root))
        assert _TRAP_CALLS == []
        assert out.engine != "cache" and out.optimum == cold.optimum
        assert out.nodes_visited == cold.nodes_visited  # a cold solve
        assert_valid_cover(g, out.cover, expected_size=cold.optimum)
        [new] = CacheStore(root).ls()
        assert new["uid"] != old["uid"] and new["status"] == "optimal"

    def test_put_writes_builtins_only(self, tmp_path):
        from repro.core.strict_pickle import strict_loads

        g = phat_complement(60, 2, seed=4)
        root = tmp_path / "c"
        solve_mvc(g, node_budget=5, cache=str(root))
        [entry] = CacheStore(root).ls()
        payload = strict_loads((root / "entries" / f"{entry['uid']}.pkl").read_bytes())
        assert type(payload["checkpoint"]) is bytes
        assert all(type(value) in (int, str, bytes, type(None))
                   for value in payload.values())


#: Calls of :func:`_record_trap`; an artifact that names it must never
#: reach it.
_TRAP_CALLS: list = []


def _record_trap(payload):
    _TRAP_CALLS.append(payload)
    return payload


class _Trap:
    """Pickles as a call of :func:`_record_trap` on the real payload."""

    def __init__(self, payload):
        self.payload = payload

    def __reduce__(self):
        return (_record_trap, (self.payload,))


class TestIdentity:
    """Hashes stay byte-identical, so existing stores keep hitting."""

    def test_fingerprint_and_config_hash_literals(self):
        assert graph_fingerprint(gnp(8, 0.4, seed=1)) == (
            "ffb003172162f37010f4ee57c48b69de11fb05ea4c450777f561e971d6010186")
        assert config_hash("mvc") == (
            "dccae77dd732a0856dec672f08cbadc34055d6f5589f4ea5f3e37253608f3586")
        assert config_hash("pvc", 7) == (
            "76aa53d95e360a6262fde8d126148d552e00e7997ccb07697cc384df618431d7")

    def test_spec_reexports_the_leaf_functions(self):
        from repro.experiment import spec
        from repro.graph import fingerprint

        assert spec.graph_fingerprint is fingerprint.graph_fingerprint
        assert spec.canonical_json is fingerprint.canonical_json

    def test_cached_solve_imports_no_experiment_layer(self, tmp_path):
        code = (
            "import sys\n"
            "from repro import solve_mvc\n"
            "from repro.graph.generators.phat import phat_complement\n"
            f"solve_mvc(phat_complement(30, 2, seed=3), cache={str(tmp_path)!r})\n"
            "print([m for m in sys.modules\n"
            "       if m.startswith(('repro.experiment', 'repro.analysis'))])\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


class TestUnusableRoot:
    """A cache root that cannot be created warns once and solves uncached.

    The root sits under a regular file, which fails for every user (a
    read-only directory would not stop root).
    """

    @pytest.fixture
    def bad_root(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("a regular file")
        return str(blocker / "cache")

    def _solve_warns(self, bad_root, solve):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = solve()
        hits = [w for w in caught if issubclass(w.category, CacheUnavailableWarning)]
        assert len(hits) == 1, [str(w.message) for w in caught]
        text = str(hits[0].message)
        assert bad_root in text and "Not a directory" in text
        return result

    def test_facades_warn_and_solve_uncached(self, bad_root):
        g = phat_complement(30, 2, seed=3)
        expected = solve_mvc(g, cache=False).optimum
        mvc = self._solve_warns(bad_root, lambda: solve_mvc(g, cache=bad_root))
        assert mvc.engine != "cache"
        assert mvc.optimum == expected and mvc.stats.nodes_visited > 0
        assert_valid_cover(g, mvc.cover, expected_size=expected)
        pvc = self._solve_warns(bad_root, lambda: solve_pvc(g, expected, cache=bad_root))
        assert pvc.feasible is True and len(pvc.cover) <= expected
        anytime = self._solve_warns(bad_root, lambda: solve_mvc(g, cache=bad_root,
                                                                deadline=60.0))
        assert anytime.status == "optimal" and anytime.optimum == expected

    def test_env_root_warns_and_solves_uncached(self, bad_root, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", bad_root)
        g = gnp(14, 0.3, seed=6)
        result = self._solve_warns(bad_root, lambda: solve_mvc(g))
        assert result.optimum == solve_mvc(g, cache=False).optimum

    def test_resolve_cache_returns_none(self, bad_root):
        with pytest.warns(CacheUnavailableWarning, match="unusable"):
            assert resolve_cache(bad_root) is None


# --------------------------------------------------------------------- #
# cached == cold, across the engine x bound matrix
# --------------------------------------------------------------------- #
class TestCachedEqualsCold:
    @pytest.mark.parametrize("engine", ["sequential", "cpu-threads"])
    @pytest.mark.parametrize("bound", ["greedy", "matching"])
    def test_mvc_hit_matches_cold(self, tmp_path, engine, bound):
        g = gnp(26, 0.18, seed=11)
        cache = SolveCache(tmp_path / "c")
        cold = solve_mvc(g, engine=engine, bound=bound, cache=cache)
        warm = solve_mvc(g, engine=engine, bound=bound, cache=cache)
        assert warm.optimum == cold.optimum
        assert warm.nodes_visited == 0
        np.testing.assert_array_equal(np.sort(np.asarray(cold.cover)),
                                      np.asarray(warm.cover))
        assert cache.session["hits_exact"] == 1
        assert cache.session["misses"] == 1

    @pytest.mark.parametrize("engine", ["sequential", "cpu-threads"])
    @pytest.mark.parametrize("bound", ["greedy", "matching"])
    def test_pvc_hit_matches_cold(self, tmp_path, engine, bound):
        g = gnp(24, 0.2, seed=5)
        opt = solve_mvc(g).optimum
        cache = SolveCache(tmp_path / "c")
        for k, feas in ((opt, True), (opt - 1, False)):
            cold = solve_pvc(g, k, engine=engine, bound=bound, cache=cache)
            warm = solve_pvc(g, k, engine=engine, bound=bound, cache=cache)
            assert bool(cold.feasible) is feas
            assert bool(warm.feasible) is feas
            assert warm.nodes_visited == 0
            if feas:
                assert is_vertex_cover(g, warm.cover)
                assert len(warm.cover) <= k

    def test_cross_engine_sequential_populates_distributed_hits(self, tmp_path):
        g = gnp(22, 0.2, seed=9)
        cache = SolveCache(tmp_path / "c")
        cold = solve_mvc(g, engine="sequential", cache=cache)
        warm = solve_mvc(g, engine="distributed", n_workers=2, cache=cache)
        assert warm.optimum == cold.optimum
        assert warm.nodes_visited == 0
        assert cache.session["hits_exact"] == 1
        # and nothing distributed-specific leaked into the identity
        assert config_hash("mvc") == config_hash("mvc", None)

    def test_derived_pvc_from_mvc_certificate(self, tmp_path):
        # Connected on purpose: the MVC certificate must land on the
        # whole-graph fingerprint for the PVC derivation to find it
        # (a disconnected instance is memoized per component instead).
        g = phat_complement(30, 2, seed=1)
        cache = SolveCache(tmp_path / "c")
        opt = solve_mvc(g, cache=cache).optimum
        yes = solve_pvc(g, opt, cache=cache)
        no = solve_pvc(g, opt - 1, cache=cache)
        assert yes.feasible is True and yes.nodes_visited == 0
        assert no.feasible is False and no.nodes_visited == 0
        assert cache.session["hits_derived"] == 2

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(8, 22), p=st.floats(0.15, 0.5),
           seed=st.integers(0, 200), pseed=st.integers(0, 200))
    def test_relabeled_instance_hits_isomorphically(self, tmp_path_factory,
                                                    n, p, seed, pseed):
        g = gnp(n, p, seed=seed)
        form = canonical_form(g)
        if not form.individualized:
            return  # sound abstention: only proof-carrying graphs cross-hit
        perm = np.random.default_rng(pseed).permutation(n)
        h = relabel(g, perm)
        cache = SolveCache(tmp_path_factory.mktemp("iso"))
        cold = solve_mvc(g, cache=cache)
        warm = solve_mvc(h, cache=cache)
        assert warm.optimum == cold.optimum
        assert warm.nodes_visited == 0
        assert_valid_cover(h, warm.cover, expected_size=cold.optimum)
        assert cache.session["hits_iso"] == 1

    def test_c6_never_hits_from_two_triangles(self, tmp_path):
        cache = SolveCache(tmp_path / "c")
        two_c3 = disjoint_union(cycle(3), cycle(3))
        c6 = cycle(6)
        # Whole-graph PVC keeps the union un-decomposed (same WL key).
        assert solve_pvc(two_c3, 4, cache=cache).feasible is True
        out = solve_pvc(c6, 4, cache=cache)
        assert out.feasible is True  # C6 needs 3 — but proven cold, not cached
        assert cache.session["hits_iso"] == 0
        assert cache.session["hits_exact"] == 0
        assert cache.session["misses"] == 2


# --------------------------------------------------------------------- #
# component memoization
# --------------------------------------------------------------------- #
class TestComponentMemoization:
    def test_union_reuses_cached_component(self, tmp_path):
        a = gnp(18, 0.25, seed=21)
        b = gnp(16, 0.3, seed=22)
        out_b_cold = solve_mvc(b)  # no cache: the reference cost of b
        cache = SolveCache(tmp_path / "c")
        out_a = solve_mvc(a, cache=cache)
        union = disjoint_union(a, b)
        out = solve_mvc(union, cache=cache)
        assert isinstance(out, SolveOutcome)
        assert len(out.stats) == 2  # one outcome per component
        assert sorted(part.engine == "cache" for part in out.stats) == [False, True]
        assert out.optimum == out_a.optimum + out_b_cold.optimum
        # only the never-seen piece was searched; the cached one cost 0
        assert out.nodes_visited == out_b_cold.stats.nodes_visited
        assert_valid_cover(union, out.cover, expected_size=out.optimum)
        assert out.cover.dtype == np.int64

    def test_repeat_union_is_all_hits(self, tmp_path):
        union = disjoint_union(gnp(14, 0.3, seed=31), gnp(12, 0.35, seed=32))
        cache = SolveCache(tmp_path / "c")
        cold = solve_mvc(union, cache=cache)
        warm = solve_mvc(union, cache=cache)
        # both pieces with an edge hit; the cold solve was the only miss
        assert cache.session["hits_exact"] == 2
        assert cache.session["misses"] == 2
        assert warm.nodes_visited == 0
        assert warm.optimum == cold.optimum
        np.testing.assert_array_equal(warm.cover, cold.cover)


# --------------------------------------------------------------------- #
# escalation and warm starts (anytime layer)
# --------------------------------------------------------------------- #
def _set_frame_mode(blob: bytes, mode: int) -> bytes:
    """A checkpoint blob with byte 1 (the codec-v2 mode) of every frame
    set to ``mode``."""
    import pickle

    payload = pickle.loads(blob)
    payload["items"] = [(frame[:1] + bytes([mode]) + frame[2:], depth)
                        for frame, depth in payload["items"]]
    return pickle.dumps(payload)


class TestEscalation:
    @pytest.mark.parametrize("blob", ("v1", "damaged", "bad-frames"))
    def test_undecodable_checkpoint_blob_is_a_miss(self, tmp_path, blob):
        """A partial entry whose checkpoint or any of its frames no
        longer decodes is dropped like a damaged artifact; the request
        solves cold."""
        import pickle

        g = phat_complement(60, 2, seed=4)
        ref = solve_mvc(g)
        cache = resolve_cache(tmp_path / "c")
        assert solve_mvc(g, node_budget=5, cache=cache).status == "budget_exhausted"
        [old] = cache.store.ls()
        path = tmp_path / "c" / "entries" / f"{old['uid']}.pkl"
        artifact = pickle.loads(path.read_bytes())
        good = artifact["checkpoint"]
        artifact["checkpoint"] = {
            "v1": lambda: pickle.dumps(dict(pickle.loads(good), version=1)),
            "damaged": lambda: good[: len(good) // 2],
            "bad-frames": lambda: _set_frame_mode(good, 7),
        }[blob]()
        path.write_bytes(pickle.dumps(artifact))
        out = solve_mvc(g, cache=cache)
        assert out.status == "optimal" and out.optimum == ref.optimum
        assert out.nodes_visited == ref.nodes_visited  # a cold solve
        assert cache.session["escalations"] == 0 and cache.session["misses"] == 2
        [new] = cache.store.ls()
        assert new["uid"] != old["uid"] and new["status"] == "optimal"

    def test_resume_errors_propagate(self, tmp_path, monkeypatch):
        """Only a checkpoint that does not decode is damage: an error the
        resumed engine raises reaches the caller."""
        import repro.cache

        g = phat_complement(60, 2, seed=4)
        cache = resolve_cache(tmp_path / "c")
        solve_mvc(g, node_budget=5, cache=cache)

        def failing_resume(*args, **kwargs):
            raise ValueError("engine failure")

        monkeypatch.setattr(repro.cache, "resume_from", failing_resume)
        with pytest.raises(ValueError, match="engine failure"):
            solve_mvc(g, cache=cache)
        [entry] = cache.store.ls()
        assert entry["status"] == "budget_exhausted"

    def test_budget_bump_resumes_cached_checkpoint(self, tmp_path):
        g = phat_complement(60, 2, seed=4)
        ref = solve_mvc(g)
        assert ref.status == "optimal"
        cache = resolve_cache(tmp_path / "c")
        first = solve_mvc(g, node_budget=5, cache=cache)
        assert first.status == "budget_exhausted"
        second = solve_mvc(g, cache=cache)
        assert second.status == "optimal"
        assert second.optimum == ref.optimum
        assert cache.session["escalations"] == 1
        # the resumed leg did not redo the first leg's nodes from scratch
        assert second.nodes_visited <= ref.nodes_visited
        third = solve_mvc(g, cache=cache)
        assert third.status == "optimal" and third.nodes_visited == 0
        assert third.engine == "cache"
        assert cache.session["hits_exact"] == 1
        np.testing.assert_array_equal(np.sort(np.asarray(second.cover)),
                                      np.asarray(third.cover))

    def test_interrupted_leg_upserts_advanced_checkpoint(self, tmp_path):
        g = phat_complement(60, 2, seed=4)
        cache = resolve_cache(tmp_path / "c")
        solve_mvc(g, node_budget=5, cache=cache)
        out2 = solve_mvc(g, node_budget=5, cache=cache)
        assert out2.status == "budget_exhausted"
        assert cache.session["escalations"] == 1
        # the re-stored entry carries the further-advanced frontier
        entry = _exact(cache.store, graph_fingerprint(g), config_hash("mvc"),
                       key=canonical_form(g).key)
        assert entry.status == "budget_exhausted"
        assert entry.checkpoint_blob is not None

    def test_budgeted_chain_on_a_union_resumes_every_component(self, tmp_path):
        """A disconnected MVC is cached per component, so an interrupted
        leg has no whole-graph checkpoint; the chain repeats the request
        and the cache resumes each component from its own."""
        from repro.core.anytime import solve_to_completion

        union = disjoint_union(gnp(30, 0.3, seed=5), gnp(30, 0.3, seed=6))
        cache = resolve_cache(tmp_path / "c")
        first = solve_mvc(union, node_budget=5, cache=cache)
        assert first.status == "budget_exhausted" and not first.resumable
        final = solve_to_completion(union, node_budget=5, cache=cache)
        assert final.status == "optimal"
        assert final.optimum == solve_mvc(union, cache=False).optimum
        assert cache.session["escalations"] >= 2

    def test_pvc_witness_warm_starts_mvc(self, tmp_path):
        g = phat_complement(50, 2, seed=7)
        ref = solve_mvc(g)
        cache = resolve_cache(tmp_path / "c")
        feas = solve_pvc(g, ref.optimum + 2, cache=cache)
        assert feas.status == "optimal" and feas.cover is not None
        out = solve_mvc(g, cache=cache)
        assert out.status == "optimal" and out.optimum == ref.optimum
        assert cache.session["warm_starts"] == 1


# --------------------------------------------------------------------- #
# the disarmed path
# --------------------------------------------------------------------- #
class TestDisarmedPath:
    def test_disarmed_solves_never_touch_cache_code(self, monkeypatch):
        """Raising spy: with no ``cache=`` and no env, the facade must not
        execute any cache entry point (lazy import discipline)."""
        import repro.cache as cache_mod

        monkeypatch.delenv("REPRO_CACHE", raising=False)
        for name in ("resolve_cache", "solve_cached"):
            monkeypatch.setattr(cache_mod, name, _raise_spy(name))
        g = gnp(16, 0.3, seed=2)
        out = solve_mvc(g)
        assert is_vertex_cover(g, out.cover)
        assert solve_pvc(g, out.optimum).feasible is True
        assert solve_mvc(g, deadline=60.0).status == "optimal"

    def test_cache_false_overrides_env(self, monkeypatch, tmp_path):
        import repro.cache as cache_mod

        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "c"))
        for name in ("solve_cached",):
            monkeypatch.setattr(cache_mod, name, _raise_spy(name))
        g = gnp(12, 0.3, seed=2)
        assert solve_mvc(g, cache=False).optimum >= 0
        assert solve_pvc(g, g.n, cache=False).feasible is True
        assert solve_mvc(g, cache=False, deadline=60.0).status == "optimal"

    def test_env_arms_the_facade(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "c"))
        g = gnp(14, 0.3, seed=6)
        cold = solve_mvc(g)
        warm = solve_mvc(g)
        assert warm.optimum == cold.optimum
        assert warm.nodes_visited == 0

    def test_disarmed_overhead_at_most_two_percent(self, monkeypatch):
        """A/B pairs: A = the dispatcher called directly (the
        seed-equivalent path), B = the shipping facade with the cache
        disarmed.  The only delta is one dict pop and one env probe per
        solve — the guard asserts it stays within 2%.  Each side is
        timed in process CPU time, so time another process takes on
        shared cores is not counted; the order alternates pair by pair
        and the median per-pair ratio is compared.  The instance is a
        ~7k-node tree that the compiled loop solves in 6-7 ms of CPU
        time, so each sample times ``SOLVES`` solves back to back (about
        25 ms or more) to keep timer and scheduler noise well inside the
        bound."""
        from repro.core import solver

        monkeypatch.delenv("REPRO_CACHE", raising=False)
        graph = phat_complement(90, 3, seed=7)
        def dispatch(graph):
            return solver._dispatch(graph, None, "sequential", {})

        expected = dispatch(graph).optimum
        assert solver.solve_mvc(graph).optimum == expected
        SOLVES = 4

        def timed(fn):
            t0 = time.process_time()
            for _ in range(SOLVES):
                assert fn(graph).optimum == expected
            return time.process_time() - t0

        ratios = []
        for pair in range(40):
            if pair % 2:
                b = timed(solver.solve_mvc)
                a = timed(dispatch)
            else:
                a = timed(dispatch)
                b = timed(solver.solve_mvc)
            ratios.append(b / a)
        ratio = statistics.median(ratios)
        assert ratio <= 1.02, (f"disarmed cache overhead {ratio - 1:.2%} > 2% "
                               f"(pair ratios {[round(r, 3) for r in ratios]})")


def _raise_spy(name):
    def spy(*args, **kwargs):
        raise AssertionError(f"disarmed solve reached cache.{name}")
    return spy


# --------------------------------------------------------------------- #
# telemetry
# --------------------------------------------------------------------- #
class TestCacheTelemetry:
    def test_counters_reach_registry_and_prometheus(self, tmp_path):
        metrics.reset()
        try:
            g = gnp(20, 0.25, seed=13)
            cache = SolveCache(tmp_path / "c")
            solve_mvc(g, cache=cache)
            solve_mvc(g, cache=cache)
            solve_pvc(g, g.n, cache=cache)
            snap = {(m["name"], tuple(sorted(m.get("labels", {}).items()))):
                    m["value"] for m in metrics.snapshot()["metrics"]}
            assert snap[("repro_cache_hits_total", (("kind", "exact"),))] == 1.0
            assert snap[("repro_cache_hits_total", (("kind", "derived"),))] == 1.0
            assert snap[("repro_cache_misses_total", ())] == 1.0
            reads = snap[("repro_cache_bytes_total", (("direction", "read"),))]
            writes = snap[("repro_cache_bytes_total", (("direction", "written"),))]
            assert reads > 0 and writes > 0
            text = metrics.to_prometheus()
            assert 'repro_cache_hits_total{kind="exact"} 1.0' in text
            assert "repro_cache_misses_total 1.0" in text
        finally:
            metrics.reset()

    def test_lookup_and_record_spans_fall_in_the_cache_group(self, tmp_path):
        from repro import obs
        from repro.obs import breakdown

        g = gnp(20, 0.25, seed=13)
        tracer = obs.arm()
        try:
            solve_mvc(g, cache=str(tmp_path / "c"))  # miss: lookup + record
            solve_mvc(g, cache=str(tmp_path / "c"))  # hit: lookup only
        finally:
            obs.disarm()
            metrics.reset()
        kinds = [s.kind for s in tracer.spans]
        assert kinds.count("cache_lookup") == 2
        assert kinds.count("cache_record") == 1
        solves = {s.span_id for s in tracer.spans if s.kind == "solve"}
        assert all(s.parent_id in solves for s in tracer.spans
                   if s.kind.startswith("cache_"))
        by_kind = breakdown.wall_by_kind_from_spans(tracer.spans)
        assert breakdown.group_fractions(by_kind)["Cache"] > 0

    def test_escalation_counter(self, tmp_path):
        metrics.reset()
        try:
            g = phat_complement(60, 2, seed=4)
            cache_dir = str(tmp_path / "c")
            solve_mvc(g, node_budget=5, cache=cache_dir)
            solve_mvc(g, cache=cache_dir)
            snap = {m["name"]: m["value"]
                    for m in metrics.snapshot()["metrics"]
                    if m["name"] == "repro_cache_escalations_total"}
            assert snap["repro_cache_escalations_total"] == 1.0
        finally:
            metrics.reset()


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
class TestCacheCLI:
    def _solve(self, capsys, *extra):
        from repro.cli import main

        rc = main(["solve", "--graph", "p_hat_300_1", "--scale", "tiny",
                   "--stats", *extra])
        assert rc == 0
        return capsys.readouterr().out

    def test_solve_cache_hit_and_stats_line(self, tmp_path, capsys):
        store = str(tmp_path / "c")
        cold = self._solve(capsys, "--cache", store)
        assert "misses=1" in cold
        warm = self._solve(capsys, "--cache", store)
        assert "exact=1" in warm
        assert "cover size = 26" in cold and "cover size = 26" in warm

    def test_cache_subcommands(self, tmp_path, capsys):
        from repro.cli import main

        store = str(tmp_path / "c")
        self._solve(capsys, "--cache", store)
        assert main(["cache", "ls", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "mvc" in out and "optimal" in out
        assert main(["cache", "stats", "--store", store]) == 0
        assert "1 entries" in capsys.readouterr().out
        assert main(["cache", "gc", "--store", store, "--max-bytes", "0"]) == 0
        assert "evicted 1" in capsys.readouterr().out
        assert main(["cache", "clear", "--store", store]) == 0
        assert main(["cache", "stats", "--store", store]) == 0
        assert "0 entries" in capsys.readouterr().out


# --------------------------------------------------------------------- #
# experiment layer knob
# --------------------------------------------------------------------- #
class TestExperimentKnob:
    def test_spec_cache_knob_is_fingerprint_neutral(self, tmp_path):
        from repro.experiment.spec import ExperimentSpec, InstanceRef

        ref = [InstanceRef(suite="p_hat_300_1")]
        plain = ExperimentSpec(name="x", instances=ref)
        cached = ExperimentSpec(name="x", instances=ref,
                                cache=str(tmp_path / "c"))
        assert plain.cell_config() == cached.cell_config()
        assert "cache" not in plain.to_dict()
        roundtrip = ExperimentSpec.from_dict(cached.to_dict())
        assert roundtrip.cache == str(tmp_path / "c")

    def test_run_cell_threads_cache_into_wall_clock_cells(self, tmp_path):
        from repro.analysis.experiments import run_cell
        from repro.experiment.spec import ExperimentSpec, InstanceRef

        spec = ExperimentSpec(name="x", instances=[InstanceRef(suite="p_hat_300_1")],
                              engines=("cpu-threads",), engine_node_guard=20_000,
                              cache=str(tmp_path / "c"))
        g = gnp(24, 0.15, seed=41)
        cold = run_cell("cpu-threads", g, "mvc", None, spec)
        warm = run_cell("cpu-threads", g, "mvc", None, spec)
        assert warm.optimum == cold.optimum
        assert warm.nodes == 0


def test_facade_reads_the_cache_env_through_any_mapping(monkeypatch, tmp_path):
    """The facade's exception-free ``REPRO_CACHE`` probe sees values set
    through ``os.environ`` (including non-ASCII paths) and falls back to
    ``.get`` when ``os.environ`` has been replaced by a plain mapping."""
    import os

    from repro.core import solver

    monkeypatch.delenv("REPRO_CACHE", raising=False)
    assert solver._cache_env() is None
    path = str(tmp_path / "cé")
    monkeypatch.setenv("REPRO_CACHE", path)
    assert solver._cache_env() == path
    g = gnp(14, 0.3, seed=6)
    assert solve_mvc(g).optimum == solve_mvc(g).optimum
    assert solve_mvc(g).nodes_visited == 0  # armed by the env: a hit
    monkeypatch.setattr(os, "environ", {"REPRO_CACHE": str(tmp_path / "d")})
    assert solver._cache_env() == str(tmp_path / "d")
    monkeypatch.setattr(os, "environ", {})
    assert solver._cache_env() is None
