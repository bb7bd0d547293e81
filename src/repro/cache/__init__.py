"""Content-addressed solve cache: certificates, memoization, escalation.

The sixth orthogonal subsystem.  A solve's identity is two composable
hashes — a *graph* key and a *config* hash — and the cache answers a
request at the strongest tier that identity supports:

1. **Exact hit** — the request's CSR fingerprint
   (:func:`repro.graph.fingerprint.graph_fingerprint`) matches a stored
   ``optimal`` entry: the verified certificate comes back bit-identical,
   with zero search nodes.
2. **Isomorphic hit** — the relabel-invariant canonical key
   (:mod:`repro.graph.canonical`) matches, *both* graphs were
   WL-individualized, and their canonical-order adjacency hashes are
   equal — which proves isomorphism, so the stored cover is transported
   through canonical coordinates (and re-verified, belt and braces).
   WL-equal but non-individualized graphs (C6 vs two triangles) never
   reach this tier: equal keys alone prove nothing, and the cache
   degrades soundly to exact matching for them.
3. **Derived hit** — an ``optimal`` MVC entry answers any PVC query on
   the same instance: feasible iff ``optimum <= k``, with the stored
   cover as witness.
4. **Escalation / warm start** — a stored ``budget_exhausted`` or
   deadline-tripped entry carries a
   :class:`~repro.core.outcome.Checkpoint`; a repeat request resumes
   from it instead of restarting, and any same-instance entry with an
   incumbent cover warm-starts ``initial_best`` even when the config
   hash differs (e.g. a PVC witness seeding an MVC solve).

:func:`solve_cached` is the one envelope the solve facade runs when the
cache is armed; it reads every candidate row for the request in one
index read, tries those tiers in that order before a cold solve and
records whatever comes out.  A hit writes nothing to the index (see
:mod:`repro.cache.store`).

The config hash deliberately covers ``{formulation, k}`` only: engines,
bounds, frontiers and budgets never change *what* the answer is, so a
certificate populated by the sequential engine satisfies a distributed
request (cross-engine hits).

Everything here is lazily imported by the solve facade — a disarmed
solve (no ``cache=``, no ``REPRO_CACHE``) executes none of this module.
"""

from __future__ import annotations

import hashlib
import os
import warnings
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..core.anytime import resume_from
from ..core.decompose import stitch_components
from ..core.outcome import Checkpoint, SolveOutcome, finish_outcome
from ..core.verify import cover_defect
from ..graph.algorithms import connected_components
from ..graph.canonical import CanonicalForm, canonical_form
from ..graph.csr import CSRGraph
from ..graph.fingerprint import canonical_json, graph_fingerprint
from ..obs import trace as obs_trace
from .store import CacheEntry, CacheStore, DamagedArtifact

__all__ = [
    "CacheUnavailableWarning",
    "SolveCache",
    "resolve_cache",
    "config_hash",
    "solve_cached",
]

#: Default store root when the caller says "cache on" without a path.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Env var consulted when no explicit ``cache=`` option is given.
CACHE_ENV = "REPRO_CACHE"

_OFF_VALUES = ("", "0", "off", "false", "no")


class CacheUnavailableWarning(RuntimeWarning):
    """The cache root cannot be used; the solve runs without the cache."""


def config_hash(formulation: str, k: Optional[int] = None) -> str:
    """Hash of the *question* being asked — ``{formulation, k}`` only.

    Engine, bound policy, frontier discipline and budgets are excluded
    on purpose: they change how fast an answer arrives, never what it
    is, and excluding them is what makes cross-engine hits legal.
    """
    body = canonical_json({"cache": 1, "formulation": formulation, "k": k})
    return hashlib.sha256(body.encode()).hexdigest()


class SolveCache:
    """One cache root: a :class:`CacheStore` plus per-session counters."""

    def __init__(self, root: Union[str, Path]):
        self.store = CacheStore(root)
        self.session: Dict[str, int] = {
            "hits_exact": 0, "hits_iso": 0, "hits_derived": 0,
            "misses": 0, "escalations": 0, "warm_starts": 0,
            "bytes_read": 0, "bytes_written": 0,
        }

    @property
    def root(self) -> Path:
        return self.store.root

    # -- counters ------------------------------------------------------ #
    def _count(self, event: str, amount: int = 1) -> None:
        self.session[event] = self.session.get(event, 0) + amount
        from ..obs import metrics

        if event.startswith("hits_"):
            metrics.counter("repro_cache_hits_total",
                            "cache hits by tier",
                            kind=event[len("hits_"):]).force(amount)
        elif event == "misses":
            metrics.counter("repro_cache_misses_total",
                            "cache lookups that ran a cold solve").force(amount)
        elif event == "escalations":
            metrics.counter("repro_cache_escalations_total",
                            "checkpoint resumes from cached partial solves").force(amount)
        elif event == "warm_starts":
            metrics.counter("repro_cache_warm_starts_total",
                            "solves seeded with a cached incumbent").force(amount)
        elif event.startswith("bytes_"):
            metrics.counter("repro_cache_bytes_total",
                            "artifact bytes moved",
                            direction=event[len("bytes_"):]).force(amount)

    def _hit(self, tier: str, entry: CacheEntry) -> None:
        self._count(f"hits_{tier}")
        self._count("bytes_read", entry.nbytes)
        self.store.touch(entry.uid)

    def _load(self, entry: Optional[CacheEntry],
              rows: List[CacheEntry]) -> Optional[CacheEntry]:
        """``entry`` with its artifact loaded, or ``None`` when there is
        no entry or its artifact is damaged.  A damaged entry is deleted
        from the store and from ``rows``, so the request falls through
        to the next tier or a cold solve that records it afresh."""
        if entry is None:
            return None
        try:
            return self.store.load_artifact(entry)
        except DamagedArtifact:
            self.store.delete(entry.uid)
            rows.remove(entry)
            return None

    # -- lookup tiers -------------------------------------------------- #
    def lookup_certificate(
        self, graph: CSRGraph, k: Optional[int], rows: List[CacheEntry], *,
        fp: str, form: CanonicalForm,
    ) -> Optional[SolveOutcome]:
        """Tiers 1–3: a finished certificate as an ``engine="cache"``
        outcome with zero search nodes, or ``None``; ``k`` is ``None``
        for MVC, and ``rows`` is the request's one index read
        (:meth:`CacheStore.lookup`).

        A ``None`` is *not* counted as a miss here (the caller may still
        escalate or warm-start).  A stored cover was checked when it was
        recorded; one transported from an isomorphic donor is checked
        here, and the outcome does not check either again.
        """
        formulation = "mvc" if k is None else "pvc"
        cfg = config_hash(formulation, k)

        # Tier 1: exact instance, exact question.
        exact = self._load(_optimal_exact(rows, fp, cfg), rows)
        if exact is not None:
            self._hit("exact", exact)
            return _answer(graph, k, exact.cover, exact.optimum)

        # Tier 3 (exact instance, MVC answers PVC) before any iso work:
        # same-fingerprint evidence is strictly stronger.
        if formulation == "pvc":
            mvc = self._load(_optimal_exact(rows, fp, config_hash("mvc", None)),
                             rows)
            if mvc is not None:
                self._hit("derived", mvc)
                return _derived_pvc(graph, k, mvc, mvc.cover)

        # Tier 2: isomorphic donor (proof-carrying only).
        if form.individualized:
            hit = self._iso_candidate(form, cfg, fp, rows)
            mapped = self._transport_cover(graph, form, hit)
            if mapped is not None:
                self._hit("iso", hit)
                return _answer(graph, k, mapped, hit.optimum)
            if formulation == "pvc":
                mvc_hit = self._iso_candidate(form, config_hash("mvc", None),
                                              fp, rows)
                mapped = self._transport_cover(graph, form, mvc_hit)
                if mapped is not None:
                    self._hit("derived", mvc_hit)
                    return _derived_pvc(graph, k, mvc_hit, mapped)
        return None

    def _iso_candidate(self, form: CanonicalForm, cfg: str, fp: str,
                       rows: List[CacheEntry]) -> Optional[CacheEntry]:
        donors = [cand for cand in rows
                  if cand.canonical_key == form.key and cand.config_hash == cfg
                  and cand.graph_fp != fp and cand.status == "optimal"
                  and cand.individualized
                  and cand.structure_hash == form.structure_hash]
        for cand in donors:
            loaded = self._load(cand, rows)
            if loaded is not None:
                return loaded
        return None

    @staticmethod
    def _transport_cover(graph: CSRGraph, form: CanonicalForm,
                         donor: Optional[CacheEntry]) -> Optional[np.ndarray]:
        """Donor-coordinate cover -> requester coordinates, via canon rank;
        ``None`` unless the transported cover certifies the donor's optimum."""
        if donor is None or donor.cover is None:
            return None
        if donor.order is None or form.order is None:
            return None
        donor_pos = np.empty(donor.n, dtype=np.int64)
        donor_pos[donor.order] = np.arange(donor.n, dtype=np.int64)
        mapped = np.sort(form.order[donor_pos[donor.cover]]).astype(np.int64)
        if cover_defect(graph, mapped, size=donor.optimum) is not None:
            return None
        return mapped

    # -- populate ------------------------------------------------------ #
    def record(self, graph: CSRGraph, outcome: SolveOutcome, *, fp: str,
               form: CanonicalForm) -> Optional[CacheEntry]:
        """Persist one solve's outcome: a proven claim as a certificate,
        an interrupted one with its checkpoint (nothing else is kept).

        Every :class:`SolveOutcome` leaves its finisher with a checked
        cover, so the store never holds an unverified certificate — one
        would replay a wrong answer forever.
        """
        blob = None
        if not outcome.complete:
            if outcome.checkpoint is None:
                return None
            blob = outcome.checkpoint.to_bytes()
        entry = CacheEntry(
            canonical_key=form.key,
            config_hash=config_hash(outcome.formulation, outcome.k),
            graph_fp=fp,
            formulation=outcome.formulation,
            k=outcome.k,
            n=graph.n,
            m=graph.m,
            individualized=form.individualized,
            structure_hash=form.structure_hash,
            status=outcome.status,
            optimum=outcome.optimum,
            feasible=outcome.feasible,
            lower_bound=outcome.lower_bound,
            nodes_visited=outcome.nodes_visited,
            wall_seconds=outcome.wall_seconds,
            cover=None if outcome.cover is None
            else np.asarray(outcome.cover, dtype=np.int64),
            order=form.order,
            checkpoint_blob=blob,
        )
        self.store.put(entry)
        self._count("bytes_written", entry.nbytes)
        return entry


def _optimal_exact(rows: List[CacheEntry], fp: str,
                   cfg: str) -> Optional[CacheEntry]:
    """The ``optimal`` entry for this exact instance and question, if any."""
    return next((e for e in rows if e.graph_fp == fp and e.config_hash == cfg
                 and e.status == "optimal"), None)


def _answer(graph: CSRGraph, k: Optional[int], cover: Optional[np.ndarray],
            optimum: Optional[int]) -> SolveOutcome:
    """A stored claim as an outcome (its cover is already checked)."""
    return finish_outcome(graph, k, engine="cache", size=optimum, checked=True,
                          cover=None if cover is None else np.asarray(cover, dtype=np.int64))


def _derived_pvc(graph: CSRGraph, k: Optional[int], mvc_entry: CacheEntry,
                 cover: Optional[np.ndarray]) -> SolveOutcome:
    """An optimal MVC certificate answers PVC: feasible iff optimum <= k."""
    feasible = mvc_entry.optimum is not None and mvc_entry.optimum <= k
    return _answer(graph, k, cover if feasible else None, mvc_entry.optimum)


# ---------------------------------------------------------------------- #
# arming
# ---------------------------------------------------------------------- #
def resolve_cache(cache: Union[None, bool, str, Path, SolveCache]) -> Optional[SolveCache]:
    """Normalize a ``cache=`` option / env value into a :class:`SolveCache`.

    ``None``/``False`` and the off-spellings (``""``, ``"0"``, ``"off"``,
    ``"false"``, ``"no"``) disarm; ``True`` uses ``$REPRO_CACHE`` or the
    default root; a string or path names the store root directly.  A
    root that cannot be created warns :class:`CacheUnavailableWarning`
    and disarms.
    """
    if cache is None or cache is False:
        return None
    if isinstance(cache, SolveCache):
        return cache
    root = (os.environ.get(CACHE_ENV) or DEFAULT_CACHE_DIR) if cache is True else str(cache)
    if cache is not True and root.lower() in _OFF_VALUES:
        return None
    try:
        return SolveCache(root)
    except OSError as exc:
        warnings.warn(f"cache root {root!r} is unusable ({exc}); solving "
                      "without the cache", CacheUnavailableWarning)
        return None


# ---------------------------------------------------------------------- #
# the envelope (called from repro.core.solver when armed)
# ---------------------------------------------------------------------- #
def solve_cached(cache: SolveCache, graph: CSRGraph, k: Optional[int], engine: str,
                 options: Dict[str, Any],
                 dispatch: Callable[..., SolveOutcome]) -> SolveOutcome:
    """One facade solve through the cache; ``k`` is ``None`` for MVC.

    Resolution order: finished certificate (exact, iso, derived) →
    checkpoint escalation (:func:`~repro.core.anytime.resume_from` on
    the cached frontier, under the *checkpoint's* recorded bound) →
    incumbent warm start (MVC: any same-instance entry with a cover
    seeds ``initial_best``, config hash notwithstanding) → cold solve
    (``dispatch(graph, k, engine, options)``).  Whatever the solve
    produces is recorded back: a proven claim replaces a partial entry,
    a still-interrupted leg upserts its further-advanced checkpoint.
    The choice reads the index once (:meth:`CacheStore.lookup`) and
    loads only the artifacts it uses; an entry whose artifact is
    missing or damaged is deleted and treated as absent.  Under an
    armed tracer the lookup and the record are ``cache_lookup`` and
    ``cache_record`` spans.

    MVC on a disconnected graph runs this envelope once per component
    (component memoization: a disjoint union that shares a component
    with a previous request only searches the new pieces).
    """
    if graph.m == 0:
        return dispatch(graph, k, engine, dict(options))
    if k is None and int(connected_components(graph).max(initial=0)) > 0:
        return stitch_components(
            graph, lambda sub: solve_cached(cache, sub, None, engine, options, dispatch),
            engine=engine)
    cfg = config_hash("mvc" if k is None else "pvc", k)
    with obs_trace.span("cache_lookup"):
        fp = graph_fingerprint(graph)
        form = canonical_form(graph)
        rows = cache.store.lookup(fp, form.key)
        hit = cache.lookup_certificate(graph, k, rows, fp=fp, form=form)
        if hit is not None:
            return hit
        # Any entry left for this instance and question is a partial one:
        # an optimal one would have answered above.
        partial = cache._load(next((e for e in rows if e.graph_fp == fp
                                    and e.config_hash == cfg), None), rows)
        checkpoint = None
        if partial is not None and partial.checkpoint_blob:
            try:
                checkpoint = Checkpoint.from_bytes(partial.checkpoint_blob)
                # Decode every frame now: one that fails inside the
                # resume would raise past the cache instead of solving cold.
                checkpoint.states(graph)
            except ValueError:  # no longer decodes: a damaged artifact
                checkpoint = None
                cache.store.delete(partial.uid)
                rows.remove(partial)
        if checkpoint is not None:
            cache._count("escalations")
            cache._count("bytes_read", partial.nbytes)
            cache.store.touch(partial.uid)
        else:
            cache._count("misses")
            options = dict(options)
            if k is None:
                best = _best_incumbent(cache, graph, fp, rows)
                if best is not None:
                    cache._count("warm_starts")
                    options["initial_best"] = best
    if checkpoint is not None:
        out = resume_from(checkpoint, graph, engine=engine, **options)
    else:
        out = dispatch(graph, k, engine, options)
    with obs_trace.span("cache_record"):
        cache.record(graph, out, fp=fp, form=form)
    return out


def _best_incumbent(cache: SolveCache, graph: CSRGraph, fp: str,
                    rows: List[CacheEntry]) -> Optional[Tuple[int, np.ndarray]]:
    """Smallest valid cover stored for this exact instance, any config."""
    best: Optional[Tuple[int, np.ndarray]] = None
    for entry in [e for e in rows if e.graph_fp == fp]:
        if entry.optimum is None:
            continue
        if best is not None and entry.optimum >= best[0]:
            continue
        loaded = cache._load(entry, rows)
        if loaded is None or loaded.cover is None or cover_defect(
                graph, loaded.cover, size=entry.optimum) is not None:
            continue
        cache._count("bytes_read", entry.nbytes)
        best = (int(entry.optimum),
                np.asarray(loaded.cover, dtype=np.int64))
    return best
