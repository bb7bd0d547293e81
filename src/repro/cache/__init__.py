"""Content-addressed solve cache: certificates, memoization, escalation.

The sixth orthogonal subsystem.  A solve's identity is two composable
hashes — a *graph* key and a *config* hash — and the cache answers a
request at the strongest tier that identity supports:

1. **Exact hit** — the request's CSR fingerprint
   (:func:`repro.experiment.spec.graph_fingerprint`) matches a stored
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
4. **Escalation / warm start** (anytime layer) — a stored
   ``budget_exhausted``/``deadline-tripped`` entry carries a PR 6
   :class:`~repro.core.outcome.Checkpoint`; a repeat request resumes
   from it instead of restarting, and any same-instance entry with an
   incumbent cover warm-starts ``initial_best`` even when the config
   hash differs (e.g. a PVC witness seeding an MVC solve).

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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..core.verify import assert_valid_cover
from ..graph.canonical import CanonicalForm, canonical_form
from ..graph.csr import CSRGraph
from .store import CacheEntry, CacheStore

__all__ = [
    "CacheUnavailableWarning",
    "SolveCache",
    "CachedSolveResult",
    "resolve_cache",
    "config_hash",
    "cached_solve_mvc",
    "cached_solve_pvc",
    "cached_solve_anytime",
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
    from ..experiment.spec import canonical_json

    body = canonical_json({"cache": 1, "formulation": formulation, "k": k})
    return hashlib.sha256(body.encode()).hexdigest()


def _graph_fp(graph: CSRGraph) -> str:
    from ..experiment.spec import graph_fingerprint

    return graph_fingerprint(graph)


def _covers_all_edges(graph: CSRGraph, cover: np.ndarray) -> bool:
    """Vectorized cover check (the hit path must not loop in Python)."""
    mask = np.zeros(graph.n, dtype=bool)
    cover = np.asarray(cover, dtype=np.int64)
    if cover.size:
        if cover.min() < 0 or cover.max() >= graph.n:
            return False
        mask[cover] = True
    src = np.repeat(np.arange(graph.n, dtype=np.int64),
                    np.asarray(graph.degrees, dtype=np.int64))
    return bool(np.all(mask[src] | mask[graph.indices]))


# ---------------------------------------------------------------------- #
# results
# ---------------------------------------------------------------------- #
@dataclass
class CachedSolveResult:
    """A solve answered (fully or partly) from the cache.

    Duck-compatible with both result shapes the facade can return:
    ``nodes_visited`` is a field (the :class:`EngineResult` spelling) and
    ``stats`` returns ``self`` (the :class:`SearchOutcome` spelling), so
    every existing consumer reads zero nodes off a hit unchanged.
    """

    formulation: str
    optimum: Optional[int]
    cover: Optional[np.ndarray]
    feasible: Optional[bool] = None
    timed_out: bool = False
    deadline_tripped: bool = False
    nodes_visited: int = 0
    n_components: int = 1
    component_optima: List[int] = field(default_factory=list)
    cache_events: Dict[str, int] = field(default_factory=dict)
    pending_states: tuple = ()

    @property
    def stats(self) -> "CachedSolveResult":
        return self


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

    # -- lookup tiers -------------------------------------------------- #
    def lookup_certificate(
        self, graph: CSRGraph, formulation: str, k: Optional[int],
        *, fp: Optional[str] = None, form: Optional[CanonicalForm] = None,
        count: bool = True,
    ) -> Optional[CachedSolveResult]:
        """Tiers 1–3: return a finished certificate, or ``None``.

        A ``None`` is *not* counted as a miss here (the caller may still
        escalate or warm-start); pass ``count=False`` to suppress hit
        counting too (probes).
        """
        fp = fp or _graph_fp(graph)
        cfg = config_hash(formulation, k)

        # Tier 1: exact instance, exact question.
        entry = self.store.lookup_exact(fp, cfg)
        if entry is not None and entry.status == "optimal":
            if count:
                self._count("hits_exact")
                self._count("bytes_read", entry.nbytes)
                self.store.touch(entry.uid)
            return self._certificate(graph, entry, formulation, k, mapped_cover=entry.cover)

        # Tier 3 (exact instance, MVC answers PVC) before any iso work:
        # same-fingerprint evidence is strictly stronger.
        if formulation == "pvc":
            mvc = self.store.lookup_exact(fp, config_hash("mvc", None))
            if mvc is not None and mvc.status == "optimal":
                if count:
                    self._count("hits_derived")
                    self._count("bytes_read", mvc.nbytes)
                    self.store.touch(mvc.uid)
                return self._derived_pvc(graph, mvc, k, mapped_cover=mvc.cover)

        # Tier 2: isomorphic donor (proof-carrying only).
        if form is None:
            form = canonical_form(graph)
        if form.individualized:
            hit = self._iso_candidate(form, cfg, fp)
            if hit is not None:
                mapped = self._transport_cover(form, hit)
                if mapped is not None and (hit.cover is None or
                                           _covers_all_edges(graph, mapped)):
                    if count:
                        self._count("hits_iso")
                        self._count("bytes_read", hit.nbytes)
                        self.store.touch(hit.uid)
                    return self._certificate(graph, hit, formulation, k,
                                             mapped_cover=mapped)
            if formulation == "pvc":
                mvc_hit = self._iso_candidate(form, config_hash("mvc", None), fp)
                if mvc_hit is not None:
                    mapped = self._transport_cover(form, mvc_hit)
                    if mapped is not None and _covers_all_edges(graph, mapped):
                        if count:
                            self._count("hits_derived")
                            self._count("bytes_read", mvc_hit.nbytes)
                            self.store.touch(mvc_hit.uid)
                        return self._derived_pvc(graph, mvc_hit, k, mapped_cover=mapped)
        return None

    def _iso_candidate(self, form: CanonicalForm, cfg: str,
                       fp: str) -> Optional[CacheEntry]:
        for cand in self.store.lookup_key(form.key, cfg):
            if (cand.graph_fp != fp and cand.status == "optimal"
                    and cand.individualized
                    and cand.structure_hash == form.structure_hash):
                return self.store.load_artifact(cand)
        return None

    @staticmethod
    def _transport_cover(form: CanonicalForm,
                         donor: CacheEntry) -> Optional[np.ndarray]:
        """Donor-coordinate cover -> requester coordinates, via canon rank."""
        if donor.cover is None:
            return None
        if donor.order is None or form.order is None:
            return None
        donor_pos = np.empty(donor.n, dtype=np.int64)
        donor_pos[donor.order] = np.arange(donor.n, dtype=np.int64)
        return np.sort(form.order[donor_pos[donor.cover]]).astype(np.int64)

    @staticmethod
    def _certificate(graph: CSRGraph, entry: CacheEntry, formulation: str,
                     k: Optional[int],
                     mapped_cover: Optional[np.ndarray]) -> CachedSolveResult:
        cover = None if mapped_cover is None \
            else np.asarray(mapped_cover, dtype=np.int64)
        return CachedSolveResult(
            formulation=formulation,
            optimum=entry.optimum,
            cover=cover,
            feasible=entry.feasible if formulation == "pvc" else None,
            component_optima=[] if entry.optimum is None else [int(entry.optimum)],
        )

    @staticmethod
    def _derived_pvc(graph: CSRGraph, mvc_entry: CacheEntry, k: Optional[int],
                     mapped_cover: Optional[np.ndarray]) -> CachedSolveResult:
        feasible = bool(mvc_entry.optimum is not None
                        and k is not None and mvc_entry.optimum <= k)
        cover = np.asarray(mapped_cover, dtype=np.int64) if feasible else None
        return CachedSolveResult(
            formulation="pvc",
            optimum=mvc_entry.optimum if feasible else None,
            cover=cover,
            feasible=feasible,
        )

    # -- populate ------------------------------------------------------ #
    def record_certificate(
        self, graph: CSRGraph, formulation: str, k: Optional[int], *,
        status: str, optimum: Optional[int], cover: Optional[np.ndarray],
        feasible: Optional[bool] = None, lower_bound: Optional[int] = None,
        nodes_visited: int = 0, wall_seconds: float = 0.0,
        checkpoint_blob: Optional[bytes] = None,
        fp: Optional[str] = None, form: Optional[CanonicalForm] = None,
    ) -> Optional[CacheEntry]:
        """Verify and persist one solve's outcome.

        An ``optimal`` MVC entry must carry a cover of exactly the
        claimed size that covers every edge (``core.verify`` is the
        gate); invalid payloads are refused loudly — a cache that stores
        an unverified certificate would replay a wrong answer forever.
        """
        if status == "optimal":
            if formulation == "mvc":
                assert_valid_cover(graph, cover, expected_size=optimum)
            elif feasible:
                assert_valid_cover(graph, cover)
                if k is not None and cover is not None and len(cover) > k:
                    raise AssertionError(
                        f"PVC witness has {len(cover)} vertices > k={k}")
        elif cover is not None and not _covers_all_edges(graph, cover):
            raise AssertionError("incumbent cover does not cover all edges")
        fp = fp or _graph_fp(graph)
        form = form or canonical_form(graph)
        entry = CacheEntry(
            canonical_key=form.key,
            config_hash=config_hash(formulation, k),
            graph_fp=fp,
            formulation=formulation,
            k=k,
            n=graph.n,
            m=graph.m,
            individualized=form.individualized,
            structure_hash=form.structure_hash,
            status=status,
            optimum=None if optimum is None else int(optimum),
            feasible=feasible,
            lower_bound=None if lower_bound is None else int(lower_bound),
            nodes_visited=int(nodes_visited),
            wall_seconds=float(wall_seconds),
            cover=None if cover is None else np.asarray(cover, dtype=np.int64),
            order=form.order,
            checkpoint_blob=checkpoint_blob,
        )
        self.store.put(entry)
        self._count("bytes_written", entry.nbytes)
        return entry


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
# facade envelopes (called from repro.core.solver when armed)
# ---------------------------------------------------------------------- #
def cached_solve_mvc(cache: SolveCache, graph: CSRGraph, *, engine: str,
                     options: Dict[str, Any],
                     dispatch: Callable[..., Any]) -> Any:
    """MVC through the cache, one connected component at a time.

    Each component is keyed and cached independently (component
    memoization): a disjoint-union instance that shares a component with
    a previous request only searches the new pieces.  A connected graph
    skips the decomposition copy and, on a miss, returns the engine's
    own result object unchanged.
    """
    if graph.m == 0:
        return dispatch(graph, engine=engine, **options)
    from ..graph.algorithms import component_subgraphs, connected_components

    labels = connected_components(graph)
    if int(labels.max(initial=0)) == 0:
        result, _ = _component_mvc(cache, graph, engine, options, dispatch)
        return result
    total = 0
    covers: List[np.ndarray] = []
    optima: List[int] = []
    nodes = 0
    timed_out = False
    deadline_tripped = False
    events: Dict[str, int] = {}
    pieces = component_subgraphs(graph)
    for sub, ids in pieces:
        if sub.m == 0:
            optima.append(0)
            continue
        result, hit = _component_mvc(cache, sub, engine, options, dispatch)
        events[hit] = events.get(hit, 0) + 1
        total += int(result.optimum)
        optima.append(int(result.optimum))
        if result.cover is not None:
            covers.append(ids[np.asarray(result.cover, dtype=np.int64)])
        nodes += _nodes_of(result)
        timed_out |= bool(result.timed_out)
        deadline_tripped |= bool(getattr(result, "deadline_tripped", False))
    cover = (np.sort(np.concatenate(covers)).astype(np.int64)
             if covers else np.empty(0, dtype=np.int64))
    return CachedSolveResult(
        formulation="mvc", optimum=total, cover=cover, timed_out=timed_out,
        deadline_tripped=deadline_tripped, nodes_visited=nodes,
        n_components=len(pieces), component_optima=optima,
        cache_events=events,
    )


def _component_mvc(cache: SolveCache, graph: CSRGraph, engine: str,
                   options: Dict[str, Any],
                   dispatch: Callable[..., Any]) -> Tuple[Any, str]:
    fp = _graph_fp(graph)
    form = canonical_form(graph)
    hit = cache.lookup_certificate(graph, "mvc", None, fp=fp, form=form)
    if hit is not None:
        return hit, "hit"
    cache._count("misses")
    result = dispatch(graph, engine=engine, **dict(options))
    if not result.timed_out and result.cover is not None:
        cache.record_certificate(
            graph, "mvc", None, status="optimal",
            optimum=int(result.optimum), cover=result.cover,
            lower_bound=int(result.optimum), nodes_visited=_nodes_of(result),
            wall_seconds=float(getattr(result, "wall_seconds", 0.0) or 0.0),
            fp=fp, form=form,
        )
    return result, "miss"


def cached_solve_pvc(cache: SolveCache, graph: CSRGraph, k: int, *,
                     engine: str, options: Dict[str, Any],
                     dispatch: Callable[..., Any]) -> Any:
    """PVC through the cache (whole instance; ``k`` does not decompose)."""
    if graph.m == 0:
        return dispatch(graph, k, engine=engine, **options)
    fp = _graph_fp(graph)
    form = canonical_form(graph)
    hit = cache.lookup_certificate(graph, "pvc", k, fp=fp, form=form)
    if hit is not None:
        return hit
    cache._count("misses")
    result = dispatch(graph, k, engine=engine, **dict(options))
    if not result.timed_out and result.feasible is not None:
        feasible = bool(result.feasible)
        cover = result.cover if feasible else None
        cache.record_certificate(
            graph, "pvc", k, status="optimal",
            optimum=None if cover is None else int(len(cover)),
            cover=cover, feasible=feasible, nodes_visited=_nodes_of(result),
            wall_seconds=float(getattr(result, "wall_seconds", 0.0) or 0.0),
            fp=fp, form=form,
        )
    return result


def _nodes_of(result: Any) -> int:
    nodes = getattr(result, "nodes_visited", None)
    if nodes is None:
        nodes = getattr(getattr(result, "stats", None), "nodes_visited", 0)
    return int(nodes or 0)


# ---------------------------------------------------------------------- #
# anytime envelope (called from repro.core.anytime when armed)
# ---------------------------------------------------------------------- #
def cached_solve_anytime(
    cache: SolveCache,
    graph: CSRGraph,
    k: Optional[int],
    solve_fn: Callable[..., Any],
    resume_fn: Callable[..., Any],
    *,
    node_budget: Optional[int],
    deadline: Optional[float],
) -> Any:
    """The checkpoint-escalation envelope around one anytime solve.

    ``solve_fn(initial_best=...)`` runs a cold leg; ``resume_fn(ckpt)``
    continues a cached frontier.  Resolution order: finished certificate
    (exact/iso/derived) → checkpoint escalation (``resume_from`` on the
    cached frontier, under the *checkpoint's* recorded bound — the
    escalation contract) → incumbent warm start (any same-instance entry
    with a cover seeds ``initial_best``, config hash notwithstanding) →
    cold solve.  Whatever the leg produces is recorded back: a completed
    claim replaces the partial entry, a still-interrupted leg upserts
    its further-advanced checkpoint.
    """
    from ..core.outcome import Checkpoint, SolveOutcome

    formulation = "mvc" if k is None else "pvc"
    fp = _graph_fp(graph)
    form = canonical_form(graph)

    hit = cache.lookup_certificate(graph, formulation, k, fp=fp, form=form)
    if hit is not None:
        if formulation == "mvc":
            return SolveOutcome(
                status="optimal", formulation="mvc", engine="cache",
                optimum=hit.optimum, cover=hit.cover, lower_bound=hit.optimum,
                nodes=0, k=None, extra={"cache_hit": 1.0},
            )
        return SolveOutcome(
            status="optimal", formulation="pvc", engine="cache",
            optimum=hit.optimum, cover=hit.cover,
            lower_bound=None if hit.feasible else (None if k is None else k + 1),
            nodes=0, k=k, extra={"cache_hit": 1.0},
        )

    cfg = config_hash(formulation, k)
    entry = cache.store.lookup_exact(fp, cfg)
    if entry is not None and entry.checkpoint_blob:
        checkpoint = Checkpoint.from_bytes(entry.checkpoint_blob)
        cache._count("escalations")
        cache._count("bytes_read", entry.nbytes)
        cache.store.touch(entry.uid)
        outcome = resume_fn(checkpoint)
        outcome.extra["cache_escalated"] = 1.0
        _record_outcome(cache, graph, outcome, fp=fp, form=form)
        return outcome

    cache._count("misses")
    initial_best = None
    if formulation == "mvc":
        initial_best = _best_incumbent(cache, graph, fp)
        if initial_best is not None:
            cache._count("warm_starts")
    outcome = solve_fn(initial_best=initial_best)
    _record_outcome(cache, graph, outcome, fp=fp, form=form)
    return outcome


def _best_incumbent(cache: SolveCache, graph: CSRGraph,
                    fp: str) -> Optional[Tuple[int, np.ndarray]]:
    """Smallest valid cover stored for this exact instance, any config."""
    best: Optional[Tuple[int, np.ndarray]] = None
    for entry in cache.store.entries_for_graph(fp):
        if entry.optimum is None:
            continue
        if best is not None and entry.optimum >= best[0]:
            continue
        loaded = cache.store.load_artifact(entry)
        if loaded.cover is None or len(loaded.cover) != entry.optimum:
            continue
        if not _covers_all_edges(graph, loaded.cover):
            continue
        cache._count("bytes_read", entry.nbytes)
        best = (int(entry.optimum),
                np.asarray(loaded.cover, dtype=np.int64))
    return best


def _record_outcome(cache: SolveCache, graph: CSRGraph, outcome: Any, *,
                    fp: str, form: CanonicalForm) -> None:
    formulation = outcome.formulation
    k = outcome.k
    if outcome.complete:
        has_cover = outcome.cover is not None and (
            formulation == "mvc" or outcome.optimum is not None)
        cache.record_certificate(
            graph, formulation, k, status="optimal",
            optimum=outcome.optimum,
            cover=outcome.cover if has_cover else None,
            feasible=None if formulation == "mvc" else bool(has_cover),
            lower_bound=outcome.lower_bound, nodes_visited=outcome.nodes,
            wall_seconds=outcome.wall_seconds, fp=fp, form=form,
        )
        return
    if outcome.checkpoint is None:
        return
    cache.record_certificate(
        graph, formulation, k, status=outcome.status,
        optimum=outcome.optimum,
        cover=outcome.cover,
        feasible=None,
        lower_bound=outcome.lower_bound, nodes_visited=outcome.nodes,
        wall_seconds=outcome.wall_seconds,
        checkpoint_blob=outcome.checkpoint.to_bytes(), fp=fp, form=form,
    )
