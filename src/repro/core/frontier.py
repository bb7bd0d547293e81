"""Pluggable frontier policies: the worklist-discipline layer.

The paper's central comparison is between *worklist disciplines* — a
per-block local stack (StackOnly), a pure global worklist (GlobalOnly),
and the hybrid threshold scheme (Fig. 4) — all running the **same**
branch-and-reduce node step.  This module makes that separation explicit:
a :class:`Frontier` holds the pending tree nodes and decides which one is
processed next, while :mod:`repro.core.nodestep` owns what happens *at*
a node.  Every engine composes the two; no engine re-implements either.

Single-owner policies (used directly by the sequential solver and by the
``repro solve --frontier`` CLI, and embedded per-worker inside the real
CPU engines):

* :class:`LifoFrontier` — depth-first local stack, the Fig. 1 baseline;
* :class:`GlobalWorklistFrontier` — FIFO worklist, the Section IV-A
  breadth-first ablation in sequential form;
* :class:`HybridThresholdFrontier` — Fig. 4's donation policy: feed a
  (FIFO) shared pool while it is hungry, otherwise go depth-first;
* :class:`StealingDequeFrontier` — per-lane deques with oldest-first
  stealing, the classic CPU work-stealing discipline, explored
  sequentially;
* :class:`BestFirstFrontier` — **new scenario**: a priority queue ordered
  by the greedy bound ``|S| + ceil(|E'| / Δ')``, expanding the most
  promising subproblem first.

Concurrency note: frontiers are plain data structures with no internal
locking.  The sequential solver owns one outright; each distributed
worker walks its own stack, and the coordinator's lease queue is engine
logic (the coordination protocol — waiting, donation, termination — is
not ordering policy, and stays in the engines).  The simulated-GPU
engines realise the same policies in cycle-charged form: the bounded
:class:`repro.sim.local_stack.LocalStack` *is* a ``LifoFrontier`` with a
depth bound, the :class:`repro.sim.broker.BrokerWorklist` plays the
shared pool, and :func:`hybrid_should_donate` is the one shared
threshold predicate every hybrid variant consults.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "Frontier",
    "LifoFrontier",
    "GlobalWorklistFrontier",
    "HybridThresholdFrontier",
    "StealingDequeFrontier",
    "BestFirstFrontier",
    "greedy_bound_key",
    "hybrid_should_donate",
    "FRONTIERS",
    "make_frontier",
]


def hybrid_should_donate(population: int, threshold: int) -> bool:
    """Fig. 4 lines 23-26: donate to the shared pool while it is hungry.

    The one place the hybrid threshold policy is written down.  Consulted
    by the simulated :class:`~repro.engines.hybrid.HybridEngine`, the real
    thread/process engines, and :class:`HybridThresholdFrontier`.
    """
    return population < threshold


class Frontier:
    """A pool of pending tree nodes plus the policy choosing the next one.

    Items are opaque to the policy (the sequential solver stores
    ``(state, depth)`` tuples; the CPU engines store bare states), except
    for :class:`BestFirstFrontier`, whose key function must understand
    them.  ``pop`` returns ``None`` when the frontier is empty — frontiers
    never block; waiting and termination are the engine's concern.
    """

    __slots__ = ()

    def push(self, item: Any) -> None:
        raise NotImplementedError

    def pop(self) -> Optional[Any]:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __bool__(self) -> bool:
        return len(self) > 0

    def drain(self) -> List[Any]:
        """Pop everything, in the policy's own order (for checkpointing).

        The outcome finisher (:mod:`repro.core.outcome`) serializes an
        interrupted traversal's frontier from this; afterwards the
        frontier is empty.
        """
        items: List[Any] = []
        pop = self.pop
        while True:
            item = pop()
            if item is None:
                return items
            items.append(item)


class LifoFrontier(Frontier):
    """Depth-first stack: always expand the most recently deferred child."""

    __slots__ = ("_items",)

    def __init__(self) -> None:
        self._items: List[Any] = []

    def push(self, item: Any) -> None:
        self._items.append(item)

    def pop(self) -> Optional[Any]:
        items = self._items
        return items.pop() if items else None

    def __len__(self) -> int:
        return len(self._items)


class GlobalWorklistFrontier(Frontier):
    """FIFO worklist: oldest-first, the breadth-first Section IV-A discipline."""

    __slots__ = ("_items",)

    def __init__(self) -> None:
        self._items: deque = deque()

    def push(self, item: Any) -> None:
        self._items.append(item)

    def pop(self) -> Optional[Any]:
        items = self._items
        return items.popleft() if items else None

    def __len__(self) -> int:
        return len(self._items)


class HybridThresholdFrontier(Frontier):
    """Fig. 4's hybrid policy as a single-owner frontier.

    A push *donates* the item to the shared FIFO pool while its population
    is below ``threshold``; otherwise the item stays on the local
    depth-first stack.  A pop drains the local stack first and only then
    turns to the pool — the order that keeps worklist contention low on
    the device (Section IV-A).  The pool therefore never exceeds
    ``threshold`` entries here; a separate hard capacity only matters
    with concurrent producers, which is the simulated
    :class:`~repro.sim.broker.BrokerWorklist`'s job, not this policy's.
    ``donated``/``kept`` count the two outcomes for the sweep harnesses.
    """

    __slots__ = ("threshold", "local", "pool", "donated", "kept")

    def __init__(self, threshold: int = 32) -> None:
        if threshold < 1:
            raise ValueError("threshold must be positive")
        self.threshold = threshold
        self.local = LifoFrontier()
        self.pool = GlobalWorklistFrontier()
        self.donated = 0
        self.kept = 0

    def push(self, item: Any) -> None:
        if hybrid_should_donate(len(self.pool), self.threshold):
            self.pool.push(item)
            self.donated += 1
        else:
            self.local.push(item)
            self.kept += 1

    def pop(self) -> Optional[Any]:
        item = self.local.pop()
        if item is not None:
            return item
        return self.pool.pop()

    def __len__(self) -> int:
        return len(self.local) + len(self.pool)


class StealingDequeFrontier(Frontier):
    """Per-lane deques, own-end pops, oldest-first steals.

    The decentralised alternative to the hybrid's central pool: every lane
    (worker) pushes and pops at its own deque's young end and, when empty,
    steals the *oldest* entry from a random victim — oldest being closest
    to the victim's sub-tree root, i.e. the biggest stolen sub-tree (the
    standard heuristic).  The lane API (:meth:`push_lane` /
    :meth:`pop_own` / :meth:`steal`) is the per-worker view; the
    single-owner :meth:`push`/:meth:`pop` interface round-robins pushes
    across lanes, which makes the schedule explorable sequentially
    (``repro solve --frontier stealing``).  No parallel engine runs it:
    the paper balances load through one shared worklist.
    """

    __slots__ = ("lanes", "steals", "_rng", "_push_cursor")

    def __init__(self, n_lanes: int = 4, seed: int = 0) -> None:
        if n_lanes < 1:
            raise ValueError("n_lanes must be positive")
        self.lanes: List[deque] = [deque() for _ in range(n_lanes)]
        self.steals = 0
        self._rng = random.Random(seed)
        self._push_cursor = 0

    # ------------------------------------------------------------------ #
    # lane API: one deque per worker, no locking of its own
    # ------------------------------------------------------------------ #
    def push_lane(self, lane: int, item: Any) -> None:
        self.lanes[lane].append(item)

    def pop_own(self, lane: int) -> Optional[Any]:
        own = self.lanes[lane]
        return own.pop() if own else None

    def steal(self, lane: int) -> Optional[Any]:
        """Steal the oldest entry from a random non-empty victim lane."""
        victims = [v for v in range(len(self.lanes)) if v != lane]
        self._rng.shuffle(victims)
        for victim in victims:
            if self.lanes[victim]:
                self.steals += 1
                return self.lanes[victim].popleft()
        return None

    # ------------------------------------------------------------------ #
    # single-owner Frontier API
    # ------------------------------------------------------------------ #
    def push(self, item: Any) -> None:
        self.push_lane(self._push_cursor, item)
        self._push_cursor = (self._push_cursor + 1) % len(self.lanes)

    def pop(self) -> Optional[Any]:
        # The single owner is lane 0: it drains its own deque and steals
        # the rest, so round-robin pushes surface as counted steals — the
        # sequential emulation of one worker amid idle victims.
        item = self.pop_own(0)
        if item is not None:
            return item
        return self.steal(0)

    def __len__(self) -> int:
        return sum(len(lane) for lane in self.lanes)


def greedy_bound_key(item: Any) -> int:
    """Priority of a frontier item: ``|S|`` plus a greedy cover lower bound.

    Any cover of the remaining graph needs at least ``ceil(|E'| / Δ')``
    vertices (each can cover at most ``Δ'`` edges), so
    ``|S| + ceil(|E'| / Δ')`` lower-bounds every solution below the node —
    the same quantity the greedy heuristic's first step optimises.  Uses
    the carried stale-high ``max_deg_hint`` when present (a too-large
    ``Δ'`` only loosens the ordering, never correctness) and falls back to
    one degree scan.  Items may be bare states or ``(state, ...)`` tuples.
    """
    state = item[0] if isinstance(item, tuple) else item
    edges = state.edge_count
    if edges <= 0:
        return state.cover_size
    max_deg = state.max_deg_hint
    if max_deg <= 0:
        max_deg = int(state.deg.max())
        if max_deg <= 0:  # pragma: no cover - edge_count > 0 implies a degree
            max_deg = 1
    return state.cover_size + -(-edges // max_deg)


class BestFirstFrontier(Frontier):
    """Priority frontier ordered by :func:`greedy_bound_key` (new scenario).

    Expands the subproblem with the smallest optimistic bound first, which
    tends to drive the incumbent down early and prune the rest — a
    discipline none of the paper's engines use, enabled here by the
    frontier/step separation.  Ties break by insertion order, keeping the
    traversal deterministic.  When the traversal runs a non-default bound
    policy, :func:`make_frontier` keys the heap by that policy's
    ``|S| + lower_bound`` instead (see :mod:`repro.core.bounds`).
    """

    __slots__ = ("_heap", "_seq", "key")

    def __init__(self, key: Callable[[Any], int] = greedy_bound_key) -> None:
        self._heap: List[Tuple[int, int, Any]] = []
        self._seq = 0
        self.key = key

    def push(self, item: Any) -> None:
        heapq.heappush(self._heap, (self.key(item), self._seq, item))
        self._seq += 1

    def pop(self) -> Optional[Any]:
        if not self._heap:
            return None
        return heapq.heappop(self._heap)[2]

    def __len__(self) -> int:
        return len(self._heap)


#: Named frontier factories for the CLI and the sweep harnesses.
FRONTIERS: Dict[str, Callable[[], Frontier]] = {
    "lifo": LifoFrontier,
    "fifo": GlobalWorklistFrontier,
    "hybrid": HybridThresholdFrontier,
    "stealing": StealingDequeFrontier,
    "best-first": BestFirstFrontier,
}


def make_frontier(name: str, bound: Optional[Any] = None) -> Frontier:
    """Instantiate a registered frontier policy by name.

    ``bound`` is the traversal's active
    :class:`~repro.core.bounds.BoundPolicy`, if any: ``best-first``
    orders its heap by that policy's ``|S| + lower_bound`` key instead
    of the built-in greedy key, so a stronger bound sharpens both the
    pruning *and* the expansion order.  Ordering evaluations are a
    heuristic outside the charge meter, like the built-in greedy key
    (an expensive bound here buys order quality with unmetered work).
    The default (no bound, or the ``greedy`` policy) keeps
    :func:`greedy_bound_key` — the two compute the same quantity, so
    default traversals are unchanged.
    """
    try:
        factory = FRONTIERS[name]
    except KeyError:
        raise ValueError(
            f"unknown frontier {name!r}; choose from {sorted(FRONTIERS)}"
        ) from None
    if (
        name == "best-first"
        and bound is not None
        and getattr(bound, "name", "greedy") != "greedy"
    ):
        return BestFirstFrontier(key=bound.frontier_key)
    return factory()
