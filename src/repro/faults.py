"""Fault-injection hook registry: controlled chaos for the solver stack.

The fault-tolerance layer (anytime outcomes, worker supervision, runner
quarantine) is only trustworthy if its failure paths actually run.  This
module provides the switchboard: a :class:`FaultPlan` maps *sites* —
named points the engines consult — to firing probabilities, and the
engines call :func:`fire` at those points.  With no plan installed the
module is inert: ``fire`` is never reached on the hot path because every
caller first checks :func:`step_guard_active` / :func:`active` once at
traversal setup, so the default solve pays nothing.

Sites
-----

``worker_kill``
    Raise :class:`WorkerKilled` (``distributed``/``cpu-process`` workers
    consult it before each chunk, and an armed plan makes every node a
    chunk).  A local worker is a thread of the coordinator's process: it
    dies by aborting its socket without a ``result`` frame.  A
    ``serve-worker`` host is a process: it dies by
    ``os._exit(KILL_EXIT_CODE)``.  Either way the coordinator must see
    the dead peer, re-enqueue its lease, and respawn.
``reduce_raise`` / ``branch_raise``
    Raise :class:`FaultInjected` at the reduction-cascade entry / the
    branch boundary of :class:`~repro.core.nodestep.NodeStep`.  Engines
    recover by re-enqueueing a pristine pre-step copy of the node.
``queue_delay``
    Sleep a few milliseconds around work-queue traffic (a socket
    worker's idle polls for a lease and its ``donate`` frames), widening
    coordination races.

Configuration
-------------

A spec is ``site:prob[:max_fires]`` items joined by commas, e.g.
``REPRO_FAULT="worker_kill:0.05:1,reduce_raise:0.02"``.  The environment
variable is read at import (so spawned ``serve-worker`` hosts get the plan);
``repro solve --inject SPEC`` and :func:`injected` install one
programmatically.  Firing is deterministic given the plan seed
(``REPRO_FAULT_SEED``) and each consumer's salt -- :func:`reseed` for a
whole process, :func:`worker_stream` for one thread -- so chaos tests
replay exactly.
"""

from __future__ import annotations

import os
import random
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Set

__all__ = [
    "FAULT_SITES",
    "FaultInjected",
    "WorkerKilled",
    "FaultRule",
    "FaultPlan",
    "parse_fault_spec",
    "plan_from_env",
    "install",
    "clear",
    "active",
    "current_plan",
    "step_guard_active",
    "reseed",
    "worker_stream",
    "fire",
    "injected",
]

#: Every site an engine may consult (a spec naming anything else fails).
FAULT_SITES = ("worker_kill", "reduce_raise", "branch_raise", "queue_delay")

#: Sites that surface as an exception inside the node step.
STEP_SITES = frozenset({"reduce_raise", "branch_raise"})

#: Sleep length of one ``queue_delay`` firing (seconds).
QUEUE_DELAY_S = 0.002

#: Exit code of a ``worker_kill`` firing (distinctive in supervisor logs).
KILL_EXIT_CODE = 86


class FaultInjected(RuntimeError):
    """An injected failure (never raised unless a plan is installed)."""


class WorkerKilled(BaseException):
    """A ``worker_kill`` firing: the calling worker dies here.

    A ``BaseException``, so no ``except Exception`` on the way up turns
    the kill into a recovery.
    """


class FaultRule:
    """One site's firing policy: probability plus an optional fire cap."""

    __slots__ = ("site", "probability", "max_fires", "fires", "_rng")

    def __init__(self, site: str, probability: float, max_fires: Optional[int] = None):
        if site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {site!r}; choose from {', '.join(FAULT_SITES)}"
            )
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"fault probability must lie in [0, 1], got {probability}")
        if max_fires is not None and max_fires < 1:
            raise ValueError("max_fires must be >= 1 when given")
        self.site = site
        self.probability = probability
        self.max_fires = max_fires
        self.fires = 0
        self._rng = random.Random()

    def seed(self, plan_seed: int, salt: int) -> None:
        """Deterministic per-(plan, site, consumer) stream; resets the cap."""
        self._rng.seed(f"{plan_seed}/{self.site}/{salt}")
        self.fires = 0

    def should_fire(self) -> bool:
        if self.max_fires is not None and self.fires >= self.max_fires:
            return False
        if self._rng.random() >= self.probability:
            return False
        self.fires += 1
        return True


class FaultPlan:
    """A set of site rules sharing one seed (the unit of installation)."""

    def __init__(self, rules: List[FaultRule], seed: int = 0):
        self.rules: Dict[str, FaultRule] = {}
        for rule in rules:
            if rule.site in self.rules:
                raise ValueError(f"duplicate fault site {rule.site!r} in plan")
            self.rules[rule.site] = rule
        self.seed = seed
        self.reseed(0)

    def reseed(self, salt: int) -> None:
        for rule in self.rules.values():
            rule.seed(self.seed, salt)

    def sites(self) -> Set[str]:
        return set(self.rules)

    def spec(self) -> str:
        """The round-trippable ``site:prob[:max]`` spec of this plan."""
        parts = []
        for rule in self.rules.values():
            item = f"{rule.site}:{rule.probability:g}"
            if rule.max_fires is not None:
                item += f":{rule.max_fires}"
            parts.append(item)
        return ",".join(parts)


def parse_fault_spec(spec: str, seed: int = 0) -> FaultPlan:
    """Parse ``site:prob[:max_fires],...`` into a :class:`FaultPlan`."""
    rules: List[FaultRule] = []
    for raw in spec.split(","):
        item = raw.strip()
        if not item:
            continue
        fields = item.split(":")
        if len(fields) not in (2, 3):
            raise ValueError(
                f"bad fault spec item {item!r}: expected site:prob[:max_fires]"
            )
        try:
            probability = float(fields[1])
        except ValueError:
            raise ValueError(f"bad fault probability in {item!r}") from None
        max_fires: Optional[int] = None
        if len(fields) == 3:
            try:
                max_fires = int(fields[2])
            except ValueError:
                raise ValueError(f"bad fault max_fires in {item!r}") from None
        rules.append(FaultRule(fields[0], probability, max_fires))
    if not rules:
        raise ValueError(f"fault spec {spec!r} names no sites")
    return FaultPlan(rules, seed=seed)


def plan_from_env(environ: Optional[Dict[str, str]] = None) -> Optional[FaultPlan]:
    """The plan described by ``REPRO_FAULT`` / ``REPRO_FAULT_SEED``, if any."""
    env = os.environ if environ is None else environ
    spec = env.get("REPRO_FAULT", "").strip()
    if not spec:
        return None
    seed = int(env.get("REPRO_FAULT_SEED", "0"))
    return parse_fault_spec(spec, seed=seed)


# --------------------------------------------------------------------- #
# module-level switchboard
# --------------------------------------------------------------------- #
_PLAN: Optional[FaultPlan] = plan_from_env()

#: Per-thread fault streams (see :func:`worker_stream`).
_LOCAL = threading.local()


def install(plan: Optional[FaultPlan]) -> None:
    """Install ``plan`` process-wide (``None`` clears)."""
    global _PLAN
    _PLAN = plan


def clear() -> None:
    install(None)


def active() -> bool:
    """True when any fault site is armed."""
    return _PLAN is not None


def current_plan() -> Optional[FaultPlan]:
    return _PLAN


def step_guard_active() -> bool:
    """True when engines must guard node steps with a pre-step backup copy.

    Consulted once per traversal/worker setup — never per node — so the
    clean path stays branch-free inside the step itself.
    """
    return _PLAN is not None and bool(STEP_SITES & _PLAN.sites())


def reseed(salt: int) -> None:
    """Re-derive the firing streams for one consumer (e.g. a worker id).

    Gives each ``serve-worker`` process an independent deterministic
    stream so a respawned worker does not deterministically die at the
    same node.  Threads sharing a process use :func:`worker_stream`.
    """
    if _PLAN is not None:
        _PLAN.reseed(salt)


@contextmanager
def worker_stream(salt: int) -> Iterator[None]:
    """Scoped per-thread stream: inside, :func:`fire` on this thread draws
    from a private copy of the installed plan reseeded with ``salt``.

    The installed plan and every other thread's draws are untouched, so
    worker threads of one process (and a respawned worker with a fresh
    salt) never replay or perturb each other's streams.  Without an
    installed plan it changes nothing.
    """
    plan = _PLAN
    if plan is None:
        yield
        return
    _LOCAL.plan = parse_fault_spec(plan.spec(), seed=plan.seed)
    _LOCAL.plan.reseed(salt)
    try:
        yield
    finally:
        _LOCAL.plan = None


def fire(site: str) -> None:
    """Consult ``site``; act if its rule fires.  No-op without a plan."""
    plan = getattr(_LOCAL, "plan", None) or _PLAN
    if plan is None:
        return
    rule = plan.rules.get(site)
    if rule is None or not rule.should_fire():
        return
    if site == "worker_kill":
        raise WorkerKilled(site)
    if site == "queue_delay":
        time.sleep(QUEUE_DELAY_S)
        return
    raise FaultInjected(site)


@contextmanager
def injected(spec: str, seed: int = 0) -> Iterator[FaultPlan]:
    """Scoped installation: ``with faults.injected("reduce_raise:0.1"): ...``"""
    previous = _PLAN
    plan = parse_fault_spec(spec, seed=seed)
    install(plan)
    try:
        yield plan
    finally:
        install(previous)
