"""Zero-copy shared-memory graph plane.

The paper keeps one immutable CSR copy of the input graph that every
thread block reads (Section IV-B).  The process engines need the same
thing across OS processes: :class:`GraphPlane` publishes the CSR arrays
(``indptr``/``indices``) plus the root degree vector once into a POSIX
shared-memory segment, and workers *attach* by name — mapping the same
physical pages instead of re-pickling and re-validating the graph per
spawn.  The root degree vector doubles as the delta base of codec v2,
the one state codec (:func:`repro.graph.degree_array.state_codec`):
every worker that attaches the plane decodes sparse ``(idx, val)``
frames against it, as a resume decodes a checkpoint's frames against
the graph's own degrees.

Lifecycle
---------
Exactly one process — the supervisor — ``publish()``-es and later
``close(unlink=True)``-s the segment; workers ``attach()`` and only ever
``close()`` (never unlink).  On Python < 3.13 attaching registers the
segment with the per-process ``resource_tracker``, which would unlink it
a second time at interpreter shutdown (bpo-38119); ``attach`` therefore
immediately unregisters the name again.  Platforms without
``multiprocessing.shared_memory`` (or with ``/dev/shm`` unavailable)
degrade gracefully: ``publish`` returns ``None`` and callers fall back
to shipping the CSR arrays inline.
"""

from __future__ import annotations

import struct
from typing import Optional

import numpy as np

from .csr import CSRGraph

__all__ = ["GraphPlane", "publish_plane"]

#: Segment header: magic, n, len(indices), reserved — all little-endian i64.
_HEADER = struct.Struct("<4q")
_MAGIC = 0x31504356  # "VCP1"


def _attach_untracked(name: str):
    """Open an existing segment without resource_tracker registration.

    On Python < 3.13 *attaching* a segment registers it with the
    per-process resource tracker exactly like creating one, so the
    tracker unlinks it a second time at shutdown and complains about the
    leak (bpo-38119; ``track=False`` only lands in 3.13).  Registration
    is a process-local function call, so swapping it out for the duration
    of the attach suppresses the message at the source.
    """
    from multiprocessing import resource_tracker, shared_memory

    orig = resource_tracker.register

    def register(rname, rtype):  # pragma: no cover - trivial shim
        if rtype != "shared_memory":
            orig(rname, rtype)

    resource_tracker.register = register
    try:
        shm = shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = orig
    # Attach-side views (the zero-copy graph arrays) legitimately live
    # until process exit; a destructor-time close() would raise
    # BufferError at interpreter shutdown.  The OS reclaims the mapping
    # with the process, so the destructor can safely do nothing.
    shm.__class__ = _attached_cls()
    return shm


class GraphPlane:
    """One published (or attached) shared-memory CSR graph segment.

    Layout: 32-byte header, then ``indptr`` (``int64[n + 1]``),
    ``indices`` (``int32[len]``, padded to 8-byte alignment), then the
    root degree vector (``int32[n]``).  All views handed out are
    read-only and alias the mapped segment — dropping the plane's
    references (``close``) is required before the map can go away.
    """

    def __init__(self, shm, n: int, nidx: int, *, owner: bool):
        self._shm = shm
        self._owner = owner
        self.n = n
        self._nidx = nidx
        buf = shm.buf
        off = _HEADER.size
        self.indptr = np.frombuffer(buf, dtype=np.int64, count=n + 1, offset=off)
        off += (n + 1) * 8
        self.indices = np.frombuffer(buf, dtype=np.int32, count=nidx, offset=off)
        off += _pad8(nidx * 4)
        self.root_deg = np.frombuffer(buf, dtype=np.int32, count=n, offset=off)
        for arr in (self.indptr, self.indices, self.root_deg):
            arr.setflags(write=False)
        self._graph: Optional[CSRGraph] = None

    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """OS-global segment name workers attach by."""
        return self._shm.name

    @classmethod
    def publish(cls, graph: CSRGraph) -> "GraphPlane":
        """Copy ``graph``'s CSR arrays into a fresh shared segment."""
        from multiprocessing import shared_memory

        n, nidx = graph.n, int(graph.indices.size)
        size = _HEADER.size + (n + 1) * 8 + _pad8(nidx * 4) + _pad8(n * 4)
        shm = shared_memory.SharedMemory(create=True, size=max(size, 1))
        shm.buf[: _HEADER.size] = _HEADER.pack(_MAGIC, n, nidx, 0)
        plane = cls(shm, n, nidx, owner=True)
        with _writable(plane.indptr):
            plane.indptr[:] = graph.indptr
        with _writable(plane.indices):
            plane.indices[:] = graph.indices
        with _writable(plane.root_deg):
            plane.root_deg[:] = graph.degrees
        return plane

    @classmethod
    def attach(cls, name: str) -> "GraphPlane":
        """Map an already-published segment by name (zero-copy)."""
        shm = _attach_untracked(name)
        magic, n, nidx, _ = _HEADER.unpack_from(shm.buf, 0)
        if magic != _MAGIC:
            shm.close()
            raise ValueError(f"shared segment {name!r} is not a graph plane")
        return cls(shm, int(n), int(nidx), owner=False)

    def graph(self) -> CSRGraph:
        """The CSR graph backed directly by the mapped segment."""
        if self._graph is None:
            self._graph = CSRGraph(self.indptr, self.indices, validate=False)
        return self._graph

    def close(self) -> None:
        """Drop the mapping; the owner also unlinks the segment."""
        if self._shm is None:
            return
        self._graph = None
        self.indptr = self.indices = self.root_deg = None  # release views
        shm, self._shm = self._shm, None
        if self._owner:
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        try:
            shm.close()
        except BufferError:  # pragma: no cover - leaked external view
            pass


def publish_plane(graph: CSRGraph) -> Optional[GraphPlane]:
    """Best-effort :meth:`GraphPlane.publish`; ``None`` when unavailable."""
    try:
        return GraphPlane.publish(graph)
    except Exception:  # pragma: no cover - no /dev/shm, exotic platforms
        return None


def _pad8(nbytes: int) -> int:
    return (nbytes + 7) & ~7


_ATTACHED_CLS = None


def _attached_cls():
    """Lazily built attach-side SharedMemory subclass (import stays light)."""
    global _ATTACHED_CLS
    if _ATTACHED_CLS is None:
        from multiprocessing import shared_memory

        class _AttachedSharedMemory(shared_memory.SharedMemory):
            """Attach-side handle: no destructor cleanup (see _attach_untracked)."""

            def __del__(self) -> None:  # pragma: no cover - shutdown path
                pass

        _ATTACHED_CLS = _AttachedSharedMemory
    return _ATTACHED_CLS


class _writable:
    """Temporarily lift the read-only flag while the owner fills a view."""

    def __init__(self, arr: np.ndarray):
        self.arr = arr

    def __enter__(self) -> np.ndarray:
        self.arr.setflags(write=True)
        return self.arr

    def __exit__(self, *exc) -> None:
        self.arr.setflags(write=False)
