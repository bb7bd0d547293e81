"""Loading pickled bytes from outside the process: no globals.

Wire frames and checkpoint files hold builtin containers and scalars; a
stock ``pickle.loads`` calls any global a blob names before the caller
sees it.  Senders therefore ship builtin scalars only (not numpy's).
"""

from __future__ import annotations

import io
import pickle

__all__ = ["strict_loads"]


class _NoGlobals(pickle.Unpickler):
    def find_class(self, module: str, name: str):
        raise pickle.UnpicklingError(f"refusing pickle global {module}.{name}")


def strict_loads(blob: bytes) -> object:
    """Unpickle ``blob`` with no globals; any failure is a ``ValueError``."""
    try:
        return _NoGlobals(io.BytesIO(blob)).load()
    except Exception as exc:
        raise ValueError(f"undecodable pickle ({exc!r:.80})") from None
