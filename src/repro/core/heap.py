"""Keeping a run's settled heap out of the cyclic collector's full passes.

Everything a run builds and keeps — deployed terms, hash-consed spines,
index rows, codec tables — is acyclic and never mutated after it is
made (provenance only grows by prefixing new nodes).  The cyclic
collector can find no garbage in it, yet every full pass walks all of
it.  :func:`settled_heap` moves the objects alive at entry into the
permanent generation (``gc.freeze()``) and returns them at exit
(``gc.unfreeze()``); objects born inside the scope are collected as
usual.  Freezing is only safe because the runtime makes no reference
cycles: garbage frozen here would live until the scope ends.

The scope is reentrant (only the outermost entry and exit act) and does
nothing when the collector is disabled or when the host process has
already frozen objects of its own.  A forked worker inherits the
depth counter, so the scope is a no-op there: workers that live for
one run call :func:`freeze_for_process` after deploying instead.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from typing import Iterator

__all__ = ["freeze_for_process", "settled_heap"]

_lock = threading.Lock()
_depth = 0
_froze = False


@contextmanager
def settled_heap() -> Iterator[None]:
    """Freeze the current heap for the duration of the ``with`` body."""

    global _depth, _froze
    with _lock:
        if _depth == 0:
            _froze = gc.isenabled() and gc.get_freeze_count() == 0
            if _froze:
                gc.freeze()
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0 and _froze:
                _froze = False
                gc.unfreeze()


def freeze_for_process() -> None:
    """Freeze the current heap until the process exits (worker processes)."""

    if gc.isenabled():
        gc.freeze()
