"""Pickle support for lock-guarded serving-stack state.

Several serving classes guard mutable state with a ``threading`` lock
-- and locks do not pickle.  :class:`LocklessPickle` implements the one
policy they all share: snapshot the attribute dict under the lock, drop
the lock from the pickled payload, and rebuild a fresh lock on load.
The unpickled copy is fully functional and independently synchronised,
which is exactly what :class:`~repro.crawl.executors.ProcessExecutor`
needs when it ships sources into pool workers.

Independence is also the limitation: a copied limit admits on its own.
When admission must stay exact across the whole pool -- whenever the
sources carry limits -- the executor swaps these per-copy paths for the
shared-state counterparts in :mod:`repro.crawl.coordinator`
(:class:`~repro.crawl.coordinator.SharedLimitClient` and friends),
which proxy to one authoritative object instead of copying it.

The lock is held only for the shallow attribute-dict copy; nested
containers (a client's response cache, a stats object's phase table)
are serialised after it is released.  Pickle a quiesced object --
before the crawl starts, or between crawls -- as the executors do; a
source being mutated concurrently is not a supported pickling target.

Subclasses customise three knobs: the lock's attribute name
(:attr:`_pickle_lock_attr`), the lock constructor (:meth:`_pickle_lock`,
e.g. for an :class:`threading.RLock`), and a state-trimming hook
(:meth:`_pickle_trim`, e.g. to drop unpicklable listener closures).
"""

from __future__ import annotations

import threading

__all__ = ["LocklessPickle"]


class LocklessPickle:
    """Mixin: pickle everything but the lock; rebuild it on load."""

    #: Name of the instance attribute holding the lock.
    _pickle_lock_attr = "_lock"

    def _pickle_lock(self):
        """Build the replacement lock for an unpickled instance."""
        return threading.Lock()

    def _pickle_trim(self, state: dict) -> dict:
        """Hook: drop or rewrite state entries that must not travel."""
        return state

    def __getstate__(self) -> dict:
        with getattr(self, self._pickle_lock_attr):
            state = self.__dict__.copy()
        del state[self._pickle_lock_attr]
        return self._pickle_trim(state)

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        setattr(self, self._pickle_lock_attr, self._pickle_lock())
