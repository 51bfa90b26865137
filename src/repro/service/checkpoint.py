"""Content-addressed fleet checkpoints on the ``repro.engine`` store.

A checkpoint is a flattened :class:`~repro.fleet.engine.FleetState`
(server mode arrays, monitor counters, window cursor, and the timeline's
completed rows) written to the :class:`~repro.engine.store.ResultStore`
under a key derived from the service *identity* (workload profile,
performance payload, fleet config, feed, tail evaluator) plus the window
cursor and a digest of the state itself.

Because every random stream in the fleet engine is a pure function of
``(seed, label, window)`` — there is no carried RNG cursor — the state
arrays alone are the complete checkpoint: a service resumed from one is
bit-identical to an uninterrupted run (``tests/test_service.py``
enforces this).
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.engine.store import CACHE_VERSION, ResultStore, default_store
from repro.fleet.engine import FleetState

__all__ = ["CHECKPOINT_VERSION", "checkpoint_key", "load_checkpoint", "save_checkpoint"]

#: Bump to invalidate stored checkpoints after a FleetState layout change.
CHECKPOINT_VERSION = 1


def _key(identity: str, window: int, flat: np.ndarray) -> str:
    """Key for a state flattened to ``flat`` (the float64 payload)."""
    payload = repr((
        CACHE_VERSION,
        CHECKPOINT_VERSION,
        "fleet-checkpoint",
        identity,
        int(window),
        hashlib.sha256(flat.tobytes()).hexdigest(),
    ))
    return hashlib.sha256(payload.encode()).hexdigest()


def checkpoint_key(identity: str, state: FleetState) -> str:
    """Deterministic key for ``state`` snapshotted under ``identity``."""
    return _key(identity, state.window, state.to_array())


def save_checkpoint(
    store: ResultStore | None, identity: str, state: FleetState
) -> str:
    """Persist ``state`` and return its content-addressed key.

    The state is flattened once; the same array is hashed for the key and
    handed to the store.  Once the entry is confirmed on disk it is
    dropped from the store's memory layer, so a long-running service does
    not pin every checkpoint it ever wrote; a memory-only store (or a
    failed disk write) keeps it in memory, where it is the only copy.
    """
    store = store if store is not None else default_store()
    flat = state.to_array()
    key = _key(identity, state.window, flat)
    if store.put(key, flat.tolist()):
        store.clear_memory(key)
    return key


def load_checkpoint(store: ResultStore | None, key: str) -> FleetState:
    """Rehydrate a checkpointed :class:`FleetState` by key."""
    store = store if store is not None else default_store()
    values = store.get(key)
    if values is None:
        raise KeyError(f"no checkpoint stored under key {key!r}")
    return FleetState.from_values(values)
