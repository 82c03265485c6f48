"""One per-layer memo for everything derived from a traced layer.

A :class:`~repro.nn.trace.ConvLayerTrace` is immutable once traced, so any
pure function of it — a padded imap, a Booth term map, a cycle record for
one accelerator configuration, the value range of its imap — needs to be
computed at most once for as long as the layer lives.  Sweeps evaluate the
same traces for every (accelerator, scheme, memory) cell, so without this
memo most of a sweep recomputes work whose result is already known.

Entries are keyed by layer *identity* (``id``) plus a caller-chosen tuple
whose first element names the kind of artifact (``"raw"``, ``"cycles"``,
``"range"``, ...).  A weakref finalizer evicts a layer's entries when the
layer is garbage collected, so the memo never extends an array's lifetime
and never leaks across unrelated layers that happen to compare equal.
Memoized arrays are marked read-only — callers share them.
:func:`memo_stats` counts computes and reuses per kind;
``repro.cache.clear_memory_caches()`` drops every entry.

The module sits in :mod:`repro.nn` so both :mod:`repro.arch` and
:mod:`repro.compression` can use it without importing each other.
"""

from __future__ import annotations

import weakref
from collections import defaultdict
from typing import Callable, TypeVar

import numpy as np

from repro.cache import store as cache_store

__all__ = ["memoized", "memo_stats", "reset_memo_stats", "clear_memos"]

T = TypeVar("T")

#: id(layer) -> {memo key: artifact}; entries die with their layer.
_MEMOS: dict[int, dict[tuple, object]] = {}

#: kind (the memo key's first element) -> [computed, reused].
_STATS: defaultdict[str, list[int]] = defaultdict(lambda: [0, 0])


def _memo_for(layer: object) -> dict[tuple, object]:
    key = id(layer)
    memo = _MEMOS.get(key)
    if memo is None:
        memo = _MEMOS[key] = {}
        weakref.finalize(layer, _MEMOS.pop, key, None)
    return memo


def memoized(layer: object, key: tuple, compute: Callable[[], T]) -> T:
    """``compute()``, memoized on ``(layer, key)`` for the layer's lifetime.

    ``key[0]`` names the artifact kind :func:`memo_stats` counts under.
    """
    memo = _memo_for(layer)
    value = memo.get(key)
    stats = _STATS[key[0]]
    if value is None:
        value = compute()
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        memo[key] = value
        stats[0] += 1
    else:
        stats[1] += 1
    return value


def memo_stats() -> dict[str, dict[str, int]]:
    """Computes vs reuses per artifact kind since the last reset."""
    return {
        kind: {"computed": computed, "reused": reused}
        for kind, (computed, reused) in sorted(_STATS.items())
    }


def reset_memo_stats() -> None:
    """Zero the per-kind counters (tests, repeated measurements)."""
    _STATS.clear()


def clear_memos() -> None:
    """Drop every memoized artifact (the artifacts, not the layers)."""
    _MEMOS.clear()


cache_store.register_memory_cache(clear_memos)
