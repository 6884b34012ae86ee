"""The ``(query, root)`` embedding-result cache and its invalidation rule.

Serving traffic is skewed — the same roots get asked about again and again
(the traffic driver's Zipf mode models exactly that) — so serving caches
the full per-root result of a query.  Streaming makes caching dangerous:
a newly arrived edge can create embeddings that a cached entry predates.
The invalidation rule is *sound* and derives from the query shape:

    An embedding of query ``q`` rooted at ``r`` that uses a new edge
    ``{u, v}`` connects ``r`` to ``u`` (and ``v``) through at most
    ``|Eq|`` data edges — so only roots within distance ``|Eq|`` of a new
    edge's endpoints (in the *updated* visible subgraph) can gain results.

Each shard server keeps one cache for the roots it owns and runs that
bounded multi-source BFS over its adjacency each ingest round
(:meth:`ShardStores.bfs_forward <repro.serving.stores.ShardStores.bfs_forward>`,
forwarding the wave to other shards across border edges); it invalidates
every cached ``(q, r)`` whose root falls inside query ``q``'s radius.  The
in-process engine is one such shard.  Edges only ever arrive (the
streaming model has no deletions), so cached results can become stale
only by *missing* embeddings — staleness by deletion cannot happen, and
entries outside the radius stay exact.

What the cache does **not** promise: entries are whole per-root results
(hit or recompute — no partial reuse), and it knows nothing about plan
changes — the server drops a query's entries itself when graph growth
shifts the query's compiled root slot.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Optional, Tuple

CacheKey = Tuple[str, int]
"""``(query name, root vertex id)``."""


class ResultCache:
    """An unbounded map from :data:`CacheKey` to a per-root result.

    Entries leave only by invalidation: a shard holds at most one result
    per ``(query, owned root)``.
    """

    __slots__ = ("_entries", "hits", "misses", "invalidations")

    def __init__(self) -> None:
        self._entries: Dict[CacheKey, object] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    # -- the read/write path ----------------------------------------------
    def get(self, key: CacheKey) -> Optional[object]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def put(self, key: CacheKey, value: object) -> None:
        self._entries[key] = value

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    # -- invalidation ------------------------------------------------------
    def invalidate_roots(self, query: str, roots: Iterable[int]) -> int:
        """Drop the entries of ``query`` for exactly ``roots``; returns how
        many entries were actually evicted."""
        dropped = 0
        for root in roots:
            if self._entries.pop((query, root), None) is not None:
                dropped += 1
        self.invalidations += dropped
        return dropped

    def drop_query(self, query: str) -> int:
        """Drop every entry of ``query`` (used when its plan recompiles)."""
        stale = [key for key in self._entries if key[0] == query]
        for key in stale:
            del self._entries[key]
        self.invalidations += len(stale)
        return len(stale)

    def clear(self) -> None:
        self.invalidations += len(self._entries)
        self._entries.clear()

    # -- reporting ---------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, Hashable]:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "hit_rate": round(self.hit_rate, 4),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ResultCache entries={len(self._entries)} hits={self.hits} "
            f"misses={self.misses} invalidations={self.invalidations}>"
        )

