"""Brute-force answers for sampled queries, from the ingested prefix.

The oracle sees every generated record with its position in ingest order.
A query that ran after ``prefix`` records had been ingested is answered
from records ``[0, prefix)`` alone, so it covers memory and disk alike.
Ranking is the configured ranking function; a record's sort key is
``(score, timestamp, blog_id)``, best first, as the store defines it.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import nlargest

__all__ = ["Oracle"]


class Oracle:
    """Per-key posting positions over one run's generated records."""

    def __init__(self, records, ranking) -> None:
        self._records = records
        self._sort_keys = [
            (ranking.score(r), r.timestamp, r.blog_id) for r in records
        ]
        self._position = {r.blog_id: i for i, r in enumerate(records)}
        positions: dict = {}
        for i, record in enumerate(records):
            for key in record.keywords:
                positions.setdefault(key, []).append(i)
        self._positions = positions
        sort_keys = self._sort_keys
        #: Keys whose sort keys rise with ingest order (always, under the
        #: temporal ranking): their top-k is the tail of the prefix.
        self._monotone = {
            key: all(sort_keys[a] < sort_keys[b] for a, b in zip(pos, pos[1:]))
            for key, pos in positions.items()
        }

    def _ranked(self, key, prefix):
        """Positions of ``key`` within the prefix, best first (lazy)."""
        pos = self._positions.get(key, ())
        end = bisect_left(pos, prefix)
        if self._monotone.get(key, True):
            return (pos[i] for i in range(end - 1, -1, -1))
        sort_keys = self._sort_keys
        return iter(sorted(pos[:end], key=sort_keys.__getitem__, reverse=True))

    def top_single(self, key, k, prefix):
        ranked = self._ranked(key, prefix)
        return [p for _, p in zip(range(k), ranked)]

    def top_or(self, keys, k, prefix):
        candidates = set()
        for key in keys:
            candidates.update(self.top_single(key, k, prefix))
        return nlargest(k, candidates, key=self._sort_keys.__getitem__)

    def top_and(self, keys, k, prefix):
        rarest = min(keys, key=lambda key: len(self._positions.get(key, ())))
        others = [key for key in keys if key != rarest]
        out = []
        for p in self._ranked(rarest, prefix):
            keywords = self._records[p].keywords
            if all(key in keywords for key in others):
                out.append(p)
                if len(out) == k:
                    break
        return out

    def check(self, query, prefix, blog_ids, exact) -> bool:
        """Whether an answer is right: equal to the oracle's top-k when
        flagged provably exact, else made only of distinct, ranked,
        already-ingested records that match every queried key."""
        mode = query.mode.value
        if exact:
            if mode == "single":
                expected = self.top_single(query.keys[0], query.k, prefix)
            elif mode == "or":
                expected = self.top_or(query.keys, query.k, prefix)
            else:
                expected = self.top_and(query.keys, query.k, prefix)
            return list(blog_ids) == [self._records[p].blog_id for p in expected]
        if len(blog_ids) > query.k or len(set(blog_ids)) != len(blog_ids):
            return False
        positions = [self._position.get(b) for b in blog_ids]
        if any(p is None or p >= prefix for p in positions):
            return False
        sort_keys = [self._sort_keys[p] for p in positions]
        if sort_keys != sorted(sort_keys, reverse=True):
            return False
        match = all if mode == "and" else any
        return all(
            match(key in self._records[p].keywords for key in query.keys)
            for p in positions
        )
