"""Query executor: memory-first top-k evaluation with disk fallback.

The executor implements the paper's query engine (Figure 2): try to answer
a top-k query entirely from in-memory contents; when that is impossible,
pay the disk visit and merge both tiers into an exact answer.

**Hit semantics.**  For single-key and OR queries a memory hit requires a
*provably complete* in-memory top-k: each queried key must hold k postings
all ranked above that key's completeness floor (for OR, the top-k of the
union is always drawn from the per-key top-k lists, so per-key proof
suffices).  For AND queries we follow the paper's operational definition —
the in-memory intersection contains at least k records (Section IV-D) —
because an AND answer can legitimately be assembled from postings below
individual floors that the MK rules deliberately retained; the result
additionally reports whether the answer is provably exact.  Setting
``strict_and=True`` upgrades AND hits to the provable criterion.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional, Sequence

from repro.core.eviction_ledger import CAUSE_NEVER_RESIDENT
from repro.core.policy import MemoryEngine
from repro.engine.latency import QueryCostModel
from repro.engine.queries import CombineMode, TopKQuery
from repro.model.microblog import Microblog
from repro.obs import Instrumentation, NullSink
from repro.storage.disk import DiskArchive
from repro.storage.posting_list import Posting
from repro.storage.topk import merge_topk

__all__ = ["QueryExecutor", "QueryResult"]

#: Blog id of a posting (its third field), for C-level id extraction.
_blog_id = itemgetter(2)


@dataclass(frozen=True)
class QueryResult:
    """Outcome of one top-k query."""

    query: TopKQuery
    #: Answer postings, best rank first, at most ``query.k`` of them.
    postings: tuple[Posting, ...]
    #: True when the full answer was served from memory.
    memory_hit: bool
    #: True when the answer is provably the true top-k.  Always true for
    #: misses (disk merge is exact) and for single/OR hits; AND hits under
    #: the operational criterion may be inexact (see module docstring).
    provably_exact: bool
    #: Number of disk index lookups this query paid.
    disk_lookups: int
    executed_at: float
    #: Modelled end-to-end latency: in-memory evaluation cost plus any
    #: simulated disk I/O this query triggered (see repro.engine.latency).
    simulated_latency: float = 0.0

    @property
    def blog_ids(self) -> tuple[int, ...]:
        return tuple(map(_blog_id, self.postings))


#: Backwards-compatible alias: the merge now lives in
#: :mod:`repro.storage.topk` so the executor and the segmented index
#: share one implementation.
_merge_topk = merge_topk


class QueryExecutor:
    """Evaluates :class:`TopKQuery` objects against memory then disk."""

    def __init__(
        self,
        engine: MemoryEngine,
        disk: DiskArchive,
        strict_and: bool = False,
        and_scan_depth: Optional[int] = None,
        and_disk_limit: Optional[int] = None,
        cost_model: Optional[QueryCostModel] = None,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        self._engine = engine
        self._disk = disk
        self._strict_and = strict_and
        self._cost = cost_model or QueryCostModel()
        self._obs = obs if obs is not None else Instrumentation()
        #: Cap on how deep AND evaluation scans each key's in-memory and
        #: disk posting lists.  None = unbounded (exact).  Experiment
        #: harnesses set these to bound the cost of hot-key intersections,
        #: as a production system would; intersections that would only
        #: complete deeper than the cap degrade to misses / inexact
        #: answers and are flagged as such.
        self._and_scan_depth = and_scan_depth
        self._and_disk_limit = and_disk_limit
        #: Eviction-cause miss attribution (PR 5): cached so the hot
        #: path pays one boolean test when the switch is off.
        self._attribution = self._obs.attribution
        #: Adaptive feedback hook (PR 9): engines that track per-key
        #: heat expose ``observe_query_feedback``; bound once here so
        #: the default path pays a single None test per query.
        self._feedback = (
            engine.observe_query_feedback
            if getattr(engine, "wants_query_feedback", False)
            else None
        )
        #: Wall seconds spent in policy bookkeeping triggered by queries
        #: (LRU recency touches, kFlushing last-query stamps).  In a real
        #: deployment this work contends with the digestion thread, which
        #: is what limits LRU's rate in Figure 10(b).
        self.bookkeeping_seconds = 0.0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def execute(self, query: TopKQuery, now: float) -> QueryResult:
        """Evaluate ``query`` at time ``now`` and return its result.

        With tracing on, the whole evaluation becomes a ``query`` trace:
        disk lookups emit child spans, and the
        root event carries the outcome (hit, disk lookups, miss cause).
        """
        obs = self._obs
        if not obs.tracing:
            return self._execute(query, now)
        with obs.trace(
            "query", mode=query.mode.value, keys=len(query.keys), k=query.k
        ) as trace_ctx:
            result = self._execute(query, now)
            trace_ctx.fields["hit"] = result.memory_hit
            trace_ctx.fields["disk_lookups"] = result.disk_lookups
            trace_ctx.fields["at"] = now
            return result

    def _execute(self, query: TopKQuery, now: float) -> QueryResult:
        io_before = self._disk.stats.simulated_io_seconds
        if query.mode is CombineMode.SINGLE:
            answer = self._single(query)
        elif query.mode is CombineMode.OR:
            answer = self._or(query)
        else:
            answer = self._and(query)
        io_delta = self._disk.stats.simulated_io_seconds - io_before
        latency = self._cost.memory_cost(len(query.keys)) + io_delta
        result = QueryResult(query, *answer, now, latency)
        # Policy feedback: kFlushing stamps per-entry last-query times,
        # LRU moves the accessed records to the recency head.
        start = time.perf_counter()
        self._engine.note_query(query.keys, result.blog_ids, now)
        self.bookkeeping_seconds += time.perf_counter() - start
        self._observe(query, result)
        return result

    def _observe(self, query: TopKQuery, result: QueryResult) -> None:
        """Per-mode hit/miss/disk-lookup counters, plus one query event
        when a trace is open or the sink keeps events."""
        mode = query.mode.value
        registry = self._obs.registry
        registry.counter(f"query.{mode}.{'hits' if result.memory_hit else 'misses'}").inc()
        if result.disk_lookups:
            registry.counter("query.disk_lookups").inc(result.disk_lookups)
            registry.counter(f"query.{mode}.disk_lookups").inc(result.disk_lookups)
        registry.histogram("query.simulated_latency_seconds").record(
            result.simulated_latency
        )
        extra: dict = {}
        feedback = self._feedback
        cause: Optional[str] = None
        if not result.memory_hit and (self._attribution or feedback is not None):
            # The adaptive controller consumes miss causes even when the
            # attribution counters themselves are off.
            cause = self._miss_cause(query)
            if self._attribution:
                registry.counter(f"query.miss.cause.{cause}").inc()
                registry.counter(f"query.{mode}.miss.cause.{cause}").inc()
                extra["miss_cause"] = cause
        if feedback is not None:
            feedback(query.keys, result.memory_hit, cause)
        trace_ctx = self._obs.current_trace
        if trace_ctx is not None:
            extra["trace"] = trace_ctx.trace_id
            if "miss_cause" in extra:
                trace_ctx.fields["miss_cause"] = extra["miss_cause"]
        elif isinstance(self._obs.sink, NullSink):
            return
        self._obs.event(
            "query",
            mode=mode,
            keys=len(query.keys),
            k=query.k,
            hit=result.memory_hit,
            exact=result.provably_exact,
            disk_lookups=result.disk_lookups,
            scan_depth=self._and_scan_depth if query.mode is CombineMode.AND else None,
            answered=len(result.postings),
            at=result.executed_at,
            simulated_latency=result.simulated_latency,
            **extra,
        )

    def _miss_cause(self, query: TopKQuery) -> str:
        """Which eviction decision explains this memory miss.

        The most recently recorded eviction across the queried keys wins
        (strict ``>`` on logical time keeps ties deterministic at the
        first queried key); keys with no ledger entry were never evicted
        — if none has one, the data was simply never memory-complete.
        """
        best = None
        for key in query.keys:
            record = self._engine.eviction_cause(key)
            if record is not None and (best is None or record.at > best.at):
                best = record
        return best.cause if best is not None else CAUSE_NEVER_RESIDENT

    def materialize(self, result: QueryResult) -> list[Microblog]:
        """Fetch the record bodies of a result (memory first, then disk)."""
        records: list[Microblog] = []
        for posting in result.postings:
            record = self._engine.get_record(posting.blog_id)
            if record is None:
                record = self._disk.fetch_record(posting.blog_id)
            if record is not None:
                records.append(record)
        return records

    # ------------------------------------------------------------------
    # Mode helpers: each returns ``(postings, memory_hit, provably_exact,
    # disk_lookups)``, the answer part of a QueryResult.
    # ------------------------------------------------------------------

    def _single(self, query: TopKQuery) -> tuple:
        key = query.keys[0]
        lookup = self._engine.lookup(key, depth=query.k)
        top = lookup.provable_top(query.k)
        if top is not None:
            return top, True, True, 0
        # Memory miss: the true top-k is contained in the union of the
        # memory top-k candidates and the disk's per-key top-k.  A disk
        # that provably holds nothing for the key contributes nothing to
        # that union, so the lookup (and its seek) can be elided.
        if self._disk.elides(key):
            merged = _merge_topk([lookup.candidates], query.k)
            return tuple(merged), False, True, 0
        disk_top = self._disk.lookup(key, limit=query.k)
        merged = _merge_topk([lookup.candidates, disk_top], query.k)
        return tuple(merged), False, True, 1

    def _or(self, query: TopKQuery) -> tuple:
        lookups = [self._engine.lookup(key, depth=query.k) for key in query.keys]
        tops = [lookup.provable_top(query.k) for lookup in lookups]
        if all(top is not None for top in tops):
            return tuple(_merge_topk(tops, query.k)), True, True, 0
        groups: list[Sequence[Posting]] = []
        disk_lookups = 0
        for lookup, top in zip(lookups, tops):
            if top is not None:
                # This key's in-memory top-k is provably complete: the
                # union's top-k can only draw from it, so disk adds nothing.
                groups.append(top)
                continue
            groups.append(lookup.candidates)
            if self._disk.elides(lookup.key):
                continue
            groups.append(self._disk.lookup(lookup.key, limit=query.k))
            disk_lookups += 1
        return tuple(_merge_topk(groups, query.k)), False, True, disk_lookups

    def _and(self, query: TopKQuery) -> tuple:
        k = query.k
        depth = self._and_scan_depth
        lookups = [self._engine.lookup(key, depth=depth) for key in query.keys]
        # Intersect in-memory candidate ids (unique per key, so memory holds
        # k intersecting records iff ``common`` has k ids).  A Posting's
        # tuple order is its sort key, so postings compare directly.
        id_sets = [set(map(_blog_id, lookup.candidates)) for lookup in lookups]
        common = set.intersection(*id_sets)
        if len(common) >= k:
            # Best-first, the postings above every floor form a prefix, so
            # the k-th decides; they are the provable top-k unless the scan
            # was depth-capped and items below the cap went unseen.
            top = [p for p in lookups[0].candidates if p.blog_id in common][:k]
            if top[-1] > max(lookup.floor for lookup in lookups):
                return tuple(top), True, depth is None, 0
            if not self._strict_and:
                # The paper's operational AND hit: k intersecting records
                # found in memory (Section IV-D), possibly below floors.
                return tuple(top), True, False, 0
        # Miss: intersect each key's memory ∪ disk ids and take the top-k,
        # exact when no scan limits are configured.  Every key's disk is
        # read even once the intersection is empty, so disk accounting
        # does not depend on the answer.
        limit = self._and_disk_limit
        disk_lookups = 0
        truncated = False
        on_disk: list[Sequence[Posting]] = []
        for lookup in lookups:
            if self._disk.elides(lookup.key):
                on_disk.append(())
                continue
            postings = self._disk.lookup(lookup.key, limit=limit)
            disk_lookups += 1
            if limit is not None and len(postings) >= limit:
                truncated = True
            on_disk.append(postings)
        exact = not truncated and depth is None
        common = id_sets[0].union(map(_blog_id, on_disk[0]))
        for ids, postings in zip(id_sets[1:], on_disk[1:]):
            if not common:
                break
            common = (common & ids).union(common.intersection(map(_blog_id, postings)))
        if not common:
            return (), False, exact, disk_lookups
        # Resolve the surviving ids from the first key, memory first.
        answer = [p for p in lookups[0].candidates if p.blog_id in common]
        on_disk_only = common - id_sets[0]
        if on_disk_only:
            answer += [p for p in on_disk[0] if p.blog_id in on_disk_only]
        answer.sort(reverse=True)
        return tuple(answer[:k]), False, exact, disk_lookups
