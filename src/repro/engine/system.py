"""The system facade: ingestion, flushing, and query serving in one object.

:class:`MicroblogSystem` wires a configured memory engine (policy + store
layout), the simulated disk archive, the query executor, and the metrics
together, reproducing the environment of the paper's Figure 2:

* a stream of microblogs is *digested* into the in-memory store;
* when the memory budget fills, the flushing policy evicts at least the
  flushing budget B to disk;
* incoming top-k queries are answered memory-first, falling back to disk
  on a miss — and the hit ratio is the headline metric.
"""

from __future__ import annotations

import time
from typing import Hashable, Iterable, Optional

from repro.config import SystemConfig
from repro.core import create_engine
from repro.core.policy import FlushReport, MemoryEngine
from repro.engine.clock import LogicalClock
from repro.engine.executor import QueryExecutor, QueryResult
from repro.engine.queries import TopKQuery
from repro.engine.stats import SystemStats
from repro.errors import CapacityError
from repro.model.microblog import Microblog
from repro.obs import Instrumentation
from repro.obs.recorder import FlightRecorder, attach_flight_recorder
from repro.obs.runtime import get_active
from repro.obs.slo import SLOTracker
from repro.obs.watermarks import WatermarkTracker
from repro.storage.disk import DiskArchive

__all__ = ["MicroblogSystem"]




class MicroblogSystem:
    """A complete microblogs data-management system (Figure 2)."""

    #: Black-box ring buffer (``config.flight_recorder_events > 0``).
    flight_recorder: Optional[FlightRecorder]
    #: Error-budget tracker (``config.slo_spec`` set), ticked per flush.
    slo_tracker: Optional[SLOTracker]
    #: Resource high-water marks, sampled at flush boundaries.
    watermarks: WatermarkTracker

    def __init__(
        self,
        config: SystemConfig,
        strict_and: bool = False,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        self.config = config
        #: Instrumentation shared by every component of this system.  An
        #: explicit argument wins; otherwise the enclosing
        #: ``repro.obs.activated`` scope (experiment runs) or a private
        #: registry (the library default).  When the flight recorder is
        #: configured the resolved instance is forked with the recorder
        #: ring buffer tee'd in front of the sink, before any component
        #: is built, so everything traces through the recorder.
        resolved = obs if obs is not None else (get_active() or Instrumentation())
        self.flight_recorder = None
        if config.flight_recorder_events > 0:
            resolved, self.flight_recorder = attach_flight_recorder(
                resolved, config.flight_recorder_events
            )
        self.obs = resolved
        self.attribute = config.build_attribute()
        self.ranking = config.build_ranking()
        model = config.memory_model
        self.disk = DiskArchive(
            model,
            config.disk_cost,
            obs=self.obs,
            cache_bytes=config.disk_cache_bytes,
            elide_empty=config.disk_elide_empty,
        )
        self.engine: MemoryEngine = create_engine(
            config.policy,
            model=model,
            ranking=self.ranking,
            attribute=self.attribute,
            k=config.k,
            capacity_bytes=config.memory_capacity_bytes,
            flush_fraction=config.flush_fraction,
            disk=self.disk,
            obs=self.obs,
            ledger_capacity=config.eviction_ledger_capacity,
            adaptive=config.adaptive_settings(),
        )
        self.executor = QueryExecutor(
            self.engine,
            self.disk,
            strict_and=strict_and,
            and_scan_depth=config.and_scan_depth,
            and_disk_limit=config.and_disk_limit,
            obs=self.obs,
        )
        self.clock = LogicalClock()
        self.stats = SystemStats()
        self.watermarks = WatermarkTracker(self.obs.registry)
        self.slo_tracker = None
        spec = config.build_slo_spec()
        if spec is not None:
            tracker = SLOTracker(spec, self.obs.registry, emit=self.obs.event)
            if self.flight_recorder is not None:
                tracker.add_breach_callback(self._dump_on_breach)
            self.slo_tracker = tracker

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.clock.now

    def ingest(self, record: Microblog) -> bool:
        """Digest one record; triggers a flush when memory fills.

        Returns False when the record has no keys under the configured
        attribute (e.g. a tweet without hashtags in a keyword system) and
        was skipped.
        """
        self.clock.advance_to(record.timestamp)
        self.stats.ingest.offered += 1
        start = time.perf_counter()
        indexed = self.engine.insert(record)
        self.stats.ingest.insert_seconds += time.perf_counter() - start
        if indexed:
            self.stats.ingest.indexed += 1
        else:
            self.stats.ingest.skipped += 1
            return False
        if self.engine.needs_flush():
            self._flush()
        return True

    def ingest_many(self, records: Iterable[Microblog]) -> int:
        """Digest a batch; returns how many records were indexed."""
        indexed = 0
        for record in records:
            if self.ingest(record):
                indexed += 1
        return indexed

    def _flush(self) -> FlushReport:
        now = self.now
        self.stats.sample_memory(
            now,
            self.engine.memory_bytes,
            self.config.memory_capacity_bytes,
            kind="before",
        )
        report = self.engine.run_flush(now)
        # The flush runs on the ingest path and stalls it for its whole
        # wall time: one sample per flush in the ``ingest.stall_seconds``
        # histogram, which SLO specs read.
        self.stats.ingest.record_stall(report.wall_seconds)
        self.obs.registry.counter("ingest.stalls").inc()
        self.obs.registry.histogram("ingest.stall_seconds").record(
            report.wall_seconds
        )
        self.stats.ingest.flush_seconds += report.wall_seconds
        after = self.engine.memory_bytes
        self.stats.sample_memory(
            now, after, self.config.memory_capacity_bytes, kind="after"
        )
        self.obs.registry.gauge("memory.bytes_used").set(after)
        self.obs.registry.gauge("memory.capacity_bytes").set(
            self.config.memory_capacity_bytes
        )
        if report.freed_bytes <= 0 and after >= self.config.memory_capacity_bytes:
            raise CapacityError(
                f"flush freed nothing at {after} bytes used of "
                f"{self.config.memory_capacity_bytes}; a single record may "
                "exceed the memory budget"
            )
        self._service_level_tick()
        return report

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def search(self, query: TopKQuery, now: Optional[float] = None) -> QueryResult:
        """Evaluate a top-k query and record hit/miss statistics."""
        executed_at = self.now if now is None else now
        result = self.executor.execute(query, executed_at)
        self.stats.queries.record(
            query.mode,
            result.memory_hit,
            result.simulated_latency,
            disk_lookups=result.disk_lookups,
        )
        return result

    def fetch_records(self, result: QueryResult) -> list[Microblog]:
        """Materialize the record bodies of a query result."""
        return self.executor.materialize(result)

    # ------------------------------------------------------------------
    # Service levels (SLO tracker, flight recorder, watermarks)
    # ------------------------------------------------------------------

    def _service_level_tick(self) -> None:
        """One flush-boundary heartbeat: sample resource watermarks,
        then evaluate the SLO objectives."""
        watermarks = self.watermarks
        watermarks.observe("memory.bytes_used", self.engine.memory_bytes)
        if self.disk.cache is not None:
            watermarks.observe("disk.cache_bytes", self.disk.cache.bytes_used)
        ledger = self.engine.eviction_ledger
        if ledger is not None:
            watermarks.observe("eviction_ledger.entries", len(ledger))
        if self.slo_tracker is not None:
            self.slo_tracker.tick()

    def slo_state(self) -> Optional[dict]:
        """The SLO tracker's state dict, or None when no spec is set."""
        if self.slo_tracker is None:
            return None
        return self.slo_tracker.state()

    def dump_flight_recorder(
        self, path: Optional[str] = None, reason: str = "on_demand"
    ):
        """Write the black box (recent traces + registry snapshot + SLO
        state) to ``path``; returns the path written, or None when the
        recorder is off."""
        if self.flight_recorder is None:
            return None
        target = (
            path if path is not None else self.config.resolved_flight_recorder_path()
        )
        return self.flight_recorder.dump(
            target,
            registry=self.obs.registry,
            slo_state=self.slo_state(),
            reason=reason,
        )

    def _dump_on_breach(self, payload: dict) -> None:
        self.dump_flight_recorder(reason=f"slo_breach:{payload['name']}")

    # ------------------------------------------------------------------
    # Control and metrics
    # ------------------------------------------------------------------

    def set_k(self, k: int) -> None:
        """Change k at run time (Section IV-C); applies from the next
        flush cycle onward."""
        self.engine.set_k(k)

    def snapshot(self) -> dict:
        """Point-in-time view of the instrumentation registry: every
        counter, gauge, and histogram this system's components recorded
        (flush spans, per-mode query hits/misses, disk I/O, ...), plus
        the per-key hotness table (``hot_keys``) whenever heat tracking
        is on (attribution or adaptive mode)."""
        snap = self.obs.registry.snapshot()
        hot = self.engine.hot_keys()
        if hot:
            snap["hot_keys"] = hot
        return snap

    def hit_ratio(self) -> float:
        return self.stats.queries.hit_ratio

    def miss_attribution(self) -> dict[str, int]:
        """Memory misses grouped by the eviction decision that caused
        them: ``{"phase1-regular": 12, "never-resident": 3, ...}``.
        Empty unless the shared Instrumentation has ``attribution=True``
        (and at least one miss occurred)."""
        return self.obs.registry.counter_values("query.miss.cause.")

    def k_filled_count(self) -> int:
        """Keys whose provable in-memory top-k is complete (Fig 7)."""
        return self.engine.k_filled_count()

    def memory_utilization(self) -> float:
        """Used fraction of the memory budget."""
        return self.engine.memory_bytes / self.config.memory_capacity_bytes

    def frequency_snapshot(self) -> dict[Hashable, int]:
        """Key -> in-memory posting count (the Figure 1 snapshot)."""
        return self.engine.frequency_snapshot()

    def flush_reports(self) -> list[FlushReport]:
        """Every flush this system ran, in chronological order."""
        return self.engine.flush_reports

    def digestion_rate(self) -> float:
        """Pure insert-path digestion rate (records per wall second)."""
        return self.stats.ingest.digestion_rate

    def effective_digestion_rate(self) -> float:
        """Digestion rate charged with all work that contends with the
        ingestion path in a real deployment: flushing and the policy
        bookkeeping triggered by queries.  This is the Figure 10(b)
        measure — it is what separates FIFO, kFlushing, kFlushing-MK, and
        LRU when queries and flushes run alongside ingestion.
        """
        ingest = self.stats.ingest
        total = ingest.insert_seconds + ingest.flush_seconds
        total += self.executor.bookkeeping_seconds
        if total <= 0.0:
            return 0.0
        return ingest.indexed / total

    def policy_overhead_bytes(self) -> int:
        """Modelled bytes of the policy's private bookkeeping (Fig 10a)."""
        return self.engine.policy_overhead_bytes

    def latency_percentile(self, p: float) -> float:
        """Simulated query-latency percentile (the intro's SLO measure):
        memory hits cost microseconds, misses pay simulated disk I/O."""
        return self.stats.queries.latency.percentile(p)

    def check_integrity(self) -> None:
        """Assert the system's internal invariants."""
        self.engine.check_integrity()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MicroblogSystem(policy={self.config.policy!r}, "
            f"attr={self.attribute.name!r}, k={self.engine.k}, "
            f"records={self.engine.record_count()})"
        )
