"""PR 4 disk-tier invariants: runs layout, read cache, lookup elision.

Three families of guarantees:

* **Differential** — the segmented-runs layout, the read cache, and
  negative-lookup elision each preserve the trial-level results of the
  paper's accounting: with the gates off, ``TrialResult`` is
  bit-identical to the flat pre-PR-4 archive; with a gate on, answers
  never change (only disk-lookup counts and simulated latency may).
* **Property** (hypothesis) — per-key disk postings stay globally
  rank-sorted and duplicate-free under arbitrary interleavings of
  commits (including re-flushed postings) and compactions, and always
  match the flat reference layout; cache-on lookups equal cache-off
  lookups under random interleavings of commits and reads.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.engine.system import MicroblogSystem
from repro.experiments.runner import TrialSpec, run_trial
from repro.storage.disk import DiskArchive
from repro.storage.memory_model import MemoryModel
from repro.storage.posting_list import Posting
from repro.workload.queryload import QueryLoad, QueryLoadConfig
from repro.workload.stream import MicroblogStream, StreamConfig
from tests.test_experiments import DETERMINISTIC_FIELDS, MICRO


def posting(i: int, score: float | None = None) -> Posting:
    return Posting(float(i) if score is None else score, float(i), i)


# ----------------------------------------------------------------------
# Differential: runs layout vs the flat pre-PR-4 reference
# ----------------------------------------------------------------------


class TestRunsLayoutDifferential:
    """DiskArchive.use_runs=False restores the pre-PR-4 archive; both
    layouts must produce bit-identical trials with the gates off."""

    @pytest.mark.parametrize("policy", ["fifo", "kflushing", "kflushing-mk", "lru"])
    def test_trial_identical_across_layouts(self, policy):
        new = run_trial(TrialSpec(policy=policy, scale=MICRO, seed=11))
        assert DiskArchive.use_runs is True
        DiskArchive.use_runs = False
        try:
            old = run_trial(TrialSpec(policy=policy, scale=MICRO, seed=11))
        finally:
            DiskArchive.use_runs = True
        for name in DETERMINISTIC_FIELDS:
            assert getattr(new, name) == getattr(old, name), name

    def test_simulated_io_identical_across_layouts(self):
        def io_seconds() -> float:
            config = SystemConfig(
                policy="kflushing",
                memory_capacity_bytes=200_000,
                and_scan_depth=100,
                and_disk_limit=100,
            )
            system = MicroblogSystem(config)
            stream = MicroblogStream(
                StreamConfig(seed=5, vocabulary_size=300, with_locations=False)
            )
            load = QueryLoad(
                QueryLoadConfig(seed=6, mode="correlated"),
                MicroblogStream(
                    StreamConfig(seed=5, vocabulary_size=300, with_locations=False)
                ),
            )
            for i, record in enumerate(stream.take(8_000)):
                system.ingest(record)
                if i % 10 == 0:
                    system.search(load.next_query())
            return system.disk.stats.simulated_io_seconds

        new = io_seconds()
        DiskArchive.use_runs = False
        try:
            old = io_seconds()
        finally:
            DiskArchive.use_runs = True
        assert new == pytest.approx(old)


# ----------------------------------------------------------------------
# Differential: cache and elision change costs, never answers
# ----------------------------------------------------------------------


def _query_answers(
    config: SystemConfig,
    seed: int = 9,
    queries: int = 300,
    mode: str = "correlated",
    vocabulary: int = 300,
):
    """Ingest a fixed stream, run a fixed query load, return the answers."""
    system = MicroblogSystem(config)
    stream = MicroblogStream(
        StreamConfig(seed=seed, vocabulary_size=vocabulary, with_locations=False)
    )
    system.ingest_many(stream.take(8_000))
    load = QueryLoad(
        QueryLoadConfig(seed=seed + 1, mode=mode),
        MicroblogStream(
            StreamConfig(seed=seed, vocabulary_size=vocabulary, with_locations=False)
        ),
    )
    answers = []
    for _ in range(queries):
        result = system.search(load.next_query())
        answers.append(
            (
                [(p.score, p.timestamp, p.blog_id) for p in result.postings],
                result.memory_hit,
                result.disk_lookups,
            )
        )
    return system, answers


class TestCacheDifferential:
    def test_cache_on_answers_equal_cache_off(self):
        base = SystemConfig(
            policy="kflushing",
            memory_capacity_bytes=200_000,
            and_scan_depth=100,
            and_disk_limit=100,
        )
        plain_sys, plain = _query_answers(base)
        cached_sys, cached = _query_answers(
            base.with_overrides(disk_cache_bytes=50_000)
        )
        assert plain == cached  # postings, hit flags, and lookup counts
        assert cached_sys.disk.stats.cache_hits > 0
        # Every hit skipped a seek, so the cached run is strictly cheaper.
        assert (
            cached_sys.disk.stats.simulated_io_seconds
            < plain_sys.disk.stats.simulated_io_seconds
        )

    def test_trial_results_identical_with_cache(self):
        plain = run_trial(TrialSpec(policy="kflushing", scale=MICRO, seed=11))
        cached = run_trial(
            TrialSpec(
                policy="kflushing", scale=MICRO, seed=11, disk_cache_bytes=50_000
            )
        )
        for name in DETERMINISTIC_FIELDS:
            assert getattr(plain, name) == getattr(cached, name), name


class TestElisionDifferential:
    def test_elision_never_changes_postings(self):
        base = SystemConfig(
            policy="kflushing",
            memory_capacity_bytes=200_000,
            and_scan_depth=100,
            and_disk_limit=100,
        )
        # A uniform load over a vocabulary larger than the stream ever
        # ingests guarantees queries against keys absent from the disk
        # index — exactly the lookups elision exists to skip.
        kwargs = dict(mode="uniform", vocabulary=2_000)
        plain_sys, plain = _query_answers(base, **kwargs)
        elided_sys, elided = _query_answers(
            base.with_overrides(disk_elide_empty=True), **kwargs
        )
        for (p_post, p_hit, p_lookups), (e_post, e_hit, e_lookups) in zip(
            plain, elided
        ):
            assert p_post == e_post
            assert p_hit == e_hit
            assert e_lookups <= p_lookups  # elision only removes lookups
        assert elided_sys.disk.stats.lookups_elided > 0
        assert (
            elided_sys.disk.stats.index_lookups
            < plain_sys.disk.stats.index_lookups
        )

    def test_trial_results_identical_with_elision(self):
        plain = run_trial(TrialSpec(policy="kflushing", scale=MICRO, seed=11))
        elided = run_trial(
            TrialSpec(
                policy="kflushing", scale=MICRO, seed=11, disk_elide_empty=True
            )
        )
        for name in DETERMINISTIC_FIELDS:
            assert getattr(plain, name) == getattr(elided, name), name


# ----------------------------------------------------------------------
# Property tests
# ----------------------------------------------------------------------

#: A commit interleaving: each element is one flush batch mapping a key
#: (from a tiny alphabet, so batches collide) to posting ids (from a
#: small id range, so re-flushed duplicates occur often).
batches_strategy = st.lists(
    st.dictionaries(
        st.sampled_from(("a", "b", "c")),
        st.lists(st.integers(min_value=0, max_value=120), min_size=1, max_size=20),
        min_size=1,
        max_size=3,
    ),
    min_size=1,
    max_size=25,
)


@given(batches_strategy, st.integers(min_value=1, max_value=6))
@settings(max_examples=60, deadline=None)
def test_postings_rank_sorted_after_any_interleaving(batches, max_runs):
    """Global rank order and dedup survive arbitrary commit/compaction
    interleavings — and always match the flat reference layout."""
    model = MemoryModel()
    runs = DiskArchive(model, max_runs_per_key=max_runs)
    flat = DiskArchive(model, use_runs=False)
    committed: dict[str, set[int]] = {}
    for by_key in batches:
        batch = {key: [posting(i) for i in ids] for key, ids in by_key.items()}
        runs.commit_flush([], batch)
        flat.commit_flush([], batch)
        for key, ids in by_key.items():
            committed.setdefault(key, set()).update(ids)
    for key, ids in committed.items():
        result = list(runs.lookup(key))
        sort_keys = [p.sort_key for p in result]
        assert sort_keys == sorted(sort_keys, reverse=True)
        assert {p.blog_id for p in result} == ids
        assert len(result) == len(ids)  # no duplicates survive
        assert runs.run_count(key) <= max_runs
        assert result == list(flat.lookup(key))
        assert list(runs.lookup(key, limit=7)) == list(flat.lookup(key, limit=7))


@given(
    st.lists(
        st.tuples(
            st.sampled_from(("commit", "read", "read_unbounded")),
            st.sampled_from(("a", "b")),
            st.lists(st.integers(min_value=0, max_value=80), min_size=1, max_size=10),
        ),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=40, deadline=None)
def test_cached_reads_equal_uncached_reads(ops):
    """Interleaved commits and reads: the cached archive answers every
    read exactly like the uncached one (invalidation keeps it fresh)."""
    model = MemoryModel()
    cached = DiskArchive(model, cache_bytes=2_000)
    plain = DiskArchive(model)
    for op, key, ids in ops:
        if op == "commit":
            batch = {key: [posting(i) for i in ids]}
            cached.commit_flush([], batch)
            plain.commit_flush([], batch)
        elif op == "read":
            limit = 1 + len(ids) % 9
            assert list(cached.lookup(key, limit=limit)) == list(
                plain.lookup(key, limit=limit)
            )
        else:
            assert list(cached.lookup(key)) == list(plain.lookup(key))
    assert cached.stats.index_lookups == plain.stats.index_lookups
