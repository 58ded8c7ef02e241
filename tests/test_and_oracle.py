"""AND queries against a brute-force oracle over memory ∪ disk.

Small stores take random records with forced flushes, then answer 2- and
3-key AND queries.  The oracle below restates the executor's AND
semantics in the plainest form — per-key ``{blog_id: Posting}`` dicts,
key-function sorts, no early exits — from the store's own memory lookups
and a full read of each key's disk postings, and is checked against the
records actually ingested: every posting must live in memory or on disk,
and an answer flagged exact must be the true top-k.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.engine.queries import AndQuery
from repro.engine.system import MicroblogSystem
from repro.model.microblog import Microblog

KEYS = [f"kw{i}" for i in range(6)]

records_strategy = st.lists(
    st.tuples(
        st.lists(st.sampled_from(KEYS), min_size=1, max_size=4, unique=True),
        st.booleans(),  # force a flush after this record
    ),
    min_size=5,
    max_size=80,
)
queries_strategy = st.lists(
    st.lists(st.sampled_from(KEYS), min_size=2, max_size=3, unique=True),
    min_size=1,
    max_size=6,
)
config_strategy = st.fixed_dictionaries(
    {
        "policy": st.sampled_from(["kflushing", "kflushing-mk", "fifo", "lru"]),
        "k": st.integers(min_value=1, max_value=4),
        # Caps are given as slack over k (a config must cap at k or more).
        "and_scan_depth": st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
        "and_disk_limit": st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
        "disk_elide_empty": st.booleans(),
    }
)


def oracle_and(system, config, strict_and, keys, k, records):
    """Expected ``(postings, memory_hit, provably_exact, disk_lookups)``."""
    depth, limit = config.and_scan_depth, config.and_disk_limit
    sort_key = lambda p: p.sort_key  # noqa: E731
    memory, disk = [], []
    engine, archive = system.engine, system.disk
    for key in keys:
        lookup = engine.lookup(key, depth=None)
        candidates = list(lookup.candidates)
        if depth is not None:
            candidates = candidates[:depth]
        memory.append((candidates, lookup.floor))
        on_disk = sorted(archive.lookup(key), key=sort_key, reverse=True)
        # Lossless: memory ∪ disk holds every ingested posting of the key.
        stored = {p.blog_id for p in lookup.candidates} | {p.blog_id for p in on_disk}
        assert stored == {r.blog_id for r in records if key in r.keywords}
        elided = config.disk_elide_empty and archive.posting_count(key) == 0
        disk.append(None if elided else on_disk)

    common = set.intersection(*({p.blog_id for p in c} for c, _ in memory))
    in_memory = sorted(
        (p for p in memory[0][0] if p.blog_id in common), key=sort_key, reverse=True
    )
    max_floor = max(floor for _, floor in memory)
    confirmed = [p for p in in_memory if p.sort_key > max_floor]
    if len(confirmed) >= k:
        return tuple(confirmed[:k]), True, depth is None, 0
    if not strict_and and len(in_memory) >= k:
        return tuple(in_memory[:k]), True, False, 0

    truncated = False
    by_key = []
    for (candidates, _), on_disk in zip(memory, disk):
        by_id = {p.blog_id: p for p in candidates}
        if on_disk is not None:
            if limit is not None:
                truncated |= len(on_disk) >= limit
                on_disk = on_disk[:limit]
            for p in on_disk:
                by_id.setdefault(p.blog_id, p)
        by_key.append(by_id)
    common = set.intersection(*(set(by_id) for by_id in by_key))
    answer = sorted((by_key[0][i] for i in common), key=sort_key, reverse=True)
    lookups = sum(on_disk is not None for on_disk in disk)
    return tuple(answer[:k]), False, not truncated and depth is None, lookups


def true_top_k(records, ranking, keys, k):
    matching = [r for r in records if all(key in r.keywords for key in keys)]
    ranked = sorted(
        ((ranking.score(r), r.timestamp, r.blog_id) for r in matching), reverse=True
    )
    return [blog_id for _, _, blog_id in ranked[:k]]


@settings(max_examples=60, deadline=None)
@given(records_strategy, queries_strategy, config_strategy, st.booleans())
def test_and_matches_oracle(stream, queries, overrides, strict_and):
    for cap in ("and_scan_depth", "and_disk_limit"):
        if overrides[cap] is not None:
            overrides[cap] += overrides["k"]
    config = SystemConfig(
        memory_capacity_bytes=8_000, flush_fraction=0.3, **overrides
    )
    system = MicroblogSystem(config, strict_and=strict_and)
    records = []
    for i, (keywords, flush) in enumerate(stream):
        record = Microblog(
            blog_id=i, timestamp=float(i), user_id=0, keywords=tuple(keywords)
        )
        system.ingest(record)
        records.append(record)
        if flush:
            system.engine.run_flush(now=float(i))
    for keys in queries:
        k = config.k
        expected = oracle_and(system, config, strict_and, keys, k, records)
        result = system.search(AndQuery(keys, k=k))
        got = (
            result.postings,
            result.memory_hit,
            result.provably_exact,
            result.disk_lookups,
        )
        assert got == expected, keys
        if result.provably_exact:
            assert list(result.blog_ids) == true_top_k(
                records, system.ranking, keys, k
            )
        if config.and_scan_depth is None and config.and_disk_limit is None:
            if strict_and or not result.memory_hit:
                assert result.provably_exact
