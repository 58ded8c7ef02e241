"""Every flush reports exactly the bytes it took out of memory.

``FlushReport.freed_bytes`` is what a policy *says* it released; the
engine's ``memory_bytes`` is what its stores actually hold.  The two must
agree for every flush of every policy: a freed-byte figure priced
differently from the charge at insert (or a batched eviction that drops a
record from its count) shows up here as a mismatch.
"""

import pytest

from repro import MicroblogSystem, SystemConfig
from repro.workload.stream import MicroblogStream, StreamConfig

RECORDS = 40_000
#: A tight budget: a flush every few hundred records, and nearly every
#: kFlushing flush escalates through all three phases.
CAPACITY_BYTES = 400_000


def _flush_deltas(config: SystemConfig):
    """The engine after the run, and (reported freed bytes, memory_bytes
    before − after) per flush."""
    system = MicroblogSystem(config)
    engine = system.engine
    flush = engine.flush
    deltas = []

    def measured_flush(now):
        before = engine.memory_bytes
        report = flush(now)
        deltas.append((report.freed_bytes, before - engine.memory_bytes))
        return report

    engine.flush = measured_flush
    stream = MicroblogStream(
        StreamConfig(seed=11, vocabulary_size=2_000, with_locations=False)
    )
    system.ingest_many(stream.take(RECORDS))
    return engine, deltas


@pytest.mark.parametrize(
    "policy, adaptive",
    [
        ("fifo", False),
        ("lru", False),
        ("kflushing", False),
        ("kflushing-mk", False),
        ("kflushing", True),
    ],
)
def test_freed_bytes_equal_memory_drop(policy, adaptive):
    engine, deltas = _flush_deltas(
        SystemConfig(
            policy=policy,
            k=5,
            memory_capacity_bytes=CAPACITY_BYTES,
            adaptive=adaptive,
        )
    )
    assert len(deltas) >= 150
    mismatches = [(i, d) for i, d in enumerate(deltas) if d[0] != d[1]]
    assert not mismatches, f"{len(mismatches)} of {len(deltas)}: {mismatches[:5]}"
    engine.check_integrity()
