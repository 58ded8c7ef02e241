"""Unit tests for the raw data store and its reference counts."""

import pytest

from repro.errors import DuplicateRecordError, UnknownRecordError
from repro.storage.memory_model import MemoryModel
from repro.storage.raw_store import RawDataStore
from tests.conftest import make_blog


@pytest.fixture
def store():
    return RawDataStore(MemoryModel())


class TestAddAndGet:
    def test_add_returns_cost(self, store):
        blog = make_blog()
        cost = store.add(blog, pcount=1)
        assert cost == MemoryModel().record_bytes(blog)
        assert store.bytes_used == cost

    def test_get_returns_record(self, store):
        blog = make_blog()
        store.add(blog, pcount=2)
        assert store.get(blog.blog_id) is blog

    def test_contains_and_len(self, store):
        blog = make_blog()
        assert blog.blog_id not in store
        store.add(blog, pcount=1)
        assert blog.blog_id in store
        assert len(store) == 1

    def test_duplicate_rejected(self, store):
        blog = make_blog()
        store.add(blog, pcount=1)
        with pytest.raises(DuplicateRecordError):
            store.add(blog, pcount=1)

    def test_non_positive_pcount_rejected(self, store):
        with pytest.raises(ValueError):
            store.add(make_blog(), pcount=0)

    def test_unknown_get_raises(self, store):
        with pytest.raises(UnknownRecordError):
            store.get(999)

    def test_iteration(self, store):
        blogs = [make_blog() for _ in range(3)]
        for blog in blogs:
            store.add(blog, pcount=1)
        assert set(store) == set(blogs)


class TestDecref:
    def test_decref_keeps_record_until_zero(self, store):
        blog = make_blog()
        store.add(blog, pcount=3)
        assert store.decref(blog.blog_id) is None
        assert store.decref(blog.blog_id) is None
        assert store.pcount(blog.blog_id) == 1
        assert blog.blog_id in store

    def test_final_decref_returns_and_removes(self, store):
        blog = make_blog()
        store.add(blog, pcount=1)
        returned = store.decref(blog.blog_id)
        assert returned is blog
        assert blog.blog_id not in store
        assert store.bytes_used == 0

    def test_decref_unknown_raises(self, store):
        with pytest.raises(UnknownRecordError):
            store.decref(123)

    def test_pcount_tracks(self, store):
        blog = make_blog()
        store.add(blog, pcount=2)
        assert store.pcount(blog.blog_id) == 2
        store.decref(blog.blog_id)
        assert store.pcount(blog.blog_id) == 1


class TestRemove:
    def test_remove_ignores_pcount(self, store):
        blog = make_blog()
        charged = store.add(blog, pcount=5)
        record, refund = store.remove(blog.blog_id)
        assert record is blog
        assert refund == charged
        assert blog.blog_id not in store
        assert store.bytes_used == 0

    def test_remove_unknown_raises(self, store):
        with pytest.raises(UnknownRecordError):
            store.remove(42)


class TestIntegrity:
    def test_bytes_accounting_across_operations(self, store):
        blogs = [make_blog(text="x" * i) for i in range(10)]
        for blog in blogs:
            store.add(blog, pcount=2)
        store.check_integrity()
        for blog in blogs[:5]:
            store.decref(blog.blog_id)
            store.decref(blog.blog_id)
        store.check_integrity()
        model = MemoryModel()
        expected = sum(model.record_bytes(b) for b in blogs[5:])
        assert store.bytes_used == expected


def test_raw_store_releases_memoized_cost_not_recomputed(store, monkeypatch):
    record = make_blog(keywords=("a", "b"), text="memoized cost")
    charged = store.add(record, pcount=2)
    assert charged == MemoryModel().record_bytes(record)
    assert store.bytes_used == charged
    # A mid-run change in model pricing must not skew release accounting:
    # the store frees exactly what it charged at insert time.
    original = MemoryModel.record_bytes
    monkeypatch.setattr(
        MemoryModel, "record_bytes", lambda self, r: original(self, r) + 1_000
    )
    assert store.decref(record.blog_id) is None
    assert store.decref(record.blog_id) is record
    assert store.bytes_used == 0


class TestRelease:
    """The batched decref kFlushing uses to evict one entry's postings."""

    def test_unknown_id_raises(self, store):
        blog = make_blog()
        store.add(blog, pcount=1)
        with pytest.raises(UnknownRecordError):
            store.release([blog.blog_id + 10_000])
        assert blog.blog_id in store

    def test_second_release_of_freed_id_raises(self, store):
        blog = make_blog()
        store.add(blog, pcount=1)
        freed, _ = store.release([blog.blog_id])
        assert freed == [blog]
        with pytest.raises(UnknownRecordError):
            store.release([blog.blog_id])
        # Within one batch, too: the id is gone once its count hits zero.
        other = make_blog()
        store.add(other, pcount=1)
        with pytest.raises(UnknownRecordError):
            store.release([other.blog_id, other.blog_id])
        assert other.blog_id not in store
        assert store.bytes_used == 0
        store.check_integrity()

    def test_refund_equals_memoized_costs(self, store, monkeypatch):
        blogs = [make_blog(text="y" * i) for i in range(1, 6)]
        charged = [store.add(blog, pcount=1) for blog in blogs]
        # The refund is the charge at insert, not a re-pricing.
        original = MemoryModel.record_bytes
        monkeypatch.setattr(
            MemoryModel, "record_bytes", lambda self, r: original(self, r) + 1_000
        )
        freed, costs = store.release([b.blog_id for b in blogs])
        assert costs == charged
        assert store.bytes_used == 0
        store.check_integrity()

    def test_freed_records_come_back_in_release_order(self, store):
        blogs = [make_blog() for _ in range(6)]
        for i, blog in enumerate(blogs):
            store.add(blog, pcount=1 + i % 2)
        order = [blogs[4], blogs[1], blogs[0], blogs[3], blogs[2], blogs[5]]
        freed, costs = store.release([b.blog_id for b in order])
        # Even-indexed blogs had one reference and leave; odd ones stay.
        assert freed == [blogs[4], blogs[0], blogs[2]]
        assert costs == [MemoryModel().record_bytes(b) for b in freed]
        survivors = (blogs[1], blogs[3], blogs[5])
        assert [store.pcount(b.blog_id) for b in survivors] == [1, 1, 1]
        store.check_integrity()

    def test_matches_per_id_decref(self):
        model = MemoryModel()
        blogs = [make_blog(text="z" * i) for i in range(8)]
        pcounts = [1, 2, 1, 3, 1, 2, 2, 1]
        batched, single = RawDataStore(model), RawDataStore(model)
        for blog, pcount in zip(blogs, pcounts):
            batched.add(blog, pcount=pcount)
            single.add(blog, pcount=pcount)
        # Round-robin over each record's references: releases interleave.
        ids = [
            b.blog_id
            for round_ in range(3)
            for b, pcount in zip(blogs, pcounts)
            if pcount > round_
        ]
        freed, _ = batched.release(ids)
        expected = [r for r in map(single.decref, ids) if r is not None]
        assert freed == expected
        assert batched.bytes_used == single.bytes_used
        assert set(batched) == set(single)
        assert len(batched) == 0
