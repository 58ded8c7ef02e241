"""Unit tests for the flush buffer staging area."""

import pytest

from repro.storage.disk import DiskArchive
from repro.storage.flush_buffer import FlushBuffer
from repro.storage.memory_model import MemoryModel
from repro.storage.posting_list import Posting
from tests.conftest import make_blog


def posting(i):
    return Posting(float(i), float(i), i)


@pytest.fixture
def setup():
    model = MemoryModel()
    disk = DiskArchive(model)
    return model, disk, FlushBuffer(model, disk)


class TestBuffering:
    def test_starts_empty(self, setup):
        _, _, buffer = setup
        assert buffer.is_empty
        assert buffer.bytes_buffered == 0
        assert buffer.peak_bytes == 0

    def test_add_record_tracks_bytes(self, setup):
        model, _, buffer = setup
        blog = make_blog()
        buffer.add_record(blog)
        assert buffer.bytes_buffered == model.record_bytes(blog)
        assert not buffer.is_empty

    def test_add_posting_tracks_bytes(self, setup):
        model, _, buffer = setup
        buffer.add_posting("a", posting(1))
        assert buffer.bytes_buffered == model.posting_bytes

    def test_add_postings_batch(self, setup):
        model, _, buffer = setup
        buffer.add_postings("a", [posting(1), posting(2)])
        assert buffer.bytes_buffered == 2 * model.posting_bytes

    def test_add_postings_empty_is_noop(self, setup):
        _, _, buffer = setup
        buffer.add_postings("a", [])
        assert buffer.is_empty


class TestCommit:
    def test_commit_moves_to_disk_and_resets(self, setup):
        _, disk, buffer = setup
        blog = make_blog(keywords=("a",))
        buffer.add_record(blog)
        buffer.add_posting("a", posting(blog.blog_id))
        written = buffer.commit()
        assert written > 0
        assert buffer.is_empty
        assert disk.contains_record(blog.blog_id)
        assert disk.posting_count("a") == 1

    def test_commit_empty_is_free(self, setup):
        _, disk, buffer = setup
        assert buffer.commit() == 0
        assert disk.stats.flush_batches == 0

    def test_single_batch_per_commit(self, setup):
        _, disk, buffer = setup
        for i in range(5):
            buffer.add_posting("a", posting(i))
        buffer.commit()
        assert disk.stats.flush_batches == 1

    def test_peak_survives_commit(self, setup):
        model, _, buffer = setup
        blog = make_blog()
        buffer.add_record(blog)
        peak = buffer.peak_bytes
        buffer.commit()
        assert buffer.peak_bytes == peak
        assert peak == model.record_bytes(blog)

    def test_peak_is_max_over_fills(self, setup):
        _, _, buffer = setup
        buffer.add_postings("a", [posting(i) for i in range(10)])
        buffer.commit()
        buffer.add_posting("a", posting(99))
        buffer.commit()
        model = MemoryModel()
        assert buffer.peak_bytes == 10 * model.posting_bytes


class TestStage:
    """Per-entry staging must match the per-item add_posting/add_record calls."""

    def _batches(self):
        blogs = [make_blog(keywords=("a", "b"), text="t" * i) for i in range(1, 7)]
        return [
            ("a", [posting(b.blog_id) for b in blogs[:3]], blogs[:2]),
            ("b", [posting(b.blog_id) for b in blogs[2:5]], []),
            ("a", [posting(b.blog_id) for b in blogs[5:]], blogs[2:]),
        ]

    def test_same_bytes_peak_and_order_as_per_item_calls(self):
        model = MemoryModel()
        staged = FlushBuffer(model, DiskArchive(model))
        per_item = FlushBuffer(model, DiskArchive(model))
        for round_ in range(2):
            for key, postings, records in self._batches():
                costs = [model.record_bytes(r) for r in records]
                freed = staged.stage(key, postings, records, costs)
                assert freed == model.postings_bytes(len(postings)) + sum(costs)
                for p in postings:
                    per_item.add_posting(key, p)
                for r in records:
                    per_item.add_record(r)
            assert staged.bytes_buffered == per_item.bytes_buffered
            assert staged.peak_bytes == per_item.peak_bytes
            assert staged._postings == per_item._postings
            assert staged._records == per_item._records
            assert staged._record_costs == per_item._record_costs
            assert staged.commit() == per_item.commit()
        assert staged.peak_bytes == per_item.peak_bytes

    def test_empty_stage_is_noop(self, setup):
        _, _, buffer = setup
        assert buffer.stage("a", [], [], []) == 0
        assert buffer.is_empty
        assert "a" not in buffer._postings

    def test_staged_costs_reach_the_disk(self, setup):
        model, disk, buffer = setup
        blog = make_blog(keywords=("a",))
        # A cost the current model would not produce proves the memoized
        # charge, not a re-pricing, is what the disk records.
        cost = model.record_bytes(blog) + 7
        buffer.stage("a", [posting(blog.blog_id)], [blog], [cost])
        assert buffer.commit() == cost + model.posting_bytes
        assert disk.stats.bytes_written == cost + model.posting_bytes
