"""The shared top-k merge (executor memory/disk merge, segments)."""

from repro.storage.posting_list import Posting
from repro.storage.topk import merge_run_tails, merge_topk


class TestMergeTopk:
    def _posting(self, score, blog_id):
        return Posting(score, float(blog_id), blog_id)

    def test_orders_and_truncates(self):
        a = [self._posting(3.0, 1), self._posting(1.0, 2)]
        b = [self._posting(2.0, 3), self._posting(0.5, 4)]
        merged = merge_topk([a, b], k=3)
        assert [p.blog_id for p in merged] == [1, 3, 2]

    def test_first_occurrence_wins_dedup(self):
        a = [self._posting(3.0, 1)]
        b = [self._posting(9.0, 1), self._posting(2.0, 2)]
        merged = merge_topk([a, b], k=None)
        # blog 1 keeps its first-seen posting (score 3.0), so it sorts
        # below nothing else here but is not duplicated.
        assert [p.blog_id for p in merged] == [1, 2]
        assert merged[0].score == 3.0

    def test_unlimited_when_k_none(self):
        groups = [[self._posting(float(i), i)] for i in range(10)]
        assert len(merge_topk(groups, k=None)) == 10

    def test_executor_and_segments_share_impl(self):
        # All merge sites draw from repro.storage.topk: the executor uses
        # the dedupping merge, the segmented index the duplicate-free
        # stream merge (segments are temporally disjoint).
        from repro.engine import executor as executor_mod
        from repro.storage import segmented_index as seg_mod

        assert executor_mod._merge_topk is merge_topk
        assert seg_mod.merge_run_tails is merge_run_tails
