"""Unit tests for posting lists, trims, and completeness floors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.posting_list import MIN_SORT_KEY, Posting, PostingList


def posting(i, score=None, ts=None):
    """Posting with score == ts == i by default (temporal ranking)."""
    score = float(i) if score is None else score
    ts = float(i) if ts is None else ts
    return Posting(score, ts, i)


def fresh(n=0, key="kw"):
    entry = PostingList(key, created_at=0.0)
    for i in range(1, n + 1):
        entry.insert(posting(i))
    return entry


class TestInsertOrdering:
    def test_temporal_appends_stay_sorted(self):
        entry = fresh(5)
        scores = [p.score for p in entry]
        assert scores == sorted(scores)

    def test_out_of_order_insert_sorted(self):
        entry = PostingList("kw", created_at=0.0)
        for i in (5, 2, 9, 1, 7):
            entry.insert(posting(i))
        assert [p.blog_id for p in entry] == [1, 2, 5, 7, 9]

    def test_last_arrival_advances(self):
        entry = PostingList("kw", created_at=0.0)
        entry.insert(posting(3))
        assert entry.last_arrival == 3.0
        entry.insert(posting(1))  # older arrival does not move it back
        assert entry.last_arrival == 3.0
        entry.insert(posting(9))
        assert entry.last_arrival == 9.0

    def test_len_and_iteration(self):
        entry = fresh(4)
        assert len(entry) == 4
        assert [p.blog_id for p in entry] == [1, 2, 3, 4]


class TestTopAndBest:
    def test_top_returns_best_first(self):
        entry = fresh(5)
        assert [p.blog_id for p in entry.top(3)] == [5, 4, 3]

    def test_top_more_than_length(self):
        entry = fresh(2)
        assert len(entry.top(10)) == 2

    def test_top_zero_or_negative(self):
        entry = fresh(3)
        assert entry.top(0) == []
        assert entry.top(-1) == []

    def test_best_and_worst(self):
        entry = fresh(3)
        assert entry.best().blog_id == 3
        assert entry.worst().blog_id == 1
        assert PostingList("kw", 0.0).best() is None
        assert PostingList("kw", 0.0).worst() is None


class TestMembership:
    def test_id_set(self):
        entry = fresh(3)
        assert 2 in entry.id_set()
        assert 99 not in entry.id_set()

    def test_topk_id_set(self):
        entry = fresh(5)
        assert entry.topk_id_set(2) == {5, 4}
        assert 3 not in entry.topk_id_set(2)
        assert entry.topk_id_set(0) == frozenset()


class TestTrimBeyond:
    def test_trims_worst_ranked(self):
        entry = fresh(5)
        removed = entry.trim_beyond(2)
        assert [p.blog_id for p in removed] == [1, 2, 3]
        assert [p.blog_id for p in entry] == [4, 5]

    def test_noop_when_under_k(self):
        entry = fresh(2)
        assert entry.trim_beyond(5) == []
        assert len(entry) == 2
        assert entry.is_complete

    def test_floor_rises_to_best_removed(self):
        entry = fresh(5)
        entry.trim_beyond(2)
        assert entry.floor == posting(3).sort_key

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            fresh(3).trim_beyond(-1)

    def test_repeated_trims_keep_floor_monotone(self):
        entry = fresh(5)
        entry.trim_beyond(3)
        floor1 = entry.floor
        entry.insert(posting(10))
        entry.insert(posting(11))
        entry.trim_beyond(3)
        assert entry.floor > floor1


class TestTrimIf:
    def test_keep_predicate_spares_postings(self):
        entry = fresh(5)
        removed = entry.trim_if(2, keep=lambda p: p.blog_id == 2)
        assert [p.blog_id for p in removed] == [1, 3]
        assert [p.blog_id for p in entry] == [2, 4, 5]

    def test_floor_only_covers_removed(self):
        entry = fresh(5)
        entry.trim_if(2, keep=lambda p: p.blog_id == 2)
        assert entry.floor == posting(3).sort_key

    def test_all_kept_means_no_floor_change(self):
        entry = fresh(5)
        removed = entry.trim_if(2, keep=lambda p: True)
        assert removed == []
        assert entry.is_complete

    def test_none_kept_equals_trim_beyond(self):
        a, b = fresh(6), fresh(6)
        ra = a.trim_if(3, keep=lambda p: False)
        rb = b.trim_beyond(3)
        assert [p.blog_id for p in ra] == [p.blog_id for p in rb]
        assert a.floor == b.floor


class TestRemoveId:
    def test_removes_and_returns(self):
        entry = fresh(3)
        removed = entry.remove_id(2)
        assert removed.blog_id == 2
        assert [p.blog_id for p in entry] == [1, 3]

    def test_missing_returns_none(self):
        entry = fresh(3)
        assert entry.remove_id(42) is None
        assert len(entry) == 3

    def test_mid_list_removal_raises_floor(self):
        entry = fresh(3)
        entry.remove_id(2)
        assert entry.floor == posting(2).sort_key
        # Posting 1 is now below the floor: unprovable territory.
        assert entry.count_above_floor() == 1


class TestDrain:
    def test_drain_empties_and_sets_floor(self):
        entry = fresh(4)
        removed = entry.drain()
        assert len(removed) == 4
        assert len(entry) == 0
        assert entry.floor == posting(4).sort_key

    def test_drain_empty_entry(self):
        entry = PostingList("kw", 0.0)
        assert entry.drain() == []
        assert entry.is_complete

    def test_drain_if_keeps_matching(self):
        entry = fresh(4)
        removed = entry.drain_if(keep=lambda p: p.blog_id in (2, 4))
        assert [p.blog_id for p in removed] == [1, 3]
        assert [p.blog_id for p in entry] == [2, 4]
        assert entry.floor == posting(3).sort_key

    def test_drain_if_keep_all_is_noop(self):
        entry = fresh(4)
        assert entry.drain_if(keep=lambda p: True) == []
        assert entry.is_complete


class TestProvableTop:
    def test_complete_entry_is_provable(self):
        entry = fresh(5)
        top = entry.provable_top(3)
        assert [p.blog_id for p in top] == [5, 4, 3]

    def test_too_few_postings_not_provable(self):
        assert fresh(2).provable_top(3) is None

    def test_trimmed_entry_still_provable_for_retained_top(self):
        entry = fresh(10)
        entry.trim_beyond(4)
        assert entry.provable_top(4) is not None
        assert entry.provable_top(3) is not None

    def test_hole_below_top_breaks_deep_proofs(self):
        entry = fresh(5)
        entry.remove_id(3)  # floor rises to 3
        assert entry.provable_top(2) is not None  # 5, 4 are above the floor
        assert entry.provable_top(3) is None  # would include 2 <= floor

    def test_touch_query_monotone(self):
        entry = fresh(1)
        entry.touch_query(5.0)
        assert entry.last_query == 5.0
        entry.touch_query(3.0)
        assert entry.last_query == 5.0

    def test_count_above_floor_complete(self):
        entry = fresh(4)
        assert entry.count_above_floor() == 4

    def test_min_sort_key_is_minimal(self):
        assert posting(0, score=-1e300).sort_key > MIN_SORT_KEY


def test_best_first_view_slice_returns_tuple_without_full_copy():
    entry = PostingList("k", created_at=0.0)
    for i in range(10):
        entry.insert(posting(i))
    view = entry.best_first()
    assert view[:3] == (posting(9), posting(8), posting(7))
    assert view[8:20] == (posting(1), posting(0))
    assert view[3:3] == ()
    assert view[1:6:2] == (posting(8), posting(6), posting(4))
    assert view[-1] == posting(0)
    with pytest.raises(IndexError):
        view[10]


# ----------------------------------------------------------------------
# PostingList against a brute-force model under random interleavings
# ----------------------------------------------------------------------


class ModelEntry:
    """The plainest restatement of a posting list: a sorted list of
    postings plus the floor rule (the floor rises to the best posting
    ever removed, and never falls)."""

    def __init__(self) -> None:
        self.postings: list[Posting] = []
        self.floor = MIN_SORT_KEY
        self.last_arrival = 0.0

    def _remove(self, removed: list[Posting]) -> list[Posting]:
        removed = sorted(removed)
        self.postings = [p for p in self.postings if p not in removed]
        if removed:
            self.floor = max(self.floor, max(p.sort_key for p in removed))
        return removed

    def insert(self, p: Posting) -> None:
        self.postings = sorted(self.postings + [p])
        self.last_arrival = max(self.last_arrival, p.timestamp)

    def trim_beyond(self, k: int) -> list[Posting]:
        return self._remove(self.postings[: max(0, len(self.postings) - k)])

    def trim_if(self, k: int, keep) -> list[Posting]:
        beyond = self.postings[: max(0, len(self.postings) - k)]
        return self._remove([p for p in beyond if not keep(p)])

    def drain(self) -> list[Posting]:
        return self._remove(list(self.postings))

    def drain_if(self, keep) -> list[Posting]:
        return self._remove([p for p in self.postings if not keep(p)])

    def remove_id(self, blog_id: int):
        hit = [p for p in self.postings if p.blog_id == blog_id]
        self._remove(hit)
        return hit[0] if hit else None

    def provable_top(self, k: int):
        best = sorted(self.postings, reverse=True)[:k]
        if len(best) < k or any(p.sort_key <= self.floor for p in best):
            return None
        return best


# One random operation: (op-name, argument).
ops_strategy = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"),
            st.tuples(
                st.floats(min_value=-100, max_value=100, allow_nan=False),
                st.floats(min_value=0, max_value=100, allow_nan=False),
            ),
        ),
        st.tuples(st.just("trim"), st.integers(min_value=0, max_value=12)),
        st.tuples(st.just("trim_if"), st.integers(min_value=0, max_value=12)),
        st.tuples(st.just("drain"), st.none()),
        st.tuples(st.just("drain_if"), st.none()),
        st.tuples(st.just("remove"), st.integers(min_value=0, max_value=60)),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(ops_strategy, st.integers(min_value=1, max_value=8))
def test_posting_list_matches_model_under_random_interleavings(ops, k):
    entry = PostingList("k", created_at=0.0)
    model = ModelEntry()
    next_id = 0
    for op, arg in ops:
        if op == "insert":
            p = Posting(arg[0], arg[1], next_id)
            next_id += 1
            entry.insert(p)
            model.insert(p)
        elif op == "trim":
            assert entry.trim_beyond(arg) == model.trim_beyond(arg)
        elif op == "trim_if":
            # Spare even ids: the MK Phase 1 rule's shape.
            keep = lambda p: p.blog_id % 2 == 0  # noqa: E731
            assert entry.trim_if(arg, keep) == model.trim_if(arg, keep)
        elif op == "drain":
            assert entry.drain() == model.drain()
        elif op == "drain_if":
            keep = lambda p: p.blog_id % 3 == 0  # noqa: E731
            assert entry.drain_if(keep) == model.drain_if(keep)
        else:
            assert entry.remove_id(arg) == model.remove_id(arg)
        assert list(entry) == model.postings
        assert entry.floor == model.floor
        assert entry.last_arrival == model.last_arrival
        assert entry.provable_top(k) == model.provable_top(k)
        assert entry.is_k_filled(k) == (model.provable_top(k) is not None)
        assert list(entry.best_first()) == model.postings[::-1]
