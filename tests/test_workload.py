"""Unit tests for workload generation: distributions, vocabulary, stream,
co-occurrence, and query loads."""

import hashlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro

from repro.errors import WorkloadError
from repro.engine.queries import CombineMode
from repro.workload.cooccurrence import CooccurrenceModel
from repro.workload.distributions import HotspotGeoSampler, ParetoSampler, ZipfSampler
from repro.workload.queryload import QueryLoad, QueryLoadConfig
from repro.workload.stream import MicroblogStream, StreamConfig
from repro.workload.vocabulary import Vocabulary, generate_tags


def rng(seed=0):
    return np.random.default_rng(seed)


class TestZipfSampler:
    def test_rank_zero_most_likely(self):
        sampler = ZipfSampler(100, 1.0, rng())
        samples = sampler.sample_many(20_000)
        counts = np.bincount(samples, minlength=100)
        assert counts[0] == counts.max()
        assert counts[0] > 5 * counts[50]

    def test_probabilities_sum_to_one(self):
        sampler = ZipfSampler(50, 1.2, rng())
        total = sum(sampler.probability(r) for r in range(50))
        assert total == pytest.approx(1.0)

    def test_zero_exponent_is_uniform(self):
        sampler = ZipfSampler(10, 0.0, rng())
        assert sampler.probability(0) == pytest.approx(0.1)
        assert sampler.probability(9) == pytest.approx(0.1)

    def test_samples_in_range(self):
        sampler = ZipfSampler(7, 1.0, rng())
        samples = sampler.sample_many(1_000)
        assert samples.min() >= 0
        assert samples.max() < 7

    def test_invalid_params(self):
        with pytest.raises(WorkloadError):
            ZipfSampler(0, 1.0, rng())
        with pytest.raises(WorkloadError):
            ZipfSampler(10, -1.0, rng())
        with pytest.raises(WorkloadError):
            ZipfSampler(10, 1.0, rng()).probability(10)


class TestParetoSampler:
    def test_heavy_tail(self):
        sampler = ParetoSampler(rng(), shape=1.2, minimum=10)
        samples = sampler.sample_many(50_000)
        assert samples.min() >= 10
        assert np.median(samples) < samples.mean()  # skewed right

    def test_cap_applied(self):
        sampler = ParetoSampler(rng(), shape=0.5, minimum=10, cap=1000)
        assert sampler.sample_many(10_000).max() <= 1000

    def test_invalid_params(self):
        with pytest.raises(WorkloadError):
            ParetoSampler(rng(), shape=0.0)
        with pytest.raises(WorkloadError):
            ParetoSampler(rng(), minimum=0)


class TestGeoSampler:
    def test_points_inside_bbox(self):
        sampler = HotspotGeoSampler(rng())
        min_lat, min_lon, max_lat, max_lon = sampler.bbox
        for _ in range(500):
            lat, lon = sampler.sample()
            assert min_lat <= lat <= max_lat
            assert min_lon <= lon <= max_lon

    def test_hotspots_denser_than_background(self):
        sampler = HotspotGeoSampler(rng(), background_weight=0.1)
        near_ny = 0
        for _ in range(2_000):
            lat, lon = sampler.sample()
            if abs(lat - 40.71) < 1.0 and abs(lon + 74.0) < 1.0:
                near_ny += 1
        # NY hotspot weight is 30% of the non-background mass.
        assert near_ny > 200

    def test_invalid_params(self):
        with pytest.raises(WorkloadError):
            HotspotGeoSampler(rng(), hotspots=())
        with pytest.raises(WorkloadError):
            HotspotGeoSampler(rng(), background_weight=1.5)


class TestVocabulary:
    def test_generate_distinct(self):
        tags = generate_tags(500, seed=3)
        assert len(tags) == 500
        assert len(set(tags)) == 500

    def test_deterministic(self):
        assert generate_tags(50, seed=9) == generate_tags(50, seed=9)

    def test_rank_roundtrip(self):
        vocab = Vocabulary.synthetic(100)
        for rank in (0, 42, 99):
            assert vocab.rank(vocab.tag(rank)) == rank

    def test_unknown_tag_raises(self):
        vocab = Vocabulary.synthetic(10)
        with pytest.raises(WorkloadError):
            vocab.rank("definitely-not-a-tag")

    def test_duplicates_rejected(self):
        with pytest.raises(WorkloadError):
            Vocabulary(["a", "a"])


class TestCooccurrence:
    def test_companions_deterministic_and_exclude_self(self):
        model = CooccurrenceModel(1000, seed=5)
        for rank in (0, 10, 500):
            companions = model.companions(rank)
            assert companions == model.companions(rank)
            assert rank not in companions
            assert len(set(companions)) == len(companions)

    def test_companions_of_head_are_headish(self):
        model = CooccurrenceModel(10_000, seed=5)
        assert max(model.companions(3)) < 1000

    def test_tiny_vocabulary(self):
        model = CooccurrenceModel(2, companions_per_tag=5)
        assert model.companions(0) == (1,)

    def test_out_of_range_rejected(self):
        with pytest.raises(WorkloadError):
            CooccurrenceModel(10).companions(10)

    def test_sample_companion_in_set(self):
        model = CooccurrenceModel(100, seed=1)
        generator = rng(2)
        for _ in range(20):
            assert model.sample_companion(5, generator) in model.companions(5)


class TestStream:
    def make(self, **overrides):
        defaults = dict(seed=11, vocabulary_size=500, user_count=200,
                        with_locations=False)
        defaults.update(overrides)
        return MicroblogStream(StreamConfig(**defaults))

    def test_deterministic(self):
        a = self.make().take(200)
        b = self.make().take(200)
        assert [r.blog_id for r in a] == [r.blog_id for r in b]
        assert [r.keywords for r in a] == [r.keywords for r in b]

    def test_ids_and_timestamps_increase(self):
        records = self.make().take(100)
        ids = [r.blog_id for r in records]
        assert ids == sorted(ids)
        ts = [r.timestamp for r in records]
        assert ts == sorted(ts)

    def test_arrival_rate_respected(self):
        stream = self.make(arrival_rate_per_second=100.0)
        records = stream.take(101)
        assert records[100].timestamp - records[0].timestamp == pytest.approx(1.0)

    def test_keywords_skewed(self):
        stream = self.make()
        records = stream.take(5_000)
        hot = stream.vocabulary.tag(0)
        cold = stream.vocabulary.tag(400)
        hot_count = sum(1 for r in records if hot in r.keywords)
        cold_count = sum(1 for r in records if cold in r.keywords)
        assert hot_count > 10 * max(1, cold_count)

    def test_keyword_counts_in_range(self):
        records = self.make().take(1_000)
        assert all(1 <= len(r.keywords) <= 3 for r in records)

    def test_locations_when_enabled(self):
        stream = self.make(with_locations=True)
        records = stream.take(50)
        assert all(r.has_location for r in records)

    def test_no_locations_when_disabled(self):
        records = self.make().take(50)
        assert all(not r.has_location for r in records)

    def test_followers_assigned_per_user(self):
        records = self.make().take(2_000)
        by_user = {}
        for r in records:
            by_user.setdefault(r.user_id, set()).add(r.followers)
        assert all(len(f) == 1 for f in by_user.values())

    def test_cooccurrence_shapes_pairs(self):
        """Tag pairs co-occur far more often than independence predicts."""
        stream = self.make(vocabulary_size=2_000, cooccurrence_prob=0.8)
        records = stream.take(20_000)
        vocab = stream.vocabulary
        companions = {
            vocab.tag(c) for c in stream.cooccurrence.companions(0)
        }
        with_hot = [r for r in records if vocab.tag(0) in r.keywords and len(r.keywords) > 1]
        paired = sum(
            1 for r in with_hot if companions & set(r.keywords)
        )
        assert paired > 0.3 * len(with_hot)

    def test_keyword_probability(self):
        stream = self.make()
        assert stream.keyword_probability(stream.vocabulary.tag(0)) > \
            stream.keyword_probability(stream.vocabulary.tag(100))

    def test_records_and_flushes_independent_of_hash_seed(self):
        """String hashing must not reach the records or the flushes.

        Each run generates a stream, digests it through kFlushing with a
        small budget, and prints the records and ``FlushReport``s (wall
        time stripped); runs under different ``PYTHONHASHSEED`` values
        must print the same thing.
        """
        program = textwrap.dedent(
            """
            import dataclasses
            from repro.config import SystemConfig
            from repro.engine.system import MicroblogSystem
            from repro.workload.stream import MicroblogStream, StreamConfig

            stream = MicroblogStream(
                StreamConfig(seed=7, vocabulary_size=500, user_count=200,
                             with_locations=False)
            )
            records = stream.take(6_000)
            system = MicroblogSystem(
                SystemConfig(policy="kflushing", memory_capacity_bytes=200_000)
            )
            system.ingest_many(records)
            print([(r.blog_id, r.user_id, r.keywords) for r in records])
            print([
                {**dataclasses.asdict(f), "wall_seconds": None}
                for f in system.flush_reports()
            ])
            """
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        outputs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-c", program],
                env=env, capture_output=True, text=True, check=True,
            )
            outputs.append(done.stdout)
        assert "phase_freed" in outputs[0]
        # Compare digests: pytest's diff of two differing outputs this
        # long would take minutes to render.
        records, flushes = zip(
            *(
                [hashlib.sha256(line.encode()).hexdigest() for line in out.splitlines()]
                for out in outputs
            )
        )
        assert records[0] == records[1], "records differ across hash seeds"
        assert flushes[0] == flushes[1], "flush reports differ across hash seeds"


class TestQueryLoad:
    def make(self, mode="correlated", attribute="keyword", **overrides):
        stream = MicroblogStream(
            StreamConfig(seed=11, vocabulary_size=500, user_count=200,
                         with_locations=(attribute == "spatial"))
        )
        cfg = QueryLoadConfig(seed=77, mode=mode, attribute=attribute, **overrides)
        return QueryLoad(cfg, stream), stream

    def test_deterministic(self):
        load_a, _ = self.make()
        load_b, _ = self.make()
        a = [q.keys for q in load_a.take(100)]
        b = [q.keys for q in load_b.take(100)]
        assert a == b

    def test_keyword_mix_has_all_modes(self):
        load, _ = self.make()
        modes = {q.mode for q in load.take(300)}
        assert modes == {CombineMode.SINGLE, CombineMode.AND, CombineMode.OR}

    def test_mix_fractions_roughly_respected(self):
        load, _ = self.make()
        queries = load.take(3_000)
        singles = sum(1 for q in queries if q.mode is CombineMode.SINGLE)
        assert 800 < singles < 1200

    def test_correlated_prefers_hot_tags(self):
        load, stream = self.make(mode="correlated")
        hot = stream.vocabulary.tag(0)
        queries = load.take(3_000)
        hot_hits = sum(1 for q in queries if hot in q.keys)
        assert hot_hits > 50

    def test_uniform_spreads_evenly(self):
        load, stream = self.make(mode="uniform")
        queries = load.take(3_000)
        hot = stream.vocabulary.tag(0)
        hot_hits = sum(1 for q in queries if hot in q.keys)
        # Uniform over 500 tags with ~1.3 keys/query -> ~8 expected.
        assert hot_hits < 40

    def test_user_queries_single_key(self):
        load, _ = self.make(attribute="user")
        queries = load.take(100)
        assert all(q.mode is CombineMode.SINGLE for q in queries)
        assert all(isinstance(q.keys[0], int) for q in queries)

    def test_spatial_queries_are_tiles(self):
        load, _ = self.make(attribute="spatial")
        queries = load.take(100)
        assert all(q.mode is CombineMode.SINGLE for q in queries)
        assert all(isinstance(q.keys[0], tuple) for q in queries)

    def test_pair_keys_distinct(self):
        load, _ = self.make()
        for q in load.take(500):
            assert len(set(q.keys)) == len(q.keys)

    def test_invalid_config(self):
        with pytest.raises(WorkloadError):
            QueryLoadConfig(mode="bogus")
        with pytest.raises(WorkloadError):
            QueryLoadConfig(attribute="bogus")
        with pytest.raises(WorkloadError):
            QueryLoadConfig(k=0)
        with pytest.raises(WorkloadError):
            QueryLoadConfig(mix=(0.5, 0.5, 0.5))

    def test_take_negative_rejected(self):
        load, _ = self.make()
        with pytest.raises(WorkloadError):
            load.take(-1)
