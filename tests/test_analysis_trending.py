"""Trending detector: exact decay math over the engine's delta flow.

The half-life decay uses ``2^(−Δt / half_life)``, so waiting exactly one
half-life must halve a score *bitwise* (``exp2(-1) == 0.5``) — the tests
lean on that to check the lazy-decay bookkeeping without tolerances.
A plain-Python reference detector, which keeps per-tag rates and decays
them eagerly, pins the query-time tag sums on a real delta stream.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.analysis.trending import TrendingDetector
from repro.engine.incremental import ApplyResult, DeltaBatch, IncrementalEngine
from repro.errors import AnalysisError
from repro.synth.temporal import TemporalUniverse, temporal_preset

US_POP = {"US": 5}


def _engine_with_videos():
    """Two eligible videos: vid A (US-only) tagged music+live, B (JP) music."""
    engine = IncrementalEngine()
    engine.apply(
        DeltaBatch(
            timestamp=0.0,
            new_video_ids=np.array(["videoAAAAAA", "videoBBBBBB"]),
            new_views=np.array([0, 0], dtype=np.int64),
            new_pop=np.stack(
                [_pop({"US": 5}), _pop({"JP": 3})]
            ),
            new_tag_indptr=np.array([0, 2, 3], dtype=np.int64),
            new_tags=np.array(["music", "live", "music"]),
        )
    )
    return engine


def _pop(intensities):
    from repro.world.countries import default_registry

    codes = default_registry().codes()
    row = np.zeros(len(codes), dtype=np.float64)
    for code, value in intensities.items():
        row[codes.index(code)] = value
    return row


def _delta(engine, timestamp, vid, views):
    return engine.apply(
        DeltaBatch(
            timestamp=timestamp,
            video_ids=np.array([vid]),
            view_deltas=np.array([views], dtype=np.int64),
        )
    )


def _tick(engine, timestamp):
    """An empty batch: advances time, moves nothing."""
    return engine.apply(DeltaBatch(timestamp=timestamp))


class TestValidation:
    def test_nonpositive_half_life_raises(self):
        engine = IncrementalEngine()
        with pytest.raises(AnalysisError, match="half_life"):
            TrendingDetector(engine, half_life=0.0)

    def test_time_backwards_raises(self):
        engine = _engine_with_videos()
        detector = TrendingDetector(engine, half_life=10.0)
        detector.update(_delta(engine, 5.0, "videoAAAAAA", 1))
        fake = ApplyResult(
            timestamp=1.0,
            touched_rows=np.empty(0, dtype=np.int64),
            row_views_added=np.empty(0, dtype=np.int64),
            touched_tags=np.empty(0, dtype=np.int64),
            n_deltas=0,
            n_deltas_ignored=0,
            n_new_videos=0,
            n_new_videos_skipped=0,
            n_new_tags=0,
            n_tags_deferred=0,
        )
        with pytest.raises(AnalysisError, match="time ran backwards"):
            detector.update(fake)

    def test_unknown_country_raises(self):
        engine = _engine_with_videos()
        detector = TrendingDetector(engine, half_life=10.0)
        detector.update(_delta(engine, 1.0, "videoAAAAAA", 1))
        with pytest.raises(AnalysisError, match="unknown country"):
            detector.top_tags("XX")

    def test_negative_count_raises(self):
        engine = _engine_with_videos()
        detector = TrendingDetector(engine, half_life=10.0)
        with pytest.raises(AnalysisError, match="count"):
            detector.top_videos(count=-1)


class TestDecayMath:
    def test_impulse_lands_in_estimate_share_country(self):
        engine = _engine_with_videos()
        detector = TrendingDetector(engine, half_life=100.0)
        detector.update(_delta(engine, 0.0, "videoAAAAAA", 100))
        assert detector.video_scores("US")[0] == 100.0
        assert detector.video_scores("JP")[0] == 0.0
        assert detector.video_scores()[0] == 100.0

    def test_one_half_life_halves_exactly(self):
        engine = _engine_with_videos()
        detector = TrendingDetector(engine, half_life=50.0)
        detector.update(_delta(engine, 0.0, "videoAAAAAA", 100))
        detector.update(_tick(engine, 50.0))
        assert detector.video_scores("US")[0] == 50.0
        assert detector.tag_scores("US")[engine.tag_id("music")] == 50.0

    def test_accumulation_decays_older_impulses(self):
        engine = _engine_with_videos()
        detector = TrendingDetector(engine, half_life=50.0)
        detector.update(_delta(engine, 0.0, "videoAAAAAA", 100))
        detector.update(_delta(engine, 50.0, "videoAAAAAA", 100))
        assert detector.video_scores("US")[0] == 150.0

    def test_tags_inherit_member_impulses(self):
        engine = _engine_with_videos()
        detector = TrendingDetector(engine, half_life=100.0)
        detector.update(_delta(engine, 0.0, "videoAAAAAA", 40))
        detector.update(_delta(engine, 0.0, "videoBBBBBB", 60))
        # "music" tags both videos; "live" only the US one.
        assert detector.tag_scores()[engine.tag_id("music")] == 100.0
        assert detector.tag_scores()[engine.tag_id("live")] == 40.0
        assert detector.tag_scores("JP")[engine.tag_id("music")] == 60.0

    def test_uniform_fallback_when_estimate_row_is_zero(self):
        engine = _engine_with_videos()
        detector = TrendingDetector(engine, half_life=100.0)
        fake = ApplyResult(
            timestamp=0.0,
            touched_rows=np.array([0], dtype=np.int64),
            row_views_added=np.array([62], dtype=np.int64),
            touched_tags=np.empty(0, dtype=np.int64),
            n_deltas=1,
            n_deltas_ignored=0,
            n_new_videos=0,
            n_new_videos_skipped=0,
            n_new_tags=0,
            n_tags_deferred=0,
        )
        detector.update(fake)  # row 0 has views=0, est row all zeros
        scores = detector._video_rate[0]
        assert np.all(scores == 62 / engine.n_countries)


class TestQueries:
    def test_empty_detector_scores_are_zero(self):
        engine = _engine_with_videos()
        detector = TrendingDetector(engine, half_life=10.0)
        assert np.all(detector.video_scores() == 0.0)
        assert detector.top_videos() == []
        assert detector.top_tags() == []
        assert np.all(detector.demand_vector() == 0.0)

    def test_ranking_excludes_zero_scores(self):
        engine = _engine_with_videos()
        detector = TrendingDetector(engine, half_life=10.0)
        detector.update(_delta(engine, 0.0, "videoAAAAAA", 10))
        names = [vid for vid, _ in detector.top_videos(count=10)]
        assert names == ["videoAAAAAA"]

    def test_ranking_order_and_count_clamp(self):
        engine = _engine_with_videos()
        detector = TrendingDetector(engine, half_life=10.0)
        detector.update(_delta(engine, 0.0, "videoAAAAAA", 10))
        detector.update(_delta(engine, 0.0, "videoBBBBBB", 99))
        top = detector.top_videos(count=1)
        assert top == [("videoBBBBBB", 99.0)]
        tags = detector.top_tags(count=99)
        assert tags[0][0] == "music"
        assert detector.top_videos(count=0) == []

    def test_demand_vector_totals_views(self):
        engine = _engine_with_videos()
        detector = TrendingDetector(engine, half_life=100.0)
        detector.update(_delta(engine, 0.0, "videoAAAAAA", 70))
        detector.update(_delta(engine, 0.0, "videoBBBBBB", 30))
        demand = detector.demand_vector()
        codes = engine.codes
        assert demand[codes.index("US")] == 70.0
        assert demand[codes.index("JP")] == 30.0
        assert demand.sum() == 100.0

    def test_detector_follows_new_arrivals(self):
        engine = _engine_with_videos()
        detector = TrendingDetector(engine, half_life=100.0)
        detector.update(_delta(engine, 0.0, "videoAAAAAA", 5))
        result = engine.apply(
            DeltaBatch(
                timestamp=1.0,
                new_video_ids=np.array(["videoCCCCCC"]),
                new_views=np.array([500], dtype=np.int64),
                new_pop=_pop({"BR": 9})[None, :],
                new_tag_indptr=np.array([0, 1], dtype=np.int64),
                new_tags=np.array(["samba"]),
            )
        )
        detector.update(result)
        assert detector.top_videos("BR") == [("videoCCCCCC", 500.0)]
        assert detector.top_tags("BR")[0][0] == "samba"
        assert detector.batches_observed == 2


class ReferenceTrending:
    """Per-video and per-tag ``{country: rate}`` dicts, decayed eagerly.

    Every batch first multiplies every stored rate by
    ``2 ** (-Δt / half_life)``, then adds each moving row's per-country
    impulse to the row and to each of its tags — the textbook form of
    what :class:`TrendingDetector` computes lazily.
    """

    def __init__(self, engine, half_life):
        self.engine = engine
        self.half_life = half_life
        self.videos = {}
        self.tags = {}
        self.now = None

    def update(self, result):
        if self.now is not None:
            factor = 2.0 ** (-(result.timestamp - self.now) / self.half_life)
            for table in (self.videos, self.tags):
                for rates in table.values():
                    for code in rates:
                        rates[code] *= factor
        self.now = result.timestamp
        codes = self.engine.codes
        for row, added in zip(
            result.touched_rows.tolist(), result.row_views_added.tolist()
        ):
            if added <= 0:
                continue
            est = self.engine.est[row].tolist()
            total = sum(est)
            impulse = {
                code: added * (value / total if total > 0 else 1.0 / len(est))
                for code, value in zip(codes, est)
            }
            targets = [self.videos.setdefault(row, {})] + [
                self.tags.setdefault(tag, {})
                for tag in self.engine.video_tags(row).tolist()
            ]
            for rates in targets:
                for code, weight in impulse.items():
                    if weight > 0.0:
                        rates[code] = rates.get(code, 0.0) + weight

    @staticmethod
    def top(table, name_of, country, count=10):
        scored = []
        for key, rates in table.items():
            score = sum(rates.values()) if country is None else rates.get(country, 0.0)
            if score > 0.0:
                scored.append((-score, key))
        return [(name_of(key), -neg) for neg, key in sorted(scored)[:count]]


def _assert_same_ranking(got, want):
    assert [name for name, _ in got] == [name for name, _ in want]
    for (_, score), (_, expected) in zip(got, want):
        assert score == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestReferenceOracle:
    def test_small_temporal_stream_matches_eager_reference(self):
        config, temporal = temporal_preset("small-temporal")
        stream = TemporalUniverse(config, temporal)
        engine = IncrementalEngine()
        half_life = 4.0 * temporal.step_seconds
        detector = TrendingDetector(engine, half_life=half_life)
        reference = ReferenceTrending(engine, half_life)
        checked = 0
        for index, batch in enumerate(stream.iter_batches()):
            result = engine.apply(batch)
            detector.update(result)
            reference.update(result)
            if index % 4 != 3:
                continue
            checked += 1
            for country in (None, "US", "BR", "IN", "DE"):
                _assert_same_ranking(
                    detector.top_tags(country),
                    reference.top(reference.tags, engine.tag_name, country),
                )
            _assert_same_ranking(
                detector.top_videos(),
                reference.top(reference.videos, engine.video_id, None),
            )
        assert checked == 12

        # Tag scores are exactly their members' video scores, summed.
        for country in (None, "US", "BR", "IN", "DE"):
            videos = detector.video_scores(country)
            member_sums = np.array(
                [videos[engine.tag_members(t)].sum() for t in range(engine.n_tags)]
            )
            np.testing.assert_allclose(
                detector.tag_scores(country), member_sums, rtol=1e-12, atol=0.0
            )


def _full_sort_rank(scores, count):
    order = np.argsort(-scores, kind="stable")[:count]
    return order[scores[order] > 0.0]


#: Few distinct integer values, so most scores tie; includes all-zero.
tied_scores = st.lists(st.integers(min_value=0, max_value=3), max_size=40)
spread_scores = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False), max_size=40
)


class TestRankProperty:
    @given(
        values=st.one_of(tied_scores, spread_scores),
        count=st.one_of(
            st.sampled_from((0, 1, "n", "n+5")), st.integers(0, 50)
        ),
    )
    @example(values=[], count=0)
    @example(values=[], count="n+5")
    @example(values=[0, 0, 0, 0], count="n")
    @example(values=[2, 1, 2, 2, 0, 2], count=2)
    def test_rank_is_the_full_stable_sort_prefix(self, values, count):
        scores = np.array(values, dtype=np.float64)
        n = len(scores)
        count = {"n": n, "n+5": n + 5}.get(count, count)
        got = TrendingDetector._rank(scores, count)
        assert got.tolist() == _full_sort_rank(scores, count).tolist()

    @given(
        values=tied_scores, count=st.integers(max_value=-1)
    )
    def test_negative_count_raises(self, values, count):
        with pytest.raises(AnalysisError, match="count"):
            TrendingDetector._rank(np.array(values, dtype=np.float64), count)
