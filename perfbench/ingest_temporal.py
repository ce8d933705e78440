"""Workload ``ingest-medium-temporal``: delta ingest with interleaved reads.

The whole ``medium-temporal`` horizon (256 batches, ~0.5M view deltas
over the 40k-video corpus) is streamed through a fresh
``IncrementalEngine`` per pass. Each op is ``engine.apply(batch)``
followed by ``TrendingDetector.update``. Every 4th batch also issues a
read op: the Eq. (3) table (which flushes the deferred Zipf-head tags),
the entropy column, the global and four per-country trending tag
rankings, and the trending videos. Passes run whole, so every run
times the same mix of batches. Items are view deltas.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Optional

from repro.analysis.trending import TrendingDetector
from repro.engine.incremental import IncrementalEngine, cold_rebuild
from repro.synth.temporal import TemporalUniverse, temporal_preset

from harness import Patches, Region, Tracer, bits_equal, clock, derive_seed

NAME = "ingest-medium-temporal"
PRESET = "medium-temporal"
READ_EVERY = 4
READ_COUNTRIES = ("US", "BR", "IN", "DE")


def check_ingest(engine_state, oracle_state):
    """Gate: ``(tags, tag_views, est)`` after the stream equal a cold
    rebuild of the cumulative snapshot, bit for bit. Returns a failure
    message, or None."""
    tags, tag_views, est = engine_state
    oracle_tags, oracle_views, oracle_est = oracle_state
    if tuple(tags) != tuple(oracle_tags):
        return "tag vocabulary differs from the cold rebuild"
    if not bits_equal(tag_views, oracle_views):
        return "Eq. (3) table is not bit-identical to the cold rebuild"
    if not bits_equal(est, oracle_est):
        return "Eq. (1)-(2) estimates are not bit-identical to the cold rebuild"
    return None


class Workload:
    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.universe_seed = derive_seed(seed, NAME)
        self.last_engine = None

    def prepare(self) -> None:
        config, temporal = temporal_preset(PRESET)
        self.stream = TemporalUniverse(
            dataclasses.replace(config, seed=self.universe_seed), temporal
        )
        self.batches = list(self.stream.iter_batches())
        self.half_life = 4.0 * temporal.step_seconds

    def _fresh(self):
        engine = IncrementalEngine(track_metrics=True)
        return engine, TrendingDetector(engine, half_life=self.half_life)

    def warm_up(self) -> None:
        engine, detector = self._fresh()
        detector.update(engine.apply(self.batches[0]))

    def run(self, seconds: float, region: Region, tracer: Optional[Tracer]) -> None:
        start = clock()
        while clock() - start < seconds:
            self.last_engine = None  # let the previous pass go first
            self.last_engine = self._pass(region)

    def _pass(self, region: Region) -> IncrementalEngine:
        engine, detector = self._fresh()
        for index, batch in enumerate(self.batches):
            t0 = clock()
            detector.update(engine.apply(batch))
            region.add_op(clock() - t0)
            region.items += batch.n_deltas
            if index % READ_EVERY == READ_EVERY - 1:
                t0 = clock()
                engine.tag_views
                engine.metric("entropy")
                detector.top_tags()
                for country in READ_COUNTRIES:
                    detector.top_tags(country)
                detector.top_videos()
                region.add_read(clock() - t0)
        region.attempted += len(self.batches) + len(self.batches) // READ_EVERY
        for name in (
            "deltas_applied", "rows_recomputed", "tag_rows_recomputed",
            "tag_rows_deferred", "flushes",
        ):
            region.counts[name] += getattr(engine, name)
        return engine

    def install(self, patches: Patches) -> None:
        wrap = patches.wrap
        wrap(IncrementalEngine, "apply", "engine.apply")
        wrap(IncrementalEngine, "flush", "engine.flush")
        wrap(IncrementalEngine, "metric", "engine.metric")
        wrap(TrendingDetector, "update", "analysis.trending_update")
        wrap(TrendingDetector, "top_tags", "analysis.trending_query")
        wrap(TrendingDetector, "top_videos", "analysis.trending_query")

    def layer_metrics(self, tracer: Tracer, region: Region) -> dict:
        counts = region.counts
        return {
            "engine.apply_s": tracer.busy["engine.apply"],
            "engine.deltas": counts["deltas_applied"],
            "engine.rows_touched": counts["rows_recomputed"],
            "engine.tag_rows_recomputed": counts["tag_rows_recomputed"],
            "engine.tag_rows_deferred": counts["tag_rows_deferred"],
            "engine.flush_s": tracer.busy["engine.flush"],
            "engine.flushes": counts["flushes"],
            "engine.metric_s": tracer.busy["engine.metric"],
            "analysis.trending_update_s": tracer.busy["analysis.trending_update"],
            "analysis.trending_query_s": tracer.busy["analysis.trending_query"],
        }

    def check(self) -> tuple:
        engine = self.last_engine
        oracle = cold_rebuild(
            *self.stream.snapshot_eligible(), reconstructor=engine.reconstructor
        )
        problem = check_ingest(
            (engine.tags, engine.tag_views, engine.est),
            (oracle.tags, oracle.tag_views, oracle.est),
        )
        details = {
            "batches": len(self.batches),
            "deltas_per_pass": sum(batch.n_deltas for batch in self.batches),
            "videos": engine.n_videos,
            "tags": engine.n_tags,
        }
        return ([problem] if problem else []), details
