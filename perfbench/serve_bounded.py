"""Workload ``serve-small-bounded``: cohort-rollout trace on bounded edges.

The ``small`` catalogue launches in 8 cohorts. Wave *w* serves mostly
cohort *w*, and every 3rd request samples the launched backlog. Eight
replicas in the top markets serve it under the Eq. (3) tags planner,
re-warmed at each wave boundary, with bounded replica capacity, hedged
requests and an admission gate, on the virtual-time loop. Each op is
one ``serve_trace`` call over a fixed block of pre-generated requests at
``concurrency=64`` (the op that opens a wave includes its re-warm).
Every pass over the trace starts from a fresh cluster, and passes run
whole, so every run times the same mix of blocks. Items are offered
requests; shed and failed requests count as failed.
"""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np

from repro.pipeline import PipelineConfig, run_pipeline
from repro.placement.cache import LRUCache
from repro.placement.predictor import TagGeoPredictor
from repro.placement.workload import WorkloadGenerator
from repro.serving import (
    AdmissionPolicy,
    EdgeCluster,
    HedgePolicy,
    ServingReport,
    TagAwarePlanner,
    run_virtual,
)
from repro.synth.presets import preset_config
from repro.world.traffic import default_traffic_model

from harness import Patches, Region, Tracer, clock, derive_seed

NAME = "serve-small-bounded"
WAVES = 8
REQUESTS_PER_WAVE = 6_400
BLOCK = 256
BACKLOG_EVERY = 3
CONCURRENCY = 64
REPLICAS = 8
CAPACITY_FRAC = 0.10
REPLICAS_PER_VIDEO = 6
LAST_MILE_KM = 400.0
REPLICA_CONCURRENCY = 12
#: Deep enough that no request is shed at this client concurrency.
REPLICA_QUEUE_DEPTH = 48
REPLICA_SERVICE_SECONDS = 0.005
MAX_INFLIGHT = 512

#: ServingReport counters summed into per-layer metrics.
REPORT_COUNTERS = (
    "local_hits", "remote_hits", "origin_fetches", "retries", "reroutes",
    "hedges", "hedge_wins", "shed", "queued", "overload_rejections",
)


def report_digest(report: ServingReport) -> str:
    """Short sha256 of every field of a block's report."""
    text = repr(dataclasses.astuple(report))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def check_block(offered: int, report: ServingReport) -> Optional[str]:
    """Gate: every offered request of a block was served or shed exactly
    once, and none failed. Returns a failure message, or None."""
    if report.offered != offered:
        return f"gate saw {report.offered} requests, {offered} were offered"
    if report.requests + report.shed != offered:
        return (
            f"{report.requests} served + {report.shed} shed != "
            f"{offered} offered"
        )
    if report.failed:
        return f"{report.failed} requests failed"
    return None


class TimedLRUCache(LRUCache):
    """An LRU edge cache that charges its public calls to a tracer."""

    def __init__(self, capacity: int, tracer: Tracer):
        super().__init__(capacity)
        self._tracer = tracer

    def _timed(self, method, *args):
        self._tracer.enter("placement.cache")
        try:
            return method(*args)
        finally:
            self._tracer.exit()

    def request(self, video_id):
        return self._timed(super().request, video_id)

    def admit(self, video_id):
        return self._timed(super().admit, video_id)

    def pin(self, video_id):
        return self._timed(super().pin, video_id)

    def contents(self):
        return self._timed(super().contents)

    def clear(self):
        return self._timed(super().clear)


class Workload:
    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        #: Per pass, the (offered, report) of every block served.
        self.passes: List[List[tuple]] = []

    def prepare(self) -> None:
        universe_seed = derive_seed(self.seed, NAME, "universe")
        trace_seed = derive_seed(self.seed, NAME, "trace")
        pipeline = run_pipeline(
            PipelineConfig(
                universe=dataclasses.replace(
                    preset_config("small"), seed=universe_seed
                )
            )
        )
        self.dataset = pipeline.dataset
        self.registry = pipeline.tag_table.registry
        self.predictor = TagGeoPredictor(pipeline.tag_table)
        self.markets = EdgeCluster.top_markets(
            default_traffic_model(self.registry), REPLICAS
        )
        self.capacity = max(4, int(len(self.dataset) * CAPACITY_FRAC))
        self.admission_seed = trace_seed

        videos = {video.video_id: video for video in self.dataset}
        ids = np.array(sorted(videos))
        np.random.default_rng(trace_seed).shuffle(ids)
        cohort_ids = [list(c) for c in np.array_split(ids, WAVES)]
        self.cohorts = [[videos[i] for i in cohort] for cohort in cohort_ids]
        requests = []
        for wave, cohort in enumerate(cohort_ids):
            hot = WorkloadGenerator(
                pipeline.universe, cohort, seed=derive_seed(trace_seed, "hot", wave)
            ).iter_requests(REQUESTS_PER_WAVE, stream=wave)
            launched = [v for c in cohort_ids[: wave + 1] for v in c]
            backlog = WorkloadGenerator(
                pipeline.universe, launched,
                seed=derive_seed(trace_seed, "backlog", wave),
            ).iter_requests(REQUESTS_PER_WAVE, stream=wave)
            for i in range(REQUESTS_PER_WAVE):
                source = backlog if i % BACKLOG_EVERY == BACKLOG_EVERY - 1 else hot
                requests.append(next(source))
        self.blocks = [
            requests[i : i + BLOCK] for i in range(0, len(requests), BLOCK)
        ]
        self.blocks_per_wave = REQUESTS_PER_WAVE // BLOCK

    def _cluster(self, tracer: Optional[Tracer] = None) -> EdgeCluster:
        cache_factory: Optional[Callable] = None
        if tracer is not None:
            capacity = self.capacity
            cache_factory = lambda: TimedLRUCache(capacity, tracer)
        return EdgeCluster(
            self.dataset,
            self.registry,
            self.markets,
            capacity=self.capacity,
            planner=TagAwarePlanner(
                self.predictor, replicas_per_video=REPLICAS_PER_VIDEO
            ),
            cache_factory=cache_factory,
            last_mile_km=LAST_MILE_KM,
            replica_concurrency=REPLICA_CONCURRENCY,
            replica_queue_depth=REPLICA_QUEUE_DEPTH,
            replica_service_seconds=REPLICA_SERVICE_SECONDS,
            hedge=HedgePolicy(),
            admission=AdmissionPolicy(
                max_inflight=MAX_INFLIGHT, seed=self.admission_seed
            ),
        )

    def warm_up(self) -> None:
        async def main():
            cluster = self._cluster()
            await cluster.warm(self.cohorts[0])
            await cluster.serve_trace(self.blocks[0], concurrency=CONCURRENCY)

        run_virtual(main())

    def run(self, seconds: float, region: Region, tracer: Optional[Tracer]) -> None:
        start = clock()
        while clock() - start < seconds:
            # A fresh virtual loop per pass starts its clock at zero, so
            # every pass replays the same virtual timeline.
            run_virtual(self._pass(region, tracer))

    async def _pass(self, region: Region, tracer: Optional[Tracer]) -> None:
        cluster = self._cluster(tracer)
        blocks: List[tuple] = []
        self.passes.append(blocks)
        for index, block in enumerate(self.blocks):
            t0 = clock()
            if index % self.blocks_per_wave == 0:
                wave = index // self.blocks_per_wave
                region.counts["placed"] += await cluster.warm(self.cohorts[wave])
            report = await cluster.serve_trace(block, concurrency=CONCURRENCY)
            region.add_op(clock() - t0)
            blocks.append((len(block), report))
            region.items += len(block)
            region.attempted += len(block)
            region.failed += report.shed + report.failed
            for name in REPORT_COUNTERS:
                region.counts[name] += getattr(report, name)
            region.counts["requests"] += report.requests

    def install(self, patches: Patches) -> None:
        patches.wrap(EdgeCluster, "warm", "serving.warm")
        patches.wrap(EdgeCluster, "serve_trace", "serving.serve")

    def layer_metrics(self, tracer: Tracer, region: Region) -> dict:
        counts = region.counts
        metrics = {
            "serving.warm_s": tracer.busy["serving.warm"],
            "serving.placed": counts["placed"],
            "serving.serve_s": tracer.busy["serving.serve"],
            "placement.cache_s": tracer.busy["placement.cache"],
            "placement.cache_ops": tracer.calls["placement.cache"],
            "serving.hit_ratio": (
                counts["local_hits"] / counts["requests"] if counts["requests"] else 0.0
            ),
        }
        for name in REPORT_COUNTERS:
            metrics[f"serving.{name}"] = counts[name]
        return metrics

    def check(self) -> tuple:
        failures, digests = [], []
        for number, blocks in enumerate(self.passes):
            pass_digests = []
            for index, (offered, report) in enumerate(blocks):
                problem = check_block(offered, report)
                if problem:
                    failures.append(f"pass {number} block {index}: {problem}")
                pass_digests.append(report_digest(report))
            digests.append(pass_digests)
        # Every pass replays the same trace on a fresh cluster and a fresh
        # virtual clock, so block reports must repeat exactly.
        for number, pass_digests in enumerate(digests[1:], start=1):
            if pass_digests != digests[0]:
                failures.append(f"pass {number} block reports differ from pass 0")
        return failures, {
            "block_report_digests": digests[0] if digests else [],
            "passes": len(digests),
        }
