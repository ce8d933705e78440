"""Workload ``pipeline-small``: seed → Eq. (3) tag table, then a resume.

Each op is one crash-safe ``run_pipeline(config, workdir=<fresh dir>)``
on the ``small`` preset with its own universe seed: universe,
exhaustive snowball crawl, paper filter, Eq. (1)–(3) and every stage
artifact. Each op is followed by a read op, a resumed ``run_pipeline``
on the same workdir that loads all four stages from disk. Items are
universe videos.
"""

from __future__ import annotations

import dataclasses
import hashlib
import shutil
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

import repro.engine as engine_pkg
import repro.pipeline as pipeline_mod
from repro.api.service import YoutubeService
from repro.crawler import snowball
from repro.crawler.snowball import SnowballCrawler
from repro.datamodel.dataset import Dataset
from repro.durability import artifacts
from repro.durability.journal import CheckpointJournal
from repro.engine import compute
from repro.pipeline import PIPELINE_STAGES, PipelineConfig, run_pipeline
from repro.reconstruct.tagviews import TagViewsTable
from repro.synth.presets import preset_config

from harness import Patches, Region, Tracer, bits_equal, clock, derive_seed, tree_bytes

NAME = "pipeline-small"


def table_digest(tags: Sequence[str], matrix) -> str:
    """sha256 over an Eq. (3) table's tag names and float64 bytes."""
    h = hashlib.sha256("\n".join(tags).encode("utf-8"))
    h.update(np.ascontiguousarray(matrix, dtype=np.float64).tobytes())
    return h.hexdigest()


def check_resume(
    cold_tags, cold_matrix, resumed_tags, resumed_matrix, skipped
) -> Optional[str]:
    """Gate: a resume skips every stage and reproduces the cold table
    bit for bit. Returns a failure message, or None."""
    if tuple(skipped) != PIPELINE_STAGES:
        return f"resume skipped {tuple(skipped)}, expected {PIPELINE_STAGES}"
    if list(cold_tags) != list(resumed_tags):
        return "resumed tag vocabulary differs from the cold run"
    if not bits_equal(cold_matrix, resumed_matrix):
        return "resumed Eq. (3) table is not bit-identical to the cold run"
    return None


@dataclasses.dataclass
class _OpRecord:
    seed: int
    cold_tags: List[str]
    cold_matrix: object
    resumed_tags: List[str]
    resumed_matrix: object
    skipped: tuple


class Workload:
    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.records: List[_OpRecord] = []
        self._next_op = 0

    def prepare(self) -> None:
        self.base = preset_config("small")
        self.root = self.workdir / "ops"
        if self.root.exists():
            shutil.rmtree(self.root)
        self.root.mkdir(parents=True)

    def _config(self, label) -> PipelineConfig:
        seed = derive_seed(self.seed, NAME, label)
        return PipelineConfig(universe=dataclasses.replace(self.base, seed=seed))

    def warm_up(self) -> None:
        config = self._config("warm-up")
        workdir = self.root / "warm-up"
        run_pipeline(config, workdir=workdir)
        run_pipeline(config, workdir=workdir)
        shutil.rmtree(workdir)

    def run(self, seconds: float, region: Region, tracer: Optional[Tracer]) -> None:
        start = clock()
        while clock() - start < seconds:
            self._op(region)

    def _op(self, region: Region) -> None:
        index = self._next_op
        self._next_op += 1
        config = self._config(index)
        workdir = self.root / f"op-{index}"
        t0 = clock()
        cold = run_pipeline(config, workdir=workdir)
        region.add_op(clock() - t0)
        t0 = clock()
        resumed = run_pipeline(config, workdir=workdir)
        region.add_read(clock() - t0)
        region.items += len(cold.universe)
        region.attempted += 2
        region.counts["crawler.retries"] += cold.crawl.stats.transient_errors
        region.counts["videos_recorded"] += len(cold.crawl.dataset)
        region.counts["durability.bytes_written"] += tree_bytes(workdir)
        self.records.append(
            _OpRecord(
                seed=config.universe.seed,
                cold_tags=cold.tag_table.tags(),
                cold_matrix=cold.tag_table.views_matrix(),
                resumed_tags=resumed.tag_table.tags(),
                resumed_matrix=resumed.tag_table.views_matrix(),
                skipped=resumed.stages_skipped,
            )
        )

    def install(self, patches: Patches) -> None:
        wrap = patches.wrap
        wrap(pipeline_mod, "build_universe", "synth.build")
        wrap(pipeline_mod, "save_universe", "synth.io")
        wrap(pipeline_mod, "load_universe", "synth.io")
        wrap(SnowballCrawler, "run", "crawler.run")
        for method in ("get_video", "related_videos", "most_popular"):
            wrap(YoutubeService, method, "api")
        wrap(snowball, "parse_map_chart_url", "chartmap.decode", count=False)
        wrap(snowball, "popularity_from_chart", "chartmap.decode")
        wrap(pipeline_mod, "write_videos_jsonl", "datamodel.io")
        wrap(pipeline_mod, "read_videos_jsonl", "datamodel.io")
        wrap(Dataset, "apply_paper_filter", "datamodel.filter")
        wrap(engine_pkg, "build_columnar", "engine.build_columnar")
        wrap(engine_pkg, "save_columnar", "engine.npz")
        wrap(engine_pkg, "load_columnar", "engine.npz")
        wrap(TagViewsTable, "from_columnar", "reconstruct.tag_table")
        wrap(compute, "reconstruct_all", "engine.kernels")
        wrap(compute, "tag_segment_sums", "engine.kernels")
        wrap(artifacts, "verify_or_quarantine", "durability.verify")
        wrap(artifacts, "persist_file", "durability.persist")
        wrap(artifacts, "atomic_write_text", "durability.persist")
        for method in (
            "__init__", "append_batch", "write_snapshot", "maybe_compact",
            "load", "close", "reset",
        ):
            wrap(CheckpointJournal, method, "durability.journal")

    def layer_metrics(self, tracer: Tracer, region: Region) -> dict:
        api_calls = tracer.calls["api"]
        return {
            "synth.build_s": tracer.busy["synth.build"],
            "synth.io_s": tracer.busy["synth.io"],
            "crawler.run_s": tracer.inclusive["crawler.run"],
            "crawler.self_s": tracer.busy["crawler.run"],
            "api.busy_s": tracer.busy["api"],
            "api.calls": api_calls,
            "chartmap.decode_s": tracer.busy["chartmap.decode"],
            "chartmap.decodes": tracer.calls["chartmap.decode"],
            "crawler.retries": region.counts["crawler.retries"],
            "crawler.yield": (
                region.counts["videos_recorded"] / api_calls if api_calls else 0.0
            ),
            "datamodel.io_s": tracer.busy["datamodel.io"],
            "datamodel.filter_s": tracer.busy["datamodel.filter"],
            "engine.build_columnar_s": tracer.busy["engine.build_columnar"],
            "engine.npz_s": tracer.busy["engine.npz"],
            "engine.kernels_s": tracer.busy["engine.kernels"],
            "reconstruct.tag_table_s": tracer.busy["reconstruct.tag_table"],
            "durability.journal_s": tracer.busy["durability.journal"],
            "durability.verify_s": tracer.busy["durability.verify"],
            "durability.persist_s": tracer.busy["durability.persist"],
            "durability.bytes_written": region.counts["durability.bytes_written"],
        }

    def check(self) -> tuple:
        """Run the gates over every op; returns (failures, details)."""
        failures, digests = [], {}
        for record in self.records:
            problem = check_resume(
                record.cold_tags, record.cold_matrix,
                record.resumed_tags, record.resumed_matrix, record.skipped,
            )
            if problem:
                failures.append(f"seed {record.seed}: {problem}")
            digests[str(record.seed)] = table_digest(
                record.cold_tags, record.cold_matrix
            )
        return failures, {"table_sha256": digests}
