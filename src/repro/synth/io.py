"""Universe persistence: save and reload generated worlds.

A universe is deterministic given its config, but generation cost grows
with size (the ``large`` preset takes minutes) and experiments often want
to ship a world between processes or machines. The format is gzipped
JSON-lines:

- line 1: header — format marker, version, and the full
  :class:`~repro.synth.universe.UniverseConfig`;
- one line per video: observable record *plus* the ground-truth
  per-country share vector.

On load, the tag vocabulary (which is cheap) is regenerated
deterministically from the stored config, while the videos — the
expensive part — come from the file. ``load_universe(save_universe(u))``
is behaviourally identical to ``u`` (asserted by the test suite).
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.datamodel.popularity import PopularityVector
from repro.errors import DatasetIOError
from repro.synth.geo_profiles import GeoProfileFactory
from repro.synth.rng import spawn_rng
from repro.synth.tagmodel import TagVocabulary
from repro.synth.universe import Universe, UniverseConfig
from repro.synth.videomodel import SynthVideo
from repro.world.countries import default_registry
from repro.world.traffic import default_traffic_model

FORMAT_MARKER = "repro-universe"
FORMAT_VERSION = 1

#: gzip level for :func:`save_universe`. On the ``small`` preset (2-vCPU
#: host), level 1 cuts a save from 1.15 s to 0.44 s (JSON encoding
#: included) against the default 9, for a 15% larger file (2.59 MB
#: instead of 2.26 MB). The stream is ordinary gzip, so
#: :func:`load_universe` reads either.
COMPRESS_LEVEL = 1

PathLike = Union[str, Path]


def save_universe(universe: Universe, path: PathLike) -> int:
    """Write ``universe`` (with ground truth) to ``path``; returns videos written."""
    path = Path(path)
    config = universe.config
    header = {
        "format": FORMAT_MARKER,
        "version": FORMAT_VERSION,
        "config": {
            "n_videos": config.n_videos,
            "n_tags": config.n_tags,
            "seed": config.seed,
            "zipf_exponent": config.zipf_exponent,
            "mean_tags": config.mean_tags,
            "p_no_tags": config.p_no_tags,
            "p_missing_map": config.p_missing_map,
            "views_lognormal_mu": config.views_lognormal_mu,
            "views_lognormal_sigma": config.views_lognormal_sigma,
            "tag_coupling": config.tag_coupling,
            "tag_coherence": config.tag_coherence,
            "audience_effect": config.audience_effect,
            "related_count": config.related_count,
            "p_local_edge": config.p_local_edge,
            "preferential_exponent": config.preferential_exponent,
            "global_dirichlet": config.global_dirichlet,
        },
        "countries": universe.registry.codes(),
    }
    count = 0
    try:
        with gzip.open(
            path, "wt", encoding="utf-8", compresslevel=COMPRESS_LEVEL
        ) as handle:
            handle.write(json.dumps(header))
            handle.write("\n")
            for video in universe.videos():
                record = {
                    "id": video.video_id,
                    "title": video.title,
                    "uploader": video.uploader,
                    "date": video.upload_date,
                    "views": video.views,
                    "tags": list(video.tags),
                    "shares": [float(s) for s in video.true_shares],
                    "pop": (
                        video.popularity.as_dict()
                        if video.popularity is not None
                        else None
                    ),
                    "related": list(video.related_ids),
                }
                handle.write(json.dumps(record, ensure_ascii=False))
                handle.write("\n")
                count += 1
    except OSError as exc:
        raise DatasetIOError(f"cannot write universe {path}: {exc}") from exc
    return count


def load_universe(path: PathLike) -> Universe:
    """Reload a universe written by :func:`save_universe`."""
    path = Path(path)
    try:
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            header_line = handle.readline()
            try:
                header = json.loads(header_line)
            except json.JSONDecodeError as exc:
                raise DatasetIOError(f"corrupt universe header: {exc}") from exc
            if header.get("format") != FORMAT_MARKER:
                raise DatasetIOError(
                    f"{path} is not a repro universe file"
                )
            if header.get("version") != FORMAT_VERSION:
                raise DatasetIOError(
                    f"unsupported universe format version: {header.get('version')}"
                )
            config = UniverseConfig(**header["config"])
            registry = default_registry()
            if header.get("countries") != registry.codes():
                raise DatasetIOError(
                    "universe was saved against a different country registry"
                )
            traffic = default_traffic_model(registry)
            vocabulary = _rebuild_vocabulary(config)
            videos = []
            for line_no, line in enumerate(handle, start=2):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    videos.append(_video_from_record(record, registry))
                except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                    raise DatasetIOError(
                        f"{path}:{line_no}: malformed video record: {exc}"
                    ) from exc
    except OSError as exc:
        raise DatasetIOError(f"cannot read universe {path}: {exc}") from exc
    return Universe(config, registry, traffic, vocabulary, videos)


def _rebuild_vocabulary(config: UniverseConfig) -> TagVocabulary:
    """Deterministically regenerate the vocabulary from the config.

    Mirrors :func:`repro.synth.universe.build_universe` exactly.
    """
    registry = default_registry()
    traffic = default_traffic_model(registry)
    factory = GeoProfileFactory(
        registry,
        traffic,
        rng=spawn_rng(config.seed, "profiles"),
        global_dirichlet=config.global_dirichlet,
    )
    return TagVocabulary(
        n_tags=config.n_tags,
        zipf_exponent=config.zipf_exponent,
        profile_factory=factory,
        rng=spawn_rng(config.seed, "tags"),
        registry=registry,
    )


def _video_from_record(record: dict, registry) -> SynthVideo:
    shares = np.asarray(record["shares"], dtype=float)
    if shares.shape != (len(registry),):
        raise ValueError(
            f"shares length {shares.shape} != registry size {len(registry)}"
        )
    popularity = None
    if record.get("pop") is not None:
        popularity = PopularityVector(record["pop"], registry)
    return SynthVideo(
        video_id=record["id"],
        title=record.get("title", ""),
        uploader=record.get("uploader", ""),
        upload_date=record.get("date", ""),
        views=int(record["views"]),
        tags=tuple(record.get("tags", ())),
        true_shares=shares,
        popularity=popularity,
        related_ids=tuple(record.get("related", ())),
    )
