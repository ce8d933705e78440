"""Chunk-streaming universe generation for million-video corpora.

:func:`~repro.synth.universe.build_universe` materializes every video as
a Python object and draws its tags one at a time in the interpreter, so
at the paper's real scale (1.06M videos, 705k unique tags) the object
path would hold the whole corpus in RAM and spend minutes in Python
loops. This module generates
the *same family* of universes as flat numpy arrays, one fixed-size
block at a time:

- the tag vocabulary (Zipf weights, curated head, kind mixture, geo
  profiles, topic groups) is built **vectorized** into a handful of
  arrays — inverse-CDF cumsums replace ``rng.choice``;
- videos are drawn in fixed internal blocks of :data:`GEN_BLOCK` rows,
  each block from its own ``spawn_rng(seed, f"stream:{block}")`` child
  generator, so the produced corpus is **invariant to the requested
  chunk size** (chunks are assembled from whole blocks);
- video ids come from a bijective 64-bit mix (splitmix64) of the global
  row index — guaranteed collision-free with no id set in memory.

The output unit is :class:`~repro.engine.outofcore.VideoChunk`; feed the
chunks straight to
:func:`~repro.engine.outofcore.build_store_streaming`. Peak memory is
``O(GEN_BLOCK × C + n_tags)``, never ``O(n_videos)``.

The generator mirrors the object model's *distributions* — Zipf ranks,
curated placement, kind mixture, geo-profile samplers, coherent
co-tagging, position-decay Dirichlet coupling, audience-weighted
log-normal views, funnel gaps — but uses its own RNG stream labels
(``stream:*``), so it does not reproduce the object path's corpora
draw-for-draw. Existing presets keep their exact historical streams;
the ``xlarge``/``xxlarge`` presets are generated here only. One
deliberate simplification: where :meth:`TagVocabulary.sample_coherent_tags`
retries until it collects ``count`` distinct tags, the vectorized path
draws ``2×`` candidates and keeps the first distinct ones, so a small
fraction of tag lists come up one or two tags short — the length law
stays geometric in the mean.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.datamodel.popularity import MAX_INTENSITY, PopularityVector
from repro.datamodel.video import Video
from repro.engine.outofcore import VideoChunk
from repro.errors import ConfigError
from repro.synth.geo_profiles import GLOBAL_FLOOR, GeoProfileFactory, ProfileKind
from repro.synth.rng import derive_seed, spawn_rng
from repro.synth.tagmodel import CURATED_TAGS, TagVocabulary, _synthetic_tag_name
from repro.synth.universe import UniverseConfig
from repro.synth.videomodel import TAG_POSITION_DECAY
from repro.world.countries import CountryRegistry, default_registry
from repro.world.regions import LANGUAGE_CLUSTERS, REGIONS
from repro.world.traffic import TrafficModel, default_traffic_model

#: Internal generation block. Videos are always drawn in whole blocks of
#: this size (each from its own child RNG), so ``iter_chunks`` returns
#: identical corpora for every ``chunk_rows``.
GEN_BLOCK = 8_192

#: Oversampling factor for coherent co-tag candidates (see module doc).
_CAND_FACTOR = 2

_ID_ALPHABET = np.array(
    list("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_")
)

_KIND_ORDER = (
    ProfileKind.GLOBAL,
    ProfileKind.COUNTRY,
    ProfileKind.LANGUAGE,
    ProfileKind.REGION,
)


def _splitmix64(values: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer — a bijection on uint64."""
    z = values.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _encode_ids(indices: np.ndarray, salt: int) -> np.ndarray:
    """Bijective 11-char video ids from global row indices.

    splitmix64 over ``index + salt`` is a bijection on uint64, and the
    64 output bits are spread over ten 6-bit characters plus one 4-bit
    character — distinct indices always yield distinct ids.
    """
    mixed = _splitmix64(indices.astype(np.uint64) + np.uint64(salt & (2**64 - 1)))
    chars = np.empty((len(mixed), 11), dtype=np.int64)
    for pos in range(10):
        chars[:, pos] = ((mixed >> np.uint64(6 * pos)) & np.uint64(63)).astype(
            np.int64
        )
    chars[:, 10] = ((mixed >> np.uint64(60)) & np.uint64(15)).astype(np.int64)
    glyphs = _ID_ALPHABET[chars]
    return np.ascontiguousarray(glyphs).view("<U11").reshape(len(mixed))


def _inverse_cdf(cdf: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Sample indices from a cumulative distribution (right-closed)."""
    picked = np.searchsorted(cdf, uniforms, side="right")
    return np.minimum(picked, len(cdf) - 1)


def _with_floor_rows(
    rows: np.ndarray, prior: np.ndarray, floors: Optional[np.ndarray] = None
) -> np.ndarray:
    """Vectorized :meth:`GeoProfileFactory._with_floor` over profile rows."""
    total = rows.sum(axis=1)
    if floors is None:
        floors = np.full(len(rows), GLOBAL_FLOOR)
    floors = np.clip(floors, GLOBAL_FLOOR, 1.0)
    safe = np.where(total > 0, total, 1.0)
    scale = np.where(total > 0, (1.0 - floors) / safe, 0.0)
    blended = rows * scale[:, np.newaxis] + floors[:, np.newaxis] * prior
    return blended / blended.sum(axis=1)[:, np.newaxis]


class StreamVocabulary:
    """Array-backed tag vocabulary for the streaming generator.

    Mirrors :class:`~repro.synth.tagmodel.TagVocabulary` — same curated
    placement (via :meth:`TagVocabulary._place_curated`), same Zipf and
    spam weights, same kind mixture, same per-kind geo-profile samplers
    (curated profiles come from a real :class:`GeoProfileFactory`) —
    but holds everything as flat arrays sized ``O(n_tags)``:

    Attributes:
        names: ``(T,)`` tag strings, rank order.
        profiles: ``(T, C)`` float32 geo-profile shares.
        prob_cdf / spam_cdf: inverse-CDF cumsums of the Zipf and spam
            (``weight^1.5``) laws.
        group_of: ``(T,)`` dense topic-group id per tag.
        group_size: ``(G,)`` member counts.
        group_ptr / group_members / group_cdf: flat per-group member
            arrays; ``group_cdf[group_ptr[g]:group_ptr[g+1]]`` holds
            ``g +`` the group's Zipf member CDF, so one global
            ``searchsorted(group_cdf, g + u)`` draws from group ``g``.
    """

    def __init__(
        self,
        config: UniverseConfig,
        registry: Optional[CountryRegistry] = None,
        traffic: Optional[TrafficModel] = None,
    ):
        if config.n_tags < len(CURATED_TAGS):
            raise ConfigError(
                f"n_tags must be >= {len(CURATED_TAGS)} (the curated head)"
            )
        self.registry = registry if registry is not None else default_registry()
        self.traffic = (
            traffic if traffic is not None else default_traffic_model(self.registry)
        )
        self.prior = self.traffic.as_vector()
        n_tags = config.n_tags
        n_countries = len(self.registry)
        rng = spawn_rng(config.seed, "stream:tags")
        factory = GeoProfileFactory(
            self.registry,
            self.traffic,
            rng=spawn_rng(config.seed, "stream:profiles"),
            global_dirichlet=config.global_dirichlet,
        )

        online = np.array(
            [country.online_population for country in self.registry], dtype=float
        )
        languages = {
            language: np.array(
                [
                    i
                    for i, country in enumerate(self.registry)
                    if language in country.languages
                ],
                dtype=np.int64,
            )
            for language in LANGUAGE_CLUSTERS
        }
        regions = {
            region: np.array(
                [
                    i
                    for i, country in enumerate(self.registry)
                    if country.region == region
                ],
                dtype=np.int64,
            )
            for region in REGIONS
        }
        language_keys = [key for key in languages if len(languages[key])]
        region_keys = [key for key in regions if len(regions[key])]

        # -- names + kinds + anchors, rank order --------------------------
        placement = TagVocabulary._place_curated(n_tags)
        names: List[str] = []
        kind_code = np.empty(n_tags, dtype=np.int64)
        anchor_code = np.full(n_tags, -1, dtype=np.int64)
        curated_rows: List[int] = []
        synth_rows: List[int] = []
        used_names = {entry[0] for entry in CURATED_TAGS}
        kind_index = {kind: i for i, kind in enumerate(_KIND_ORDER)}
        language_index = {key: i for i, key in enumerate(language_keys)}
        region_index = {key: i for i, key in enumerate(region_keys)}
        synth_serial = 0
        for row in range(n_tags):
            entry = placement.get(row + 1)
            if entry is not None:
                name, kind, anchor = entry
                kind_code[row] = kind_index[kind]
                if kind is ProfileKind.COUNTRY:
                    anchor_code[row] = self.registry.index_of(anchor)
                elif kind is ProfileKind.LANGUAGE:
                    anchor_code[row] = language_index[anchor]
                elif kind is ProfileKind.REGION:
                    anchor_code[row] = region_index[anchor]
                curated_rows.append(row)
            else:
                base = _synthetic_tag_name(synth_serial)
                # Suffixing the serial keeps names unique without a set
                # of every name: letters+digits decompose uniquely.
                name = base if base not in used_names else f"{base}x{synth_serial}"
                while name in used_names:
                    synth_serial += 1
                    name = f"{_synthetic_tag_name(synth_serial)}x{synth_serial}"
                synth_serial += 1
                synth_rows.append(row)
            used_names.add(name)
            names.append(name)
        self.names = np.asarray(names)

        synth_rows_arr = np.array(synth_rows, dtype=np.int64)
        kind_probs = np.array([0.25, 0.40, 0.20, 0.15])
        if len(synth_rows_arr):
            kind_code[synth_rows_arr] = _inverse_cdf(
                np.cumsum(kind_probs), rng.random(len(synth_rows_arr))
            )

        # -- profiles, sampled per kind in bulk ---------------------------
        profiles = np.empty((n_tags, n_countries), dtype=np.float64)
        for row in curated_rows:
            entry = placement[row + 1]
            profiles[row] = TagVocabulary._sample_anchored(
                factory, entry[1], entry[2]
            ).shares

        rows = synth_rows_arr[kind_code[synth_rows_arr] == 0]
        if len(rows):
            draws = rng.dirichlet(self.prior * config.global_dirichlet, size=len(rows))
            profiles[rows] = _with_floor_rows(draws, self.prior)

        rows = synth_rows_arr[kind_code[synth_rows_arr] == 1]
        if len(rows):
            # COUNTRY: anchor ∝ online population; spill to same-language
            # countries via per-anchor precomputed templates.
            templates = np.zeros((n_countries, n_countries))
            country_list = list(self.registry)
            for i, country in enumerate(country_list):
                langs = set(country.languages)
                peers = [
                    j
                    for j, other in enumerate(country_list)
                    if j != i and langs.intersection(other.languages)
                ]
                if peers:
                    weights = online[peers]
                    templates[i, peers] = weights / weights.sum()
            anchors = _inverse_cdf(
                np.cumsum(online) / online.sum(), rng.random(len(rows))
            )
            anchor_code[rows] = anchors
            mass = rng.uniform(0.55, 0.90, size=len(rows))
            spill = np.minimum(
                factory.country_spill, np.maximum(1.0 - mass - GLOBAL_FLOOR, 0.0)
            )
            drawn = spill[:, np.newaxis] * templates[anchors]
            drawn[np.arange(len(rows)), anchors] += mass
            profiles[rows] = _with_floor_rows(
                drawn, self.prior, floors=1.0 - drawn.sum(axis=1)
            )

        for code, keys, members_of in (
            (2, language_keys, languages),
            (3, region_keys, regions),
        ):
            rows = synth_rows_arr[kind_code[synth_rows_arr] == code]
            if not len(rows):
                continue
            picks = rng.integers(0, len(keys), size=len(rows))
            anchor_code[rows] = picks
            for key_idx, key in enumerate(keys):
                subset = rows[picks == key_idx]
                if not len(subset):
                    continue
                members = members_of[key]
                base = online[members] / online[members].sum()
                jitter = rng.dirichlet(np.ones(len(members)) * 4.0, size=len(subset))
                weights = 0.7 * base + 0.3 * jitter
                drawn = np.zeros((len(subset), n_countries))
                drawn[:, members] = (1.0 - GLOBAL_FLOOR) * weights
                profiles[subset] = _with_floor_rows(
                    drawn, self.prior, floors=1.0 - drawn.sum(axis=1)
                )
        self.profiles = profiles.astype(np.float32)

        # -- Zipf + spam laws ---------------------------------------------
        ranks = np.arange(1, n_tags + 1, dtype=np.float64)
        self.weights = ranks ** (-config.zipf_exponent)
        self.prob_cdf = np.cumsum(self.weights / self.weights.sum())
        spam = self.weights**1.5
        self.spam_cdf = np.cumsum(spam / spam.sum())

        # -- topic groups (kind:anchor), flat member/CDF arrays -----------
        raw_group = np.where(
            kind_code == 0,
            0,
            np.where(
                kind_code == 1,
                1 + anchor_code,
                np.where(
                    kind_code == 2,
                    1 + n_countries + anchor_code,
                    1 + n_countries + len(language_keys) + anchor_code,
                ),
            ),
        )
        present, dense = np.unique(raw_group, return_inverse=True)
        self.group_of = dense.astype(np.int64)
        n_groups = len(present)
        counts = np.bincount(self.group_of, minlength=n_groups)
        self.group_size = counts.astype(np.int64)
        self.group_ptr = np.zeros(n_groups + 1, dtype=np.int64)
        np.cumsum(counts, out=self.group_ptr[1:])
        order = np.argsort(self.group_of, kind="stable")
        self.group_members = order.astype(np.int64)
        member_weights = self.weights[order]
        cdf = np.empty(n_tags, dtype=np.float64)
        for g in range(n_groups):
            lo, hi = self.group_ptr[g], self.group_ptr[g + 1]
            segment = np.cumsum(member_weights[lo:hi])
            cdf[lo:hi] = g + segment / segment[-1]
        self.group_cdf = cdf

    def sample_group(self, groups: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """Zipf-weighted member draw from each row's topic group."""
        picked = np.searchsorted(self.group_cdf, groups + uniforms, side="right")
        picked = np.clip(picked, self.group_ptr[groups], self.group_ptr[groups + 1] - 1)
        return self.group_members[picked]


class StreamingUniverse:
    """A synthetic universe generated block-by-block as flat arrays.

    Args:
        config: Same knobs as the object path (related-graph fields are
            ignored — streamed corpora carry no related edges).
        registry / traffic: World model; defaults match
            :func:`~repro.synth.universe.build_universe`.
        keep_truth: Attach ``(n, C)`` float64 ground-truth view shares to
            every chunk (costs ``8·C`` bytes per video per chunk).
    """

    def __init__(
        self,
        config: UniverseConfig,
        registry: Optional[CountryRegistry] = None,
        traffic: Optional[TrafficModel] = None,
        keep_truth: bool = False,
    ):
        self.config = config
        self.registry = registry if registry is not None else default_registry()
        self.traffic = (
            traffic if traffic is not None else default_traffic_model(self.registry)
        )
        self.keep_truth = keep_truth
        self.vocabulary = StreamVocabulary(config, self.registry, self.traffic)
        self.prior = self.traffic.as_vector()
        self._uniform_reach = float(self.prior.mean())
        self._id_salt = derive_seed(config.seed, "stream:ids")

    def __len__(self) -> int:
        return self.config.n_videos

    @property
    def tag_names(self) -> np.ndarray:
        return self.vocabulary.names

    # -- block generation ---------------------------------------------------

    def _generate_block(self, block_index: int) -> VideoChunk:
        """Draw internal block ``block_index`` (always GEN_BLOCK rows)."""
        cfg = self.config
        voc = self.vocabulary
        rng = spawn_rng(cfg.seed, f"stream:{block_index}")
        n = GEN_BLOCK

        # Tag-list lengths: geometric, zeroed for untagged videos.
        untagged = rng.random(n) < cfg.p_no_tags
        lengths = 1 + rng.geometric(1.0 / cfg.mean_tags, size=n)
        lengths = np.where(untagged, 0, np.minimum(lengths, cfg.n_tags))

        # Primary tag (Zipf inverse-CDF); drawn for every row, masked out
        # for untagged ones so the draw layout stays fixed.
        primary = _inverse_cdf(voc.prob_cdf, rng.random(n))

        # Coherent co-tag candidates, 2× oversampled (keep-first-distinct
        # below trims back to the target length).
        n_extra = np.maximum(lengths - 1, 0)
        n_cand = _CAND_FACTOR * n_extra
        total_cand = int(n_cand.sum())
        u_mode = rng.random(total_cand)
        u_draw = rng.random(total_cand)
        video_of_cand = np.repeat(np.arange(n, dtype=np.int64), n_cand)
        primary_of_cand = primary[video_of_cand]
        group = voc.group_of[primary_of_cand]
        group_size = voc.group_size[group]
        exhaustible = group_size <= lengths[video_of_cand]
        use_group = (~exhaustible) & (group_size > 1) & (u_mode < cfg.tag_coherence)
        cand = np.empty(total_cand, dtype=np.int64)
        grp_rows = np.flatnonzero(use_group)
        if grp_rows.size:
            cand[grp_rows] = voc.sample_group(group[grp_rows], u_draw[grp_rows])
        spam_rows = np.flatnonzero(~use_group)
        if spam_rows.size:
            cand[spam_rows] = _inverse_cdf(voc.spam_cdf, u_draw[spam_rows])

        tag_indptr, tag_ids = self._assemble_tags(
            n, lengths, primary, n_cand, cand
        )
        tag_counts = np.diff(tag_indptr)

        # True shares: Dirichlet centred on the position-decayed tag mix.
        centre = np.tile(self.prior, (n, 1))
        if len(tag_ids):
            position = np.arange(len(tag_ids)) - np.repeat(
                tag_indptr[:-1], tag_counts
            )
            decay = TAG_POSITION_DECAY ** position.astype(np.float64)
            tagged = tag_counts > 0
            per_video = np.add.reduceat(decay, tag_indptr[:-1][tagged])
            decay /= np.repeat(per_video, tag_counts[tagged])
            contrib = decay[:, np.newaxis] * voc.profiles[tag_ids].astype(np.float64)
            centre[tagged] = np.add.reduceat(contrib, tag_indptr[:-1][tagged], axis=0)
        alpha = np.maximum(centre * cfg.tag_coupling, 1e-4)
        gammas = rng.standard_gamma(alpha)
        row_sum = gammas.sum(axis=1)[:, np.newaxis]
        shares = np.divide(
            gammas, row_sum, out=np.zeros_like(gammas), where=row_sum > 0
        )
        shares += 1e-12
        shares /= shares.sum(axis=1)[:, np.newaxis]

        # Views: audience-weighted log-normal.
        base = rng.lognormal(cfg.views_lognormal_mu, cfg.views_lognormal_sigma, size=n)
        if cfg.audience_effect > 0:
            reach = (shares @ self.prior) / self._uniform_reach
            base = base * reach**cfg.audience_effect
        views = base.astype(np.int64) + 1

        # Forward Eq. (1) quantization + the missing-map funnel stage.
        has_map = rng.random(n) >= cfg.p_missing_map
        intensity = shares / self.prior
        peak = intensity.max(axis=1)[:, np.newaxis]
        pop = np.rint(intensity / peak * MAX_INTENSITY).astype(np.uint8)
        pop[~has_map] = 0

        start = block_index * GEN_BLOCK
        video_ids = _encode_ids(
            np.arange(start, start + n, dtype=np.uint64), self._id_salt
        )
        return VideoChunk(
            video_ids=video_ids,
            views=views,
            pop=pop,
            has_map=has_map,
            tag_indptr=tag_indptr,
            tag_ids=tag_ids,
            true_shares=shares if self.keep_truth else None,
        )

    @staticmethod
    def _assemble_tags(
        n: int,
        lengths: np.ndarray,
        primary: np.ndarray,
        n_cand: np.ndarray,
        cand: np.ndarray,
    ):
        """Primary-first tag lists: dedupe keep-first, truncate to length."""
        has_primary = lengths > 0
        raw_counts = has_primary.astype(np.int64) + n_cand
        raw_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(raw_counts, out=raw_ptr[1:])
        raw_tags = np.empty(raw_ptr[-1], dtype=np.int64)
        raw_tags[raw_ptr[:-1][has_primary]] = primary[has_primary]
        if len(cand):
            cand_start = np.repeat(raw_ptr[:-1] + has_primary, n_cand)
            within = np.arange(len(cand)) - np.repeat(
                np.concatenate(([0], np.cumsum(n_cand)))[:-1], n_cand
            )
            raw_tags[cand_start + within] = cand
        video_of = np.repeat(np.arange(n, dtype=np.int64), raw_counts)

        # Keep-first dedupe: lexsort by (video, tag, position), mark run
        # heads, then restore original order (entry index is video-major).
        entry_index = np.arange(len(raw_tags))
        order = np.lexsort((entry_index, raw_tags, video_of))
        sorted_video = video_of[order]
        sorted_tag = raw_tags[order]
        head = np.ones(len(order), dtype=bool)
        head[1:] = (sorted_video[1:] != sorted_video[:-1]) | (
            sorted_tag[1:] != sorted_tag[:-1]
        )
        kept = np.sort(order[head])
        kept_video = video_of[kept]
        kept_counts = np.bincount(kept_video, minlength=n)
        kept_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(kept_counts, out=kept_ptr[1:])
        within_kept = np.arange(len(kept)) - np.repeat(kept_ptr[:-1], kept_counts)
        keep = within_kept < lengths[kept_video]
        final_video = kept_video[keep]
        tag_ids = raw_tags[kept[keep]]
        final_counts = np.bincount(final_video, minlength=n)
        tag_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(final_counts, out=tag_indptr[1:])
        return tag_indptr, tag_ids

    # -- chunk iteration ----------------------------------------------------

    def iter_chunks(
        self, chunk_rows: Optional[int] = None, limit: Optional[int] = None
    ) -> Iterator[VideoChunk]:
        """Yield the corpus as chunks of ``chunk_rows`` videos.

        The produced corpus depends only on the config seed and ``limit``
        prefix — never on ``chunk_rows``: smaller chunks are slices of
        the same fixed blocks. ``limit`` truncates to a prefix (useful
        for scaling curves: size N is a prefix of size M > N).
        """
        chunk_rows = GEN_BLOCK if chunk_rows is None else int(chunk_rows)
        if chunk_rows < 1:
            raise ConfigError(f"chunk_rows must be >= 1, got {chunk_rows}")
        total = self.config.n_videos if limit is None else min(
            int(limit), self.config.n_videos
        )
        buffer: List[VideoChunk] = []
        buffered = 0
        n_blocks = -(-total // GEN_BLOCK)
        for block_index in range(n_blocks):
            block = self._generate_block(block_index)
            produced = block_index * GEN_BLOCK
            if produced + len(block) > total:
                block = _chunk_slice(block, 0, total - produced)
            buffer.append(block)
            buffered += len(block)
            while buffered >= chunk_rows:
                merged = buffer[0] if len(buffer) == 1 else _chunk_concat(buffer)
                yield _chunk_slice(merged, 0, chunk_rows)
                buffer = (
                    [_chunk_slice(merged, chunk_rows, len(merged))]
                    if len(merged) > chunk_rows
                    else []
                )
                buffered -= chunk_rows
        if buffered:
            yield buffer[0] if len(buffer) == 1 else _chunk_concat(buffer)


def _chunk_slice(chunk: VideoChunk, start: int, stop: int) -> VideoChunk:
    """Rows ``[start, stop)`` of ``chunk`` as a new chunk."""
    lo, hi = int(chunk.tag_indptr[start]), int(chunk.tag_indptr[stop])
    return VideoChunk(
        video_ids=chunk.video_ids[start:stop],
        views=chunk.views[start:stop],
        pop=chunk.pop[start:stop],
        has_map=chunk.has_map[start:stop],
        tag_indptr=chunk.tag_indptr[start : stop + 1] - lo,
        tag_ids=chunk.tag_ids[lo:hi],
        true_shares=(
            None if chunk.true_shares is None else chunk.true_shares[start:stop]
        ),
    )


def _chunk_concat(chunks: Sequence[VideoChunk]) -> VideoChunk:
    """Concatenate chunks row-wise (CSR pointers re-based)."""
    if len(chunks) == 1:
        return chunks[0]
    indptr = [np.zeros(1, dtype=np.int64)]
    base = 0
    for chunk in chunks:
        indptr.append(chunk.tag_indptr[1:] + base)
        base += int(chunk.tag_indptr[-1])
    truth = None
    if all(chunk.true_shares is not None for chunk in chunks):
        truth = np.concatenate([chunk.true_shares for chunk in chunks])
    return VideoChunk(
        video_ids=np.concatenate([c.video_ids for c in chunks]),
        views=np.concatenate([c.views for c in chunks]),
        pop=np.concatenate([c.pop for c in chunks]),
        has_map=np.concatenate([c.has_map for c in chunks]),
        tag_indptr=np.concatenate(indptr),
        tag_ids=np.concatenate([c.tag_ids for c in chunks]),
        true_shares=truth,
    )


def chunk_to_videos(
    chunk: VideoChunk,
    tag_names: Sequence[str],
    registry: Optional[CountryRegistry] = None,
) -> List[Video]:
    """Materialize a chunk as :class:`~repro.datamodel.Video` objects.

    Interop shim for the object-path tooling (datasets, the dense
    columnar builder, equivalence tests). Title/uploader/date metadata
    is filled with placeholders — the streamed corpus does not carry it.
    """
    if registry is None:
        registry = default_registry()
    videos: List[Video] = []
    indptr = chunk.tag_indptr
    for row in range(len(chunk)):
        tags = tuple(
            str(tag_names[tag]) for tag in chunk.tag_ids[indptr[row] : indptr[row + 1]]
        )
        popularity = None
        if chunk.has_map[row]:
            popularity = PopularityVector.from_array(
                chunk.pop[row].astype(np.int64), registry
            )
        videos.append(
            Video(
                video_id=str(chunk.video_ids[row]),
                title=f"Streamed video {chunk.video_ids[row]}",
                uploader="stream",
                upload_date="2010-06-15",
                views=int(chunk.views[row]),
                tags=tags,
                popularity=popularity,
                related_ids=(),
            )
        )
    return videos
