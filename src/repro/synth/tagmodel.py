"""Zipf-distributed tag vocabulary with hidden geographic affinities.

Tag usage frequency on YouTube follows a heavy-tailed rank-frequency law
[Greenaway et al. 2009, the paper's ref. 4]: a few tags (*music*, *pop*,
*funny*) appear on enormous numbers of videos while most of the 705,415
unique tags of the paper's corpus are rare. :class:`TagVocabulary` models
this with Zipf weights ``w(rank) ∝ rank^-s``.

Each tag carries a hidden :class:`~repro.synth.geo_profiles.GeoProfile`.
A curated head of real 2011-era tags (including the paper's two exemplars
*pop* and *favela*) pins the experiments' subjects to known archetypes;
the synthetic tail is drawn from a configurable kind mixture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.synth.geo_profiles import GeoProfile, GeoProfileFactory, ProfileKind
from repro.synth.rng import CdfSampler
from repro.world.countries import CountryRegistry, default_registry

#: Curated tags: (name, kind, anchor). The GLOBAL entries occupy the very
#: top Zipf ranks in curation order — the paper reports *pop* as the
#: second most viewed tag in its corpus. The non-global exemplars
#: (including *favela*, the paper's Fig. 3 subject) are placed at
#: mid-table ranks: geographically anchored tags are *niche* tags — that
#: is the paper's whole point — so they must not be frequent enough to
#: ride along on unrelated global videos.
CURATED_TAGS: List[Tuple[str, ProfileKind, Optional[str]]] = [
    ("music", ProfileKind.GLOBAL, None),
    ("pop", ProfileKind.GLOBAL, None),
    ("funny", ProfileKind.GLOBAL, None),
    ("live", ProfileKind.GLOBAL, None),
    ("video", ProfileKind.GLOBAL, None),
    ("2011", ProfileKind.GLOBAL, None),
    ("official", ProfileKind.GLOBAL, None),
    ("rock", ProfileKind.GLOBAL, None),
    ("dance", ProfileKind.GLOBAL, None),
    ("hd", ProfileKind.GLOBAL, None),
    ("futebol", ProfileKind.LANGUAGE, "portuguese"),
    ("telenovela", ProfileKind.LANGUAGE, "spanish"),
    ("chanson", ProfileKind.LANGUAGE, "french"),
    ("schlager", ProfileKind.LANGUAGE, "german"),
    ("anime", ProfileKind.GLOBAL, None),
    ("cricket", ProfileKind.REGION, "south-asia"),
    ("k-pop", ProfileKind.REGION, "east-asia"),
    ("eurovision", ProfileKind.REGION, "western-europe"),
    ("favela", ProfileKind.COUNTRY, "BR"),
    ("baile funk", ProfileKind.COUNTRY, "BR"),
    ("bollywood", ProfileKind.COUNTRY, "IN"),
    ("sumo", ProfileKind.COUNTRY, "JP"),
    ("pesach", ProfileKind.COUNTRY, "IL"),
    ("tango", ProfileKind.COUNTRY, "AR"),
    ("hockey", ProfileKind.COUNTRY, "CA"),
    ("sertanejo", ProfileKind.COUNTRY, "BR"),
]

_SYLLABLES = (
    "ka", "ri", "to", "mi", "zu", "na", "lo", "ve", "sha", "du",
    "pe", "ra", "si", "ban", "go", "li", "mar", "ten", "ou", "fa",
)


def _synthetic_tag_name(index: int) -> str:
    """A deterministic pseudo-word for tail tag ``index`` (e.g. ``karito7``)."""
    parts: List[str] = []
    value = index
    for _ in range(3):
        parts.append(_SYLLABLES[value % len(_SYLLABLES)])
        value //= len(_SYLLABLES)
    return "".join(parts) + (str(index % 10) if index % 3 == 0 else "")


@dataclass(frozen=True)
class TagInfo:
    """A vocabulary entry.

    Attributes:
        name: Canonical tag string.
        rank: 1-based Zipf rank (1 = most used).
        weight: Unnormalized Zipf usage weight.
        profile: Hidden geographic affinity.
    """

    name: str
    rank: int
    weight: float
    profile: GeoProfile

    @property
    def kind(self) -> ProfileKind:
        return self.profile.kind


class TagVocabulary:
    """The corpus tag vocabulary.

    Args:
        n_tags: Vocabulary size (must cover the curated head).
        zipf_exponent: Rank-frequency exponent ``s`` (1.0–1.2 matches tag
            studies of the era).
        kind_mixture: Probability of each :class:`ProfileKind` for the
            synthetic tail, as a dict. Defaults to 25% global, 40% country,
            20% language, 15% region — a tail dominated by local content,
            matching the paper's observation that most videos serve niche
            audiences "in limited geographic areas".
        profile_factory: Source of geo profiles.
        rng: Generator for kind draws and name-independent randomness.
    """

    def __init__(
        self,
        n_tags: int,
        zipf_exponent: float = 1.1,
        kind_mixture: Optional[Dict[ProfileKind, float]] = None,
        profile_factory: Optional[GeoProfileFactory] = None,
        rng: Optional[np.random.Generator] = None,
        registry: Optional[CountryRegistry] = None,
    ):
        if n_tags < len(CURATED_TAGS):
            raise ConfigError(
                f"n_tags must be >= {len(CURATED_TAGS)} (the curated head), "
                f"got {n_tags}"
            )
        if zipf_exponent <= 0:
            raise ConfigError("zipf_exponent must be positive")
        if kind_mixture is None:
            kind_mixture = {
                ProfileKind.GLOBAL: 0.25,
                ProfileKind.COUNTRY: 0.40,
                ProfileKind.LANGUAGE: 0.20,
                ProfileKind.REGION: 0.15,
            }
        total = sum(kind_mixture.values())
        if total <= 0:
            raise ConfigError("kind_mixture must have positive total mass")
        self.registry = registry if registry is not None else default_registry()
        rng = rng if rng is not None else np.random.default_rng(0)
        factory = (
            profile_factory
            if profile_factory is not None
            else GeoProfileFactory(self.registry, rng=rng)
        )

        kinds = list(kind_mixture.keys())
        kind_probs = np.array([kind_mixture[kind] for kind in kinds], dtype=float)
        kind_sampler = CdfSampler(kind_probs / kind_probs.sum())

        curated_at_rank = self._place_curated(n_tags)

        self._tags: List[TagInfo] = []
        self._by_name: Dict[str, TagInfo] = {}
        # Reserve curated names up front so synthetic names cannot collide
        # with a curated tag placed at a later rank.
        used_names = {entry[0] for entry in CURATED_TAGS}
        synth_index = 0
        for rank in range(1, n_tags + 1):
            if rank in curated_at_rank:
                name, kind, anchor = curated_at_rank[rank]
                profile = self._sample_anchored(factory, kind, anchor)
            else:
                name = _synthetic_tag_name(synth_index)
                synth_index += 1
                while name in used_names:
                    name = _synthetic_tag_name(synth_index)
                    synth_index += 1
                kind = kinds[kind_sampler.draw(rng)]
                profile = factory.sample(kind)
            used_names.add(name)
            info = TagInfo(
                name=name,
                rank=rank,
                weight=rank ** (-zipf_exponent),
                profile=profile,
            )
            self._tags.append(info)
            self._by_name[name] = info

        self._weights = np.array([tag.weight for tag in self._tags], dtype=float)
        self._sampler = CdfSampler(self._weights / self._weights.sum())
        # Off-topic co-tagging targets *popular* tags (uploaders court
        # search traffic with "video", "hd", "2011" — not other regions'
        # niche tags), so the incoherent branch samples with a sharper
        # head bias than plain Zipf.
        spam = self._weights**1.5
        self._spam_sampler = CdfSampler(spam / spam.sum())

        # Topic groups for coherent co-occurrence: tags sharing an anchor
        # (kind, anchor) belong together; all GLOBAL tags form one group.
        self._group_of: List[str] = [
            f"{tag.kind.value}:{tag.profile.anchor or 'world'}" for tag in self._tags
        ]
        self._group_members: Dict[str, List[int]] = {}
        for index, key in enumerate(self._group_of):
            self._group_members.setdefault(key, []).append(index)
        self._group_samplers: Dict[str, CdfSampler] = {}
        for key, members in self._group_members.items():
            weights = self._weights[members]
            self._group_samplers[key] = CdfSampler(weights / weights.sum())

    @staticmethod
    def _place_curated(
        n_tags: int,
    ) -> Dict[int, Tuple[str, ProfileKind, Optional[str]]]:
        """Assign Zipf ranks to the curated tags.

        GLOBAL entries take ranks 1, 2, 3, … in curation order. Non-global
        exemplars are spread evenly over the mid-table — between roughly
        the 8th and 50th percentile of the rank range — so they stay niche
        but still collect enough videos to measure.
        """
        globals_ = [entry for entry in CURATED_TAGS if entry[1] is ProfileKind.GLOBAL]
        locals_ = [
            entry for entry in CURATED_TAGS if entry[1] is not ProfileKind.GLOBAL
        ]
        placement: Dict[int, Tuple[str, ProfileKind, Optional[str]]] = {}
        for position, entry in enumerate(globals_, start=1):
            placement[position] = entry
        # Absolute mid-head band: geographically anchored tags are niche
        # but measurable, independent of vocabulary size.
        low = max(len(globals_) + 5, 25)
        high = min(max(low + len(locals_), 160), max(n_tags // 2, low + len(locals_)))
        high = min(high, n_tags)
        ranks = np.linspace(low, high, num=len(locals_))
        for entry, rank in zip(locals_, ranks):
            rank = int(round(rank))
            while rank in placement and rank < n_tags:
                rank += 1
            placement[rank] = entry
        return placement

    @staticmethod
    def _sample_anchored(
        factory: GeoProfileFactory, kind: ProfileKind, anchor: Optional[str]
    ) -> GeoProfile:
        if kind is ProfileKind.COUNTRY:
            return factory.sample_country(anchor)
        if kind is ProfileKind.LANGUAGE:
            return factory.sample_language(anchor)
        if kind is ProfileKind.REGION:
            return factory.sample_region(anchor)
        return factory.sample_global()

    # -- access -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._tags)

    def __iter__(self) -> Iterator[TagInfo]:
        return iter(self._tags)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def get(self, name: str) -> TagInfo:
        try:
            return self._by_name[name]
        except KeyError:
            raise ConfigError(f"unknown tag: {name!r}") from None

    def by_rank(self, rank: int) -> TagInfo:
        """The tag at 1-based Zipf rank ``rank``."""
        return self._tags[rank - 1]

    def names(self) -> List[str]:
        return [tag.name for tag in self._tags]

    # -- sampling -----------------------------------------------------------

    def sample_tags(
        self, rng: np.random.Generator, count: int
    ) -> List[TagInfo]:
        """Draw ``count`` distinct tags Zipf-proportionally (incoherent).

        Kept for ablations; :meth:`sample_coherent_tags` is what the video
        generator uses.
        """
        if count <= 0:
            return []
        count = min(count, len(self._tags))
        chosen: List[TagInfo] = []
        seen = set()
        while len(chosen) < count:
            idx = self._sampler.draw(rng)
            if idx not in seen:
                seen.add(idx)
                chosen.append(self._tags[idx])
        return chosen

    def group_key(self, name: str) -> str:
        """The topic-group key of a tag (``kind:anchor``)."""
        return self._group_of[self.get(name).rank - 1]

    def sample_coherent_tags(
        self, rng: np.random.Generator, count: int, coherence: float = 0.75
    ) -> List[TagInfo]:
        """Draw a topically coherent tag list.

        The first (primary) tag is drawn Zipf-proportionally from the whole
        vocabulary; each subsequent tag comes from the primary's topic
        group with probability ``coherence`` (Zipf-weighted within the
        group) and from the whole vocabulary otherwise. This models real
        tagging practice — an uploader describing a favela video adds more
        Brazil-flavoured tags, plus the occasional generic one — and is
        what gives tag-level view aggregates (Eq. 3) their geographic
        signal.
        """
        if count <= 0:
            return []
        if not 0.0 <= coherence <= 1.0:
            raise ConfigError("coherence must be in [0, 1]")
        count = min(count, len(self._tags))
        primary_idx = self._sampler.draw(rng)
        chosen = [self._tags[primary_idx]]
        seen = {primary_idx}
        group = self._group_of[primary_idx]
        members = self._group_members[group]
        member_sampler = self._group_samplers[group]
        group_exhaustible = len(members) <= count
        attempts = 0
        max_attempts = count * 50
        while len(chosen) < count and attempts < max_attempts:
            attempts += 1
            use_group = (
                not group_exhaustible
                and len(members) > 1
                and rng.random() < coherence
            )
            if use_group:
                idx = members[member_sampler.draw(rng)]
            else:
                idx = self._spam_sampler.draw(rng)
            if idx not in seen:
                seen.add(idx)
                chosen.append(self._tags[idx])
        return chosen
