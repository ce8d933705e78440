"""Related-videos graph construction.

YouTube's related-video lists — the edges the paper's snowball sampling
followed — mix two forces that measurement studies of the era document
[ref. 6 of the paper]:

- *content locality*: related videos overwhelmingly share topic (tags),
  which also correlates their geography;
- *popularity bias* (preferential attachment): globally popular videos
  appear in many unrelated sidebars.

:class:`RelatedGraphBuilder` reproduces both: each video receives
``related_count`` outgoing edges; a fraction ``p_local`` of them point to
videos sharing the source's *primary tag* (its first, most descriptive
tag), the rest to videos drawn corpus-wide with probability proportional
to ``views^preferential_exponent``.

The resulting digraph is what the simulated YouTube API serves and what
the crawler's BFS traverses.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.synth.rng import CdfSampler
from repro.synth.videomodel import SynthVideo


class RelatedGraphBuilder:
    """Wire related-video edges into a population of :class:`SynthVideo`.

    Args:
        rng: Source of randomness.
        related_count: Sidebar length (YouTube showed ~20 entries in 2011).
        p_local: Probability an edge stays within the primary-tag community.
        preferential_exponent: Exponent on views for global edges; 1.0 is
            classic preferential attachment, <1 tempers the rich-get-richer
            effect.
    """

    def __init__(
        self,
        rng: Optional[np.random.Generator] = None,
        related_count: int = 20,
        p_local: float = 0.7,
        preferential_exponent: float = 0.85,
    ):
        if related_count < 1:
            raise ConfigError("related_count must be >= 1")
        if not 0.0 <= p_local <= 1.0:
            raise ConfigError("p_local must be in [0, 1]")
        if preferential_exponent < 0:
            raise ConfigError("preferential_exponent must be >= 0")
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.related_count = related_count
        self.p_local = p_local
        self.preferential_exponent = preferential_exponent

    def build(self, videos: Sequence[SynthVideo]) -> None:
        """Populate ``video.related_ids`` for every video, in place."""
        n = len(videos)
        if n == 0:
            return
        if n == 1:
            videos[0].related_ids = ()
            return

        # Global preferential-attachment weights.
        views = np.array([video.views for video in videos], dtype=float)
        global_weights = np.power(views, self.preferential_exponent)
        global_sampler = CdfSampler(global_weights / global_weights.sum())

        # Primary-tag communities (index lists into `videos`).
        communities: Dict[str, List[int]] = {}
        for index, video in enumerate(videos):
            if video.tags:
                communities.setdefault(video.tags[0], []).append(index)

        # Per-community sampling distributions (preferential within too).
        community_samplers: Dict[str, CdfSampler] = {}
        for tag, members in communities.items():
            if len(members) > 1:
                weights = global_weights[members]
                community_samplers[tag] = CdfSampler(weights / weights.sum())

        for index, video in enumerate(videos):
            budget = min(self.related_count, n - 1)
            chosen: List[int] = []
            seen = {index}
            primary = video.tags[0] if video.tags else None
            members = communities.get(primary, []) if primary else []
            local_possible = len(members) > 1

            attempts = 0
            max_attempts = budget * 30
            while len(chosen) < budget and attempts < max_attempts:
                attempts += 1
                if local_possible and self.rng.random() < self.p_local:
                    candidate = members[community_samplers[primary].draw(self.rng)]
                else:
                    candidate = global_sampler.draw(self.rng)
                if candidate not in seen:
                    seen.add(candidate)
                    chosen.append(candidate)

            # Top up deterministically if rejection sampling stalled
            # (tiny corpora with extreme popularity skew).
            if len(chosen) < budget:
                for candidate in np.argsort(-views):
                    candidate = int(candidate)
                    if candidate not in seen:
                        seen.add(candidate)
                        chosen.append(candidate)
                        if len(chosen) >= budget:
                            break

            video.related_ids = tuple(videos[i].video_id for i in chosen)
