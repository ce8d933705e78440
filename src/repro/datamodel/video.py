"""The video record — the unit of the paper's dataset.

For each crawled video the paper's dataset holds "the video's id, its
title, its total number of views, a vector of integers representing the
video's popularity by country […], and a set of descriptive tags provided
by the user who uploaded the video", plus the related-video edges the
snowball sampling followed. :class:`Video` carries exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.datamodel.popularity import PopularityVector
from repro.datamodel.tags import normalize_tags
from repro.errors import InvalidVideoError

#: Length of a YouTube video id (unchanged since 2005).
VIDEO_ID_LENGTH = 11

_ID_ALPHABET = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_"
)


def is_valid_video_id(video_id: str) -> bool:
    """True when ``video_id`` is a syntactically valid YouTube id."""
    return len(video_id) == VIDEO_ID_LENGTH and _ID_ALPHABET.issuperset(video_id)


@dataclass(frozen=True)
class Video:
    """One crawled video record.

    Attributes:
        video_id: 11-character YouTube-style id.
        title: Video title (may be empty for withdrawn videos).
        uploader: Uploader account name.
        upload_date: ISO-8601 date string (``YYYY-MM-DD``).
        views: Total worldwide view count at crawl time.
        tags: Normalized descriptive tags, in uploader order. May be empty
            (the paper removes such videos during filtering, not at
            construction).
        popularity: The per-country popularity vector, or ``None`` when the
            crawl could not retrieve/decode a map (also filtered later).
        related_ids: Ids of the videos YouTube listed as related; the edges
            the snowball crawl expands.
    """

    video_id: str
    title: str
    uploader: str
    upload_date: str
    views: int
    tags: Tuple[str, ...] = ()
    popularity: Optional[PopularityVector] = None
    related_ids: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not is_valid_video_id(self.video_id):
            raise InvalidVideoError(f"invalid video id: {self.video_id!r}")
        if self.views < 0:
            raise InvalidVideoError(f"views must be >= 0: {self.views}")
        normalized = normalize_tags(self.tags)
        if normalized != tuple(self.tags):
            object.__setattr__(self, "tags", normalized)
        if not isinstance(self.related_ids, tuple):
            object.__setattr__(self, "related_ids", tuple(self.related_ids))
        for rid in self.related_ids:
            if not is_valid_video_id(rid):
                raise InvalidVideoError(f"invalid related video id: {rid!r}")

    # -- the paper's §2 filtering predicates ------------------------------

    def has_tags(self) -> bool:
        """True when the uploader provided at least one tag."""
        return bool(self.tags)

    def has_valid_popularity(self) -> bool:
        """True when a non-empty popularity vector was decoded.

        Mirrors the paper's filter "incorrect or empty popularity vector":
        a missing vector, or one with every country at intensity 0, fails.
        """
        return self.popularity is not None and not self.popularity.is_empty()

    def passes_paper_filter(self) -> bool:
        """The conjunction the paper keeps: tags AND a valid pop vector."""
        return self.has_tags() and self.has_valid_popularity()
