"""Unit tests for the Video record and the paper's filter predicates."""

import pytest

from repro.datamodel.popularity import PopularityVector
from repro.datamodel.video import Video, is_valid_video_id
from repro.errors import InvalidVideoError

VALID_ID = "dQw4w9WgXcQ"
OTHER_ID = "kffacxfA7G4"


def make_video(**overrides):
    defaults = dict(
        video_id=VALID_ID,
        title="Test video",
        uploader="user000001",
        upload_date="2010-05-01",
        views=1000,
        tags=("music", "pop"),
        popularity=PopularityVector({"US": 61, "BR": 12}),
        related_ids=(OTHER_ID,),
    )
    defaults.update(overrides)
    return Video(**defaults)


class TestVideoIdValidation:
    def test_canonical_id_is_valid(self):
        assert is_valid_video_id(VALID_ID)

    def test_wrong_length_invalid(self):
        assert not is_valid_video_id("short")
        assert not is_valid_video_id(VALID_ID + "x")

    def test_bad_characters_invalid(self):
        assert not is_valid_video_id("dQw4w9WgXc!")

    @pytest.mark.parametrize("video_id", ["", VALID_ID[:-1], VALID_ID * 2])
    def test_empty_and_near_miss_lengths_invalid(self, video_id):
        assert not is_valid_video_id(video_id)

    @pytest.mark.parametrize("position", [0, 5, 10])
    @pytest.mark.parametrize("bad", [" ", ".", "/", "+", "=", "\n"])
    def test_bad_character_anywhere_invalid(self, position, bad):
        video_id = VALID_ID[:position] + bad + VALID_ID[position + 1 :]
        assert len(video_id) == len(VALID_ID)
        assert not is_valid_video_id(video_id)

    @pytest.mark.parametrize(
        "video_id",
        [
            "dQw4w9WgXc\u00e9",
            "\u00f1Qw4w9WgXcQ",
            "dQw4w9\uff37gXcQ",
            "dQw4w9WgXc\U0001f600",
        ],
    )
    def test_non_ascii_invalid(self, video_id):
        assert len(video_id) == 11
        assert not is_valid_video_id(video_id)

    def test_full_alphabet_valid(self):
        alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_"
        for start in range(0, len(alphabet) - 10):
            assert is_valid_video_id(alphabet[start : start + 11])

    def test_invalid_id_raises(self):
        with pytest.raises(InvalidVideoError):
            make_video(video_id="nope")

    def test_invalid_related_id_raises(self):
        with pytest.raises(InvalidVideoError):
            make_video(related_ids=("bad id",))


class TestConstruction:
    def test_negative_views_rejected(self):
        with pytest.raises(InvalidVideoError):
            make_video(views=-1)

    def test_tags_normalized_at_construction(self):
        video = make_video(tags=("  POP ", "pop", "Rock"))
        assert video.tags == ("pop", "rock")

    def test_related_ids_coerced_to_tuple(self):
        video = make_video(related_ids=[OTHER_ID])
        assert isinstance(video.related_ids, tuple)

    def test_frozen(self):
        video = make_video()
        with pytest.raises(AttributeError):
            video.views = 5


class TestPaperFilterPredicates:
    def test_fully_valid_video_passes(self):
        assert make_video().passes_paper_filter()

    def test_no_tags_fails(self):
        video = make_video(tags=())
        assert not video.has_tags()
        assert not video.passes_paper_filter()

    def test_missing_popularity_fails(self):
        video = make_video(popularity=None)
        assert not video.has_valid_popularity()
        assert not video.passes_paper_filter()

    def test_empty_popularity_fails(self):
        video = make_video(popularity=PopularityVector.empty())
        assert not video.has_valid_popularity()

    def test_whitespace_tags_count_as_untagged(self):
        video = make_video(tags=("  ", ""))
        assert not video.has_tags()
