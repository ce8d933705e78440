"""Tests for universe persistence."""

import gzip
import json

import pytest

from repro.errors import DatasetIOError
from repro.synth.io import load_universe, save_universe


@pytest.fixture(scope="module")
def saved_path(tiny_universe, tmp_path_factory):
    path = tmp_path_factory.mktemp("universe") / "world.jsonl.gz"
    written = save_universe(tiny_universe, path)
    assert written == len(tiny_universe)
    return path


class TestRoundtrip:
    def test_same_video_ids_in_order(self, tiny_universe, saved_path):
        loaded = load_universe(saved_path)
        assert loaded.video_ids() == tiny_universe.video_ids()

    def test_ground_truth_preserved(self, tiny_universe, saved_path):
        loaded = load_universe(saved_path)
        for original, restored in zip(tiny_universe.videos(), loaded.videos()):
            assert restored.title == original.title
            assert restored.uploader == original.uploader
            assert restored.upload_date == original.upload_date
            assert restored.views == original.views
            assert restored.tags == original.tags
            assert restored.popularity == original.popularity
            assert restored.related_ids == original.related_ids
            assert restored.true_shares.tobytes() == original.true_shares.tobytes()

    def test_resave_writes_identical_content(self, saved_path, tmp_path):
        again = tmp_path / "again.jsonl.gz"
        save_universe(load_universe(saved_path), again)
        with gzip.open(saved_path, "rb") as first, gzip.open(again, "rb") as second:
            assert first.read() == second.read()

    def test_config_preserved(self, tiny_universe, saved_path):
        loaded = load_universe(saved_path)
        assert loaded.config == tiny_universe.config

    def test_vocabulary_regenerated_identically(self, tiny_universe, saved_path):
        loaded = load_universe(saved_path)
        assert loaded.vocabulary.names() == tiny_universe.vocabulary.names()

    def test_feeds_behave_identically(self, tiny_universe, saved_path):
        loaded = load_universe(saved_path)
        for country in tiny_universe.registry.codes():
            assert loaded.most_popular(country, 10) == tiny_universe.most_popular(
                country, 10
            )

    def test_loaded_universe_supports_pipeline(self, saved_path):
        from repro.api.service import YoutubeService
        from repro.crawler.snowball import SnowballCrawler

        loaded = load_universe(saved_path)
        result = SnowballCrawler(YoutubeService(loaded), max_videos=30).run()
        assert len(result.dataset) == 30


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetIOError):
            load_universe(tmp_path / "absent.gz")

    def test_wrong_format_marker(self, tmp_path):
        path = tmp_path / "bad.gz"
        with gzip.open(path, "wt") as handle:
            handle.write(json.dumps({"format": "something-else"}) + "\n")
        with pytest.raises(DatasetIOError):
            load_universe(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "old.gz"
        with gzip.open(path, "wt") as handle:
            handle.write(
                json.dumps({"format": "repro-universe", "version": 999}) + "\n"
            )
        with pytest.raises(DatasetIOError):
            load_universe(path)

    def test_corrupt_video_line(self, tiny_universe, tmp_path):
        path = tmp_path / "corrupt.gz"
        save_universe(tiny_universe, path)
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            lines = handle.readlines()
        lines[1] = "{broken json\n"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.writelines(lines)
        with pytest.raises(DatasetIOError, match=":2:"):
            load_universe(path)

    def test_not_gzip(self, tmp_path):
        path = tmp_path / "plain.txt"
        path.write_text("not gzip")
        with pytest.raises(DatasetIOError):
            load_universe(path)
