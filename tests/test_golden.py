"""Golden digests of generated universes.

The synthetic universe is the root of every figure this repository
reproduces: any change to how a universe is drawn silently moves every
downstream number. These tests pin the exact content of a few universes
— ids, views, tag lists, related edges, ground-truth shares and the
observable popularity maps — as sha256 digests, so a refactor or
optimisation of the generator must prove it draws bit-identical worlds.

The digests live in ``golden_universe_digests.json`` next to this file.
They are deliberately not regenerated by the test. To record them again
after an *intended* change to the generator, run::

    PYTHONPATH=src python tests/test_golden.py > tests/golden_universe_digests.json

and say in the change log why the universes moved.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict, Tuple

import numpy as np
import pytest

from repro.synth.presets import preset_config
from repro.synth.universe import Universe, build_universe

GOLDEN_PATH = Path(__file__).with_name("golden_universe_digests.json")

#: (preset, seed) pairs whose universes are pinned.
GOLDEN_CASES: Tuple[Tuple[str, int], ...] = (
    ("tiny", 1),
    ("tiny", 2011),
    ("small", 2011),
)

FIELDS = ("ids", "views", "tags", "related_ids", "true_shares", "popularity")


def case_key(preset: str, seed: int) -> str:
    return f"{preset}/seed={seed}"


def universe_digests(universe: Universe) -> Dict[str, str]:
    """One sha256 hex digest per field, over every video in corpus order."""
    hashers = {name: hashlib.sha256() for name in FIELDS}
    for video in universe.videos():
        hashers["ids"].update(video.video_id.encode("ascii") + b"\n")
        hashers["views"].update(b"%d\n" % video.views)
        hashers["tags"].update(
            json.dumps(list(video.tags), ensure_ascii=False).encode("utf-8") + b"\n"
        )
        hashers["related_ids"].update(
            ",".join(video.related_ids).encode("ascii") + b"\n"
        )
        hashers["true_shares"].update(
            np.ascontiguousarray(video.true_shares, dtype="<f8").tobytes()
        )
        popularity = (
            sorted(video.popularity.as_dict().items())
            if video.popularity is not None
            else None
        )
        hashers["popularity"].update(json.dumps(popularity).encode("ascii") + b"\n")
    return {name: hasher.hexdigest() for name, hasher in hashers.items()}


def build_case(preset: str, seed: int) -> Universe:
    return build_universe(dataclasses.replace(preset_config(preset), seed=seed))


@pytest.fixture(scope="module")
def golden() -> Dict[str, Dict[str, str]]:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize(
    "preset,seed", GOLDEN_CASES, ids=[case_key(p, s) for p, s in GOLDEN_CASES]
)
def test_universe_matches_golden_digests(golden, tiny_universe, preset, seed):
    if (preset, seed) == ("tiny", 2011):
        universe = tiny_universe  # the session fixture is this exact preset
    else:
        universe = build_case(preset, seed)
    expected = golden[case_key(preset, seed)]
    actual = universe_digests(universe)
    mismatched = [name for name in FIELDS if actual[name] != expected[name]]
    assert not mismatched, f"universe fields changed: {mismatched}"


def test_golden_file_covers_every_case(golden):
    assert set(golden) == {case_key(p, s) for p, s in GOLDEN_CASES}
    for digests in golden.values():
        assert set(digests) == set(FIELDS)


if __name__ == "__main__":
    print(
        json.dumps(
            {
                case_key(preset, seed): universe_digests(build_case(preset, seed))
                for preset, seed in GOLDEN_CASES
            },
            indent=2,
            sort_keys=True,
        )
    )
