"""Named universe presets.

The paper's corpus had ~1.06M videos; generating that many is possible
but unnecessary for shape-level reproduction. Presets trade size for
runtime; every benchmark states which preset it uses.

========  =========  =======  ============================================
Preset    Videos     Tags     Intended use
========  =========  =======  ============================================
tiny      400        300      unit/integration tests (sub-second)
small     2,500      1,500    examples, quick exploration
medium    12,000     8,000    default for benchmarks (seconds)
large     40,000     22,000   heavier-duty benchmark runs
xlarge    250,000    120,000  out-of-core scaling runs (stream-only)
xxlarge   1,000,000  400,000  paper-scale corpus (stream-only)
========  =========  =======  ============================================

The ``xlarge``/``xxlarge`` presets approach the paper's real corpus
(1.06M videos, 705k unique tags). They are **stream-only**: generate
them with :class:`~repro.synth.stream.StreamingUniverse`, never with
the object-path :func:`~repro.synth.universe.build_universe`. The
object path's draws are cheap — each weighted draw is a binary search
on a cached CDF (:class:`~repro.synth.rng.CdfSampler`) — but it holds
every video as a Python object in RAM, ground-truth share vector and
all, which does not fit at this scale. :data:`STREAM_ONLY_PRESETS` names
them so callers can route.

These presets describe a *static* snapshot. For the time axis — the
same corpora unrolled into deterministic view-delta streams with
per-video trajectory classes — see
:data:`repro.synth.temporal.TEMPORAL_PRESETS` (``tiny-temporal``,
``small-temporal``, ``medium-temporal``), which pair a preset here
with a :class:`~repro.synth.temporal.TemporalConfig` horizon.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

from repro.errors import ConfigError
from repro.synth.universe import UniverseConfig

PRESETS: Dict[str, UniverseConfig] = {
    "tiny": UniverseConfig(n_videos=400, n_tags=300, seed=2011),
    "small": UniverseConfig(n_videos=2_500, n_tags=1_500, seed=2011),
    "medium": UniverseConfig(n_videos=12_000, n_tags=8_000, seed=2011),
    "large": UniverseConfig(n_videos=40_000, n_tags=22_000, seed=2011),
    "xlarge": UniverseConfig(n_videos=250_000, n_tags=120_000, seed=2011),
    "xxlarge": UniverseConfig(n_videos=1_000_000, n_tags=400_000, seed=2011),
}

#: Presets too large for the object-path generator; use
#: :class:`repro.synth.stream.StreamingUniverse` for these.
STREAM_ONLY_PRESETS: FrozenSet[str] = frozenset({"xlarge", "xxlarge"})


def preset_config(name: str) -> UniverseConfig:
    """Look up a preset by name; raises :class:`~repro.errors.ConfigError`."""
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; choose from {sorted(PRESETS)}"
        ) from None
