"""Deterministic seed derivation for the synthetic universe.

Every random component of the universe derives its own
:class:`numpy.random.Generator` from ``(master_seed, label)`` so that

- the whole universe is reproducible from one integer seed, and
- adding a new randomized component (a new label) never perturbs the
  streams of existing components — generated corpora stay stable across
  library versions that add features.

:class:`CdfSampler` is the one weighted-draw primitive of the object-path
generator: it reproduces ``Generator.choice(n, p=p)`` draw for draw from
a cumulative distribution built once per distribution.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_right

import numpy as np

from repro.errors import ConfigError


def derive_seed(master_seed: int, label: str) -> int:
    """Derive a 64-bit child seed from a master seed and a component label.

    Uses BLAKE2b over the canonical byte encoding, so the mapping is stable
    across Python versions and platforms (unlike ``hash()``).
    """
    digest = hashlib.blake2b(
        f"{master_seed}:{label}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def spawn_rng(master_seed: int, label: str) -> np.random.Generator:
    """A fresh, independent generator for the component named ``label``."""
    return np.random.default_rng(derive_seed(master_seed, label))


#: How far from 1 a probability vector may sum; the bound ``choice`` uses.
_SUM_TOLERANCE = math.sqrt(np.finfo(np.float64).eps)


class CdfSampler:
    """Weighted index draws from a fixed distribution, bit-identical to ``choice``.

    ``CdfSampler(p).draw(rng)`` returns exactly what
    ``rng.choice(len(p), p=p)`` returns and consumes the same single
    double from ``rng``, so swapping one for the other leaves every random
    stream unchanged. ``choice`` re-validates ``p`` and rebuilds its
    cumulative sum on every call — ``O(len(p))`` per draw; this class
    does both once, at construction, and each draw is a binary search.

    The checks are the ones ``choice`` makes for a float64 ``p``: a
    non-empty 1-D vector of finite, non-negative numbers whose sum is
    within ``sqrt(eps)`` of 1. A violation raises :class:`ConfigError`.
    """

    __slots__ = ("_cdf",)

    def __init__(self, p) -> None:
        probs = np.asarray(p, dtype=np.float64)
        if probs.ndim != 1 or probs.size == 0:
            raise ConfigError("probabilities must be a non-empty 1-D vector")
        if not np.isfinite(probs).all():
            raise ConfigError("probabilities must be finite")
        if (probs < 0).any():
            raise ConfigError("probabilities must be non-negative")
        # ``choice`` uses a compensated (Kahan) sum; ``fsum`` is exactly
        # rounded, so the two agree except within an ulp of the tolerance.
        total = math.fsum(probs.tolist())
        if abs(total - 1.0) > _SUM_TOLERANCE:
            raise ConfigError(f"probabilities must sum to 1, got {total!r}")
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        # A list of Python floats: ``bisect_right`` on it finds the same
        # index as ``cdf.searchsorted(u, side="right")``, without numpy's
        # per-call overhead on a scalar.
        self._cdf = cdf.tolist()

    def draw(self, rng: np.random.Generator) -> int:
        """One index in ``[0, len(p))``, drawn with probability ``p[i]``."""
        return bisect_right(self._cdf, rng.random())
