"""Geographic affinity profiles for tags.

A *geo profile* is a probability distribution over the country axis
describing where content carrying a given tag is watched. The paper's
manual analysis (§3) distinguishes tags that "tend to follow the world
distribution of YouTube users" (*pop*, Fig. 2) from tags "mostly viewed in
[one country]" (*favela* → Brazil, Fig. 3). We generalize this to four
profile kinds:

``GLOBAL``
    The YouTube traffic prior with mild Dirichlet jitter — international
    content (*pop*, *music*, *funny*).
``COUNTRY``
    Sharply concentrated on one anchor country, with a small spill-over to
    countries sharing a language with the anchor and a thin global floor —
    strictly local content (*favela*).
``LANGUAGE``
    Spread over a language cluster proportionally to each country's online
    population — content that travels along a language (*telenovela* over
    the Spanish-speaking world).
``REGION``
    Spread over one geographic region — content with regional but
    cross-language reach (a Scandinavian sports event).

Profiles are sampled by :class:`GeoProfileFactory`, which is deterministic
given its RNG. All profiles are strictly positive (a tiny global floor) so
downstream divergence computations are well-defined.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.synth.rng import CdfSampler
from repro.world.countries import CountryRegistry, default_registry
from repro.world.regions import LANGUAGE_CLUSTERS, REGIONS
from repro.world.traffic import TrafficModel, default_traffic_model


class ProfileKind(enum.Enum):
    """The four geographic affinity archetypes."""

    GLOBAL = "global"
    COUNTRY = "country"
    LANGUAGE = "language"
    REGION = "region"


@dataclass(frozen=True)
class GeoProfile:
    """A tag's hidden geographic affinity.

    Attributes:
        kind: The archetype this profile was drawn from.
        anchor: The anchor entity — a country code for ``COUNTRY``, a
            language for ``LANGUAGE``, a region key for ``REGION``,
            ``None`` for ``GLOBAL``.
        shares: Probability vector over the registry's canonical country
            axis; strictly positive, sums to 1.
    """

    kind: ProfileKind
    anchor: Optional[str]
    shares: np.ndarray

    def __post_init__(self) -> None:
        shares = np.asarray(self.shares, dtype=float)
        if shares.ndim != 1:
            raise ConfigError("profile shares must be a 1-D vector")
        if np.any(shares <= 0):
            raise ConfigError("profile shares must be strictly positive")
        if not np.isclose(shares.sum(), 1.0, atol=1e-9):
            raise ConfigError(f"profile shares must sum to 1, got {shares.sum()}")
        object.__setattr__(self, "shares", shares)

    def top_country(self, registry: CountryRegistry) -> str:
        """The country receiving the largest share."""
        return registry.codes()[int(np.argmax(self.shares))]


#: Fraction of mass kept as a uniform "global floor" in every non-global
#: profile; keeps distributions strictly positive and models the diaspora /
#: curiosity traffic every video receives from everywhere.
GLOBAL_FLOOR = 0.02


class GeoProfileFactory:
    """Samples :class:`GeoProfile` instances of each kind.

    Args:
        registry: Country axis.
        traffic: Traffic prior used for ``GLOBAL`` profiles and as the
            floor component.
        rng: Numpy generator; the factory consumes randomness only from it.
        global_dirichlet: Dirichlet concentration multiplier for ``GLOBAL``
            profiles — larger means closer to the prior. The paper's Fig. 2
            ("pop") shows a tag hugging the prior, so the default is high.
        country_spill: Mass granted to same-language countries by
            ``COUNTRY`` profiles (beyond the anchor and the floor).
    """

    def __init__(
        self,
        registry: Optional[CountryRegistry] = None,
        traffic: Optional[TrafficModel] = None,
        rng: Optional[np.random.Generator] = None,
        global_dirichlet: float = 400.0,
        country_spill: float = 0.12,
    ):
        self.registry = registry if registry is not None else default_registry()
        self.traffic = (
            traffic if traffic is not None else default_traffic_model(self.registry)
        )
        self.rng = rng if rng is not None else np.random.default_rng(0)
        if global_dirichlet <= 0:
            raise ConfigError("global_dirichlet must be positive")
        if not 0 <= country_spill < 1:
            raise ConfigError("country_spill must be in [0, 1)")
        self.global_dirichlet = global_dirichlet
        self.country_spill = country_spill
        self._codes = self.registry.codes()
        self._index = {code: i for i, code in enumerate(self._codes)}
        self._prior = self.traffic.as_vector()
        self._online = np.array(
            [country.online_population for country in self.registry], dtype=float
        )
        self._anchor_sampler = CdfSampler(self._online / self._online.sum())
        self._languages: Dict[str, List[int]] = {
            language: [
                i
                for i, country in enumerate(self.registry)
                if language in country.languages
            ]
            for language in LANGUAGE_CLUSTERS
        }
        self._regions: Dict[str, List[int]] = {
            region: [
                i for i, country in enumerate(self.registry) if country.region == region
            ]
            for region in REGIONS
        }

    # -- samplers ----------------------------------------------------------

    def sample(self, kind: ProfileKind) -> GeoProfile:
        """Sample a profile of the requested kind."""
        if kind is ProfileKind.GLOBAL:
            return self.sample_global()
        if kind is ProfileKind.COUNTRY:
            return self.sample_country()
        if kind is ProfileKind.LANGUAGE:
            return self.sample_language()
        if kind is ProfileKind.REGION:
            return self.sample_region()
        raise ConfigError(f"unknown profile kind: {kind!r}")

    def sample_global(self) -> GeoProfile:
        """A profile hugging the traffic prior with Dirichlet jitter."""
        alpha = self._prior * self.global_dirichlet
        shares = self.rng.dirichlet(alpha)
        shares = self._with_floor(shares)
        return GeoProfile(ProfileKind.GLOBAL, None, shares)

    def sample_country(self, anchor: Optional[str] = None) -> GeoProfile:
        """A profile concentrated on one country (e.g. *favela* → BR).

        The anchor is drawn proportionally to online population unless
        given. Anchor mass is drawn in [0.55, 0.9]; spill goes to
        same-language countries weighted by online population.
        """
        if anchor is None:
            anchor_idx = self._anchor_sampler.draw(self.rng)
            anchor = self._codes[anchor_idx]
        else:
            anchor_idx = self._index[anchor]
        anchor_mass = float(self.rng.uniform(0.55, 0.90))
        shares = np.zeros(len(self._codes))
        shares[anchor_idx] = anchor_mass
        spill_targets = self._same_language_indices(anchor_idx)
        spill_mass = min(self.country_spill, 1.0 - anchor_mass - GLOBAL_FLOOR)
        if spill_targets and spill_mass > 0:
            weights = self._online[spill_targets]
            weights = weights / weights.sum()
            for target, weight in zip(spill_targets, weights):
                shares[target] += spill_mass * weight
        shares = self._with_floor(shares, floor=1.0 - shares.sum())
        return GeoProfile(ProfileKind.COUNTRY, anchor, shares)

    def sample_language(self, anchor: Optional[str] = None) -> GeoProfile:
        """A profile over a language cluster (e.g. Spanish-speaking world)."""
        if anchor is None:
            anchor = str(self.rng.choice(LANGUAGE_CLUSTERS))
        members = self._languages.get(anchor)
        if not members:
            raise ConfigError(f"language {anchor!r} has no registry countries")
        shares = np.zeros(len(self._codes))
        weights = self._online[members]
        jitter = self.rng.dirichlet(np.ones(len(members)) * 4.0)
        weights = 0.7 * (weights / weights.sum()) + 0.3 * jitter
        for member, weight in zip(members, weights):
            shares[member] = (1.0 - GLOBAL_FLOOR) * weight
        shares = self._with_floor(shares, floor=1.0 - shares.sum())
        return GeoProfile(ProfileKind.LANGUAGE, anchor, shares)

    def sample_region(self, anchor: Optional[str] = None) -> GeoProfile:
        """A profile over a geographic region (e.g. Northern Europe)."""
        if anchor is None:
            anchor = str(self.rng.choice(list(self._regions.keys())))
        members = self._regions.get(anchor)
        if not members:
            raise ConfigError(f"region {anchor!r} has no registry countries")
        shares = np.zeros(len(self._codes))
        weights = self._online[members]
        jitter = self.rng.dirichlet(np.ones(len(members)) * 4.0)
        weights = 0.7 * (weights / weights.sum()) + 0.3 * jitter
        for member, weight in zip(members, weights):
            shares[member] = (1.0 - GLOBAL_FLOOR) * weight
        shares = self._with_floor(shares, floor=1.0 - shares.sum())
        return GeoProfile(ProfileKind.REGION, anchor, shares)

    # -- helpers ------------------------------------------------------------

    def _same_language_indices(self, anchor_idx: int) -> List[int]:
        anchor_langs = set(list(self.registry)[anchor_idx].languages)
        return [
            i
            for i, country in enumerate(self.registry)
            if i != anchor_idx and anchor_langs.intersection(country.languages)
        ]

    def _with_floor(self, shares: np.ndarray, floor: float = GLOBAL_FLOOR) -> np.ndarray:
        """Scale existing mass to ``1 - floor``, add a traffic-prior floor."""
        floor = min(max(floor, GLOBAL_FLOOR), 1.0)
        total = shares.sum()
        if total > 0:
            blended = shares * ((1.0 - floor) / total)
        else:
            blended = np.zeros_like(shares)
        blended = blended + floor * self._prior
        return blended / blended.sum()
