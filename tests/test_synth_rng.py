"""Unit tests for deterministic seed derivation and the CDF sampler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.synth.rng import CdfSampler, derive_seed, spawn_rng


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(2011, "tags") == derive_seed(2011, "tags")

    def test_labels_independent(self):
        assert derive_seed(2011, "tags") != derive_seed(2011, "videos")

    def test_seeds_independent(self):
        assert derive_seed(1, "tags") != derive_seed(2, "tags")

    def test_fits_64_bits(self):
        assert 0 <= derive_seed(123456789, "x") < 2**64


class TestSpawnRng:
    def test_same_label_same_stream(self):
        a = spawn_rng(7, "component").random(10)
        b = spawn_rng(7, "component").random(10)
        assert (a == b).all()

    def test_different_labels_different_streams(self):
        a = spawn_rng(7, "a").random(10)
        b = spawn_rng(7, "b").random(10)
        assert not (a == b).all()


def _probabilities(weights):
    weights = np.asarray(weights, dtype=float)
    return weights / weights.sum()


#: Weight vectors with at least one positive entry; zeros are common so
#: empty bins at the start, middle and end of the CDF all occur.
weight_vectors = st.lists(
    st.one_of(st.just(0.0), st.floats(min_value=1e-12, max_value=1e6)),
    min_size=1,
    max_size=40,
).filter(lambda ws: sum(ws) > 0)


class TestCdfSampler:
    @settings(max_examples=200)
    @given(weights=weight_vectors, seed=st.integers(0, 2**32 - 1))
    def test_draws_equal_choice_draw_for_draw(self, weights, seed):
        p = _probabilities(weights)
        sampler = CdfSampler(p)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(50):
            assert sampler.draw(ours) == int(theirs.choice(len(p), p=p))
        # Both consumed the same stream: the next raw doubles agree.
        assert ours.random() == theirs.random()

    @given(
        size=st.integers(1, 30),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_hot_always_draws_its_index(self, size, data, seed):
        hot = data.draw(st.integers(0, size - 1))
        p = np.zeros(size)
        p[hot] = 1.0
        sampler = CdfSampler(p)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(20):
            assert sampler.draw(ours) == hot == int(theirs.choice(size, p=p))

    @given(weights=weight_vectors, data=st.data())
    def test_nan_or_infinite_entry_raises(self, weights, data):
        p = _probabilities(weights)
        p[data.draw(st.integers(0, len(p) - 1))] = data.draw(
            st.sampled_from([np.nan, np.inf, -np.inf])
        )
        with pytest.raises(ConfigError):
            CdfSampler(p)

    @given(weights=weight_vectors, data=st.data())
    def test_negative_entry_raises(self, weights, data):
        p = _probabilities(weights)
        p[data.draw(st.integers(0, len(p) - 1))] = -data.draw(
            st.floats(min_value=1e-9, max_value=1.0)
        )
        with pytest.raises(ConfigError):
            CdfSampler(p)

    @given(
        weights=weight_vectors,
        scale=st.one_of(
            st.floats(min_value=0.0, max_value=0.999),
            st.floats(min_value=1.001, max_value=1e6),
        ),
    )
    def test_sum_not_one_raises(self, weights, scale):
        p = _probabilities(weights) * scale
        with pytest.raises(ConfigError):
            CdfSampler(p)
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(len(p), p=p)

    def test_sum_within_tolerance_accepted_like_choice(self):
        p = np.array([0.5, 0.5 + 1e-9])
        assert CdfSampler(p).draw(np.random.default_rng(3)) == int(
            np.random.default_rng(3).choice(2, p=p)
        )

    @pytest.mark.parametrize("p", [[], [[0.5, 0.5]]])
    def test_empty_or_not_one_dimensional_raises(self, p):
        with pytest.raises(ConfigError):
            CdfSampler(p)
