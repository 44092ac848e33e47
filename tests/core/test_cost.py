"""Tests for the cost model (min-max normalisation, Eqn. 11)."""

import numpy as np
import pytest

from repro.config import CostWeights
from repro.core.cost import MinMaxNormalizer, movement_cost, movement_costs
from repro.exceptions import InvalidParameterError


class TestNormalizer:
    def test_maps_bounds_to_unit(self):
        norm = MinMaxNormalizer([0, 100], [10, 200])
        assert norm.normalize(np.array([0.0, 100.0])).tolist() == [0.0, 0.0]
        assert norm.normalize(np.array([10.0, 200.0])).tolist() == [1.0, 1.0]
        assert norm.normalize(np.array([5.0, 150.0])).tolist() == [0.5, 0.5]

    def test_round_trip(self):
        norm = MinMaxNormalizer([2, 3], [8, 13])
        pts = np.array([[4.0, 5.0], [2.0, 13.0]])
        assert np.allclose(norm.denormalize(norm.normalize(pts)), pts)

    def test_zero_width_dimension(self):
        norm = MinMaxNormalizer([1, 0], [1, 10])
        out = norm.normalize(np.array([1.0, 5.0]))
        assert out.tolist() == [0.0, 0.5]

    def test_from_points(self):
        pts = np.array([[0.0, 2.0], [4.0, 6.0]])
        norm = MinMaxNormalizer.from_points(pts)
        assert norm.lo.tolist() == [0.0, 2.0]
        assert norm.hi.tolist() == [4.0, 6.0]

    def test_from_empty_raises(self):
        with pytest.raises(InvalidParameterError):
            MinMaxNormalizer.from_points(np.empty((0, 2)))

    def test_inverted_bounds_rejected(self):
        with pytest.raises(InvalidParameterError):
            MinMaxNormalizer([1, 1], [0, 2])


class TestCost:
    def test_eqn11_equal_weights(self):
        """The Section-VI setting: equal weights summing to 1."""
        norm = MinMaxNormalizer([0, 0], [10, 10])
        cost = norm.cost([0, 0], [10, 10], [0.5, 0.5])
        assert cost == pytest.approx(1.0)

    def test_cost_symmetric(self):
        norm = MinMaxNormalizer([0, 0], [10, 10])
        assert norm.cost([1, 2], [3, 4], [0.5, 0.5]) == pytest.approx(
            norm.cost([3, 4], [1, 2], [0.5, 0.5])
        )

    def test_cost_zero_for_no_move(self):
        norm = MinMaxNormalizer([0, 0], [10, 10])
        assert norm.cost([3, 3], [3, 3], [0.5, 0.5]) == 0.0

    def test_weight_length_checked(self):
        norm = MinMaxNormalizer([0, 0], [10, 10])
        with pytest.raises(InvalidParameterError):
            norm.cost([0, 0], [1, 1], [1.0])

    def test_movement_cost_without_normalizer(self):
        assert movement_cost([0, 0], [2, 4], [0.5, 0.5]) == pytest.approx(3.0)

    def test_movement_cost_with_normalizer(self):
        norm = MinMaxNormalizer([0, 0], [4, 4])
        assert movement_cost([0, 0], [2, 4], [0.5, 0.5], norm) == pytest.approx(
            0.75
        )

    def test_weights_scale_dimensions(self):
        norm = MinMaxNormalizer([0, 0], [10, 10])
        price_heavy = norm.cost([0, 0], [5, 5], [0.9, 0.1])
        mileage_heavy = norm.cost([0, 0], [5, 5], [0.1, 0.9])
        assert price_heavy == pytest.approx(mileage_heavy)
        asymmetric = norm.cost([0, 0], [5, 0], [0.9, 0.1])
        assert asymmetric == pytest.approx(0.45)


class TestCostWeights:
    def test_default_equal_and_sum_one(self):
        alpha, beta = CostWeights().resolved(2)
        assert alpha == (0.5, 0.5)
        assert beta == (0.5, 0.5)
        assert sum(alpha) == pytest.approx(1.0)

    def test_explicit_weights(self):
        weights = CostWeights(alpha=(0.7, 0.3), beta=(0.2, 0.8))
        alpha, beta = weights.resolved(2)
        assert alpha == (0.7, 0.3)
        assert beta == (0.2, 0.8)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            CostWeights(alpha=(1.0,)).resolved(2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CostWeights(alpha=(-0.1, 1.1)).resolved(2)


@pytest.mark.parametrize("normalized", [True, False])
def test_vectorised_costs_bit_identical_to_per_row(normalized):
    """``movement_costs`` over a candidate matrix equals the per-row
    Eqn.-11 cost (``MinMaxNormalizer.cost`` / ``movement_cost``) to the
    last bit, for any dimensionality, including zero-width dimensions."""
    rng = np.random.default_rng(5)
    for _ in range(300):
        dim = int(rng.integers(1, 9))
        lo = rng.normal(size=dim) * 10 ** rng.uniform(-3, 3)
        hi = lo + np.where(rng.random(dim) < 0.2, 0.0, rng.random(dim) * 50)
        norm = MinMaxNormalizer(lo, hi) if normalized else None
        anchor = rng.uniform(lo - 1, hi + 1)
        points = rng.uniform(lo - 1, hi + 1, size=(int(rng.integers(1, 30)), dim))
        weights = rng.random(dim) * 10 ** rng.uniform(-2, 2)
        got = movement_costs(anchor, points, weights, norm)
        want = [movement_cost(anchor, p, weights, norm) for p in points]
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert all(type(c) is float for c in got)
