"""Observables: distributions, similarity, the CRW reference, fits, crossings."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdqw import (
    AmbiguityError,
    CrossingPoint,
    Distribution,
    DomainError,
    crossing_point,
    crw_reference,
    fit_beta,
    similarity,
    variance,
)

# Ordered-walk variances for steps 1..8 (see test_walk_core) and the
# power-law fit's minimizer over steps 1..7, from a 50-digit (mpmath) root
# of the profiled SSE's derivative.
ORDERED_VARIANCES = (1.0, 2.0, 2.75, 4.0, 6.734375, 9.6875, 11.90234375, 14.609375)
ORDERED_BETA_1_7 = 1.69351478047293036


class TestDistribution:
    def test_sites_axis(self):
        d = Distribution(offset=-2, probabilities=[0.25, 0.0, 0.5, 0.0, 0.25])
        np.testing.assert_array_equal(d.sites, [-2, -1, 0, 1, 2])
        assert d.total() == 1.0

    def test_moments_hand_values(self):
        d = Distribution(offset=0, probabilities=[0.5, 0.0, 0.5])
        assert variance(d) == pytest.approx(1.0, abs=1e-15)

    def test_unnormalized_moments_rejected(self):
        d = Distribution(offset=0, probabilities=[0.5, 0.2])
        with pytest.raises(DomainError):
            variance(d)

    def test_negative_probabilities_rejected(self):
        with pytest.raises(DomainError):
            Distribution(offset=0, probabilities=[0.5, -0.1, 0.6])

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            Distribution(offset=0, probabilities=[])


class TestCrwReference:
    @pytest.mark.parametrize("steps", [1, 2, 3, 7, 12, 20])
    def test_variance_is_exactly_steps(self, steps):
        # Binomial masses and squared sites are dyadic rationals, exactly
        # representable, so the float variance carries no rounding at all.
        assert variance(crw_reference(steps)) == float(steps)

    @pytest.mark.parametrize("steps", [3, 8])
    def test_exact_rational_oracle(self, steps):
        mean = Fraction(0)
        second = Fraction(0)
        for right in range(steps + 1):
            mass = Fraction(math.comb(steps, right), 2**steps)
            site = 2 * right - steps
            mean += mass * site
            second += mass * site * site
        assert mean == 0
        assert second - mean * mean == steps

    def test_parity_holes_are_exact_zeros(self):
        d = crw_reference(5)
        for i, site in enumerate(d.sites):
            if (site + 5) % 2 == 1:
                assert d.probabilities[i] == 0.0
        assert d.total() == pytest.approx(1.0, abs=1e-15)

    def test_steps_validated(self):
        with pytest.raises(DomainError):
            crw_reference(0)


class TestSimilarity:
    def test_identical_inputs_give_one(self):
        d = crw_reference(6)
        assert similarity(d, d) == pytest.approx(1.0, abs=1e-15)

    def test_hand_value(self):
        g = Distribution(offset=0, probabilities=[1.0])
        h = Distribution(offset=0, probabilities=[0.5, 0.5])
        assert similarity(g, h) == pytest.approx(0.5, abs=1e-15)

    def test_symmetric(self):
        g = Distribution(offset=-1, probabilities=[0.2, 0.3, 0.5])
        h = Distribution(offset=0, probabilities=[0.6, 0.4])
        assert similarity(g, h) == similarity(h, g)

    @pytest.mark.parametrize("scale", [0.1, 3.0, 1e6])
    def test_scale_invariant_per_argument(self, scale):
        g = Distribution(offset=0, probabilities=[0.2, 0.8])
        h = Distribution(offset=0, probabilities=[0.7, 0.3])
        scaled = Distribution(offset=0, probabilities=np.array([0.2, 0.8]) * scale)
        assert similarity(scaled, h) == pytest.approx(similarity(g, h), abs=1e-12)

    def test_alignment_uses_absolute_sites(self):
        g = Distribution(offset=-2, probabilities=[0.0, 0.0, 1.0])
        h = Distribution(offset=0, probabilities=[1.0])
        assert similarity(g, h) == pytest.approx(1.0, abs=1e-15)

    def test_disjoint_supports_give_zero(self):
        g = Distribution(offset=0, probabilities=[1.0])
        h = Distribution(offset=5, probabilities=[1.0])
        assert similarity(g, h) == 0.0

    def test_zero_mass_rejected(self):
        g = Distribution(offset=0, probabilities=[0.0, 0.0])
        with pytest.raises(DomainError):
            similarity(g, crw_reference(2))

    @given(
        data=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12),
        other=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounds_property(self, data, other):
        if sum(data) <= 0 or sum(other) <= 0:
            return
        g = Distribution(offset=0, probabilities=data)
        h = Distribution(offset=-1, probabilities=other)
        val = similarity(g, h)
        assert 0.0 <= val <= 1.0


class TestFitBeta:
    def test_exact_power_law_recovered(self):
        n = np.arange(1, 8, dtype=float)
        fit = fit_beta(2.5 * n**1.37)
        assert fit.beta == pytest.approx(1.37, abs=1e-10)
        assert fit.prefactor == pytest.approx(2.5, abs=1e-9)
        assert fit.fit_range == (1, 7)

    def test_linear_growth_is_beta_one(self):
        fit = fit_beta(np.arange(1.0, 9.0))
        assert fit.beta == pytest.approx(1.0, abs=1e-10)
        assert fit.beta_stderr == pytest.approx(0.0, abs=1e-12)

    def test_ordered_walk_frozen_value(self):
        fit = fit_beta(ORDERED_VARIANCES, (1, 7))
        assert fit.beta == pytest.approx(ORDERED_BETA_1_7, abs=1e-9)
        assert fit.beta_stderr > 0.0

    def test_one_ulp_changes_move_beta_by_round_off_only(self):
        # The SSE is flat near its minimum, so a search that compares its
        # values moved beta by up to 5.6e-9 here; the root of its
        # derivative moves by a few ulp.
        y = np.array(ORDERED_VARIANCES[:7])
        beta = fit_beta(y).beta
        rng = np.random.default_rng(7)
        for _ in range(200):
            shifted = np.nextafter(y, y + rng.choice([-1.0, 0.0, 1.0], size=y.size))
            assert abs(fit_beta(shifted).beta - beta) < 1e-13

    def test_fit_range_subwindow(self):
        n = np.arange(1, 11, dtype=float)
        data = 3.0 * n**2.0
        data[0] = 100.0
        fit = fit_beta(data, (2, 10))
        assert fit.beta == pytest.approx(2.0, abs=1e-10)

    @pytest.mark.parametrize("fit_range", [(1, 1), (0, 5), (2, 9)])
    def test_bad_ranges_rejected(self, fit_range):
        with pytest.raises(DomainError):
            fit_beta(np.arange(1.0, 9.0), fit_range)

    def test_nonpositive_variances_rejected(self):
        with pytest.raises(DomainError):
            fit_beta([1.0, 0.0, 3.0])

    @given(
        beta=st.floats(min_value=0.3, max_value=2.5),
        prefactor=st.floats(min_value=0.1, max_value=10.0),
        points=st.integers(min_value=3, max_value=12),
    )
    @settings(max_examples=50, deadline=None)
    def test_recovery_property(self, beta, prefactor, points):
        n = np.arange(1, points + 1, dtype=float)
        fit = fit_beta(prefactor * n**beta)
        assert fit.beta == pytest.approx(beta, abs=1e-8)


class TestCrossingPoint:
    def test_interior_crossing_interpolated(self):
        p = np.linspace(0.0, 1.0, 11)
        s_o = 1.0 - p
        s_d = np.full_like(p, 0.65)
        got = crossing_point(p, s_o, s_d, step=6)
        assert isinstance(got, CrossingPoint)
        assert got.step == 6
        assert got.p_star == pytest.approx(0.35, abs=1e-12)

    def test_crossing_on_a_grid_node(self):
        p = [0.0, 0.5, 1.0]
        got = crossing_point(p, [1.0, 0.6, 0.2], [0.2, 0.6, 1.0], step=5)
        assert got.p_star == 0.5

    def test_no_crossing_raises(self):
        p = [0.0, 0.5, 1.0]
        with pytest.raises(AmbiguityError):
            crossing_point(p, [1.0, 0.9, 0.8], [0.2, 0.3, 0.4], step=5)

    def test_ambiguity_message_prints_plain_floats(self):
        p = np.linspace(0.9, 1.0, 3)
        with pytest.raises(AmbiguityError, match=r"on grid \[0\.9\.\.1\.0\]") as err:
            crossing_point(p, [1.0, 0.9, 0.8], [0.2, 0.3, 0.4], step=3)
        assert "np.float64" not in str(err.value)

    def test_multiple_crossings_raise(self):
        p = [0.0, 0.25, 0.5, 0.75, 1.0]
        diff_up_down = [0.1, -0.1, 0.1, -0.1, 0.1]
        with pytest.raises(AmbiguityError, match="found 4"):
            crossing_point(p, diff_up_down, [0.0] * 5, step=7)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            crossing_point([0.0], [1.0], [0.5], step=5)
