"""Tests for the Fig. 4 collision-probability model (Sec. 2.3)."""


import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scipy_stats

from repro.core import collision


class TestBinomialCdf:
    def test_edges(self):
        assert collision.binomial_cdf(-1, 10, 0.1) == 0.0
        assert collision.binomial_cdf(10, 10, 0.1) == 1.0

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(1, 60),
        k=st.integers(0, 60),
        q=st.floats(0.001, 0.999),
    )
    def test_matches_scipy(self, n, k, q):
        ours = collision.binomial_cdf(min(k, n), n, q)
        theirs = scipy_stats.binom.cdf(min(k, n), n, q)
        assert ours == pytest.approx(float(theirs), abs=1e-9)


class TestAcceptanceProbability:
    def test_monotone_in_p(self):
        """Larger primes -> fewer collisions -> higher acceptance."""
        probs = [
            collision.acceptance_probability(48, p, 0.05)
            for p in (11, 31, 101, 251)
        ]
        assert probs == sorted(probs)

    def test_monotone_in_tolerance(self):
        probs = [
            collision.acceptance_probability(48, 31, tol) for tol in (0.05, 0.10, 0.20)
        ]
        assert probs == sorted(probs)

    def test_paper_default_prime_is_negligible_risk(self):
        """Sec. 2.3: p = 251 gives 'negligible probability of significant
        factor collisions' even for 16-edge queries at 5% tolerance."""
        for num_factors in collision.PAPER_FACTOR_COUNTS:
            assert collision.acceptance_probability(num_factors, 251, 0.05) > 0.95

    def test_tiny_prime_is_bad(self):
        assert collision.acceptance_probability(48, 3, 0.05) < 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            collision.acceptance_probability(0, 11, 0.05)
        with pytest.raises(ValueError):
            collision.acceptance_probability(10, 11, 1.5)
        with pytest.raises(ValueError):
            collision.factor_collision_probability(1)

    def test_num_factors_for_edges(self):
        """3|E| factors: one per edge plus one per unit of total degree."""
        assert collision.num_factors_for_edges(8) == 24
        assert collision.num_factors_for_edges(16) == 48
        with pytest.raises(ValueError):
            collision.num_factors_for_edges(-1)


class TestPrimes:
    def test_primes_up_to(self):
        assert collision.primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
        assert collision.primes_up_to(1) == []

    def test_fig4_x_axis_ends_at_317(self):
        primes = collision.primes_up_to(collision.PAPER_MAX_P)
        assert primes[-1] == 317


class TestCurves:
    def test_acceptance_curve_shape(self):
        curve = collision.acceptance_curve(24, 0.05, max_p=100)
        assert len(curve.p_values) == len(curve.probabilities)
        assert curve.probabilities[-1] > curve.probabilities[0]
        rows = curve.as_rows()
        assert rows[0]["factors"] == 24

    def test_figure4_curves_structure(self):
        curves = collision.figure4_curves(max_p=50)
        assert set(curves) == {0.05, 0.10, 0.20}
        for panel in curves.values():
            assert [c.num_factors for c in panel] == [24, 36, 48]
            for curve in panel:  # acceptance never falls as p grows
                probs = curve.probabilities
                assert all(b >= a - 1e-12 for a, b in zip(probs, probs[1:]))

    def test_fewer_factors_accept_more(self):
        """At a fixed prime, smaller graphs have fewer chances to collide.

        24 and 36 factors both allow one collision at the 5% tolerance; 48
        allows two, which is why Fig. 4's curves interleave (36 < 48 < 24)
        rather than stack strictly."""
        p24, p36, p48 = (
            collision.acceptance_probability(nf, 31, 0.05) for nf in (24, 36, 48)
        )
        assert p24 >= p36 and p24 >= p48


class TestPrimeSelection:
    def test_smallest_acceptable_prime(self):
        p = collision.smallest_acceptable_prime(48, 0.05, 0.95)
        assert collision.acceptance_probability(48, p, 0.05) >= 0.95
        assert p <= 251

    def test_unreachable_target_raises(self):
        with pytest.raises(ValueError):
            collision.smallest_acceptable_prime(48, 0.0, 1.0, max_p=10)
