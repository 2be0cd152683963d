import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln

from roughscale.finite_sample import (FiniteSampleLaw, density, kurtosis,
                                      moment_2k, relative_error)


class TestDensity:
    def test_gaussian_limit_at_origin(self):
        law = FiniteSampleLaw(10 ** 6)
        assert density(law, 0.0) == pytest.approx(1 / np.sqrt(2 * np.pi), abs=1e-6)

    def test_zero_at_support_boundary(self):
        for n in (3, 10, 288):
            assert density(FiniteSampleLaw(n), np.sqrt(n)) == 0.0
            assert density(FiniteSampleLaw(n), -np.sqrt(n) - 1.0) == 0.0

    def test_n3_uniform(self):
        law = FiniteSampleLaw(3)
        xs = np.linspace(-1.7, 1.7, 7)
        np.testing.assert_allclose(density(law, xs), 1 / (2 * np.sqrt(3)))

    def test_n_below_2_rejected(self):
        with pytest.raises(ValueError):
            density(FiniteSampleLaw(1), 0.0)

    def test_n_below_1_rejected(self):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            FiniteSampleLaw(0)

    def test_n2_open_interval(self):
        law = FiniteSampleLaw(2)
        assert density(law, 0.0) > 0
        assert density(law, np.sqrt(2)) == 0.0

    @pytest.mark.parametrize("n", [2, 3, 5, 288, 1440, 10 ** 6])
    def test_matches_scipy_log_gamma_constant(self, n):
        xs = np.linspace(-0.99, 0.99, 9) * np.sqrt(n)
        log_pref = gammaln(n / 2.0) - 0.5 * np.log(np.pi * n) - gammaln((n - 1) / 2.0)
        want = np.exp(log_pref + ((n - 3) / 2.0) * np.log(1.0 - xs ** 2 / n))
        # log C_n is a difference of two log-gammas near gammaln(n/2), so two
        # libraries that each round them within an ulp can differ by 4 ulps of it
        rtol = 1e-13 + 4 * np.spacing(abs(gammaln(n / 2.0)))
        np.testing.assert_allclose(density(FiniteSampleLaw(n), xs), want, rtol=rtol)

    @pytest.mark.parametrize("n", [2, 3, 5, 59, 60, 288, 1440, 10 ** 5, 10 ** 6])
    def test_constant_matches_50_digit_log_gamma(self, n):
        # the density at 0 is C_n itself; 59 and 60 straddle the switch from
        # the closed form to the asymptotic series
        with mpmath.workdps(50):
            want = float(mpmath.exp(mpmath.loggamma(mpmath.mpf(n) / 2)
                                    - mpmath.loggamma(mpmath.mpf(n - 1) / 2)
                                    - mpmath.log(mpmath.pi * n) / 2))
        assert density(FiniteSampleLaw(n), 0.0) == pytest.approx(want, rel=4 * np.finfo(float).eps,
                                                                 abs=0)

    @pytest.mark.parametrize("n", [3, 10, 288, 1440])
    def test_normalization(self, n):
        law = FiniteSampleLaw(n)
        total, _ = quad(lambda x: density(law, x), -np.sqrt(n), np.sqrt(n), limit=200)
        assert total == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("n", [10, 288])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_moments_match_quadrature(self, n, k):
        law = FiniteSampleLaw(n)
        val, _ = quad(lambda x: x ** (2 * k) * density(law, x),
                      -np.sqrt(n), np.sqrt(n), limit=200)
        assert val == pytest.approx(moment_2k(law, k), abs=1e-6)


class TestMoments:
    def test_second_moment_is_one(self):
        for n in (1, 2, 12, 288, 1440):
            assert moment_2k(FiniteSampleLaw(n), 1) == pytest.approx(1.0)

    def test_fourth_moment_n288(self):
        assert moment_2k(FiniteSampleLaw(288), 2) == pytest.approx(864 / 290)

    def test_sixth_moment_n4(self):
        assert moment_2k(FiniteSampleLaw(4), 3) == pytest.approx(5.0)

    def test_k_below_1_rejected(self):
        with pytest.raises(ValueError, match="k must be a positive integer"):
            moment_2k(FiniteSampleLaw(288), 0)

    def test_monte_carlo_agreement(self):
        # oracle: simulate standardized returns directly
        rng = np.random.default_rng(42)
        n = 288
        r = rng.normal(size=(10 ** 5, n))
        rbar = r.sum(axis=1) / np.sqrt((r ** 2).sum(axis=1))
        law = FiniteSampleLaw(n)
        for k in (1, 2, 3):
            sample = rbar ** (2 * k)
            se = sample.std() / np.sqrt(len(sample))
            assert abs(sample.mean() - moment_2k(law, k)) < 3 * se


class TestKurtosis:
    def test_matches_moment_ratio(self):
        for n in (1, 4, 288):
            law = FiniteSampleLaw(n)
            assert kurtosis(law) == pytest.approx(
                moment_2k(law, 2) / moment_2k(law, 1) ** 2)

    def test_degenerate_n1(self):
        assert kurtosis(FiniteSampleLaw(1)) == pytest.approx(1.0)

    def test_five_minute_value(self):
        assert kurtosis(FiniteSampleLaw(288)) == pytest.approx(2.97931, abs=1e-5)

    def test_strictly_increasing_to_three(self):
        values = [kurtosis(FiniteSampleLaw(n)) for n in range(1, 5000)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] < 3.0
        assert kurtosis(FiniteSampleLaw(10 ** 9)) == pytest.approx(3.0, abs=1e-8)


class TestRelativeError:
    def test_five_minute_one_percent(self):
        assert relative_error(288, 3.02) == pytest.approx(0.01038, abs=5e-5)

    def test_daily_sampling(self):
        assert relative_error(1, 3.0) == pytest.approx(0.75)

    def test_vanishes_as_a_shrinks(self):
        assert relative_error(288, 1e-12) == pytest.approx(0.0, abs=1e-10)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            relative_error(0, 1.0)
        with pytest.raises(ValueError):
            relative_error(10, -1.0)
