import numpy as np
import pytest

from roughscale.errors import NumericError
from roughscale.synthetic import (cascade_hq, fgn_autocovariance, generate_cascade,
                                  generate_fgn, generate_sv_days)


class TestFgn:
    def test_h_half_is_white(self):
        x = generate_fgn(0.5, 2 ** 14, seed=1)
        rho1 = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(rho1) < 3 / np.sqrt(len(x))

    def test_lag_one_autocorrelation_h08(self):
        x = generate_fgn(0.8, 2 ** 16, seed=2)
        rho1 = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert rho1 == pytest.approx(2 ** (2 * 0.8 - 1) - 1, abs=0.02)

    def test_deterministic_per_seed(self):
        a = generate_fgn(0.3, 2 ** 10, seed=42)
        b = generate_fgn(0.3, 2 ** 10, seed=42)
        np.testing.assert_array_equal(a, b)
        c = generate_fgn(0.3, 2 ** 10, seed=43)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("H", [0.2, 0.5, 0.8])
    def test_mean_and_variance(self, H):
        x = generate_fgn(H, 2 ** 15, seed=5)
        bound = 5 / np.sqrt(len(x))
        assert abs(x.mean()) < bound
        assert abs(x.var() - 1.0) < 5 * bound

    def test_closed_form_autocovariance(self):
        assert fgn_autocovariance(0.5, 1) == pytest.approx(0.0)
        assert fgn_autocovariance(0.8, 0) == pytest.approx(1.0)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            generate_fgn(0.3, 1000, seed=0)
        with pytest.raises(ValueError):
            generate_fgn(0.3, 512, seed=0)

    def test_hurst_validation(self):
        with pytest.raises(ValueError):
            generate_fgn(1.2, 2 ** 10, seed=0)

    def test_embedding_that_is_not_psd_raises(self):
        # the embedding's middle entry is 0, not the lag-length autocovariance,
        # so from H ~ 0.9 (0.8999 at 1024 points) it has negative eigenvalues
        with pytest.raises(NumericError, match="circulant embedding not positive "
                                               "semi-definite at H = 0.95, length 1024$"):
            generate_fgn(0.95, 2 ** 10, seed=0)


class TestCascade:
    def test_symmetric_split_is_uniform(self):
        x = generate_cascade(0.5, 8)
        np.testing.assert_allclose(x, 1 / 256)

    def test_closed_form_h2(self):
        # independent arithmetic: p^2 + (1-p)^2 = 0.52 at p = 0.6,
        # h(2) = 1/2 - ln(0.52)/(2 ln 2)
        expected = 0.5 - np.log(0.52) / (2 * np.log(2))
        assert cascade_hq(0.6, 2.0) == pytest.approx(expected, abs=1e-12)
        assert cascade_hq(0.6, 2.0) == pytest.approx(0.9717, abs=5e-4)

    def test_mass_conservation(self):
        for p, levels in [(0.3, 10), (0.6, 16), (0.9, 12)]:
            assert abs(generate_cascade(p, levels).sum() - 1.0) < 1e-12

    def test_length(self):
        assert len(generate_cascade(0.6, 12)) == 2 ** 12

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_cascade(1.5, 8)
        with pytest.raises(ValueError):
            generate_cascade(0.6, 0)

    def test_closed_form_needs_q_nonzero(self):
        with pytest.raises(ValueError, match="q = 0 requires the limit form"):
            cascade_hq(0.6, 0.0)


class TestSvDay:
    def test_rv_approaches_sigma_squared(self):
        x = generate_sv_days(1, 100000, 0.02, seed=9)[0]
        assert (x ** 2).sum() == pytest.approx(0.02 ** 2, rel=0.05)

    def test_degenerate_n1(self):
        for seed in range(20):
            x = generate_sv_days(1, 1, 0.5, seed=seed)[0]
            rbar = x.sum() / np.sqrt((x ** 2).sum())
            assert abs(rbar) == pytest.approx(1.0)

    def test_batch_kurtosis_matches_finite_sample_law(self):
        days = generate_sv_days(30000, 288, 0.01, seed=10)
        rbar = days.sum(axis=1) / np.sqrt((days ** 2).sum(axis=1))
        kurt = np.mean(rbar ** 4) / np.mean(rbar ** 2) ** 2
        assert kurt == pytest.approx(3 * 288 / 290, abs=0.08)

    def test_batch_determinism(self):
        np.testing.assert_array_equal(generate_sv_days(10, 4, 1.0, seed=3),
                                      generate_sv_days(10, 4, 1.0, seed=3))

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_sv_days(1, 0, 1.0, seed=0)
        with pytest.raises(ValueError):
            generate_sv_days(1, 10, -1.0, seed=0)
        with pytest.raises(ValueError, match="num_days must be >= 1"):
            generate_sv_days(0, 10, 1.0, seed=0)

