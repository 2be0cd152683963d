import numpy as np
import pytest

from roughscale.mfdfa import GHECurve
from roughscale.multifractal_metrics import delta_h, taylor_b1
from roughscale.synthetic import cascade_hq


def curve_from(pairs):
    q, h = np.array(pairs, dtype=float).T
    return GHECurve(q_values=q, h_values=h, stderr=np.zeros(len(q)),
                    r2=np.ones(len(q)))


def linear_curve(b0, b1, qs=(-3.0, -2.0, 2.0, 3.0)):
    return curve_from([(q, b0 + b1 * q) for q in qs])


class TestDeltaH:
    def test_monofractal_zero(self):
        curve = curve_from([(-3.0, 0.13), (3.0, 0.13)])
        assert delta_h(curve, 3.0) == 0.0

    def test_reported_rv_strength(self):
        curve = curve_from([(-3.0, 0.15), (3.0, 0.116)])
        assert delta_h(curve, 3.0) == pytest.approx(0.034)

    def test_cascade_closed_form(self):
        qs = [-3.0, -2.0, -1.0, 1.0, 2.0, 3.0]
        curve = curve_from([(q, cascade_hq(0.6, q)) for q in qs])
        expected = cascade_hq(0.6, -3.0) - cascade_hq(0.6, 3.0)
        assert delta_h(curve, 3.0) == pytest.approx(expected, abs=1e-12)

    def test_missing_q_named(self):
        curve = curve_from([(-3.0, 0.2), (2.0, 0.1)])
        with pytest.raises(ValueError, match="3"):
            delta_h(curve, 3.0)

    def test_mirror_antisymmetry(self):
        curve = curve_from([(-3.0, 0.21), (3.0, 0.14)])
        mirrored = curve_from([(-3.0, 0.14), (3.0, 0.21)])
        assert delta_h(curve, 3.0) == pytest.approx(-delta_h(mirrored, 3.0))


class TestTaylorB1:
    def test_representative_magnitude(self):
        curve = curve_from([(-3.0, 0.15), (3.0, 0.116)])
        _, b1 = taylor_b1(curve, 3.0)
        assert -b1 == pytest.approx(0.034 / 6, abs=1e-12)
        assert -b1 == pytest.approx(0.00567, abs=1e-5)

    def test_monofractal(self):
        curve = curve_from([(-3.0, 0.4), (3.0, 0.4)])
        b0, b1 = taylor_b1(curve, 3.0)
        assert b1 == 0.0
        assert b0 == pytest.approx(0.4)

    def test_linear_curve_recovered_exactly(self):
        b0, b1 = taylor_b1(linear_curve(0.2, -0.01), 3.0)
        assert b1 == pytest.approx(-0.01, abs=1e-15)
        assert b0 == pytest.approx(0.2, abs=1e-15)

    def test_linearity_in_the_curve(self):
        c1 = curve_from([(-3.0, 0.3), (3.0, 0.1)])
        c2 = curve_from([(-3.0, 0.05), (3.0, 0.2)])
        summed = curve_from([(-3.0, 0.35), (3.0, 0.3)])
        b0_sum, b1_sum = taylor_b1(summed, 3.0)
        b0s = taylor_b1(c1, 3.0), taylor_b1(c2, 3.0)
        assert b0_sum == pytest.approx(b0s[0][0] + b0s[1][0])
        assert b1_sum == pytest.approx(b0s[0][1] + b0s[1][1])



def test_windowed_curve_gives_one_value_per_window():
    qs = np.array([-3.0, 2.0, 3.0])
    h = np.array([[0.15, 0.13, 0.116], [0.2, 0.2, 0.2], [0.3, 0.25, 0.1]])
    windowed = GHECurve(q_values=qs, h_values=h, stderr=np.zeros_like(h),
                        r2=np.ones_like(h))
    width = delta_h(windowed, 3.0)
    b0, b1 = taylor_b1(windowed, 3.0)
    for w, row in enumerate(h):
        single = curve_from(list(zip(qs, row)))
        assert width[w] == delta_h(single, 3.0)
        assert (b0[w], b1[w]) == taylor_b1(single, 3.0)
