import numpy as np
import pytest

from dynastyprice import bessel


def test_frozen_reference_values():
    # high-precision references (independent 30-digit evaluation)
    assert bessel.bessel_j(1, 1.0) == pytest.approx(0.44005058574493352, rel=1e-14)
    assert bessel.bessel_y(1, 1.0) == pytest.approx(-0.78121282130028872, rel=1e-14)
    assert bessel.bessel_j(2, 1.1547) == pytest.approx(0.14890271923191262, rel=1e-13)


def test_against_mpmath_on_grids():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    z = np.concatenate([np.geomspace(1e-8, 8.0, 120),
                        np.linspace(8.01, 50.0, 120)])
    for order, ours, ref in [(1, bessel.j1, mp.besselj), (2, bessel.j2, mp.besselj),
                             (1, bessel.y1, mp.bessely), (2, bessel.y2, mp.bessely)]:
        got = ours(z)
        want = np.array([float(ref(order, mp.mpf(float(v)))) for v in z])
        # relative where the function is not near a zero, absolute otherwise
        scale = np.maximum(np.abs(want), 1e-3)
        assert np.max(np.abs(got - want) / scale) < 1e-12


def test_cross_product_identity():
    z = np.geomspace(1e-6, 50.0, 1000)
    lhs = bessel.j1(z) * bessel.y2(z) - bessel.j2(z) * bessel.y1(z)
    rhs = -2.0 / (np.pi * z)
    assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) < 1e-10


def test_j2_recurrence_against_j0_helper():
    z = np.array([0.5, 1.1547, 2.0, 3.7, 6.3, 9.5, 14.2, 21.0, 33.0, 47.0])
    rec = (2.0 / z) * bessel.j1(z) - bessel.j0(z)
    rel = np.abs(rec - bessel.j2(z)) / np.maximum(np.abs(bessel.j2(z)), 1e-3)
    assert np.max(rel) < 1e-12


def test_small_argument_leading_terms():
    z = 1e-6
    assert bessel.j2(z) == pytest.approx(z * z / 8.0, rel=1e-12)
    z = 1e-8
    assert bessel.y2(z) * z * z == pytest.approx(-4.0 / np.pi, rel=1e-12)
    assert bessel.y1(z) * z == pytest.approx(-2.0 / np.pi, rel=1e-12)


def test_scaled_variants_match_and_stay_finite():
    z = np.geomspace(1e-10, 40.0, 200)
    assert np.allclose(bessel.y1_scaled(z), z * bessel.y1(z), rtol=1e-13)
    assert np.allclose(bessel.y2_scaled(z), z * z * bessel.y2(z), rtol=1e-13)
    # limits at an argument that underflows e^{-lam u} bookkeeping upstream
    assert bessel.y1_scaled(0.0) == pytest.approx(-2.0 / np.pi, rel=1e-14)
    assert bessel.y2_scaled(0.0) == pytest.approx(-4.0 / np.pi, rel=1e-14)
    # the smallest subnormal, where z / 2 underflows to 0
    assert bessel.y1_scaled(5e-324) == pytest.approx(-2.0 / np.pi, rel=1e-14)
    assert bessel.y2_scaled(5e-324) == pytest.approx(-4.0 / np.pi, rel=1e-14)


def test_domain_and_order_errors():
    with pytest.raises(ValueError):
        bessel.bessel_j(1, 0.0)
    with pytest.raises(ValueError):
        bessel.bessel_y(2, -1.0)
    with pytest.raises(ValueError):
        bessel.bessel_j(3, 1.0)


def test_scalar_and_array_round_trip():
    out = bessel.bessel_j(1, 2.5)
    assert isinstance(out, float)
    arr = bessel.bessel_y(2, np.array([0.5, 5.0]))
    assert arr.shape == (2,)
