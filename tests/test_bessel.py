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


PUBLIC = ("j0", "j1", "j2", "y0", "y1", "y2", "y1_scaled", "y2_scaled")


def test_mixed_array_matches_scalar_evaluation():
    # each branch of _split sees only its own elements
    z = np.random.default_rng(3).permutation(
        np.concatenate([np.geomspace(1e-8, 8.0, 150),
                        np.linspace(8.0, 50.0, 150)]))
    for name in PUBLIC:
        fn = getattr(bessel, name)
        scalars = np.array([float(fn(v)) for v in z])
        np.testing.assert_array_equal(fn(z), scalars, err_msg=name)


def test_hankel_branch_not_reached_below_crossover(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("Hankel branch evaluated")

    monkeypatch.setattr(bessel, "_asym", boom)
    z = np.array([1e-8, 0.3, 1.4, 2.0, 5.5, 8.0])
    for name in PUBLIC:
        assert np.all(np.isfinite(getattr(bessel, name)(z))), name
        assert np.isfinite(getattr(bessel, name)(8.0)), name


def _jy_mpmath(z):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    rows = []
    for v in z:
        t = mp.mpf(float(v))
        rows.append([mp.besselj(1, t), mp.besselj(2, t),
                     t * mp.bessely(1, t), t * t * mp.bessely(2, t)])
    return np.array(rows, dtype=float).T


def test_jy_scaled_against_mpmath():
    inner = np.geomspace(1e-10, np.sqrt(2.0), 150)
    got, want = np.array(bessel.jy_scaled(inner)), _jy_mpmath(inner)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-14
    # beyond sqrt(2): J1, J2, Y1, Y2 on the grid and bound of
    # test_against_mpmath_on_grids
    outer = np.geomspace(1e-8, 8.0, 120)
    outer = outer[outer > np.sqrt(2.0)]
    scaled = np.array([outer, outer * outer])
    got, want = np.array(bessel.jy_scaled(outer)), _jy_mpmath(outer)
    got[2:], want[2:] = got[2:] / scaled, want[2:] / scaled
    scale = np.maximum(np.abs(want), 1e-3)
    assert np.max(np.abs(got - want) / scale) < 1e-12


def test_jy_scaled_matches_full_length_series():
    # the per-function forms with all _NTERMS terms of each series
    z = np.geomspace(1e-10, 8.0, 400)
    w, lg = z * z / 4.0, bessel._log_half_z(z)
    j1 = 0.5 * z * bessel._series(w, bessel._C_J1)
    j2 = 0.25 * z * z * bessel._series(w, bessel._C_J2)
    zy1 = (bessel.TWO_OVER_PI * (z * lg * j1 - 1.0)
           - (z * z / (2.0 * np.pi)) * bessel._series(w, bessel._C_W1))
    z2y2 = (-(4.0 / np.pi) * (1.0 + w) + bessel.TWO_OVER_PI * z * z * lg * j2
            - (z ** 4 / (4.0 * np.pi)) * bessel._series(w, bessel._C_W2))
    for hi in (np.sqrt(2.0), 2.0, 8.0):   # 12, 14 and 26 terms
        part = z <= hi
        got = bessel.jy_scaled(z[part])
        for g, want in zip(got, (j1, j2, zy1, z2y2)):
            assert np.max(np.abs(g - want[part]) / np.abs(want[part])) <= 1e-15


def test_jy_scaled_limits_at_zero():
    for z in (0.0, 5e-324):
        j1, j2, zy1, z2y2 = bessel.jy_scaled(z)
        assert j1 == 0.0 and j2 == 0.0
        assert zy1 == pytest.approx(-2.0 / np.pi, rel=1e-15)
        assert z2y2 == pytest.approx(-4.0 / np.pi, rel=1e-15)
