"""Tests for the pinch-distance integration and its asymptotics."""

from __future__ import annotations

import math

import numpy as np
import pytest

from collarflow import wp
from collarflow.geometry import ELL_MAX, DomainError, dz2_norms
from collarflow.wp import (
    CorrectionFit,
    G_AT_PINCH,
    PATH_SAMPLES,
    WPPath,
    correction_coefficient,
    integrate_to_pinch,
    pinch_speed,
    speed_normalizer,
)

# independent high-precision quadrature of the arc-length integral
DIST_ORACLES = {
    0.02: 0.354490759435113020052259238118,
    0.05: 0.560498856218792941019387446993,
    0.1: 0.792662459112228267166700570323,
    0.2: 1.12096440879973583728420703332,
}
CUBIC_COEFF = 0.003789403406949888946878185  # 1/(84 pi)


class TestSpeedNormalizer:
    def test_value_at_pinch(self):
        assert speed_normalizer(0.0) == pytest.approx(G_AT_PINCH, rel=1e-14)
        assert G_AT_PINCH == pytest.approx(32.0 * math.pi**5, rel=1e-15)

    def test_consistent_with_norm_route(self):
        for ell in (0.05, 0.13, 0.6, 1.5):
            direct = ell**3 * dz2_norms(ell).l2_sq
            assert speed_normalizer(ell) == pytest.approx(direct, rel=1e-11)

    def test_monotone_decreasing_and_bounded(self):
        ls = np.linspace(0.0, ELL_MAX, 800)
        g = speed_normalizer(ls)
        assert np.all(np.diff(g) < 0)
        assert g[0] == pytest.approx(G_AT_PINCH, rel=1e-14)
        assert np.all(g <= G_AT_PINCH)

    def test_domain_enforced(self):
        with pytest.raises(DomainError):
            speed_normalizer(-0.1)
        with pytest.raises(DomainError):
            speed_normalizer(2.0)


class TestPinchSpeed:
    def test_negative_and_asymptotic(self):
        for ell in (1e-5, 1e-3):
            v = pinch_speed(ell)
            assert v < 0
            assert v / -math.sqrt(2.0 * ell / math.pi) == pytest.approx(
                1.0, abs=1e-4)

    def test_reciprocal_of_distance_derivative(self):
        ell, h = 0.1, 1e-5
        dd = (integrate_to_pinch(ell + h, tol=1e-12).total
              - integrate_to_pinch(ell - h, tol=1e-12).total) / (2.0 * h)
        assert dd == pytest.approx(-1.0 / pinch_speed(ell), rel=1e-6)

    def test_closed_form_matches_dz2_norm_route(self):
        ell = np.linspace(0.0, ELL_MAX, 203)[1:-1]
        l2_sq = np.array([dz2_norms(l).l2_sq for l in ell])
        via_norm = -(8.0 * math.pi**2 / ell) / np.sqrt(l2_sq)
        assert pinch_speed(ell) == pytest.approx(via_norm, rel=1e-14)

    def test_domain_enforced(self):
        with pytest.raises(DomainError):
            pinch_speed(0.0)
        with pytest.raises(DomainError):
            pinch_speed(ELL_MAX)


class TestDistance:
    @pytest.mark.parametrize("ell0", sorted(DIST_ORACLES))
    def test_matches_oracle(self, ell0):
        path = integrate_to_pinch(ell0, tol=1e-11)
        assert path.total == pytest.approx(DIST_ORACLES[ell0], abs=1e-9)

    @pytest.mark.parametrize("ell0", sorted(DIST_ORACLES))
    def test_strictly_below_leading_order(self, ell0):
        total = integrate_to_pinch(ell0, tol=1e-11).total
        lead = math.sqrt(2.0 * math.pi * ell0)
        assert total < lead
        deficit = 1.0 - total / lead
        assert deficit == pytest.approx(CUBIC_COEFF * ell0**3, rel=0.05)

    def test_path_shape(self):
        path = integrate_to_pinch(0.1)
        assert isinstance(path, WPPath)
        assert path.ell.shape == (PATH_SAMPLES,)
        assert path.ell[0] == pytest.approx(0.1)
        assert path.ell[-1] == 0.0
        assert path.distance[-1] == 0.0
        assert path.total == path.distance[0]
        assert np.all(np.diff(path.ell) < 0)
        assert np.all(np.diff(path.distance) < 0)

    def test_path_validation(self):
        # the path starts inside the open range; the error names ell0 and its value
        with pytest.raises(DomainError, match=r"^ell0: need .* \(0, 2 arsinh 1\), got 0\.0$"):
            integrate_to_pinch(0.0)
        with pytest.raises(DomainError, match=r"^ell0: .*, got 1\.76"):
            integrate_to_pinch(ELL_MAX)

    @pytest.mark.parametrize("n_samples", [2, 200])
    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
    def test_tolerance_met(self, monkeypatch, tol, n_samples):
        # one path interval (2 samples) must meet tol as well as 199 do
        monkeypatch.setattr(wp, "PATH_SAMPLES", n_samples)
        dist = DIST_ORACLES[0.1]
        path = integrate_to_pinch(0.1, tol=tol)
        assert path.ell.shape == (n_samples,)
        assert abs(path.total - dist) <= tol * dist

    def test_unreachable_tolerance_rejected(self):
        with pytest.raises(DomainError, match="tol must be finite and >= 0"):
            integrate_to_pinch(0.1, tol=-1.0)


class TestLengthCheck:
    @pytest.mark.parametrize("call", [
        lambda: speed_normalizer(math.nan),
        lambda: speed_normalizer(np.array([0.1, math.nan])),
        lambda: pinch_speed(math.nan),
        lambda: integrate_to_pinch(math.nan),
        lambda: correction_coefficient([math.nan, 0.05, 0.1, 0.2]),
    ], ids=["speed_normalizer", "speed_normalizer-array", "pinch_speed",
            "integrate_to_pinch", "correction_coefficient"])
    def test_nan_length_rejected(self, call):
        with pytest.raises(DomainError, match="2 arsinh 1"):
            call()

    @pytest.mark.parametrize("tol", [math.inf, math.nan, -1e-12])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(DomainError, match="tol must be finite and >= 0"):
            integrate_to_pinch(0.1, tol=tol)

    def test_zero_tol_accepted(self):
        assert integrate_to_pinch(0.1, tol=0.0).total == pytest.approx(
            DIST_ORACLES[0.1], abs=1e-12)


class TestCorrectionFit:
    def test_recovers_cubic_coefficient(self):
        fit = correction_coefficient([0.02, 0.05, 0.1])
        assert isinstance(fit, CorrectionFit)
        assert fit.c3 == pytest.approx(CUBIC_COEFF, rel=0.05)
        assert fit.max_rel_residual < 1e-4

    def test_tightens_with_smaller_lengths(self):
        wide = correction_coefficient([0.05, 0.12, 0.2])
        narrow = correction_coefficient([0.02, 0.045, 0.08])
        err_wide = abs(wide.c3 - CUBIC_COEFF)
        err_narrow = abs(narrow.c3 - CUBIC_COEFF)
        assert err_narrow < err_wide

    def test_synthetic_injection_round_trip(self, monkeypatch):
        # the fit reads each distance through wp.integrate_to_pinch
        c3_true = 0.004
        ells = np.array([0.03, 0.07, 0.12, 0.18])
        dists = dict(zip(ells, np.sqrt(2.0 * math.pi * ells) * (1.0 - c3_true * ells**3)))
        monkeypatch.setattr(wp, "integrate_to_pinch",
                            lambda ell0, tol: WPPath(ell=None, distance=None,
                                                     total=dists[ell0]))
        fit = correction_coefficient(ells)
        assert fit.c3 == pytest.approx(c3_true, rel=1e-8)
        assert abs(fit.c5) < 1e-8

    def test_validation(self):
        with pytest.raises(DomainError):
            correction_coefficient([0.05, 0.1])
        with pytest.raises(DomainError):
            correction_coefficient([0.1, 0.1001, 0.10005, 0.2])
        with pytest.raises(DomainError, match=r"^sample lengths: .*, got 1\.9$"):
            correction_coefficient([0.05, 0.1, 1.9])
