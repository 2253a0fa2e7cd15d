"""Leave-one-out band edge cases of both detector band computations.

The all-pairs oracle (:func:`repro.qa.reference._band_arrays`) removes the
judged pair from its rater's band via sorted-row extrema and ±inf
sentinels; the production pass (:meth:`CollusionDetector._bands`) sorts
each flagged rater's band once by (rater, value).  The constructions that
historically go wrong are pinned here against a brute-force per-pair
reference: a rater with a single rated peer (the sentinel rows),
duplicate row maxima (the runner-up must equal the maximum), and the
RATER / AUTO / GLOBAL centring policies at the ``min_band_size`` edge.
The ``-production`` cases run the production band step at every pair it
can judge — a ratee inside its rater's rated set.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.config import GaussianCenter, SocialTrustConfig
from repro.core.detector import CollusionDetector
from repro.qa.reference import _band_arrays


def brute_force(coeffs, rated_mask, global_values, config):
    """Per-pair python reference for the vectorised band computation."""
    n = coeffs.shape[0]
    if global_values.size:
        g_center = float(global_values.mean())
        g_spread = float(global_values.max() - global_values.min())
    else:
        g_center, g_spread = 0.0, 0.0
    centers = np.full((n, n), g_center)
    spreads = np.full((n, n), g_spread)
    if config.center is GaussianCenter.GLOBAL:
        return centers, spreads
    for i in range(n):
        rated = [j for j in range(n) if rated_mask[i, j]]
        for j in range(n):
            loo = [coeffs[i, k] for k in rated if k != j]
            if not loo:
                continue
            if config.center is GaussianCenter.AUTO and len(loo) < config.min_band_size:
                continue
            centers[i, j] = sum(loo) / len(loo)
            spreads[i, j] = max(loo) - min(loo)
    return centers, spreads


def oracle_bands(coeffs, rated_mask, global_values, config):
    """All-pairs bands: every pair is judged."""
    centers, spreads = _band_arrays(coeffs, rated_mask, global_values, config)
    return np.ones(coeffs.shape, dtype=bool), centers.ravel(), spreads.ravel()


def production_bands(coeffs, rated_mask, global_values, config):
    """Flagged-pair bands with every rated pair flagged."""
    n = coeffs.shape[0]
    universe = np.flatnonzero(rated_mask)
    values = coeffs.ravel()[universe]
    computer = SimpleNamespace(n_nodes=n)
    detector = CollusionDetector(computer, computer, config)
    centers, spreads = detector._bands(
        universe, values, universe // n, values, global_values
    )
    return rated_mask, centers, spreads


def band_cases(centers):
    return [pytest.param(c, oracle_bands, id=c) for c in centers] + [
        pytest.param(c, production_bands, id=f"{c}-production") for c in centers
    ]


def assert_matches_reference(coeffs, rated_mask, global_values, config, bands):
    judged, got_c, got_s = bands(coeffs, rated_mask, global_values, config)
    want_c, want_s = brute_force(coeffs, rated_mask, global_values, config)
    assert got_c.size == judged.sum() > 0
    np.testing.assert_allclose(got_c, want_c[judged], atol=1e-12, rtol=0.0)
    np.testing.assert_allclose(got_s, want_s[judged], atol=1e-12, rtol=0.0)
    assert np.all(np.isfinite(got_c)) and np.all(np.isfinite(got_s))


GLOBAL_VALUES = np.array([0.2, 0.4, 0.9])


class TestSingleRatedPeer:
    """One rated peer: the LOO set for that pair is empty, so its band must
    fall back (RATER/AUTO → global), and the ±inf sort sentinels used to
    expose the runner-up must never leak into any output cell."""

    def setup_method(self):
        self.n = 4
        self.coeffs = np.array(
            [
                [0.0, 0.7, 0.1, 0.3],
                [0.2, 0.0, 0.5, 0.6],
                [0.9, 0.8, 0.0, 0.4],
                [0.3, 0.1, 0.2, 0.0],
            ]
        )
        self.rated = np.zeros((self.n, self.n), dtype=bool)
        self.rated[0, 1] = True  # rater 0 rated exactly one node

    @pytest.mark.parametrize("center,bands", band_cases(["rater", "auto", "global"]))
    def test_matches_reference_without_inf_leak(self, center, bands):
        config = SocialTrustConfig(center=center)
        assert_matches_reference(
            self.coeffs, self.rated, GLOBAL_VALUES, config, bands
        )

    def test_judged_pair_falls_back_to_global(self):
        config = SocialTrustConfig(center="rater")
        centers, spreads = _band_arrays(
            self.coeffs, self.rated, GLOBAL_VALUES, config
        )
        # (0, 1) has an empty LOO set → global band.
        assert centers[0, 1] == pytest.approx(GLOBAL_VALUES.mean())
        assert spreads[0, 1] == pytest.approx(0.7)
        # (0, 2) keeps the single-element band {coeffs[0, 1]}, spread 0.
        assert centers[0, 2] == pytest.approx(0.7)
        assert spreads[0, 2] == 0.0


class TestDuplicateExtrema:
    """Two rated peers sharing the row maximum (or minimum): removing one
    must leave the extremum in place — the sorted runner-up equals it."""

    def setup_method(self):
        self.n = 5
        self.coeffs = np.zeros((self.n, self.n))
        # rater 0 rated 1..4 with a duplicated max and duplicated min.
        self.coeffs[0, 1:] = [0.9, 0.9, 0.1, 0.1]
        self.rated = np.zeros((self.n, self.n), dtype=bool)
        self.rated[0, 1:] = True

    @pytest.mark.parametrize("center,bands", band_cases(["rater", "auto"]))
    def test_matches_reference(self, center, bands):
        config = SocialTrustConfig(center=center)
        assert_matches_reference(
            self.coeffs, self.rated, GLOBAL_VALUES, config, bands
        )

    def test_removing_one_duplicate_keeps_spread(self):
        config = SocialTrustConfig(center="rater")
        _, spreads = _band_arrays(self.coeffs, self.rated, GLOBAL_VALUES, config)
        # Dropping either duplicate still leaves 0.9 - 0.1 on the table.
        for j in (1, 2, 3, 4):
            assert spreads[0, j] == pytest.approx(0.8)


class TestCenterPolicyAtMinBandSize:
    """AUTO trusts a rater's own band only at ``loo_size >= min_band_size``;
    RATER trusts any non-empty band; GLOBAL never does."""

    def setup_method(self):
        self.n = 6
        rng = np.random.default_rng(7)
        self.coeffs = rng.random((self.n, self.n))
        np.fill_diagonal(self.coeffs, 0.0)
        self.rated = np.zeros((self.n, self.n), dtype=bool)
        # rater 0 rated exactly min_band_size nodes → judged pairs inside
        # the rated set have loo_size = min_band_size - 1 (AUTO: global),
        # pairs outside it have loo_size = min_band_size (AUTO: own band).
        self.rated[0, 1:4] = True

    @pytest.mark.parametrize("center,bands", band_cases(["rater", "auto", "global"]))
    def test_matches_reference(self, center, bands):
        config = SocialTrustConfig(center=center, min_band_size=3)
        assert_matches_reference(
            self.coeffs, self.rated, GLOBAL_VALUES, config, bands
        )

    def test_auto_splits_on_the_boundary(self):
        config = SocialTrustConfig(center="auto", min_band_size=3)
        centers, _ = _band_arrays(self.coeffs, self.rated, GLOBAL_VALUES, config)
        g_center = GLOBAL_VALUES.mean()
        # Judged pair inside the rated set: LOO size 2 < 3 → global.
        assert centers[0, 1] == pytest.approx(g_center)
        # Judged pair outside: LOO size 3 → the rater's own mean.
        own = self.coeffs[0, 1:4].mean()
        assert centers[0, 5] == pytest.approx(own)
        # RATER accepts the size-2 band AUTO rejected.
        rater_centers, _ = _band_arrays(
            self.coeffs, self.rated, GLOBAL_VALUES,
            SocialTrustConfig(center="rater", min_band_size=3),
        )
        loo = [self.coeffs[0, k] for k in (2, 3)]
        assert rater_centers[0, 1] == pytest.approx(np.mean(loo))

    def test_empty_global_values_fall_back_to_zero(self):
        config = SocialTrustConfig(center="auto", min_band_size=3)
        centers, spreads = _band_arrays(
            self.coeffs, self.rated, np.array([]), config
        )
        assert centers[0, 1] == 0.0
        assert spreads[0, 1] == 0.0
