"""Suspicious-behaviour detection — Section 4.3's trigger logic.

Per reputation-update interval the detector:

1. derives the frequency thresholds ``T+_t`` / ``T-_t`` (``theta * F`` over
   the interval's observed mean positive/negative rating frequency unless
   the configuration pins absolute values);
2. flags rater→ratee pairs whose positive (negative) rating count exceeds
   the threshold;
3. classifies each flagged pair against the trace-mined behaviours:

   * **B1** — high-frequency positive ratings at *low* social closeness
     (strangers praising each other);
   * **B2** — high-frequency positive ratings at *high* closeness toward a
     *low-reputed* ratee (friends pumping a bad node);
   * **B3** — high-frequency positive ratings at *low* interest similarity
     (no plausible transaction relationship);
   * **B4** — high-frequency *negative* ratings at *high* interest
     similarity (competitor badmouthing);

4. damps the matched pairs' rating influence with the Gaussian filter of
   Eq. (9), centred on each rater's own coefficient band (falling back to
   the system-wide band for raters with too few rated peers — the AUTO
   centring policy).

Only the frequency-flagged pairs are scored.  Their coefficients, the
interval's active transaction pairs (for the derived band thresholds and
the global band) and the flagged raters' rated neighbourhoods (for the
per-rater bands) are gathered from the cached Ωc/Ωs matrices through
``pair_values``; no further ``n x n`` array is built unless a caller
reads :attr:`DetectionResult.weights`.  The all-pairs formulation is kept
in :mod:`repro.qa.reference` as the test oracle.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from repro.core.closeness import ClosenessComputer
from repro.core.config import GaussianCenter, SocialTrustConfig
from repro.core.similarity import SimilarityComputer
from repro.obs import Observability
from repro.reputation.base import IntervalRatings

__all__ = [
    "SuspicionReason",
    "Finding",
    "DerivedThresholds",
    "DetectionResult",
    "CollusionDetector",
]


class SuspicionReason(enum.Flag):
    """Which trace-mined behaviour pattern(s) a flagged pair matched."""

    B1 = enum.auto()
    B2 = enum.auto()
    B3 = enum.auto()
    B4 = enum.auto()


@dataclass(frozen=True)
class Finding:
    """One adjusted rater→ratee pair with its evidence."""

    rater: int
    ratee: int
    reasons: SuspicionReason
    closeness: float
    similarity: float
    weight: float


@dataclass(frozen=True)
class DerivedThresholds:
    """The thresholds actually used for one interval (after derivation)."""

    pos_frequency: float
    neg_frequency: float
    low_reputation: float
    closeness_low: float
    closeness_high: float
    similarity_low: float
    similarity_high: float


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of one interval's analysis.

    Only the adjusted pairs are stored; every other pair has implicit
    weight 1.0.  :attr:`weights` scatters them into a dense matrix on
    first access.
    """

    #: Adjusted rater→ratee pairs, shape ``(m, 2)``, row-major order.
    pairs: np.ndarray
    #: Damping weights for exactly those pairs, shape ``(m,)``.
    pair_weights: np.ndarray
    findings: tuple[Finding, ...]
    thresholds: DerivedThresholds
    n_nodes: int

    @property
    def n_adjusted(self) -> int:
        return len(self.findings)

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """Multiplicative damping weights, 1.0 everywhere except adjusted
        pairs (read-only; built once per result)."""
        out = np.ones((self.n_nodes, self.n_nodes), dtype=np.float64)
        if self.pairs.size:
            out[self.pairs[:, 0], self.pairs[:, 1]] = self.pair_weights
        out.flags.writeable = False
        return out


def _entries(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-major ``row * n + col`` keys and values of a square matrix's
    nonzero entries (keys ascending)."""
    flat = np.asarray(mat).ravel()
    keys = np.flatnonzero(flat != 0)
    return keys, flat[keys]


def _lookup(keys: np.ndarray, values: np.ndarray, query: np.ndarray) -> np.ndarray:
    """``values`` at the ``query`` keys as float64, 0.0 where absent."""
    out = np.zeros(query.shape, dtype=np.float64)
    if keys.size:
        at = np.minimum(np.searchsorted(keys, query), keys.size - 1)
        hit = keys[at] == query
        out[hit] = values[at[hit]]
    return out


def _starts(sorted_ids: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal ids."""
    first = np.ones(sorted_ids.size, dtype=bool)
    first[1:] = sorted_ids[1:] != sorted_ids[:-1]
    return first


def _union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted union of two ascending, duplicate-free key arrays (a stable
    sort merges the two runs in linear time)."""
    keys = np.sort(np.concatenate((a, b)), kind="stable")
    return keys[_starts(keys)]


def _drop_first(
    band: np.ndarray,
    owner: np.ndarray,
    first: np.ndarray,
    extremum: np.ndarray,
    fill: float,
) -> np.ndarray:
    """Copy of ``band`` with the first occurrence of each segment's
    ``extremum`` replaced by ``fill`` — reducing it again yields the
    runner-up (equal to the extremum when it is duplicated)."""
    at = np.where(band == extremum[owner], np.arange(band.size), band.size)
    out = band.copy()
    out[np.minimum.reduceat(at, first)] = fill
    return out


def _ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(lo[k], hi[k])`` over ``k``."""
    sizes = hi - lo
    starts = np.cumsum(sizes) - sizes
    return np.arange(int(sizes.sum())) + np.repeat(lo - starts, sizes)


class CollusionDetector:
    """Flags suspicious rating pairs and computes their damping weights."""

    def __init__(
        self,
        closeness: ClosenessComputer,
        similarity: SimilarityComputer,
        config: SocialTrustConfig | None = None,
        *,
        observability: Observability | None = None,
    ) -> None:
        if closeness.n_nodes != similarity.n_nodes:
            raise ValueError(
                "closeness and similarity computers disagree on network size"
            )
        self._closeness = closeness
        self._similarity = similarity
        self._config = config or SocialTrustConfig()
        self._obs = observability
        self._interval_index = 0

    @property
    def n_nodes(self) -> int:
        return self._closeness.n_nodes

    @property
    def observability(self) -> Observability | None:
        return self._obs

    def reset(self) -> None:
        """Rewind the audit interval counter (audit/metric stores are
        owned by the :class:`~repro.obs.Observability` bundle and are
        cleared there, not here)."""
        self._interval_index = 0

    @property
    def last_interval_index(self) -> int | None:
        """Index of the most recently analyzed interval (``None`` before
        the first :meth:`analyze`) — what follow-up audit events emitted
        by the manager layer should stamp themselves with."""
        if self._interval_index == 0:
            return None
        return self._interval_index - 1

    def state_dict(self) -> dict:
        return {"interval_index": self._interval_index}

    def restore_state(self, state: dict) -> None:
        self._interval_index = int(state["interval_index"])

    def _frequency_threshold(self, counts: np.ndarray, pinned: float | None) -> float:
        """``T+_t`` / ``T-_t`` as ``theta * F`` over one side's counts.

        ``F`` is the *median* per-pair rating frequency, not the mean: a
        mass rating campaign inflates the mean and thereby raises the very
        bar meant to catch it, while the median stays anchored to the
        organic majority of pairs.  (The paper takes F from trace
        empirics — 2.2 ratings/month — which is likewise an
        attack-free baseline.)
        """
        if pinned is not None:
            return float(pinned)
        observed = counts[counts > 0]
        if not observed.size:
            return float(np.inf)
        return float(self._config.theta * float(np.median(observed)))

    def _pinned_band_defaults(self) -> tuple[float, float, float, float]:
        """Band thresholds reported when no pair was examined this interval.

        Pinned configuration values are in force whether or not any pair
        trips a frequency threshold, so the early-return thresholds must
        echo them; only the *derived* thresholds (which need observed
        coefficients to exist) fall back to the never-fires sentinels
        ``(0.0, inf)``.
        """
        cfg = self._config
        return (
            cfg.closeness_low if cfg.closeness_low is not None else 0.0,
            cfg.closeness_high if cfg.closeness_high is not None else np.inf,
            cfg.similarity_low if cfg.similarity_low is not None else 0.0,
            cfg.similarity_high if cfg.similarity_high is not None else np.inf,
        )

    @staticmethod
    def _band_thresholds(
        values: np.ndarray, low: float | None, high: float | None
    ) -> tuple[float, float]:
        """Derive (T_low, T_high) as the 25th/75th percentile of the
        *positive* observed coefficients.

        Zeros are excluded from the derivation deliberately: a pair rating
        at high frequency with literally zero social closeness or interest
        overlap is the textbook B1/B3 pattern, so the low threshold must
        sit strictly above zero for the strict ``<`` comparison to fire.
        """
        if low is not None and high is not None:
            return low, high
        positive = values[values > 0]
        if positive.size:
            d_low, d_high = np.percentile(positive, [25.0, 75.0])
        else:
            d_low, d_high = 0.0, np.inf
        return (
            float(low) if low is not None else float(d_low),
            float(high) if high is not None else float(d_high),
        )

    def analyze(
        self,
        interval: IntervalRatings,
        reputations: np.ndarray,
        rated: np.ndarray,
        flag_counts: np.ndarray | None = None,
    ) -> DetectionResult:
        """Analyse one interval.

        Parameters
        ----------
        interval:
            The interval's rating aggregates.  Only ``pos_counts`` /
            ``neg_counts`` are read.
        reputations:
            Global reputation vector *before* this interval is ingested
            (behaviour B2 tests the ratee's current standing).
        rated:
            Cumulative rated mask, nonzero at ``(i, j)``
            when ``i`` has rated ``j`` in any past interval.  The current
            interval is unioned in before band computation ("the nodes
            that n_i has rated").
        flag_counts:
            Number of *earlier* intervals each pair was flagged in;
            drives the recidivism escalation.  ``None`` means no history.
        """
        n = self.n_nodes
        cfg = self._config
        obs = self._obs
        interval_index = self._interval_index
        self._interval_index += 1
        if obs is not None:
            obs.metrics.counter("detector.intervals").inc()
        pos_keys, pos_vals = _entries(interval.pos_counts)
        neg_keys, neg_vals = _entries(interval.neg_counts)
        pos_thr = self._frequency_threshold(pos_vals, cfg.pos_frequency_threshold)
        neg_thr = self._frequency_threshold(neg_vals, cfg.neg_frequency_threshold)
        keys = _union(pos_keys[pos_vals > pos_thr], neg_keys[neg_vals > neg_thr])
        if keys.size == 0:
            thresholds = DerivedThresholds(
                pos_thr, neg_thr, self._low_reputation(),
                *self._pinned_band_defaults(),
            )
            return self._result(keys, np.empty(0), (), thresholds)

        # The flagged pair set, row-major.  Thresholds are positive, so
        # every flagged pair is also an active transaction pair.
        fi, fj = np.divmod(keys, n)
        off_diag = fi != fj
        keys, fi, fj = keys[off_diag], fi[off_diag], fj[off_diag]
        pos_cnt = _lookup(pos_keys, pos_vals, keys)
        neg_cnt = _lookup(neg_keys, neg_vals, keys)
        flag_pos = pos_cnt > pos_thr
        flag_neg = neg_cnt > neg_thr

        # Active transaction pairs (counts > 0, off-diagonal) — the
        # population the derived band thresholds and the global band see —
        # plus, for per-rater bands, the flagged raters' cumulative rated
        # neighbourhoods.  One coefficient gather per dimension covers all.
        act = _union(pos_keys[pos_vals > 0], neg_keys[neg_vals > 0])
        act = act[act // n != act % n]
        universe = act
        if cfg.center is not GaussianCenter.GLOBAL:
            rated_keys, _ = _entries(rated)
            rows = fi[_starts(fi)] * n
            near = rated_keys[
                _ranges(
                    np.searchsorted(rated_keys, rows),
                    np.searchsorted(rated_keys, rows + n),
                )
            ]
            universe = _union(act, near[near // n != near % n])
        ui, uj = np.divmod(universe, n)
        values_c = self._closeness.pair_values(ui, uj)
        values_s = self._similarity.pair_values(ui, uj)
        at_act = np.searchsorted(universe, act)
        at_flag = np.searchsorted(universe, keys)
        observed_c, omega_c = values_c[at_act], values_c[at_flag]
        observed_s, omega_s = values_s[at_act], values_s[at_flag]

        t_cl, t_ch = self._band_thresholds(
            observed_c, cfg.closeness_low, cfg.closeness_high
        )
        t_sl, t_sh = self._band_thresholds(
            observed_s, cfg.similarity_low, cfg.similarity_high
        )
        t_r = self._low_reputation()

        m = keys.size
        false_col = np.zeros(m, dtype=bool)
        low_rep = np.asarray(reputations, dtype=np.float64)[fj] < t_r
        b1 = flag_pos & (omega_c < t_cl) if cfg.use_closeness else false_col
        b2 = flag_pos & (omega_c > t_ch) & low_rep if cfg.use_closeness else false_col
        b3 = flag_pos & (omega_s < t_sl) if cfg.use_similarity else false_col
        b4 = flag_neg & (omega_s > t_sh) if cfg.use_similarity else false_col
        adjust = b1 | b2 | b3 | b4

        thresholds = DerivedThresholds(pos_thr, neg_thr, t_r, t_cl, t_ch, t_sl, t_sh)
        if not adjust.any():
            if obs is not None:
                self._emit_audit(
                    interval_index, reputations, thresholds, fi, fj,
                    flag_pos, flag_neg, pos_cnt, neg_cnt, omega_c, omega_s,
                    b1, b2, b3, b4, np.ones(m, dtype=np.float64),
                )
            return self._result(keys[:0], np.empty(0), (), thresholds)

        exponent = np.zeros(m, dtype=np.float64)
        for use_dim, values, omega, observed in (
            (cfg.use_closeness, values_c, omega_c, observed_c),
            (cfg.use_similarity, values_s, omega_s, observed_s),
        ):
            if not use_dim:
                continue
            centers, spreads = self._bands(universe, values, fi, omega, observed)
            c = np.maximum(spreads, cfg.spread_floor)
            exponent += (omega - centers) ** 2 / (2.0 * c * c)
        # Clamp the exponent below the float64 underflow knee: a degenerate
        # band (spread at the floor) with a large deviation would otherwise
        # drive exp() to exactly 0.0 and annihilate the rating instead of
        # damping it.
        damping = cfg.alpha * np.exp(-np.minimum(exponent, 700.0))
        if cfg.cap_flagged_frequency:
            # A flagged pair contributes at most a normal-frequency pair's
            # rating mass: scale by T_t / observed frequency on the side
            # (positive/negative) that tripped the threshold.
            pos_cap = np.where(
                flag_pos, np.minimum(1.0, pos_thr / np.maximum(pos_cnt, 1.0)), 1.0
            )
            neg_cap = np.where(
                flag_neg, np.minimum(1.0, neg_thr / np.maximum(neg_cnt, 1.0)), 1.0
            )
            damping = damping * pos_cap * neg_cap
        if flag_counts is not None and cfg.recidivism_decay < 1.0:
            history = _lookup(*_entries(flag_counts), keys)
            damping = damping * np.power(cfg.recidivism_decay, history)
        weights = np.where(adjust, damping, 1.0)

        codes = (
            b1 * SuspicionReason.B1.value
            | b2 * SuspicionReason.B2.value
            | b3 * SuspicionReason.B3.value
            | b4 * SuspicionReason.B4.value
        )
        findings = tuple(
            Finding(i, j, SuspicionReason(code), closeness, similarity, weight)
            for i, j, code, closeness, similarity, weight in zip(
                fi[adjust].tolist(),
                fj[adjust].tolist(),
                codes[adjust].tolist(),
                omega_c[adjust].tolist(),
                omega_s[adjust].tolist(),
                weights[adjust].tolist(),
            )
        )
        if obs is not None:
            self._emit_audit(
                interval_index, reputations, thresholds, fi, fj,
                flag_pos, flag_neg, pos_cnt, neg_cnt, omega_c, omega_s,
                b1, b2, b3, b4, weights,
            )
        return self._result(keys[adjust], weights[adjust], findings, thresholds)

    def _result(
        self,
        keys: np.ndarray,
        pair_weights: np.ndarray,
        findings: tuple[Finding, ...],
        thresholds: DerivedThresholds,
    ) -> DetectionResult:
        pairs = np.stack(np.divmod(keys, self.n_nodes), axis=1).astype(np.int64)
        return DetectionResult(
            pairs, pair_weights.astype(np.float64), findings, thresholds,
            self.n_nodes,
        )

    def _bands(
        self,
        universe: np.ndarray,
        values: np.ndarray,
        fi: np.ndarray,
        omega: np.ndarray,
        observed: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-flagged-pair (center, spread) under the centring policy.

        ``values`` are one dimension's coefficients over the row-major
        ``universe`` keys, which hold every flagged rater's band: the
        nodes it has rated (cumulative ∪ this interval's active partners,
        which always contain the judged ratee).  The band judging pair
        ``(i, j)`` covers the *other* nodes ``i`` has rated — Eq. (6)'s
        exponent is "the deviation of Ωc(i,j) from the normal social
        closeness of n_i to other nodes it has rated".  The leave-one-out
        matters: including the judged pair would let an extreme
        coefficient inflate its own band spread and mask itself.  Segment
        reductions over the raters' contiguous key runs give each band's
        sum, extrema and runner-ups (the extremum with one occurrence
        removed); removing the judged value exposes the runner-up, and
        duplicates take care of themselves because the runner-up equals
        the extremum then.
        """
        cfg = self._config
        if observed.size:
            g_center = float(observed.mean())
            g_spread = float(observed.max() - observed.min())
        else:
            g_center, g_spread = 0.0, 0.0
        centers = np.full(fi.size, g_center)
        spreads = np.full(fi.size, g_spread)
        if cfg.center is GaussianCenter.GLOBAL:
            return centers, spreads
        n = self.n_nodes
        first_pair = _starts(fi)
        slot = np.cumsum(first_pair) - 1  # each pair's rater, 0..r-1
        rows = fi[first_pair] * n
        lo = np.searchsorted(universe, rows)
        sizes = np.searchsorted(universe, rows + n) - lo
        band = values[_ranges(lo, lo + sizes)]
        owner = np.repeat(np.arange(sizes.size), sizes)
        first = np.cumsum(sizes) - sizes
        sums = np.bincount(owner, weights=band, minlength=sizes.size)
        vmax = np.maximum.reduceat(band, first)
        vmin = np.minimum.reduceat(band, first)
        vmax2 = np.maximum.reduceat(_drop_first(band, owner, first, vmax, -np.inf), first)
        vmin2 = np.minimum.reduceat(_drop_first(band, owner, first, vmin, np.inf), first)
        loo_size = sizes[slot] - 1  # the judged ratee is always in the band
        if cfg.center is GaussianCenter.RATER:
            use = loo_size > 0
        else:  # AUTO
            use = loo_size >= cfg.min_band_size
        s, x = slot[use], omega[use]
        centers[use] = (sums[s] - x) / loo_size[use]
        loo_max = np.where(x == vmax[s], vmax2[s], vmax[s])
        loo_min = np.where(x == vmin[s], vmin2[s], vmin[s])
        spreads[use] = loo_max - loo_min
        return centers, spreads

    def _emit_audit(
        self,
        interval_index: int,
        reputations: np.ndarray,
        thresholds: DerivedThresholds,
        fi: np.ndarray,
        fj: np.ndarray,
        flag_pos: np.ndarray,
        flag_neg: np.ndarray,
        pos_cnt: np.ndarray,
        neg_cnt: np.ndarray,
        omega_c: np.ndarray,
        omega_s: np.ndarray,
        b1: np.ndarray,
        b2: np.ndarray,
        b3: np.ndarray,
        b4: np.ndarray,
        weights: np.ndarray,
    ) -> None:
        """One audit event per frequency-flagged pair: damped or accepted."""
        from repro.obs import AuditEvent

        assert self._obs is not None
        audit = self._obs.audit
        metrics = self._obs.metrics
        cfg = self._config
        threshold_values = {
            "T+": float(thresholds.pos_frequency),
            "T-": float(thresholds.neg_frequency),
            "TR": float(thresholds.low_reputation),
            "Tcl": float(thresholds.closeness_low),
            "Tch": float(thresholds.closeness_high),
            "Tsl": float(thresholds.similarity_low),
            "Tsh": float(thresholds.similarity_high),
        }
        n_damped = 0
        for t in range(fi.size):
            i, j = int(fi[t]), int(fj[t])
            fired = []
            if flag_pos[t]:
                fired.append("T+")
            if flag_neg[t]:
                fired.append("T-")
            if float(reputations[j]) < thresholds.low_reputation:
                fired.append("TR")
            if cfg.use_closeness:
                if omega_c[t] < thresholds.closeness_low:
                    fired.append("Tcl")
                if omega_c[t] > thresholds.closeness_high:
                    fired.append("Tch")
            if cfg.use_similarity:
                if omega_s[t] < thresholds.similarity_low:
                    fired.append("Tsl")
                if omega_s[t] > thresholds.similarity_high:
                    fired.append("Tsh")
            behaviors = []
            if b1[t]:
                behaviors.append("B1")
            if b2[t]:
                behaviors.append("B2")
            if b3[t]:
                behaviors.append("B3")
            if b4[t]:
                behaviors.append("B4")
            damped = bool(behaviors)
            n_damped += damped
            audit.record(
                AuditEvent(
                    interval=interval_index,
                    rater=i,
                    ratee=j,
                    decision="damped" if damped else "accepted",
                    behaviors=tuple(behaviors),
                    fired=tuple(fired),
                    closeness=float(omega_c[t]),
                    similarity=float(omega_s[t]),
                    weight=float(weights[t]) if damped else 1.0,
                    pos_count=float(pos_cnt[t]),
                    neg_count=float(neg_cnt[t]),
                    thresholds=threshold_values,
                )
            )
        metrics.counter("detector.pairs_examined").inc(int(fi.size))
        metrics.counter("detector.pairs_damped").inc(n_damped)

    def _low_reputation(self) -> float:
        """The B2 low-reputation bar ``T_R``.

        Defaults to twice the uniform share — the paper's ``T_R = 0.01``
        at 200 nodes, generalised to other network sizes.
        """
        if self._config.low_reputation_threshold is not None:
            return self._config.low_reputation_threshold
        return 2.0 / self.n_nodes
