"""Reference implementations kept as test oracles.

Two production fast paths are each checked against the straightforward
formulation they replaced.  Both references are too slow for the
production path and exist only to be compared against.

**The seed scalar query-cycle loop.**
:class:`~repro.p2p.engine.BatchedQueryEngine` promises to consume the
simulation's RNG stream draw for draw like the per-client loop the
simulator started from, so whole runs must come out **bit-identical** —
under every selection policy, exploration rate, collusion schedule, churn
and network partition.  :class:`ReferenceQueryLoop` is that loop,
unchanged: one :func:`~repro.p2p.selection.select_server` call and four
per-rating ledger calls per active client.
:func:`install_reference_loop` swaps it in for the production engine of
a built :class:`~repro.p2p.simulator.Simulation`.  The engine fuzzer,
``repro qa diff``, the engine equivalence and determinism tests and the
engine benchmark each run one twin on the production engine and one on
this loop.

**The all-pairs detector pass.**
:meth:`~repro.core.detector.CollusionDetector.analyze` scores only the
frequency-flagged pairs.  :func:`reference_analyze` is the pass it
replaced: thresholds, behaviours B1–B4, leave-one-out bands
(:func:`_band_arrays`) and damping evaluated on dense ``n x n`` matrices,
with its own audit emitter.  It agrees with the production pass on the
examined and damped pair sets, reasons and thresholds, and on weights up
to summation order in the band centre (the detector parity and band
tests pin this).
"""

from __future__ import annotations

import numpy as np

from repro.core.config import GaussianCenter, SocialTrustConfig
from repro.core.detector import (
    CollusionDetector,
    DerivedThresholds,
    DetectionResult,
    Finding,
    SuspicionReason,
)
from repro.p2p.selection import select_server
from repro.p2p.simulator import Simulation
from repro.reputation.base import IntervalRatings, Rating

__all__ = ["ReferenceQueryLoop", "install_reference_loop", "reference_analyze"]


class ReferenceQueryLoop:
    """The seed per-client query-cycle loop with the engine's interface
    (:meth:`begin_interval`, :meth:`run_query_cycle`)."""

    def __init__(self, simulation: Simulation) -> None:
        # The loop reads the simulation's own wiring; sharing the objects
        # (not copies) keeps every ledger and RNG draw on the twin.
        self._population = simulation._population
        self._overlay = simulation._overlay
        self._system = simulation._system
        self._rng = simulation._rng
        self._config = simulation._config
        self._collusion = simulation._collusion
        self._injector = simulation._injector
        self._interactions = simulation._interactions
        self._profiles = simulation._profiles
        self._ledger = simulation._ledger
        self._metrics = simulation._metrics
        self._interest_choices = simulation._interest_choices
        self._interest_weights = simulation._interest_weights
        self._partition: np.ndarray | None = None

    def begin_interval(self, reputations: np.ndarray) -> None:
        """Latch the interval's partition side mask (``None`` while the
        network is whole); the loop reads reputations live."""
        self._partition = (
            self._injector.partition_mask if self._injector is not None else None
        )

    def run_query_cycle(self, remaining_capacity: np.ndarray) -> None:
        self._run_query_cycle(remaining_capacity, self._partition)

    def _draw_interest(self, node: int) -> int:
        choices = self._interest_choices[node]
        if choices.size == 1:
            return int(choices[0])
        return int(self._rng.choice(choices, p=self._interest_weights[node]))

    def _run_query_cycle(
        self,
        remaining_capacity: np.ndarray,
        partition: np.ndarray | None = None,
    ) -> None:
        """Seed scalar query-cycle loop.

        ``partition`` is the injector's boolean side mask during a
        network partition: clients can only reach servers on their own
        side, and cross-side collusion bursts cannot happen either.
        """
        rng = self._rng
        population = self._population
        reputations = self._system.reputations
        active_draw = rng.random(population.n_nodes)
        np.copyto(remaining_capacity, population.capacities)
        # Departed peers neither issue nor serve queries.  The mask is
        # only consulted when someone is actually offline, so a zero-rate
        # injector leaves the run bit-identical to an injector-free one.
        online = self._injector.online_mask if self._injector is not None else None
        churned = online is not None and not online.all()
        for client in rng.permutation(population.n_nodes):
            client = int(client)
            if churned and not online[client]:
                continue
            if active_draw[client] >= population.activity_probs[client]:
                continue
            interest = self._draw_interest(client)
            candidates = self._overlay.candidate_servers(client, interest)
            if churned:
                candidates = candidates[online[candidates]]
            if partition is not None:
                candidates = candidates[
                    partition[candidates] == partition[client]
                ]
            server = select_server(
                candidates,
                reputations,
                remaining_capacity,
                rng,
                threshold=self._config.selection_threshold,
                policy=self._config.selection_policy,
                exploration=self._config.selection_exploration,
            )
            if server is None:
                self._metrics.record_unserved(client)
                continue
            remaining_capacity[server] -= 1
            authentic = rng.random() < population.authentic_probs[server]
            value = 1.0 if authentic else -1.0
            self._ledger.record(
                Rating(rater=client, ratee=server, value=value, interest=interest)
            )
            self._interactions.record(client, server)
            self._profiles.record_request(client, interest)
            self._metrics.record_request(client, server)
        # Collusion bursts: ratings + interactions, no genuine requests.
        # Offline colluders cannot exchange ratings either, and a network
        # partition silences cross-side rating exchange.
        for burst in self._collusion.bursts(rng):
            if churned and not (online[burst.rater] and online[burst.ratee]):
                continue
            if partition is not None and partition[burst.rater] != partition[burst.ratee]:
                self._metrics.faults.record_partition_block()
                continue
            self._ledger.record_batch(
                burst.rater, burst.ratee, burst.value, burst.count
            )
            self._interactions.record(burst.rater, burst.ratee, burst.count)


def install_reference_loop(simulation: Simulation) -> Simulation:
    """Run ``simulation``'s query cycles on :class:`ReferenceQueryLoop`
    instead of the production engine; returns the simulation.

    Install before the first cycle runs.  The swap draws no randomness,
    so the twin stays aligned with an untouched build of the same seed.
    """
    simulation._engine = ReferenceQueryLoop(simulation)
    return simulation


def _band_arrays(
    coeffs: np.ndarray,
    rated_mask: np.ndarray,
    global_values: np.ndarray,
    config: SocialTrustConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair (center, spread) matrices under the configured centring policy.

    ``coeffs`` is the all-pairs coefficient matrix, ``rated_mask[i, j]``
    marks nodes ``j`` that rater ``i`` has rated, and ``global_values`` are
    the coefficients observed over transaction pairs system-wide.

    The band judging pair ``(i, j)`` is computed over the *other* nodes
    ``i`` has rated — Eq. (6)'s exponent is "the deviation of Ωc(i,j) from
    the normal social closeness of n_i to other nodes it has rated".  The
    leave-one-out matters: including the judged pair would let an extreme
    coefficient inflate its own band spread and mask itself.  Everything is
    vectorised; sorting each row once yields the leave-one-out extrema
    (removing the row maximum exposes the second-largest value, and
    duplicates take care of themselves because the sorted runner-up equals
    the maximum then).
    """
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
    sizes = rated_mask.sum(axis=1, keepdims=True)
    loo_sizes = sizes - rated_mask
    has = loo_sizes > 0
    if np.any(has):
        masked = np.where(rated_mask, coeffs, 0.0)
        loo_sum = masked.sum(axis=1, keepdims=True) - masked
        loo_center = np.divide(loo_sum, loo_sizes, out=np.zeros((n, n)), where=has)
        hi_sorted = np.sort(np.where(rated_mask, coeffs, -np.inf), axis=1)
        lo_sorted = np.sort(np.where(rated_mask, coeffs, np.inf), axis=1)
        row_max = hi_sorted[:, -1:]
        row_2nd_max = hi_sorted[:, -2:-1] if n >= 2 else row_max
        row_min = lo_sorted[:, :1]
        row_2nd_min = lo_sorted[:, 1:2] if n >= 2 else row_min
        is_max = rated_mask & (coeffs == row_max)
        is_min = rated_mask & (coeffs == row_min)
        loo_max = np.where(is_max, row_2nd_max, row_max)
        loo_min = np.where(is_min, row_2nd_min, row_min)
        loo_spread = np.where(has, loo_max - loo_min, 0.0)
        if config.center is GaussianCenter.RATER:
            use = has
        else:  # AUTO
            use = loo_sizes >= config.min_band_size
        centers = np.where(use, loo_center, centers)
        spreads = np.where(use, loo_spread, spreads)
    return centers, spreads


def _frequency_thresholds(
    config: SocialTrustConfig, interval: IntervalRatings
) -> tuple[float, float]:
    """Derive ``T+_t`` / ``T-_t`` as ``theta * F`` (``F`` the median
    observed per-pair frequency) unless the configuration pins them."""
    pos_thr = config.pos_frequency_threshold
    if pos_thr is None:
        observed = interval.pos_counts[interval.pos_counts > 0]
        pos_thr = (
            config.theta * float(np.median(observed)) if observed.size else np.inf
        )
    neg_thr = config.neg_frequency_threshold
    if neg_thr is None:
        observed = interval.neg_counts[interval.neg_counts > 0]
        neg_thr = (
            config.theta * float(np.median(observed)) if observed.size else np.inf
        )
    return float(pos_thr), float(neg_thr)


def _dense_result(
    weights: np.ndarray,
    adjust: np.ndarray,
    findings: list[Finding],
    thresholds: DerivedThresholds,
) -> DetectionResult:
    pairs = np.argwhere(adjust).astype(np.int64).reshape(-1, 2)
    return DetectionResult(
        pairs, weights[adjust], tuple(findings), thresholds, weights.shape[0]
    )


def reference_analyze(
    detector: CollusionDetector,
    interval: IntervalRatings,
    reputations: np.ndarray,
    rated_mask: np.ndarray,
    flag_counts: np.ndarray | None = None,
) -> DetectionResult:
    """The all-pairs detector pass over dense ``n x n`` inputs.

    Same contract as :meth:`CollusionDetector.analyze` (it advances the
    detector's audit interval counter and emits audit events into its
    observability bundle), but every pair is evaluated on dense matrices
    read from the coefficient cores' ``closeness_matrix`` /
    ``similarity_matrix``.
    """
    n = detector.n_nodes
    cfg = detector._config
    obs = detector.observability
    interval_index = detector._interval_index
    detector._interval_index += 1
    if obs is not None:
        obs.metrics.counter("detector.intervals").inc()
    counts = interval.counts
    pos_thr, neg_thr = _frequency_thresholds(cfg, interval)
    flagged_pos = interval.pos_counts > pos_thr
    flagged_neg = interval.neg_counts > neg_thr
    ones = np.ones((n, n), dtype=np.float64)
    nothing = np.zeros((n, n), dtype=bool)
    if not (flagged_pos.any() or flagged_neg.any()):
        thresholds = DerivedThresholds(
            pos_thr, neg_thr, detector._low_reputation(),
            *detector._pinned_band_defaults(),
        )
        return _dense_result(ones, nothing, [], thresholds)

    active = counts > 0
    np.fill_diagonal(active, False)
    full_mask = rated_mask | active

    closeness = detector._closeness.closeness_matrix()
    similarity = detector._similarity.similarity_matrix()
    observed_c = closeness[active]
    observed_s = similarity[active]

    t_cl, t_ch = detector._band_thresholds(
        observed_c, cfg.closeness_low, cfg.closeness_high
    )
    t_sl, t_sh = detector._band_thresholds(
        observed_s, cfg.similarity_low, cfg.similarity_high
    )
    t_r = detector._low_reputation()

    low_rep_ratee = np.broadcast_to(reputations < t_r, (n, n))
    b1 = flagged_pos & (closeness < t_cl) if cfg.use_closeness else np.zeros_like(flagged_pos)
    b2 = (
        flagged_pos & (closeness > t_ch) & low_rep_ratee
        if cfg.use_closeness
        else np.zeros_like(flagged_pos)
    )
    b3 = flagged_pos & (similarity < t_sl) if cfg.use_similarity else np.zeros_like(flagged_pos)
    b4 = flagged_neg & (similarity > t_sh) if cfg.use_similarity else np.zeros_like(flagged_neg)
    adjust = b1 | b2 | b3 | b4
    np.fill_diagonal(adjust, False)

    thresholds = DerivedThresholds(pos_thr, neg_thr, t_r, t_cl, t_ch, t_sl, t_sh)
    if not adjust.any():
        if obs is not None:
            _emit_audit(
                detector, interval_index, interval, reputations, thresholds,
                flagged_pos, flagged_neg, closeness, similarity,
                b1, b2, b3, b4, ones,
            )
        return _dense_result(ones, nothing, [], thresholds)

    exponent = np.zeros((n, n), dtype=np.float64)
    if cfg.use_closeness:
        centers, spreads = _band_arrays(closeness, full_mask, observed_c, cfg)
        c = np.maximum(spreads, cfg.spread_floor)
        exponent += (closeness - centers) ** 2 / (2.0 * c * c)
    if cfg.use_similarity:
        centers, spreads = _band_arrays(similarity, full_mask, observed_s, cfg)
        c = np.maximum(spreads, cfg.spread_floor)
        exponent += (similarity - centers) ** 2 / (2.0 * c * c)
    damping = cfg.alpha * np.exp(-np.minimum(exponent, 700.0))
    if cfg.cap_flagged_frequency:
        pos_cap = np.where(
            flagged_pos,
            np.minimum(1.0, pos_thr / np.maximum(interval.pos_counts, 1.0)),
            1.0,
        )
        neg_cap = np.where(
            flagged_neg,
            np.minimum(1.0, neg_thr / np.maximum(interval.neg_counts, 1.0)),
            1.0,
        )
        damping = damping * pos_cap * neg_cap
    if flag_counts is not None and cfg.recidivism_decay < 1.0:
        damping = damping * np.power(cfg.recidivism_decay, flag_counts)
    weights = np.where(adjust, damping, 1.0)

    findings = []
    for i, j in np.argwhere(adjust):
        i, j = int(i), int(j)
        reasons = SuspicionReason(0)
        if b1[i, j]:
            reasons |= SuspicionReason.B1
        if b2[i, j]:
            reasons |= SuspicionReason.B2
        if b3[i, j]:
            reasons |= SuspicionReason.B3
        if b4[i, j]:
            reasons |= SuspicionReason.B4
        findings.append(
            Finding(
                rater=i,
                ratee=j,
                reasons=reasons,
                closeness=float(closeness[i, j]),
                similarity=float(similarity[i, j]),
                weight=float(weights[i, j]),
            )
        )
    if obs is not None:
        _emit_audit(
            detector, interval_index, interval, reputations, thresholds,
            flagged_pos, flagged_neg, closeness, similarity,
            b1, b2, b3, b4, weights,
        )
    return _dense_result(weights, adjust, findings, thresholds)


def _emit_audit(
    detector: CollusionDetector,
    interval_index: int,
    interval: IntervalRatings,
    reputations: np.ndarray,
    thresholds: DerivedThresholds,
    flagged_pos: np.ndarray,
    flagged_neg: np.ndarray,
    closeness: np.ndarray,
    similarity: np.ndarray,
    b1: np.ndarray,
    b2: np.ndarray,
    b3: np.ndarray,
    b4: np.ndarray,
    weights: np.ndarray,
) -> None:
    """One audit event per frequency-flagged pair: damped or accepted."""
    from repro.obs import AuditEvent

    obs = detector.observability
    assert obs is not None
    audit = obs.audit
    metrics = obs.metrics
    cfg = detector._config
    threshold_values = {
        "T+": float(thresholds.pos_frequency),
        "T-": float(thresholds.neg_frequency),
        "TR": float(thresholds.low_reputation),
        "Tcl": float(thresholds.closeness_low),
        "Tch": float(thresholds.closeness_high),
        "Tsl": float(thresholds.similarity_low),
        "Tsh": float(thresholds.similarity_high),
    }
    examined = flagged_pos | flagged_neg
    np.fill_diagonal(examined, False)
    n_damped = 0
    for i, j in np.argwhere(examined):
        i, j = int(i), int(j)
        omega_c = float(closeness[i, j])
        omega_s = float(similarity[i, j])
        fired = []
        if flagged_pos[i, j]:
            fired.append("T+")
        if flagged_neg[i, j]:
            fired.append("T-")
        if float(reputations[j]) < thresholds.low_reputation:
            fired.append("TR")
        if cfg.use_closeness:
            if omega_c < thresholds.closeness_low:
                fired.append("Tcl")
            if omega_c > thresholds.closeness_high:
                fired.append("Tch")
        if cfg.use_similarity:
            if omega_s < thresholds.similarity_low:
                fired.append("Tsl")
            if omega_s > thresholds.similarity_high:
                fired.append("Tsh")
        behaviors = []
        if b1[i, j]:
            behaviors.append("B1")
        if b2[i, j]:
            behaviors.append("B2")
        if b3[i, j]:
            behaviors.append("B3")
        if b4[i, j]:
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
                closeness=omega_c,
                similarity=omega_s,
                weight=float(weights[i, j]) if damped else 1.0,
                pos_count=float(interval.pos_counts[i, j]),
                neg_count=float(interval.neg_counts[i, j]),
                thresholds=threshold_values,
            )
        )
    metrics.counter("detector.pairs_examined").inc(int(examined.sum()))
    metrics.counter("detector.pairs_damped").inc(n_damped)
