"""Parity: the production detector pass vs the all-pairs oracle.

:meth:`CollusionDetector.analyze` scores only the frequency-flagged pairs
(never an ``n x n`` array); :func:`repro.qa.reference.reference_analyze`
evaluates every pair on dense matrices.  Both emit one audit event per
frequency-flagged pair, so this pins that the *story told to the
operator* — which pairs were examined, which thresholds fired, which
behaviour classes matched, and what weight was applied — and the
returned result are the same under every centring policy and detector
switch.
"""

import itertools

import numpy as np
import pytest

from repro.core.closeness import ClosenessComputer
from repro.core.config import SocialTrustConfig
from repro.core.detector import CollusionDetector
from repro.core.similarity import SimilarityComputer
from repro.obs import Observability
from repro.qa.reference import reference_analyze
from repro.reputation.base import IntervalRatings
from repro.social.generators import paper_social_network
from repro.social.interactions import InteractionLedger
from repro.social.interests import InterestProfiles
from repro.utils.rng import spawn_rng

N = 16
N_INTERESTS = 6
REL, ABS = 1e-9, 1e-12


def make_world(seed=11):
    rng = spawn_rng(seed, 0)
    network = paper_social_network(N, (1, 2, 3), rng)
    ledger = InteractionLedger(N)
    profiles = InterestProfiles(N, N_INTERESTS)
    for node in range(N):
        k = int(rng.integers(1, 4))
        profiles.set_declared(
            node, [int(v) for v in rng.choice(N_INTERESTS, size=k, replace=False)]
        )
    for _ in range(3 * N):
        i, j = int(rng.integers(0, N)), int(rng.integers(0, N))
        if i != j:
            ledger.record(i, j, float(rng.integers(1, 4)))
            profiles.record_request(i, int(rng.integers(0, N_INTERESTS)))
    return network, ledger, profiles, rng


def make_interval(rng):
    interval = IntervalRatings(N)
    for _ in range(4 * N):
        i, j = int(rng.integers(0, N)), int(rng.integers(0, N))
        if i != j:
            value = -1.0 if rng.random() < 0.25 else 1.0
            counts = interval.neg_counts if value < 0 else interval.pos_counts
            counts[i, j] += 1
            interval.value_sum[i, j] += value
    # Boosting and badmouthing pairs far above the median frequency.
    boosts = {(0, 1): 12, (4, 5): 10, (5, 4): 10, (7, 12): 8, (6, 9): 9}
    for (i, j), count in boosts.items():
        interval.pos_counts[i, j] += count
        interval.value_sum[i, j] += count
    for (i, j), count in {(2, 3): 9, (9, 11): 7}.items():
        interval.neg_counts[i, j] += count
        interval.value_sum[i, j] -= count
    return interval


def audit_by_pair(obs):
    events = {}
    for event in obs.audit.to_events():
        assert event["type"] == "audit"
        events[(event["rater"], event["ratee"])] = event
    return events


def detector(cfg, network, ledger, profiles, obs):
    closeness = ClosenessComputer(network, ledger, cfg)
    similarity = SimilarityComputer(profiles, cfg)
    return CollusionDetector(closeness, similarity, cfg, observability=obs)


def run_both(history=True, **overrides):
    """One interval through the production pass and the oracle.

    The rated mask reaches beyond the interval's active pairs so per-rater
    bands cover cumulative history.
    """
    network, ledger, profiles, rng = make_world()
    interval = make_interval(rng)
    reputations = np.full(N, 1.0 / N)
    rated = (interval.counts > 0) | (rng.random((N, N)) < 0.15)
    np.fill_diagonal(rated, False)
    flag_counts = None
    if history:
        flag_counts = np.zeros((N, N))
        flag_counts[0, 1] = 2.0
        flag_counts[5, 6] = 1.0
    cfg = SocialTrustConfig(**overrides)

    want_obs = Observability(tracing=False)
    want = reference_analyze(
        detector(cfg, network, ledger, profiles, want_obs),
        interval, reputations, rated, flag_counts,
    )
    got_obs = Observability(tracing=False)
    production = detector(cfg, network, ledger, profiles, got_obs)
    got = production.analyze(interval, reputations, rated, flag_counts)
    return want_obs, got_obs, want, got


def assert_events_agree(want_obs, got_obs):
    want_events, got_events = audit_by_pair(want_obs), audit_by_pair(got_obs)
    assert set(got_events) == set(want_events)
    damped = 0
    for pair, want in want_events.items():
        got = got_events[pair]
        assert got["interval"] == want["interval"], pair
        assert got["decision"] == want["decision"], pair
        assert got["behaviors"] == want["behaviors"], pair
        assert got["fired"] == want["fired"], pair
        assert got["pos_count"] == want["pos_count"], pair
        assert got["neg_count"] == want["neg_count"], pair
        assert got["closeness"] == pytest.approx(want["closeness"], rel=REL, abs=ABS)
        assert got["similarity"] == pytest.approx(
            want["similarity"], rel=REL, abs=ABS
        )
        assert got["weight"] == pytest.approx(want["weight"], rel=REL, abs=ABS)
        for name, value in want["thresholds"].items():
            assert got["thresholds"][name] == pytest.approx(
                value, rel=REL, abs=ABS
            ), (pair, name)
        damped += want["decision"] == "damped"
    return damped


def assert_counters_agree(want_obs, got_obs):
    for name in ("detector.pairs_examined", "detector.pairs_damped"):
        if name in want_obs.metrics or name in got_obs.metrics:
            assert name in want_obs.metrics and name in got_obs.metrics
            assert got_obs.metrics[name].value == want_obs.metrics[name].value, name


def assert_results_agree(want, got):
    np.testing.assert_array_equal(got.pairs, want.pairs)
    assert [(f.rater, f.ratee, f.reasons) for f in got.findings] == [
        (f.rater, f.ratee, f.reasons) for f in want.findings
    ]
    np.testing.assert_allclose(got.pair_weights, want.pair_weights, rtol=REL, atol=ABS)
    np.testing.assert_allclose(got.weights, want.weights, rtol=REL, atol=ABS)
    for field in (
        "pos_frequency",
        "neg_frequency",
        "low_reputation",
        "closeness_low",
        "closeness_high",
        "similarity_low",
        "similarity_high",
    ):
        assert getattr(got.thresholds, field) == pytest.approx(
            getattr(want.thresholds, field), rel=REL, abs=ABS
        ), field


class TestAuditParity:
    def test_same_examined_pair_set(self):
        want_obs, got_obs, _, _ = run_both()
        want_events = audit_by_pair(want_obs)
        assert want_events, "scenario must flag pairs"
        assert set(audit_by_pair(got_obs)) == set(want_events)

    def test_events_agree_field_by_field(self):
        want_obs, got_obs, _, _ = run_both()
        damped = assert_events_agree(want_obs, got_obs)
        assert damped > 0, "parity must cover actually-damped events"

    def test_metrics_counters_agree(self):
        # The registry roll-ups both passes publish must match too.
        want_obs, got_obs, _, _ = run_both()
        assert_counters_agree(want_obs, got_obs)


SWITCHES = {"both": (True, True), "closeness": (True, False), "similarity": (False, True)}


@pytest.mark.parametrize(
    "center,switches,cap,history",
    [
        pytest.param(
            center, switches, cap, history,
            id=f"dense-{center}-{switches}-cap{int(cap)}-hist{int(history)}",
        )
        for center, switches, cap, history in itertools.product(
            ("auto", "rater", "global"),
            tuple(SWITCHES),
            (True, False),
            (True, False),
        )
    ],
)
def test_production_matches_oracle(center, switches, cap, history):
    use_closeness, use_similarity = SWITCHES[switches]
    want_obs, got_obs, want, got = run_both(
        history,
        center=center,
        use_closeness=use_closeness,
        use_similarity=use_similarity,
        cap_flagged_frequency=cap,
    )
    assert audit_by_pair(want_obs), "scenario must flag pairs"
    assert_events_agree(want_obs, got_obs)
    assert_counters_agree(want_obs, got_obs)
    assert_results_agree(want, got)
