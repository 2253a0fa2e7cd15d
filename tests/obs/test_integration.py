"""End-to-end observability: a traced collusion run produces spans,
published metrics and audit events that round-trip through JSONL."""

import numpy as np
import pytest

from repro.api import ScenarioSpec, run_scenario
from repro.obs import AuditEvent, Observability, read_jsonl, validate_jsonl

SCENARIO = ScenarioSpec.from_build(
    dict(
        n_nodes=40,
        n_pretrusted=3,
        n_colluders=8,
        system="EigenTrust+SocialTrust",
        collusion="pcm",
        simulation_cycles=3,
        n_interests=8,
        interests_per_node=(1, 4),
        query_cycles=6,
    ),
    seed=1,
)


@pytest.fixture(scope="module")
def traced_result():
    return run_scenario(SCENARIO, observability=True)


class TestTracedRun:
    def test_engine_phase_spans_present(self, traced_result):
        tracer = traced_result.observability.tracer
        for phase in (
            "engine.candidate_build",
            "engine.selection",
            "engine.rating_flush",
            "sim.cycle",
            "reputation.update",
            "detector.analyze",
        ):
            assert tracer.total_duration(phase) > 0.0, f"no time in {phase}"

    def test_phase_spans_nest_under_cycle(self, traced_result):
        tracer = traced_result.observability.tracer
        cycle_ids = {e["span_id"] for e in tracer.spans_named("sim.cycle")}
        update = next(tracer.spans_named("reputation.update"))
        assert update["parent_id"] in cycle_ids
        assert update["depth"] == 1

    def test_metrics_published(self, traced_result):
        metrics = traced_result.observability.metrics
        assert metrics["detector.intervals"].value == SCENARIO.world["simulation_cycles"]
        assert metrics["detector.pairs_examined"].value > 0
        assert metrics["detector.pairs_damped"].value > 0
        assert (
            metrics["sim.requests.served"].value
            == traced_result.metrics.total_served
        )
        assert (
            metrics["engine.requests.served"].value
            == traced_result.metrics.total_served
        )

    def test_audit_events_record_collusion(self, traced_result):
        audit = traced_result.observability.audit
        assert len(audit.damped()) > 0
        colluders = set(traced_result.colluder_ids)
        damped_pairs = {(e.rater, e.ratee) for e in audit.damped()}
        assert any(r in colluders and s in colluders for r, s in damped_pairs), (
            "no colluder pair was damped in a PCM run"
        )
        for event in audit.damped():
            assert event.behaviors, "damped event without a behaviour class"
            assert event.fired, "damped event without fired thresholds"
            assert 0.0 <= event.weight < 1.0

    def test_examined_count_matches_registry(self, traced_result):
        obs = traced_result.observability
        assert (
            len(obs.audit.events) + obs.audit.n_dropped
            == obs.metrics["detector.pairs_examined"].value
        )

    def test_jsonl_round_trip_preserves_fired_thresholds(
        self, traced_result, tmp_path
    ):
        obs = traced_result.observability
        path = tmp_path / "trace.jsonl"
        n_written = obs.export_jsonl(path)
        counts = validate_jsonl(path)
        assert sum(counts.values()) == n_written
        assert counts["audit"] == len(obs.audit.events)
        restored = [
            AuditEvent.from_dict(e)
            for e in read_jsonl(path)
            if e["type"] == "audit"
        ]
        assert restored == list(obs.audit.events)
        for event in restored:
            if event.decision == "damped":
                assert set(event.fired) >= {"T+"} or set(event.fired) >= {"T-"}

    def test_report_renders(self, traced_result):
        text = traced_result.observability.report()
        assert "== phases ==" in text
        assert "pairs examined" in text


class TestEquivalence:
    def test_observed_run_is_numerically_identical(self):
        plain = run_scenario(SCENARIO)
        traced = run_scenario(SCENARIO, observability=True)
        untraced = run_scenario(SCENARIO, observability=Observability(tracing=False))
        assert np.array_equal(traced.history, plain.history)
        assert np.array_equal(untraced.history, plain.history)

    def test_tracing_disabled_still_audits_and_counts(self):
        result = run_scenario(
            SCENARIO, observability=Observability(tracing=False)
        )
        obs = result.observability
        assert obs.tracer.events() == ()
        assert len(obs.audit.damped()) > 0
        assert obs.metrics["detector.pairs_examined"].value > 0

    def test_no_observability_by_default(self):
        assert run_scenario(SCENARIO).observability is None
