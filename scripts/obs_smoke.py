#!/usr/bin/env python
"""CI obs-smoke: traced scenario, telemetry pipeline, health, profiler.

Stage 1 — batch trace: runs a 40-node PCM collusion world with full
observability, exports the JSONL trace, validates every line against the
event schema, and asserts the detector audit captured at least one
damped pair with fired thresholds.

Stage 2 — telemetry pipeline: streams rating traffic (including an
injected single-rater flood window) through a live
:class:`~repro.serve.ReputationService` wired to a
:class:`~repro.obs.TelemetrySink` and :class:`~repro.obs.HealthMonitor`,
then asserts the recorded series is watermark-aligned and schema-valid,
the health verdict flipped OK -> DEGRADED -> OK, the last snapshot
renders as parseable Prometheus exposition, and the traced spans profile
into a non-empty hot-path table.

Exits non-zero on any failure, so the CI step is a real gate, not a
smoke signal.  CI runs this under ``python -W error::DeprecationWarning``
so a deprecation warning anywhere on the traced path fails the run.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.api import ScenarioSpec, run_scenario
from repro.obs import (
    DEGRADED,
    OK,
    AuditEvent,
    HealthMonitor,
    Observability,
    TelemetrySink,
    default_service_rules,
    parse_prometheus,
    profile_spans,
    read_jsonl,
    read_telemetry,
    render_prometheus,
    render_top,
    validate_jsonl,
)
from repro.serve import RatingEvent, ReputationService, WatermarkEvent


def smoke_batch_trace() -> None:
    spec = ScenarioSpec(
        system="EigenTrust+SocialTrust",
        collusion="pcm",
        seed=1,
        world=dict(
            n_nodes=40,
            n_pretrusted=3,
            n_colluders=8,
            simulation_cycles=3,
            n_interests=8,
            interests_per_node=(1, 4),
            query_cycles=6,
        ),
    )
    result = run_scenario(spec, observability=True)
    obs = result.observability
    assert obs is not None, "observability bundle missing from the result"

    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "obs_smoke.jsonl"
        n_written = obs.export_jsonl(trace)
        counts = validate_jsonl(trace)
        assert sum(counts.values()) == n_written, "line count mismatch"
        assert counts.get("span", 0) > 0, "no spans in the trace"
        assert counts.get("audit", 0) > 0, "no audit events in the trace"
        assert counts.get("metrics", 0) == 1, "expected one metrics snapshot"

        audit = [
            AuditEvent.from_dict(e)
            for e in read_jsonl(trace)
            if e["type"] == "audit"
        ]

    damped = [e for e in audit if e.decision == "damped"]
    assert damped, "collusion run produced no damped audit events"
    assert all(e.fired for e in damped), "damped event without fired thresholds"
    assert all(e.behaviors for e in damped), "damped event without behaviours"

    print(
        f"obs-smoke OK: {n_written} events "
        f"(spans={counts['span']}, audit={counts['audit']}, "
        f"damped={len(damped)})"
    )
    print()
    print(obs.report(title="obs-smoke report"))


def smoke_telemetry_pipeline() -> None:
    spec = ScenarioSpec(
        system="EigenTrust+SocialTrust",
        collusion="pcm",
        seed=7,
        world=dict(
            n_nodes=20,
            n_pretrusted=2,
            n_colluders=4,
            n_interests=6,
            interests_per_node=[1, 3],
            capacity=10,
            query_cycles=3,
            simulation_cycles=3,
        ),
    )
    with tempfile.TemporaryDirectory() as tmp:
        telemetry = Path(tmp) / "telemetry.jsonl"
        sink = TelemetrySink(telemetry)
        monitor = HealthMonitor(default_service_rules(), sink=sink)
        service = ReputationService(
            spec,
            observability=Observability(tracing=True),
            telemetry_sink=sink,
            health=monitor,
        )

        n = service.n_nodes
        interval = 0
        states = []
        # 3 healthy intervals, 3 single-rater flood intervals, 4 healed.
        for phase in ("spread",) * 3 + ("flood",) * 3 + ("spread",) * 4:
            if phase == "spread":
                for rater in range(10):
                    service.apply(
                        RatingEvent(rater=rater, ratee=(rater + 1) % n, value=1.0)
                    )
            else:
                for k in range(30):
                    service.apply(
                        RatingEvent(rater=0, ratee=1 + (k % (n - 1)), value=1.0)
                    )
            service.apply(WatermarkEvent(cycle=interval))
            states.append(monitor.state)
            interval += 1
        sink.close()

        assert OK in states and DEGRADED in states, (
            f"flood window never degraded the verdict: {states}"
        )
        assert monitor.state == OK, f"verdict did not heal: {monitor.state}"
        overall = [
            (t["from"], t["to"])
            for t in monitor.transitions
            if t["scope"] == "overall"
        ]
        assert overall == [(OK, DEGRADED), (DEGRADED, OK)], overall

        counts = validate_jsonl(telemetry)
        assert counts.get("telemetry", 0) == 10, counts
        assert counts.get("health", 0) >= 4, counts
        snapshots = read_telemetry(telemetry)
        assert [e["interval"] for e in snapshots] == list(range(1, 11))

        # A fresh monitor replaying the recorded series reaches the same
        # verdict the live one did.
        replayed = HealthMonitor(default_service_rules())
        replayed.replay(snapshots)
        assert replayed.state == monitor.state

        # The last snapshot renders as valid exposition text.
        families = parse_prometheus(render_prometheus(snapshots[-1]["metrics"]))
        assert "repro_serve_events_rating_total" in families
        live_families = parse_prometheus(render_prometheus(service.metrics))
        assert set(live_families) == set(families)

        # The traced spans aggregate into a non-empty hot-path profile.
        stats = profile_spans(service.observability.tracer.events())
        assert stats, "traced service produced no profiled phases"
        assert any(s.name == "serve.watermark" for s in stats)

    print()
    print(
        f"telemetry-smoke OK: {counts['telemetry']} snapshots, "
        f"{counts['health']} health events, verdict "
        f"{' -> '.join([OK, DEGRADED, OK])}, "
        f"{len(families)} exposition families"
    )
    print()
    print(render_top(stats, top=5, title="telemetry-smoke hot phases"))


def main() -> int:
    smoke_batch_trace()
    smoke_telemetry_pipeline()
    return 0


if __name__ == "__main__":
    sys.exit(main())
