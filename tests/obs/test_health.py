"""SLO rules, M-of-N hysteresis, and the health monitor's transitions."""

import pytest

from repro.obs import (
    CRITICAL,
    DEGRADED,
    OK,
    HealthMonitor,
    MetricsRegistry,
    SloRule,
    TelemetrySink,
    default_service_rules,
    read_telemetry,
)


def gauge_snapshot(name: str, value: float) -> dict:
    return {name: {"kind": "gauge", "value": value}}


def counter_snapshot(**values: float) -> dict:
    return {name: {"kind": "counter", "value": v} for name, v in values.items()}


class TestSloRule:
    def test_ceiling_and_floor(self):
        ceiling = SloRule(name="c", metric="m", stat="value", op="<=", threshold=5.0)
        floor = SloRule(name="f", metric="m", stat="value", op=">=", threshold=5.0)
        assert ceiling.breached_by(5.1) and not ceiling.breached_by(5.0)
        assert floor.breached_by(4.9) and not floor.breached_by(5.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(op="=="),
            dict(severity="fatal"),
            dict(m=0),
            dict(m=3, n=2),
            dict(stat="p75"),
            dict(stat="value", denominator="other"),
        ],
    )
    def test_validation(self, kwargs):
        base = dict(name="r", metric="m", stat="value", op="<=", threshold=1.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            SloRule(**base)

    def test_duplicate_rule_names_rejected(self):
        rule = SloRule(name="r", metric="m", stat="value", op="<=", threshold=1.0)
        with pytest.raises(ValueError, match="duplicate"):
            HealthMonitor([rule, rule])


class TestHysteresis:
    def rule(self, m=2, n=3):
        return SloRule(
            name="depth", metric="q", stat="value", op="<=", threshold=10.0, m=m, n=n
        )

    def test_single_spike_does_not_breach(self):
        monitor = HealthMonitor([self.rule()])
        monitor.observe(gauge_snapshot("q", 50.0))
        assert monitor.state == OK
        monitor.observe(gauge_snapshot("q", 1.0))
        assert monitor.state == OK

    def test_m_of_n_enters_and_clears(self):
        monitor = HealthMonitor([self.rule()])
        states = []
        for value in (50.0, 50.0, 1.0, 1.0, 1.0):
            states.append(monitor.observe(gauge_snapshot("q", value)).state)
        # Breach after the 2nd bad interval, clear once 2-of-3 are good.
        assert states == [OK, DEGRADED, DEGRADED, OK, OK]

    def test_transitions_recorded_with_reasons(self):
        monitor = HealthMonitor([self.rule()])
        for value in (50.0, 50.0, 1.0, 1.0):
            monitor.observe(gauge_snapshot("q", value))
        scopes = [(t["scope"], t["from"], t["to"]) for t in monitor.transitions]
        assert scopes == [
            ("rule", OK, DEGRADED),
            ("overall", OK, DEGRADED),
            ("rule", DEGRADED, OK),
            ("overall", DEGRADED, OK),
        ]
        assert "exceeded" in monitor.transitions[0]["reason"]


class TestSeverity:
    def test_critical_rule_drives_overall_state(self):
        rules = [
            SloRule(name="soft", metric="a", stat="value", op="<=", threshold=1.0),
            SloRule(
                name="hard",
                metric="b",
                stat="value",
                op="<=",
                threshold=1.0,
                severity=CRITICAL,
            ),
        ]
        monitor = HealthMonitor(rules)
        snap = {**gauge_snapshot("a", 5.0), **gauge_snapshot("b", 5.0)}
        assert monitor.observe(snap).state == CRITICAL
        snap = {**gauge_snapshot("a", 5.0), **gauge_snapshot("b", 0.0)}
        assert monitor.observe(snap).state == DEGRADED


class TestDeltaAndRatio:
    def test_delta_needs_two_observations(self):
        rule = SloRule(name="r", metric="c", stat="delta", op="<=", threshold=5.0)
        monitor = HealthMonitor([rule])
        report = monitor.observe(counter_snapshot(c=100.0))
        assert report.rules[0]["last_value"] is None
        report = monitor.observe(counter_snapshot(c=103.0))
        assert report.rules[0]["last_value"] == pytest.approx(3.0)
        assert monitor.state == OK

    def test_ratio_of_deltas(self):
        rule = SloRule(
            name="shed-rate",
            metric="shed",
            stat="delta",
            op="<=",
            threshold=0.01,
            denominator="total",
            m=1,
            n=1,
        )
        monitor = HealthMonitor([rule])
        monitor.observe(counter_snapshot(shed=0.0, total=0.0))
        report = monitor.observe(counter_snapshot(shed=0.0, total=100.0))
        assert report.rules[0]["last_value"] == 0.0
        report = monitor.observe(counter_snapshot(shed=50.0, total=200.0))
        assert report.rules[0]["last_value"] == pytest.approx(0.5)
        assert monitor.state == DEGRADED

    def test_zero_traffic_window_scores_zero(self):
        rule = SloRule(
            name="r", metric="shed", stat="delta", op="<=", threshold=0.01,
            denominator="total",
        )
        monitor = HealthMonitor([rule])
        monitor.observe(counter_snapshot(shed=0.0, total=100.0))
        report = monitor.observe(counter_snapshot(shed=0.0, total=100.0))
        assert report.rules[0]["last_value"] == 0.0

    def test_shed_without_traffic_is_infinite(self):
        rule = SloRule(
            name="r", metric="shed", stat="delta", op="<=", threshold=0.01,
            denominator="total",
        )
        monitor = HealthMonitor([rule])
        monitor.observe(counter_snapshot(shed=0.0, total=100.0))
        report = monitor.observe(counter_snapshot(shed=5.0, total=100.0))
        assert report.rules[0]["last_value"] == float("inf")
        assert monitor.state == DEGRADED


class TestMissingMetrics:
    def test_absent_metric_is_dormant_not_breached(self):
        rule = SloRule(
            name="drift", metric="absent.gauge", stat="value", op="<=",
            threshold=64,
        )
        monitor = HealthMonitor([rule])
        for _ in range(5):
            report = monitor.observe({})
        assert report.state == OK
        assert report.rules[0]["last_value"] is None
        assert monitor.transitions == []

    def test_histogram_stat_on_histogram_row(self):
        rule = SloRule(
            name="p99", metric="lat", stat="p99", op="<=", threshold=0.005
        )
        monitor = HealthMonitor([rule])
        snap = {"lat": {"kind": "histogram", "p99": 0.5, "count": 9.0}}
        assert monitor.observe(snap).state == DEGRADED

    def test_wrong_stat_for_kind_raises(self):
        rule = SloRule(name="r", metric="g", stat="p99", op="<=", threshold=1.0)
        monitor = HealthMonitor([rule])
        with pytest.raises(ValueError, match="cannot be read"):
            monitor.observe(gauge_snapshot("g", 1.0))


class TestReplayAndSink:
    def test_replay_recorded_series(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        reg = MetricsRegistry()
        flood = reg.gauge("serve.flood.top_rater_share")
        with TelemetrySink(path) as sink:
            for interval, share in enumerate((0.1, 0.9, 0.9, 0.9, 0.1, 0.1, 0.1)):
                flood.set(share)
                sink.emit(reg, interval=interval)
        monitor = HealthMonitor(default_service_rules())
        final = monitor.replay(read_telemetry(path))
        assert final.state == OK  # flood healed by the end
        overall = [
            (t["from"], t["to"])
            for t in monitor.transitions
            if t["scope"] == "overall"
        ]
        assert overall == [(OK, DEGRADED), (DEGRADED, OK)]

    def test_transitions_stream_to_sink(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        sink = TelemetrySink(path)
        rule = SloRule(name="r", metric="g", stat="value", op="<=", threshold=1.0)
        monitor = HealthMonitor([rule], sink=sink)
        monitor.observe(gauge_snapshot("g", 9.0))
        sink.close()
        from repro.obs.schema import validate_jsonl

        assert validate_jsonl(path) == {"health": 2}

    def test_report_shape(self):
        monitor = HealthMonitor(default_service_rules(min_events_per_sec=10.0))
        monitor.observe({})
        report = monitor.report()
        assert report["state"] == OK
        assert report["intervals_observed"] == 1
        names = {r["name"] for r in report["rules"]}
        assert {
            "query-p99",
            "queue-depth",
            "shed-rate",
            "flood-share",
            "degraded-ladder",
            "events-per-sec",
        } <= names
