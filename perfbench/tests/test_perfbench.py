"""Self-tests of the benchmark: inputs, metric names, tracing and checks.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import layers, workloads
from perfbench.layers import LAYERS, Layer, LayerTrace
from perfbench.workloads import (
    END_TO_END,
    PER_LAYER,
    RunResult,
    Workload,
    make_stream,
    run_workload,
)

ROOT = Path(__file__).resolve().parents[2]

TINY_SIM = Workload("tiny_sim", "simulate", 60, 3, 10, cycles=3)
TINY_SERVE = Workload("tiny_serve", "serve", 60, 3, 10)


@pytest.fixture
def tiny_serve_stream(monkeypatch):
    """Shrink the serve intervals so a serve run takes well under a second."""
    monkeypatch.setattr(workloads, "INTERVAL_EVENTS", 300)
    monkeypatch.setattr(workloads, "CHURN_EVERY", 150)
    monkeypatch.setattr(workloads, "SERVE_RATE", 50_000.0)


def _wrapped_targets() -> dict[tuple[type, str], object]:
    import repro.api  # noqa: F401  (loads every schedule subclass)
    from repro.collusion.models import CollusionSchedule

    trace = LayerTrace()
    out = {}
    for layer in LAYERS:
        resolved = trace._resolve(layer)
        assert resolved is not None, layer.target
        cls, attr = resolved
        classes = layers._subclasses(cls) if cls is CollusionSchedule else [cls]
        for sub in classes:
            if attr in sub.__dict__:
                out[(sub, attr)] = sub.__dict__[attr]
    return out


def test_same_seed_gives_same_serve_stream():
    wl = workloads.WORKLOADS["serve_n1000"]
    first = make_stream(wl, 7, 3_000)
    assert first == make_stream(wl, 7, 3_000)
    assert first != make_stream(wl, 8, 3_000)
    kinds = {type(op).__name__ for op in first}
    assert kinds == {
        "RatingEvent", "InteractionEvent", "ChurnEvent", "QueryRequest"
    }


def test_metric_names_are_valid_and_match_benchmark_json():
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    names = [name for name, _ in END_TO_END + PER_LAYER]
    assert all(pattern.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_traced_and_untraced_reputations_are_bit_identical():
    result = RunResult()
    with LayerTrace(frozenset(TINY_SIM.colluders)) as trace:
        traced = workloads._simulate_pass(TINY_SIM, 3, 0, result, trace)
    plain = workloads._simulate_pass(TINY_SIM, 3, 0, result)
    assert traced.history.shape == (TINY_SIM.cycles, TINY_SIM.n_nodes)
    assert np.array_equal(traced.history, plain.history)
    metrics = trace.metrics()
    assert metrics["engine.query_cycle.calls"] == 30 * TINY_SIM.cycles
    assert metrics["collusion.bursts.count"] > 0
    assert metrics["detector.analyze.self_s"] > 0
    assert metrics["trace.missing_layers"] == 0


def test_wrappers_do_not_leak_into_later_runs():
    before = _wrapped_targets()
    with LayerTrace() as trace:
        assert all(
            getattr(cls.__dict__[attr], "__wrapped__", None) is original
            for (cls, attr), original in before.items()
        )
    assert _wrapped_targets() == before
    trace.fold()
    workloads._simulate_pass(TINY_SIM, 4, 0, RunResult())
    assert trace.tracer.n_spans == 0


def test_missing_layer_is_reported_not_crashed(monkeypatch):
    ghosts = (
        Layer("ghost.module", "repro.no_such_module", "Ghost.run"),
        Layer("ghost.method", "repro.p2p.engine", "BatchedQueryEngine.no_such_method"),
    )
    monkeypatch.setattr(layers, "LAYERS", LAYERS + ghosts)
    with LayerTrace() as trace:
        pass
    assert trace.missing == [layer.target for layer in ghosts]
    assert trace.metrics()["trace.missing_layers"] == 2


@pytest.mark.parametrize("traced", [False, True], ids=["timed", "traced"])
def test_tiny_simulate_run_has_no_errors(traced):
    result = run_workload(TINY_SIM, 1, 0.01, traced)
    assert result.failures == []
    assert result.error_rate == 0.0
    expected = PER_LAYER if traced else END_TO_END
    assert list(result.metrics) == [name for name, _ in expected]
    assert all(np.isfinite(v) for v in result.metrics.values())


@pytest.mark.parametrize("traced", [False, True], ids=["timed", "traced"])
def test_tiny_serve_run_has_no_errors(tiny_serve_stream, traced):
    result = run_workload(TINY_SERVE, 1, 0.01, traced)
    assert result.failures == []
    assert result.error_rate == 0.0
    expected = PER_LAYER if traced else END_TO_END
    assert list(result.metrics) == [name for name, _ in expected]
    if traced:
        assert result.metrics["serve.apply.self_s"] > 0
        assert result.metrics["engine.query_cycle.calls"] == 0
    else:
        assert result.metrics["colluder_pairs_damped"] > 0


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_n200",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
