"""Batch-vs-streamed equivalence over the three checked-in golden scenarios.

The streaming contract: replaying a recorded batch run event-by-event
through a fresh :class:`~repro.serve.ReputationService` reproduces the
batch run's reputation vectors at every interval watermark —
bit-identically against the same process's batch history, and within
golden tolerance against the checked-in golden traces.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.api import ScenarioSpec
from repro.qa import GOLDEN_SCENARIOS
from repro.qa.golden import load_trace
from repro.serve import (
    compare_histories,
    encode_event,
    record_scenario_events,
    replay_recorded,
    replay_report,
)

GOLDEN_DIR = Path(__file__).parent.parent / "golden"
GOLDEN_NAMES = sorted(GOLDEN_SCENARIOS)

#: sha256 of each golden scenario's recorded events as canonical
#: line-JSON (sorted keys, compact separators, one event per line; the
#: spec header is not part of the digest).  Pinned from the per-rating
#: recorder, so any change to the recorded stream shows up here.
STREAM_DIGESTS = {
    "ebay_mcm": "c0c8848b8b32722695c793ab5aeadc6503f45b59c15dded4487c8903c3b1d23c",
    "eigentrust_pcm": "345d300fba5e4838c45269b2ac83419f9eabe7ea12576bced5b7ec258b219117",
    "powertrust_mmm": "671484b10d10d2cd9e88179970ed3f17b912f87fb6ac078cc31a9762a83cf40a",
}


def golden_spec(name):
    golden = GOLDEN_SCENARIOS[name]
    return ScenarioSpec.from_build(golden.build, seed=golden.seed), golden.cycles


@pytest.fixture(scope="module")
def recorded_streams():
    """Record each golden scenario once; several tests replay them."""
    streams = {}
    for name in GOLDEN_NAMES:
        spec, cycles = golden_spec(name)
        streams[name] = record_scenario_events(spec, cycles)
    return streams


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_stream_matches_batch_bitwise(name, recorded_streams):
    recorded = recorded_streams[name]
    service, report = replay_recorded(recorded)
    assert report.bitwise_equal, (
        f"{name}: streamed replay diverged from batch "
        f"(max abs diff {report.max_abs_diff})"
    )
    assert report.max_abs_diff == 0.0
    assert report.within()
    assert service.intervals_run == report.intervals


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_stream_matches_checked_in_golden(name, recorded_streams):
    """The streamed history agrees with the golden trace on disk."""
    service, _ = replay_recorded(recorded_streams[name])
    records = load_trace(GOLDEN_DIR / f"{name}.jsonl")
    cycles = [r for r in records if r.get("type") == "cycle"]
    assert len(cycles) == service.intervals_run
    golden_history = np.array(
        [r["reputations"] for r in cycles], dtype=np.float64
    )
    report = compare_histories(golden_history, service.history)
    assert report.within(), (
        f"{name}: streamed replay diverged from the checked-in golden "
        f"trace (max abs diff {report.max_abs_diff})"
    )


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_recorded_stream_digest(name, recorded_streams):
    digest = hashlib.sha256()
    for event in recorded_streams[name].events:
        line = json.dumps(encode_event(event), sort_keys=True, separators=(",", ":"))
        digest.update(f"{line}\n".encode())
    assert digest.hexdigest() == STREAM_DIGESTS[name]


def test_replay_report_one_call():
    spec, _ = golden_spec("eigentrust_pcm")
    report = replay_report(spec, cycles=2)
    assert report.intervals == 2
    assert report.bitwise_equal


def test_recorded_stream_shape(recorded_streams):
    for name in GOLDEN_NAMES:
        recorded = recorded_streams[name]
        spec, cycles = golden_spec(name)
        assert recorded.batch_history.shape == (
            cycles,
            recorded.spec.world["n_nodes"],
        )
        assert recorded.n_events == len(recorded.events)
        # One watermark per batch cycle.
        from repro.serve import WatermarkEvent

        watermarks = [e for e in recorded.events if isinstance(e, WatermarkEvent)]
        assert [w.cycle for w in watermarks] == list(range(cycles))


def test_compare_histories_shape_mismatch():
    with pytest.raises(ValueError, match="shapes differ"):
        compare_histories(np.zeros((2, 3)), np.zeros((3, 3)))
