"""Record a batch scenario run as a replayable event stream.

The recorder runs a scenario through the simulation's query-cycle engine
with the three behavioural ledgers instrumented, and writes down every
mutation the engine performs as a typed service event:

* a query cycle's served requests, flushed as ``ledger.record_many`` →
  ``interactions.record_many`` → ``profiles.record_requests`` →
  one :class:`~repro.serve.events.RatingEvent` per row, carrying the
  row's interest, in the engine's client order.  The interaction and
  request batches are folded into those composite events, not emitted
  separately — the service re-expands a rating into exactly those three
  ledger updates;
* ``ledger.record_batch`` (a collusion burst) → a ``count``-carrying
  :class:`~repro.serve.events.RatingEvent` with no interest (its paired
  ``interactions.record`` is folded in the same way);
* any other ``interactions.record`` →
  :class:`~repro.serve.events.InteractionEvent`;
* ``interactions.decay_nodes`` (churn aging) →
  :class:`~repro.serve.events.ChurnEvent`;
* each completed simulation cycle →
  :class:`~repro.serve.events.WatermarkEvent`.

Because the instrumentation wraps-and-forwards (the original methods
still run), the recording run is numerically identical to an
uninstrumented one; the recorder also captures the per-cycle reputation
vectors so equivalence tests can compare a streamed replay against the
*same process's* batch history bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api import ScenarioSpec, build_scenario
from repro.serve.events import (
    ChurnEvent,
    Event,
    InteractionEvent,
    RatingEvent,
    WatermarkEvent,
)

__all__ = ["RecordedStream", "record_scenario_events"]


@dataclass(frozen=True)
class RecordedStream:
    """One recorded run: the spec it replays against, the events, and the
    batch run's per-cycle reputation history for strict comparison."""

    spec: ScenarioSpec
    events: tuple[Event, ...]
    #: Post-update reputation vectors, shape ``(cycles, n_nodes)``.
    batch_history: np.ndarray

    @property
    def n_events(self) -> int:
        return len(self.events)


class _LedgerTap:
    """Instance-level instrumentation of one scenario's three ledgers."""

    def __init__(self, simulation) -> None:
        self.events: list[Event] = []
        # The composite-rating folds.  A burst's rating is followed by its
        # implied interaction; a query cycle's rating batch is followed by
        # the matching interaction batch and then the request batch that
        # supplies each row's interest.  Those calls are consumed silently.
        self._fold_interaction: tuple[int, int, float] | None = None
        self._fold_rows: tuple[list[int], list[int], list[float]] | None = None
        self._fold_stage: str | None = None
        self._ledger = simulation.ledger
        self._interactions = simulation.interactions
        self._profiles = simulation.profiles
        orig_record_many = self._ledger.record_many
        orig_record_batch = self._ledger.record_batch
        orig_interaction = self._interactions.record
        orig_interaction_many = self._interactions.record_many
        orig_decay = self._interactions.decay_nodes
        orig_requests = self._profiles.record_requests

        def tap_record_many(raters, ratees, values):
            self._flush_folds()
            self._fold_rows = (
                np.asarray(raters).tolist(),
                np.asarray(ratees).tolist(),
                np.asarray(values, dtype=np.float64).tolist(),
            )
            self._fold_stage = "interactions"
            return orig_record_many(raters, ratees, values)

        def tap_record_batch(rater, ratee, value, count):
            self._flush_folds()
            self.events.append(
                RatingEvent(
                    rater=rater, ratee=ratee, value=value, count=count
                )
            )
            self._fold_interaction = (rater, ratee, float(count))
            return orig_record_batch(rater, ratee, value, count)

        def tap_interaction(i, j, count=1.0):
            if self._fold_interaction == (i, j, float(count)):
                self._fold_interaction = None
            else:
                self._flush_folds()
                self.events.append(
                    InteractionEvent(source=i, target=j, count=float(count))
                )
            return orig_interaction(i, j, count)

        def tap_interaction_many(raters, ratees, counts=1.0):
            self._consume_rows("interactions", raters, ratees, counts)
            self._fold_stage = "requests"
            return orig_interaction_many(raters, ratees, counts)

        def tap_decay(nodes, factor):
            self._flush_folds()
            idx = np.asarray(nodes, dtype=np.int64)
            if idx.size and factor != 1.0:
                self.events.append(
                    ChurnEvent(nodes=tuple(int(n) for n in idx), factor=float(factor))
                )
            return orig_decay(nodes, factor)

        def tap_requests(nodes, interests, counts=1.0):
            raters, ratees, values = self._consume_rows(
                "requests", nodes, None, counts
            )
            self.events.extend(
                RatingEvent(
                    rater=rater, ratee=ratee, value=value, interest=interest
                )
                for rater, ratee, value, interest in zip(
                    raters, ratees, values, np.asarray(interests).tolist()
                )
            )
            self._fold_rows = None
            self._fold_stage = None
            return orig_requests(nodes, interests, counts)

        self._taps = {
            (self._ledger, "record_many"): tap_record_many,
            (self._ledger, "record_batch"): tap_record_batch,
            (self._interactions, "record"): tap_interaction,
            (self._interactions, "record_many"): tap_interaction_many,
            (self._interactions, "decay_nodes"): tap_decay,
            (self._profiles, "record_requests"): tap_requests,
        }
        for (target, name), tap in self._taps.items():
            setattr(target, name, tap)

    def _consume_rows(self, stage, raters, ratees, counts):
        """Check one companion batch against the pending rating rows."""
        rows = self._fold_rows
        if (
            rows is None
            or self._fold_stage != stage
            or np.asarray(raters).tolist() != rows[0]
            or (ratees is not None and np.asarray(ratees).tolist() != rows[1])
            or not np.all(np.asarray(counts) == 1.0)
        ):
            raise RuntimeError(
                f"unexpected {stage} batch with no matching rating batch — "
                f"the recorder's fold model no longer matches the engine"
            )
        return rows

    def _flush_folds(self) -> None:
        """A pending fold that was never consumed means the engine changed
        shape; fail loudly rather than drop a ledger mutation."""
        if self._fold_interaction is not None or self._fold_rows is not None:
            raise RuntimeError(
                "recorder fold left unconsumed — the engine no longer "
                "pairs ratings with interactions/requests as the "
                "recorder assumes"
            )

    def close(self) -> None:
        self._flush_folds()
        for target, name in self._taps:
            try:
                delattr(target, name)
            except AttributeError:
                pass


def record_scenario_events(spec: ScenarioSpec, cycles: int | None = None) -> RecordedStream:
    """Run ``spec`` in batch and capture its event stream."""
    scenario = build_scenario(spec)
    simulation = scenario.world.simulation
    cycles = (
        cycles
        if cycles is not None
        else scenario.config.simulation_cycles
    )
    if cycles < 1:
        raise ValueError(f"cycles must be >= 1, got {cycles}")
    tap = _LedgerTap(simulation)
    history: list[np.ndarray] = []
    try:
        for cycle in range(cycles):
            reputations = simulation.run_simulation_cycle()
            tap.events.append(WatermarkEvent(cycle=cycle))
            history.append(np.array(reputations, dtype=np.float64, copy=True))
    finally:
        tap.close()
    return RecordedStream(
        spec=spec,
        events=tuple(tap.events),
        batch_history=np.vstack(history),
    )
