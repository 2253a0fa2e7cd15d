"""The seed scalar query-cycle loop, kept as the engine's test oracle.

:class:`~repro.p2p.engine.BatchedQueryEngine` promises to consume the
simulation's RNG stream draw for draw like the per-client loop the
simulator started from, so whole runs must come out **bit-identical** —
under every selection policy, exploration rate, collusion schedule, churn
and network partition.  :class:`ReferenceQueryLoop` is that loop,
unchanged: one :func:`~repro.p2p.selection.select_server` call and four
per-rating ledger calls per active client.  It is too slow for the
production path and exists only to be compared against.

:func:`install_reference_loop` swaps it in for the production engine of
a built :class:`~repro.p2p.simulator.Simulation`.  The engine fuzzer,
``repro qa diff``, the engine equivalence and determinism tests and the
engine benchmark each run one twin on the production engine and one on
this loop.
"""

from __future__ import annotations

import numpy as np

from repro.p2p.selection import select_server
from repro.p2p.simulator import Simulation
from repro.reputation.base import Rating

__all__ = ["ReferenceQueryLoop", "install_reference_loop"]


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
