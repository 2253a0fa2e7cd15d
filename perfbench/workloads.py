"""The benchmark's workloads, their end-to-end measurement and output checks.

Every workload runs ``EigenTrust+SocialTrust`` under pairwise collusion
(PCM) and builds its world only through the public facade: simulate
workloads through :func:`repro.api.build_scenario` and
:meth:`repro.api.Scenario.run`, the serve workload through
:class:`repro.serve.ReputationService`.  Workloads set only n, colluders,
pre-trusted count, system, collusion model, cycles and seed; the engine and
coefficient core are whatever the facade builds by default.

See ``perfbench/README.md`` for why each workload exists and which layer
metric should move which end-to-end metric.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, ContextManager

import numpy as np

from repro.api import ScenarioSpec, build_scenario
from repro.serve import (
    ChurnEvent,
    InteractionEvent,
    QueryRequest,
    QueryResult,
    RatingEvent,
    ReputationService,
)

from perfbench.layers import SETUP_SPAN, LayerTrace

__all__ = [
    "Workload",
    "WORKLOADS",
    "END_TO_END",
    "PER_LAYER",
    "INFO",
    "RunResult",
    "run_workload",
    "make_stream",
]

#: Open-loop arrival rate of the serve stream (operations per second,
#: mutations and queries together); about a third of the service's
#: measured capacity at n=1000, so the backlog stays bounded.
SERVE_RATE = 5_000.0
#: Mutations per reputation interval (the service's auto-watermark).
INTERVAL_EVENTS = 6_000
#: One churn event every this many mutations.
CHURN_EVERY = 3_000
CHURN_NODES = 10
CHURN_FACTOR = 0.9
#: One query after every this many mutations (alternating node-reputation
#: and colluder-pair damping probes).
QUERY_EVERY = 50
#: Mutation mix: colluder-pair bursts and bare interactions; the rest are
#: genuine single ratings, each carrying an interest.
P_BURST = 0.03
P_INTERACTION = 0.02
P_NEGATIVE = 0.10
BURST_COUNT = 20
N_INTERESTS = 20

#: Simulate passes whose outputs feed the quality figures.  Fixed, so those
#: figures do not depend on machine speed; more passes run while time
#: remains and add to the timing figures only.
MIN_PASSES = 3
#: Serve set-ups per run (build + closed-loop warm-up interval).
SERVE_SETUPS = 3
#: Fold spans into per-layer totals every this many serve operations.
FOLD_EVERY = 1_000

#: Iterations of the reference chunk (a few µs of pure-Python arithmetic).
REF_CHUNK_ITERATIONS = 100
#: Reference chunks timed after each simulation cycle.
REF_CHUNKS = 200
#: While waiting for an operation, the serve load generator times one
#: reference chunk when the operation is due later than this, so chunks
#: never delay it.
REF_SLACK_S = 20e-6

#: (name, unit) of every end-to-end metric, in output order.  Each is
#: defined on every workload and is steady across seeds; figures that vary
#: with the seeded world more than any bound allows are informational.
#: ``ref`` is the median time of the reference chunk timed beside the
#: measured operations (see :func:`_ref_chunk_s`).
END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("cycle_p50_ref", "ref"),
    ("query_p90_ref", "ref"),
    ("colluder_pairs_damped", "share"),
    ("peak_rss_mib", "MiB"),
)

#: (name, unit) of the informational figures printed beside the metrics.
INFO: dict[str, str] = {
    "cycle_p50_ms": "ms",
    "query_p99_ms": "ms",
    "ref_chunk_us": "us",
    "run_s": "s",
    "capacity_ev_s": "1/s",
    "query_p50_ms": "ms",
    "colluder_share": "share",
    "colluder_reputation_share": "share",
    "update_latency_p50_ms": "ms",
}

#: (name, unit) of every per-layer metric of the traced run.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("setup.self_s", "s"),
    ("engine.query_cycle.self_s", "s"),
    ("engine.query_cycle.calls", "count"),
    ("engine.begin_interval.self_s", "s"),
    ("collusion.bursts.self_s", "s"),
    ("collusion.bursts.count", "count"),
    ("coeff.closeness.self_s", "s"),
    ("coeff.closeness.rss_growth_mib", "MiB"),
    ("coeff.similarity.self_s", "s"),
    ("coeff.similarity.rss_growth_mib", "MiB"),
    ("detector.analyze.self_s", "s"),
    ("detector.analyze.rss_growth_mib", "MiB"),
    ("detector.findings", "count"),
    ("detector.precision", "share"),
    ("socialtrust.update.self_s", "s"),
    ("backend.update.self_s", "s"),
    ("backend.iterations", "count"),
    ("ledger.drain.self_s", "s"),
    ("metrics.snapshot.self_s", "s"),
    ("serve.apply.self_s", "s"),
    ("serve.query.self_s", "s"),
    ("serve.watermark.self_s", "s"),
    ("serve.backlog_max_events", "count"),
    ("loadgen.lag_end_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.missing_layers", "count"),
)


@dataclass(frozen=True)
class Workload:
    """One seeded scenario shape; ``cycles`` is the simulate pass length."""

    name: str
    mode: str
    n_nodes: int
    n_pretrusted: int
    n_colluders: int
    cycles: int = 0

    def spec(self, seed: int, run_index: int = 0) -> ScenarioSpec:
        world: dict[str, Any] = dict(
            n_nodes=self.n_nodes,
            n_pretrusted=self.n_pretrusted,
            n_colluders=self.n_colluders,
        )
        if self.mode == "simulate":
            world["simulation_cycles"] = self.cycles
        return ScenarioSpec(
            system="EigenTrust+SocialTrust",
            collusion="pcm",
            seed=seed,
            run_index=run_index,
            world=world,
        )

    @property
    def colluders(self) -> tuple[int, ...]:
        return tuple(range(self.n_pretrusted, self.n_pretrusted + self.n_colluders))

    def colluder_pairs(self) -> list[tuple[int, int]]:
        """Both directions of every PCM pair (consecutive colluders; an odd
        trailing colluder pairs with the first, as the schedule does)."""
        ids = self.colluders
        pairs = [(ids[k], ids[k + 1]) for k in range(0, len(ids) - 1, 2)]
        if len(ids) % 2:
            pairs.append((ids[-1], ids[0]))
        return [d for a, b in pairs for d in ((a, b), (b, a))]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("paper_n200", "simulate", 200, 9, 30, cycles=50),
        Workload("scale_n1000", "simulate", 1000, 20, 150, cycles=6),
        Workload("serve_n1000", "serve", 1000, 20, 150),
    )
}


@dataclass
class RunResult:
    """Outcome of one benchmark run: metrics plus the operation tally."""

    metrics: dict[str, float] = field(default_factory=dict)
    #: Informational figures (see :data:`INFO`), printed but not bounded.
    info: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: Layer entry points the traced run could not find.
    missing_layers: list[str] = field(default_factory=list)

    def op(self, ok: bool = True, what: str = "") -> None:
        """Count one operation or check; a false ``ok`` counts it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _colluder_share(history: np.ndarray, colluders: tuple[int, ...]) -> float:
    """Mean over intervals of the colluders' share of the reputation mass."""
    if history.size == 0:
        return math.nan
    totals = history.sum(axis=1)
    return float((history[:, list(colluders)].sum(axis=1) / totals).mean())


def _check_reputations(
    result: RunResult, reps: np.ndarray, wl: Workload, *, ordered: bool
) -> None:
    finite = bool(np.all(np.isfinite(reps)))
    result.op(finite, "reputations are not all finite")
    result.op(
        finite and abs(float(reps.sum()) - 1.0) < 1e-9,
        f"reputations sum to {float(reps.sum())!r}, not 1",
    )
    if ordered:
        colluder = float(reps[list(wl.colluders)].mean())
        normal = float(reps[wl.n_pretrusted + wl.n_colluders :].mean())
        result.op(
            colluder < normal,
            f"colluder mean {colluder:.3g} >= normal mean {normal:.3g}",
        )


def _ref_chunk_s() -> float:
    """Time one reference chunk: fixed pure-Python work, independent of the
    program, that runs as fast as the machine does at that moment.

    On a shared virtual machine CPU speed can drift by 25-40% in phases
    lasting seconds to minutes (measured on a 2-vCPU KVM guest), the same
    for the program and the chunk.  Dividing a timing by the chunk time
    measured beside it removes that common drift, so the bounded timings
    compare runs made in different phases.
    """
    start = perf_counter()
    total = 0
    for i in range(REF_CHUNK_ITERATIONS):
        total += i * i
    return perf_counter() - start


def _ref_s() -> float:
    """Median of :data:`REF_CHUNKS` reference chunks."""
    return statistics.median(_ref_chunk_s() for _ in range(REF_CHUNKS))


def _setup_span(trace: LayerTrace | None) -> ContextManager[Any]:
    """The traced run's span around a facade build (nothing when untraced)."""
    return trace.tracer.span(SETUP_SPAN) if trace is not None else nullcontext()


# -- simulate -----------------------------------------------------------------


@dataclass
class _SimPass:
    setup_s: float
    cycle_s: list[float]
    rates: list[float]
    ref_s: list[float]
    query_s: list[float]
    query_ref: list[float]
    damped: int
    probes: int
    history: np.ndarray
    request_share: float

    @property
    def run_s(self) -> float:
        return sum(self.cycle_s)

    @property
    def run_ref(self) -> float:
        return sum(c / r for c, r in zip(self.cycle_s, self.ref_s))


def _simulate_pass(
    wl: Workload,
    seed: int,
    run_index: int,
    result: RunResult,
    trace: LayerTrace | None = None,
) -> _SimPass:
    """Build one scenario, run it cycle by cycle and probe it between cycles.

    After each cycle the pass reads the live system the way a client of the
    service would: every directed colluder pair's damping weight, each
    followed by one node-reputation lookup.
    """
    spec = wl.spec(seed, run_index)
    start = perf_counter()
    with _setup_span(trace):
        scenario = build_scenario(spec)
    setup_s = perf_counter() - start
    system = scenario.world.system
    pairs = wl.colluder_pairs()
    nodes = np.random.default_rng((seed, run_index, 0x9E)).integers(
        0, wl.n_nodes, size=(wl.cycles, len(pairs))
    )
    cycle_s: list[float] = []
    rates: list[float] = []
    ratings = scenario.simulation.ledger.total_recorded
    ref_s: list[float] = []
    query_s: list[float] = []
    damped = 0
    for cycle in range(wl.cycles):
        start = perf_counter()
        try:
            outcome = scenario.run(1)
        except Exception as exc:  # a failed cycle ends the pass
            result.op(False, f"cycle {cycle}: {exc!r}")
            break
        cycle_s.append(perf_counter() - start)
        recorded = scenario.simulation.ledger.total_recorded
        rates.append((recorded - ratings) / cycle_s[-1])
        ratings = recorded
        result.op()
        if trace is not None:
            trace.fold()
        ref_s.append(_ref_s())
        for k, (rater, ratee) in enumerate(pairs):
            start = perf_counter()
            weight = system.pair_weight(rater, ratee)
            mid = perf_counter()
            value = float(system.reputations[nodes[cycle, k]])
            end = perf_counter()
            query_s += (mid - start, end - mid)
            damped += weight < 1.0
            result.op(math.isfinite(weight) and math.isfinite(value), "probe")
    history = outcome.history if cycle_s else np.zeros((0, wl.n_nodes))
    if cycle_s:
        _check_reputations(result, outcome.reputations, wl, ordered=True)
    return _SimPass(
        setup_s=setup_s,
        cycle_s=cycle_s,
        rates=rates,
        ref_s=ref_s,
        query_s=query_s,
        query_ref=[
            q / ref_s[i // (2 * len(pairs))] for i, q in enumerate(query_s)
        ],
        damped=damped,
        probes=len(query_s) // 2,
        history=history,
        request_share=outcome.colluder_request_share if cycle_s else math.nan,
    )


def _run_simulate(wl: Workload, seed: int, seconds: float) -> RunResult:
    result = RunResult()
    passes: list[_SimPass] = []
    deadline = perf_counter() + seconds
    while len(passes) < MIN_PASSES or perf_counter() < deadline:
        passes.append(_simulate_pass(wl, seed, len(passes), result))
        gc.collect()
    quality = passes[:MIN_PASSES]
    cycles = [c for p in passes for c in p.cycle_s]
    queries = [q for p in passes for q in p.query_s]
    refs = [r for p in passes for r in p.ref_s]
    result.metrics = {
        "setup_s": statistics.median(p.setup_s for p in passes),
        "cycle_p50_ref": statistics.median(
            c / r for p in passes for c, r in zip(p.cycle_s, p.ref_s)
        ),
        "query_p90_ref": _percentile([q for p in passes for q in p.query_ref], 90),
        "colluder_pairs_damped": sum(p.damped for p in quality)
        / max(1, sum(p.probes for p in quality)),
        "peak_rss_mib": _peak_rss_mib(),
    }
    result.info = {
        "cycle_p50_ms": statistics.median(cycles) * 1e3,
        "query_p99_ms": _percentile(queries, 99) * 1e3,
        "ref_chunk_us": statistics.median(refs) * 1e6,
        "run_s": statistics.median(p.run_s for p in passes),
        "capacity_ev_s": statistics.median(r for p in passes for r in p.rates),
        "query_p50_ms": _percentile(queries, 50) * 1e3,
        "colluder_share": statistics.fmean(p.request_share for p in quality),
    }
    return result


def _trace_simulate(wl: Workload, seed: int) -> RunResult:
    result = RunResult()
    with LayerTrace(frozenset(wl.colluders)) as trace:
        traced = _simulate_pass(wl, seed, 0, result, trace)
    gc.collect()
    plain = _simulate_pass(wl, seed, 0, result)
    result.op(
        np.array_equal(traced.history, plain.history),
        "traced and untraced reputations differ",
    )
    result.metrics = _layer_metrics(trace, traced.run_ref / plain.run_ref)
    result.missing_layers = trace.missing
    return result


# -- serve --------------------------------------------------------------------


def measured_intervals(seconds: float) -> int:
    """Reputation intervals in the timed part of a serve run of ``seconds``."""
    mutations_per_s = SERVE_RATE * QUERY_EVERY / (QUERY_EVERY + 1)
    return max(2, round(seconds * mutations_per_s / INTERVAL_EVENTS))


def make_stream(wl: Workload, seed: int, n_mutations: int) -> list[Any]:
    """The seeded serve stream: ``n_mutations`` mutations with a query after
    every :data:`QUERY_EVERY` of them (see the module constants for the mix).
    """
    rng = np.random.default_rng((seed, 0x5E))
    n = wl.n_nodes
    kind = rng.random(n_mutations)
    sources = rng.integers(0, n, size=n_mutations)
    targets = (sources + rng.integers(1, n, size=n_mutations)) % n
    negative = rng.random(n_mutations) < P_NEGATIVE
    interests = rng.integers(0, N_INTERESTS, size=n_mutations)
    pairs = wl.colluder_pairs()
    pair_pick = rng.integers(0, len(pairs), size=n_mutations)
    churn = rng.integers(0, n, size=(n_mutations // CHURN_EVERY + 1, CHURN_NODES))
    query_nodes = rng.integers(0, n, size=n_mutations // QUERY_EVERY + 1)
    query_pairs = rng.integers(0, len(pairs), size=n_mutations // QUERY_EVERY + 1)
    ops: list[Any] = []
    for i in range(n_mutations):
        src, dst = int(sources[i]), int(targets[i])
        if (i + 1) % CHURN_EVERY == 0:
            nodes = tuple(sorted({int(x) for x in churn[i // CHURN_EVERY]}))
            ops.append(ChurnEvent(nodes=nodes, factor=CHURN_FACTOR))
        elif kind[i] < P_BURST:
            rater, ratee = pairs[int(pair_pick[i])]
            ops.append(RatingEvent(rater, ratee, 1.0, count=BURST_COUNT))
        elif kind[i] < P_BURST + P_INTERACTION:
            ops.append(InteractionEvent(source=src, target=dst))
        else:
            value = -1.0 if negative[i] else 1.0
            ops.append(RatingEvent(src, dst, value, interest=int(interests[i])))
        if (i + 1) % QUERY_EVERY == 0:
            q = i // QUERY_EVERY
            if q % 2 == 0:
                ops.append(QueryRequest(node=int(query_nodes[q])))
            else:
                rater, ratee = pairs[int(query_pairs[q])]
                ops.append(QueryRequest(rater=rater, ratee=ratee))
    return ops


def _split_warmup(ops: list[Any]) -> int:
    """Index of the first op after the warm-up interval's last mutation
    (and the query that follows it)."""
    mutations = 0
    for index, op in enumerate(ops):
        if not isinstance(op, QueryRequest):
            mutations += 1
            if mutations == INTERVAL_EVENTS:
                end = index + 1
                if end < len(ops) and isinstance(ops[end], QueryRequest):
                    end += 1
                return end
    return len(ops)


def _apply(service: ReputationService, op: Any) -> Any:
    if isinstance(op, QueryRequest):
        return service.query(op)
    return service.apply(op)


def _answered(op: Any, answer: Any) -> bool:
    if not isinstance(op, QueryRequest):
        return True
    return (
        isinstance(answer, QueryResult)
        and isinstance(answer.value, float)
        and math.isfinite(answer.value)
    )


def _serve_setup(
    wl: Workload,
    seed: int,
    warmup: list[Any],
    result: RunResult,
    trace: LayerTrace | None = None,
) -> tuple[ReputationService, float]:
    """Build the service and run the warm-up interval closed-loop."""
    start = perf_counter()
    with _setup_span(trace):
        service = ReputationService(wl.spec(seed), interval_events=INTERVAL_EVENTS)
    for op in warmup:
        result.op(_answered(op, _apply(service, op)), "warm-up query unanswered")
    if trace is not None:
        trace.fold()
    return service, perf_counter() - start


@dataclass
class _ServePass:
    busy_s: float
    interval_busy_s: list[float]
    interval_ref_s: list[float]
    update_latency_s: list[float]
    query_latency_s: list[float]
    query_ref: list[float]
    damped: int
    pair_probes: int
    backlog_max: int
    lag_end_s: float
    history: np.ndarray

    @property
    def busy_ref(self) -> float:
        return sum(b / r for b, r in zip(self.interval_busy_s, self.interval_ref_s))


def _drive_open_loop(
    service: ReputationService,
    ops: list[Any],
    result: RunResult,
    trace: LayerTrace | None = None,
) -> _ServePass:
    """Apply ``ops`` at :data:`SERVE_RATE`, each timed from its due time.

    The generator spins until an op is due and never waits for the service:
    when an op runs late, every later op inherits the wait, so a stall shows
    in the latency of all operations queued behind it.  While it waits it
    times reference chunks; each interval's timings are also reported in
    units of that interval's median chunk time.
    """
    period = 1.0 / SERVE_RATE
    intervals_before = service.intervals_run
    busy = 0.0
    interval_busy = 0.0
    interval_busy_s: list[float] = []
    interval_ref_s: list[float] = []
    chunks: list[float] = []
    update_latency_s: list[float] = []
    query_latency_s: list[float] = []
    query_ref: list[float] = []
    interval_queries: list[float] = []
    damped = pair_probes = backlog_max = 0
    intervals = intervals_before
    t0 = perf_counter() + 1e-3
    due = start = t0
    for index, op in enumerate(ops):
        due = t0 + index * period
        now = perf_counter()
        if due - now > REF_SLACK_S:
            chunks.append(_ref_chunk_s())
            now = perf_counter()
        while now < due:
            now = perf_counter()
        start = now
        backlog_max = max(backlog_max, int((start - t0) * SERVE_RATE) - index)
        try:
            answer = _apply(service, op)
        except Exception as exc:
            result.op(False, f"op {index}: {exc!r}")
            continue
        end = perf_counter()
        busy += end - start
        interval_busy += end - start
        if isinstance(op, QueryRequest):
            query_latency_s.append(end - due)
            interval_queries.append(end - due)
            ok = _answered(op, answer)
            result.op(ok, f"query {index} unanswered")
            if ok and op.rater is not None:
                pair_probes += 1
                damped += answer.value < 1.0
        else:
            result.op()
            if service.intervals_run != intervals:
                intervals = service.intervals_run
                update_latency_s.append(end - due)
                interval_busy_s.append(interval_busy)
                interval_busy = 0.0
                ref = statistics.median(chunks) if chunks else _ref_s()
                interval_ref_s.append(ref)
                query_ref += (q / ref for q in interval_queries)
                chunks.clear()
                interval_queries.clear()
        if trace is not None and index % FOLD_EVERY == 0:
            trace.fold()
    if interval_queries:  # queries after the last watermark
        ref = interval_ref_s[-1] if interval_ref_s else _ref_s()
        query_ref += (q / ref for q in interval_queries)
    return _ServePass(
        busy_s=busy,
        interval_busy_s=interval_busy_s,
        interval_ref_s=interval_ref_s,
        update_latency_s=update_latency_s,
        query_latency_s=query_latency_s,
        query_ref=query_ref,
        damped=damped,
        pair_probes=pair_probes,
        backlog_max=backlog_max,
        lag_end_s=start - due,
        history=service.history[intervals_before:],
    )


def _check_serve(
    result: RunResult,
    service: ReputationService,
    wl: Workload,
    n_intervals: int,
    stats: _ServePass,
) -> None:
    result.op(
        service.intervals_run == n_intervals,
        f"ran {service.intervals_run} intervals, expected {n_intervals}",
    )
    result.op(stats.damped > 0, "no colluder pair was damped")
    _check_reputations(result, service.reputations, wl, ordered=False)


def _serve_inputs(wl: Workload, seed: int, seconds: float) -> tuple[list, list, int]:
    n_intervals = 1 + measured_intervals(seconds)
    ops = make_stream(wl, seed, n_intervals * INTERVAL_EVENTS)
    split = _split_warmup(ops)
    return ops[:split], ops[split:], n_intervals


def _run_serve(wl: Workload, seed: int, seconds: float) -> RunResult:
    result = RunResult()
    warmup, timed, n_intervals = _serve_inputs(wl, seed, seconds)
    setups: list[float] = []
    for _ in range(SERVE_SETUPS):
        service = None  # free the previous world before building the next
        gc.collect()
        service, setup_s = _serve_setup(wl, seed, warmup, result)
        setups.append(setup_s)
    stats = _drive_open_loop(service, timed, result)
    _check_serve(result, service, wl, n_intervals, stats)
    result.metrics = {
        "setup_s": statistics.median(setups),
        "cycle_p50_ref": statistics.median(
            b / r for b, r in zip(stats.interval_busy_s, stats.interval_ref_s)
        ),
        "query_p90_ref": _percentile(stats.query_ref, 90),
        "colluder_pairs_damped": stats.damped / max(1, stats.pair_probes),
        "peak_rss_mib": _peak_rss_mib(),
    }
    result.info = {
        "cycle_p50_ms": statistics.median(stats.interval_busy_s) * 1e3,
        "query_p99_ms": _percentile(stats.query_latency_s, 99) * 1e3,
        "ref_chunk_us": statistics.median(stats.interval_ref_s) * 1e6,
        "run_s": stats.busy_s,
        "capacity_ev_s": INTERVAL_EVENTS / statistics.median(stats.interval_busy_s),
        "query_p50_ms": _percentile(stats.query_latency_s, 50) * 1e3,
        "colluder_reputation_share": _colluder_share(stats.history, wl.colluders),
        "update_latency_p50_ms": statistics.median(stats.update_latency_s) * 1e3,
    }
    return result


def _trace_serve(wl: Workload, seed: int, seconds: float) -> RunResult:
    result = RunResult()
    warmup, timed, n_intervals = _serve_inputs(wl, seed, seconds)
    with LayerTrace(frozenset(wl.colluders)) as trace:
        service, _ = _serve_setup(wl, seed, warmup, result, trace)
        traced = _drive_open_loop(service, timed, result, trace)
    _check_serve(result, service, wl, n_intervals, traced)
    traced_history = service.history
    service = None
    gc.collect()
    service, _ = _serve_setup(wl, seed, warmup, result)
    plain = _drive_open_loop(service, timed, result)
    result.op(
        np.array_equal(traced_history, service.history),
        "traced and untraced reputations differ",
    )
    metrics = _layer_metrics(trace, traced.busy_ref / plain.busy_ref)
    metrics["serve.backlog_max_events"] = traced.backlog_max
    metrics["loadgen.lag_end_ms"] = traced.lag_end_s * 1e3
    result.metrics = metrics
    result.missing_layers = trace.missing
    return result


# -- entry point --------------------------------------------------------------


def _layer_metrics(trace: LayerTrace, overhead_ratio: float) -> dict[str, float]:
    measured = trace.metrics()
    metrics = {name: float(measured.get(name, 0.0)) for name, _ in PER_LAYER}
    metrics["trace.overhead_ratio"] = overhead_ratio
    return metrics


def run_workload(wl: Workload, seed: int, seconds: float, traced: bool) -> RunResult:
    """Run one workload; ``traced`` selects the per-layer run."""
    if wl.mode == "serve":
        return _trace_serve(wl, seed, seconds) if traced else _run_serve(
            wl, seed, seconds
        )
    return _trace_simulate(wl, seed) if traced else _run_simulate(wl, seed, seconds)
