"""Reconvergence harness: inject chaos, heal, measure recovery.

For every reputation backend the harness runs two structurally identical
worlds from the same seed — one fault-free, one with a scripted
:class:`~repro.chaos.ChaosSpec` — and tracks the per-cycle reputation
error between them.  During the fault window the error is allowed to
grow arbitrarily; the assertion is about what happens *after the last
heal*: the error must drop below ``tolerance`` within ``budget`` cycles
and stay there for the rest of the run.

The error metric is the **max group-mean error** — the largest
``|mean(chaos[g]) − mean(ref[g])|`` over the world's node groups
(colluders / pre-trusted / normal) with at least
:data:`MIN_GROUP_SIZE` members.  Per-node error cannot be the criterion:
the fault window changes which requests happen, so the two runs' RNG
streams permanently diverge and individual trajectories never re-align —
what recovers after the heal is the aggregate fixed point (colluder
containment, normal-node reputation mass), and that is exactly what the
groups measure.  Tiny groups are excluded because a 2-node mean carries
irreducible sampling noise.

That is the checkable core of the convergence results for decentralised
trust aggregation (see PAPERS.md — Awasthi & Singh's analysis bounds the
post-perturbation convergence of iterative trust propagation): once the
perturbation stops, repeated aggregation contracts back toward the
unperturbed fixed point.  The harness does not assume a rate — it
measures one and enforces a budget.

Byzantine windows only exist where resource managers do, so for backends
without a SocialTrust wrapper (TrustGuard, GossipTrust) the spec's
Byzantine events are dropped and only the partition windows apply; the
per-backend result records which spec actually ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.chaos.spec import ChaosSpec
from repro.qa.differential import BACKENDS, _SMALL_WORLD, _cell_spec

__all__ = [
    "MIN_GROUP_SIZE",
    "ReconvergenceResult",
    "ReconvergenceReport",
    "run_reconvergence",
]

#: Node groups smaller than this are excluded from the error metric.
MIN_GROUP_SIZE = 3


@dataclass(frozen=True)
class ReconvergenceResult:
    """Recovery measurement for one backend."""

    backend: str
    system_name: str
    #: The spec this cell actually ran (Byzantine windows stripped for
    #: unwrapped backends).
    chaos: dict[str, Any]
    #: Cycle index (0-based) of the last scripted heal.
    heal_cycle: int
    #: Max group-mean reputation error per cycle (see module docstring).
    error_series: tuple[float, ...]
    #: Peak error during/after the fault window (evidence the chaos bit).
    peak_error: float
    #: Cycles after the heal until the error drops below tolerance and
    #: stays there; ``None`` if it never does within the run.
    cycles_to_reconverge: int | None
    tolerance: float
    budget: int

    @property
    def ok(self) -> bool:
        return (
            self.cycles_to_reconverge is not None
            and self.cycles_to_reconverge <= self.budget
        )


@dataclass
class ReconvergenceReport:
    """Outcome of one reconvergence sweep."""

    seed: int
    cycles: int
    chaos: dict[str, Any]
    tolerance: float
    budget: int
    results: list[ReconvergenceResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    def summary(self) -> str:
        lines = [
            f"reconvergence run: seed={self.seed} cycles={self.cycles} "
            f"tolerance={self.tolerance} budget={self.budget}"
        ]
        for r in self.results:
            took = (
                f"{r.cycles_to_reconverge} cycle(s) after heal"
                if r.cycles_to_reconverge is not None
                else "NEVER"
            )
            status = "ok" if r.ok else "FAILED"
            lines.append(
                f"  {r.backend:<11} {r.system_name:<28} peak={r.peak_error:.4f} "
                f"reconverged in {took} [{status}]"
            )
        lines.append(
            "result: " + ("ALL BACKENDS RECONVERGED" if self.ok else "RECOVERY FAILED")
        )
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (the CI artifact)."""
        return {
            "seed": self.seed,
            "cycles": self.cycles,
            "chaos": self.chaos,
            "tolerance": self.tolerance,
            "budget": self.budget,
            "ok": self.ok,
            "results": [
                {
                    "backend": r.backend,
                    "system": r.system_name,
                    "chaos": r.chaos,
                    "heal_cycle": r.heal_cycle,
                    "peak_error": r.peak_error,
                    "cycles_to_reconverge": r.cycles_to_reconverge,
                    "ok": r.ok,
                    "error_series": list(r.error_series),
                }
                for r in self.results
            ],
        }


def _last_heal_cycle(spec: ChaosSpec, cycles: int) -> int:
    """0-based cycle index by which every scripted fault has healed."""
    heal = 0
    for p in spec.partitions:
        heal = max(heal, p.heal_cycle)
    for b in spec.byzantines:
        heal = max(heal, b.heal_cycle if b.heal_cycle is not None else cycles)
    return heal


def _group_error_series(
    reference_history: np.ndarray,
    chaos_history: np.ndarray,
    groups: Sequence[Sequence[int]],
) -> np.ndarray:
    """Per-cycle max over groups of |Δ group-mean reputation|."""
    if reference_history.shape != chaos_history.shape:
        raise ValueError(
            f"history shapes differ: {reference_history.shape} vs "
            f"{chaos_history.shape}"
        )
    eligible = [list(g) for g in groups if len(g) >= MIN_GROUP_SIZE]
    if not eligible:
        raise ValueError(
            f"no node group has >= {MIN_GROUP_SIZE} members; the error "
            "metric needs at least one aggregate to track"
        )
    per_group = [
        np.abs(
            reference_history[:, ids].mean(axis=1)
            - chaos_history[:, ids].mean(axis=1)
        )
        for ids in eligible
    ]
    return np.max(per_group, axis=0)


def _cycles_to_reconverge(
    errors: np.ndarray, heal_cycle: int, tolerance: float
) -> int | None:
    """Cycles past ``heal_cycle`` until ``errors`` stays below tolerance."""
    below = errors < tolerance
    # Snapshot t covers cycle t (0-based); recovery can begin at the heal
    # cycle itself (the heal event applies before that cycle's queries).
    start = min(heal_cycle, errors.size)
    above = np.flatnonzero(~below[start:])
    if above.size == 0:
        return 0
    first = int(above[-1]) + 1
    if start + first >= errors.size:
        return None
    return first


def run_reconvergence(
    *,
    seed: int = 0,
    cycles: int = 12,
    chaos: ChaosSpec | dict[str, Any] | None = None,
    tolerance: float = 0.02,
    budget: int = 5,
    n_managers: int = 3,
    backends: Sequence[str] = BACKENDS,
    **overrides: Any,
) -> ReconvergenceReport:
    """Measure post-chaos recovery for every backend.

    Each backend runs a fault-free reference and a chaos twin from the
    same seed (same world, same RNG streams — the chaos events are the
    *only* difference) for ``cycles`` simulation cycles; ``overrides``
    are WorldConfig fields merged into each cell's
    :class:`~repro.api.ScenarioSpec`.  The default
    ``chaos`` is one mid-run partition window plus a Byzantine window on
    every one of the ``n_managers`` managers, all healing together.
    """
    from repro.api import build_scenario

    if n_managers < 1:
        raise ValueError(f"n_managers must be >= 1, got {n_managers}")
    if chaos is None:
        third = max(1, cycles // 3)
        spec = ChaosSpec.from_dict(
            {
                "partitions": [{"start_cycle": third, "heal_cycle": 2 * third}],
                "byzantines": [
                    {"manager_id": m, "start_cycle": third, "heal_cycle": 2 * third}
                    for m in range(n_managers)
                ],
            }
        )
    elif isinstance(chaos, dict):
        spec = ChaosSpec.from_dict(chaos)
    else:
        spec = chaos
    if spec.empty:
        raise ValueError("chaos spec is empty; nothing to reconverge from")
    heal = _last_heal_cycle(spec, cycles)
    if heal >= cycles:
        raise ValueError(
            f"last heal at cycle {heal} but the run only has {cycles} cycles"
        )
    unknown = sorted(set(backends) - set(BACKENDS))
    if unknown:
        raise ValueError(f"unknown backend(s) {unknown}; choose from {BACKENDS}")

    build: dict[str, Any] = {
        **_SMALL_WORLD,
        "simulation_cycles": cycles,
        "collusion": "pcm",
        **overrides,
    }
    report = ReconvergenceReport(
        seed=seed,
        cycles=cycles,
        chaos=spec.to_dict(),
        tolerance=tolerance,
        budget=budget,
    )
    for backend in backends:
        cell = _cell_spec(backend, build, seed)
        wrap = cell.system.uses_socialtrust
        cell_chaos = spec if wrap else ChaosSpec(partitions=spec.partitions)
        if cell_chaos.empty:
            raise ValueError(
                f"backend {backend!r} has no SocialTrust managers and the "
                "spec has no partition windows; nothing applies to it"
            )
        if wrap and "n_managers" not in build:
            cell = cell.with_updates(
                n_managers=max(
                    n_managers,
                    max((b.manager_id + 1 for b in cell_chaos.byzantines), default=0),
                )
            )
        reference = build_scenario(cell).run(cycles)
        chaotic = build_scenario(
            cell.with_updates(chaos=cell_chaos.to_dict())
        ).run(cycles)
        errors = _group_error_series(
            reference.history,
            chaotic.history,
            (
                reference.colluder_ids,
                reference.pretrusted_ids,
                reference.normal_ids,
            ),
        )
        cell_heal = _last_heal_cycle(cell_chaos, cycles)
        report.results.append(
            ReconvergenceResult(
                backend=backend,
                system_name=chaotic.world.system.name,
                chaos=cell_chaos.to_dict(),
                heal_cycle=cell_heal,
                error_series=tuple(float(e) for e in errors),
                peak_error=float(errors.max()) if errors.size else 0.0,
                cycles_to_reconverge=_cycles_to_reconverge(
                    errors, cell_heal, tolerance
                ),
                tolerance=tolerance,
                budget=budget,
            )
        )
    return report
