"""Stable, typed, versioned facade over the simulation stack.

Before this module existed, every entry point — ``examples/quickstart.py``,
``examples/reproduce_paper.py``, the CLI — hand-wired the same dozen
objects (population, overlay, social network, ledgers, reputation stack,
collusion schedule, simulator).  The facade collapses that wiring into
one value and one call:

>>> from repro.api import ScenarioSpec, build_scenario
>>> spec = ScenarioSpec.from_build(
...     {"system": "EigenTrust+SocialTrust", "collusion": "pcm",
...      "n_nodes": 100, "n_colluders": 20, "simulation_cycles": 15},
...     seed=42,
... )
>>> result = build_scenario(spec).run()  # doctest: +SKIP
>>> print(result.summary())              # doctest: +SKIP

A :class:`ScenarioSpec` is the only way in: a frozen value naming the
reputation system, the collusion model, the RNG identity
``(seed, run_index)`` and any :class:`~repro.experiments.setup.WorldConfig`
overrides.  It is hashable and JSON-round-trippable
(:meth:`ScenarioSpec.to_dict` / :meth:`ScenarioSpec.from_dict`).  Golden
traces, checkpoints and the streaming service all describe scenarios
through the spec's flat build-keyword form
(:meth:`ScenarioSpec.build_kwargs` / :meth:`ScenarioSpec.from_build`), so
one self-describing contract covers every persisted artifact.

:func:`run_scenario` builds and runs in one step, and
:class:`ScenarioResult` bundles the reputations, history, metrics, and
per-group summaries a caller typically prints.  Registered table/figure
experiments stay reachable through :func:`list_experiments` /
:func:`run_experiment`.  The event types of the streaming service
(:class:`~repro.serve.events.RatingEvent` and friends) are re-exported
here so ``repro.api`` is the one import a service client needs.

:data:`API_VERSION` names this surface; it is bumped on any breaking
change so downstream callers can assert compatibility explicitly.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import os
from dataclasses import dataclass, field, fields, replace
from types import MappingProxyType
from typing import Any, Mapping

import numpy as np

from repro.experiments.registry import get_experiment, list_experiments
from repro.experiments.setup import (
    BuiltWorld,
    CollusionKind,
    SystemKind,
    WorldConfig,
    build_world,
)
from repro.obs import Observability
from repro.p2p import MetricsCollector, Simulation

__all__ = [
    "API_VERSION",
    "Scenario",
    "ScenarioResult",
    "ScenarioSpec",
    "SystemKind",
    "CollusionKind",
    "build_scenario",
    "run_scenario",
    "list_experiments",
    "run_experiment",
]

#: Version of the public scenario/event surface (``major.minor``): the
#: minor bumps on compatible additions, the major on breaking changes.
#: 2.0 introduced :class:`ScenarioSpec`, the typed :func:`run_scenario`
#: signature, and the streaming-service event types.  3.0 removed the
#: ``engine`` world field and its enum from ``repro.p2p``: the batched
#: query-cycle engine is the only production engine.  4.0 made the spec
#: the only input of :func:`build_scenario` / :func:`run_scenario`: the
#: scenario keyword bag and its deprecated aliases are gone.  5.0 removed
#: the sparse coefficient core together with the three ``socialtrust``
#: keys that chose and tuned it (core, top-k truncation, rebuild interval).
API_VERSION = "5.0"

#: Memory model of a built world: an interpreter-and-libraries floor plus
#: the bytes per node pair held by its ``n x n`` state (interaction
#: ledger, Ωc/Ωs caches and terms, detector masks, interval aggregates).
#: It estimates 354 MiB at n = 1000 and 1178 MiB at n = 2000; a 5-cycle
#: EigenTrust+SocialTrust PCM run peaks at 339 and 1165 MiB.
_STATE_FLOOR_BYTES = 79 * 2**20
_STATE_BYTES_PER_PAIR = 288


def _estimate_state_bytes(n_nodes: int) -> int:
    """Estimated peak memory, in bytes, of a world with ``n_nodes`` nodes."""
    return _STATE_FLOOR_BYTES + _STATE_BYTES_PER_PAIR * n_nodes * n_nodes


def _physical_memory_bytes() -> int | None:
    """Physical memory of this machine (``None`` where it cannot be read)."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return None


def _check_memory(n_nodes: int) -> None:
    """Refuse a world whose estimated state exceeds physical memory, before
    anything of it is allocated."""
    need = _estimate_state_bytes(n_nodes)
    limit = _physical_memory_bytes()
    if limit is not None and need > limit:
        raise ValueError(
            f"n_nodes={n_nodes} needs an estimated {need / 2**20:,.0f} MiB "
            f"of n x n state, more than the {limit / 2**20:,.0f} MiB of "
            f"physical memory"
        )


def _canon(label: str) -> str:
    """Case/punctuation-insensitive key for enum lookup by string."""
    return "".join(ch for ch in label.lower() if ch.isalnum())


_SYSTEM_BY_NAME = {
    _canon(label): kind
    for kind in SystemKind
    for label in (kind.value, kind.name)
}
_COLLUSION_BY_NAME = {
    _canon(label): kind
    for kind in CollusionKind
    for label in (kind.value, kind.name)
}


def _resolve_system(system: SystemKind | str) -> SystemKind:
    if isinstance(system, str):
        try:
            return _SYSTEM_BY_NAME[_canon(system)]
        except KeyError:
            options = sorted({kind.value for kind in SystemKind})
            raise ValueError(
                f"unknown reputation system {system!r}; choose from {options}"
            ) from None
    return system


def _resolve_collusion(collusion: CollusionKind | str) -> CollusionKind:
    if isinstance(collusion, str):
        try:
            return _COLLUSION_BY_NAME[_canon(collusion)]
        except KeyError:
            options = sorted({kind.value for kind in CollusionKind})
            raise ValueError(
                f"unknown collusion model {collusion!r}; choose from {options}"
            ) from None
    return collusion


@dataclass(frozen=True)
class ScenarioResult:
    """Everything a finished scenario run typically gets asked for.

    Wraps the raw :class:`~repro.p2p.MetricsCollector` (still available as
    :attr:`metrics`) with the final reputation vector, the per-interval
    reputation history, and per-group convenience summaries.
    """

    config: WorldConfig
    seed: int
    run_index: int
    world: BuiltWorld
    metrics: MetricsCollector
    #: Final reputation vector (one entry per node).
    reputations: np.ndarray
    #: Reputation snapshots, shape ``(n_intervals, n_nodes)``.
    history: np.ndarray
    #: The run's tracer/metrics/audit bundle (None unless the scenario was
    #: built with ``observability=...``); see :mod:`repro.obs`.
    observability: Observability | None = None

    @property
    def colluder_ids(self) -> tuple[int, ...]:
        return self.config.colluder_ids

    @property
    def pretrusted_ids(self) -> tuple[int, ...]:
        return self.config.pretrusted_ids

    @property
    def normal_ids(self) -> tuple[int, ...]:
        return self.config.normal_ids

    def _group_mean(self, ids: tuple[int, ...]) -> float:
        if not ids:
            return float("nan")
        return float(self.reputations[list(ids)].mean())

    @property
    def colluder_mean(self) -> float:
        """Mean final reputation over the colluders (NaN when none)."""
        return self._group_mean(self.colluder_ids)

    @property
    def pretrusted_mean(self) -> float:
        """Mean final reputation over the pre-trusted nodes (NaN when none)."""
        return self._group_mean(self.pretrusted_ids)

    @property
    def normal_mean(self) -> float:
        """Mean final reputation over the normal nodes (NaN when none)."""
        return self._group_mean(self.normal_ids)

    @property
    def colluder_request_share(self) -> float:
        """Fraction of served requests captured by the colluders."""
        return self.metrics.fraction_served_by(list(self.colluder_ids))

    def summary(self) -> str:
        """Printable multi-line digest of the run."""
        cfg = self.config
        lines = [
            f"{cfg.system.value} | collusion={cfg.collusion.value} | "
            f"n={cfg.n_nodes} | seed={self.seed} run={self.run_index}",
            f"  cycles run               : {self.metrics.n_snapshots}",
            f"  colluder mean reputation : {self.colluder_mean:.5f}",
            f"  normal   mean reputation : {self.normal_mean:.5f}",
            f"  pretrusted mean reputation: {self.pretrusted_mean:.5f}",
            f"  requests captured by colluders: {self.colluder_request_share:.1%}",
        ]
        return "\n".join(lines)


@dataclass(frozen=True)
class Scenario:
    """A fully wired, not-yet-run simulation world.

    Produced by :func:`build_scenario`; call :meth:`run` to execute it.
    The underlying :class:`~repro.experiments.setup.BuiltWorld` stays
    reachable through :attr:`world` for callers that need the raw parts.
    """

    config: WorldConfig
    seed: int
    run_index: int
    world: BuiltWorld

    @property
    def simulation(self) -> Simulation:
        return self.world.simulation

    @property
    def observability(self) -> Observability | None:
        return self.world.observability

    def run(self, simulation_cycles: int | None = None) -> ScenarioResult:
        """Run the simulation (optionally overriding the cycle count)."""
        self.world.simulation.run(simulation_cycles)
        return self.result()

    def result(self) -> ScenarioResult:
        """The result of the cycles run so far.

        :meth:`run` ends with this; a caller that drives the simulation
        cycle by cycle (to checkpoint between cycles, say) calls it when
        done.
        """
        metrics = self.world.simulation.metrics
        return ScenarioResult(
            config=self.config,
            seed=self.seed,
            run_index=self.run_index,
            world=self.world,
            metrics=metrics,
            reputations=metrics.final_reputations(),
            history=metrics.reputation_history(),
            observability=self.world.observability,
        )


#: WorldConfig fields a ScenarioSpec may override (system/collusion are
#: first-class spec fields, not world overrides).
_WORLD_FIELDS = frozenset(f.name for f in fields(WorldConfig)) - {
    "system",
    "collusion",
}


def _json_default(value: Any) -> Any:
    """Canonical JSON form of the non-JSON values a world may carry."""
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    raise TypeError(
        f"ScenarioSpec.world value {value!r} has no JSON form"
    )


@dataclass(frozen=True, eq=False)
class ScenarioSpec:
    """Typed, immutable, serialisable description of one scenario.

    A spec is the only input of :func:`build_scenario` /
    :func:`run_scenario`: which reputation ``system`` to run, which
    ``collusion`` model to schedule, the RNG identity
    ``(seed, run_index)``, and any
    :class:`~repro.experiments.setup.WorldConfig` overrides in ``world``
    (keyed by field name, e.g. ``{"n_nodes": 100, "n_colluders": 15}``).

    ``system`` and ``collusion`` accept strings and are resolved to their
    enum members on construction; ``world`` is validated against the
    WorldConfig field set and frozen behind a read-only mapping, so a
    constructed spec is always well-formed.  Specs round-trip through
    plain JSON dicts (:meth:`to_dict` / :meth:`from_dict`), which is how
    recorded event streams and service checkpoints carry their scenario
    identity.  Equality and hashing go through the canonical JSON form
    of :meth:`to_dict`, so a spec equals (and hashes like) its own JSON
    round trip: a tuple world value and the list JSON returns for it
    compare equal, and dict-valued fields (``socialtrust``, ``chaos``,
    ``faults``) hash.

    >>> spec = ScenarioSpec.from_build(
    ...     {"system": "EigenTrust+SocialTrust", "collusion": "pcm",
    ...      "n_nodes": 50, "n_colluders": 10},
    ...     seed=7,
    ... )
    >>> spec == ScenarioSpec.from_dict(spec.to_dict())
    True
    """

    system: SystemKind = SystemKind.EIGENTRUST
    collusion: CollusionKind = CollusionKind.NONE
    seed: int = 0
    run_index: int = 0
    world: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "system", _resolve_system(self.system))
        object.__setattr__(
            self, "collusion", _resolve_collusion(self.collusion)
        )
        world = dict(self.world)
        unknown = sorted(set(world) - _WORLD_FIELDS)
        if unknown:
            raise ValueError(
                f"ScenarioSpec.world got unknown WorldConfig field(s) "
                f"{unknown}; valid fields: {sorted(_WORLD_FIELDS)}"
            )
        object.__setattr__(self, "world", MappingProxyType(world))

    def _canonical(self) -> str:
        return json.dumps(
            self.to_dict(),
            sort_keys=True,
            separators=(",", ":"),
            default=_json_default,
        )

    def __hash__(self) -> int:
        return hash(self._canonical())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScenarioSpec):
            return NotImplemented
        return self._canonical() == other._canonical()

    @classmethod
    def from_build(
        cls,
        build: Mapping[str, Any],
        *,
        seed: int = 0,
        run_index: int = 0,
    ) -> "ScenarioSpec":
        """Build a spec from a flat build-keyword mapping.

        ``build`` is the shape golden traces and checkpoint headers use:
        WorldConfig fields plus optional ``system`` / ``collusion`` keys
        (enum members or their string names), e.g.
        ``{"system": "eBay+SocialTrust", "collusion": "mcm",
        "n_nodes": 30}``.
        """
        build = dict(build)
        return cls(
            system=build.pop("system", SystemKind.EIGENTRUST),
            collusion=build.pop("collusion", CollusionKind.NONE),
            seed=seed,
            run_index=run_index,
            world=build,
        )

    def build_kwargs(self) -> dict[str, Any]:
        """Flat build mapping (inverse of :meth:`from_build`).

        Enum values come back as their string names, so the result is
        JSON-safe and matches the golden-trace / checkpoint header shape.
        """
        out: dict[str, Any] = {
            "system": self.system.value,
            "collusion": self.collusion.value,
        }
        out.update(self.world)
        return out

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict: ``{system, collusion, seed, run_index, world}``."""
        return {
            "system": self.system.value,
            "collusion": self.collusion.value,
            "seed": self.seed,
            "run_index": self.run_index,
            "world": dict(self.world),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict` (unknown keys rejected)."""
        data = dict(data)
        unknown = sorted(
            set(data) - {"system", "collusion", "seed", "run_index", "world"}
        )
        if unknown:
            raise ValueError(f"ScenarioSpec.from_dict: unknown key(s) {unknown}")
        return cls(
            system=data.get("system", SystemKind.EIGENTRUST),
            collusion=data.get("collusion", CollusionKind.NONE),
            seed=int(data.get("seed", 0)),
            run_index=int(data.get("run_index", 0)),
            world=data.get("world", {}),
        )

    def with_updates(self, **changes: Any) -> "ScenarioSpec":
        """Copy of this spec with field- or world-level overrides.

        Spec fields (``system``, ``collusion``, ``seed``, ``run_index``,
        ``world``) replace wholesale; any other keyword is treated as a
        WorldConfig override merged into :attr:`world`.
        """
        spec_fields = {"system", "collusion", "seed", "run_index", "world"}
        direct = {k: v for k, v in changes.items() if k in spec_fields}
        world_updates = {k: v for k, v in changes.items() if k not in spec_fields}
        world = dict(direct.pop("world", self.world))
        world.update(world_updates)
        return replace(self, world=world, **direct)


def _require_spec(caller: str, spec: Any, unexpected: Mapping[str, Any]) -> None:
    """Refuse anything but ``(spec, observability=...)``."""
    if isinstance(spec, ScenarioSpec) and not unexpected:
        return
    got = (
        f"keyword(s) {sorted(unexpected)}"
        if unexpected
        else f"{type(spec).__name__} where a ScenarioSpec belongs"
    )
    raise TypeError(
        f"{caller}() takes a ScenarioSpec and an optional observability=, "
        f"got {got}; describe the scenario with "
        f"ScenarioSpec.from_build({{...}}, seed=..., run_index=...)"
    )


def build_scenario(
    spec: ScenarioSpec | None = None,
    *,
    observability: bool | Observability | None = None,
    **unexpected: Any,
) -> Scenario:
    """Build one fully wired scenario from a :class:`ScenarioSpec`.

    ``observability=True`` (or a pre-built :class:`~repro.obs.Observability`)
    attaches span tracing, the metrics registry and the detector audit
    log; the bundle comes back on :attr:`Scenario.observability` /
    :attr:`ScenarioResult.observability`.  The spec's ``(seed,
    run_index)`` key the RNG streams exactly as
    :func:`~repro.experiments.setup.build_world` does.  A world whose
    estimated ``n x n`` state exceeds physical memory raises
    :class:`ValueError` before anything is built.  Any other argument
    raises :class:`TypeError`.
    """
    _require_spec("build_scenario", spec, unexpected)
    if observability is True:
        obs: Observability | None = Observability()
    elif observability is False:
        obs = None
    else:
        obs = observability
    config = WorldConfig(
        system=spec.system, collusion=spec.collusion, **spec.world
    )
    _check_memory(config.n_nodes)
    world = build_world(
        config, seed=spec.seed, run_index=spec.run_index, observability=obs
    )
    return Scenario(
        config=config, seed=spec.seed, run_index=spec.run_index, world=world
    )


def run_scenario(
    spec: ScenarioSpec | None = None,
    *,
    observability: bool | Observability | None = None,
    **unexpected: Any,
) -> ScenarioResult:
    """Build and run a scenario in one call.

    Takes exactly what :func:`build_scenario` takes, then runs the world
    for the spec's ``simulation_cycles``.
    """
    _require_spec("run_scenario", spec, unexpected)
    return build_scenario(spec, observability=observability).run()


def run_experiment(experiment_id: str, **kwargs):
    """Run one registered table/figure experiment and return its result.

    Thin wrapper over the :mod:`repro.experiments.registry` lookup so the
    CLI and the reproduction script share a single audited entry point;
    ``kwargs`` (``n_runs``, ``simulation_cycles``, ``seed``, ...) are
    forwarded to the experiment callable.
    """
    return get_experiment(experiment_id)(**kwargs)


# The streaming-service event surface is part of the public API.  The
# event module is a leaf (it never imports repro.api), so this import is
# cycle-safe in both directions; ReputationService lives higher in the
# stack and is re-exported lazily below.
from repro.serve.events import (  # noqa: E402
    ChurnEvent,
    InteractionEvent,
    QueryRequest,
    QueryResult,
    RatingEvent,
    WatermarkEvent,
)

__all__ += [
    "RatingEvent",
    "InteractionEvent",
    "ChurnEvent",
    "WatermarkEvent",
    "QueryRequest",
    "QueryResult",
    "ReputationService",
]


def __getattr__(name: str):
    # Lazy so that `import repro.serve` → `import repro.api` doesn't
    # recurse back into the partially initialised serve package.
    if name == "ReputationService":
        from repro.serve.service import ReputationService

        return ReputationService
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
