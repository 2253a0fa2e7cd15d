"""Golden-trace recorder and checker.

A *golden trace* freezes everything a scenario run decides along the way —
the per-cycle reputation vectors, the detector's derived thresholds and
per-pair findings (behaviour classes, Ωc/Ωs evidence, Gaussian damping
weight), and SHA-256 digests of the full Ωc/Ωs matrices — into one JSONL
file small enough to check in.  Replaying the same build keywords with the
same seed must reproduce the trace; :func:`diff_traces` compares a replay
against the golden in two modes:

* **strict** — bit-identical: floats compare exactly (JSON round-trips
  IEEE-754 doubles losslessly) and the matrix digests must match byte for
  byte.  This is the mode for same-machine regression: any divergence
  means a numerical behaviour change, deliberate or not.
* **tolerance** — floats compare within ``rtol``/``atol`` and digests are
  ignored (matrix *summary statistics* still compare).  This is the mode
  for cross-platform checks, where a different BLAS may legally reorder
  reductions.

The differ reports the first divergence in human-readable form (which
cycle, which field, both values) so a failed golden check reads like a
code-review comment, not a wall of floats.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.detector import DetectionResult, SuspicionReason

__all__ = [
    "FORMAT_VERSION",
    "GoldenScenario",
    "Divergence",
    "TraceDiff",
    "record_cycles",
    "record_trace",
    "write_trace",
    "load_trace",
    "diff_traces",
    "check_golden",
]

#: Bumped whenever the trace layout changes incompatibly; the checker
#: refuses to compare across versions instead of reporting noise.
FORMAT_VERSION = 1


@dataclass(frozen=True)
class GoldenScenario:
    """One recordable scenario: a name, build keywords, and a run length.

    ``build`` holds the JSON-serializable flat build mapping of a
    :class:`repro.api.ScenarioSpec` (system/collusion as strings, sizes
    as ints; see :meth:`~repro.api.ScenarioSpec.from_build`) so the
    scenario can be reconstructed from the trace header alone — a golden
    file is self-describing.
    """

    name: str
    build: dict[str, Any]
    cycles: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.cycles < 1:
            raise ValueError(f"cycles must be >= 1, got {self.cycles}")

    @property
    def filename(self) -> str:
        return f"{self.name}.jsonl"


def _matrix_digest(matrix: np.ndarray) -> dict[str, Any]:
    """Compact fingerprint of a dense matrix: exact digest + summary stats.

    The SHA-256 over the raw float64 bytes carries the strict-mode
    bit-identity check; the summary statistics carry the tolerance-mode
    check (and give the divergence report something human-readable).
    """
    contiguous = np.ascontiguousarray(matrix, dtype=np.float64)
    return {
        "sha256": hashlib.sha256(contiguous.tobytes()).hexdigest(),
        "sum": float(contiguous.sum()),
        "max": float(contiguous.max()) if contiguous.size else 0.0,
        "nonzeros": int(np.count_nonzero(contiguous)),
    }


def _reason_names(reasons: SuspicionReason) -> list[str]:
    return [flag.name for flag in SuspicionReason if flag in reasons]


def _detector_entry(result: DetectionResult) -> dict[str, Any]:
    thresholds = result.thresholds
    return {
        "thresholds": {
            "T+": thresholds.pos_frequency,
            "T-": thresholds.neg_frequency,
            "TR": thresholds.low_reputation,
            "Tcl": thresholds.closeness_low,
            "Tch": thresholds.closeness_high,
            "Tsl": thresholds.similarity_low,
            "Tsh": thresholds.similarity_high,
        },
        "findings": [
            {
                "rater": finding.rater,
                "ratee": finding.ratee,
                "reasons": _reason_names(finding.reasons),
                "closeness": finding.closeness,
                "similarity": finding.similarity,
                "weight": finding.weight,
            }
            for finding in result.findings
        ],
    }


def _json_safe(value: Any) -> Any:
    """JSON cannot carry inf/nan portably; encode them as tagged strings."""
    if isinstance(value, float) and not math.isfinite(value):
        return {"__float__": repr(value)}
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _json_restore(value: Any) -> Any:
    if isinstance(value, dict):
        if set(value) == {"__float__"}:
            return float(value["__float__"])
        return {k: _json_restore(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_json_restore(v) for v in value]
    return value


def record_cycles(simulation, cycles: int) -> list[dict[str, Any]]:
    """Drive ``simulation`` for ``cycles`` more cycles, capturing one trace
    entry per cycle (cycle numbers continue from ``simulation.cycles_run``).

    The per-cycle capture of :func:`record_trace`, exposed separately so
    the chaos kill-and-resume tests can record an *already running* (or
    freshly resumed) simulation and strict-diff the pieces.  SocialTrust
    detail (detector decisions, Ωc/Ωs digests) is captured for both the
    centralised wrapper and the distributed manager execution — anything
    exposing ``last_detection``.
    """
    system = simulation.system
    social = system if hasattr(system, "last_detection") else None
    lines: list[dict[str, Any]] = []
    for _ in range(cycles):
        cycle = simulation.cycles_run
        reputations = simulation.run_simulation_cycle()
        entry: dict[str, Any] = {
            "type": "cycle",
            "cycle": cycle,
            "reputations": [float(x) for x in reputations],
        }
        if social is not None:
            result = social.last_detection
            assert result is not None  # update() ran this cycle
            entry["detector"] = _detector_entry(result)
            entry["omega_c"] = _matrix_digest(
                social.closeness_computer.closeness_matrix()
            )
            entry["omega_s"] = _matrix_digest(
                social.similarity_computer.similarity_matrix()
            )
        lines.append(entry)
    return lines


def record_trace(scenario: GoldenScenario) -> list[dict[str, Any]]:
    """Run ``scenario`` from scratch and return its trace lines.

    The scenario is rebuilt via the public facade, then driven one
    simulation cycle at a time so every intermediate decision can be
    captured: the post-update reputation vector, the SocialTrust
    detector's thresholds/findings/damping weights, and digests of the
    exact Ωc/Ωs matrices the detector consumed.
    """
    # Imported here, not at module top: repro.api imports the full
    # simulation stack, and the differ half of this module must stay
    # importable in contexts that only read/compare traces.
    from repro.api import ScenarioSpec, build_scenario

    built = build_scenario(
        ScenarioSpec.from_build(scenario.build, seed=scenario.seed)
    )
    simulation = built.world.simulation
    system = built.world.system

    lines: list[dict[str, Any]] = [
        {
            "type": "header",
            "format_version": FORMAT_VERSION,
            "name": scenario.name,
            "seed": scenario.seed,
            "cycles": scenario.cycles,
            "build": dict(scenario.build),
            "system": system.name,
        }
    ]
    lines.extend(record_cycles(simulation, scenario.cycles))
    metrics = simulation.metrics
    config = built.config
    final = metrics.final_reputations()

    def group_mean(ids: tuple[int, ...]) -> float | None:
        return float(final[list(ids)].mean()) if ids else None

    lines.append(
        {
            "type": "summary",
            "total_requests": metrics.total_requests,
            "total_served": metrics.total_served,
            "unserved": metrics.unserved,
            "colluder_mean": group_mean(config.colluder_ids),
            "normal_mean": group_mean(config.normal_ids),
            "pretrusted_mean": group_mean(config.pretrusted_ids),
        }
    )
    return lines


def write_trace(lines: list[dict[str, Any]], path: Path | str) -> int:
    """Write trace lines as JSONL; returns the number of lines written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(json.dumps(_json_safe(line), separators=(",", ":")))
            handle.write("\n")
    return len(lines)


def load_trace(path: Path | str) -> list[dict[str, Any]]:
    """Load a JSONL golden trace; raises ``ValueError`` on malformed input."""
    path = Path(path)
    lines: list[dict[str, Any]] = []
    with path.open("r", encoding="utf-8") as handle:
        for number, raw in enumerate(handle, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                lines.append(_json_restore(json.loads(raw)))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {number}: invalid JSON ({exc})") from None
    if not lines or lines[0].get("type") != "header":
        raise ValueError(f"{path}: not a golden trace (missing header line)")
    version = lines[0].get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"{path}: format version {version!r} != supported {FORMAT_VERSION}"
        )
    return lines


@dataclass(frozen=True)
class Divergence:
    """One point where the replay left the golden trace."""

    #: Simulation cycle the divergence occurred in (None: header/summary).
    cycle: int | None
    #: Dotted path of the diverging field, e.g. ``reputations[17]``.
    field: str
    expected: Any
    actual: Any

    def describe(self) -> str:
        where = "header/summary" if self.cycle is None else f"cycle {self.cycle}"
        return (
            f"{where}: {self.field}\n"
            f"    golden : {self.expected!r}\n"
            f"    replay : {self.actual!r}"
        )


@dataclass
class TraceDiff:
    """Outcome of one golden-vs-replay comparison."""

    mode: str
    divergences: list[Divergence] = field(default_factory=list)
    #: Where the golden side came from, for the report header.
    source: str = ""

    @property
    def ok(self) -> bool:
        return not self.divergences

    @property
    def first(self) -> Divergence | None:
        return self.divergences[0] if self.divergences else None

    def render(self, max_shown: int = 10) -> str:
        """Human-readable report leading with the first divergence."""
        header = f"golden-trace comparison (mode={self.mode})"
        if self.source:
            header += f"\ngolden: {self.source}"
        if self.ok:
            return f"{header}\nresult: IDENTICAL (no divergence)"
        shown = self.divergences[:max_shown]
        body = "\n".join(f"  [{i}] {d.describe()}" for i, d in enumerate(shown, 1))
        suffix = ""
        if len(self.divergences) > max_shown:
            suffix = f"\n  ... and {len(self.divergences) - max_shown} more"
        return (
            f"{header}\n"
            f"result: DIVERGED ({len(self.divergences)} divergence(s))\n"
            f"first divergence — {shown[0].describe()}\n"
            f"all divergences:\n{body}{suffix}"
        )


class _Differ:
    """Recursive structural comparison with strict / tolerance numerics."""

    def __init__(self, mode: str, rtol: float, atol: float, limit: int) -> None:
        if mode not in ("strict", "tolerance"):
            raise ValueError(f"mode must be 'strict' or 'tolerance', got {mode!r}")
        self.mode = mode
        self.rtol = rtol
        self.atol = atol
        self.limit = limit
        self.divergences: list[Divergence] = []

    def _full(self) -> bool:
        return len(self.divergences) >= self.limit

    def _record(self, cycle: int | None, path: str, expected: Any, actual: Any) -> None:
        if not self._full():
            self.divergences.append(Divergence(cycle, path, expected, actual))

    def _numbers_equal(self, a: float, b: float) -> bool:
        if self.mode == "strict":
            return a == b or (math.isnan(a) and math.isnan(b))
        return math.isclose(a, b, rel_tol=self.rtol, abs_tol=self.atol) or (
            math.isnan(a) and math.isnan(b)
        )

    def compare(self, cycle: int | None, path: str, expected: Any, actual: Any) -> None:
        if self._full():
            return
        # Digest strings are a bit-identity check only; in tolerance mode
        # the summary statistics next to them carry the comparison.
        if self.mode == "tolerance" and path.endswith(".sha256"):
            return
        if isinstance(expected, bool) or isinstance(actual, bool):
            if expected != actual:
                self._record(cycle, path, expected, actual)
            return
        if isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
            if not self._numbers_equal(float(expected), float(actual)):
                self._record(cycle, path, expected, actual)
            return
        if isinstance(expected, dict) and isinstance(actual, dict):
            for key in sorted(set(expected) | set(actual)):
                if key not in expected:
                    self._record(cycle, f"{path}.{key}", "<absent>", actual[key])
                elif key not in actual:
                    self._record(cycle, f"{path}.{key}", expected[key], "<absent>")
                else:
                    self.compare(cycle, f"{path}.{key}", expected[key], actual[key])
            return
        if isinstance(expected, list) and isinstance(actual, list):
            if len(expected) != len(actual):
                self._record(
                    cycle,
                    f"{path}<length>",
                    len(expected),
                    len(actual),
                )
                return
            for index, (e, a) in enumerate(zip(expected, actual)):
                self.compare(cycle, f"{path}[{index}]", e, a)
            return
        if expected != actual:
            self._record(cycle, path, expected, actual)


def diff_traces(
    expected: list[dict[str, Any]],
    actual: list[dict[str, Any]],
    *,
    mode: str = "strict",
    rtol: float = 1e-9,
    atol: float = 1e-12,
    max_divergences: int = 50,
    source: str = "",
) -> TraceDiff:
    """Compare a replayed trace against the golden one.

    ``expected`` is the golden side, ``actual`` the replay.  Comparison is
    line-by-line and structural; the first ``max_divergences`` divergences
    are collected (first-divergence first) so the report stays readable.
    """
    differ = _Differ(mode, rtol, atol, max_divergences)
    if len(expected) != len(actual):
        differ._record(None, "<trace length>", len(expected), len(actual))
    for exp_line, act_line in zip(expected, actual):
        cycle = exp_line.get("cycle") if exp_line.get("type") == "cycle" else None
        kind = exp_line.get("type", "<untyped>")
        differ.compare(cycle, kind, exp_line, act_line)
        if differ._full():
            break
    return TraceDiff(mode=mode, divergences=differ.divergences, source=source)


def check_golden(
    path: Path | str,
    *,
    mode: str = "strict",
    rtol: float = 1e-9,
    atol: float = 1e-12,
) -> TraceDiff:
    """Load a golden trace, replay its scenario from the header, and diff.

    The golden file is self-describing — name, seed, cycle count and build
    keywords all come from the header line — so the check needs nothing
    but the file and the code under test.
    """
    golden = load_trace(path)
    header = golden[0]
    scenario = GoldenScenario(
        name=header["name"],
        build=dict(header["build"]),
        cycles=int(header["cycles"]),
        seed=int(header["seed"]),
    )
    replay = record_trace(scenario)
    return diff_traces(
        golden, replay, mode=mode, rtol=rtol, atol=atol, source=str(path)
    )
