"""Crash-safe checkpoint files.

A checkpoint is a two-line JSONL file:

1. a **header** carrying the scenario as a
   :class:`repro.api.ScenarioSpec`'s flat build mapping
   (:meth:`~repro.api.ScenarioSpec.build_kwargs`, the same
   self-describing contract as the golden-trace headers), its
   seed/run-index, and the cycle count at capture time;
2. a **state** line carrying :meth:`repro.p2p.simulator.Simulation.checkpoint`
   with every ndarray base64-encoded (raw little-endian bytes — exact, no
   decimal round-trip) and non-finite floats tagged.

This module is the one place that writes and reads the header's
scenario fields: :func:`save_checkpoint` takes the spec, and
:func:`load_scenario_checkpoint` hands it back.  Recovery rebuilds the
scenario from that spec (static structure — population, overlay, social
graph, collusion schedule — is a pure function of the spec) and restores
the mutable state on top.  The resumed process continues
**bit-identically** to the uninterrupted run; the kill-and-resume test
pins that with a strict golden-trace diff.
"""

from __future__ import annotations

import base64
import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

if TYPE_CHECKING:
    from repro.api import Scenario, ScenarioSpec

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "encode_state",
    "decode_state",
    "save_checkpoint",
    "load_checkpoint",
    "load_scenario_checkpoint",
    "restore_checkpoint_state",
    "resume_scenario",
]

#: Bumped whenever the checkpoint layout changes incompatibly.
CHECKPOINT_FORMAT_VERSION = 1


def encode_state(value: Any) -> Any:
    """Recursively encode a state payload into JSON-safe data.

    ndarrays become ``{"__ndarray__": b64, "dtype": ..., "shape": ...}``
    over the raw (C-contiguous, little-endian) bytes, numpy scalars
    become Python scalars, and non-finite floats are tagged the same way
    the golden traces tag them.
    """
    if isinstance(value, np.ndarray):
        # ascontiguousarray promotes 0-d to 1-d, so keep the true shape.
        contiguous = np.ascontiguousarray(value)
        le = contiguous.astype(contiguous.dtype.newbyteorder("<"), copy=False)
        return {
            "__ndarray__": base64.b64encode(le.tobytes()).decode("ascii"),
            "dtype": le.dtype.str,
            "shape": list(value.shape),
        }
    if isinstance(value, (np.integer, np.bool_)):
        return value.item()
    if isinstance(value, np.floating):
        value = float(value)
    if isinstance(value, float) and not math.isfinite(value):
        return {"__float__": repr(value)}
    if isinstance(value, dict):
        return {str(k): encode_state(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_state(v) for v in value]
    return value


def decode_state(value: Any) -> Any:
    """Inverse of :func:`encode_state`."""
    if isinstance(value, dict):
        if set(value) == {"__ndarray__", "dtype", "shape"}:
            raw = base64.b64decode(value["__ndarray__"])
            arr = np.frombuffer(raw, dtype=np.dtype(value["dtype"]))
            return arr.reshape(tuple(value["shape"])).copy()
        if set(value) == {"__float__"}:
            return float(value["__float__"])
        return {k: decode_state(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode_state(v) for v in value]
    return value


def save_checkpoint(
    simulation,
    path: Path | str,
    spec: "ScenarioSpec",
    *,
    kind: str = "simulation",
) -> Path:
    """Capture ``simulation`` at its current cycle boundary into ``path``.

    ``spec`` is the scenario ``simulation`` was built from; the header
    stores its :meth:`~repro.api.ScenarioSpec.build_kwargs`, seed and
    run index, which :func:`load_scenario_checkpoint` turns back into
    the spec.  The file is written atomically (temp file + rename) so a
    crash mid-write never leaves a truncated checkpoint behind.

    ``simulation`` is duck-typed: anything with a ``checkpoint()`` dict
    and a ``cycles_run`` count.  ``kind`` names the producer so recovery
    routes correctly — ``"simulation"`` resumes via
    :func:`resume_scenario`, ``"service"`` via
    :meth:`repro.serve.ReputationService.from_checkpoint`.  The key is
    additive (absent means ``"simulation"``), so the format version is
    unchanged.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "type": "header",
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "kind": str(kind),
        "build": spec.build_kwargs(),
        "seed": int(spec.seed),
        "run_index": int(spec.run_index),
        "cycles_run": simulation.cycles_run,
    }
    state = {"type": "state", "state": encode_state(simulation.checkpoint())}
    tmp = path.with_suffix(path.suffix + ".tmp")
    with tmp.open("w", encoding="utf-8") as handle:
        for line in (header, state):
            handle.write(json.dumps(line, separators=(",", ":")))
            handle.write("\n")
    tmp.replace(path)
    return path


def load_checkpoint(path: Path | str) -> tuple[dict[str, Any], dict[str, Any]]:
    """Load ``(header, state)``; raises ``ValueError`` on malformed input."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        lines = [line for line in handle if line.strip()]
    if len(lines) != 2:
        raise ValueError(f"{path}: expected 2 JSONL lines, found {len(lines)}")
    header = json.loads(lines[0])
    if header.get("type") != "header":
        raise ValueError(f"{path}: first line is not a checkpoint header")
    version = header.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(
            f"{path}: format version {version!r} != supported "
            f"{CHECKPOINT_FORMAT_VERSION}"
        )
    payload = json.loads(lines[1])
    if payload.get("type") != "state":
        raise ValueError(f"{path}: second line is not a state payload")
    return header, decode_state(payload["state"])


#: How each checkpoint kind is resumed, and what the kind is called.
_KINDS = {
    "simulation": ("batch-simulation", "repro.chaos.resume_scenario"),
    "service": ("service", "repro.serve.ReputationService.from_checkpoint"),
}


def load_scenario_checkpoint(
    path: Path | str, *, kind: str = "simulation"
) -> tuple["ScenarioSpec", dict[str, Any]]:
    """Load a ``kind`` checkpoint as ``(spec, state)``.

    The spec is rebuilt from the header written by
    :func:`save_checkpoint`; a checkpoint of another kind, or a header
    the spec rejects (an unknown world field, say), raises
    ``ValueError``.
    """
    # Local import: keep the codec importable without the full stack.
    from repro.api import ScenarioSpec

    header, state = load_checkpoint(path)
    found = header.get("kind", "simulation")
    if found != kind:
        hint = f"; resume it via {_KINDS[found][1]}" if found in _KINDS else ""
        raise ValueError(
            f"{path}: checkpoint kind {found!r} is not a {_KINDS[kind][0]} "
            f"checkpoint{hint}"
        )
    spec = ScenarioSpec.from_build(
        header["build"],
        seed=int(header["seed"]),
        run_index=int(header["run_index"]),
    )
    return spec, state


def restore_checkpoint_state(
    restore: Callable[[dict[str, Any]], None],
    state: dict[str, Any],
    path: Path | str,
) -> None:
    """Apply the ``state`` loaded from ``path`` through ``restore``.

    ``restore`` is the ``resume``/``restore`` method of the object built
    from the checkpoint's header.  State written by a different scenario
    (another system, a manager count the header does not name) lacks keys
    that object reads; that surfaces as a ``ValueError`` naming the
    missing key instead of a bare ``KeyError``.
    """
    try:
        restore(state)
    except KeyError as exc:
        raise ValueError(
            f"{path}: checkpoint state does not match its header "
            f"(state key {exc} is missing)"
        ) from None


def resume_scenario(path: Path | str) -> "Scenario":
    """Rebuild the checkpointed scenario and restore its state.

    Returns the resumed :class:`repro.api.Scenario`; drive it onward with
    ``scenario.world.simulation.run_simulation_cycle()`` (the restored
    cycle counter tells you how far the original run got).
    """
    from repro.api import build_scenario

    spec, state = load_scenario_checkpoint(path)
    scenario = build_scenario(spec)
    restore_checkpoint_state(scenario.world.simulation.resume, state, path)
    return scenario
