"""Chaos engineering: declarative fault scenarios + crash-safe recovery.

:mod:`repro.chaos.spec` compiles partition/Byzantine windows into
scripted fault schedules; :mod:`repro.chaos.checkpoint` serializes a
running simulation at a cycle boundary and rebuilds it bit-identically.
The reconvergence harness that measures recovery quality lives in
:mod:`repro.qa.reconvergence`.
"""

from repro.chaos.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    decode_state,
    encode_state,
    load_checkpoint,
    load_scenario_checkpoint,
    restore_checkpoint_state,
    resume_scenario,
    save_checkpoint,
)
from repro.chaos.spec import ByzantineSpec, ChaosSpec, PartitionSpec

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "ByzantineSpec",
    "ChaosSpec",
    "PartitionSpec",
    "decode_state",
    "encode_state",
    "load_checkpoint",
    "load_scenario_checkpoint",
    "restore_checkpoint_state",
    "resume_scenario",
    "save_checkpoint",
]
