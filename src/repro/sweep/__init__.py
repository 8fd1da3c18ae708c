"""Checkpointing and fork-based design-space sweeps.

:class:`~repro.sweep.checkpoint.Checkpoint` freezes a running
:class:`~repro.soc.builder.NocSoc` into a self-contained, serializable
state tree; :func:`~repro.sweep.fork.fork` warm-starts one simulated
prefix and forks N what-if continuations (load points, fault schedules,
parameter tweaks) across a process pool, producing a deterministic
comparison report.
"""

from repro.sweep.checkpoint import Checkpoint, CheckpointFormatError
from repro.sweep.fork import Override, fork

__all__ = [
    "Checkpoint",
    "CheckpointFormatError",
    "Override",
    "fork",
]
