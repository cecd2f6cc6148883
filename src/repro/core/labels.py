"""The task-label contract of the Mobius pipeline emitter.

:mod:`repro.core.pipeline` tags every task it emits with a structured label,
and a reader of the trace parses those labels back to reconstruct what each
task did.  Left implicit — f-strings in the emitter, regexes in each reader —
the grammar is exactly the kind of silent contract a typo breaks without any
test noticing.  This module is the single source of truth: the emitter builds
labels through the constructor functions below, readers parse them with the
compiled patterns, and the ``MOB003`` lint rule
(:mod:`repro.check.analysis.rules`) rejects any inline label in the emitter
that does not match the grammar.

Grammar (stage ``j`` and microbatch ``mb`` are 0-based decimal integers)::

    U{j}                      initial forward parameter upload (stage < N)
    U{j}.pre                  forward prefetch into reserved memory (Eq. 6)
    U{j}.rem                  forward upload remainder (Eq. 9)
    Ub{j}.(pre|rem).{kind}    backward re-upload, kind in
                              {param-upload, act-upload}
    F{j},{mb} / B{j},{mb}     forward / backward compute
    A{j},{mb} / G{j},{mb}     activation / activation-gradient transfer
    S{j},{mb}.off             stashed-checkpoint offload to DRAM
    Og{j}                     FP16 gradient offload to DRAM
"""

from __future__ import annotations

import re

__all__ = [
    "UPLOAD_RE",
    "BWD_UPLOAD_RE",
    "COMPUTE_RE",
    "ACTIVATION_RE",
    "STASH_OFFLOAD_RE",
    "GRAD_OFFLOAD_RE",
    "ALL_LABEL_PATTERNS",
    "BWD_UPLOAD_KINDS",
    "fwd_upload_label",
    "bwd_upload_label",
    "compute_label",
    "activation_label",
    "stash_offload_label",
    "grad_offload_label",
]

#: Forward parameter upload: ``U3`` (initial), ``U3.pre``, ``U3.rem``.
UPLOAD_RE = re.compile(r"^U(\d+)(?:\.(pre|rem))?$")

#: Transfer kinds a backward re-upload may carry.
BWD_UPLOAD_KINDS = ("param-upload", "act-upload")

#: Backward re-upload of a swapped-out stage: ``Ub2.pre.param-upload``.
BWD_UPLOAD_RE = re.compile(r"^Ub(\d+)\.(pre|rem)\.(param-upload|act-upload)$")

#: Forward/backward compute of one microbatch: ``F1,0`` / ``B1,0``.
COMPUTE_RE = re.compile(r"^([FB])(\d+),(\d+)$")

#: Inter-stage activation (``A``) or activation-gradient (``G``) transfer.
ACTIVATION_RE = re.compile(r"^([AG])(\d+),(\d+)$")

#: Recompute-checkpoint offload after forward: ``S1,0.off``.
STASH_OFFLOAD_RE = re.compile(r"^S(\d+),(\d+)\.off$")

#: FP16 gradient offload after a stage's backward: ``Og1``.
GRAD_OFFLOAD_RE = re.compile(r"^Og(\d+)$")

#: Every pattern of the grammar, in match-dispatch order.
ALL_LABEL_PATTERNS = (
    UPLOAD_RE,
    BWD_UPLOAD_RE,
    COMPUTE_RE,
    ACTIVATION_RE,
    STASH_OFFLOAD_RE,
    GRAD_OFFLOAD_RE,
)


def fwd_upload_label(stage: int, part: str | None = None) -> str:
    """Label of a forward parameter upload; ``part`` is ``pre``/``rem``."""
    if part is None:
        return f"U{stage}"
    if part not in ("pre", "rem"):
        raise ValueError(f"part must be 'pre' or 'rem', got {part!r}")
    return f"U{stage}.{part}"


def bwd_upload_label(stage: int, part: str, kind: str) -> str:
    """Label of a backward re-upload flow of ``kind`` for ``stage``."""
    if part not in ("pre", "rem"):
        raise ValueError(f"part must be 'pre' or 'rem', got {part!r}")
    if kind not in BWD_UPLOAD_KINDS:
        raise ValueError(f"kind must be one of {BWD_UPLOAD_KINDS}, got {kind!r}")
    return f"Ub{stage}.{part}.{kind}"


def compute_label(phase: str, stage: int, microbatch: int) -> str:
    """Label of a compute task; ``phase`` is ``F`` or ``B``."""
    if phase not in ("F", "B"):
        raise ValueError(f"phase must be 'F' or 'B', got {phase!r}")
    return f"{phase}{stage},{microbatch}"


def activation_label(phase: str, stage: int, microbatch: int) -> str:
    """Label of an inter-stage transfer; ``A`` forward, ``G`` backward."""
    if phase not in ("A", "G"):
        raise ValueError(f"phase must be 'A' or 'G', got {phase!r}")
    return f"{phase}{stage},{microbatch}"


def stash_offload_label(stage: int, microbatch: int) -> str:
    """Label of a recompute-checkpoint offload."""
    return f"S{stage},{microbatch}.off"


def grad_offload_label(stage: int) -> str:
    """Label of a stage's FP16 gradient offload."""
    return f"Og{stage}"
