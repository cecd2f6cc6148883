"""Tests for the shared task-label contract (repro.core.labels)."""

from __future__ import annotations

import pytest

from repro.core import labels


class TestConstructorsMatchPatterns:
    """Every constructor's output must parse back under its own regex."""

    def test_fwd_upload(self):
        assert labels.UPLOAD_RE.fullmatch(labels.fwd_upload_label(3)).group(1) == "3"
        m = labels.UPLOAD_RE.fullmatch(labels.fwd_upload_label(3, "pre"))
        assert m.group(1, 2) == ("3", "pre")
        m = labels.UPLOAD_RE.fullmatch(labels.fwd_upload_label(12, "rem"))
        assert m.group(1, 2) == ("12", "rem")

    def test_bwd_upload(self):
        for part in ("pre", "rem"):
            for kind in labels.BWD_UPLOAD_KINDS:
                label = labels.bwd_upload_label(7, part, kind)
                m = labels.BWD_UPLOAD_RE.fullmatch(label)
                assert m is not None, label
                assert m.group(1, 2, 3) == ("7", part, kind)

    def test_compute(self):
        for phase in ("F", "B"):
            m = labels.COMPUTE_RE.fullmatch(labels.compute_label(phase, 2, 5))
            assert m.group(1, 2, 3) == (phase, "2", "5")

    def test_activation(self):
        for phase in ("A", "G"):
            m = labels.ACTIVATION_RE.fullmatch(labels.activation_label(phase, 1, 0))
            assert m.group(1, 2, 3) == (phase, "1", "0")

    def test_stash_offload(self):
        m = labels.STASH_OFFLOAD_RE.fullmatch(labels.stash_offload_label(4, 2))
        assert m.group(1, 2) == ("4", "2")

    def test_grad_offload(self):
        m = labels.GRAD_OFFLOAD_RE.fullmatch(labels.grad_offload_label(9))
        assert m.group(1) == "9"


class TestConstructorValidation:
    def test_bad_upload_part_rejected(self):
        with pytest.raises(ValueError):
            labels.fwd_upload_label(0, "partial")

    def test_bad_bwd_kind_rejected(self):
        with pytest.raises(ValueError):
            labels.bwd_upload_label(0, "pre", "weight-upload")

    def test_bad_phase_rejected(self):
        with pytest.raises(ValueError):
            labels.compute_label("X", 0, 0)
        with pytest.raises(ValueError):
            labels.activation_label("F", 0, 0)


def _is_valid_label(label: str) -> bool:
    """Whether ``label`` belongs to the emitter's label grammar."""
    return any(pattern.match(label) for pattern in labels.ALL_LABEL_PATTERNS)


class TestIsValidLabel:
    def test_accepts_every_constructor_output(self):
        produced = [
            labels.fwd_upload_label(0),
            labels.fwd_upload_label(1, "pre"),
            labels.bwd_upload_label(2, "rem", "act-upload"),
            labels.compute_label("B", 3, 1),
            labels.activation_label("A", 0, 0),
            labels.stash_offload_label(1, 1),
            labels.grad_offload_label(5),
        ]
        for label in produced:
            assert _is_valid_label(label), label

    def test_rejects_ad_hoc_labels(self):
        for label in ("fwd-0", "U1.partial", "F0", "Ub1.pre", "S1,2", ""):
            assert not _is_valid_label(label), label

    def test_patterns_are_anchored(self):
        # A drifting suffix must not slip past the contract (the bug class
        # that motivated extracting it from memory_audit).
        assert not _is_valid_label("U3.pre.extra")
        assert not _is_valid_label("xF0,1")


class TestAuditorUsesSharedContract:
    def test_memory_audit_imports_labels(self):
        import tests.core.memory_audit as audit

        assert audit._UPLOAD_RE is labels.UPLOAD_RE
        assert audit._COMPUTE_RE is labels.COMPUTE_RE
        assert audit._BWD_UPLOAD_RE is labels.BWD_UPLOAD_RE
