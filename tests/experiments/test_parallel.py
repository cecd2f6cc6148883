"""Worker-count resolution: ``REPRO_JOBS`` and the detected CPU count."""

import pytest

from repro.experiments.runner import default_jobs


class TestDefaultJobs:
    """Satellite: REPRO_JOBS beats a (often wrong) container CPU count."""

    def test_env_override_wins_over_cpu_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "6")
        monkeypatch.setattr("os.cpu_count", lambda: 1)
        assert default_jobs() == 6

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 3)
        assert default_jobs() == 3

    def test_cpu_count_none_defaults_to_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: None)
        assert default_jobs() == 1

    @pytest.mark.parametrize("bad", ["0", "-2", "many"])
    def test_invalid_env_rejected(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_JOBS", bad)
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            default_jobs()
