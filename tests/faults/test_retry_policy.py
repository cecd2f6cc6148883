"""RetryPolicy edge cases: the delay schedule is a public, deterministic contract.

The serve supervisor paces worker restarts with the same policy the
simulator uses for transfer retries, so the backoff sequence must be
exact — not merely monotone.
"""

import pytest

from repro.faults.recovery import RetryPolicy


def delays(policy: RetryPolicy) -> tuple[float, ...]:
    """Every wait the budget allows, in issue order: one after each failed
    attempt but the last."""
    return tuple(policy.backoff(attempt) for attempt in range(1, policy.max_attempts))


class TestValidation:
    def test_max_attempts_at_least_one(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)

    def test_base_delay_non_negative(self):
        with pytest.raises(ValueError, match="base_delay"):
            RetryPolicy(base_delay=-1e-3)

    def test_growth_at_least_one(self):
        with pytest.raises(ValueError, match="growth"):
            RetryPolicy(growth=0.5)

    def test_max_delay_non_negative(self):
        with pytest.raises(ValueError, match="max_delay"):
            RetryPolicy(max_delay=-0.1)


class TestZeroRetryBudget:
    def test_single_attempt_has_no_delays(self):
        # max_attempts == 1: the first failure is terminal; nothing waits.
        policy = RetryPolicy(max_attempts=1)
        assert delays(policy) == ()


class TestBackoffSequence:
    def test_exponential_schedule_is_deterministic(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.01, growth=2.0)
        assert delays(policy) == (0.01, 0.02, 0.04, 0.08)
        # Two constructions of the same policy agree exactly.
        assert delays(policy) == delays(
            RetryPolicy(max_attempts=5, base_delay=0.01, growth=2.0)
        )

    def test_max_delay_caps_the_tail(self):
        policy = RetryPolicy(
            max_attempts=6, base_delay=0.01, growth=2.0, max_delay=0.05
        )
        assert delays(policy) == (0.01, 0.02, 0.04, 0.05, 0.05)

    def test_flat_schedule_with_growth_one(self):
        policy = RetryPolicy(max_attempts=4, base_delay=0.5, growth=1.0)
        assert delays(policy) == (0.5, 0.5, 0.5)
