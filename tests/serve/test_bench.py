"""The ``serve`` bench's gate cases.

Each is a row of the one table in ``tests/perf/test_bench.py``.
"""

from tests.perf.test_bench import check_case


class TestGatePasses:
    def test_identical_documents(self):
        check_case("serve-identical")

    def test_faster_is_fine(self):
        check_case("serve-faster")

    def test_small_slowdown_within_tolerance(self):
        check_case("serve-slowdown-within-ratio")

    def test_store_writes_within_ratio(self):
        check_case("serve-store-writes-within-ratio")


class TestGateFails:
    def test_fingerprint_divergence(self):
        check_case("serve-fingerprint")

    def test_inconsistent_regimes(self):
        check_case("serve-regimes-inconsistent")

    def test_recovery_regression(self):
        check_case("serve-recovery-failed")

    def test_throughput_regression_beyond_ratio(self):
        check_case("serve-throughput-regressed")

    def test_store_writes_regression_beyond_ratio(self):
        check_case("serve-store-writes-regressed")
        check_case("serve-store-hit-writes")

    def test_scaling_fingerprint_divergence_fails_on_any_host(self):
        check_case("serve-scaling-inconsistent-any-host")

    def test_scaling_speedup_below_floor_fails_on_big_hosts(self):
        check_case("serve-speedup-below-floor")
        check_case("serve-speedup-missing")

    def test_scaling_speedup_not_gated_on_small_hosts(self):
        check_case("serve-speedup-small-host")
        check_case("serve-speedup-short-ladder")

    def test_scaling_speedup_at_floor_passes(self):
        check_case("serve-speedup-at-floor")

    def test_scaling_section_missing_from_current_fails(self):
        check_case("serve-scaling-missing-current")
        check_case("serve-scaling-missing-both")

    def test_missing_rows_fail_both_ways(self):
        check_case("serve-rows-missing-current")
        check_case("serve-rows-missing-baseline")
