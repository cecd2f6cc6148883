"""The one bench gate, :func:`repro.perf.bench.compare`, as one table.

Each case names a baseline document of one bench kind, the current run's
document and the failures the gate must report (none = the gate passes).
The kind-specific conditions — serve's CPU-gated speedup floor, the
suite's reuse, dedup and identity checks and its CPU-gated rate — are
encoded by the producers' own row functions, which make these rows too.
"""

import copy
import json
import pathlib

import pytest

from repro.cli import main
from repro.experiments.suite import suite_row
from repro.perf.bench import KINDS, SCHEMA, compare, row
from repro.serve.bench import scaling_checks
from repro.sim.bench import GATED_COUNTERS

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def _doc(kind: str, *rows: dict) -> dict:
    return {
        "schema": SCHEMA,
        "bench": kind,
        "machine": {"platform": "test", "python": "3", "cpus": 2, "repro_jobs_env": None},
        "rows": list(rows),
    }


def _edit(document: dict, name: str, **changes) -> dict:
    """A copy of ``document`` with row ``name`` changed; dict fields merge."""
    edited = copy.deepcopy(document)
    for entry in edited["rows"]:
        if entry["name"] == name:
            for key, value in changes.items():
                if isinstance(value, dict):
                    entry[key].update(value)
                else:
                    entry[key] = value
    return edited


def _drop(document: dict, name: str) -> dict:
    dropped = copy.deepcopy(document)
    dropped["rows"] = [entry for entry in dropped["rows"] if entry["name"] != name]
    return dropped


SIM = _doc(
    "sim",
    row(
        "gpt-a/topo_2_2",
        fingerprint="aaaa1111",
        counters=dict(
            events=100, reallocations=40, components_filled=40,
            fill_rounds=60, flows_touched=60,
        ),
        walls={"seconds": 0.05},
    ),
    # The largest row: the ZeRO-3 step, with multi-flow fills.
    row(
        "zero3:gpt-a/topo_2_2",
        fingerprint="dddd4444",
        counters=dict(
            events=265, reallocations=135, components_filled=113,
            fill_rounds=130, flows_touched=670,
        ),
        walls={"seconds": 0.01},
    ),
)


def _scaling(consistent=True, speedup=2.5, top=4, cpus=8) -> dict:
    return row(
        "scaling",
        counters={"plans": 20},
        walls={"speedup": speedup},
        checks=scaling_checks(consistent, speedup, top=top, cpus=cpus),
    )


SERVE = _doc(
    "serve",
    row(
        "throughput:cold",
        counters={"plans": 4, "store_writes": 4},
        rates={"plans_per_s": 100.0},
    ),
    row("throughput:warm", counters={"plans": 4}, rates={"plans_per_s": 1000.0}),
    row(
        "throughput:restart-warm",
        counters={"plans": 80, "store_writes": 0},
        rates={"plans_per_s": 700.0},
        checks={"no_store_writes": True},
    ),
    row("plan:gpt-a/topo_2_2", fingerprint="aaaa1111", checks={"consistent": True}),
    row("plan:gpt-b/topo_2_2", fingerprint="bbbb2222", checks={"consistent": True}),
    _scaling(),
    row("recovery:worker-crash-midsolve", checks={"ok": True}),
    row("recovery:overload-burst", checks={"ok": True}),
)


def _serve_with(entry: dict) -> dict:
    document = copy.deepcopy(SERVE)
    document["rows"] = [entry if r["name"] == entry["name"] else r for r in document["rows"]]
    return document


_SCHEDULE = {
    "cells_enumerated": 4,
    "cells_unique": 3,
    "cells_deduped": 1,
    "cells_precached": 0,
    "cells_computed": 3,
    "cells_shared": 0,
    "cells_coalesced": 0,
    "duplicate_solves": 0,
    "cells_fingerprint": "cccc3333",
}
_IDENTITY = {"cells_match": True, "outputs_match": True}


def _suite(seconds=1.0, cpus=2, identity=_IDENTITY, **schedule) -> dict:
    return _doc(
        "suite",
        suite_row(
            {**_SCHEDULE, **schedule}, identity, seconds=seconds, jobs=2, cpus=cpus
        ),
    )


SUITE = _suite()

CHAOS = _doc(
    "chaos",
    row("gpt-a/topo_2_2/degraded-link", fingerprint="bbbb2222", checks={"ok": True}),
    row("gpt-a/topo_2_2/dropout", fingerprint=None, checks={"ok": True}),
)


def _case(case_id, baseline, current, *expected):
    return pytest.param(baseline, current, expected, id=case_id)


CASES = [
    # -- any kind --
    _case("bench-kind-differs", SIM, dict(SIM, bench="chaos"), "bench differs"),
    _case("schema-differs", SIM, dict(SIM, schema="mobius-bench-sim/2"), "schema differs"),
    # -- sim: trace fingerprints and allocator work counters --
    _case("sim-identical", SIM, SIM),
    _case(
        "sim-walls-ignored",
        SIM,
        _edit(
            _edit(SIM, "gpt-a/topo_2_2", walls={"seconds": 999.0}),
            "zero3:gpt-a/topo_2_2",
            walls={"seconds": 9999.0},
        ),
    ),
    _case(
        "sim-fingerprint",
        SIM,
        _edit(SIM, "gpt-a/topo_2_2", fingerprint="cccc3333"),
        "gpt-a/topo_2_2: fingerprint diverged",
    ),
    *[
        _case(
            f"sim-counter-{counter}",
            SIM,
            _edit(
                SIM,
                "gpt-a/topo_2_2",
                counters={counter: int(SIM["rows"][0]["counters"][counter] * 1.3)},
            ),
            f"{counter} regressed",
        )
        for counter in GATED_COUNTERS
    ],
    _case(
        "sim-counter-borderline",
        SIM,
        _edit(SIM, "gpt-a/topo_2_2", counters={"events": 125}),  # exactly 1.25x
    ),
    _case(
        "sim-counter-improved",
        SIM,
        _edit(SIM, "gpt-a/topo_2_2", counters={"flows_touched": 10}),
    ),
    _case(
        "sim-row-missing-current",
        SIM,
        _drop(SIM, "gpt-a/topo_2_2"),
        "gpt-a/topo_2_2: row missing from current run",
    ),
    _case(
        "sim-row-missing-baseline",
        _drop(SIM, "gpt-a/topo_2_2"),
        SIM,
        "gpt-a/topo_2_2: row missing from baseline",
    ),
    _case(
        "sim-large-fingerprint",
        SIM,
        _edit(SIM, "zero3:gpt-a/topo_2_2", fingerprint="eeee5555"),
        "zero3:gpt-a/topo_2_2: fingerprint diverged",
    ),
    _case(
        "sim-large-counter",
        SIM,
        _edit(SIM, "zero3:gpt-a/topo_2_2", counters={"events": 400}),
        "zero3:gpt-a/topo_2_2: events regressed",
    ),
    _case(
        "sim-large-missing",
        SIM,
        _drop(SIM, "zero3:gpt-a/topo_2_2"),
        "zero3:gpt-a/topo_2_2: row missing from current run",
    ),
    # -- chaos: trace fingerprints, every result ok --
    _case("chaos-identical", CHAOS, CHAOS),
    _case(
        "chaos-fingerprint",
        CHAOS,
        _edit(CHAOS, "gpt-a/topo_2_2/degraded-link", fingerprint="cccc3333"),
        "degraded-link: fingerprint diverged",
    ),
    _case(
        "chaos-not-ok",
        CHAOS,
        _edit(CHAOS, "gpt-a/topo_2_2/dropout", checks={"ok": False}),
        "gpt-a/topo_2_2/dropout: check ok failed",
    ),
    # -- serve: plan fingerprints, consistency, recovery, plans/s, scaling --
    _case("serve-identical", SERVE, SERVE),
    _case(
        "serve-faster",
        SERVE,
        _edit(SERVE, "throughput:cold", rates={"plans_per_s": 500.0}),
    ),
    _case(
        "serve-slowdown-within-ratio",
        SERVE,
        _edit(SERVE, "throughput:cold", rates={"plans_per_s": 85.0}),  # > 100/1.25
    ),
    _case(
        "serve-throughput-regressed",
        SERVE,
        _edit(SERVE, "throughput:cold", rates={"plans_per_s": 79.0}),  # < 100/1.25
        "throughput:cold: plans_per_s regressed",
    ),
    # A fresh plan's rows written one transaction per namespace (partition,
    # plan and a separate last-known-good row) instead of one in all.
    _case(
        "serve-store-writes-regressed",
        SERVE,
        _edit(SERVE, "throughput:cold", counters={"store_writes": 12}),
        "throughput:cold: store_writes regressed",
    ),
    _case(
        "serve-store-writes-within-ratio",
        SERVE,
        _edit(SERVE, "throughput:cold", counters={"store_writes": 5}),  # exactly 1.25x
    ),
    # A store hit rewrites a row: zero baseline, so the check catches it.
    _case(
        "serve-store-hit-writes",
        SERVE,
        _edit(
            SERVE,
            "throughput:restart-warm",
            counters={"store_writes": 4},
            checks={"no_store_writes": False},
        ),
        "throughput:restart-warm: check no_store_writes failed",
    ),
    _case(
        "serve-fingerprint",
        SERVE,
        _edit(SERVE, "plan:gpt-a/topo_2_2", fingerprint="cccc3333"),
        "plan:gpt-a/topo_2_2: fingerprint diverged",
    ),
    _case(
        "serve-regimes-inconsistent",
        SERVE,
        _edit(SERVE, "plan:gpt-b/topo_2_2", checks={"consistent": False}),
        "plan:gpt-b/topo_2_2: check consistent failed",
    ),
    _case(
        "serve-recovery-failed",
        SERVE,
        _edit(SERVE, "recovery:worker-crash-midsolve", checks={"ok": False}),
        "recovery:worker-crash-midsolve: check ok failed",
    ),
    _case(
        # Identity across worker counts is checked even on 1-cpu hosts.
        "serve-scaling-inconsistent-any-host",
        SERVE,
        _serve_with(_scaling(consistent=False, speedup=1.0, cpus=1)),
        "scaling: check consistent failed",
    ),
    _case(
        "serve-speedup-below-floor",
        SERVE,
        _serve_with(_scaling(speedup=1.4)),
        "scaling: check speedup_floor failed",
    ),
    _case(
        "serve-speedup-missing",
        SERVE,
        _serve_with(_scaling(speedup=None)),
        "scaling: check speedup_floor failed",
    ),
    # The floor applies only on >= 4 cpus AND a ladder that reached 4.
    _case("serve-speedup-small-host", SERVE, _serve_with(_scaling(speedup=1.0, cpus=1))),
    _case("serve-speedup-short-ladder", SERVE, _serve_with(_scaling(speedup=1.0, top=2))),
    _case("serve-speedup-at-floor", SERVE, _serve_with(_scaling(speedup=1.8))),
    _case(
        "serve-scaling-missing-current",
        SERVE,
        _drop(SERVE, "scaling"),
        "scaling: row missing from current run",
    ),
    _case("serve-scaling-missing-both", _drop(SERVE, "scaling"), _drop(SERVE, "scaling")),
    _case(
        "serve-rows-missing-current",
        SERVE,
        _drop(_drop(SERVE, "plan:gpt-b/topo_2_2"), "throughput:warm"),
        "plan:gpt-b/topo_2_2: row missing from current run",
        "throughput:warm: row missing from current run",
    ),
    _case(
        "serve-rows-missing-baseline",
        _drop(SERVE, "recovery:overload-burst"),
        SERVE,
        "recovery:overload-burst: row missing from baseline",
    ),
    # -- suite: cells fingerprint, reuse, dedup, identity, unique-cell rate --
    _case("suite-identical", SUITE, SUITE),
    _case(
        "suite-fingerprint",
        SUITE,
        _suite(cells_fingerprint="dddd4444"),
        "suite: fingerprint diverged",
    ),
    _case(
        "suite-duplicate-solves-and-no-reuse",
        SUITE,
        _suite(duplicate_solves=3, cells_deduped=0),
        "check no_duplicate_solves failed",
        "check reuse failed",
    ),
    _case(
        "suite-identity-failed",
        SUITE,
        _suite(identity={"cells_match": False, "outputs_match": True}),
        "check cells_match failed",
    ),
    # One shared ratio: the rate floor is baseline / 1.25 = 0.8x.
    _case("suite-rate-above-floor", SUITE, _suite(seconds=1.24)),
    _case(
        "suite-rate-below-floor",
        SUITE,
        _suite(seconds=1.3),
        "suite: unique_cells_per_s regressed",
    ),
    # The rate is recorded, and so gated, only on hosts with >= 2 cpus.
    _case("suite-rate-one-cpu-host", SUITE, _suite(seconds=8.0, cpus=1)),
    _case("suite-rate-one-cpu-baseline", _suite(cpus=1), _suite(seconds=8.0)),
]

_BY_ID = {case.id: case.values for case in CASES}


def check_case(case_id: str) -> None:
    """Run one table row: the gate reports exactly the expected failures."""
    baseline, current, expected = _BY_ID[case_id]
    failures = compare(current, baseline)
    assert len(failures) == len(expected), failures
    for needle in expected:
        assert any(needle in failure for failure in failures), (needle, failures)


@pytest.mark.parametrize("case_id", list(_BY_ID))
def test_gate(case_id):
    check_case(case_id)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_committed_document_passes_against_itself(kind):
    committed = json.loads((REPO_ROOT / f"BENCH_{kind}.json").read_text())
    assert committed["schema"] == SCHEMA and committed["bench"] == kind
    assert compare(committed, committed) == []


@pytest.fixture
def fake_bench(monkeypatch):
    """``repro bench sim`` without the simulator: it yields :data:`SIM`'s rows."""
    import repro.sim.bench as bench

    monkeypatch.setattr(bench, "bench_rows", lambda jobs=None: copy.deepcopy(SIM["rows"]))
    return SIM


def test_cli_gate_fails_after_one_character_fingerprint_edit(fake_bench, tmp_path, capsys):
    path = tmp_path / "BENCH_sim.json"
    assert main(["bench", "sim", "--out", str(path)]) == 0
    assert main(["bench", "sim", "--check-against", str(path)]) == 0
    text = path.read_text()
    assert text.count("aaaa1111") == 1
    path.write_text(text.replace("aaaa1111", "aaaa1112"))
    capsys.readouterr()
    assert main(["bench", "sim", "--check-against", str(path)]) == 1
    assert "fingerprint diverged" in capsys.readouterr().err
