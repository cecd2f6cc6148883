"""One seeded defect per finding code, in the code each code audits.

Each case rewrites one function of the planner, the prefetch budgets or the
fault runner (``old`` -> ``new``, ``old`` occurring exactly once in the
function's source), plans and simulates one cell with the rewritten
function in place, and requires the case's code among the findings, which
the cell does not draw without the defect.  DESIGN.md §8 records, per code,
what else catches the same defect.
"""

from __future__ import annotations

import __future__
import dataclasses
import importlib
import inspect
import re
import textwrap
from pathlib import Path

import pytest

from repro.check.corpus import CorpusCell, default_corpus
from repro.check.mapping_check import check_mapping
from repro.check.plan_check import check_plan
from repro.check.trace_check import sanitize_run
from repro.core.api import plan_mobius
from repro.core.partition import PlanInfeasibleError
from repro.faults.chaos import build_schedule
from repro.faults.recovery import run_step
from repro.hardware.gpu import RTX_3090TI
from repro.hardware.topology import commodity_server, topo_2_2
from repro.models.costmodel import FRAMEWORK_OVERHEAD_BYTES
from repro.perf.cache import cache_overridden
from repro.sim.tasks import TaskGraphRunner

REPO_ROOT = Path(__file__).resolve().parents[2]

#: The runner's own ``execute``: the autouse fixture in ``tests/conftest.py``
#: wraps it to assert a clean run, and these cases want the findings.
_EXECUTE = TaskGraphRunner.execute


def _small_gpu(cell: CorpusCell, usable_bytes: int) -> CorpusCell:
    """``cell`` on a 2+2 server whose GPUs hold ``usable_bytes`` of stage data."""
    gpu = dataclasses.replace(
        RTX_3090TI, memory_bytes=FRAMEWORK_OVERHEAD_BYTES + usable_bytes
    )
    name = f"{cell.name}@{usable_bytes}B"
    return CorpusCell(name, cell.model, topo_2_2(gpu), cell.config)


_CORPUS = {cell.name: cell for cell in default_corpus()}
CELLS = {
    **_CORPUS,
    # No partition of gpt-a fits 0.4 GB; the device's whole memory would.
    "gpt-a/0.4GB": _small_gpu(_CORPUS["gpt-a/topo_2_2"], 400_000_000),
    # The plan fits 0.5 GB, but stage 2's backward upload does not fit
    # beside stage 6's backward footprint.
    "gpt-b/0.5GB": _small_gpu(_CORPUS["gpt-b/topo_2_2"], 500_000_000),
    # Six stages on four GPUs: a mapping searched for four stages is not
    # the optimum for six.
    "gpt-b/1+1+2": dataclasses.replace(
        _CORPUS["gpt-b/topo_2_2"],
        name="gpt-b/1+1+2",
        topology=commodity_server([1, 1, 2]),
    ),
}


@dataclasses.dataclass(frozen=True)
class Seeded:
    """One defect in a real function and the finding code it must draw.

    ``target`` is ``module:Qualname``; ``run`` is the fault scenario of
    :func:`repro.faults.chaos.build_schedule` the step runs under.
    """

    code: str
    target: str
    old: str
    new: str
    cell: str = "gpt-a/topo_2_2"
    run: str = "clean"


#: One seeded defect per kept code; DESIGN.md §8 records which other check
#: (a constructor guard, an exception, another code, a tier-1 test outside
#: tests/check, a bench gate, perfbench) also catches each.
SEEDED = (
    # The search is given the device's whole memory, framework reserve
    # included.
    Seeded(
        "PLAN-EQ4",
        "repro.core.api:_plan_mobius_uncached",
        "kwargs = {}",
        'kwargs = {"gpu_memory": cost_model.gpu_spec.memory_bytes}',
        cell="gpt-a/0.4GB",
    ),
    # Forward budgets are capped by the room beside the running stage but
    # not by the upload itself (the record kernel's ``param_bytes`` field).
    Seeded(
        "PLAN-PF-RANGE",
        "repro.core.timing:prefetch_budgets",
        "fwd[j] = max(0, min(upload_fwd, room))",
        "fwd[j] = max(0, room)",
        cell="gpt-b/topo_2_2",
    ),
    # Backward budgets ignore the room beside the running stage (the
    # record kernel's ``mem_bwd`` field of stage ``j + N``).
    Seeded(
        "PLAN-EQ5-BWD",
        "repro.core.timing:prefetch_budgets",
        "bwd[j] = max(0, min(upload_bwd, room))",
        "bwd[j] = upload_bwd",
        cell="gpt-b/0.5GB",
    ),
    # The plan takes its forward budgets from the backward ones and back.
    Seeded(
        "PLAN-RESIDENT",
        "repro.core.api:_plan_mobius_uncached",
        "prefetch_fwd_bytes=timings.prefetch_fwd_bytes,\n"
        "        prefetch_bwd_bytes=timings.prefetch_bwd_bytes,",
        "prefetch_fwd_bytes=timings.prefetch_bwd_bytes,\n"
        "        prefetch_bwd_bytes=timings.prefetch_fwd_bytes,",
    ),
    # The mapping is searched for N stages instead of the plan's S.
    Seeded(
        "MAP-CONTENTION",
        "repro.core.api:_plan_mobius_uncached",
        "mapping_result = cross_mapping(topology, n_stages)",
        "mapping_result = cross_mapping(topology, n_gpus)",
        cell="gpt-b/1+1+2",
    ),
    # A failed transfer attempt completes its row as well as retrying it.
    Seeded(
        "TASK-CAUSALITY",
        "repro.faults.recovery:FaultInjectingRunner._attempt_transfer",
        "            self._on_attempt_failed(row, on_done, attempt)\n",
        "            self._on_attempt_failed(row, on_done, attempt)\n"
        "            on_done()\n",
        cell="gpt-b/topo_2_2",
        run="flaky",
    ),
    # A straggler's stretch reaches the GPU but not the run's seconds.
    Seeded(
        "TASK-DURATION",
        "repro.faults.recovery:FaultInjectingRunner._submit_compute",
        "        self._seconds[row] *= scale\n"
        "    super()._submit_compute(unit, row, on_done)",
        "        seconds = self._seconds[row] * scale\n"
        "        stamp = self._start.__setitem__\n"
        "        unit.submit(seconds, on_done, lambda: stamp(row, self.sim.now))\n"
        "        return\n"
        "    TaskGraphRunner._submit_compute(self, unit, row, on_done)",
        cell="gpt-b/topo_2_2",
        run="straggler",
    ),
)


def _rewritten(case: Seeded):
    """``(owner, name, function)``: the target rebuilt from its edited source."""
    module_name, _, qualname = case.target.partition(":")
    module = importlib.import_module(module_name)
    *path, name = qualname.split(".")
    owner = module
    for part in path:
        owner = getattr(owner, part)
    function = vars(owner)[name]
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(case.old) == 1, (case.code, case.old)
    namespace = dict(vars(module))
    code = compile(
        source.replace(case.old, case.new),
        inspect.getsourcefile(function),
        "exec",
        flags=__future__.annotations.compiler_flag,
        dont_inherit=True,
    )
    exec(code, namespace)
    return owner, name, namespace[name]


def _findings(cell: CorpusCell, run: str) -> set[str]:
    """The codes every checker finds on one ``run`` step of ``cell``,
    planned uncached."""
    with cache_overridden(memory=False, disk=False):
        planned = plan_mobius(cell.model, cell.topology, cell.config)
    plan = planned.plan
    report = check_plan(plan, planned.cost_model)
    report.extend(check_mapping(plan.mapping, cell.topology, plan.n_stages))
    schedule = build_schedule(run, cell, 0, plan.estimated_step_seconds, plan)
    step = run_step(plan, cell.topology, planned.cost_model, schedule)
    report.extend(sanitize_run(step.tasks, step.times))
    return {finding.code for finding in report}


@pytest.fixture(autouse=True)
def _unsanitized(monkeypatch):
    monkeypatch.setattr(TaskGraphRunner, "execute", _EXECUTE)


@pytest.mark.parametrize("case", SEEDED, ids=lambda case: case.code)
def test_seeded_defect_draws_its_code(case, monkeypatch):
    cell = CELLS[case.cell]
    try:
        assert case.code not in _findings(cell, case.run)
    except PlanInfeasibleError:
        pass  # without the defect the planner refuses the cell
    owner, name, function = _rewritten(case)
    monkeypatch.setattr(owner, name, function)
    found = _findings(cell, case.run)
    assert case.code in found, found


def test_design_table_matches_the_codes():
    # Each of the 23 codes the checkers ever emitted has one DESIGN.md §8
    # row; the kept ones are exactly the codes emitted now, each seeded here.
    design = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
    rows = re.findall(
        r"^\| `((?:PLAN|MAP|TASK|TRACE)-[A-Z0-9-]+)` \|.*\| (kept|removed) \|$", design, re.M
    )
    assert len(dict(rows)) == len(rows) == 23
    sources = "".join(
        (REPO_ROOT / "src/repro/check" / name).read_text(encoding="utf-8")
        for name in ("plan_check.py", "mapping_check.py", "trace_check.py")
    )
    emitted = set(re.findall(r'"((?:PLAN|MAP|TASK|TRACE)-[A-Z0-9-]+)"', sources))
    kept = {code for code, verdict in rows if verdict == "kept"}
    assert kept == emitted == {case.code for case in SEEDED}
