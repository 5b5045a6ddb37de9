"""Probe-output regression gate: what the sanitizers and the tracer report.

``golden_probe_outputs.json`` holds, for fixed-seed probed runs, the
sanitizer reports (file paths repo-relative) and, for one run per
topology, the SHA-256 of the exported Chrome trace.  The platform is 4 PEs,
2 wrapper memories, an IRQ controller and 2 DMA engines with
``.sanitize().trace().metrics(50)`` at seed 11, on the shared bus, the
crossbar and a 2x2 mesh.  The workloads are ``matmul`` (7 data races), the
``drop_doorbell`` and ``drop_release`` stress mutants (2 findings each),
``producer_consumer_irq`` and ``stencil`` (none).

The probes only observe, and how cheaply they observe is theirs to change:
every report and every trace byte must stay as recorded.  Re-record only
for a deliberate change to what a checker or the tracer reports, with the
reason in the commit message::

    PYTHONPATH=src python tests/check/test_probe_outputs_golden.py

The tracebacks name workload and library source lines, so editing a line
on a traced ``yield from`` chain (a workload, ``wrapper/api.py``,
``fabric/port.py``, ``sw/task_processor.py``) re-records too.  The golden
was recorded on CPython 3.11; which line of a multi-line ``yield from``
a suspended frame reports is the interpreter's choice, so other versions
compare every traceback without its line numbers.
"""

import hashlib
import json
import os
import sys

import pytest

from repro.api import PlatformBuilder
from repro.obs.export import chrome_trace
from repro.soc import Platform
from repro.sw.registry import workload

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden_probe_outputs.json")

TOPOLOGIES = {
    "bus": lambda builder: builder,
    "crossbar": lambda builder: builder.crossbar(),
    "mesh": lambda builder: builder.mesh(2, 2),
}

WORKLOADS = {
    "matmul": {},
    "stress_irq_handoff": {"mutate": "drop_doorbell"},
    "stress_locked_handoff": {"mutate": "drop_release"},
    "producer_consumer_irq": {},
    "stencil": {},
}

#: The run per topology whose exported trace is pinned.
TRACED = "producer_consumer_irq"

CELLS = [f"{topology}-{name}" for topology in TOPOLOGIES for name in WORKLOADS]


def _relative(reports):
    for report in reports:
        for site in report["sites"]:
            site["traceback"] = [
                [os.path.relpath(filename, REPO_ROOT), line, function]
                for filename, line, function in site["traceback"]]
    return reports


def _exported(trace) -> str:
    """The trace as ``repro.obs.export.write_trace`` writes it."""
    return json.dumps(chrome_trace(trace), indent=1) + "\n"


def probe_outputs():
    observed = {}
    for topology, shape in TOPOLOGIES.items():
        for name, params in WORKLOADS.items():
            builder = (PlatformBuilder().pes(4).wrapper_memories(2)
                       .irq_controller().dma(2))
            config = shape(builder).sanitize().trace().metrics(50).build()
            inst = workload.create(name, config, seed=11, **params)
            platform = Platform(config)
            platform.add_tasks(inst.tasks)
            report = platform.run()
            cell = {"sanitizer_reports": _relative(report.sanitizer_reports)}
            if name == TRACED:
                cell["chrome_trace_sha256"] = hashlib.sha256(
                    _exported(platform.obs.trace).encode()).hexdigest()
            observed[f"{topology}-{name}"] = cell
    return observed


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def observed():
    return probe_outputs()


def test_golden_covers_every_run(golden, observed):
    assert list(golden) == CELLS
    assert list(observed) == CELLS


def test_findings_are_the_planted_ones(observed):
    for topology in TOPOLOGIES:
        counts = {name: len(observed[f"{topology}-{name}"]
                            ["sanitizer_reports"]) for name in WORKLOADS}
        assert counts == {"matmul": 7, "stress_irq_handoff": 2,
                          "stress_locked_handoff": 2,
                          "producer_consumer_irq": 0, "stencil": 0}


def _lineless(cell):
    """A copy of ``cell`` whose traceback frames carry no line number."""
    cell = json.loads(json.dumps(cell))
    for report in cell["sanitizer_reports"]:
        for site in report["sites"]:
            site["traceback"] = [[filename, function] for filename, _line,
                                 function in site["traceback"]]
    return cell


@pytest.mark.parametrize("cell", CELLS)
def test_probe_outputs_match_golden(cell, golden, observed):
    want, got = golden[cell], observed[cell]
    if sys.version_info[:2] != (3, 11):
        want, got = (_lineless(outputs) for outputs in (want, got))
    assert got == want
    # Dict equality ignores key order; the serialised form does not.
    assert json.dumps(got) == json.dumps(want)


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(probe_outputs(), handle, indent=1)
        handle.write("\n")
