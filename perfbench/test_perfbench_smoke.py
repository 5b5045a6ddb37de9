"""Tier-1 smoke test of perfbench: plumbing, not measurement.

``run.py --smoke`` runs all eight workloads plus their trace pass at tiny
sizes (one child interpreter each, 2 timed reps).  The test holds the run
to the contract in ``BENCHMARK.json``: same metric names, every value
finite with its unit, nothing failed, one loadable trace file per
workload — and to the layer separation the workloads were chosen for,
which already shows at smoke size.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    CONTRACT = json.load(_handle)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def _last_json(done):
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_smoke_run_prints_every_metric_of_the_contract():
    done = _run("--smoke")
    summary = _last_json(done)
    assert summary["correct"] is True
    assert list(summary["workloads"]) == [
        workload["name"] for workload in CONTRACT["workloads"]]
    printed = done.stdout.splitlines()
    for name, result in summary["workloads"].items():
        assert result["correct"] and result["failed"] == 0, name
        assert result["attempted"] >= 2, name
        for group in ("end_to_end", "per_layer"):
            assert set(result[group]) == {
                metric["name"] for metric in CONTRACT[group]}, (name, group)
            for metric in CONTRACT[group]:
                summary_row = result[group][metric["name"]]
                assert summary_row["n"] >= 1
                assert all(math.isfinite(summary_row[key])
                           for key in ("median", "q1", "q3", "min")), (
                    name, metric["name"])
                assert any(line.split()[:2] == [metric["name"], metric["unit"]]
                           for line in printed), metric["name"]
        # The gate rejects an end-to-end metric that reads 0.
        assert all(row["median"] > 0
                   for row in result["end_to_end"].values()), name
        with open(os.path.join(HERE, "out", f"trace-{name}.json")) as handle:
            events = json.load(handle)["traceEvents"]
        assert {"import", "build_config"} <= {event["name"] for event in events}
        assert all("run_id" in event["args"] for event in events)

    def layer(workload, metric):
        return summary["workloads"][workload]["per_layer"][metric]["median"]

    # Each layer has a workload that uses it and one that bypasses it.
    assert layer("stencil_mesh_flat", "noc.self_s") > 0
    assert layer("stencil_mesh_flat", "cache.self_s") == 0
    assert layer("stencil_xbar_l1wb", "cache.self_s") > 0
    assert layer("stencil_xbar_l1wb", "noc.self_s") == 0
    for name in summary["workloads"]:
        hooks = layer(name, "check.self_s") + layer(name, "obs.self_s")
        assert (hooks > 0) == (name == "stencil_mesh_probed"), name
    assert layer("stencil_mesh_flat", "ladder.bus_flat.host_us_per_api_call") > 0
    assert layer("gsm_bus_cd", "soc.m4_over_m1_speed_ratio") > 0
    assert layer("churn_bus_wrapper", "wrapper.allocs") > 0
    assert layer("churn_bus_wrapper", "memory.modeled_over_wrapper_host_ratio") > 0
    assert layer("pdes_mesh_p2", "pdes.rounds") > 0
    assert layer("pdes_mesh_p2", "pdes.boundary_messages") == 0
    assert layer("sweep_store", "store.misses") == 24
    assert layer("sweep_store", "store.hits") == 24
    assert layer("sweep_store_warm", "store.hits") == 24
    assert layer("sweep_store_warm", "warm_scenarios_per_s") > 0


def test_gate_line_and_refusal_outside_a_checkout(tmp_path):
    line = _last_json(_run("--smoke", "--workload", "stencil_xbar_l1wb",
                           "--seed", "5", "--seconds", "1", "--trace", "0"))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert {name: metric["unit"] for name, metric in line["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in CONTRACT["end_to_end"]}

    # With only BENCHMARK.json and perfbench/ there is nothing to measure:
    # a non-zero exit and no result line.
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("--workload", "gsm_bus_cd", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout.strip() == ""
