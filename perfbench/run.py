"""perfbench: the repo's benchmark (see perfbench/README.md).

One command runs the workloads of ``BENCHMARK.json``, each in its own
fresh child interpreter, one at a time (closed loop, one client), prints
every metric by name with unit, median, quartiles, minimum and sample
count, and checks the simulated outputs::

    python3 perfbench/run.py                       # every workload, untraced
    python3 perfbench/run.py --traced              # plus the per-layer trace pass
    python3 perfbench/run.py --workload gsm_bus_cd --seed 3 --seconds 14 --trace 0
    python3 perfbench/run.py --smoke --traced      # plumbing test, tiny sizes
    python3 perfbench/run.py --regold              # rewrite golden.json

With ``--workload`` the last stdout line is the gate's JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``): the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The exit code is non-zero when any correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

from child import host_slowdown

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
GOLDEN = os.path.join(HERE, "golden.json")
DEFAULT_SEED = 11

#: Fresh interpreters that stop right before the first run: ``setup_s``
#: is the median of their samples.
SETUP_CHILDREN = 5
#: A child that outlives this is killed (the gate allows 180 s per run).
CHILD_TIMEOUT_S = 160


def summarize(samples: List[float]) -> dict:
    """Median with its quartiles, minimum and sample count.  No percentile
    above the median is reported: none has ten samples beyond it."""
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {"median": statistics.median(samples), "q1": q1, "q3": q3,
            "min": min(samples), "n": len(samples)}


def run_child(mode: str, workload: str, options, tmp: str) -> dict:
    """Start one measuring interpreter, wait for it, parse its last line.

    The child leads its own process group, which is killed on every way
    out — a timeout, Ctrl-C, a failed rep — so no sweep or partition
    worker outlives the run.
    """
    env = dict(os.environ)
    source = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source, env.get("PYTHONPATH")]))
    # Never BENCH_kernel.json: that is the paper-figure record.
    env["REPRO_BENCH_JSON"] = os.path.join(tmp, "bench.json")
    # One source of per-process variation less (str-keyed dict layout).
    env["PYTHONHASHSEED"] = "0"
    command = [sys.executable, os.path.join(HERE, "child.py"),
               "--mode", mode, "--workload", workload,
               "--seed", str(options.seed), "--seconds", str(options.seconds),
               "--tmp", tmp]
    if options.smoke:
        command.append("--smoke")
    command += ["--t0", repr(time.time())]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, env=env,
                               cwd=ROOT, text=True, start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    if process.returncode != 0:
        raise RuntimeError(f"{workload}: {mode} child exited with "
                           f"code {process.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def golden_problems(workload: str, document: dict, options) -> List[str]:
    """At the default seed the simulated statistics equal golden.json."""
    if options.seed != DEFAULT_SEED or options.smoke or options.regold:
        return []
    with open(GOLDEN) as handle:
        golden = json.load(handle)["workloads"][workload]
    problems = []
    for key in ("signature", "twin_signature"):
        if document[key] is not None and document[key] != golden[key]:
            problems.append(f"{key} differs from golden.json")
    return problems


def measure(workload: str, contract: dict, options, trace: bool) -> dict:
    """One run of one workload: summaries, verdict, signatures."""
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    try:
        setup_s = []
        if not trace and not options.smoke:
            # Scaled to the reference host's speed like the timed reps: a
            # calibration run on either side of each set-up child.
            before = host_slowdown(1)
            for _ in range(SETUP_CHILDREN):
                raw = run_child("setup", workload, options, tmp)["setup_s"]
                after = host_slowdown(1)
                setup_s.append(raw / ((before + after) / 2))
                before = after
        document = run_child("trace" if trace else "measure", workload,
                             options, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    setup_s = setup_s or [document["setup_s"]]
    problems = document["problems"] + golden_problems(
        workload, document, options)
    end_to_end = None
    # A trace child's window is halved: its end-to-end samples only serve
    # the smoke test, which runs no other child.
    if document["samples"]["wall_s"] and (not trace or options.smoke):
        end_to_end = {
            "setup_s": summarize(setup_s),
            "wall_s": summarize(document["samples"]["wall_s"]),
            "sim_cycles_per_s": summarize(
                document["samples"]["sim_cycles_per_s"]),
            "peak_rss_mb": summarize([document["peak_rss_mb"]]),
        }
    per_layer = None
    if document["per_layer"] is not None:
        per_layer = {name: summarize(samples)
                     for name, samples in document["per_layer"].items()}
    for group, metrics in (("end_to_end", end_to_end),
                           ("per_layer", per_layer)):
        if metrics is None:
            continue
        expected = [metric["name"] for metric in contract[group]]
        if sorted(metrics) != sorted(expected):
            problems.append(f"{group} names differ from BENCHMARK.json")
        elif not all(math.isfinite(summary["median"])
                     for summary in metrics.values()):
            problems.append(f"a {group} metric is not finite")
    return {"workload": workload, "end_to_end": end_to_end,
            "per_layer": per_layer, "problems": problems,
            "raw_wall_s": summarize(document["raw_wall_s"] or [0]),
            "host_slowdown": summarize(document["host_slowdown"] or [0]),
            "correct": not problems and document["failed"] == 0,
            "attempted": document["attempted"], "failed": document["failed"],
            "signature": document["signature"],
            "twin_signature": document["twin_signature"]}


def print_table(result: dict, group: str, contract: dict) -> None:
    print(f"\n== {result['workload']} · {group} "
          f"({result['attempted']} reps attempted, {result['failed']} failed)")
    print(f"{'metric':44}{'unit':>10}{'median':>16}{'q1':>16}{'q3':>16}"
          f"{'min':>16}{'n':>5}")
    for metric in contract[group]:
        summary = result[group].get(metric["name"])
        if summary is None:  # reported as a problem by measure()
            continue
        print(f"{metric['name']:44}{metric['unit']:>10}"
              + "".join(f"{summary[key]:>16.6g}"
                        for key in ("median", "q1", "q3", "min"))
              + f"{summary['n']:>5}")
    if group == "end_to_end":
        raw, slowdown = result["raw_wall_s"], result["host_slowdown"]
        print(f"(stopwatch wall_s median {raw['median']:.6g} s; this host ran "
              f"the calibration kernel at x{slowdown['median']:.3f} its "
              f"nominal time, q1-q3 x{slowdown['q1']:.3f}-x{slowdown['q3']:.3f})")


def gate_line(result: dict, group: str, contract: dict) -> str:
    """The JSON object the gate reads from the last stdout line."""
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {metric["name"]: {
            "value": result[group][metric["name"]]["median"],
            "unit": metric["unit"]} for metric in contract[group]},
    })


def source_tree_changes() -> Optional[str]:
    """Uncommitted changes under src/, or why they cannot be listed."""
    try:
        status = subprocess.run(
            ["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
            capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError) as exc:
        return f"cannot ask git about src/: {exc}"
    return status.stdout.strip() or None


def main() -> int:
    # SIGTERM unwinds like Ctrl-C, so run_child's `finally` reaps the group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    names = [workload["name"] for workload in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload and end with the gate's JSON line")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"],
                        help="length of the timed window of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the gate's line carries the per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="also run the per-layer trace pass")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, 2 reps: a plumbing test, not a measurement")
    parser.add_argument("--regold", action="store_true",
                        help="rewrite golden.json from this source tree")
    options = parser.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: src/repro is missing; nothing to measure",
              file=sys.stderr)
        return 2
    if options.regold:
        changes = source_tree_changes()
        if changes:
            print(f"perfbench: --regold refused, src/ is not clean:\n{changes}",
                  file=sys.stderr)
            return 2
        options.seed, options.seconds = DEFAULT_SEED, 0

    gate = options.workload is not None
    if options.trace or options.smoke or options.regold:
        passes = [True]  # the trace child alone
    else:
        passes = [False, True] if options.traced else [False]
    results: Dict[str, dict] = {}
    for workload in [options.workload] if gate else names:
        merged: dict = {"correct": True, "end_to_end": None, "per_layer": None}
        for trace in passes:
            result = measure(workload, contract, options, trace)
            for group in ("end_to_end", "per_layer"):
                if result[group] is not None:
                    print_table(result, group, contract)
            for problem in result["problems"]:
                print(f"PROBLEM {workload}: {problem}")
            sys.stdout.flush()
            result["correct"] = result["correct"] and merged["correct"]
            merged.update({key: value for key, value in result.items()
                           if value is not None})
        results[workload] = merged

    correct = all(result["correct"] for result in results.values())
    if options.regold and correct:
        with open(GOLDEN, "w") as handle:
            json.dump({"seed": DEFAULT_SEED, "workloads": {
                workload: {"signature": result["signature"],
                           "twin_signature": result.get("twin_signature")}
                for workload, result in results.items()}}, handle, indent=2)
            handle.write("\n")
        print(f"wrote {GOLDEN}")
    if gate:
        group = "per_layer" if options.trace else "end_to_end"
        if results[options.workload][group] is None:
            return 1  # no rep produced a result: there is nothing to print
        print(gate_line(results[options.workload], group, contract))
    else:
        print(json.dumps({"correct": correct, "workloads": {
            workload: {group: result[group]
                       for group in ("correct", "attempted", "failed",
                                     "end_to_end", "per_layer")}
            for workload, result in results.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
