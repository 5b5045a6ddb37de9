"""Tests of the exact ledger comparator (repro.analysis.bench_compare).

The gate must be able to fail: one counter off by one, a row on one side
only, changed ``params`` and an unusable file each give a non-zero exit
that names what differed.
"""

import copy
import filecmp
import json

import pytest

from repro.analysis.bench_compare import (
    compare_bench_entries,
    compare_bench_files,
    format_comparison,
    main,
)
from repro.api import ExperimentRunner, PerfRecorder, PlatformBuilder, Scenario
from repro.api.perf import LEDGER_FIELDS, SCHEMA


def entry(scenario, params=None, **fields):
    row = {"bench": "e", "scenario": scenario, "params": params or {}}
    row.update(dict.fromkeys(LEDGER_FIELDS, 0), **fields)
    return row


ENTRIES = {
    "e/a": entry("a", {"seed": 7}, simulated_cycles=100,
                 process_activations=40),
    "e/b": entry("b", simulated_cycles=5),
}


def write_ledger(path, entries):
    payload = {"schema": SCHEMA, "count": len(entries), "entries": entries}
    path.write_text(json.dumps(payload))
    return str(path)


def mutated(**changes):
    entries = copy.deepcopy(ENTRIES)
    entries["e/a"].update(changes)
    return entries


class TestCompare:
    def test_equal_ledgers_have_no_rows(self):
        assert compare_bench_entries(ENTRIES, copy.deepcopy(ENTRIES)) == []
        assert format_comparison([]) == "ledgers match"

    def test_one_counter_off_by_one(self):
        rows = compare_bench_entries(ENTRIES, mutated(process_activations=41))
        assert rows == [{"key": "e/a", "status": "changed",
                         "field": "process_activations", "old": 40, "new": 41}]
        assert format_comparison(rows) == "e/a: process_activations 40 → 41"

    def test_every_ledger_field_is_compared(self):
        changed = mutated(**{name: 9 for name in LEDGER_FIELDS})
        rows = compare_bench_entries(ENTRIES, changed)
        assert [row["field"] for row in rows] == list(LEDGER_FIELDS)

    def test_same_key_different_params(self):
        rows = compare_bench_entries(ENTRIES, mutated(params={"seed": 8}))
        assert [(row["key"], row["field"]) for row in rows] == [
            ("e/a", "params")]

    def test_added_and_removed_rows_sorted_by_key(self):
        new = {"e/b": ENTRIES["e/b"], "e/c": entry("c"), "a/first": entry("f")}
        rows = compare_bench_entries(ENTRIES, new)
        assert [(row["key"], row["status"]) for row in rows] == [
            ("a/first", "added"), ("e/a", "removed"), ("e/c", "added")]
        assert format_comparison(rows).splitlines() == [
            "a/first: added", "e/a: removed", "e/c: added"]

    def test_compare_files_round_trip(self, tmp_path):
        old = write_ledger(tmp_path / "old.json", ENTRIES)
        new = write_ledger(tmp_path / "new.json", mutated(delta_cycles=3))
        [row] = compare_bench_files(old, new)
        assert (row["field"], row["old"], row["new"]) == ("delta_cycles", 0, 3)


class TestCli:
    def test_matching_ledgers_exit_zero(self, tmp_path, capsys):
        old = write_ledger(tmp_path / "old.json", ENTRIES)
        new = write_ledger(tmp_path / "new.json", copy.deepcopy(ENTRIES))
        assert main([old, new]) == 0
        assert "ledgers match" in capsys.readouterr().out

    @pytest.mark.parametrize("new_entries, named", [
        (mutated(timed_steps=1), "e/a: timed_steps 0 → 1"),
        (mutated(params={"seed": 8}), "e/a: params"),
        ({"e/a": ENTRIES["e/a"]}, "e/b: removed"),
        (dict(ENTRIES, **{"e/c": entry("c")}), "e/c: added"),
    ], ids=["counter", "params", "removed", "added"])
    def test_any_difference_exits_one_and_is_named(self, tmp_path, capsys,
                                                   new_entries, named):
        old = write_ledger(tmp_path / "old.json", ENTRIES)
        new = write_ledger(tmp_path / "new.json", new_entries)
        assert main([old, new]) == 1
        assert named in capsys.readouterr().out

    @pytest.mark.parametrize("content", [None, "", "{}", "[]"],
                             ids=["missing", "empty-file", "no-schema", "list"])
    @pytest.mark.parametrize("bad_side", ["old", "new"])
    def test_unusable_file_on_either_side_exits_two(self, tmp_path, capsys,
                                                    content, bad_side):
        paths = {"old": tmp_path / "old.json", "new": tmp_path / "new.json"}
        for side, path in paths.items():
            if side != bad_side:
                write_ledger(path, ENTRIES)
            elif content is not None:
                path.write_text(content)
        assert main([str(paths["old"]), str(paths["new"])]) == 2
        assert str(paths[bad_side]) in capsys.readouterr().err

    def test_ledger_without_rows_exits_two(self, tmp_path):
        old = write_ledger(tmp_path / "old.json", ENTRIES)
        new = write_ledger(tmp_path / "new.json", {})
        assert main([old, new]) == 2

    def test_takes_no_metric_or_threshold(self, tmp_path):
        old = write_ledger(tmp_path / "old.json", ENTRIES)
        for option in ("--metric", "--fail-threshold"):
            with pytest.raises(SystemExit) as exited:
                main([old, old, option, "0.5"])
            assert exited.value.code == 2


def test_two_regenerations_are_byte_identical(tmp_path):
    """Every field is deterministic: the same scenarios recorded into two
    empty files give the same bytes, whatever each run's host time was."""
    def regenerate(path):
        scenarios = [Scenario(
            name=f"fir-{samples}",
            config=PlatformBuilder().pes(2).wrapper_memories(1).build(),
            workload="fir", params={"num_samples": samples, "seed": 3}, seed=1,
        ) for samples in (8, 16)]
        recorder = PerfRecorder("regen", path=str(path))
        for result in ExperimentRunner(scenarios, recorder=recorder).run():
            result.raise_for_status()
        micro = PerfRecorder("micro", path=str(path))
        micro.record_cycles("trace", 123)
        micro.flush()
        return str(path)

    first = regenerate(tmp_path / "first.json")
    second = regenerate(tmp_path / "second.json")
    assert main([first, second]) == 0
    assert filecmp.cmp(first, second, shallow=False)
