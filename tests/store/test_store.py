"""ResultStore semantics: round trips, corruption tolerance, schema."""

import os
import sqlite3

import pytest

from repro.api import ExperimentRunner, PlatformBuilder, Scenario
from repro.store import SCHEMA_VERSION, ResultStore


def _result(name="point", samples=8):
    config = PlatformBuilder().pes(1).wrapper_memories(1).build()
    scenario = Scenario(name=name, config=config, workload="fir",
                        params={"num_samples": samples, "seed": 3}, seed=42)
    return scenario, ExperimentRunner([scenario]).run()[0]


class TestRoundTrip:
    def test_put_get_round_trip(self, tmp_path):
        scenario, result = _result()
        with ResultStore(str(tmp_path / "s.sqlite")) as store:
            key = scenario.cache_key()
            store.put(key, result, workload="fir")
            loaded = store.get(key)
        assert loaded is not None
        assert loaded.scenario == result.scenario
        assert loaded.passed
        assert loaded.report.as_dict() == result.report.as_dict()
        assert loaded.platform is None
        assert loaded.cached is False  # provenance set by the runner, not stored

    def test_round_trip_survives_reopen(self, tmp_path):
        scenario, result = _result()
        path = str(tmp_path / "s.sqlite")
        key = scenario.cache_key()
        with ResultStore(path) as store:
            store.put(key, result)
        with ResultStore(path) as store:
            assert key in store
            assert len(store) == 1
            assert store.get(key).report.as_dict() == result.report.as_dict()

    def test_miss_returns_none_and_counts(self, tmp_path):
        with ResultStore(str(tmp_path / "s.sqlite")) as store:
            assert store.get("0" * 64) is None
            assert store.stats["misses"] == 1

    def test_put_overwrites(self, tmp_path):
        scenario, first = _result(samples=8)
        _, second = _result(samples=12)
        with ResultStore(str(tmp_path / "s.sqlite")) as store:
            key = scenario.cache_key()
            store.put(key, first)
            store.put(key, second)
            assert len(store) == 1
            assert (store.get(key).report.as_dict()
                    == second.report.as_dict())

    def test_invalidate(self, tmp_path):
        scenario, result = _result()
        with ResultStore(str(tmp_path / "s.sqlite")) as store:
            key = scenario.cache_key()
            store.put(key, result)
            assert store.invalidate(key) == 1
            assert store.get(key) is None
            store.put(key, result)
            store.put("f" * 64, result)
            assert store.invalidate() == 2
            assert len(store) == 0

    def test_rows_summarize_without_unpickling(self, tmp_path):
        scenario, result = _result()
        with ResultStore(str(tmp_path / "s.sqlite")) as store:
            store.put(scenario.cache_key(), result, workload="fir")
            [row] = store.rows()
        assert row["scenario"] == "point"
        assert row["workload"] == "fir"
        assert row["passed"] is True
        assert row["simulated_cycles"] == result.report.simulated_cycles
        assert row["hits"] == 0

    def test_hit_counter_persists(self, tmp_path):
        scenario, result = _result()
        path = str(tmp_path / "s.sqlite")
        key = scenario.cache_key()
        with ResultStore(path) as store:
            store.put(key, result)
            store.get(key)
            store.get(key)
        with ResultStore(path) as store:
            assert store.rows()[0]["hits"] == 2


class TestJournal:
    def test_journal_mode_is_wal(self, tmp_path):
        with ResultStore(str(tmp_path / "s.sqlite")) as store:
            [mode] = store._conn.execute("PRAGMA journal_mode").fetchone()
        assert mode == "wal"

    def test_close_folds_the_log_into_the_store_file(self, tmp_path):
        scenario, result = _result()
        path = str(tmp_path / "s.sqlite")
        with ResultStore(path) as store:
            store.put(scenario.cache_key(), result)
            assert os.path.exists(path + "-wal")
        assert not os.path.exists(path + "-wal")
        conn = sqlite3.connect(path)
        assert conn.execute("SELECT COUNT(*) FROM results").fetchone()[0] == 1
        conn.close()


class TestCorruptionTolerance:
    def test_corrupt_payload_row_is_a_miss(self, tmp_path):
        scenario, result = _result()
        path = str(tmp_path / "s.sqlite")
        key = scenario.cache_key()
        with ResultStore(path) as store:
            store.put(key, result)
        conn = sqlite3.connect(path)
        conn.execute("UPDATE results SET payload = ?", (b"not a pickle",))
        conn.commit()
        conn.close()
        with ResultStore(path) as store:
            assert store.get(key) is None
            assert store.stats["corrupt"] == 1
            # The bad row was dropped: a fresh put repairs the entry.
            store.put(key, result)
            assert store.get(key) is not None

    def test_foreign_pickle_globals_are_rejected(self, tmp_path):
        import pickle

        scenario, result = _result()
        path = str(tmp_path / "s.sqlite")
        key = scenario.cache_key()
        with ResultStore(path) as store:
            store.put(key, result)
        evil = pickle.dumps(os.getcwd)  # callable outside repro.*
        conn = sqlite3.connect(path)
        conn.execute("UPDATE results SET payload = ?", (evil,))
        conn.commit()
        conn.close()
        with ResultStore(path) as store:
            assert store.get(key) is None
            assert store.stats["corrupt"] == 1

    def test_dangerous_builtins_are_rejected(self, tmp_path):
        import builtins
        import pickle

        from repro.store.store import _restricted_loads

        for name in ("eval", "exec", "getattr", "__import__", "open"):
            evil = pickle.dumps(getattr(builtins, name))
            with pytest.raises(pickle.UnpicklingError, match="forbidden"):
                _restricted_loads(evil)

    def test_safe_builtin_containers_still_load(self, tmp_path):
        import pickle

        from repro.store.store import _restricted_loads

        payload = {"a": frozenset({1, 2}), "b": (3, [4]), "c": bytearray(b"x")}
        assert _restricted_loads(pickle.dumps(payload)) == payload

    def test_non_database_file_is_rebuilt(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        with open(path, "w") as handle:
            handle.write("this is not a database")
        with ResultStore(path) as store:
            assert len(store) == 0
            assert store.stats["corrupt"] == 1
        assert os.path.exists(path + ".corrupt")

    def test_other_schema_version_reads_empty(self, tmp_path):
        scenario, result = _result()
        path = str(tmp_path / "s.sqlite")
        with ResultStore(path) as store:
            store.put(scenario.cache_key(), result)
        conn = sqlite3.connect(path)
        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
        conn.commit()
        conn.close()
        with ResultStore(path) as store:
            assert len(store) == 0  # rebuilt, old rows invisible
            assert store.get(scenario.cache_key()) is None
