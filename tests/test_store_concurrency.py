"""Concurrency tests for the result store's lifecycle operations.

The store's crash-safety contract is the atomic rewrite: every write path
(`put`, `put_many`, `compact`, `gc`) rebuilds the file in a temp sibling
and `os.replace`s it into place.  These tests exercise that contract under
concurrency — readers racing a compaction, writers racing each other
behind a lock (the `repro serve` arrangement), and rewrites that die
mid-replace via failure-injection hooks — and assert the on-disk store is
always either the old or the new contents, never a torn mix.
"""

import os
import threading

import pytest

from repro import __version__
from repro.harness.scenario import ChipSpec, DatasetSpec, Scenario
from repro.harness.store import ResultStore


def _record(name, version=__version__, *, cycles=100, seed=3):
    scenario = Scenario(
        name=name,
        dataset=DatasetSpec(vertices=20, edges=60, num_increments=2,
                            sampling="edge", seed=seed),
        chip=ChipSpec(side=4),
        algorithm="ingest",
    )
    return {
        "spec_hash": f"{name}-{version}",
        "name": name,
        "repro_version": version,
        "scenario": scenario.spec_dict(),
        "total_cycles": cycles,
        "energy": {"total_uj": 1.0, "time_us": 2.0},
    }


class TestReadersVsLifecycle:
    def test_fresh_readers_never_see_torn_store_during_compact(self, tmp_path):
        """Readers loading from disk mid-compact see old or new, never torn.

        One thread compacts/repopulates in a loop; reader threads
        continuously open fresh handles (a second process in miniature).
        A torn or partially-visible file would leave a line _load skips
        (listed in ``store.skipped``) or yield a record set that is
        neither pre- nor post-compact.
        """
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        stale = [_record("exp", "0.9.0", cycles=90),
                 _record("other", "0.9.0")]
        fresh = [_record("exp", cycles=100), _record("other")]
        store.put_many(stale + fresh)

        valid_sets = (
            {r["spec_hash"] for r in stale + fresh},  # before compact
            {r["spec_hash"] for r in fresh},          # after compact
        )
        errors = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                loaded = ResultStore(path)
                if loaded.skipped:  # torn file
                    errors.append(f"corrupt store: {loaded.skipped}")
                    return
                seen = {r["spec_hash"] for r in loaded}
                if seen not in valid_sets:
                    errors.append(f"inconsistent record set: {seen}")
                    return

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for thread in readers:
            thread.start()
        try:
            for _ in range(10):
                dropped = store.compact()
                assert {r["spec_hash"] for r in dropped} == {
                    "exp-0.9.0", "other-0.9.0"}
                store.put_many(stale)  # re-seed for the next round
        finally:
            stop.set()
            for thread in readers:
                thread.join()
        assert errors == []

    def test_fresh_readers_never_see_torn_store_during_gc(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.put_many([_record("old", "0.9.0"), _record("new")])
        valid_sets = (
            {"old-0.9.0", f"new-{__version__}"},  # before gc
            {f"new-{__version__}"},               # after gc
        )
        errors = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                loaded = ResultStore(path)
                if loaded.skipped:  # torn file
                    errors.append(f"corrupt store: {loaded.skipped}")
                    return
                seen = {r["spec_hash"] for r in loaded}
                if seen not in valid_sets:
                    errors.append(f"inconsistent record set: {seen}")
                    return

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for thread in readers:
            thread.start()
        try:
            for _ in range(10):
                dropped = store.gc()
                assert [r["spec_hash"] for r in dropped] == ["old-0.9.0"]
                store.put(_record("old", "0.9.0"))
        finally:
            stop.set()
            for thread in readers:
                thread.join()
        assert errors == []


class TestConcurrentWriters:
    def test_locked_writers_lose_no_records(self, tmp_path):
        """N threads putting distinct records behind one lock (the
        ``repro serve`` arrangement: ResultStore is atomic against crashes,
        not against in-process races, so the service serialises puts)."""
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        lock = threading.Lock()

        def writer(i):
            for j in range(5):
                with lock:
                    store.put(_record(f"w{i}-{j}"))

        threads = [threading.Thread(target=writer, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(ResultStore(path)) == 20

    def test_separate_handles_merge_on_rewrite(self, tmp_path):
        """Two handles (processes in miniature) interleaving compactions
        and puts: _merge_disk folds the other writer's records in, so a
        compact on one handle never silently drops the other's inserts."""
        path = tmp_path / "store.jsonl"
        ours = ResultStore(path)
        ours.put_many([_record("exp", "0.9.0"), _record("exp")])
        theirs = ResultStore(path)
        theirs.put(_record("theirs"))
        # Our handle compacts without having seen "theirs": the rewrite
        # keeps it because compact's rewrite path goes through the same
        # in-memory set, which _merge_disk refreshed on our last put —
        # reload to pick it up explicitly, then compact.
        ours.put(_record("ours"))
        dropped = ours.compact()
        assert [r["spec_hash"] for r in dropped] == ["exp-0.9.0"]
        final = {r["spec_hash"] for r in ResultStore(path)}
        assert final == {f"exp-{__version__}", f"theirs-{__version__}",
                         f"ours-{__version__}"}


class TestFailureInjection:
    def test_compact_failed_replace_leaves_disk_intact(self, tmp_path,
                                                       monkeypatch):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.put_many([_record("exp", "0.9.0"), _record("exp")])
        before = path.read_bytes()

        def broken_replace(src, dst):
            raise OSError("disk detached mid-replace")

        monkeypatch.setattr(os, "replace", broken_replace)
        with pytest.raises(OSError):
            store.compact()
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert list(tmp_path.glob("*.tmp")) == []
        # A fresh handle still serves the pre-compact contents and can
        # complete the compaction cleanly.
        recovered = ResultStore(path)
        assert len(recovered) == 2
        dropped = recovered.compact()
        assert [r["spec_hash"] for r in dropped] == ["exp-0.9.0"]

    def test_gc_failed_replace_leaves_disk_intact(self, tmp_path,
                                                  monkeypatch):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.put_many([_record("old", "0.9.0"), _record("new")])
        before = path.read_bytes()
        monkeypatch.setattr(
            os, "replace",
            lambda src, dst: (_ for _ in ()).throw(OSError("injected")))
        with pytest.raises(OSError):
            store.gc()
        monkeypatch.undo()
        assert path.read_bytes() == before
        recovered = ResultStore(path)
        assert {r["spec_hash"] for r in recovered} == {
            "old-0.9.0", f"new-{__version__}"}
        assert [r["spec_hash"] for r in recovered.gc()] == ["old-0.9.0"]

    def test_failed_rewrite_then_concurrent_readers_stay_consistent(
            self, tmp_path, monkeypatch):
        """Failure injection + racing readers: an injected mid-compact
        crash must be invisible to every concurrently loading reader."""
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.put_many([_record("exp", "0.9.0"), _record("exp")])
        expected = {"exp-0.9.0", f"exp-{__version__}"}
        errors = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                loaded = ResultStore(path)
                if loaded.skipped:  # torn file
                    errors.append(f"corrupt store: {loaded.skipped}")
                    return
                seen = {r["spec_hash"] for r in loaded}
                if seen != expected:
                    errors.append(f"readers saw {seen}")
                    return

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        real_replace = os.replace
        try:
            calls = {"n": 0}

            def flaky_replace(src, dst):
                calls["n"] += 1
                raise OSError("injected")

            monkeypatch.setattr(os, "replace", flaky_replace)
            for _ in range(5):
                with pytest.raises(OSError):
                    store.compact()
                # compact mutated the in-memory view; reload from disk so
                # the next attempt starts from the persisted state.
                store = ResultStore(path)
            assert calls["n"] == 5
        finally:
            monkeypatch.setattr(os, "replace", real_replace)
            stop.set()
            for thread in threads:
                thread.join()
        assert errors == []
