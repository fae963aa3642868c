"""Tests for the experiment orchestrator, result cache and artifacts."""

import builtins
import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments import ABLATIONS, ALL_EXPERIMENTS, artifacts, orchestrator
from repro.experiments.cache import ResultCache, config_digest, source_digest

#: a cheap cross-section: two figures, one table, one ablation
SUBSET = ["table1", "fig12", "area", "hybrid-block"]


class TestRegistry:
    def test_matches_package_tables(self):
        experiments = set(orchestrator.names("experiment"))
        ablations = set(orchestrator.names("ablation"))
        assert experiments == set(ALL_EXPERIMENTS)
        assert ablations == set(ABLATIONS)

    def test_specs_load_the_same_modules(self):
        for name, module in ALL_EXPERIMENTS.items():
            assert orchestrator.REGISTRY[name].load() is module
        for name, module in ABLATIONS.items():
            assert orchestrator.REGISTRY[name].load() is module

    def test_every_module_has_the_records_interface(self):
        for name in orchestrator.REGISTRY:
            module = orchestrator.REGISTRY[name].load()
            assert callable(module.run), name
            assert callable(module.format_results), name
            assert callable(module.to_records), name


class TestRunMany:
    def test_parallel_records_identical_to_serial(self):
        serial = orchestrator.run_many(SUBSET, fast=True, jobs=1)
        parallel = orchestrator.run_many(SUBSET, fast=True, jobs=4)
        assert [r.name for r in parallel] == SUBSET
        serial_bytes = artifacts.dumps_canonical([r.records for r in serial])
        parallel_bytes = artifacts.dumps_canonical(
            [r.records for r in parallel]
        )
        assert serial_bytes == parallel_bytes
        assert all(not r.from_cache for r in serial + parallel)

    def test_serial_results_carry_rows(self):
        result = orchestrator.run_many(["table1"], fast=True)[0]
        assert result.rows is not None
        assert result.records == orchestrator.REGISTRY["table1"].load(
        ).to_records(result.rows)


class TestCache:
    def test_second_run_hits_cache_without_recompute(self, tmp_path):
        cache = ResultCache(tmp_path)
        computed = []
        first = orchestrator.run_experiment(
            "table1", fast=True, cache=cache, on_compute=computed.append
        )
        assert computed == ["table1"] and not first.from_cache
        second = orchestrator.run_experiment(
            "table1", fast=True, cache=cache, on_compute=computed.append
        )
        assert computed == ["table1"], "cache hit must not recompute"
        assert second.from_cache
        assert second.records == first.records
        assert second.text == first.text
        assert cache.stats.hits == 1 and cache.stats.stores == 1

    def test_run_many_warm_batch_never_computes(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = orchestrator.run_many(SUBSET, fast=True, jobs=2, cache=cache)
        computed = []
        warm = orchestrator.run_many(
            SUBSET, fast=True, jobs=2, cache=cache, on_compute=computed.append
        )
        assert computed == []
        assert all(r.from_cache for r in warm)
        assert [r.records for r in warm] == [r.records for r in cold]

    def test_config_digest_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        computed = []
        kwargs_a = {"max_accesses": 2_000}
        kwargs_b = {"max_accesses": 4_000}
        orchestrator.run_experiment("fig1", fast=True, cache=cache,
                                    run_kwargs=kwargs_a,
                                    on_compute=computed.append)
        orchestrator.run_experiment("fig1", fast=True, cache=cache,
                                    run_kwargs=kwargs_b,
                                    on_compute=computed.append)
        assert computed == ["fig1", "fig1"], (
            "a changed config digest must recompute"
        )
        src = source_digest()
        key_a = cache.key_for("fig1", True, src, config_digest(kwargs_a))
        key_b = cache.key_for("fig1", True, src, config_digest(kwargs_b))
        assert key_a != key_b

    def test_fast_flag_is_part_of_the_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        src, cfg = source_digest(), config_digest({})
        assert cache.key_for("x", True, src, cfg) != cache.key_for(
            "x", False, src, cfg
        )

    def test_source_digest_tracks_content(self, tmp_path):
        tree = tmp_path / "pkg"
        tree.mkdir()
        (tree / "a.py").write_text("x = 1\n")
        before = source_digest(tree)
        assert before == source_digest(tree)  # memoized, stable
        (tree / "a.py").write_text("x = 2\n")
        # the memo revalidates against an mtime/size fingerprint on
        # every call, so a long-lived process sees the edit without any
        # manual invalidation (this used to require clearing the memo)
        after_edit = source_digest(tree)
        assert after_edit != before
        (tree / "b.py").write_text("y = 3\n")
        assert source_digest(tree) != after_edit  # new file invalidates too

    def test_source_digest_memo_survives_untouched_tree(self, tmp_path):
        from repro.experiments import cache as cache_module

        tree = tmp_path / "pkg"
        tree.mkdir()
        (tree / "a.py").write_text("x = 1\n")
        first = source_digest(tree)
        fingerprint, digest = cache_module._source_digests[tree]
        # repeat calls with an untouched tree serve the memo (stat-only
        # revalidation), they do not re-hash into a new entry
        assert source_digest(tree) == first
        assert cache_module._source_digests[tree] == (fingerprint, digest)

    @staticmethod
    def _ordering_trap_tree(tmp_path):
        tree = tmp_path / "pkg"
        (tree / "a" / "sub").mkdir(parents=True)
        (tree / "__pycache__").mkdir()
        (tree / "a" / "__pycache__").mkdir()
        (tree / "a.py").write_text("a = 1\n")
        (tree / "a" / "b.py").write_text("b = 2\n")
        (tree / "a" / "sub" / "deep.py").write_text("deep = 3\n")
        (tree / "a_b.py").write_text("a_b = 4\n")
        (tree / "A.py").write_text("A = 5\n")
        (tree / "__pycache__" / "x.py").write_text("skipped\n")
        (tree / "a" / "__pycache__" / "y.py").write_text("skipped\n")
        (tree / "notes.txt").write_text("not python\n")
        return tree

    def test_source_digest_matches_rglob_reference(self, tmp_path):
        tree = self._ordering_trap_tree(tmp_path)
        # the pathlib recipe the scandir walk replaces: component-wise
        # sort, so "a.py" < "a/b.py" < "a_b.py" (a joined-string sort
        # would put "a/b.py" first)
        reference = hashlib.sha256()
        for path in sorted(tree.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            reference.update(str(path.relative_to(tree)).encode())
            reference.update(b"\0")
            reference.update(path.read_bytes())
            reference.update(b"\0")
        assert source_digest(tree) == reference.hexdigest()

    def test_source_digest_sees_nested_edit_delete_and_rename(self, tmp_path):
        tree = self._ordering_trap_tree(tmp_path)
        seen = [source_digest(tree)]
        (tree / "a" / "sub" / "deep.py").write_text("deep = 33\n")
        seen.append(source_digest(tree))
        (tree / "a_b.py").unlink()
        seen.append(source_digest(tree))
        (tree / "a" / "b.py").rename(tree / "a" / "c.py")
        seen.append(source_digest(tree))
        assert len(set(seen)) == len(seen)

    def test_warm_source_digest_reads_no_file_content(self, tmp_path,
                                                      monkeypatch):
        tree = self._ordering_trap_tree(tmp_path)
        first = source_digest(tree)

        def no_reads(*args, **kwargs):
            raise AssertionError("warm revalidation read file content")

        with monkeypatch.context() as patch:
            patch.setattr(builtins, "open", no_reads)
            patch.setattr(Path, "read_bytes", no_reads)
            # stat-only revalidation: the warm repeat never opens a file
            assert source_digest(tree) == first
            # ...while a changed tree does re-read, so the patch bites
            (tree / "a.py").write_text("a = 11\n")
            with pytest.raises(AssertionError, match="read file content"):
                source_digest(tree)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for("x", True, "s", "c")
        cache.path_for(key).parent.mkdir(parents=True)
        cache.path_for(key).write_text("{not json")
        assert cache.load(key) is None
        assert cache.stats.misses == 1


class TestArtifacts:
    def test_batch_layout_and_schema(self, tmp_path):
        results = orchestrator.run_many(["table1", "hybrid-block"], fast=True)
        manifest_path = artifacts.write_batch(tmp_path, results, jobs=1)
        manifest = json.loads(manifest_path.read_text())
        assert [e["name"] for e in manifest["experiments"]] == [
            "table1", "hybrid-block",
        ]
        document = json.loads((tmp_path / "table1.json").read_text())
        assert document["experiment"] == "table1"
        assert document["kind"] == "experiment"
        assert document["fast"] is True
        assert document["records"] == results[0].records
        csv_lines = (tmp_path / "table1.csv").read_text().splitlines()
        assert csv_lines[0].split(",")[0] == "architecture"
        assert len(csv_lines) == 1 + len(results[0].records)

    def test_csv_header_is_key_union(self):
        header = artifacts.csv_header([{"a": 1, "b": 2}, {"a": 3, "c": 4}])
        assert header == ["a", "b", "c"]


class TestSweep:
    def test_records_shape(self):
        records = orchestrator.sweep_records(
            sizes=(32,), shapes=((16, 24, 32),), methods=("camp8",),
            machines=("a64fx",),
        )
        assert len(records) == 2
        assert records[0]["baseline"] == "openblas-fp32"
        assert records[0]["speedup"] > 1.0
        assert records[1]["shape"] == "16x24x32"

    def test_sweep_is_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        params = dict(sizes=(32,), methods=("camp8",), machines=("a64fx",))
        cold = orchestrator.run_sweep(cache=cache, **params)
        warm = orchestrator.run_sweep(cache=cache, **params)
        assert not cold.from_cache and warm.from_cache
        assert warm.records == cold.records

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            orchestrator.sweep_records(sizes=(), shapes=())
