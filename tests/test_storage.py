"""The persisted columnar store: roundtrip identity, catalog pruning,
lazy cold start, typed corruption errors, and the zero-copy contract
(batch query paths must not materialize ``Trajectory`` objects for
anything but accepted results).
"""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

from repro.core.config import DITAConfig
from repro.core.engine import DITAEngine
from repro.core.knn import knn_search
from repro.core.search import SearchStats
from repro.datagen import beijing_like, sample_queries
from repro.storage.columnar import ColumnarDataset, partition_rows
from repro.storage.store import (
    CATALOG_NAME,
    STORAGE_FORMAT_VERSION,
    ChecksumError,
    CorruptBlockError,
    SchemaVersionError,
    StorageError,
    TrajectoryStore,
    build_store,
)

N_GROUPS = 4
ADAPTERS = ["dtw", "frechet", "edr", "lcss", "erp", "hausdorff"]


@pytest.fixture(scope="module")
def data():
    return ColumnarDataset.from_trajectories(beijing_like(80, seed=3))


@pytest.fixture()
def store(data, tmp_path):
    return build_store(data, tmp_path / "store", n_groups=N_GROUPS)


# --------------------------------------------------------------------- #
# roundtrip
# --------------------------------------------------------------------- #


class TestRoundtrip:
    def test_blocks_bit_identical_to_source_partitions(self, data, store):
        groups = [rows for rows in partition_rows(data, N_GROUPS) if rows.shape[0]]
        assert len(store.metas) == len(groups)
        for pid, rows in enumerate(groups):
            want = data.subset(rows)
            got = store.partition(pid)
            assert got.traj_ids.dtype == np.int64
            assert got.point_coords.dtype == np.float64
            assert np.array_equal(got.traj_ids, want.traj_ids)
            assert np.array_equal(got.point_starts, want.point_starts)
            assert np.array_equal(got.point_coords, want.point_coords)
            assert np.array_equal(got.firsts, want.firsts)
            assert np.array_equal(got.lasts, want.lasts)
            assert np.array_equal(got.mbr_lows, want.mbr_lows)
            assert np.array_equal(got.mbr_highs, want.mbr_highs)

    def test_blocks_are_memory_mapped(self, store):
        def mmap_backed(arr):
            a = arr
            while a is not None:
                if isinstance(a, np.memmap):
                    return True
                a = a.base
            return False

        part = store.partition(0)
        assert mmap_backed(part.point_coords)
        assert mmap_backed(part.traj_ids)
        assert mmap_backed(part.firsts)  # summaries come from disk, not recompute

    def test_catalog_counts(self, data, store):
        assert store.n_trajectories == len(data)
        assert store.n_points == data.n_points
        assert store.ndim == data.ndim
        assert sum(m.n_trajectories for m in store.metas.values()) == len(data)
        assert sum(m.n_points for m in store.metas.values()) == data.n_points

    def test_to_columnar_holds_every_trajectory(self, data, store):
        merged = store.to_columnar()
        assert sorted(merged.ids) == sorted(data.ids)
        for tid in list(data.ids)[:10]:
            assert np.array_equal(
                merged.points(merged.row_of(tid)), data.points(data.row_of(tid))
            )

    def test_rebuild_is_byte_identical(self, data, store, tmp_path):
        """Same dataset, same n_groups: every block file and the catalog
        are byte-for-byte reproducible."""
        twin = build_store(data, tmp_path / "twin", n_groups=N_GROUPS)
        a = (store.path / CATALOG_NAME).read_bytes()
        b = (twin.path / CATALOG_NAME).read_bytes()
        assert a == b
        for meta in store.metas.values():
            for name in meta.checksums:
                fa = (store.path / meta.directory / name).read_bytes()
                fb = (twin.path / meta.directory / name).read_bytes()
                assert fa == fb, (meta.directory, name)

    def test_existing_store_refused(self, data, store):
        with pytest.raises(StorageError):
            build_store(data, store.path, n_groups=N_GROUPS)

    def test_empty_dataset_roundtrip(self, tmp_path):
        store = build_store(ColumnarDataset.empty(2), tmp_path / "empty", n_groups=2)
        reopened = TrajectoryStore.open(store.path)
        assert len(reopened) == 0
        assert reopened.n_trajectories == 0
        assert len(reopened.to_columnar()) == 0

    def test_verify_clean_store(self, store):
        store.verify()  # no exception


# --------------------------------------------------------------------- #
# catalog pruning and lazy loading
# --------------------------------------------------------------------- #


class TestPruning:
    def test_no_query_returns_all(self, store):
        assert store.partition_ids() == sorted(store.metas)

    def test_pruned_ids_are_catalog_only(self, store):
        meta = store.metas[0]
        hits = store.partition_ids(meta.mbr)
        assert 0 in hits
        assert store._parts == {}  # pruning never touched block bytes

    def test_pruning_sound(self, data, store):
        """Every trajectory whose MBR intersects the probe lives in a
        partition the pruner kept."""
        meta = store.metas[0]
        probe = meta.mbr_first
        keep = set(store.partition_ids(probe))
        for pid, m in store.metas.items():
            part = store.partition(pid)
            for r in part.alive_rows():
                from repro.geometry.mbr import MBR

                t_mbr = MBR(part.mbr_lows[int(r)], part.mbr_highs[int(r)])
                if t_mbr.intersects(probe):
                    assert pid in keep


# --------------------------------------------------------------------- #
# engine parity: store-backed (lazy and eager) vs. built-from-objects
# --------------------------------------------------------------------- #


def _cfg():
    return DITAConfig(num_global_partitions=N_GROUPS, trie_fanout=3,
                      num_pivots=2, trie_leaf_capacity=4)


def _tau(name):
    return {"edr": 3.0, "lcss": 3.0, "erp": 0.05}.get(name, 0.01)


class TestEngineParity:
    @pytest.mark.parametrize("distance", ADAPTERS)
    def test_results_and_stats_match_eager_engine(self, data, store, distance):
        cfg = _cfg()
        base = DITAEngine(data, cfg, distance=distance)
        lazy = DITAEngine.from_store(store, cfg, distance=distance, lazy=True)
        cold = DITAEngine.from_store(store, cfg, distance=distance, lazy=False)
        queries = sample_queries(list(data), 4, seed=7)
        tau = _tau(distance)
        for q in queries:
            s0, s1, s2 = SearchStats(), SearchStats(), SearchStats()
            want = sorted((t.traj_id, d) for t, d in base.search(q, tau, s0))
            got_lazy = sorted((t.traj_id, d) for t, d in lazy.search(q, tau, s1))
            got_cold = sorted((t.traj_id, d) for t, d in cold.search(q, tau, s2))
            assert got_lazy == want  # distances compared bit-exactly
            assert got_cold == want
            assert s1 == s0
            assert s2 == s0

    def test_globally_pruned_partitions_never_load(self, data, store):
        engine = DITAEngine.from_store(store, _cfg(), distance="dtw", lazy=True)
        assert engine.partitions == {}
        q = list(data)[0]
        relevant = engine.global_index.relevant_partitions(
            q.points, 1e-9, engine.adapter
        )
        engine.search(q, 1e-9)
        assert set(engine.partitions) == set(relevant)
        assert set(store._parts) == set(relevant)
        if len(store.metas) > len(relevant):
            untouched = set(store.metas) - set(relevant)
            assert untouched  # the pruned blocks stayed on disk

    def test_join_parity(self, data, store):
        cfg = _cfg()
        base = DITAEngine(data, cfg)
        lazy = DITAEngine.from_store(store, cfg, lazy=True)
        want = sorted(base.self_join(0.005))
        got = sorted(lazy.self_join(0.005))
        assert got == want

    def test_knn_parity(self, data, store):
        cfg = _cfg()
        base = DITAEngine(data, cfg)
        lazy = DITAEngine.from_store(store, cfg, lazy=True)
        q = list(data)[5]
        want = [(t.traj_id, d) for t, d in knn_search(base, q, 7)]
        got = [(t.traj_id, d) for t, d in knn_search(lazy, q, 7)]
        assert got == want

    def test_updates_on_store_backed_engine(self, data, store):
        from repro.trajectory import Trajectory

        engine = DITAEngine.from_store(store, _cfg(), lazy=True)
        twin = Trajectory(90_000, list(data)[0].points + 1e-5)
        engine.append_trajectory(twin.traj_id, twin.points)
        assert engine.search_ids(twin, 1e-4) and 90_000 in engine.search_ids(twin, 1e-4)
        assert engine.remove_trajectory(90_000)
        assert 90_000 not in engine.search_ids(twin, 1e-4)


# --------------------------------------------------------------------- #
# the zero-copy contract
# --------------------------------------------------------------------- #


def _total_materializations(engine):
    return sum(part.materializations for part in engine.partitions.values())


class TestZeroCopy:
    def test_batch_search_materializes_only_matches(self, data, store):
        engine = DITAEngine.from_store(store, _cfg(), lazy=True)
        queries = sample_queries(list(data), 5, seed=1)
        results = engine.search_batch(queries, [0.01] * len(queries))
        n_matches = sum(len(r) for r in results)
        assert n_matches > 0
        assert _total_materializations(engine) == n_matches

    def test_join_materializes_nothing(self, data, store):
        engine = DITAEngine.from_store(store, _cfg(), lazy=True)
        pairs = engine.self_join(0.005)
        assert pairs  # ids come straight from the id columns
        assert _total_materializations(engine) == 0

    def test_knn_materializes_only_winners(self, data, store):
        engine = DITAEngine.from_store(store, _cfg(), lazy=True)
        k = 6
        out = knn_search(engine, list(data)[3], k)
        assert len(out) == k
        assert _total_materializations(engine) == k


# --------------------------------------------------------------------- #
# typed failure modes
# --------------------------------------------------------------------- #


class TestCorruption:
    def test_missing_catalog(self, tmp_path):
        with pytest.raises(StorageError):
            TrajectoryStore.open(tmp_path / "nowhere")

    def test_unparseable_catalog(self, store):
        (store.path / CATALOG_NAME).write_text("{not json")
        with pytest.raises(CorruptBlockError):
            TrajectoryStore.open(store.path)

    def test_schema_version_bump(self, store):
        catalog = json.loads((store.path / CATALOG_NAME).read_text())
        catalog["format_version"] = STORAGE_FORMAT_VERSION + 1
        (store.path / CATALOG_NAME).write_text(json.dumps(catalog))
        with pytest.raises(SchemaVersionError):
            TrajectoryStore.open(store.path)

    def test_unpinned_dtype_rejected(self, store):
        catalog = json.loads((store.path / CATALOG_NAME).read_text())
        catalog["dtypes"]["coords.npy"] = "<f4"
        (store.path / CATALOG_NAME).write_text(json.dumps(catalog))
        with pytest.raises(SchemaVersionError):
            TrajectoryStore.open(store.path)

    def test_truncated_block(self, store):
        target = store.path / store.metas[0].directory / "coords.npy"
        raw = target.read_bytes()
        target.write_bytes(raw[: len(raw) // 2])
        fresh = TrajectoryStore.open(store.path)
        with pytest.raises(CorruptBlockError):
            fresh.partition(0)

    def test_missing_block_file(self, store):
        (store.path / store.metas[1].directory / "ids.npy").unlink()
        fresh = TrajectoryStore.open(store.path)
        with pytest.raises(CorruptBlockError):
            fresh.partition(1)
        with pytest.raises(CorruptBlockError):
            fresh.verify()

    def test_bitrot_caught_by_checksum(self, store):
        target = store.path / store.metas[0].directory / "coords.npy"
        raw = bytearray(target.read_bytes())
        raw[-1] ^= 0xFF
        target.write_bytes(bytes(raw))
        fresh = TrajectoryStore.open(store.path)
        with pytest.raises(ChecksumError):
            fresh.verify()
        with pytest.raises(ChecksumError):
            TrajectoryStore.open(store.path, verify=True)

    def test_wrong_dtype_on_disk(self, store):
        target = store.path / store.metas[0].directory / "firsts.npy"
        arr = np.load(target).astype(np.float32)
        with target.open("wb") as f:
            np.lib.format.write_array(f, arr, allow_pickle=False)
        fresh = TrajectoryStore.open(store.path)
        with pytest.raises(CorruptBlockError):
            fresh.partition(0)

    def test_shape_disagreement_with_catalog(self, store):
        target = store.path / store.metas[0].directory / "ids.npy"
        arr = np.load(target)
        with target.open("wb") as f:
            np.lib.format.write_array(f, arr[:-1], allow_pickle=False)
        fresh = TrajectoryStore.open(store.path)
        with pytest.raises(CorruptBlockError):
            fresh.partition(0)


# --------------------------------------------------------------------- #
# determinism against the memmap-backed store
# --------------------------------------------------------------------- #


class TestDeterminism:
    def test_same_seed_same_bytes(self, data, tmp_path):
        outs = []
        for name in ("a", "b"):
            store = build_store(data, tmp_path / name, n_groups=N_GROUPS)
            engine = DITAEngine.from_store(store, _cfg(), lazy=True)
            q = list(data)[2]
            matches = [(t.traj_id, d) for t, d in engine.search(q, 0.01)]
            pairs = engine.self_join(0.004)
            knn = [(t.traj_id, d) for t, d in knn_search(engine, q, 5)]
            outs.append((matches, pairs, knn))
        assert outs[0] == outs[1]
