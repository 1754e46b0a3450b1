"""Checkpoint round-trip through the generational store.

A checkpoint is ``attach_generations(root)`` + ``merge()``; a restore is
``DITAEngine.from_generations(root, config=..., distance=...)``.  Tries
are not serialized: each is bulk-built from its partition's block, so a
restored engine must reproduce the live engine's partitions, tries and
answers exactly — for every adapter, after a stream of appends, extends
and removes.
"""

import json

import numpy as np
import pytest

from repro import DITAConfig, DITAEngine
from repro.core.adapters import (
    DTWAdapter,
    EDRAdapter,
    ERPAdapter,
    FrechetAdapter,
    HausdorffAdapter,
    LCSSAdapter,
)
from repro.datagen import beijing_like, sample_queries
from repro.storage.store import CATALOG_NAME, SchemaVersionError

#: the six adapters, parameterized ones with non-default parameters the
#: restore must be handed back
ADAPTERS = (
    DTWAdapter(),
    FrechetAdapter(),
    HausdorffAdapter(),
    EDRAdapter(epsilon=0.0007),
    LCSSAdapter(epsilon=0.0004, delta=5),
    ERPAdapter(gap=(0.1, 0.1)),
)
TAUS = {"dtw": 0.02, "frechet": 0.002, "hausdorff": 0.002, "edr": 6.0, "lcss": 8.0, "erp": 0.02}
JOIN_TAUS = {"dtw": 0.002, "frechet": 0.001, "hausdorff": 0.001, "edr": 3.0, "lcss": 3.0, "erp": 0.002}


@pytest.fixture(scope="module")
def city():
    return beijing_like(70, seed=55)


@pytest.fixture(scope="module")
def cfg():
    return DITAConfig(
        num_global_partitions=2, trie_fanout=4, num_pivots=3, trie_leaf_capacity=4, delta_max_rows=5
    )


def _stream(engine, city, seed):
    """A seeded append/extend/remove stream (auto-flushes on the way)."""
    rng = np.random.default_rng(seed)
    ids = sorted(city.ids)
    for i in range(12):
        src = city.by_id(ids[int(rng.integers(len(ids)))])
        engine.append_trajectory(50_000 + i, src.points + rng.normal(0, 2e-4, src.points.shape))
    for tid in rng.choice(ids, size=6, replace=False):
        engine.extend_trajectory(int(tid), rng.uniform(0.0, 0.2, size=(2, 2)))
    for tid in rng.choice(ids[: len(ids) // 2], size=5, replace=False):
        engine.remove_trajectory(int(tid))
    engine.remove_trajectory(50_003)
    engine.flush_deltas()


def _columnar_arrays(trie):
    ct = trie.columnar()
    return {k: getattr(ct, k) for k in ct.__slots__ if isinstance(getattr(ct, k), np.ndarray)}


def _snapshot(engine):
    """Everything the restore must reproduce, captured before the merge."""
    parts = {}
    for pid in engine.partition_pids():
        part, trie = engine.partition(pid), engine.trie(pid)
        parts[pid] = {
            "ids": part.traj_ids.copy(),
            "starts": part.point_starts.copy(),
            "coords": part.point_coords.copy(),
            "node_count": trie.node_count(),
            "all_rows": trie.all_rows(),
            "columnar": {k: np.array(v) for k, v in _columnar_arrays(trie).items()},
        }
    return parts


@pytest.fixture(scope="module")
def checkpoints(city, cfg, tmp_path_factory):
    """``{name: (adapter, live snapshot, live answers, queries, restored engine)}``."""
    out = {}
    queries = sample_queries(city, 4, seed=2, perturb=0.0003)
    for seed, adapter in enumerate(ADAPTERS):
        name = adapter.distance_name
        engine = DITAEngine(city, cfg, distance=adapter)
        _stream(engine, city, seed)
        snap = _snapshot(engine)
        answers = {
            "search": [engine.search_ids(q, TAUS[name]) for q in queries],
            "join": sorted(engine.join(engine, JOIN_TAUS[name])),
        }
        root = tmp_path_factory.mktemp(f"ckpt-{name}")
        engine.attach_generations(root)
        engine.merge()
        restored = DITAEngine.from_generations(root, config=cfg, distance=adapter)
        out[name] = (adapter, snap, answers, queries, restored)
    return out


class TestRoundTrip:
    def test_search_identical(self, checkpoints):
        for name, (_, _, answers, queries, restored) in checkpoints.items():
            got = [restored.search_ids(q, TAUS[name]) for q in queries]
            assert got == answers["search"], name

    def test_join_identical(self, checkpoints):
        for name, (_, _, answers, _, restored) in checkpoints.items():
            assert sorted(restored.join(restored, JOIN_TAUS[name])) == answers["join"], name

    def test_points_bitwise_equal(self, checkpoints):
        for name, (_, snap, _, _, restored) in checkpoints.items():
            assert restored.partition_pids() == sorted(snap), name
            for pid, want in snap.items():
                part = restored.partition(pid)
                assert np.array_equal(part.traj_ids, want["ids"])
                assert np.array_equal(part.point_starts, want["starts"])
                assert part.point_coords.tobytes() == want["coords"].tobytes()

    def test_structure_preserved(self, checkpoints):
        for name, (_, snap, _, _, restored) in checkpoints.items():
            for pid, want in snap.items():
                trie = restored.trie(pid)
                assert trie.node_count() == want["node_count"], (name, pid)
                assert trie.all_rows() == want["all_rows"], (name, pid)
                arrays = _columnar_arrays(trie)
                assert sorted(arrays) == sorted(want["columnar"])
                for key, arr in arrays.items():
                    ref = want["columnar"][key]
                    assert (arr.dtype, arr.shape) == (ref.dtype, ref.shape), (name, pid, key)
                    assert arr.tobytes() == ref.tobytes(), (name, pid, key)

    def test_parameterized_adapters_roundtrip(self, checkpoints):
        for name, (adapter, _, _, _, restored) in checkpoints.items():
            assert restored.adapter is adapter
            assert restored.adapter.distance_name == name

    def test_version_check(self, city, cfg, tmp_path):
        engine = DITAEngine(city, cfg)
        gens = engine.attach_generations(tmp_path / "gens")
        engine.merge()
        catalog_path = gens.current_path() / CATALOG_NAME
        catalog = json.loads(catalog_path.read_text())
        catalog["format_version"] += 1
        catalog_path.write_text(json.dumps(catalog))
        with pytest.raises(SchemaVersionError):
            DITAEngine.from_generations(tmp_path / "gens", config=cfg)
