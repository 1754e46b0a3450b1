"""Tests for the trie local index (Sections 4.2.3, 5.3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adapters import DTWAdapter, FrechetAdapter
from repro.core.config import DITAConfig
from repro.core.engine import DITAEngine
from repro.core.trie import FilterStats, TrieIndex
from repro.datagen import citywide_dataset, random_walk_dataset
from repro.distances.dtw import dtw
from repro.distances.frechet import frechet
from repro.trajectory import Trajectory


def _all_ids(trie):
    rows = np.asarray(trie.all_rows(), dtype=np.int64)
    return [int(i) for i in trie.dataset.ids_of(rows)]


def _cand_ids(trie, q_pts, tau, adapter, stats=None):
    rows = trie.filter_candidates(q_pts, tau, adapter, stats)
    return {int(i) for i in trie.dataset.ids_of(rows)}


@pytest.fixture(scope="module")
def walks():
    return random_walk_dataset(60, avg_len=10, seed=13)


@pytest.fixture(scope="module")
def trie(walks):
    cfg = DITAConfig(trie_fanout=3, num_pivots=3, trie_leaf_capacity=4, cell_size=0.05)
    return TrieIndex(list(walks), cfg)


class TestConstruction:
    def test_all_trajectories_reachable_exactly_once(self, trie, walks):
        stored = sorted(_all_ids(trie))
        assert stored == sorted(t.traj_id for t in walks)

    def test_height_bounded(self, trie):
        cfg = trie.config
        assert trie.height() <= cfg.num_pivots + 2 + 1  # +1 for the root level

    def test_node_count_positive(self, trie):
        assert trie.node_count() > 1

    def test_short_trajectories_in_short_leaves(self):
        """2-point trajectories end at level 2 and still get indexed."""
        trajs = [Trajectory(i, [(i, i), (i + 1, i)]) for i in range(10)]
        trajs.append(Trajectory(99, [(0, 0), (1, 1), (2, 0), (3, 3), (4, 0), (5, 5)]))
        cfg = DITAConfig(trie_fanout=2, num_pivots=3, trie_leaf_capacity=1, cell_size=0.5)
        trie = TrieIndex(trajs, cfg)
        assert sorted(_all_ids(trie)) == sorted(t.traj_id for t in trajs)

    def test_verification_artifacts_for_every_trajectory(self, trie, walks):
        """The stacked block covers every dataset row with a non-empty
        cell run (verification artifacts are derived per row)."""
        block = trie.batch_block()
        assert sorted(block.ids.tolist()) == sorted(t.traj_id for t in walks)
        runs = np.diff(block.cell_starts)
        for r in trie.dataset.alive_rows():
            assert runs[int(r)] > 0

    def test_size_bytes_positive(self, trie):
        assert trie.size_bytes() > 0

    def test_len(self, trie, walks):
        assert len(trie) == len(walks)


class TestFiltering:
    def _check_no_false_negatives(self, trie, walks, adapter, dist_fn, tau):
        for q in list(walks)[:10]:
            candidates = _cand_ids(trie, q.points, tau, adapter)
            for t in walks:
                if dist_fn(t.points, q.points) <= tau:
                    assert t.traj_id in candidates, (t.traj_id, q.traj_id)

    def test_dtw_superset(self, trie, walks):
        self._check_no_false_negatives(trie, walks, DTWAdapter(), dtw, 0.3)

    def test_dtw_superset_no_suffix(self, trie, walks):
        self._check_no_false_negatives(
            trie, walks, DTWAdapter(use_suffix_pruning=False), dtw, 0.3
        )

    def test_frechet_superset(self, trie, walks):
        self._check_no_false_negatives(trie, walks, FrechetAdapter(), frechet, 0.1)

    def test_self_query_always_candidate(self, trie, walks):
        adapter = DTWAdapter()
        for q in list(walks)[:10]:
            ids = _cand_ids(trie, q.points, 0.0, adapter)
            assert q.traj_id in ids

    def test_filter_prunes_something(self, trie, walks):
        """With a tiny threshold the filter must beat a full scan."""
        adapter = DTWAdapter()
        q = walks[0]
        candidates = trie.filter_candidates(q.points, 1e-6, adapter)
        assert int(candidates.shape[0]) < len(walks)

    def test_stats_populated(self, trie, walks):
        stats = FilterStats()
        trie.filter_candidates(walks[0].points, 0.1, DTWAdapter(), stats)
        assert stats.nodes_visited > 0
        assert stats.candidates >= 0

    def test_monotone_in_tau(self, trie, walks):
        adapter = DTWAdapter()
        q = walks[3]
        small = _cand_ids(trie, q.points, 0.01, adapter)
        large = _cand_ids(trie, q.points, 0.5, adapter)
        assert small <= large


class TestParameterEffects:
    def test_pivot_levels_only_prune(self):
        """K > 0 candidates are a subset of K = 0 candidates: the first two
        (align) levels split identically, and pivot levels only subdivide."""
        data = list(citywide_dataset(120, seed=5))
        tau = 0.003
        cfg0 = DITAConfig(num_pivots=0, trie_fanout=4, trie_leaf_capacity=2, cell_size=0.004)
        cfg4 = cfg0.with_options(num_pivots=4)
        trie0 = TrieIndex(data, cfg0)
        trie4 = TrieIndex(data, cfg4)
        for q in data[:6]:
            c0 = _cand_ids(trie0, q.points, tau, DTWAdapter())
            c4 = _cand_ids(trie4, q.points, tau, DTWAdapter())
            assert c4 <= c0

    def test_leaf_capacity_controls_depth(self):
        data = list(random_walk_dataset(64, avg_len=10, seed=2))
        shallow = TrieIndex(data, DITAConfig(trie_leaf_capacity=64, trie_fanout=4, cell_size=0.05))
        deep = TrieIndex(data, DITAConfig(trie_leaf_capacity=1, trie_fanout=4, cell_size=0.05))
        assert deep.node_count() > shallow.node_count()


class TestMutationVersioning:
    """A trie and its derived caches are immutable; a flush replaces the
    partition's trie, so an equal-size remove+append cycle can never
    resurrect stale stacked arrays."""

    def _engine_and_extra(self):
        data = list(random_walk_dataset(24, avg_len=8, seed=9))
        cfg = DITAConfig(
            num_global_partitions=1, trie_fanout=3, num_pivots=2, trie_leaf_capacity=4, cell_size=0.05
        )
        return DITAEngine(data[:23], cfg), data[23]

    def test_caches_stable_without_mutation(self):
        engine, _ = self._engine_and_extra()
        trie = engine.trie(0)
        assert trie.batch_block() is trie.batch_block()
        assert trie.columnar() is trie.columnar()

    def test_equal_size_remove_insert_refreshes_caches(self):
        engine, extra = self._engine_and_extra()
        trie = engine.trie(0)
        victim = _all_ids(trie)[0]
        block_before = trie.batch_block()
        columnar_before = trie.columnar()
        assert engine.remove_trajectory(victim)
        engine.append_trajectory(extra.traj_id, extra.points)  # same size as before
        engine.flush_deltas()
        trie = engine.trie(0)
        block_after = trie.batch_block()
        columnar_after = trie.columnar()
        assert block_after is not block_before
        assert columnar_after is not columnar_before
        member_ids = {
            int(i) for i in trie.dataset.ids_of(columnar_after.member_rows)
        }
        assert extra.traj_id in member_ids
        assert victim not in member_ids
        assert extra.traj_id in block_after.ids.tolist()
        assert victim not in block_after.ids.tolist()

    def test_filtering_sees_replacement(self):
        engine, extra = self._engine_and_extra()
        victim = _all_ids(engine.trie(0))[0]
        engine.trie(0).filter_candidates(extra.points, 0.1, DTWAdapter())  # warm caches
        engine.remove_trajectory(victim)
        engine.append_trajectory(extra.traj_id, extra.points)
        engine.flush_deltas()
        ids = _cand_ids(engine.trie(0), extra.points, 100.0, DTWAdapter())
        assert extra.traj_id in ids
        assert victim not in ids
