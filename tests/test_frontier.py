"""Differential tests: frontier traversal vs. the recursive reference walk.

The columnar frontier filter must reproduce ``_filter_reference`` exactly —
same candidate sets, same ``FilterStats`` counts — for every adapter, on
tries of every shape (random fanouts, short leaves, post-append/remove),
and batched filtering must equal the per-query loop.
"""

import numpy as np
import pytest

from repro.core.adapters import (
    DTWAdapter,
    EDRAdapter,
    ERPAdapter,
    FrechetAdapter,
    HausdorffAdapter,
    LCSSAdapter,
    batch_visit_supported,
)
from repro.core.config import DITAConfig
from repro.core.engine import DITAEngine
from repro.core.knn import knn_search
from repro.core.trie import FilterStats, TrieIndex, TrieNode
from repro.datagen import beijing_like, random_walk_dataset
from repro.geometry.mbr import MBR
from repro.kernels.frontier import ColumnarTrie, QueryBatch
from repro.trajectory import Trajectory

#: (adapter, tau) pairs covering every accumulation policy, suffix pruning
#: on and off where the flag matters
ADAPTER_CASES = [
    (DTWAdapter(), 0.05),
    (DTWAdapter(use_suffix_pruning=False), 0.05),
    (FrechetAdapter(), 0.02),
    (FrechetAdapter(use_suffix_pruning=False), 0.02),
    (HausdorffAdapter(), 0.02),
    (EDRAdapter(epsilon=0.002), 6.0),
    (LCSSAdapter(epsilon=0.002, delta=2), 6.0),
    (ERPAdapter(), 0.05),
]

CASE_IDS = [
    "dtw", "dtw-nosuffix", "frechet", "frechet-nosuffix",
    "hausdorff", "edr", "lcss", "erp",
]


def assert_parity(trie, queries, adapter, tau):
    """Frontier batch == reference loop: ids, order-insensitive, and stats."""
    n = len(queries)
    s_ref = [FilterStats() for _ in range(n)]
    s_fro = [FilterStats() for _ in range(n)]
    ref = [
        trie.filter_candidates_reference(q, tau, adapter, s)
        for q, s in zip(queries, s_ref)
    ]
    got = trie.filter_candidates_batch(queries, [tau] * n, adapter, s_fro)
    ids = trie.dataset.ids_of
    for i in range(n):
        assert sorted(ids(ref[i])) == sorted(ids(got[i]))
        assert s_ref[i].nodes_visited == s_fro[i].nodes_visited, (i, s_ref[i], s_fro[i])
        assert s_ref[i].nodes_pruned == s_fro[i].nodes_pruned, (i, s_ref[i], s_fro[i])
        assert s_ref[i].candidates == s_fro[i].candidates


class TestDifferential:
    @pytest.mark.parametrize("adapter,tau", ADAPTER_CASES, ids=CASE_IDS)
    def test_beijing_like(self, adapter, tau):
        data = list(beijing_like(200, seed=11))
        trie = TrieIndex(data, DITAConfig(trie_fanout=4, num_pivots=3, trie_leaf_capacity=4))
        queries = [t.points for t in data[:6]]
        assert_parity(trie, queries, adapter, tau)

    @pytest.mark.parametrize("adapter,tau", ADAPTER_CASES, ids=CASE_IDS)
    def test_random_fanouts(self, adapter, tau):
        data = list(random_walk_dataset(80, avg_len=10, seed=17))
        for fanout, pivots, cap in [(2, 4, 1), (3, 0, 4), (8, 2, 2)]:
            trie = TrieIndex(
                data,
                DITAConfig(
                    trie_fanout=fanout, num_pivots=pivots,
                    trie_leaf_capacity=cap, cell_size=0.05,
                ),
            )
            queries = [t.points for t in data[:4]]
            assert_parity(trie, queries, adapter, 10 * tau)

    @pytest.mark.parametrize("adapter,tau", ADAPTER_CASES, ids=CASE_IDS)
    def test_short_leaf_tries(self, adapter, tau):
        """2-point trajectories end at level 2 (short leaves) and must be
        emitted by both walks identically."""
        trajs = [Trajectory(i, [(0.01 * i, 0.02 * i), (0.01 * i + 0.01, 0.02 * i)]) for i in range(12)]
        trajs += [
            Trajectory(100 + i, [(0.01 * j, 0.005 * i * j) for j in range(6)])
            for i in range(8)
        ]
        trie = TrieIndex(
            trajs, DITAConfig(trie_fanout=2, num_pivots=3, trie_leaf_capacity=1, cell_size=0.5)
        )
        queries = [trajs[0].points, trajs[13].points]
        assert_parity(trie, queries, adapter, tau)

    @pytest.mark.parametrize("adapter,tau", ADAPTER_CASES, ids=CASE_IDS)
    def test_post_insert_remove(self, adapter, tau):
        """The tries a delta flush builds after streamed appends and
        removes."""
        data = list(random_walk_dataset(60, avg_len=9, seed=23))
        engine = DITAEngine(
            data[:40],
            DITAConfig(
                num_global_partitions=1,
                trie_fanout=3,
                num_pivots=2,
                trie_leaf_capacity=2,
                cell_size=0.05,
            ),
        )
        for t in data[40:]:
            engine.append_trajectory(t.traj_id, t.points)
        for t in data[5:15]:
            engine.remove_trajectory(t.traj_id)
        engine.flush_deltas()
        trie = engine.trie(0)
        assert len(trie) == 50
        queries = [t.points for t in data[:4]] + [data[45].points]
        assert_parity(trie, queries, adapter, tau)

    def test_varied_taus_in_one_batch(self):
        data = list(beijing_like(150, seed=5))
        trie = TrieIndex(data, DITAConfig(trie_fanout=4, num_pivots=3))
        adapter = DTWAdapter()
        queries = [t.points for t in data[:5]]
        taus = [0.0, 1e-4, 0.01, 0.1, 2.0]
        got = trie.filter_candidates_batch(queries, taus, adapter)
        for q, tau, cands in zip(queries, taus, got):
            ref = trie.filter_candidates_reference(q, tau, adapter)
            assert sorted(trie.dataset.ids_of(ref)) == sorted(trie.dataset.ids_of(cands))


class TestBatchVsLoop:
    def test_batch_equals_single_query_calls(self):
        """filter_candidates_batch over Q queries == Q filter_candidates
        calls, element for element (same ids in the same order)."""
        data = list(beijing_like(200, seed=3))
        trie = TrieIndex(data, DITAConfig(trie_fanout=4, num_pivots=3))
        adapter = DTWAdapter()
        queries = [t.points for t in data[:10]]
        taus = [0.01] * 10
        batched = trie.filter_candidates_batch(queries, taus, adapter)
        looped = [trie.filter_candidates(q, t, adapter) for q, t in zip(queries, taus)]
        assert [trie.dataset.ids_of(c) for c in batched] == [
            trie.dataset.ids_of(c) for c in looped
        ]

    def test_searcher_batch_equals_loop(self):
        from repro.core.search import LocalSearcher, SearchStats

        data = list(beijing_like(120, seed=9))
        trie = TrieIndex(data, DITAConfig(trie_fanout=4, num_pivots=3))
        adapter = DTWAdapter()
        searcher = LocalSearcher(trie, adapter)
        queries = data[:6]
        taus = [0.004] * 6
        stats_b = [SearchStats() for _ in queries]
        stats_l = [SearchStats() for _ in queries]
        batched = searcher.search_batch(queries, taus, stats=stats_b)
        looped = [
            searcher.search(q, t, stats=s) for q, t, s in zip(queries, taus, stats_l)
        ]
        for got, ref, sb, sl in zip(batched, looped, stats_b, stats_l):
            assert [(t.traj_id, d) for t, d in got] == [(t.traj_id, d) for t, d in ref]
            assert sb.filter.candidates == sl.filter.candidates
            assert sb.verify.accepted == sl.verify.accepted
            assert sb.verify.exact_computed == sl.verify.exact_computed


class TestEndToEnd:
    def _engines(self, n=120, seed=4, **cfg_kw):
        data = beijing_like(n, seed=seed)
        base = dict(num_global_partitions=3, trie_fanout=4, num_pivots=3)
        base.update(cfg_kw)
        on = DITAEngine(data, DITAConfig(use_frontier_filter=True, **base))
        off = DITAEngine(data, DITAConfig(use_frontier_filter=False, **base))
        return data, on, off

    def test_search_identical_under_both_paths(self):
        data, on, off = self._engines()
        for qid in sorted(data.ids)[:5]:
            q = data.by_id(qid)
            assert on.search_ids(q, 0.003) == off.search_ids(q, 0.003)

    def test_search_batch_matches_search(self):
        data, on, _ = self._engines()
        queries = [data.by_id(i) for i in sorted(data.ids)[:5]]
        taus = [0.003] * len(queries)
        batched = on.search_batch(queries, taus)
        for q, tau, matches in zip(queries, taus, batched):
            assert sorted((t.traj_id, d) for t, d in matches) == sorted(
                (t.traj_id, d) for t, d in on.search(q, tau)
            )

    def test_join_identical_under_both_paths(self):
        data, on, off = self._engines(n=80)
        assert sorted(on.self_join(0.002)) == sorted(off.self_join(0.002))

    def test_knn_identical_under_both_paths(self):
        data, on, off = self._engines(n=80)
        q = data.by_id(sorted(data.ids)[0])
        assert [(t.traj_id, d) for t, d in knn_search(on, q, 5)] == [
            (t.traj_id, d) for t, d in knn_search(off, q, 5)
        ]


class TestOverflowNodeRegression:
    """A node holding both leaf members and children (hand-built here; a
    bulk build only places short rows beside children) must emit its
    members *and* keep walking — the old walk returned early and dropped
    candidates."""

    def _trie(self):
        t_a = Trajectory(1, [(0.0, 0.0), (0.1, 0.1), (0.2, 0.0), (0.3, 0.3)])
        t_b = Trajectory(2, [(0.5, 0.5), (0.6, 0.5), (0.7, 0.6), (0.8, 0.7)])
        child = TrieNode(
            level=1,
            kind="first",
            mbr=MBR.of_point(np.asarray(t_b.points[0])),
            rows=[1],
            max_len=4,
        )
        trie = TrieIndex([t_a, t_b], DITAConfig(num_pivots=2))
        trie.root = TrieNode(level=0, children=[child], rows=[0], max_len=4)
        return trie

    def test_reference_walk_emits_members_and_descends(self):
        trie = self._trie()
        ids = sorted(
            trie.dataset.ids_of(
                trie.filter_candidates_reference(
                    np.asarray([(0.5, 0.5), (0.8, 0.7)]), 10.0, DTWAdapter()
                )
            )
        )
        assert ids == [1, 2]

    def test_frontier_matches_on_overflow_node(self):
        trie = self._trie()
        assert_parity(
            trie, [np.asarray([(0.5, 0.5), (0.8, 0.7)])], DTWAdapter(), 10.0
        )


class TestFallbacksAndLayout:
    def test_custom_visit_without_batch_falls_back(self):
        class TweakedDTW(DTWAdapter):
            def visit(self, state, kind, mbr, q, node_max_len=None):
                return super().visit(state, kind, mbr, q, node_max_len)

        assert batch_visit_supported(DTWAdapter())
        assert batch_visit_supported(EDRAdapter())
        assert not batch_visit_supported(TweakedDTW())
        data = list(beijing_like(60, seed=2))
        trie = TrieIndex(data, DITAConfig(trie_fanout=4, num_pivots=2))
        q = data[0].points
        got = trie.filter_candidates_batch([q], [0.01], TweakedDTW())[0]
        ref = trie.filter_candidates_reference(q, 0.01, TweakedDTW())
        assert trie.dataset.ids_of(got) == trie.dataset.ids_of(ref)

    def test_config_off_uses_reference(self):
        data = list(beijing_like(60, seed=2))
        trie = TrieIndex(data, DITAConfig(use_frontier_filter=False))
        q = data[0].points
        assert sorted(
            trie.dataset.ids_of(trie.filter_candidates(q, 0.01, DTWAdapter()))
        ) == sorted(
            trie.dataset.ids_of(trie.filter_candidates_reference(q, 0.01, DTWAdapter()))
        )

    def test_columnar_layout_counts(self):
        data = list(beijing_like(90, seed=6))
        trie = TrieIndex(data, DITAConfig(trie_fanout=3, num_pivots=2, trie_leaf_capacity=2))
        ct = trie.columnar()
        assert ct.n_nodes == trie.node_count()
        assert int(ct.member_rows.shape[0]) == len(trie.all_rows())
        assert ct.size_bytes() > 0
        # child CSR ranges tile [1, n_nodes) exactly once
        spans = sorted(
            (int(lo), int(hi)) for lo, hi in zip(ct.child_lo, ct.child_hi) if hi > lo
        )
        flat = [i for lo, hi in spans for i in range(lo, hi)]
        assert flat == list(range(1, ct.n_nodes))

    def test_columnar_cache_invalidated_by_mutation(self):
        """A flush swaps in a new trie whose layout covers the new row."""
        data = list(random_walk_dataset(20, avg_len=8, seed=1))
        engine = DITAEngine(
            data[:19],
            DITAConfig(num_global_partitions=1, trie_fanout=3, num_pivots=2, cell_size=0.05),
        )
        c1 = engine.trie(0).columnar()
        assert engine.trie(0).columnar() is c1  # cached while unchanged
        engine.append_trajectory(data[19].traj_id, data[19].points)
        engine.flush_deltas()
        c2 = engine.trie(0).columnar()
        assert c2 is not c1
        assert int(c2.member_rows.shape[0]) == int(c1.member_rows.shape[0]) + 1

    def test_query_batch_validation(self):
        with pytest.raises(ValueError):
            QueryBatch([np.empty((0, 2))])
        with pytest.raises(ValueError):
            TrieIndex([], DITAConfig()).filter_candidates_batch(
                [np.zeros((2, 2))], [0.1, 0.2], DTWAdapter()
            )

    def test_empty_trie(self):
        trie = TrieIndex([], DITAConfig())
        got = trie.filter_candidates_batch([np.zeros((3, 2))], [1.0], DTWAdapter())
        assert len(got) == 1 and int(got[0].shape[0]) == 0
