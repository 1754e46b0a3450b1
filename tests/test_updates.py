"""Tests for incremental index updates through the streamed write path
(append/extend/remove, folded in by delta flushes)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DITAConfig, DITAEngine
from repro.datagen import beijing_like, citywide_dataset
from repro.distances import get_distance
from repro.trajectory import Trajectory


@pytest.fixture()
def cfg():
    return DITAConfig(num_global_partitions=2, trie_fanout=3, num_pivots=3, trie_leaf_capacity=3)


def _brute(data, q, tau):
    d = get_distance("dtw")
    return sorted(t.traj_id for t in data if d.compute(t.points, q.points) <= tau)


def _indexed_ids(trie):
    rows = np.asarray(trie.all_rows(), dtype=np.int64)
    return {int(i) for i in trie.dataset.ids_of(rows)}


class TestTrieInsert:
    """A streamed append lands in the trie the next flush bulk-builds."""

    def test_insert_found_by_filter(self, cfg):
        base = list(beijing_like(30, seed=1))
        engine = DITAEngine(base, cfg)
        newcomer = Trajectory(999, base[0].points + 0.00001)
        pid = engine.append_trajectory(newcomer.traj_id, newcomer.points)
        engine.flush_deltas()
        from repro.core.adapters import DTWAdapter

        trie = engine.trie(pid)
        candidates = trie.filter_candidates(base[0].points, 0.01, DTWAdapter())
        assert 999 in {int(i) for i in trie.dataset.ids_of(candidates)}
        assert len(engine) == 31

    def test_duplicate_insert_rejected(self, cfg):
        """An id still pending in a delta is as taken as an indexed one."""
        base = list(beijing_like(10, seed=1))
        engine = DITAEngine(base, cfg)
        engine.append_trajectory(800, [(0.1, 0.1), (0.11, 0.11)])
        with pytest.raises(ValueError):
            engine.append_trajectory(800, [(0.2, 0.2)])
        assert len(engine) == 11

    def test_leaf_split_on_overflow(self, cfg):
        base = list(beijing_like(8, seed=2))
        engine = DITAEngine(base, cfg)
        nodes_before = sum(engine.trie(p).node_count() for p in engine.partition_pids())
        # flood one area so some leaf must split
        for i in range(30):
            engine.append_trajectory(500 + i, base[0].points + i * 1e-6)
        engine.flush_deltas()
        nodes_after = sum(engine.trie(p).node_count() for p in engine.partition_pids())
        assert nodes_after > nodes_before
        indexed = set()
        for p in engine.partition_pids():
            indexed |= _indexed_ids(engine.trie(p))
        assert sorted(indexed) == sorted(
            [t.traj_id for t in base] + [500 + i for i in range(30)]
        )

    def test_single_point_insert(self, cfg):
        base = list(beijing_like(10, seed=3))
        engine = DITAEngine(base, cfg)
        pid = engine.append_trajectory(700, [(0.1, 0.1)])
        engine.flush_deltas()
        assert 700 in _indexed_ids(engine.trie(pid))


class TestTrieRemove:
    """A streamed removal is gone from the trie the next flush builds."""

    def test_remove_existing(self, cfg):
        base = list(beijing_like(20, seed=4))
        engine = DITAEngine(base, cfg)
        assert engine.remove_trajectory(base[5].traj_id)
        engine.flush_deltas()
        for p in engine.partition_pids():
            assert base[5].traj_id not in _indexed_ids(engine.trie(p))
        assert sum(len(engine.trie(p)) for p in engine.partition_pids()) == 19

    def test_remove_absent(self, cfg):
        """Removing an id twice: the second call finds nothing."""
        engine = DITAEngine(list(beijing_like(10, seed=4)), cfg)
        tid = engine.partition(engine.partition_pids()[0]).id_of(0)
        assert engine.remove_trajectory(tid)
        assert not engine.remove_trajectory(tid)
        engine.flush_deltas()
        assert not engine.remove_trajectory(tid)


class TestEngineUpdates:
    def test_search_exact_after_updates(self, cfg):
        base = list(beijing_like(50, seed=5))
        engine = DITAEngine(base, cfg)
        extra = [
            Trajectory(2000 + t.traj_id, t.points + 0.00003)
            for t in citywide_dataset(15, seed=6)
        ]
        for t in extra:
            engine.append_trajectory(t.traj_id, t.points)
        removed = {base[1].traj_id, base[9].traj_id}
        for tid in removed:
            assert engine.remove_trajectory(tid)
        current = [t for t in base if t.traj_id not in removed] + extra
        assert len(engine) == len(current)
        for q in (current[0], extra[0]):
            assert engine.search_ids(q, 0.003) == _brute(current, q, 0.003)

    def test_insert_duplicate_id_rejected(self, cfg):
        base = list(beijing_like(10, seed=7))
        engine = DITAEngine(base, cfg)
        with pytest.raises(ValueError):
            engine.append_trajectory(base[0].traj_id, [(0, 0), (1, 1)])

    def test_remove_absent_false(self, cfg):
        engine = DITAEngine(list(beijing_like(10, seed=7)), cfg)
        assert not engine.remove_trajectory(98765)

    def test_insert_outside_all_partitions(self, cfg):
        """A trajectory outside every partition MBR still gets indexed and
        found (the chosen partition's MBRs grow)."""
        base = list(beijing_like(30, seed=8))
        engine = DITAEngine(base, cfg)
        faraway = Trajectory(3000, np.array([(5.0, 5.0), (5.1, 5.1), (5.2, 5.0)]))
        engine.append_trajectory(faraway.traj_id, faraway.points)
        assert engine.search_ids(faraway, 0.001) == [3000]

    def test_join_exact_after_updates(self, cfg):
        base = list(beijing_like(30, seed=9))
        engine = DITAEngine(base, cfg)
        twin = Trajectory(4000, base[0].points + 0.00001)
        engine.append_trajectory(twin.traj_id, twin.points)
        pairs = engine.join(engine, 0.002)
        d = get_distance("dtw")
        current = base + [twin]
        want = sorted(
            (a.traj_id, b.traj_id)
            for a in current
            for b in current
            if d.compute(a.points, b.points) <= 0.002
        )
        assert sorted((a, b) for a, b, _ in pairs) == want


class TestWriteValidation:
    """The write entry rejects malformed points before routing or any
    state change: engine size, generation and pending count are
    untouched by a rejected append or extend."""

    BAD = {
        "nan": [(0.1, 0.1), (float("nan"), 0.1)],
        "inf": [(0.1, 0.1), (0.2, float("inf"))],
        "-inf": [(float("-inf"), 0.1)],
        "empty": np.empty((0, 2)),
        "empty-list": [],
        "3d-array": np.zeros((2, 2, 2)),
        "wrong-width": [(0.1, 0.1, 0.1)],
    }

    def _engine(self, cfg):
        return DITAEngine(list(beijing_like(20, seed=12)), cfg)

    def _state(self, engine):
        return len(engine), engine.generation, engine.n_pending

    @pytest.mark.parametrize("kind", sorted(BAD))
    def test_append_rejected(self, cfg, kind):
        engine = self._engine(cfg)
        engine.append_trajectory(7_000, [(0.05, 0.05)])  # something pending
        before = self._state(engine)
        with pytest.raises(ValueError):
            engine.append_trajectory(7_001, self.BAD[kind])
        assert self._state(engine) == before
        assert engine.remove_trajectory(7_000)  # 7_001 never entered
        assert not engine.remove_trajectory(7_001)

    @pytest.mark.parametrize("kind", sorted(BAD))
    def test_extend_rejected(self, cfg, kind):
        engine = self._engine(cfg)
        base_id = engine.partition(engine.partition_pids()[0]).id_of(0)
        engine.append_trajectory(7_000, [(0.05, 0.05)])
        before = self._state(engine)
        for tid in (base_id, 7_000):  # an indexed id and a pending one
            with pytest.raises(ValueError):
                engine.extend_trajectory(tid, self.BAD[kind])
            assert self._state(engine) == before
        engine.flush_deltas()
        assert engine.trajectory(7_000).points.tolist() == [[0.05, 0.05]]

    def test_error_names_the_problem(self, cfg):
        engine = self._engine(cfg)
        with pytest.raises(ValueError, match="NaN or infinite"):
            engine.append_trajectory(7_002, self.BAD["nan"])
        with pytest.raises(ValueError, match="at least one point"):
            engine.append_trajectory(7_002, self.BAD["empty"])
        with pytest.raises(ValueError, match="coordinates"):
            engine.append_trajectory(7_002, self.BAD["wrong-width"])
        with pytest.raises(ValueError, match="shape"):
            engine.append_trajectory(7_002, self.BAD["3d-array"])


class TestExtendAfterRemove:
    """The remove → extend / remove → re-append sequences on the *same id*
    within one mutation generation (no flush in between) — pins the
    suspected stale-batch_block hazard: a removed row must not resurface
    through a cached trie block when its id comes back."""

    def test_extend_after_remove_same_id_raises(self, cfg):
        base = list(beijing_like(20, seed=11))
        engine = DITAEngine(base, cfg)
        tid = base[3].traj_id
        assert engine.remove_trajectory(tid)
        with pytest.raises(KeyError):
            engine.extend_trajectory(tid, [(0.01, 0.01)])

    def test_extend_after_remove_pending_id_raises(self, cfg):
        engine = DITAEngine(list(beijing_like(20, seed=11)), cfg)
        engine.append_trajectory(6_000, [(0.05, 0.05), (0.06, 0.06)])
        assert engine.remove_trajectory(6_000)
        with pytest.raises(KeyError):
            engine.extend_trajectory(6_000, [(0.07, 0.07)])

    def test_remove_then_reappend_same_id_same_generation(self, cfg):
        base = list(beijing_like(20, seed=11))
        engine = DITAEngine(base, cfg)
        tid = base[3].traj_id
        replacement = np.asarray([(0.12, 0.12), (0.13, 0.13), (0.14, 0.12)])
        assert engine.remove_trajectory(tid)
        engine.append_trajectory(tid, replacement)  # same id, no flush between
        assert len(engine) == len(base)
        # the query (forcing the flush) must see only the replacement
        probe = Trajectory(-1, replacement)
        assert engine.search_ids(probe, 1e-9) == [tid]
        assert np.array_equal(engine.trajectory(tid).points, replacement)
        current = [t for t in base if t.traj_id != tid] + [Trajectory(tid, replacement)]
        q = base[0]
        assert engine.search_ids(q, 0.003) == _brute(current, q, 0.003)

    def test_remove_then_reinsert_same_id_immediate_path(self, cfg):
        """The same hazard with a flush after each write: the partition's
        batch block must be rebuilt, not serve the removed row."""
        base = list(beijing_like(20, seed=11))
        engine = DITAEngine(base, cfg)
        tid = base[3].traj_id
        replacement = np.asarray([(0.12, 0.12), (0.13, 0.13), (0.14, 0.12)])
        assert engine.remove_trajectory(tid)
        engine.flush_deltas()
        engine.append_trajectory(tid, replacement)
        engine.flush_deltas()
        probe = Trajectory(-1, replacement)
        assert engine.search_ids(probe, 1e-9) == [tid]
        old_probe = Trajectory(-2, base[3].points)
        assert tid not in engine.search_ids(old_probe, 1e-9)

    def test_extend_then_remove_drops_the_extension(self, cfg):
        base = list(beijing_like(20, seed=11))
        engine = DITAEngine(base, cfg)
        tid = base[3].traj_id
        engine.extend_trajectory(tid, [(0.19, 0.19)])
        assert engine.remove_trajectory(tid)
        assert len(engine) == len(base) - 1
        with pytest.raises(KeyError):
            engine.trajectory(tid)
        q = base[0]
        current = [t for t in base if t.traj_id != tid]
        assert engine.search_ids(q, 0.003) == _brute(current, q, 0.003)


class TestRandomUpdateSequences:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    @given(st.integers(0, 10_000))
    def test_random_update_sequences(self, cfg, seed):
        rng = np.random.default_rng(seed)
        base = list(citywide_dataset(15, seed=seed % 100))
        engine = DITAEngine(base, cfg)
        current = {t.traj_id: t for t in base}
        next_id = 10_000
        for _ in range(8):
            if rng.random() < 0.6 or len(current) < 3:
                pts = rng.uniform(0, 0.2, size=(int(rng.integers(1, 8)), 2))
                t = Trajectory(next_id, pts)
                next_id += 1
                engine.append_trajectory(t.traj_id, t.points)
                current[t.traj_id] = t
            else:
                victim = int(rng.choice(sorted(current)))
                assert engine.remove_trajectory(victim)
                del current[victim]
            if rng.random() < 0.3:
                engine.flush_deltas()
        q = list(current.values())[0]
        assert engine.search_ids(q, 0.01) == _brute(current.values(), q, 0.01)


class TestGenerationCounter:
    """The mutation-generation contract external caches key on.

    Regression for the PR 9 stale-state hazard: a *buffered* delta write
    must advance the generation immediately — before any flush-on-read —
    or a cache keyed on it would serve pre-write results against
    post-write data.
    """

    def _engine(self, n=20, seed=21, **kw):
        cfg = DITAConfig(
            num_global_partitions=2,
            trie_fanout=3,
            num_pivots=3,
            trie_leaf_capacity=3,
            delta_max_rows=10_000,
            **kw,
        )
        base = list(beijing_like(n, seed=seed))
        return DITAEngine(base, cfg), base

    def test_buffered_writes_bump_before_flush(self):
        engine, base = self._engine()
        g0 = engine.generation
        engine.append_trajectory(9001, [(0.1, 0.1), (0.11, 0.11)])
        g1 = engine.generation
        assert g1 > g0 and engine.n_pending > 0  # bumped while still buffered
        engine.extend_trajectory(9001, [(0.12, 0.12)])
        g2 = engine.generation
        assert g2 > g1 and engine.n_pending > 0
        assert engine.remove_trajectory(base[0].traj_id)
        assert engine.generation > g2

    def test_partition_versions_are_partition_exact(self):
        engine, base = self._engine()
        before = {p: engine.partition_version(p) for p in engine.partition_pids()}
        pid = engine.append_trajectory(9002, [(0.05, 0.05)])
        after = {p: engine.partition_version(p) for p in engine.partition_pids()}
        assert after[pid] == before[pid] + 1
        for p in engine.partition_pids():
            if p != pid:
                assert after[p] == before[p]

    def test_repartition_bumps(self):
        engine, _ = self._engine(n=30)
        # skew one partition with buffered appends, then force repartition
        for i in range(40):
            engine.append_trajectory(20_000 + i, [(0.001 * i, 0.001), (0.002, 0.002)])
        engine.flush_deltas()
        g0 = engine.generation
        if engine.repartition():
            assert engine.generation > g0

    def test_merge_bumps(self, tmp_path):
        engine, _ = self._engine()
        engine.attach_generations(tmp_path / "gens")
        engine.append_trajectory(9004, [(0.01, 0.01)])
        engine.flush_deltas()
        g0 = engine.generation
        engine.merge()
        assert engine.generation > g0

    def test_sync_for_read_folds_and_stamps(self):
        engine, base = self._engine()
        engine.append_trajectory(9005, [(0.07, 0.07)])
        g = engine.sync_for_read()
        assert engine.n_pending == 0
        assert g == engine.generation  # no hidden bump after the fold


class TestFlushReentrancy:
    """`_sync_streams` must be idempotent under interleaved reads."""

    def _engine(self):
        cfg = DITAConfig(
            num_global_partitions=2,
            trie_fanout=3,
            num_pivots=3,
            trie_leaf_capacity=3,
            delta_max_rows=10_000,
        )
        base = list(beijing_like(18, seed=31))
        return DITAEngine(base, cfg), base

    def test_reentrant_sync_is_noop(self, monkeypatch):
        """A read issued from inside the flush machinery (the serving
        layer's interleavings) must not double-flush or observe a
        half-compacted partition set."""
        from repro.core import engine as engine_mod

        engine, base = self._engine()
        engine.append_trajectory(9100, base[0].points + 0.0001)
        engine.append_trajectory(9101, base[1].points + 0.0001)

        real_trie = engine_mod.TrieIndex
        reentered = []

        class ReentrantTrie(real_trie):
            def __init__(self, part, config, *a, **kw):
                # simulate an interleaved read mid-flush: must be a no-op
                pending_before = engine.n_pending
                engine._sync_streams()
                reentered.append(engine.n_pending == pending_before)
                super().__init__(part, config, *a, **kw)

        monkeypatch.setattr(engine_mod, "TrieIndex", ReentrantTrie)
        applied = engine.flush_deltas()
        monkeypatch.undo()
        assert applied > 0
        assert reentered and all(reentered)
        assert engine.n_pending == 0
        q = base[0]
        expect = list(base) + [
            Trajectory(9100, base[0].points + 0.0001),
            Trajectory(9101, base[1].points + 0.0001),
        ]
        assert engine.search_ids(q, 0.003) == _brute(expect, q, 0.003)

    def test_failed_flush_restores_deltas(self, monkeypatch):
        from repro.core import engine as engine_mod

        engine, base = self._engine()
        engine.append_trajectory(9102, base[0].points + 0.0001)
        pending = engine.n_pending

        real_trie = engine_mod.TrieIndex

        class ExplodingTrie(real_trie):
            def __init__(self, *a, **kw):
                raise RuntimeError("simulated mid-flush failure")

        monkeypatch.setattr(engine_mod, "TrieIndex", ExplodingTrie)
        with pytest.raises(RuntimeError):
            engine.flush_deltas()
        monkeypatch.undo()
        # nothing adopted, nothing lost: pending writes are all still there
        assert engine.n_pending == pending
        assert not engine._in_flush
        q = base[0]
        expect = list(base) + [Trajectory(9102, base[0].points + 0.0001)]
        assert engine.search_ids(q, 0.003) == _brute(expect, q, 0.003)

    def test_double_flush_second_is_noop(self):
        engine, base = self._engine()
        engine.append_trajectory(9103, [(0.01, 0.01)])
        assert engine.flush_deltas() > 0
        assert engine.flush_deltas() == 0
