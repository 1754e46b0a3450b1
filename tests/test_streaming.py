"""Streaming ingestion: the stateful differential-test harness.

The headline invariant: **any** interleaving of appends, extends,
removals, delta flushes, generation merges and online repartitionings
leaves the engine answering every query — results *and* ``SearchStats``
— byte-identically to a freshly bulk-built engine over the same logical
dataset, for all six distance adapters, on both execution backends.

``StreamingMachine`` drives random interleavings (hypothesis stateful
testing) against two oracles per query: a bulk-built
:meth:`DITAEngine.from_partitions` twin for the byte-identical contract,
and a brute-force scan of the model dict for exactness.  Deterministic
tests below pin the individual mechanisms (delta overflow, generation
lifecycle, repartition equivalence, process-backend parity).
"""

import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule
from hypothesis import strategies as st

from repro import DITAConfig, DITAEngine
from repro.core.adapters import EDRAdapter, ERPAdapter, LCSSAdapter, get_adapter
from repro.core.search import SearchStats
from repro.datagen import citywide_dataset, sample_queries
from repro.storage import CURRENT_NAME, GenerationalStore
from repro.trajectory import Trajectory

# (name, adapter factory, [taus]) — EDR/LCSS thresholds are edit counts
ADAPTERS = [
    ("dtw", lambda: get_adapter("dtw"), [0.002, 0.01]),
    ("frechet", lambda: get_adapter("frechet"), [0.002, 0.008]),
    ("hausdorff", lambda: get_adapter("hausdorff"), [0.001, 0.005]),
    ("edr", lambda: EDRAdapter(epsilon=0.0005), [1, 3]),
    ("lcss", lambda: LCSSAdapter(epsilon=0.0005, delta=3), [1, 3]),
    ("erp", lambda: ERPAdapter(ndim=2), [0.005, 0.02]),
]

CFG = DITAConfig(
    num_global_partitions=2,
    trie_fanout=3,
    num_pivots=2,
    trie_leaf_capacity=3,
    delta_max_rows=6,
    cell_size=0.01,
)


def stats_tuple(s: SearchStats):
    """Every counter a search reports — the byte-identical contract."""
    return (
        s.relevant_partitions,
        s.filter.nodes_visited,
        s.filter.nodes_pruned,
        s.filter.candidates,
        s.verify.pairs,
        s.verify.exact_computed,
        s.verify.accepted,
    )


def bulk_twin(engine: DITAEngine, make_adapter) -> DITAEngine:
    """A freshly bulk-built engine adopting the streamed engine's live
    partition assignment (same blocks, so row numbering lines up)."""
    engine._sync_streams()
    return DITAEngine.from_partitions(
        {pid: engine.partition(pid) for pid in engine.partition_pids()},
        engine.config,
        make_adapter(),
    )


coords = st.floats(0.0, 0.2, allow_nan=False, allow_infinity=False)
point_lists = st.lists(st.tuples(coords, coords), min_size=1, max_size=6)


class StreamingMachine(RuleBasedStateMachine):
    """A dict of id -> points mirrors the engine through streamed writes,
    merges and repartitionings; queries are differentially checked."""

    @initialize(adapter_idx=st.integers(0, len(ADAPTERS) - 1))
    def setup(self, adapter_idx):
        self.name, self.make_adapter, self.taus = ADAPTERS[adapter_idx]
        base = list(citywide_dataset(14, seed=99))
        self.engine = DITAEngine(base, CFG, self.make_adapter())
        self.gens_root = tempfile.mkdtemp(prefix="repro-gens-")
        self.engine.attach_generations(self.gens_root)
        self.model = {t.traj_id: np.asarray(t.points, dtype=np.float64) for t in base}
        self.distance = self.make_adapter().distance()
        self.next_id = 1_000_000

    def teardown(self):
        if hasattr(self, "engine"):
            self.engine.shutdown()
            shutil.rmtree(self.gens_root, ignore_errors=True)

    # ---- writes ------------------------------------------------------ #

    @rule(points=point_lists)
    def append(self, points):
        pts = np.asarray(points, dtype=np.float64)
        self.engine.append_trajectory(self.next_id, pts)
        self.model[self.next_id] = pts
        self.next_id += 1

    @precondition(lambda self: len(self.model) > 0)
    @rule(pick=st.integers(0, 10_000), points=point_lists)
    def extend(self, pick, points):
        tid = sorted(self.model)[pick % len(self.model)]
        extra = np.asarray(points, dtype=np.float64)
        self.engine.extend_trajectory(tid, extra)
        self.model[tid] = np.concatenate([self.model[tid], extra], axis=0)

    @precondition(lambda self: len(self.model) > 3)
    @rule(pick=st.integers(0, 10_000))
    def remove(self, pick):
        tid = sorted(self.model)[pick % len(self.model)]
        assert self.engine.remove_trajectory(tid)
        del self.model[tid]

    # ---- maintenance ------------------------------------------------- #

    @rule()
    def flush(self):
        self.engine.flush_deltas()
        assert self.engine.n_pending == 0

    @precondition(lambda self: len(self.model) > 0)
    @rule()
    def merge(self):
        before = self.engine.generations.generation
        gen = self.engine.merge(prune=True)
        assert gen == before + 1

    @precondition(lambda self: len(self.model) > 0)
    @rule()
    def repartition(self):
        self.engine.repartition()

    # ---- queries ----------------------------------------------------- #

    @precondition(lambda self: len(self.model) > 0)
    @rule(pick=st.integers(0, 10_000), tau_idx=st.integers(0, 1))
    def query_matches_bulk_rebuild(self, pick, tau_idx):
        tid = sorted(self.model)[pick % len(self.model)]
        q = Trajectory(-1, self.model[tid])
        tau = self.taus[tau_idx % len(self.taus)]
        twin = bulk_twin(self.engine, self.make_adapter)
        s_live, s_twin = SearchStats(), SearchStats()
        live = self.engine.search_batch_rows([q], [tau], [s_live])
        bulk = twin.search_batch_rows([q], [tau], [s_twin])
        assert live == bulk, (self.name, tau)
        assert stats_tuple(s_live) == stats_tuple(s_twin), (self.name, tau)
        # and both are *right*: brute force over the model
        got = sorted(
            int(self.engine.partition(pid).traj_ids[row]) for pid, row, _ in live[0]
        )
        want = sorted(
            t
            for t, pts in self.model.items()
            if self.distance.compute(pts, q.points) <= tau
        )
        assert got == want, (self.name, tau)

    @invariant()
    def sizes_agree(self):
        if hasattr(self, "engine"):
            assert len(self.engine) == len(self.model)


StreamingMachine.TestCase.settings = settings(
    max_examples=10, stateful_step_count=10, deadline=None
)
TestStreamingStateful = StreamingMachine.TestCase


# --------------------------------------------------------------------- #
# deterministic mechanism tests
# --------------------------------------------------------------------- #


@pytest.fixture()
def small_engine():
    eng = DITAEngine(list(citywide_dataset(20, seed=7)), CFG, "dtw")
    yield eng
    eng.shutdown()


def _scripted_writes(engine, rng):
    """A fixed append/extend/remove script exercising every delta path."""
    new_ids = []
    for k in range(8):
        pts = rng.random((4, 2)) * 0.05 + 0.05
        engine.append_trajectory(5_000 + k, pts)
        new_ids.append(5_000 + k)
    engine.extend_trajectory(new_ids[0], rng.random((2, 2)) * 0.05)  # pending extend
    base_ids = sorted(engine._id_map())[:3]
    engine.extend_trajectory(base_ids[0], rng.random((3, 2)) * 0.05)  # base shadow
    assert engine.remove_trajectory(base_ids[1])  # base removal
    assert engine.remove_trajectory(new_ids[1])  # pending removal
    return new_ids


class TestDeltaMechanics:
    def test_append_is_buffered_until_flush(self, small_engine):
        n0 = len(small_engine)
        small_engine.append_trajectory(9_000, [[0.01, 0.01], [0.02, 0.02]])
        assert small_engine.n_pending == 1
        assert len(small_engine) == n0 + 1  # len counts pending rows
        small_engine.flush_deltas()
        assert small_engine.n_pending == 0
        assert len(small_engine) == n0 + 1
        assert small_engine.trajectory(9_000).traj_id == 9_000

    def test_auto_flush_at_delta_max_rows(self):
        eng = DITAEngine(
            list(citywide_dataset(10, seed=7)),
            # one global partition, so every append shares one delta
            CFG.with_options(delta_max_rows=3, num_global_partitions=1),
            "dtw",
        )
        for k in range(2):
            eng.append_trajectory(9_100 + k, [[0.01 * k, 0.01], [0.02, 0.02]])
        assert eng.n_pending == 2
        eng.append_trajectory(9_102, [[0.03, 0.01], [0.02, 0.02]])
        # the third buffered row tripped the partition's overflow flush
        assert eng.n_pending == 0

    def test_duplicate_append_raises(self, small_engine):
        small_engine.append_trajectory(9_000, [[0.01, 0.01]])
        with pytest.raises(ValueError, match="already present"):
            small_engine.append_trajectory(9_000, [[0.03, 0.03]])

    def test_extend_unknown_raises_remove_unknown_is_false(self, small_engine):
        with pytest.raises(KeyError):
            small_engine.extend_trajectory(424_242, [[0.0, 0.0]])
        assert small_engine.remove_trajectory(424_242) is False

    def test_flush_with_no_deltas_is_a_noop(self, small_engine):
        version = small_engine._mutations
        assert small_engine.flush_deltas() == 0
        assert small_engine._mutations == version  # no index refresh happened

    def test_scripted_writes_match_bulk_twin(self, small_engine):
        rng = np.random.default_rng(11)
        _scripted_writes(small_engine, rng)
        queries = sample_queries(list(citywide_dataset(20, seed=7)), 3, seed=5)
        twin = bulk_twin(small_engine, lambda: get_adapter("dtw"))
        taus = [0.004] * len(queries)
        s1 = [SearchStats() for _ in queries]
        s2 = [SearchStats() for _ in queries]
        assert small_engine.search_batch_rows(queries, taus, s1) == twin.search_batch_rows(
            queries, taus, s2
        )
        assert [stats_tuple(s) for s in s1] == [stats_tuple(s) for s in s2]


class TestGenerations:
    def test_lifecycle_commit_tombstone_prune(self, small_engine, tmp_path):
        root = tmp_path / "gens"
        gens = small_engine.attach_generations(root)
        assert gens.generation == 0
        small_engine.append_trajectory(9_000, [[0.01, 0.01], [0.02, 0.02]])
        assert small_engine.merge() == 1
        assert (root / "gen-00001").is_dir()
        small_engine.append_trajectory(9_001, [[0.05, 0.01], [0.02, 0.02]])
        assert small_engine.merge() == 2
        assert gens.tombstoned() == [1]
        assert (root / "gen-00001").is_dir()  # tombstoned, not deleted
        assert gens.prune() == [1]
        assert not (root / "gen-00001").exists()
        assert (root / "gen-00002").is_dir()
        # a fresh reader adopts the live generation and answers identically
        reopened = DITAEngine.from_generations(root, distance="dtw", config=CFG)
        q = sample_queries(list(citywide_dataset(20, seed=7)), 1, seed=5)[0]
        assert reopened.search_ids(q, 0.004) == small_engine.search_ids(q, 0.004)

    def test_merge_requires_attached_generations(self, small_engine):
        with pytest.raises(ValueError, match="attach_generations"):
            small_engine.merge()

    def test_merge_rebases_engine_onto_new_generation(self, small_engine, tmp_path):
        small_engine.attach_generations(tmp_path / "gens")
        small_engine.append_trajectory(9_000, [[0.01, 0.01], [0.02, 0.02]])
        small_engine.merge()
        # post-merge the engine is store-backed and unmutated: process
        # workers would map the generation blocks directly (no spill)
        assert small_engine._store is not None
        assert small_engine._mutations == 0
        assert "gen-00001" in small_engine._ensure_snapshot()

    def test_maybe_merge_trips_on_write_fraction(self, tmp_path):
        eng = DITAEngine(
            list(citywide_dataset(20, seed=7)), CFG.with_options(merge_trigger=0.2), "dtw"
        )
        assert not eng.maybe_merge()  # no generations attached
        gens = eng.attach_generations(tmp_path / "gens")
        assert not eng.maybe_merge()  # nothing written yet
        for k in range(5):  # 5 writes / ~25 rows ≥ 0.2
            eng.append_trajectory(9_200 + k, [[0.01 * k, 0.01], [0.02, 0.02]])
        assert eng.maybe_merge()
        assert gens.generation == 1
        assert not eng.maybe_merge()  # counter reset by the merge

    def test_crashed_staging_is_cleared_by_next_begin(self, tmp_path):
        gens = GenerationalStore.init(tmp_path / "gens")
        staging, gen = gens.begin()
        (staging / "garbage").write_text("partial write")
        # simulate a crash: no commit/abort; a new writer starts over
        staging2, gen2 = gens.begin()
        assert gen2 == gen and staging2 == staging
        assert not (staging / "garbage").exists()
        assert gens.generation == 0
        assert (tmp_path / "gens" / CURRENT_NAME).is_file()


class TestRepartition:
    def _skewed(self):
        eng = DITAEngine(list(citywide_dataset(24, seed=7)), CFG, "dtw")
        rng = np.random.default_rng(3)
        for k in range(24):  # pile new rows into one hot corner
            pts = rng.random((4, 2)) * 0.004 + 0.19
            eng.append_trajectory(7_000 + k, pts)
        return eng

    def test_skew_ratio_sees_pending_rows(self):
        eng = self._skewed()
        assert eng.skew_ratio() > 1.5

    def test_repartition_reduces_skew_and_preserves_answers(self):
        eng = self._skewed()
        eng._sync_streams()
        before = eng.skew_ratio()
        logical = [eng.trajectory(t) for pid in eng.partition_pids() for t in eng.partition(pid).ids]
        assert eng.repartition()
        assert eng.skew_ratio() < before
        # equivalent to a fresh bulk build over the same logical dataset
        fresh = DITAEngine(logical, CFG, "dtw")
        queries = sample_queries(logical, 3, seed=5)
        for q in queries:
            s1, s2 = SearchStats(), SearchStats()
            got = sorted(
                (int(eng.partition(p).traj_ids[r]), round(d, 12))
                for p, r, d in eng.search_batch_rows([q], [0.004], [s1])[0]
            )
            want = sorted(
                (int(fresh.partition(p).traj_ids[r]), round(d, 12))
                for p, r, d in fresh.search_batch_rows([q], [0.004], [s2])[0]
            )
            assert got == want
            assert stats_tuple(s1) == stats_tuple(s2)

    def test_maybe_repartition_threshold(self):
        eng = self._skewed()
        eng.config = eng.config.with_options(repartition_skew_ratio=eng.skew_ratio() + 1)
        assert not eng.maybe_repartition()
        eng.config = eng.config.with_options(repartition_skew_ratio=1.01)
        assert eng.maybe_repartition()
        assert eng.skew_ratio() <= 1.5


class TestProcessBackendParity:
    """The scripted differential, on the real multi-core backend: streamed
    writes on a process-backed engine answer byte-identically to a
    simulated bulk-built twin, for all six adapters."""

    @pytest.mark.parametrize("name,make_adapter,taus", ADAPTERS, ids=[a[0] for a in ADAPTERS])
    def test_streamed_process_engine_matches_bulk_twin(self, name, make_adapter, taus):
        base = list(citywide_dataset(20, seed=7))
        eng = DITAEngine(
            base, CFG.with_options(backend="process", num_processes=2), make_adapter()
        )
        try:
            rng = np.random.default_rng(11)
            _scripted_writes(eng, rng)
            twin = bulk_twin(eng, make_adapter)  # simulated backend
            queries = sample_queries(base, 2, seed=5)
            tau_list = [taus[i % len(taus)] for i in range(len(queries))]
            s1 = [SearchStats() for _ in queries]
            s2 = [SearchStats() for _ in queries]
            live = eng.search_batch_rows(queries, tau_list, s1)
            bulk = twin.search_batch_rows(queries, tau_list, s2)
            assert live == bulk, name
            assert [stats_tuple(s) for s in s1] == [stats_tuple(s) for s in s2], name
        finally:
            eng.shutdown()
