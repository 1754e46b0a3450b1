"""Batched filter-verification vs. the per-pair pipeline.

``Verifier.verify_rows`` over a :class:`TrajectoryBlock` (stacked in the
columnar dataset's row space) must return the same matches, in the same
order, with the same :class:`VerifyStats` counts, as calling
:meth:`Verifier.verify` per candidate — for every verifier configuration,
including custom cell bounds with no batched equivalent.  A delta flush
must rebuild the partition's block.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.mbe import MBEIndex, envelope_lower_bound
from repro.core.adapters import get_adapter
from repro.core.config import DITAConfig
from repro.core.engine import DITAEngine
from repro.core.numerics import slack
from repro.core.verify import VerificationData, VerifyStats
from repro.datagen import beijing_like
from repro.kernels import TrajectoryBlock, batch_cell_bounds, batch_mbr_coverage
from repro.storage.columnar import ColumnarDataset

CELL_SIZE = 0.004
TAU = 0.01


@pytest.fixture(scope="module")
def data():
    return list(beijing_like(80, seed=21))


@pytest.fixture(scope="module")
def dataset(data):
    return ColumnarDataset.from_trajectories(data)


@pytest.fixture(scope="module")
def verification(data):
    return {t.traj_id: VerificationData.of(t, CELL_SIZE) for t in data}


@pytest.fixture(scope="module")
def block(dataset):
    return TrajectoryBlock.from_columnar(dataset, CELL_SIZE)


def _per_pair(verifier, candidates, q, tau, verification, stats=None):
    out = []
    for t in candidates:
        d = verifier.verify(t, q, tau, verification[t.traj_id],
                            verification[q.traj_id], stats)
        if d <= tau:
            out.append((t.traj_id, d))
    return out


@pytest.mark.parametrize("distance", ["dtw", "frechet"])
@pytest.mark.parametrize("use_mbr,use_cells", [(True, True), (True, False), (False, True), (False, False)])
def test_rows_match_per_pair(data, dataset, verification, block, distance, use_mbr, use_cells):
    adapter = get_adapter(distance)
    verifier = adapter.make_verifier(use_mbr_coverage=use_mbr, use_cell_filter=use_cells)
    rows = dataset.alive_rows()
    for qi in (0, 13, 55):
        q = data[qi]
        s_loop, s_batch = VerifyStats(), VerifyStats()
        expect = _per_pair(verifier, data, q, TAU, verification, s_loop)
        got = verifier.verify_rows(
            block, dataset, rows, q.points, TAU, verification[q.traj_id], stats=s_batch
        )
        assert [(dataset.id_of(r), d) for r, d in got] == expect
        assert s_batch == s_loop


def test_custom_cell_bound_uses_per_row_path(data, dataset, verification, block):
    adapter = get_adapter("dtw")
    verifier = adapter.make_verifier()
    calls = []

    def custom_bound(cells_t, cells_q):
        calls.append(cells_t)
        return 0.0  # never prunes

    verifier.cell_bound_fn = custom_bound
    verifier.cell_bound_kind = None
    q = data[11]
    loop_verifier = adapter.make_verifier()
    loop_verifier.cell_bound_fn = lambda a, b: 0.0
    loop_verifier.cell_bound_kind = None
    expect = _per_pair(loop_verifier, data, q, TAU, verification)
    got = verifier.verify_rows(
        block, dataset, dataset.alive_rows(), q.points, TAU, verification[q.traj_id]
    )
    assert [(dataset.id_of(r), d) for r, d in got] == expect
    assert calls  # the scalar bound really ran, fed block cell segments


def test_batch_filter_stages_match_scalar_lemmas(data, dataset, verification, block):
    """Lemma 5.4 / 5.6 matrix forms agree with the scalar implementations."""
    from repro.core.verify import cell_bound_dtw, cell_bound_frechet, mbr_coverage_ok

    q_data = verification[data[5].traj_id]
    rows = dataset.alive_rows()
    tau_s = slack(TAU)
    mask = batch_mbr_coverage(block, rows, q_data.mbr.low, q_data.mbr.high, tau_s)
    for t, ok in zip(data, mask):
        assert bool(ok) == mbr_coverage_ok(verification[t.traj_id].mbr, q_data.mbr, TAU)
    for kind, scalar in (("sum", cell_bound_dtw), ("max", cell_bound_frechet)):
        bounds = batch_cell_bounds(block, rows, q_data.cells, kind)
        for t, b in zip(data, bounds):
            assert b == pytest.approx(
                scalar(verification[t.traj_id].cells, q_data.cells), abs=1e-9
            )


def test_empty_candidates(data, dataset, verification, block):
    verifier = get_adapter("dtw").make_verifier()
    got = verifier.verify_rows(
        block, dataset, np.empty(0, dtype=np.int64), data[0].points, TAU,
        verification[data[0].traj_id],
    )
    assert got == []


def test_block_rows_share_dataset_row_space(data, dataset, block):
    assert np.array_equal(block.ids, dataset.traj_ids)
    for r in (0, 7, 41):
        cs = block.cellset_of(r)
        direct = VerificationData.from_points(dataset.points(r), CELL_SIZE)
        assert np.array_equal(cs.centers, direct.cells.centers)
        assert np.array_equal(cs.counts, direct.cells.counts)
        assert np.array_equal(block.mbr_low[r], direct.mbr.low)
        assert np.array_equal(block.mbr_high[r], direct.mbr.high)


class TestBlockCache:
    def test_trie_block_invalidated_on_insert_and_remove(self, data):
        """A flush rebuilds the partition's block; a trie never mutates."""
        engine = DITAEngine(data[:-1], DITAConfig(num_global_partitions=1, cell_size=CELL_SIZE))
        b1 = engine.trie(0).batch_block()
        assert engine.trie(0).batch_block() is b1  # cached
        extra = data[-1]
        engine.append_trajectory(extra.traj_id, extra.points)
        engine.flush_deltas()
        b2 = engine.trie(0).batch_block()
        assert b2 is not b1
        assert extra.traj_id in b2.ids.tolist()
        assert len(b2) == len(data)
        row = b2.ids.tolist().index(extra.traj_id)
        direct = VerificationData.from_points(extra.points, CELL_SIZE)
        assert np.array_equal(b2.cellset_of(row).centers, direct.cells.centers)
        assert engine.remove_trajectory(extra.traj_id)
        engine.flush_deltas()
        b3 = engine.trie(0).batch_block()
        assert b3 is not b2
        # the removed row leaves the row space
        assert extra.traj_id not in b3.ids.tolist()
        assert len(b3) == len(engine.partition(0)) == len(data) - 1


def test_mbe_stacked_bounds_match_loop(data):
    for distance in ("dtw", "frechet"):
        idx = MBEIndex(data, distance)
        for q in (data[2], data[40]):
            fast = idx.lower_bounds(q.points)
            slow = [envelope_lower_bound(idx._envelopes[t.traj_id], q.points, idx._aggregate)
                    for t in idx._trajs]
            assert np.allclose(fast, slow, rtol=0, atol=1e-12)
        # chunking at any granularity gives identical answers
        tiny = idx.lower_bounds(data[2].points, max_elems=1)
        assert np.allclose(tiny, idx.lower_bounds(data[2].points), rtol=0, atol=0)
