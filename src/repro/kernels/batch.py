"""Batched candidate filtering over stacked verification artifacts.

The per-pair verification pipeline (``repro.core.verify``) pays Python
call overhead for every candidate: one ``mbr_coverage_ok`` and one
``cell_bound_*`` per pair, each a handful of tiny numpy operations.  With
hundreds of candidates per query that overhead dominates the cheap stages.

This module stacks the precomputed per-trajectory artifacts (Lemma 5.4
MBRs and Lemma 5.6 cell summaries) into contiguous arrays — a
:class:`TrajectoryBlock`, built once per trie at index time — so both
filter stages evaluate for a *whole candidate list* with a few large
matrix operations:

* :func:`batch_mbr_coverage` — the Lemma 5.4 coverage test for all
  candidates at once: four broadcast comparisons over ``(k, d)`` corner
  arrays.
* :func:`batch_cell_bounds` — the Lemma 5.6 lower bound for all
  candidates: one cell-to-cell min-distance matrix over the concatenated
  candidate cells (chunked to bound memory), reduced per candidate with
  ``np.minimum/add/maximum.reduceat`` over the CSR-style segment layout.

Only candidates surviving both stages reach an exact wavefront kernel.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

_INF = math.inf


class TrajectoryBlock:
    """Contiguous verification artifacts for a set of trajectories.

    ``mbr_low``/``mbr_high`` hold one row per trajectory; the cell
    summaries are concatenated CSR-style: trajectory ``r`` owns cells
    ``cell_starts[r]:cell_starts[r+1]`` of ``cell_centers`` /
    ``cell_counts`` / ``cell_halves``.  Block rows share the row space of
    the storage tier's :class:`~repro.storage.columnar.ColumnarDataset`
    (row ``r`` of the block is row ``r`` of the dataset), so filter output
    indexes straight into the block with no id translation.
    """

    __slots__ = (
        "ids",
        "mbr_low",
        "mbr_high",
        "cell_centers",
        "cell_counts",
        "cell_halves",
        "cell_starts",
        "cell_side",
    )

    def __init__(
        self,
        ids: np.ndarray,
        mbr_low: np.ndarray,
        mbr_high: np.ndarray,
        cell_centers: np.ndarray,
        cell_counts: np.ndarray,
        cell_halves: np.ndarray,
        cell_starts: np.ndarray,
        cell_side: float = 0.0,
    ) -> None:
        self.ids = np.asarray(ids, dtype=np.int64)
        self.mbr_low = mbr_low
        self.mbr_high = mbr_high
        self.cell_centers = cell_centers
        self.cell_counts = cell_counts
        self.cell_halves = cell_halves
        self.cell_starts = cell_starts
        self.cell_side = float(cell_side)

    def __len__(self) -> int:
        return int(self.ids.shape[0])

    @classmethod
    def from_columnar(cls, dataset, cell_size: float, rows=None) -> "TrajectoryBlock":
        """Build the block straight from a columnar dataset's arrays.

        MBR corners come from the dataset's vectorized per-row summaries
        (no object iteration); cells run the paper's greedy compression per
        row over zero-copy point views.  ``rows`` restricts the cell
        computation (other rows get empty cell runs and undefined-but-
        allocated MBRs).
        """
        from ..geometry.cell import CellSet

        n = dataset.n_rows
        d = dataset.ndim
        if n == 0:
            return cls(
                np.empty(0, dtype=np.int64),
                np.empty((0, d)),
                np.empty((0, d)),
                np.empty((0, d)),
                np.empty(0),
                np.empty(0),
                np.zeros(1, dtype=np.int64),
                cell_size,
            )
        live = dataset.alive_rows() if rows is None else np.asarray(rows, dtype=np.int64)
        centers: List[np.ndarray] = []
        counts: List[np.ndarray] = []
        lens = np.zeros(n, dtype=np.int64)
        for r in live.tolist():
            cs = CellSet.from_points(dataset.points(r), cell_size)
            centers.append(cs.centers)
            counts.append(cs.counts)
            lens[r] = cs.centers.shape[0]
        cell_starts = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lens, out=cell_starts[1:])
        if centers:
            cell_centers = np.concatenate(centers)
            cell_counts = np.concatenate(counts).astype(np.float64)
        else:
            cell_centers = np.empty((0, d))
            cell_counts = np.empty(0)
        cell_halves = np.full(cell_centers.shape[0], cell_size / 2.0)
        return cls(
            dataset.traj_ids,
            dataset.mbr_lows,
            dataset.mbr_highs,
            cell_centers,
            cell_counts,
            cell_halves,
            cell_starts,
            cell_size,
        )

    def cellset_of(self, row: int):
        """The row's cells as a :class:`~repro.geometry.cell.CellSet` (the
        per-pair fallback for verifiers with custom cell bounds)."""
        from ..geometry.cell import CellSet

        a, b = int(self.cell_starts[row]), int(self.cell_starts[row + 1])
        return CellSet(self.cell_centers[a:b], self.cell_counts[a:b], self.cell_side)

    def gather_cells(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR gather of the selected rows' cells.

        Returns ``(pos, seg_starts, lens)``: ``pos`` indexes the block's
        concatenated cell arrays so ``cell_centers[pos]`` is contiguous per
        selected row, ``seg_starts``/``lens`` describe the segments inside
        that gathered layout.
        """
        starts = self.cell_starts[rows]
        lens = self.cell_starts[rows + 1] - starts
        total = int(lens.sum())
        ends = np.cumsum(lens)
        seg_starts = ends - lens
        pos = np.arange(total, dtype=np.int64) + np.repeat(starts - seg_starts, lens)
        return pos, seg_starts, lens


def batch_mbr_coverage(
    block: TrajectoryBlock,
    rows: np.ndarray,
    q_low: np.ndarray,
    q_high: np.ndarray,
    tau_slack: float,
) -> np.ndarray:
    """Lemma 5.4 coverage mask for all selected rows at once.

    ``mask[i]`` is True when candidate ``rows[i]`` *survives*: its
    tau-expanded MBR covers the query MBR and vice versa — the exact
    vectorization of :func:`repro.core.verify.mbr_coverage_ok`.
    """
    lo = block.mbr_low[rows]
    hi = block.mbr_high[rows]
    cover_t_of_q = np.logical_and(
        (q_low >= lo - tau_slack).all(axis=1), (q_high <= hi + tau_slack).all(axis=1)
    )
    cover_q_of_t = np.logical_and(
        (lo >= q_low - tau_slack).all(axis=1), (hi <= q_high + tau_slack).all(axis=1)
    )
    return np.logical_and(cover_t_of_q, cover_q_of_t)


def batch_cell_bounds(
    block: TrajectoryBlock,
    rows: np.ndarray,
    q_cells,
    kind: str,
    max_elems: int = 1 << 20,
    q_counts_total: float = 0.0,
) -> np.ndarray:
    """Lemma 5.6 lower bounds for all selected rows at once.

    ``kind`` is ``"sum"`` for the additive DTW bound
    (``max(Cell(T, Q), Cell(Q, T))``) or ``"max"`` for the Fréchet bound
    (largest cell-to-nearest-cell gap in either direction).  ``q_cells``
    is the query's :class:`~repro.geometry.cell.CellSet`.  The candidate
    cell-to-query cell distance matrix is computed in chunks of whole
    candidates so no intermediate exceeds ``max_elems`` entries.
    """
    if kind not in ("sum", "max"):
        raise ValueError(f"unknown cell bound kind {kind!r}")
    k = int(rows.shape[0])
    if k == 0:
        return np.empty(0)
    pos, seg_starts, lens = block.gather_cells(rows)
    centers = block.cell_centers[pos]
    halves = block.cell_halves[pos]
    counts = block.cell_counts[pos]
    q_half = q_cells.side / 2.0
    q_low = q_cells.centers - q_half
    q_high = q_cells.centers + q_half
    q_counts = q_cells.counts.astype(np.float64)
    nq = q_low.shape[0]
    bounds = np.empty(k)
    lead = 0
    while lead < k:
        tail = lead + 1
        cells = int(lens[lead])
        while tail < k and (cells + int(lens[tail])) * nq <= max_elems:
            cells += int(lens[tail])
            tail += 1
        c_lo = int(seg_starts[lead])
        c_hi = c_lo + cells
        low = centers[c_lo:c_hi] - halves[c_lo:c_hi, None]
        high = centers[c_lo:c_hi] + halves[c_lo:c_hi, None]
        gap = np.maximum(
            low[:, None, :] - q_high[None, :, :], q_low[None, :, :] - high[:, None, :]
        )
        np.maximum(gap, 0.0, out=gap)
        dist = np.sqrt(np.sum(gap * gap, axis=2))
        local_starts = (seg_starts[lead:tail] - c_lo).astype(np.int64)
        row_min = dist.min(axis=1)
        col_min = np.minimum.reduceat(dist, local_starts, axis=0)
        if kind == "sum":
            forward = np.add.reduceat(row_min * counts[c_lo:c_hi], local_starts)
            backward = col_min @ q_counts
        else:
            forward = np.maximum.reduceat(row_min, local_starts)
            backward = col_min.max(axis=1)
        np.maximum(forward, backward, out=forward)
        bounds[lead:tail] = forward
        lead = tail
    return bounds
