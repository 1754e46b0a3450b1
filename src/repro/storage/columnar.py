"""The in-memory columnar trajectory container.

A :class:`ColumnarDataset` holds a whole trajectory collection as one
contiguous CSR layout:

* ``point_coords`` — ``(total_points, ndim)`` float64, every trajectory's
  points concatenated in row order;
* ``point_starts`` — ``(n + 1,)`` int64 offsets; row ``r`` owns
  ``point_coords[point_starts[r]:point_starts[r + 1]]``;
* ``traj_ids`` — ``(n,)`` int64 trajectory ids, one per row.

Per-trajectory summaries (first/last points, MBR corners, lengths) are
computed lazily with vectorized reductions (``np.minimum.reduceat`` /
fancy indexing) and cached — index construction and global partitioning
start from these arrays instead of iterating ``Trajectory`` objects.

``Trajectory`` objects become *views*: :meth:`view` materializes one row
on demand as a zero-copy slice of ``point_coords`` (contiguous slices
pass through ``np.ascontiguousarray`` unchanged).  Every materialization
increments :attr:`materializations`, which the test suite uses to assert
that the batch search/join/kNN paths never touch objects.

The arrays may be ordinary ndarrays or read-only ``np.memmap`` views of a
persisted store block (:mod:`repro.storage.store`) — all consumers are
agnostic.  A dataset is immutable once built: writes go through
:class:`~repro.storage.delta.DeltaPartition`, which produces a new
compact dataset on apply.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

from ..trajectory.trajectory import Trajectory


def _read_only(arr: np.ndarray) -> np.ndarray:
    """Best-effort write protection (memmaps opened mode 'r' already are)."""
    if arr.flags.writeable:
        arr.setflags(write=False)
    return arr


class ColumnarDataset:
    """A trajectory collection stored as contiguous CSR arrays.

    Duck-compatible with :class:`~repro.trajectory.trajectory.TrajectoryDataset`
    (``len`` / iteration / ``by_id`` / ``ids`` / ``first_points`` / ...), so
    it drops into every consumer of a dataset; iteration materializes row
    views, which only boundary code (analytics, SQL rendering, tests)
    should do.
    """

    def __init__(
        self,
        traj_ids: np.ndarray,
        point_starts: np.ndarray,
        point_coords: np.ndarray,
        *,
        firsts: Optional[np.ndarray] = None,
        lasts: Optional[np.ndarray] = None,
        mbr_lows: Optional[np.ndarray] = None,
        mbr_highs: Optional[np.ndarray] = None,
    ) -> None:
        traj_ids = np.asarray(traj_ids, dtype=np.int64)
        point_starts = np.asarray(point_starts, dtype=np.int64)
        point_coords = np.asarray(point_coords, dtype=np.float64)
        n = int(traj_ids.shape[0])
        if point_starts.shape != (n + 1,):
            raise ValueError(
                f"point_starts must have shape ({n + 1},), got {point_starts.shape}"
            )
        if point_coords.ndim != 2:
            raise ValueError("point_coords must be a (total_points, ndim) array")
        if n and int(point_starts[0]) != 0:
            raise ValueError("point_starts must begin at 0")
        if int(point_starts[-1] if n else 0) != point_coords.shape[0]:
            raise ValueError("point_starts must end at len(point_coords)")
        if n and int(np.min(np.diff(point_starts))) < 1:
            raise ValueError("every trajectory needs at least one point")
        if n and np.unique(traj_ids).shape[0] != n:
            raise ValueError("duplicate trajectory ids in dataset")
        self.traj_ids = _read_only(traj_ids)
        self.point_starts = _read_only(point_starts)
        self.point_coords = _read_only(point_coords)
        self._ndim = int(point_coords.shape[1]) if point_coords.ndim == 2 and point_coords.shape[1] else 2
        #: number of Trajectory objects materialized from this dataset
        self.materializations = 0
        self._row_by_id: Optional[dict] = None
        self._firsts = None if firsts is None else _read_only(np.asarray(firsts, dtype=np.float64))
        self._lasts = None if lasts is None else _read_only(np.asarray(lasts, dtype=np.float64))
        self._mbr_lows = None if mbr_lows is None else _read_only(np.asarray(mbr_lows, dtype=np.float64))
        self._mbr_highs = None if mbr_highs is None else _read_only(np.asarray(mbr_highs, dtype=np.float64))
        self._lengths: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def empty(cls, ndim: int = 2) -> "ColumnarDataset":
        return cls(
            np.empty(0, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
            np.empty((0, ndim), dtype=np.float64),
        )

    @classmethod
    def from_trajectories(cls, trajectories: Iterable[Trajectory]) -> "ColumnarDataset":
        """Pack ``Trajectory`` objects (or an existing dataset) into CSR form."""
        if isinstance(trajectories, ColumnarDataset):
            return trajectories
        trajs = list(trajectories)
        if not trajs:
            return cls.empty()
        ids = np.asarray([t.traj_id for t in trajs], dtype=np.int64)
        lens = np.asarray([len(t) for t in trajs], dtype=np.int64)
        starts = np.zeros(len(trajs) + 1, dtype=np.int64)
        np.cumsum(lens, out=starts[1:])
        coords = np.concatenate([t.points for t in trajs], axis=0)
        return cls(ids, starts, coords)

    # ------------------------------------------------------------------ #
    # shape and summaries
    # ------------------------------------------------------------------ #

    @property
    def n_rows(self) -> int:
        """Number of rows (the index row space)."""
        return int(self.traj_ids.shape[0])

    def __len__(self) -> int:
        return self.n_rows

    @property
    def ndim(self) -> int:
        return self._ndim

    @property
    def n_points(self) -> int:
        return int(self.point_coords.shape[0])

    @property
    def lengths(self) -> np.ndarray:
        """Per-row point counts, ``(n_rows,)`` int64."""
        if self._lengths is None:
            self._lengths = _read_only(np.diff(self.point_starts))
        return self._lengths

    @property
    def firsts(self) -> np.ndarray:
        """Per-row first points, ``(n_rows, ndim)``."""
        if self._firsts is None:
            self._firsts = _read_only(self.point_coords[self.point_starts[:-1]])
        return self._firsts

    @property
    def lasts(self) -> np.ndarray:
        """Per-row last points, ``(n_rows, ndim)``."""
        if self._lasts is None:
            self._lasts = _read_only(self.point_coords[self.point_starts[1:] - 1])
        return self._lasts

    @property
    def mbr_lows(self) -> np.ndarray:
        """Per-row MBR low corners (vectorized ``np.minimum.reduceat``)."""
        if self._mbr_lows is None:
            if self.n_rows:
                self._mbr_lows = _read_only(
                    np.minimum.reduceat(self.point_coords, self.point_starts[:-1], axis=0)
                )
            else:
                self._mbr_lows = _read_only(np.empty((0, self.ndim), dtype=np.float64))
        return self._mbr_lows

    @property
    def mbr_highs(self) -> np.ndarray:
        """Per-row MBR high corners (vectorized ``np.maximum.reduceat``)."""
        if self._mbr_highs is None:
            if self.n_rows:
                self._mbr_highs = _read_only(
                    np.maximum.reduceat(self.point_coords, self.point_starts[:-1], axis=0)
                )
            else:
                self._mbr_highs = _read_only(np.empty((0, self.ndim), dtype=np.float64))
        return self._mbr_highs

    # TrajectoryDataset-compatible array accessors
    def first_points(self) -> np.ndarray:
        return self.firsts

    def last_points(self) -> np.ndarray:
        return self.lasts

    def nbytes(self) -> int:
        """Raw point bytes (cost-accounting metric)."""
        return int(self.point_coords.nbytes)

    # ------------------------------------------------------------------ #
    # rows and views
    # ------------------------------------------------------------------ #

    def alive_rows(self) -> np.ndarray:
        """Every row index, ascending (datasets hold no dead rows)."""
        return np.arange(self.n_rows, dtype=np.int64)

    def points(self, row: int) -> np.ndarray:
        """Zero-copy ``(len, ndim)`` view of one row's points."""
        return self.point_coords[self.point_starts[row] : self.point_starts[row + 1]]

    def view(self, row: int) -> Trajectory:
        """Materialize one row as a :class:`Trajectory` (zero-copy points).

        Counted in :attr:`materializations` — the batch search / join / kNN
        paths must reach their answers without calling this for anything
        but accepted results.
        """
        self.materializations += 1
        return Trajectory(int(self.traj_ids[row]), self.points(row))

    def id_of(self, row: int) -> int:
        return int(self.traj_ids[row])

    def ids_of(self, rows: Sequence[int]) -> List[int]:
        return [int(i) for i in self.traj_ids[np.asarray(rows, dtype=np.int64)]]

    def row_of(self, traj_id: int) -> int:
        """Row index of a trajectory id (KeyError when absent)."""
        if self._row_by_id is None:
            self._row_by_id = {int(tid): r for r, tid in enumerate(self.traj_ids)}
        return self._row_by_id[traj_id]

    def __contains__(self, traj_id: int) -> bool:
        try:
            self.row_of(traj_id)
            return True
        except KeyError:
            return False

    def by_id(self, traj_id: int) -> Trajectory:
        return self.view(self.row_of(traj_id))

    @property
    def ids(self) -> List[int]:
        return [int(i) for i in self.traj_ids]

    def __iter__(self) -> Iterator[Trajectory]:
        for row in range(self.n_rows):
            yield self.view(row)

    def __getitem__(self, idx: int) -> Trajectory:
        return self.view(range(self.n_rows)[idx])

    def subset(self, rows: Sequence[int]) -> "ColumnarDataset":
        """A new compact dataset holding the selected rows, in order."""
        rows = np.asarray(rows, dtype=np.int64)
        lens = self.lengths[rows]
        starts = np.zeros(rows.shape[0] + 1, dtype=np.int64)
        np.cumsum(lens, out=starts[1:])
        total = int(starts[-1])
        src = np.repeat(self.point_starts[rows], lens) + (
            np.arange(total, dtype=np.int64) - np.repeat(starts[:-1], lens)
        )
        return ColumnarDataset(
            np.array(self.traj_ids[rows], dtype=np.int64),
            starts,
            self.point_coords[src],
            firsts=np.array(self.firsts[rows], dtype=np.float64),
            lasts=np.array(self.lasts[rows], dtype=np.float64),
        )

    def sample(self, fraction: float, seed: int = 0) -> "ColumnarDataset":
        """A deterministic random sample of ``fraction`` of the dataset."""
        if not 0 < fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        if fraction == 1.0:
            return self.subset(self.alive_rows())
        rng = np.random.default_rng(seed)
        n = max(1, int(round(self.n_rows * fraction)))
        idx = rng.choice(self.n_rows, size=n, replace=False)
        return self.subset(np.sort(idx))

    def __repr__(self) -> str:
        return f"ColumnarDataset(n={len(self)}, points={self.n_points}, d={self.ndim})"


def concat_datasets(parts: Sequence[ColumnarDataset]) -> ColumnarDataset:
    """One compact dataset holding every row of ``parts``, in order.

    Row order is each part's row order, parts in the given sequence
    order — the canonical layout online repartitioning feeds back into
    :func:`partition_rows`.  Trajectory ids must be unique across parts.
    """
    parts = [p for p in parts if p.n_rows]
    if not parts:
        return ColumnarDataset.empty()
    ids = np.concatenate([p.traj_ids for p in parts])
    lens = np.concatenate([p.lengths for p in parts])
    starts = np.zeros(ids.shape[0] + 1, dtype=np.int64)
    np.cumsum(lens, out=starts[1:])
    coords = np.concatenate([p.point_coords for p in parts], axis=0)
    return ColumnarDataset(ids, starts, coords)


def partition_rows(dataset: ColumnarDataset, n_groups: int) -> List[np.ndarray]:
    """First/last-point STR partitioning over the summary arrays.

    Returns up to ``n_groups**2`` row-index arrays: STR
    on first points into ``n_groups`` rank-balanced buckets, then each
    bucket STR-grouped by last point — the array-native form of the
    Section 4.2.1 global partitioning, shared by the engine and the
    persisted store builder.
    """
    from ..spatial.str_pack import str_partition

    if dataset.n_rows == 0:
        return []
    lasts = dataset.lasts
    out: List[np.ndarray] = []
    for bucket_idx in str_partition(dataset.firsts, n_groups):
        for sub_idx in str_partition(lasts[bucket_idx], n_groups):
            out.append(bucket_idx[sub_idx])
    return out
