"""Global partitioning and the global index (Sections 4.2.1-4.2.2).

Trajectories are STR-grouped into ``NG`` buckets by first point, each bucket
STR-grouped into ``NG`` sub-buckets by last point; every sub-bucket is a
partition (so similar trajectories land together and partitions hold
roughly equal counts).  Partitioning and the per-partition metadata are
computed straight from the columnar summary arrays
(:class:`~repro.storage.columnar.ColumnarDataset`) — no trajectory objects
are iterated anywhere on this path.  The global index is a pair of R-trees
over each partition's first-point MBR (``MBR_f``) and last-point MBR
(``MBR_l``); pruning keeps partitions with

``MinDist(q1, MBR_f) + MinDist(qn, MBR_l) <= tau``

(for additive distances; for Fréchet both terms are compared to ``tau``
individually, and for EDR/LCSS a partition survives unless both align MBRs
are farther than epsilon while the budget is exhausted — we conservatively
keep partitions whose combined unmatched count exceeds the edit budget).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..geometry.mbr import MBR
from ..spatial.rtree import RTree
from ..storage.columnar import ColumnarDataset
from .adapters import IndexAdapter
from .config import DITAConfig
from .numerics import slack


@dataclass
class PartitionInfo:
    """Metadata the master keeps per partition."""

    partition_id: int
    mbr_first: MBR
    mbr_last: MBR
    size: int
    nbytes: int
    #: shortest member trajectory; the endpoint-sum bound
    #: ``d(t1,q1) + d(tm,qn) <= DTW`` double-counts the single shared cell
    #: when both sides have length 1, so predicates fall back to
    #: ``max(df, dl)`` for such pairs
    min_len: int = 2


def partition_info(partition_id: int, part: ColumnarDataset) -> PartitionInfo:
    """The master-side metadata of one partition, straight from the
    dataset's vectorized summary arrays.  The partition must be non-empty."""
    return PartitionInfo(
        partition_id=partition_id,
        mbr_first=MBR.of_points(part.firsts),
        mbr_last=MBR.of_points(part.lasts),
        size=part.n_rows,
        nbytes=part.nbytes(),
        min_len=int(part.lengths.min()),
    )


def partition_trajectories(dataset, n_groups: int) -> List[ColumnarDataset]:
    """First/last-point STR partitioning into up to ``n_groups**2`` partitions.

    Groups by first point into ``n_groups`` rank-balanced buckets (STR on
    the first axis, then the second), then each bucket by last point.
    Every trajectory is assigned to exactly one partition.  ``dataset`` is
    a :class:`ColumnarDataset` or any iterable of trajectories (packed into
    one); the result is one compact dataset per partition, sliced with a
    single vectorized gather.
    """
    data = ColumnarDataset.from_trajectories(dataset)
    from ..storage.columnar import partition_rows

    return [data.subset(rows) for rows in partition_rows(data, n_groups)]


class GlobalIndex:
    """The master-side index over partition MBRs."""

    def __init__(self, partitions: Sequence, config: Optional[DITAConfig] = None) -> None:
        infos = []
        for pid, part in enumerate(partitions):
            part = ColumnarDataset.from_trajectories(part)
            if len(part) == 0:
                continue
            infos.append(partition_info(pid, part))
        self._init_from_infos(infos, config)

    @classmethod
    def from_infos(
        cls, infos: Sequence[PartitionInfo], config: Optional[DITAConfig] = None
    ) -> "GlobalIndex":
        """Build the master-side index from precomputed partition metadata
        (e.g. a persisted store's catalog) — no partition bytes touched."""
        self = cls.__new__(cls)
        self._init_from_infos(list(infos), config)
        return self

    def _init_from_infos(
        self, infos: List[PartitionInfo], config: Optional[DITAConfig]
    ) -> None:
        self.config = config or DITAConfig()
        self.partitions_meta = infos
        fanout = self.config.rtree_fanout
        self.rtree_first = RTree(
            [(m.mbr_first, m.partition_id) for m in infos], max_entries=fanout
        )
        self.rtree_last = RTree(
            [(m.mbr_last, m.partition_id) for m in infos], max_entries=fanout
        )
        self._meta_by_id = {m.partition_id: m for m in self.partitions_meta}

    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.partitions_meta)

    def meta(self, partition_id: int) -> PartitionInfo:
        return self._meta_by_id[partition_id]

    def relevant_partitions(
        self, q: np.ndarray, tau: float, adapter: Optional[IndexAdapter] = None
    ) -> List[int]:
        """Partition ids that may hold trajectories similar to query ``q``
        (Section 5.2 global pruning)."""
        if adapter is not None and adapter.distance_name in ("edr", "lcss", "erp", "hausdorff"):
            # edit distances and ERP do not force endpoint alignment, so the
            # first/last-point global pruning is unsound for them; the local
            # trie does the pruning instead
            return [m.partition_id for m in self.partitions_meta]
        q = np.atleast_2d(np.asarray(q, dtype=np.float64))
        q1, qn = q[0], q[-1]
        additive = adapter is None or adapter.subtracts
        # Cf: partitions whose first-point MBR is within tau of q1
        tau_s = slack(tau)
        cf = {pid: mbr.min_dist_point(q1) for mbr, pid in self.rtree_first.search_min_dist(q1, tau_s)}
        if not cf:
            return []
        cl = {pid: mbr.min_dist_point(qn) for mbr, pid in self.rtree_last.search_min_dist(qn, tau_s)}
        query_is_point = q.shape[0] == 1
        out: List[int] = []
        for pid, df in cf.items():
            if pid not in cl:
                continue
            if not additive:
                out.append(pid)
                continue
            # length-1 x length-1 pairs share one DTW cell: fall back to max
            bound = (
                max(df, cl[pid])
                if query_is_point and self._meta_by_id[pid].min_len == 1
                else df + cl[pid]
            )
            if bound <= tau_s:
                out.append(pid)
        return sorted(out)

    def relevant_partitions_for_mbr(self, first_mbr: MBR, last_mbr: MBR, tau: float) -> List[int]:
        """Partitions whose align MBRs are within ``tau`` of the given pair
        of MBRs — the partition-to-partition predicate of the join planner."""
        out: List[int] = []
        tau_s = slack(tau)
        for meta in self.partitions_meta:
            df = meta.mbr_first.min_dist_mbr(first_mbr)
            dl = meta.mbr_last.min_dist_mbr(last_mbr)
            bound = max(df, dl) if meta.min_len == 1 else df + dl
            if bound <= tau_s:
                out.append(meta.partition_id)
        return out

    def size_bytes(self) -> int:
        """Approximate global-index footprint (two R-trees of partition MBRs)."""
        per_entry = 2 * 16 * 2 + 16  # two MBRs (low/high, 2 doubles each) + ids
        return len(self.partitions_meta) * per_entry * 2
