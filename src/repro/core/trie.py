"""The trie-like local index (Sections 4.2.3 and 5.3).

Each trajectory is reduced to its indexing points
``T_I = (t1, tm, tP1, ..., tPK)`` and the partition's trajectories are
grouped level by level: level 1 groups by first point, level 2 by last
point, levels 3..K+2 by successive pivots.  Each node stores the MBR of its
group's current indexing point; leaves store the trajectories themselves
(a *clustered* index — the paper contrasts this with DFT's non-clustered
bitmap design).

The index is *row-native*: the partition's trajectories live in a
:class:`~repro.storage.columnar.ColumnarDataset` (one contiguous CSR
layout, possibly memory-mapped from a persisted store block) and every
node holds ``int`` row indices into it.  Filtering returns row arrays;
``Trajectory`` objects are materialized only at the boundary, by callers
that need them.

Filtering (Algorithm 2) walks the trie accumulating per-level ``MinDist``
against a shrinking threshold; the per-distance accumulation policy lives
in :mod:`repro.core.adapters`.

Trajectories too short to supply all ``K`` pivots terminate early in a
*short leaf* attached at the level where their indexing sequence ends —
they are returned as candidates whenever filtering reaches that node, which
is sound (they simply enjoyed fewer pruning levels).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Union

import numpy as np

from ..geometry.mbr import MBR
from ..kernels.batch import TrajectoryBlock
from ..kernels.frontier import ColumnarTrie, QueryBatch, frontier_filter
from ..spatial.str_pack import str_partition
from ..storage.columnar import ColumnarDataset
from ..trajectory.trajectory import Trajectory
from .adapters import FIRST, LAST, PIVOT, FilterState, IndexAdapter, batch_visit_supported
from .config import DITAConfig
from .pivots import indexing_points


def _level_kind(level: int) -> str:
    """Level 1 aligns the first point, level 2 the last, the rest pivots."""
    if level == 1:
        return FIRST
    if level == 2:
        return LAST
    return PIVOT


@dataclass
class TrieNode:
    """One node of the local index.

    ``level`` is the depth (root = 0); ``mbr`` covers the ``level``-th
    indexing point of every trajectory below (None for the root);
    ``short_rows`` holds dataset rows whose indexing sequence ends at this
    node; ``rows`` is non-empty only for leaves.
    """

    level: int
    kind: Optional[str] = None
    mbr: Optional[MBR] = None
    children: List["TrieNode"] = field(default_factory=list)
    rows: List[int] = field(default_factory=list)
    short_rows: List[int] = field(default_factory=list)
    max_len: int = 0

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def node_count(self) -> int:
        return 1 + sum(c.node_count() for c in self.children)


@dataclass
class FilterStats:
    """Instrumentation of one filtering pass."""

    nodes_visited: int = 0
    nodes_pruned: int = 0
    candidates: int = 0

    def merge(self, other: "FilterStats") -> None:
        self.nodes_visited += other.nodes_visited
        self.nodes_pruned += other.nodes_pruned
        self.candidates += other.candidates


class TrieIndex:
    """The local (per-partition) index of DITA.

    Immutable once built: the engine's write path never edits a trie; a
    delta flush bulk-builds a new one over the partition's new dataset.

    Parameters
    ----------
    trajectories:
        The partition's trajectories: a
        :class:`~repro.storage.columnar.ColumnarDataset` (adopted as-is,
        zero-copy — the canonical path) or any iterable of
        :class:`Trajectory` (packed into one).
    config:
        Index parameters (``num_pivots``, ``trie_fanout``, ...).
    """

    def __init__(
        self,
        trajectories: Union[ColumnarDataset, Iterable[Trajectory]],
        config: Optional[DITAConfig] = None,
    ) -> None:
        self.config = config or DITAConfig()
        self.dataset = ColumnarDataset.from_trajectories(trajectories)
        cfg = self.config
        rows = list(range(self.dataset.n_rows))
        self._index_seqs: Dict[int, np.ndarray] = {
            r: indexing_points(self.dataset.points(r), cfg.num_pivots, cfg.pivot_strategy)
            for r in rows
        }
        self._ndim = self.dataset.ndim
        self._block: Optional[TrajectoryBlock] = None
        self._columnar: Optional[ColumnarTrie] = None
        self.root = self._build(rows, level=0)

    def batch_block(self) -> TrajectoryBlock:
        """The partition's verification artifacts stacked for the batched
        filter stages (:mod:`repro.kernels.batch`), sharing the dataset's
        row space.  Built lazily straight from the columnar arrays and
        cached (the trie and its dataset never change after construction)."""
        if self._block is None:
            self._block = TrajectoryBlock.from_columnar(self.dataset, self.config.cell_size)
        return self._block

    def columnar(self) -> ColumnarTrie:
        """The trie flattened into contiguous arrays for frontier traversal
        (:mod:`repro.kernels.frontier`); built lazily and cached."""
        if self._columnar is None:
            self._columnar = ColumnarTrie.from_root(self.root, self._ndim)
        return self._columnar

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    def _build(self, rows: List[int], level: int) -> TrieNode:
        node = TrieNode(level=level, kind=_level_kind(level) if level > 0 else None)
        lengths = self.dataset.lengths
        node.max_len = max((int(lengths[r]) for r in rows), default=0)
        if not rows:
            return node
        max_level = self.config.num_pivots + 2
        # rows whose indexing sequence ends here become short-leaf members;
        # the rest are grouped by the next indexing point
        remaining: List[int] = []
        for r in rows:
            if self._index_seqs[r].shape[0] <= level:
                node.short_rows.append(r)
            else:
                remaining.append(r)
        if not remaining:
            return node
        if level >= max_level or len(remaining) <= self.config.trie_leaf_capacity:
            node.rows = remaining
            return node
        pts = np.asarray([self._index_seqs[r][level] for r in remaining])
        groups = str_partition(pts, self.config.trie_fanout)
        for idx in groups:
            members = [remaining[i] for i in idx.tolist()]
            child = self._build(members, level + 1)
            child.kind = _level_kind(level + 1)
            child.mbr = MBR.of_points(pts[idx])
            node.children.append(child)
        return node

    # ------------------------------------------------------------------ #
    # filtering (Algorithm 2, DITA-Search-Filter)
    # ------------------------------------------------------------------ #

    def filter_candidates(
        self,
        q: np.ndarray,
        tau: float,
        adapter: IndexAdapter,
        stats: Optional[FilterStats] = None,
    ) -> np.ndarray:
        """Dataset rows of candidates possibly similar to query points ``q``.

        Guaranteed superset of the true answers for the adapter's distance.
        Routed through the columnar frontier traversal when the config and
        adapter allow it; identical results either way.
        """
        q = np.atleast_2d(np.asarray(q, dtype=np.float64))
        if self.config.use_frontier_filter and batch_visit_supported(adapter):
            return self.filter_candidates_batch(
                [q], [tau], adapter, None if stats is None else [stats]
            )[0]
        return self.filter_candidates_reference(q, tau, adapter, stats)

    def filter_candidates_batch(
        self,
        queries: List[np.ndarray],
        taus: List[float],
        adapter: IndexAdapter,
        stats: Optional[List[Optional[FilterStats]]] = None,
    ) -> List[np.ndarray]:
        """Run Algorithm 2 for many queries in one level-synchronous sweep
        over the columnar trie layout (:mod:`repro.kernels.frontier`).

        Returns one int64 row array per query — the same candidate sets
        (and the same ``FilterStats`` counts) the recursive reference walk
        produces.  Adapters that customize the scalar ``visit`` without a
        matching ``visit_batch`` fall back to the reference walk per query.
        """
        qs = [np.atleast_2d(np.asarray(q, dtype=np.float64)) for q in queries]
        if len(qs) != len(taus):
            raise ValueError("queries and taus must have equal length")
        if stats is not None and len(stats) != len(qs):
            raise ValueError("stats must have one (possibly None) entry per query")
        if not (self.config.use_frontier_filter and batch_visit_supported(adapter)):
            return [
                self.filter_candidates_reference(
                    q, t, adapter, None if stats is None else stats[i]
                )
                for i, (q, t) in enumerate(zip(qs, taus))
            ]
        trie = self.columnar()
        batch = QueryBatch(qs)
        positions, visited, pruned = frontier_filter(trie, batch, taus, adapter)
        out: List[np.ndarray] = []
        for i, pos in enumerate(positions):
            rows = trie.member_rows[pos]
            if stats is not None and stats[i] is not None:
                stats[i].nodes_visited += int(visited[i])
                stats[i].nodes_pruned += int(pruned[i])
                # accumulate, like every other counter: one stats object
                # may observe several filtering passes
                stats[i].candidates += int(rows.shape[0])
            out.append(rows)
        return out

    def filter_candidates_reference(
        self,
        q: np.ndarray,
        tau: float,
        adapter: IndexAdapter,
        stats: Optional[FilterStats] = None,
    ) -> np.ndarray:
        """The recursive object-graph walk of Algorithm 2, kept as the
        differential-testing oracle for the frontier traversal."""
        q = np.atleast_2d(np.asarray(q, dtype=np.float64))
        state = adapter.initial_state(q, tau)
        out: List[int] = []
        self._filter_reference(self.root, q, state, adapter, out, stats)
        if stats is not None:
            stats.candidates += len(out)
        return np.asarray(out, dtype=np.int64)

    def _filter_reference(
        self,
        node: TrieNode,
        q: np.ndarray,
        state: FilterState,
        adapter: IndexAdapter,
        out: List[int],
        stats: Optional[FilterStats],
    ) -> None:
        if stats is not None:
            stats.nodes_visited += 1
        # anything whose indexing sequence ended here survived every level,
        # and leaf members are candidates outright; a node can hold members
        # *and* children (short rows beside deeper groups), so always keep
        # walking
        out.extend(node.short_rows)
        out.extend(node.rows)
        for child in node.children:
            child_state = adapter.visit(state, child.kind, child.mbr, q, child.max_len)
            if child_state is None:
                if stats is not None:
                    stats.nodes_pruned += 1
                continue
            self._filter_reference(child, q, child_state, adapter, out, stats)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.dataset)

    def node_count(self) -> int:
        return self.root.node_count()

    def height(self) -> int:
        def depth(n: TrieNode) -> int:
            return 1 + max((depth(c) for c in n.children), default=0)

        return depth(self.root)

    def all_rows(self) -> List[int]:
        """Every indexed dataset row, in trie walk order."""
        out: List[int] = []

        def walk(n: TrieNode) -> None:
            out.extend(n.short_rows)
            out.extend(n.rows)
            for c in n.children:
                walk(c)

        walk(self.root)
        return out

    def size_bytes(self) -> int:
        """Approximate *structural* index footprint: trie nodes, their MBRs,
        leaf row references and the per-trajectory indexing points.  This is
        the quantity the paper's Table 5 compares against DFT's segment
        index; the verification artifacts (trajectory MBRs + cells) are
        precomputed *data* reported separately by
        :meth:`verification_size_bytes`."""
        total = 0

        def walk(n: TrieNode) -> None:
            nonlocal total
            total += 64  # node overhead
            if n.mbr is not None:
                total += int(n.mbr.low.nbytes + n.mbr.high.nbytes)
            total += 8 * (len(n.rows) + len(n.short_rows))  # row refs
            for c in n.children:
                walk(c)

        walk(self.root)
        for seq in self._index_seqs.values():
            total += int(seq.nbytes)
        return total

    def verification_size_bytes(self) -> int:
        """Footprint of the precomputed verification artifacts (Lemma 5.4
        MBRs and Lemma 5.6 cells), measured over the stacked block."""
        block = self.batch_block()
        total = int(block.mbr_low.nbytes + block.mbr_high.nbytes)
        total += 40 * int(block.cell_counts.shape[0])
        return total
