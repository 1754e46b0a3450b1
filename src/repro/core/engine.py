"""The DITA engine: the library's primary entry point.

``DITAEngine`` owns one indexed dataset: the first/last-point partitioning,
the global index, one trie per partition and the verification artifacts —
exactly the state a Spark driver plus its executors would hold — and runs
searches and joins on a simulated cluster.

Every partition is a :class:`~repro.storage.columnar.ColumnarDataset` (one
contiguous CSR block, possibly memory-mapped from a persisted
:class:`~repro.storage.store.TrajectoryStore`); the search/join/kNN hot
paths move dataset *rows* through the kernels and materialize
``Trajectory`` objects only for accepted results.

Typical use::

    from repro import DITAEngine, DITAConfig
    from repro.datagen import beijing_like, sample_queries

    data = beijing_like(1000)
    engine = DITAEngine(data, DITAConfig(num_global_partitions=4))
    query = sample_queries(data, 1)[0]
    matches = engine.search(query, tau=0.005)          # [(Trajectory, dist)]
    pairs = engine.join(engine, tau=0.002)             # [(id, id, dist)]

Or, cold-starting from a persisted store (no parsing, no partitioning, no
summary computation — blocks load lazily, and partitions the global index
prunes are never read at all)::

    engine = DITAEngine.from_store(TrajectoryStore.open("trips.store"))
"""

from __future__ import annotations

import os
import shutil
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..cluster.clock import Stopwatch, wall_clock
from ..cluster.parallel import ExecutorError, ParallelExecutor, SideInit, WorkerInit
from ..cluster.simulator import Cluster
from ..cluster.tasks import TaskSpec, run_task_body
from ..obs import MetricsRegistry
from ..geometry.mbr import MBR
from ..storage.columnar import ColumnarDataset, concat_datasets
from ..storage.delta import DeltaPartition
from ..storage.generations import GenerationalStore
from ..storage.store import snapshot_partitions, write_catalog, write_partition_block
from ..trajectory.trajectory import Trajectory
from .adapters import IndexAdapter, get_adapter
from .config import DITAConfig
from .global_index import GlobalIndex, PartitionInfo, partition_info, partition_trajectories
from .join import JoinExecutor, JoinPair, JoinStats
from .search import LocalSearcher, Match, SearchStats
from .trie import TrieIndex
from .verify import VerificationData


def _resolve_adapter(distance: "str | IndexAdapter", config: DITAConfig) -> IndexAdapter:
    if isinstance(distance, str):
        if distance in ("dtw", "frechet"):
            return get_adapter(distance, use_suffix_pruning=config.use_suffix_pruning)
        return get_adapter(distance)
    return distance


def _validated_points(points, ndim: Optional[int]) -> np.ndarray:
    """The write-entry check every append/extend runs before routing or
    touching any state: ``points`` as a float64 ``(n, ndim)`` array with at
    least one point and only finite coordinates, else a ValueError naming
    the problem."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        raise ValueError("a trajectory write needs at least one point")
    pts = np.atleast_2d(pts)
    if pts.ndim != 2:
        raise ValueError(f"points must be an (n, d) array, got shape {pts.shape}")
    if ndim is not None and pts.shape[1] != ndim:
        raise ValueError(
            f"points have {pts.shape[1]} coordinates, the engine indexes {ndim}"
        )
    if not np.isfinite(pts).all():
        raise ValueError("points contain NaN or infinite coordinates")
    return pts


@dataclass
class _EngineTask:
    """One schedulable unit: the backend-neutral :class:`TaskSpec` plus
    the simulator routing and accounting the engine has always used.

    ``cluster_pid`` routes through ``Cluster.run_local`` (partition-homed
    tasks); ``exec_worker`` routes through ``Cluster.run_on_worker``
    (join division replicas, which target an explicit worker)."""

    spec: TaskSpec
    work: float
    tag: str
    cluster_pid: Optional[int] = None
    exec_worker: Optional[int] = None


class _LocalResolver:
    """The simulated backend's resolver: task-body references resolve
    against the coordinator's own partitions, tries and caches (see
    :mod:`repro.cluster.tasks` for the protocol;
    :class:`repro.cluster.parallel.WorkerState` is the process twin).

    Query and sender verification artifacts can be *seeded* so the body
    reuses the exact objects the engine built on the driver — the inline
    path stays allocation-for-allocation identical to the pre-seam code.
    """

    def __init__(self, left: "DITAEngine", right: Optional["DITAEngine"] = None) -> None:
        self._engines: Dict[str, "DITAEngine"] = {"L": left, "R": right if right is not None else left}
        self._qdata: Dict[int, VerificationData] = {}
        self._sender: Dict[Tuple[str, int, int], VerificationData] = {}
        self._join_searchers: Dict[Tuple[str, int], LocalSearcher] = {}
        self._distances: Dict[str, Any] = {}

    def engine(self, side: str) -> "DITAEngine":
        return self._engines[side]

    def searcher(self, side: str, pid: int) -> Optional[LocalSearcher]:
        return self._engines[side]._searcher(pid)

    def join_searcher(self, side: str, pid: int) -> LocalSearcher:
        # mirrors JoinExecutor: the left engine's adapter drives the join,
        # the receiving side supplies trie and verifier
        key = (side, pid)
        s = self._join_searchers.get(key)
        if s is None:
            eng = self._engines[side]
            s = LocalSearcher(eng.trie(pid), self._engines["L"].adapter, eng.verifier)
            self._join_searchers[key] = s
        return s

    def dataset(self, side: str, pid: int) -> ColumnarDataset:
        return self._engines[side].partition(pid)

    def distance(self, side: str):
        if side not in self._distances:
            self._distances[side] = self._engines[side].adapter.distance()
        return self._distances[side]

    def seed_query_data(self, points, q_data: VerificationData) -> None:
        self._qdata[id(points)] = q_data

    def query_data(self, points) -> VerificationData:
        q = self._qdata.get(id(points))
        if q is None:
            q = VerificationData.from_points(points, self._engines["L"].config.cell_size)
            self._qdata[id(points)] = q
        return q

    def seed_sender_data(self, side: str, pid: int, row: int, data: VerificationData) -> None:
        self._sender[(side, pid, int(row))] = data

    def sender_data(self, side: str, pid: int, row: int) -> VerificationData:
        key = (side, pid, int(row))
        d = self._sender.get(key)
        if d is None:
            d = VerificationData.from_points(
                self._engines[side].partition(pid).points(int(row)),
                self._engines["L"].config.cell_size,
            )
            self._sender[key] = d
        return d


class DITAEngine:
    """An indexed, partitioned trajectory collection with search and join.

    Parameters
    ----------
    dataset:
        The trajectories to index: a ``ColumnarDataset`` (adopted without
        copying) or any iterable of :class:`Trajectory`.
    config:
        Index and planner parameters (defaults are sensible for ~10^3-10^4
        trajectories; scale ``num_global_partitions`` with data size).
    distance:
        Distance name ("dtw", "frechet", "edr", "lcss", "erp") or an
        :class:`IndexAdapter` instance for parameterized distances.
    cluster:
        The simulated cluster; defaults to one worker per partition group
        (capped at 16).
    clock:
        Time source for the (real) index-build measurement; defaults to
        the wall clock.  Simulated metrics never use it — they are priced
        by the cluster's deterministic measure hook.
    """

    def __init__(
        self,
        dataset: "ColumnarDataset | Iterable[Trajectory]",
        config: Optional[DITAConfig] = None,
        distance: "str | IndexAdapter" = "dtw",
        cluster: Optional[Cluster] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.config = config or DITAConfig()
        self.adapter = _resolve_adapter(distance, self.config)
        data = ColumnarDataset.from_trajectories(dataset)
        if len(data) == 0:
            raise ValueError("cannot index an empty dataset")
        watch = Stopwatch(clock or wall_clock)
        raw_partitions = partition_trajectories(data, self.config.num_global_partitions)
        self.global_index = GlobalIndex(raw_partitions, self.config)
        #: per-partition columnar blocks; each trie shares its partition's
        #: dataset instance; both are immutable (a flush replaces them)
        self.partitions: Dict[int, ColumnarDataset] = {
            pid: part for pid, part in enumerate(raw_partitions) if len(part)
        }
        self._store = None
        self._unloaded: Set[int] = set()
        self.tries: Dict[int, TrieIndex] = {
            pid: TrieIndex(part, self.config) for pid, part in self.partitions.items()
        }
        # stack each partition's verification artifacts now so the first
        # query doesn't pay the batch-block build
        for trie in self.tries.values():
            trie.batch_block()
        self.build_time_s = watch.elapsed()
        self._finish_init(cluster)

    @classmethod
    def from_store(
        cls,
        store,
        config: Optional[DITAConfig] = None,
        distance: "str | IndexAdapter" = "dtw",
        cluster: Optional[Cluster] = None,
        clock: Optional[Callable[[], float]] = None,
        lazy: bool = True,
    ) -> "DITAEngine":
        """Cold-start an engine from a persisted
        :class:`~repro.storage.store.TrajectoryStore`.

        The store's partitioning is adopted as-is: the global index is
        built from catalog metadata alone (no block bytes touched), and
        with ``lazy=True`` each partition's memory-mapped block — and its
        trie — is loaded only when a search, join or update first reaches
        it, so globally-pruned partitions are never read from disk.
        Results and stats are identical to ``lazy=False`` (and to an
        engine built from the same trajectories with the store's
        ``n_groups`` as ``num_global_partitions``).
        """
        self = cls.__new__(cls)
        self.config = config or DITAConfig()
        self.adapter = _resolve_adapter(distance, self.config)
        if store.n_trajectories == 0:
            raise ValueError("cannot index an empty store")
        watch = Stopwatch(clock or wall_clock)
        self.global_index = GlobalIndex.from_infos(
            [_info_from_store_meta(store.metas[pid]) for pid in sorted(store.metas)],
            self.config,
        )
        self._store = store
        self.partitions = {}
        self.tries = {}
        self._unloaded = set(store.metas)
        if not lazy:
            for pid in sorted(store.metas):
                self._ensure_loaded(pid)
        self.build_time_s = watch.elapsed()
        self._finish_init(cluster)
        return self

    @classmethod
    def from_partitions(
        cls,
        parts: Dict[int, ColumnarDataset],
        config: Optional[DITAConfig] = None,
        distance: "str | IndexAdapter" = "dtw",
        cluster: Optional[Cluster] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> "DITAEngine":
        """Bulk-build an engine adopting a *given* partition assignment
        verbatim (``{pid: dataset}``; empty partitions are dropped).

        This is the differential-testing oracle for streaming ingestion:
        handing it a streamed engine's ``{pid: engine.partition(pid)}``
        yields a freshly bulk-built twin with the same partition ids, row
        numbering and (therefore) byte-identical query results and stats.
        """
        self = cls.__new__(cls)
        self.config = config or DITAConfig()
        self.adapter = _resolve_adapter(distance, self.config)
        adopted = {int(pid): part for pid, part in parts.items() if len(part)}
        if not adopted:
            raise ValueError("cannot index an empty dataset")
        watch = Stopwatch(clock or wall_clock)
        self.global_index = GlobalIndex.from_infos(
            [partition_info(pid, adopted[pid]) for pid in sorted(adopted)], self.config
        )
        self.partitions = {pid: adopted[pid] for pid in sorted(adopted)}
        self._store = None
        self._unloaded = set()
        self.tries = {
            pid: TrieIndex(part, self.config) for pid, part in self.partitions.items()
        }
        for trie in self.tries.values():
            trie.batch_block()
        self.build_time_s = watch.elapsed()
        self._finish_init(cluster)
        return self

    @classmethod
    def from_generations(cls, root, **kwargs) -> "DITAEngine":
        """Cold-start from the live generation of a
        :class:`~repro.storage.generations.GenerationalStore` root, with
        the generational store attached so :meth:`merge` keeps advancing
        it.  ``kwargs`` are forwarded to :meth:`from_store`."""
        gens = GenerationalStore.open(root)
        self = cls.from_store(gens.current_store(), **kwargs)
        self._generations = gens
        return self

    def _finish_init(self, cluster: Optional[Cluster]) -> None:
        self.verifier = self.adapter.make_verifier(
            use_mbr_coverage=self.config.use_mbr_coverage,
            use_cell_filter=self.config.use_cell_filter,
        )
        if cluster is None:
            cluster = Cluster(n_workers=min(16, max(1, self.n_partitions)))
        self.cluster = cluster
        if self.config.use_fault_injection and cluster.faults is None:
            cluster.install_faults(self.config.fault_plan(), self.config.recovery_policy())
        # left engine partitions occupy [0, n); a right engine in a join is
        # offset by n (JoinExecutor._cluster_pid)
        cluster.place_partitions(self.partition_pids())
        self._searchers: Dict[int, LocalSearcher] = {
            pid: LocalSearcher(trie, self.adapter, self.verifier)
            for pid, trie in self.tries.items()
        }
        self._register_rebuilds(cluster)
        self._init_runtime_state()
        #: the observability layer (None until tracing is enabled)
        self.metrics: Optional[MetricsRegistry] = None
        if self.config.use_tracing:
            self.enable_tracing()

    def _init_runtime_state(self) -> None:
        """Mutable non-index state every construction path must set up."""
        # process-backend state: mutation generation, worker pool and the
        # spilled snapshot a non-store (or mutated) engine hands workers
        self._mutations = 0
        self._pool: Optional[ParallelExecutor] = None
        self._pool_init: Optional[WorkerInit] = None
        self._spill_dir: Optional[str] = None
        self._spill_mutations = -1
        # streaming-ingestion state: per-partition write buffers, the lazy
        # id -> partition routing map, the merge-trigger counter and the
        # (optional) generational store merges compact into
        self._deltas: Dict[int, DeltaPartition] = {}
        self._stream_ids: Optional[Dict[int, int]] = None
        self._rows_since_merge = 0
        self._generations: Optional[GenerationalStore] = None
        # mutation-generation state for external caches (repro.serving):
        # the global counter bumps on every logical mutation — including
        # *buffered* delta writes, before any flush — and the per-partition
        # counters bump only for the partitions a mutation touches, so a
        # cache can invalidate exactly the affected entries
        self._generation = 0
        self._part_versions: Dict[int, int] = {}
        self._in_flush = False

    # ------------------------------------------------------------------ #
    # partition access (lazy for store-backed engines)
    # ------------------------------------------------------------------ #

    def partition_pids(self) -> List[int]:
        """Every partition id, loaded or not, ascending."""
        return sorted(set(self.partitions) | self._unloaded)

    def _ensure_loaded(self, pid: int) -> None:
        if pid in self.tries or pid not in self._unloaded:
            return
        part = self._store.partition(pid)
        self.partitions[pid] = part
        self.tries[pid] = TrieIndex(part, self.config)
        self._unloaded.discard(pid)

    def partition(self, pid: int) -> ColumnarDataset:
        """The partition's columnar block (loads a store block on demand)."""
        if pid not in self.partitions:
            self._ensure_loaded(pid)
        return self.partitions[pid]

    def trie(self, pid: int) -> TrieIndex:
        """The partition's local index (built on demand for store blocks)."""
        if pid not in self.tries:
            self._ensure_loaded(pid)
        return self.tries[pid]

    def _searcher(self, pid: int) -> Optional[LocalSearcher]:
        """The partition's searcher, or None when the pid is unknown."""
        s = self._searchers.get(pid)
        if s is not None:
            return s
        if pid not in self.tries and pid not in self._unloaded:
            return None
        s = LocalSearcher(self.trie(pid), self.adapter, self.verifier)
        self._searchers[pid] = s
        return s

    # ------------------------------------------------------------------ #
    # observability (repro.obs)
    # ------------------------------------------------------------------ #

    def enable_tracing(self) -> None:
        """Install the observability layer: a span tracer on the cluster
        and a metrics registry on the engine.  Idempotent; results are
        identical with or without it (only instrumentation changes)."""
        if self.metrics is None:
            self.metrics = MetricsRegistry()
        if self.cluster.tracer is None:
            self.cluster.install_tracer()

    @property
    def tracer(self):
        """The cluster's span tracer (None when tracing is off)."""
        return self.cluster.tracer

    def _job(self, name: str, **args: object):
        tracer = self.cluster.tracer
        if tracer is None:
            return nullcontext()
        return tracer.job(name, **args)

    def _subdivide_task(self, tracer, ts: SearchStats) -> None:
        """Split the just-recorded task span into filter/verify stage spans
        weighted by the task's trie-node visits and verifier pair count."""
        span = tracer.last_span()
        if span is None or span.cat != "task":
            return
        tracer.subdivide(
            span,
            [
                (
                    "filter",
                    float(ts.filter.nodes_visited),
                    {
                        "nodes_visited": ts.filter.nodes_visited,
                        "nodes_pruned": ts.filter.nodes_pruned,
                        "candidates": ts.filter.candidates,
                    },
                ),
                (
                    "verify",
                    float(ts.verify.pairs),
                    {
                        "pairs": ts.verify.pairs,
                        "exact_computed": ts.verify.exact_computed,
                        "accepted": ts.verify.accepted,
                    },
                ),
            ],
        )

    # ------------------------------------------------------------------ #
    # fault tolerance (lineage)
    # ------------------------------------------------------------------ #

    def _register_rebuilds(self, cluster: Cluster, offset: int = 0) -> None:
        """Register each partition's lineage closure with the cluster:
        when a worker crashes, the surviving worker that inherits a
        partition re-runs its local index build *for real* (deterministic,
        so post-recovery answers are identical) and is charged for it."""
        for pid in self.partition_pids():
            cluster.register_rebuild(
                offset + pid, self._make_rebuild(pid), work=self.global_index.meta(pid).size
            )

    def _make_rebuild(self, pid: int) -> Callable[[], None]:
        def rebuild() -> None:
            part = self.partition(pid)
            trie = TrieIndex(part, self.config)
            trie.batch_block()
            self.tries[pid] = trie
            self._searchers[pid] = LocalSearcher(trie, self.adapter, self.verifier)

        return rebuild

    def fault_report(self):
        """The cluster's fault accounting (None without a fault plan)."""
        return self.cluster.fault_report()

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def n_partitions(self) -> int:
        return len(self.partitions) + len(self._unloaded)

    def __len__(self) -> int:
        indexed = sum(m.size for m in self.global_index.partitions_meta)
        return indexed + sum(d.net_rows for d in self._deltas.values())

    @property
    def n_pending(self) -> int:
        """Buffered write operations not yet folded into the index."""
        return sum(d.n_pending for d in self._deltas.values())

    @property
    def generation(self) -> int:
        """The engine's mutation-generation counter: a monotonic integer
        that advances on *every* logical mutation — buffered
        ``append_trajectory``/``extend_trajectory``/``remove_trajectory``
        writes (before any flush), delta flushes, :meth:`merge` and
        :meth:`repartition`.  External caches
        (:mod:`repro.serving`) key entries on it: an entry stamped at an
        older generation can never be served against newer data.
        """
        return self._generation

    def partition_version(self, pid: int) -> int:
        """The partition-granular mutation counter: advances only when a
        mutation touches partition ``pid`` (a buffered write routed to it,
        a flush rebuilding it, a merge or repartition replacing it), so a
        per-partition cache entry elsewhere stays valid across mutations
        confined to other partitions."""
        return self._part_versions.get(pid, 0)

    def _bump_generation(self, pids: Iterable[int]) -> None:
        self._generation += 1
        for pid in pids:
            self._part_versions[pid] = self._part_versions.get(pid, 0) + 1

    def sync_for_read(self) -> int:
        """Fold any pending deltas (the flush-on-read every query entry
        performs) and return the resulting :attr:`generation` — the
        snapshot stamp a caller should key caches on.  Reads taken after
        this call and before the next mutation see exactly this
        generation's data."""
        self._sync_streams()
        return self._generation

    def trajectory(self, traj_id: int) -> Trajectory:
        """Materialize one trajectory by id (KeyError when absent) — the
        boundary accessor result rendering uses; hot paths never call it."""
        self._sync_streams()
        for pid in self.partition_pids():
            part = self.partition(pid)
            if traj_id in part:
                return part.by_id(traj_id)
        raise KeyError(traj_id)

    def index_size_bytes(self) -> Tuple[int, int]:
        """(global index bytes, total local index bytes) — Table 5 metric.

        For a lazily-loaded store engine, only materialized local indexes
        are counted (unloaded partitions hold no index yet)."""
        local = sum(trie.size_bytes() for trie in self.tries.values())
        return self.global_index.size_bytes(), local

    # ------------------------------------------------------------------ #
    # index refresh after a layout change
    # ------------------------------------------------------------------ #

    def _refresh_global_index(self) -> None:
        """Rebuild the master-side metadata after a flush or repartition
        (cheap: two R-trees over at most NG^2 partition MBRs)."""
        infos: List[PartitionInfo] = []
        for pid in self.partition_pids():
            if pid in self.partitions:
                infos.append(partition_info(pid, self.partitions[pid]))
            else:
                infos.append(_info_from_store_meta(self._store.metas[pid]))
        self.global_index = GlobalIndex.from_infos(infos, self.config)
        self.cluster.place_partitions(self.partition_pids())
        self._searchers = {
            pid: LocalSearcher(self.tries[pid], self.adapter, self.verifier)
            for pid in self.tries
        }
        self._register_rebuilds(self.cluster)
        # worker processes mirror a snapshot that no longer matches; the
        # next process-backend call respawns against a fresh one
        self._mutations += 1
        self._close_pool()
        self._stream_ids = None

    # ------------------------------------------------------------------ #
    # streaming ingestion (delta buffers, merge, online repartitioning)
    # ------------------------------------------------------------------ #

    def _delta(self, pid: int) -> DeltaPartition:
        d = self._deltas.get(pid)
        if d is None:
            d = DeltaPartition(self._ndim())
            self._deltas[pid] = d
        return d

    def _ndim(self) -> Optional[int]:
        """Coordinate dimensionality of the indexed rows (None when the
        engine holds no partition)."""
        if self.partitions:
            return next(iter(self.partitions.values())).ndim
        if self._store is not None:
            return int(self._store.catalog["ndim"])
        return None

    def _id_map(self) -> Dict[int, int]:
        """``trajectory id -> partition id`` over base and pending rows.

        Built lazily and invalidated by any index refresh; building it
        forces a store-backed engine to load every block (writes need the
        full id set).
        """
        if self._stream_ids is None:
            ids: Dict[int, int] = {}
            for pid in self.partition_pids():
                for tid in self.partition(pid).traj_ids:
                    ids[int(tid)] = pid
            for pid, delta in self._deltas.items():
                for tid in delta.removed:
                    ids.pop(tid, None)
                for tid in delta.appended:
                    ids[tid] = pid
            self._stream_ids = ids
        return self._stream_ids

    def append_trajectory(self, traj_id: int, points) -> int:
        """Buffer a new trajectory in its home partition's delta; returns
        the partition id it was routed to.

        Routing picks the partition whose first/last-point MBR pair needs
        the least enlargement.  The write is O(1): no block, trie or
        global-index bytes move until
        the delta is applied (at ``delta_max_rows``, or lazily by the next
        query).  Queries between now and then still see the trajectory —
        the read path folds pending deltas in first — with results and
        stats byte-identical to a bulk rebuild over the same logical data.
        """
        pts = _validated_points(points, self._ndim())
        traj_id = int(traj_id)
        if traj_id in self._id_map():
            raise ValueError(f"trajectory id {traj_id} already present")
        first, last = MBR.of_point(pts[0]), MBR.of_point(pts[-1])

        def enlargement(meta) -> float:
            grown_f = meta.mbr_first.union(first)
            grown_l = meta.mbr_last.union(last)
            return (grown_f.area() - meta.mbr_first.area()) + (
                grown_l.area() - meta.mbr_last.area()
            )

        meta = min(
            self.global_index.partitions_meta, key=lambda m: (enlargement(m), m.partition_id)
        )
        pid = meta.partition_id
        self._delta(pid).append(traj_id, pts)
        self._stream_ids[traj_id] = pid
        self._note_write(pid)
        return pid

    def extend_trajectory(self, traj_id: int, extra_points) -> None:
        """Buffer extra points onto an existing trajectory (KeyError when
        absent).  A base row is shadowed by a delta row holding the full
        extended point array; a pending row just grows in place."""
        pts = _validated_points(extra_points, self._ndim())
        traj_id = int(traj_id)
        pid = self._id_map().get(traj_id)
        if pid is None:
            raise KeyError(traj_id)
        delta = self._delta(pid)
        if traj_id in delta.appended:
            delta.extend_pending(traj_id, pts)
        else:
            part = self.partition(pid)
            full = np.concatenate([part.points(part.row_of(traj_id)), pts], axis=0)
            delta.replace(traj_id, full)
        self._note_write(pid)

    def remove_trajectory(self, traj_id: int) -> bool:
        """Buffer a removal (False when the id is unknown)."""
        traj_id = int(traj_id)
        ids = self._id_map()
        pid = ids.get(traj_id)
        if pid is None:
            return False
        self._delta(pid).remove(traj_id)
        del ids[traj_id]
        self._note_write(pid)
        return True

    def _note_write(self, pid: int) -> None:
        # the *buffered* write is already a logical mutation: caches keyed
        # on the generation must miss even before the flush-on-read folds
        # the delta in (the PR 9 stale-state hazard)
        self._bump_generation([pid])
        self._rows_since_merge += 1
        if self._deltas[pid].n_pending >= self.config.delta_max_rows:
            self.flush_deltas([pid])

    def flush_deltas(self, pids: Optional[Iterable[int]] = None) -> int:
        """Fold pending deltas into their partitions' live indexes.

        Each dirty partition becomes one new compact dataset (surviving
        base rows in base order, then delta rows in arrival order) with a
        freshly bulk-built trie — the canonical layout, so the resulting
        index is structurally identical to any bulk build over the same
        logical rows.  Returns the number of operations applied.

        Idempotent under reentrancy: a flush entered while another flush
        is already running (two interleaved reads on one engine, or a
        read issued from inside the flush machinery) is a no-op, so
        deltas can never be double-applied.  Application is staged — all
        new datasets and tries are built before the engine adopts any of
        them — so no caller can ever observe a half-compacted layout: a
        failure mid-build restores the popped deltas and leaves every
        partition, trie and the global index exactly as before.
        """
        if self._in_flush:
            return 0
        if pids is None:
            items = [(pid, self._deltas.pop(pid)) for pid in sorted(self._deltas)]
        else:
            items = [
                (pid, self._deltas.pop(pid)) for pid in sorted(pids) if pid in self._deltas
            ]
        items = [(pid, d) for pid, d in items if d]
        if not items:
            return 0
        self._in_flush = True
        applied = 0
        staged: List[Tuple[int, Optional[ColumnarDataset], Optional[TrieIndex]]] = []
        try:
            for pid, delta in items:
                applied += delta.n_pending
                base = None
                if pid in self.partitions or pid in self._unloaded:
                    base = self.partition(pid)
                part = delta.apply(base)
                if len(part) == 0:
                    staged.append((pid, None, None))
                    continue
                trie = TrieIndex(part, self.config)
                trie.batch_block()
                staged.append((pid, part, trie))
        except BaseException:
            # nothing was adopted; put every popped delta back so a retry
            # (or the next read) sees the exact pre-flush pending state
            for pid, delta in items:
                self._deltas[pid] = delta
            raise
        finally:
            self._in_flush = False
        for pid, part, trie in staged:
            if part is None:
                self.partitions.pop(pid, None)
                self.tries.pop(pid, None)
                self._searchers.pop(pid, None)
                self._unloaded.discard(pid)
            else:
                self.partitions[pid] = part
                self.tries[pid] = trie
                self._unloaded.discard(pid)
            self._part_versions[pid] = self._part_versions.get(pid, 0) + 1
        self._refresh_global_index()
        return applied

    def _sync_streams(self) -> None:
        """Reads call this first: fold any pending deltas so the query
        plan runs over base ∪ delta.  Reentrant calls (a read issued
        while a flush is in flight) are no-ops — see :meth:`flush_deltas`."""
        if self._deltas and not self._in_flush:
            self.flush_deltas()

    # -- background merge ---------------------------------------------- #

    def attach_generations(self, root) -> GenerationalStore:
        """Attach (opening or initialising) the generational store that
        :meth:`merge` compacts into."""
        self._generations = GenerationalStore.open_or_init(root)
        return self._generations

    @property
    def generations(self) -> Optional[GenerationalStore]:
        return self._generations

    def merge(self, prune: bool = False) -> int:
        """Compact the live partitions into a new catalog generation and
        re-base the engine onto it; returns the committed generation.

        Each partition is written by a simulated task homed on the
        partition's worker (``tag="merge.partition"``; the block writer is
        idempotent, so fault-injected retries are safe), then the catalog
        is written and the generation commits atomically.  Any failure —
        including a task abandoned after exhausting retries — aborts the
        staging directory and re-raises, leaving ``CURRENT`` (and the
        engine) exactly as before: readers can never observe a torn image.

        After the commit the engine adopts the new generation as its
        store with all partitions lazily mapped and the mutation counter
        cleared, so process-backend workers attach straight to the merged
        blocks (no spill).  With ``prune=True`` superseded generations'
        blocks are deleted afterwards.
        """
        if self._generations is None:
            raise ValueError(
                "no generational store attached; call attach_generations() first"
            )
        self.flush_deltas()
        pids = self.partition_pids()
        if not pids:
            raise ValueError("cannot merge an empty engine")
        gens = self._generations
        staging, gen = gens.begin()
        try:
            metas = []
            for pid in pids:
                part = self.partition(pid)
                meta = self.cluster.run_local(
                    pid,
                    lambda p=part, i=pid: write_partition_block(staging, i, p),
                    work=self.global_index.meta(pid).size,
                    tag="merge.partition",
                )
                metas.append(meta)
            write_catalog(staging, metas, self._ndim(), self.config.num_global_partitions)
            gens.commit(gen)
        except BaseException:
            gens.abort(gen)
            raise
        store = gens.current_store()
        self._store = store
        # the compaction re-lays every partition's rows: caches holding
        # row-addressed state for any partition are stale now
        self._bump_generation(set(self.partition_pids()) | set(store.metas))
        self.partitions = {}
        self.tries = {}
        self._unloaded = set(store.metas)
        self.global_index = GlobalIndex.from_infos(
            [_info_from_store_meta(store.metas[pid]) for pid in sorted(store.metas)],
            self.config,
        )
        self.cluster.place_partitions(self.partition_pids())
        self._searchers = {}
        self._register_rebuilds(self.cluster)
        self._mutations = 0
        self._close_pool()
        self._drop_spill()
        self._stream_ids = None
        self._rows_since_merge = 0
        if prune:
            gens.prune()
        return gen

    def maybe_merge(self, prune: bool = False) -> bool:
        """Merge when rows written since the last merge exceed
        ``merge_trigger`` × the indexed size (False when no generational
        store is attached or the trigger hasn't tripped)."""
        if self._generations is None:
            return False
        total = len(self)
        if total == 0:
            return False
        if self._rows_since_merge / total < self.config.merge_trigger:
            return False
        self.merge(prune=prune)
        return True

    # -- online repartitioning ----------------------------------------- #

    def skew_ratio(self) -> float:
        """Largest partition size over the mean (pending delta rows
        included) — the load-imbalance signal the repartition trigger
        watches."""
        pending: Dict[int, int] = {pid: d.net_rows for pid, d in self._deltas.items()}
        sizes = [
            m.size + pending.pop(m.partition_id, 0)
            for m in self.global_index.partitions_meta
        ]
        sizes.extend(n for n in pending.values() if n > 0)
        sizes = [n for n in sizes if n > 0]
        if not sizes:
            return 1.0
        return max(sizes) * len(sizes) / sum(sizes)

    def repartition(self) -> bool:
        """Re-run the first/last-point STR partitioning over the full
        logical dataset and migrate trajectories to their new homes.

        Destination indexes are staged (and their lineage registered with
        the cluster) before any migration is accounted, and the engine
        adopts the new layout only after every transfer lands: a shipment
        abandoned mid-migration (crashed endpoints, dropped messages past
        the retry budget) raises out of this method with the old layout —
        partitions, tries, global index, placement — fully intact.

        Transfers go through the simulator's :meth:`~repro.cluster.simulator.Cluster.ship`
        accounting, one aggregated shipment per (source, destination)
        partition pair, charging only rows whose partition id changes.
        """
        self.flush_deltas()
        old_pids = self.partition_pids()
        if not old_pids:
            return False
        for pid in old_pids:
            self._ensure_loaded(pid)
        id_to_old: Dict[int, int] = {}
        for pid in old_pids:
            for tid in self.partitions[pid].traj_ids:
                id_to_old[int(tid)] = pid
        logical = concat_datasets([self.partitions[pid] for pid in sorted(old_pids)])
        groups = partition_trajectories(logical, self.config.num_global_partitions)
        new_parts = {npid: part for npid, part in enumerate(groups) if len(part)}
        staged: Dict[int, TrieIndex] = {}
        for npid, part in new_parts.items():
            trie = TrieIndex(part, self.config)
            trie.batch_block()
            staged[npid] = trie
        # destinations live beside the old partitions during migration:
        # place them, register their lineage, then account the transfers
        offset = max(old_pids) + 1
        self.cluster.place_partitions(
            old_pids + [offset + npid for npid in sorted(new_parts)]
        )
        self._register_rebuilds(self.cluster)
        for npid, part in sorted(new_parts.items()):
            self.cluster.register_rebuild(
                offset + npid,
                self._make_stage_rebuild(staged, npid, part),
                work=len(part),
            )
        for npid, part in sorted(new_parts.items()):
            by_src: Dict[int, int] = {}
            for row in range(part.n_rows):
                src = id_to_old[int(part.traj_ids[row])]
                if src == npid:
                    continue
                nbytes = int(part.lengths[row]) * part.ndim * 8
                by_src[src] = by_src.get(src, 0) + nbytes
            for src in sorted(by_src):
                self.cluster.ship(src, offset + npid, by_src[src])
        # adoption: every old and new partition's row layout changed
        self._bump_generation(set(old_pids) | set(new_parts))
        self.partitions = new_parts
        self.tries = staged
        self._store = None
        self._unloaded = set()
        self._refresh_global_index()
        return True

    def _make_stage_rebuild(
        self, staged: Dict[int, TrieIndex], npid: int, part: ColumnarDataset
    ) -> Callable[[], None]:
        def rebuild() -> None:
            trie = TrieIndex(part, self.config)
            trie.batch_block()
            staged[npid] = trie

        return rebuild

    def maybe_repartition(self) -> bool:
        """Repartition when :meth:`skew_ratio` exceeds the config's
        ``repartition_skew_ratio``."""
        if self.skew_ratio() <= self.config.repartition_skew_ratio:
            return False
        return self.repartition()

    # ------------------------------------------------------------------ #
    # execution backends (the Executor seam)
    # ------------------------------------------------------------------ #

    def _run_tasks(
        self,
        tasks: List[_EngineTask],
        resolver: _LocalResolver,
        on_result: Callable[[_EngineTask, Any], None],
    ) -> None:
        """Run a task batch through the configured backend.

        The simulated cluster sees the identical schedule either way:
        every task passes through ``run_local``/``run_on_worker`` in
        submission order with its declared work, so traces, fault
        injection and the execution report are byte-identical across
        backends.  Under ``backend="process"`` the bodies have already
        run on the pool and the closure handed to the simulator just
        returns the pooled outcome (the default unit-cost measure prices
        declared work, not body runtime, so the accounting matches).
        ``on_result`` fires immediately after each task's simulator call
        — span-adjacent, so stage subdivision keeps working."""
        outcomes = self._process_outcomes(tasks, resolver)
        for t in tasks:
            if outcomes is None:
                body = lambda s=t.spec, r=resolver: run_task_body(s, r)  # noqa: E731
            else:
                body = lambda v=outcomes[t.spec.task_id]: v  # noqa: E731
            if t.exec_worker is None:
                result = self.cluster.run_local(t.cluster_pid, body, work=t.work, tag=t.tag)
            else:
                result = self.cluster.run_on_worker(t.exec_worker, body, work=t.work, tag=t.tag)
            on_result(t, result)

    def _process_outcomes(
        self, tasks: List[_EngineTask], resolver: _LocalResolver
    ) -> Optional[Dict[int, Any]]:
        """Under ``backend="process"``, execute every task body on the
        worker pool up front and return ``{task_id: value}``; None under
        the simulated backend (bodies then run inline).

        A pool failure surfaces as :class:`ExecutorError` and is recorded
        in the cluster's fault accounting (``FaultReport.executor_failures``);
        the broken pool is dropped so a later call starts a fresh one."""
        if self.config.backend != "process" or not tasks:
            return None
        pool = self._ensure_pool(resolver)
        affinity = []
        for t in tasks:
            w = t.exec_worker if t.exec_worker is not None else self.cluster.worker_of(t.cluster_pid)
            affinity.append(w % pool.num_workers)
        try:
            results = pool.run([t.spec for t in tasks], affinity=affinity)
        except ExecutorError:
            self.cluster.note_executor_failure()
            self._pool = None
            self._pool_init = None
            raise
        self._merge_pool_obs(tasks, results)
        return {tid: r.value for tid, r in results.items()}

    def _ensure_pool(self, resolver: _LocalResolver) -> ParallelExecutor:
        """The live worker pool for the resolver's engine pair, spawning
        (or respawning, when either side's snapshot moved) on demand.
        Both sides always ride the bootstrap, so searches, self-joins and
        joins against the same counterpart share one pool."""
        right = resolver.engine("R")
        init = WorkerInit(sides=(("L", self._side_init()), ("R", right._side_init())))
        if self._pool is not None and init == self._pool_init:
            return self._pool
        self._close_pool()
        n = self.config.num_processes or os.cpu_count() or 1
        self._pool = ParallelExecutor(init, n)
        self._pool_init = init
        return self._pool

    def _side_init(self) -> SideInit:
        return SideInit(
            store_path=self._ensure_snapshot(), config=self.config, adapter=self.adapter
        )

    def _ensure_snapshot(self) -> str:
        """The store path giving worker processes a mappable, row-aligned
        view of this engine's partitions.

        A store-backed engine that was never mutated hands out its own
        store directory (zero extra bytes on disk).  Otherwise the live
        partitions are spilled once per mutation generation — verbatim,
        pids and row numbering preserved (:func:`snapshot_partitions`).
        """
        if self._store is not None and self._mutations == 0:
            return str(self._store.path)
        if self._spill_dir is None or self._spill_mutations != self._mutations:
            self._drop_spill()
            for pid in self.partition_pids():
                self._ensure_loaded(pid)
            spill = tempfile.mkdtemp(prefix="repro-spill-")
            snapshot_partitions(
                self.partitions,
                Path(spill) / "store",
                self._ndim(),
                self.config.num_global_partitions,
            )
            self._spill_dir = spill
            self._spill_mutations = self._mutations
        return str(Path(self._spill_dir) / "store")

    def _merge_pool_obs(self, tasks: List[_EngineTask], results: Dict[int, Any]) -> None:
        """Fold the pool's per-task observability into the coordinator's.

        Worker counter deltas (tries built, blocks mapped) merge in task
        order — deterministic given a task-to-worker assignment, though
        the totals legitimately depend on scheduling (two workers may
        each build the same trie).  Each task's worker-side execution
        becomes a ``cat="pool"`` span, re-based so the batch starts at 0
        and ordered by (pool worker, start): wall-clock diagnostics,
        excluded from the simulated accounting identities."""
        if self.metrics is not None:
            self.metrics.counter("pool.tasks", len(tasks))
            for t in tasks:
                r = results[t.spec.task_id]
                for name in sorted(r.counters):
                    self.metrics.counter(name, r.counters[name])
        tracer = self.cluster.tracer
        if tracer is not None:
            base = min(r.t0 for r in results.values())
            spec_by_id = {t.spec.task_id: t.spec for t in tasks}
            ordered = sorted(results.items(), key=lambda kv: (kv[1].worker_id, kv[1].t0, kv[0]))
            for tid, r in ordered:
                spec = spec_by_id[tid]
                tracer.record(
                    spec.kind,
                    "pool",
                    r.worker_id,
                    r.t0 - base,
                    r.t1 - base,
                    args={"task_id": tid, "partition": spec.partition_id},
                )

    def _close_pool(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None
            self._pool_init = None

    def _drop_spill(self) -> None:
        if self._spill_dir is not None:
            shutil.rmtree(self._spill_dir, ignore_errors=True)
            self._spill_dir = None
            self._spill_mutations = -1

    def shutdown(self) -> None:
        """Release process-backend resources: the worker pool and any
        spilled snapshot.  Idempotent, and the engine stays usable — a
        later process-backend call re-creates both."""
        self._close_pool()
        self._drop_spill()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            if getattr(self, "_pool", None) is not None or getattr(self, "_spill_dir", None) is not None:
                self.shutdown()
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    # search (Section 5)
    # ------------------------------------------------------------------ #

    def search(
        self,
        query: Trajectory,
        tau: float,
        stats: Optional[SearchStats] = None,
    ) -> List[Match]:
        """Distributed threshold similarity search (Definition 2.4).

        Returns every (trajectory, distance) with ``f(T, Q) <= tau``,
        exact and complete for the engine's distance function.
        """
        if tau < 0:
            raise ValueError("tau must be non-negative")
        self._sync_streams()
        tracer = self.cluster.tracer
        track = stats is not None or tracer is not None or self.metrics is not None
        job_stats = SearchStats() if track else None
        with self._job("search", tau=tau):
            relevant = self.global_index.relevant_partitions(query.points, tau, self.adapter)
            if job_stats is not None:
                job_stats.relevant_partitions += len(relevant)
            q_data = VerificationData.of(query, self.config.cell_size)
            resolver = _LocalResolver(self)
            resolver.seed_query_data(query.points, q_data)
            tasks: List[_EngineTask] = []
            for pid in relevant:
                if pid not in self.partitions and pid not in self._unloaded:
                    continue
                tasks.append(
                    _EngineTask(
                        spec=TaskSpec(
                            task_id=len(tasks),
                            kind="search",
                            side="L",
                            partition_id=pid,
                            payload=((query.points,), (tau,), track),
                        ),
                        work=self.global_index.meta(pid).size,
                        tag="search.partition",
                        cluster_pid=pid,
                    )
                )
            matches: List[Match] = []

            def on_result(task: _EngineTask, result: Any) -> None:
                # the body ran with a fresh stats object per task:
                # partitions must not share one accumulator (the batch
                # filter *assigns* its candidate count), and the tracer
                # needs per-task stage weights
                match_lists, stats_list = result
                if stats_list is not None:
                    ts = stats_list[0]
                    if tracer is not None:
                        self._subdivide_task(tracer, ts)
                    job_stats.merge(ts)
                part = self.partition(task.spec.partition_id)
                matches.extend((part.view(row), d) for row, d in match_lists[0])

            self._run_tasks(tasks, resolver, on_result)
        if job_stats is not None:
            if stats is not None:
                stats.merge(job_stats)
            if self.metrics is not None:
                self.metrics.counter("search.jobs")
                self.metrics.absorb("search", job_stats)
        return matches

    def search_batch(
        self,
        queries: List[Trajectory],
        taus: List[float],
        stats: Optional[List[Optional[SearchStats]]] = None,
    ) -> List[List[Match]]:
        """Batched distributed search: one result list per query.

        Object-facing wrapper over :meth:`search_batch_rows` — accepted
        rows, and only those, are materialized as ``Trajectory`` views.
        Results are identical to looping :meth:`search`.
        """
        row_results = self.search_batch_rows(queries, taus, stats)
        return [
            [(self.partition(pid).view(row), d) for pid, row, d in matches]
            for matches in row_results
        ]

    def search_batch_rows(
        self,
        queries: List[Trajectory],
        taus: List[float],
        stats: Optional[List[Optional[SearchStats]]] = None,
    ) -> List[List[Tuple[int, int, float]]]:
        """The row-native batched search: accepted ``(pid, dataset row,
        distance)`` triples per query, no ``Trajectory`` materialized
        anywhere on the path.

        Queries are grouped by relevant partition, and each partition
        answers all of its queries in one frontier sweep over the columnar
        trie (one simulated task per partition, charged for the whole
        group).
        """
        if len(queries) != len(taus):
            raise ValueError("queries and taus must have equal length")
        if stats is not None and len(stats) != len(queries):
            raise ValueError("stats must have one (possibly None) entry per query")
        for tau in taus:
            if tau < 0:
                raise ValueError("tau must be non-negative")
        self._sync_streams()
        tracer = self.cluster.tracer
        track = stats is not None or tracer is not None or self.metrics is not None
        internal = [SearchStats() for _ in queries] if track else None
        with self._job("search_batch", n_queries=len(queries)):
            by_pid: Dict[int, List[int]] = {}
            q_datas: List[VerificationData] = []
            for i, (query, tau) in enumerate(zip(queries, taus)):
                relevant = self.global_index.relevant_partitions(query.points, tau, self.adapter)
                if internal is not None:
                    internal[i].relevant_partitions += len(relevant)
                q_datas.append(VerificationData.of(query, self.config.cell_size))
                for pid in relevant:
                    by_pid.setdefault(pid, []).append(i)
            results: List[List[Tuple[int, int, float]]] = [[] for _ in queries]
            resolver = _LocalResolver(self)
            for i, query in enumerate(queries):
                resolver.seed_query_data(query.points, q_datas[i])
            tasks: List[_EngineTask] = []
            idx_of: Dict[int, List[int]] = {}
            for pid in sorted(by_pid):
                if pid not in self.partitions and pid not in self._unloaded:
                    continue
                idxs = by_pid[pid]
                tid = len(tasks)
                idx_of[tid] = idxs
                tasks.append(
                    _EngineTask(
                        spec=TaskSpec(
                            task_id=tid,
                            kind="search",
                            side="L",
                            partition_id=pid,
                            payload=(
                                tuple(queries[i].points for i in idxs),
                                tuple(taus[i] for i in idxs),
                                track,
                            ),
                        ),
                        work=self.global_index.meta(pid).size * len(idxs),
                        tag="search.partition",
                        cluster_pid=pid,
                    )
                )

            def on_result(task: _EngineTask, result: Any) -> None:
                match_lists, stats_list = result
                idxs = idx_of[task.spec.task_id]
                if stats_list is not None:
                    if tracer is not None:
                        merged = SearchStats()
                        for ts in stats_list:
                            merged.merge(ts)
                        self._subdivide_task(tracer, merged)
                    for i, ts in zip(idxs, stats_list):
                        internal[i].merge(ts)
                pid = task.spec.partition_id
                for i, matches in zip(idxs, match_lists):
                    results[i].extend((pid, row, d) for row, d in matches)

            self._run_tasks(tasks, resolver, on_result)
        if internal is not None:
            if stats is not None:
                for i, s in enumerate(stats):
                    if s is not None:
                        s.merge(internal[i])
            if self.metrics is not None:
                self.metrics.counter("search.jobs")
                job_stats = SearchStats()
                for s in internal:
                    job_stats.merge(s)
                self.metrics.absorb("search", job_stats)
        return results

    def search_ids(self, query: Trajectory, tau: float) -> List[int]:
        """Sorted ids of matching trajectories (brute-force-comparable)."""
        return sorted(t.traj_id for t, _ in self.search(query, tau))

    def count_candidates(self, query: Trajectory, tau: float) -> int:
        """Total trie candidates across relevant partitions (Fig 17 metric)."""
        self._sync_streams()
        relevant = self.global_index.relevant_partitions(query.points, tau, self.adapter)
        total = 0
        for pid in relevant:
            searcher = self._searcher(pid)
            if searcher is not None:
                total += searcher.count_candidates(query, tau)
        return total

    # ------------------------------------------------------------------ #
    # join (Section 6)
    # ------------------------------------------------------------------ #

    def join(
        self,
        other: "DITAEngine",
        tau: float,
        use_orientation: bool = True,
        use_division: bool = True,
        stats: Optional[JoinStats] = None,
    ) -> List[JoinPair]:
        """Distributed threshold similarity join (Definition 2.5).

        Returns (this id, other id, distance) for every cross pair within
        ``tau``.  ``use_orientation``/``use_division`` toggle the Section 6
        load-balancing mechanisms (for the Figure 16 ablation).
        """
        if tau < 0:
            raise ValueError("tau must be non-negative")
        self._sync_streams()
        if other is not self:
            other._sync_streams()
        # a joint cluster namespace: re-place both engines' partitions and
        # register both sides' lineage closures under the joint ids
        cluster = self.cluster
        left_pids = self.partition_pids()
        right_pids = [self.n_partitions + pid for pid in other.partition_pids()]
        cluster.place_partitions(left_pids + right_pids)
        self._register_rebuilds(cluster)
        other._register_rebuilds(cluster, offset=self.n_partitions)
        executor = JoinExecutor(self, other, self.adapter, cluster, self.config)
        js = stats
        if js is None and self.metrics is not None:
            js = JoinStats()
        with self._job("join", tau=tau):
            pairs = executor.execute(tau, use_orientation, use_division, js)
        if self.metrics is not None and js is not None:
            self.metrics.counter("join.jobs")
            self.metrics.absorb("join", js)
        return pairs

    def self_join(self, tau: float, **kwargs) -> List[JoinPair]:
        """Join of the dataset with itself, keeping each unordered pair once
        (and dropping the trivial self-pairs)."""
        pairs = self.join(self, tau, **kwargs)
        out: List[JoinPair] = []
        seen = set()
        for a, b, d in pairs:
            if a == b:
                continue
            key = (min(a, b), max(a, b))
            if key not in seen:
                seen.add(key)
                out.append((key[0], key[1], d))
        return out


def _info_from_store_meta(meta) -> PartitionInfo:
    """Catalog :class:`~repro.storage.store.PartitionMeta` → master-side
    :class:`PartitionInfo` (no block bytes touched)."""
    return PartitionInfo(
        partition_id=meta.partition_id,
        mbr_first=meta.mbr_first,
        mbr_last=meta.mbr_last,
        size=meta.n_trajectories,
        nbytes=meta.nbytes,
        min_len=meta.min_len,
    )
