"""The real multi-core execution backend behind the cluster simulator.

:class:`ParallelExecutor` runs the engine's :class:`~repro.cluster.tasks.TaskSpec`
units on a ``spawn``-based process pool.  The design mirrors how a real
executor fleet would attach to DITA's storage tier:

* **shared-mmap attach, zero coordinate shipping** — each worker opens
  the same persisted :class:`~repro.storage.store.TrajectoryStore`
  blocks through ``np.lib.format.open_memmap`` (via
  ``TrajectoryStore.partition``), so the OS page cache backs every
  process with one physical copy of the coordinate arrays.  Specs carry
  only ``(partition id, row ids, query payload)``; the pool enforces
  that with :func:`~repro.cluster.tasks.pickle_budget` before anything
  is sent;
* **per-worker lazy index caches** — a worker builds a partition's
  :class:`~repro.core.trie.TrieIndex` the first time a task touches it
  and keeps it for the pool's lifetime, keyed by ``(side, partition)``
  exactly like the coordinator's own caches (LocationSpark's
  executor-side local indexing);
* **deque-based work stealing** — the coordinator keeps one task deque
  per worker, seeded by partition affinity; an idle worker steals *half*
  of the most-loaded peer's deque (from the tail, so the victim keeps
  its affinity-local work), which absorbs partition skew the way
  Odyssey's parallelism-conscious scheduler does;
* **typed failure surfacing** — a worker crash (non-zero exit), an
  in-task exception or an unpicklable result raises
  :class:`ExecutorError` with the remote detail instead of a raw
  ``BrokenProcessPool`` traceback, and the engine folds it into the
  cluster's :class:`~repro.cluster.faults.FaultReport` as an
  ``executor_failures`` entry.

``spawn`` (not ``fork``) is deliberate: forked children would inherit
the coordinator's arbitrary Python state — open memmaps, lock states,
the simulator mid-job — whereas spawned workers import a clean process
and reconstruct *only* the documented :class:`WorkerInit`, which is also
the only start method that behaves identically on Linux/macOS/Windows.

Results are keyed by ``task_id`` and the engine merges them in task
order, so output is bit-identical to the sequential backend regardless
of completion order or steal pattern.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import traceback
from collections import deque
from dataclasses import dataclass
from queue import Empty
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .clock import wall_clock
from .faults import _mix64
from .tasks import TaskSpec, pickle_budget, run_task_body

#: how long the coordinator waits on the result queue before polling
#: worker liveness (seconds)
_POLL_S = 0.2


class ExecutorError(RuntimeError):
    """A process-pool worker failed: crashed, raised, or produced an
    unpicklable result.  Carries the remote detail in the message."""


@dataclass(frozen=True)
class SideInit:
    """One engine side's share of a worker's bootstrap."""

    #: persisted store directory the worker maps partitions from
    store_path: str
    #: the side's index/verifier parameters (a picklable frozen dataclass)
    config: Any
    #: the side's index adapter (a picklable frozen dataclass)
    adapter: Any


@dataclass(frozen=True)
class WorkerInit:
    """Everything a spawned worker needs to mirror the coordinator's
    view: per-side store paths, configs and adapters.  No
    coordinate bytes — workers map their own."""

    sides: Tuple[Tuple[str, SideInit], ...]


@dataclass
class TaskResult:
    """One completed task as the coordinator sees it."""

    value: Any
    worker_id: int
    #: worker-local monotonic interval of the body execution
    t0: float
    t1: float
    #: worker-side counter deltas attributed to this task (trie builds,
    #: block maps, ...)
    counters: Dict[str, int]


class WorkerState:
    """A worker process's resolver: the process-backend twin of the
    engine's ``_LocalResolver``.

    Datasets come from the worker's own memory-mapped store blocks;
    tries, searchers, verifiers and sender-side verification artifacts
    are built lazily and cached for the pool's lifetime.  Everything is
    a deterministic function of the store bytes and the configs, so two
    workers (or a worker and the coordinator) resolving the same
    reference produce bit-identical state.
    """

    def __init__(self, init: WorkerInit) -> None:
        self._sides: Dict[str, SideInit] = dict(init.sides)
        self._stores: Dict[str, Any] = {}
        self._datasets: Dict[Tuple[str, int], Any] = {}
        self._tries: Dict[Tuple[str, int], Any] = {}
        self._searchers: Dict[Tuple[str, int], Any] = {}
        self._join_searchers: Dict[Tuple[str, int], Any] = {}
        self._verifiers: Dict[str, Any] = {}
        self._distances: Dict[str, Any] = {}
        self._sender_data: Dict[Tuple[str, int, int], Any] = {}
        self._counters: Dict[str, int] = {}

    def _bump(self, name: str) -> None:
        self._counters[name] = self._counters.get(name, 0) + 1

    def take_counters(self) -> Dict[str, int]:
        """Counter deltas since the last call (attributed to one task)."""
        out = self._counters
        self._counters = {}
        return out

    # ------------------------------------------------------------------ #
    # the resolver protocol (see repro.cluster.tasks)
    # ------------------------------------------------------------------ #

    def _store(self, side: str):
        if side not in self._stores:
            from ..storage.store import TrajectoryStore

            self._stores[side] = TrajectoryStore.open(self._sides[side].store_path)
        return self._stores[side]

    def dataset(self, side: str, pid: int):
        key = (side, pid)
        if key not in self._datasets:
            self._datasets[key] = self._store(side).partition(pid)
            self._bump("pool.blocks_mapped")
        return self._datasets[key]

    def trie(self, side: str, pid: int):
        key = (side, pid)
        if key not in self._tries:
            from ..core.trie import TrieIndex

            trie = TrieIndex(self.dataset(side, pid), self._sides[side].config)
            trie.batch_block()
            self._tries[key] = trie
            self._bump("pool.tries_built")
        return self._tries[key]

    def _verifier(self, side: str):
        if side not in self._verifiers:
            cfg = self._sides[side].config
            self._verifiers[side] = self._sides[side].adapter.make_verifier(
                use_mbr_coverage=cfg.use_mbr_coverage,
                use_cell_filter=cfg.use_cell_filter,
            )
        return self._verifiers[side]

    def searcher(self, side: str, pid: int):
        key = (side, pid)
        if key not in self._searchers:
            from ..core.search import LocalSearcher

            self._searchers[key] = LocalSearcher(
                self.trie(side, pid), self._sides[side].adapter, self._verifier(side)
            )
        return self._searchers[key]

    def join_searcher(self, side: str, pid: int):
        # mirrors JoinExecutor: the *left* engine's adapter drives the
        # join, the receiving side supplies trie and verifier
        key = (side, pid)
        if key not in self._join_searchers:
            from ..core.search import LocalSearcher

            self._join_searchers[key] = LocalSearcher(
                self.trie(side, pid), self._sides["L"].adapter, self._verifier(side)
            )
        return self._join_searchers[key]

    def distance(self, side: str):
        if side not in self._distances:
            self._distances[side] = self._sides[side].adapter.distance()
        return self._distances[side]

    def query_data(self, points):
        from ..core.verify import VerificationData

        return VerificationData.from_points(points, self._sides["L"].config.cell_size)

    def sender_data(self, side: str, pid: int, row: int):
        key = (side, pid, int(row))
        if key not in self._sender_data:
            from ..core.verify import VerificationData

            self._sender_data[key] = VerificationData.from_points(
                self.dataset(side, pid).points(int(row)),
                self._sides["L"].config.cell_size,
            )
        return self._sender_data[key]


def _worker_main(worker_id: int, init: WorkerInit, task_q, result_q) -> None:
    """The spawned worker loop: pull pickled specs, run them against the
    worker's :class:`WorkerState`, push pickled results.

    Results are pre-pickled *here* so a value pickle can't carry — which
    ``mp.Queue``'s feeder thread would otherwise swallow silently — comes
    back as a typed ``("unpicklable", ...)`` record instead.
    """
    state = WorkerState(init)
    while True:
        item = task_q.get()
        if item is None:
            return
        spec = pickle.loads(item)
        try:
            t0 = wall_clock()
            value = run_task_body(spec, state)
            t1 = wall_clock()
            payload = (spec.task_id, worker_id, t0, t1, value, state.take_counters())
        except BaseException as exc:  # noqa: BLE001 — every failure must cross the pipe typed
            detail = f"{exc!r}\n{traceback.format_exc()}"
            result_q.put(("exc", spec.task_id, worker_id, detail))
            continue
        try:
            blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            result_q.put(("unpicklable", spec.task_id, worker_id, repr(exc)))
            continue
        result_q.put(("ok", blob))


class ParallelExecutor:
    """A spawn-based process pool executing :class:`TaskSpec` batches
    with per-worker deques and steal-half scheduling.

    One pool amortizes worker spawn and index builds across many
    batches; the engine keeps it alive until the underlying snapshot
    changes (a delta flush, merge or repartition) or the engine shuts down.
    """

    def __init__(self, init: WorkerInit, num_workers: int) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers
        self._ctx = mp.get_context("spawn")
        self._task_qs = [self._ctx.Queue() for _ in range(num_workers)]
        self._result_q = self._ctx.Queue()
        self._procs = []
        for w in range(num_workers):
            p = self._ctx.Process(
                target=_worker_main,
                args=(w, init, self._task_qs[w], self._result_q),
                daemon=True,
                name=f"repro-pool-{w}",
            )
            p.start()
            self._procs.append(p)
        self._closed = False
        #: scheduler statistics (cumulative over the pool's lifetime)
        self.steals = 0
        self.stolen_tasks = 0
        self.tasks_per_worker = [0] * num_workers

    # ------------------------------------------------------------------ #

    def run(
        self,
        specs: Sequence[TaskSpec],
        affinity: Optional[Sequence[int]] = None,
        schedule_seed: Optional[int] = None,
        timeout_s: Optional[float] = None,
    ) -> Dict[int, TaskResult]:
        """Execute a batch; returns ``{task_id: TaskResult}``.

        ``affinity`` hints each task's preferred worker (the simulated
        placement, so pool caches line up with partition homes); tasks
        beyond a worker's capacity are rebalanced by stealing.
        ``schedule_seed`` deterministically perturbs the initial deque
        assignment — results must be (and are tested to be) invariant
        under it.  Raises :class:`ExecutorError` on any worker failure;
        the pool is closed on the way out, since a half-dead pool can't
        be trusted with further batches.
        """
        if self._closed:
            raise ExecutorError("executor pool is closed")
        n = self.num_workers
        blobs: Dict[int, bytes] = {}
        for spec in specs:
            if spec.task_id in blobs:
                raise ExecutorError(f"duplicate task_id {spec.task_id} in batch")
            blob = pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL)
            budget = pickle_budget(spec)
            if len(blob) > budget:
                raise ExecutorError(
                    f"task {spec.task_id} ({spec.kind}) pickles to {len(blob)} bytes, "
                    f"over its {budget}-byte budget — dataset coordinates must never "
                    f"cross the process boundary"
                )
            blobs[spec.task_id] = blob
        queues: List[deque] = [deque() for _ in range(n)]
        for i, spec in enumerate(specs):
            w = (affinity[i] if affinity is not None else i) % n
            if schedule_seed is not None:
                w = (w + _mix64(schedule_seed ^ i)) % n
            queues[w].append(spec.task_id)
        inflight: List[Optional[int]] = [None] * n
        results: Dict[int, TaskResult] = {}
        deadline = None if timeout_s is None else wall_clock() + timeout_s

        def dispatch(w: int) -> None:
            if inflight[w] is not None:
                return
            if not queues[w]:
                lengths = [len(q) for q in queues]
                most = max(lengths)
                if most == 0:
                    return
                victim = lengths.index(most)  # ties -> lowest worker id
                k = (most + 1) // 2
                stolen = [queues[victim].pop() for _ in range(k)]
                queues[w].extend(reversed(stolen))
                self.steals += 1
                self.stolen_tasks += k
            tid = queues[w].popleft()
            self._task_qs[w].put(blobs[tid])
            inflight[w] = tid
            self.tasks_per_worker[w] += 1

        for w in range(n):
            dispatch(w)
        while len(results) < len(specs):
            if deadline is not None and wall_clock() > deadline:
                self._fail(
                    f"pool timed out after {timeout_s}s with "
                    f"{len(specs) - len(results)} tasks outstanding"
                )
            try:
                item = self._result_q.get(timeout=_POLL_S)
            except Empty:
                self._check_liveness(inflight)
                continue
            kind = item[0]
            if kind == "ok":
                tid, wid, t0, t1, value, counters = pickle.loads(item[1])
                results[tid] = TaskResult(value, wid, t0, t1, counters)
                inflight[wid] = None
                dispatch(wid)
            elif kind == "exc":
                _, tid, wid, detail = item
                self._fail(f"task {tid} raised in worker {wid}: {detail}")
            else:  # "unpicklable"
                _, tid, wid, detail = item
                self._fail(
                    f"worker {wid} produced an unpicklable result for task {tid}: {detail}"
                )
        return results

    def _check_liveness(self, inflight: Sequence[Optional[int]]) -> None:
        for w, tid in enumerate(inflight):
            if tid is not None and not self._procs[w].is_alive():
                self._fail(
                    f"worker {w} died with exit code {self._procs[w].exitcode} "
                    f"while running task {tid}"
                )

    def _fail(self, message: str) -> None:
        self.close()
        raise ExecutorError(message)

    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Shut the pool down: sentinel every worker, join, terminate
        stragglers.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for q in self._task_qs:
            try:
                q.put_nowait(None)
            except Exception:
                pass
        for p in self._procs:
            p.join(timeout=5.0)
        for p in self._procs:
            if p.is_alive():
                p.terminate()
                p.join(timeout=5.0)
        for q in [*self._task_qs, self._result_q]:
            try:
                q.close()
                q.cancel_join_thread()
            except Exception:
                pass

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass


def schedule_makespan(
    costs: Sequence[float],
    num_workers: int,
    affinity: Optional[Sequence[int]] = None,
) -> float:
    """The makespan the pool's dispatch/steal policy achieves when task
    ``i`` costs ``costs[i]`` seconds — a deterministic discrete-event
    replay of :meth:`ParallelExecutor.run`'s scheduling loop.

    Pure (no clocks, no processes): benchmarks use it to report the
    scheduler's balancing quality independent of how many cores the
    measuring machine happens to have.  The replay mirrors the live
    scheduler exactly — affinity-seeded deques, steal-half from the
    most-loaded victim (ties to the lowest worker id) on an empty deque,
    next dispatch on the earliest completion (ties to the lowest worker
    id) — so its makespan is what the pool would measure on
    ``num_workers`` dedicated cores with zero dispatch overhead.
    """
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    n = num_workers
    queues: List[deque] = [deque() for _ in range(n)]
    for i in range(len(costs)):
        w = (affinity[i] if affinity is not None else i) % n
        queues[w].append(i)
    clocks = [0.0] * n
    inflight: Dict[int, Tuple[float, int]] = {}

    def dispatch(w: int) -> None:
        if w in inflight:
            return
        if not queues[w]:
            lengths = [len(q) for q in queues]
            most = max(lengths)
            if most == 0:
                return
            victim = lengths.index(most)
            k = (most + 1) // 2
            stolen = [queues[victim].pop() for _ in range(k)]
            queues[w].extend(reversed(stolen))
        tid = queues[w].popleft()
        inflight[w] = (clocks[w] + float(costs[tid]), tid)

    for w in range(n):
        dispatch(w)
    while inflight:
        w = min(inflight, key=lambda i: (inflight[i][0], i))
        clocks[w] = inflight.pop(w)[0]
        dispatch(w)
    return max(clocks) if clocks else 0.0
