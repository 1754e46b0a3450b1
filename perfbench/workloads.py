"""The benchmark's three workloads and the passes that measure them.

Each workload makes its inputs from the seed and writes them to disk
before any timing starts, builds the engine from those files (the timed
set-up), runs a fixed plan of operations whose length scales with the
run length, and checks a seeded sample of answers against the
brute-force scans in :mod:`perfbench.oracle` outside the timed region.

The plan is a pure function of ``(workload, seed, seconds)``: the mix of
operation kinds and their order never depend on the seed (only the data
and queries do; ``join-citywide`` and ``serve-stream`` keep a fixed
city), so every seed exercises the same code in the same proportions, and two
passes over one seed produce identical counts.
"""

from __future__ import annotations

import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import DITAConfig, DITAEngine
from repro.cluster.simulator import Cluster
from repro.core import knn as knn_module
from repro.core.global_index import GlobalIndex
from repro.core.join import JoinExecutor, JoinStats
from repro.core.search import SearchStats
from repro.core.trie import FilterStats, TrieIndex
from repro.core.verify import Verifier, VerifyStats
from repro.datagen import beijing_like, citywide_dataset, sample_queries
from repro.geometry.cell import CellSet
from repro.serving import Request, ServingLayer
from repro.sql import DITASession
from repro.storage.generations import GenerationalStore
from repro.trajectory import Trajectory, TrajectoryDataset
from repro.trajectory import io as trajectory_io

from . import oracle
from .hostspeed import LONG_REPS, REF_S, HostSpeed
from .tracing import SpanTracer

#: the paper's threshold sweep (degrees; 0.001 is about 111 m)
TAUS = (0.001, 0.002, 0.003, 0.004, 0.005)
#: query perturbation: small enough that a query still matches the
#: trips retracing its route
PERTURB = 2e-5
#: the SQL statement every workload issues (table ``trips``)
SQL_TEXT = "SELECT * FROM trips WHERE DTW(trips, :q) <= {tau!r}"
#: every how many plan steps an answer is checked
CHECK_EVERY = 5
#: operation kinds that run for a large part of a second or more: their
#: edge probes repeat
LONG_KINDS = ("setup", "batch", "knn", "join", "merge")
#: the one host-speed probe every timing goes through
SPEED = HostSpeed()


def tail_point(samples: List[float]) -> Tuple[float, float]:
    """``(value, percentile)``: the highest percentile with at least ten
    samples above it (nearest rank)."""
    n = len(samples)
    if n < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {n}")
    ordered = sorted(samples)
    return ordered[n - 11], 100.0 * (n - 10) / n


@dataclass
class Metric:
    value: float
    unit: str
    #: "wall" (host clock), "sim" (the cluster model) or "count"
    clock: str
    note: str = ""


@dataclass
class Pass:
    """One round over a workload's plan on a freshly set-up engine:
    latencies per operation kind in plan order, exact counts for the
    self-check, and the answer-check tally.  Every latency is normalized
    for the host's speed (see :mod:`perfbench.hostspeed`); the wall
    times are kept beside them for the printout."""

    tracer: Optional[SpanTracer] = None
    #: run the brute-force answer checks in this round
    checking: bool = True
    #: kind -> operation label -> best normalized latency for that operation
    lat: Dict[str, Dict[int, float]] = field(default_factory=dict)
    #: kind -> operation label -> best wall latency for that operation
    wall: Dict[str, Dict[int, float]] = field(default_factory=dict)
    #: kind -> normalized seconds over every call of that kind in this round
    spent: Dict[str, float] = field(default_factory=dict)
    #: kind -> answers returned over every call of that kind in this round
    done: Dict[str, int] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    extra: Dict[str, Metric] = field(default_factory=dict)
    sim_makespan_s: float = 0.0
    sim_load_ratio: float = 1.0

    def timed(
        self,
        kind: str,
        fn: Callable[..., Any],
        *args: Any,
        label: Optional[int] = None,
        weight: int = 1,
        **kwargs: Any,
    ) -> Any:
        """Run one operation between two host-speed probes, timing it on
        the host clock (and as a root span when tracing).  ``weight`` is
        how many answers it returns; an operation run again under the
        same ``label`` keeps its best time."""
        reps = LONG_REPS if kind in LONG_KINDS else 1
        if self.tracer is None:
            out, wall, spent = SPEED.measure(fn, *args, reps=reps, **kwargs)
        else:
            out, wall, spent = SPEED.measure(self._traced, kind, fn, args, kwargs, reps=reps)
        ops = self.lat.setdefault(kind, {})
        walls = self.wall.setdefault(kind, {})
        if label is None:
            label = len(ops)
        ops[label] = min(spent, ops.get(label, spent))
        walls[label] = min(wall, walls.get(label, wall))
        self.spent[kind] = self.spent.get(kind, 0.0) + spent
        self.done[kind] = self.done.get(kind, 0) + weight
        self.attempted += weight
        return out

    def _traced(self, kind: str, fn: Callable[..., Any], args: tuple, kwargs: Dict[str, Any]) -> Any:
        with self.tracer.op(kind):
            return fn(*args, **kwargs)

    def fail(self, what: str) -> None:
        self.failures.append(what)

    def count_stats(self, prefix: str, stats: SearchStats) -> None:
        self.bump(f"{prefix}.relevant_partitions", stats.relevant_partitions)
        for name in ("nodes_visited", "nodes_pruned", "candidates"):
            self.bump(f"{prefix}.filter.{name}", getattr(stats.filter, name))
        for name in ("pairs", "pruned_by_mbr", "pruned_by_cells", "exact_computed", "accepted"):
            self.bump(f"{prefix}.verify.{name}", getattr(stats.verify, name))

    def bump(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(n)

    def samples(self, kind: str) -> List[float]:
        """One normalized latency per operation of ``kind``, in plan order."""
        return list(self.lat.get(kind, {}).values())

    def wall_samples(self, kind: str) -> List[float]:
        """One wall latency per operation of ``kind``, in plan order."""
        return list(self.wall.get(kind, {}).values())

    @property
    def busy_s(self) -> float:
        """Seconds spent inside every timed call of this round."""
        return sum(self.spent.values())

    def throughput(self, kinds: Optional[Tuple[str, ...]]) -> Tuple[int, float]:
        """``(answers, seconds)`` over every call this round made of the
        given operation kinds (all when None)."""
        chosen = [k for k in self.spent if kinds is None or k in kinds]
        return sum(self.done[k] for k in chosen), sum(self.spent[k] for k in chosen)


def fold(rounds: List[Pass]) -> Pass:
    """Combine rounds of one plan: each operation's latency is its best
    over the rounds (the host's background load slows whole stretches
    of seconds, and the rounds are spread across the run), counts come
    from the first round, failures from all of them."""
    first = rounds[0]
    out = Pass(
        counts=dict(first.counts), extra=dict(rounds[-1].extra),
        sim_makespan_s=first.sim_makespan_s, sim_load_ratio=first.sim_load_ratio,
    )
    for kind, ops in first.lat.items():
        out.lat[kind] = {label: min(r.lat[kind][label] for r in rounds) for label in ops}
        out.wall[kind] = {label: min(r.wall[kind][label] for r in rounds) for label in ops}
    for i, r in enumerate(rounds):
        out.attempted += r.attempted
        out.failures.extend(f"round {i}: {what}" for what in r.failures)
    return out


@dataclass
class Ready:
    """What a set-up leaves behind: everything a round needs."""

    engine: DITAEngine
    session: DITASession
    serving: Optional[ServingLayer] = None
    root: Optional[Path] = None


def _session_over(engine: DITAEngine, data) -> DITASession:
    """A SQL session whose ``trips`` table is served by ``engine`` itself,
    so SQL reads see every write the engine took."""
    session = DITASession(engine.config)
    session.register("trips", TrajectoryDataset(data))
    table = session.catalog.get("trips")
    table.engine = engine
    table.index_name = "trips_idx"
    return session


def _search_answer(matches) -> Dict[int, float]:
    return {int(t.traj_id): float(d) for t, d in matches}


def _sql_answer(rows) -> Dict[int, float]:
    return {int(r["trips.traj_id"]): float(r["distance"]) for r in rows}


def p50_metric(p: Pass, kind: str) -> Metric:
    samples = p.samples(kind)
    return Metric(
        1e3 * statistics.median(samples), "ms", "wall",
        f"n={len(samples)}, host wall p50 {1e3 * statistics.median(p.wall_samples(kind)):.6g} ms",
    )


def tail_metric(p: Pass, kind: str) -> Metric:
    value, pct = tail_point(p.samples(kind))
    wall, _ = tail_point(p.wall_samples(kind))
    return Metric(
        1e3 * value, "ms", "wall",
        f"p{pct:.1f} of n={len(p.samples(kind))}, host wall {1e3 * wall:.6g} ms",
    )


class Workload:
    """Common plumbing: inputs on disk, set-up, one round, checks."""

    name = ""
    why = ""
    #: how many trips the inputs hold
    n_rows = 0
    #: the operation kinds ``ops_per_s`` counts (None: all of them)
    paced_kinds: Optional[Tuple[str, ...]] = None
    #: a fixed seed for the city (its trips) in place of the run's seed.
    #: A few thousand trips laid over 12 random zones make every seed's
    #: city differently dense, which moved the read latencies by about
    #: a tenth from seed to seed; where it is set, the run's seed picks
    #: the reads, writes and checked trips only
    city_seed: Optional[int] = None
    #: set-ups per ``--trace 0`` run; the first is an untimed warm-up
    #: and ``setup_s`` is the median of the others
    setups = 4
    #: the set-ups a round over the plan follows (the others are
    #: released at once)
    round_after: Tuple[int, ...] = (0, 1, 3)

    def __init__(self, seed: int, seconds: int, workdir: Path) -> None:
        self.seed = int(seed)
        self.scale = max(1, int(seconds)) / 10.0
        self.workdir = workdir
        self.csv = workdir / "trips.csv"
        self.config = DITAConfig()

    def steps(self, per_ten_seconds: int) -> int:
        return max(30, int(round(per_ten_seconds * self.scale)))

    def generate(self) -> None:
        data = self.make_data()
        trajectory_io.save_csv(data, self.csv)
        self.model = oracle.RowModel(
            [t.traj_id for t in data], [np.array(t.points) for t in data]
        )
        self.make_plan(data)

    def make_data(self) -> TrajectoryDataset:
        return beijing_like(self.n_rows, seed=self.seed if self.city_seed is None else self.city_seed)

    def make_plan(self, data: TrajectoryDataset) -> None:
        raise NotImplementedError

    def setup(self, tag: str) -> Ready:
        data = trajectory_io.load_csv_columnar(self.csv)
        engine = DITAEngine(data, self.config)
        return Ready(engine, _session_over(engine, data))

    def run_round(self, ready: Ready, p: Pass) -> None:
        raise NotImplementedError

    def finish_round(self, ready: Ready, p: Pass) -> None:
        """Answer checks that call the program again (outside any timing)."""

    def extras(self, folded: Pass) -> Dict[str, Metric]:
        """Workload-specific metrics, printed but not gated."""
        return {}

    def release(self, ready: Ready) -> None:
        ready.engine.shutdown()
        if ready.root is not None:
            shutil.rmtree(ready.root, ignore_errors=True)

    # -- shared read helpers ------------------------------------------- #

    def reads(self, ready: Ready, p: Pass, half: int) -> None:
        """Threshold searches and SQL statements, one at a time: the first
        (``half`` 0) or second half of the read plan.  A round runs one
        half on either side of its long operations."""
        engine, session = ready.engine, ready.session
        n = len(self.plan) // 2
        for i in range(half * n, len(self.plan) if half else n):
            kind, q, tau = self.plan[i]
            if kind == "search":
                stats = SearchStats()
                got = _search_answer(p.timed("search", engine.search, q, tau, label=i, stats=stats))
                p.count_stats("search", stats)
            else:
                rows = p.timed("sql", session.sql, SQL_TEXT.format(tau=tau), label=i, params={"q": q})
                got = _sql_answer(rows)
            p.bump(f"{kind}.results", len(got))
            if p.checking and i % CHECK_EVERY == 0 and not oracle.same_threshold_answer(
                got, self.model.within(q.points, tau), tau
            ):
                p.fail(f"{kind} #{i} at tau {tau} disagrees with the brute-force scan")

    def read_plan(self, data: TrajectoryDataset, n: int, seed_offset: int) -> List[Tuple[str, Trajectory, float]]:
        """``n`` unique perturbed reads; every fourth one is SQL."""
        qs = sample_queries(data, n, seed=self.seed * 1000 + seed_offset, perturb=PERTURB)
        return [
            ("sql" if i % 4 == 3 else "search", q, TAUS[i % len(TAUS)]) for i, q in enumerate(qs)
        ]


class QueryCitywide(Workload):
    name = "query-citywide"
    why = (
        "Read-only dense citywide data: build dominates set-up and trie filter plus "
        "verify dominate queries; no writes, cache or serving, so changes there show nothing."
    )
    n_rows = 10_000
    batch_size = 200
    k = 10
    #: a handful of kNN queries spread 30% across seeds on their own;
    #: they are timed and checked but kept out of the gated throughput
    paced_kinds = ("search", "sql", "batch")

    def make_plan(self, data: TrajectoryDataset) -> None:
        self.plan = self.read_plan(data, self.steps(480), 1)
        bq = sample_queries(data, self.batch_size, seed=self.seed * 1000 + 2, perturb=PERTURB)
        self.batch = (bq, [TAUS[i % len(TAUS)] for i in range(len(bq))])
        n_knn = max(1, round(3 * self.scale))
        self.knn = sample_queries(data, n_knn, seed=self.seed * 1000 + 3, perturb=PERTURB)

    def run_round(self, ready: Ready, p: Pass) -> None:
        engine = ready.engine
        engine.cluster.reset_clocks()
        self.reads(ready, p, 0)
        queries, taus = self.batch
        stats = [SearchStats() for _ in queries]
        rows_out = p.timed(
            "batch", engine.search_batch_rows, queries, taus, stats=stats, weight=len(queries)
        )
        for s in stats:
            p.count_stats("batch", s)
        if p.checking:
            for i in range(0, len(queries), CHECK_EVERY * 4):
                got = {engine.partition(pid).id_of(row): d for pid, row, d in rows_out[i]}
                want = self.model.within(queries[i].points, taus[i])
                if not oracle.same_threshold_answer(got, want, taus[i]):
                    p.fail(f"batch query {i} disagrees with the brute-force scan")
        answers = [p.timed("knn", knn_module.knn_search, engine, q, self.k) for q in self.knn]
        for i, (q, got) in enumerate(zip(self.knn, answers)):
            p.bump("knn.results", len(got))
            if p.checking and i % 4 == 0 and not oracle.same_nearest(
                [(int(t.traj_id), float(d)) for t, d in got], self.model.nearest(q.points, self.k)
            ):
                p.fail(f"knn #{i} disagrees with the brute-force top-{self.k}")
        self.reads(ready, p, 1)
        report = engine.cluster.report()
        p.sim_makespan_s, p.sim_load_ratio = report.makespan, report.load_ratio

    def extras(self, folded: Pass) -> Dict[str, Metric]:
        batch_s = folded.samples("batch")[0]
        return {
            "batch_search_qps": Metric(
                self.batch_size / batch_s, "1/s", "wall", f"one batch of {self.batch_size} queries"
            ),
            "knn_p50_ms": p50_metric(folded, "knn"),
        }


class JoinCitywide(Workload):
    name = "join-citywide"
    why = (
        "One long self-join over duplicated citywide trips that spends its time verifying "
        "pairs; the only workload running the join planner, cost model and shipping. Its "
        "gated metrics cover set-up and reads only; join_s is printed, not gated."
    )
    n_rows = 3_000
    tau = 0.002
    n_checked = 25
    #: the join is printed as ``join_s`` and kept out of the gated
    #: throughput, which counts the reads
    paced_kinds = ("search", "sql")
    #: a set-up here takes about a second, so more of them are timed
    setups = 6
    round_after = (0, 2, 5)
    #: the join recipe's own city seed
    city_seed = 104

    def make_data(self) -> TrajectoryDataset:
        # the duplicated citywide join recipe (``beijing_join`` in
        # ``benchmarks/common.py``)
        return citywide_dataset(
            self.n_rows, avg_len=22, seed=self.city_seed, min_len=7, max_len=112, duplication=2
        )

    def make_plan(self, data: TrajectoryDataset) -> None:
        self.plan = self.read_plan(data, self.steps(400), 1)
        rng = np.random.default_rng(self.seed * 1000 + 4)
        ids = self.model.live_ids()
        self.checked = sorted(int(ids[i]) for i in rng.choice(len(ids), self.n_checked, replace=False))

    def run_round(self, ready: Ready, p: Pass) -> None:
        engine = ready.engine
        self.reads(ready, p, 0)
        engine.cluster.reset_clocks()
        stats = JoinStats()
        pairs = p.timed(
            "join", engine.join, engine, self.tau,
            use_orientation=True, use_division=True, stats=stats,
        )
        report = engine.cluster.report()
        p.sim_makespan_s, p.sim_load_ratio = report.makespan, report.load_ratio
        for name in (
            "partition_pairs", "trajectories_shipped", "bytes_shipped",
            "candidate_pairs", "verified_pairs", "result_pairs",
        ):
            p.bump(f"join.{name}", getattr(stats, name))
        if p.checking:
            partners: Dict[int, Dict[int, float]] = {tid: {} for tid in self.checked}
            for a, b, d in pairs:
                if a in partners:
                    partners[a][int(b)] = float(d)
            for tid in self.checked:
                want = self.model.within(self.model.points(tid), self.tau)
                if not oracle.same_threshold_answer(partners[tid], want, self.tau):
                    p.fail(f"join partners of {tid} disagree with the brute-force scan")
        self.reads(ready, p, 1)

    def extras(self, folded: Pass) -> Dict[str, Metric]:
        return {
            "join_s": Metric(
                folded.samples("join")[0], "s", "wall", f"{folded.counts['join.result_pairs']} pairs"
            )
        }


class ServeStream(Workload):
    name = "serve-stream"
    why = (
        "Reads beside writes through the serving layer: flushes rebuild indexes, reads "
        "wait for them, cache hits race invalidations and merges write generations to disk."
    )
    n_rows = 4_000
    #: one request cycle: two bursts of writes (4 appends, 2 removes in
    #: all), each followed by reads (12 searches, 6 SQL in all).  Only the
    #: first read after a burst waits for the flush (one read in nine),
    #: so the median sits among the reads that do not
    cycle = (
        "append", "remove", "append",
        "search", "search", "sql", "search", "sql", "search", "search", "sql", "search",
        "append", "append", "remove",
        "search", "sql", "search", "search", "sql", "search", "search", "sql", "search",
    )
    #: an explicit merge request every ``merge_every`` requests, late in
    #: each stretch: after a merge the engine re-bases on lazily mapped
    #: blocks, and reads stay slower for about a hundred requests.  One
    #: late merge per 400 requests keeps those reads a small share, so
    #: they show in the tail and in ``ops_per_s`` while the search median
    #: sits among the other reads instead of moving with that share
    merge_every = 400
    merge_at = 360
    n_hot = 12
    append_noise = 2e-5
    #: the city of the ``beijing`` recipe in ``benchmarks/common.py``
    city_seed = 101
    #: set-ups here write a generation to disk, whose time the host-speed
    #: probe does not cover, so more of them are timed
    setups = 6
    round_after = (0, 2, 5)

    def make_plan(self, data: TrajectoryDataset) -> None:
        n = self.steps(400)
        kinds = [
            "merge" if i % self.merge_every == self.merge_at else self.cycle[i % len(self.cycle)]
            for i in range(n)
        ]
        rng = np.random.default_rng(self.seed * 1000 + 5)
        n_reads = sum(k in ("search", "sql") for k in kinds)
        fresh = sample_queries(data, n_reads, seed=self.seed * 1000 + 6, perturb=PERTURB)
        hot = sample_queries(data, self.n_hot, seed=self.seed * 1000 + 7, perturb=PERTURB)
        next_id = max(self.model.live_ids()) + 1
        plan: List[Tuple[str, Dict[str, Any]]] = []
        n_search = 0
        for kind in kinds:
            if kind == "search":
                # every fourth search comes from the hot set
                if n_search % 4 == 3:
                    h = int(rng.integers(self.n_hot))
                    payload = {"query": hot[h], "tau": TAUS[h % len(TAUS)]}
                else:
                    payload = {"query": fresh.pop(), "tau": TAUS[n_search % len(TAUS)]}
                n_search += 1
            elif kind == "sql":
                payload = {"query": fresh.pop(), "tau": TAUS[len(fresh) % len(TAUS)]}
            elif kind == "append":
                src = data[int(rng.integers(len(data)))].points
                payload = {"traj_id": next_id, "points": src + rng.normal(0.0, self.append_noise, src.shape)}
                next_id += 1
            elif kind == "remove":
                # the victim is drawn when the request is sent, from the live rows
                payload = {"pick": float(rng.random())}
            else:
                payload = {}
            plan.append((kind, payload))
        self.plan = plan

    def setup(self, tag: str) -> Ready:
        data = trajectory_io.load_csv_columnar(self.csv)
        engine = DITAEngine(data, self.config)
        root = self.workdir / f"generations-{tag}"
        engine.attach_generations(root)
        engine.merge()
        # the merge re-bases the engine on lazily mapped blocks: load them
        # all so the engine is ready before the first request
        for pid in engine.partition_pids():
            engine.trie(pid).batch_block()
        session = _session_over(engine, data)
        return Ready(engine, session, ServingLayer(engine, session), root)

    def run_round(self, ready: Ready, p: Pass) -> None:
        engine, serving = ready.engine, ready.serving
        engine.cluster.reset_clocks()
        ids = self.model.live_ids()
        model = oracle.RowModel(ids, [self.model.points(t) for t in ids])
        self.acked_appends: List[int] = []
        self.acked_removes: List[int] = []
        merges = 0
        spacing = 2.0 / self.config.tenant_rate
        for i, (kind, payload) in enumerate(self.plan):
            if kind == "search":
                q, tau = payload["query"], payload["tau"]
                body: Dict[str, Any] = {"query": q, "tau": tau}
            elif kind == "sql":
                q, tau = payload["query"], payload["tau"]
                body = {"text": SQL_TEXT.format(tau=tau), "params": {"q": q}}
            elif kind == "remove":
                live = model.live_ids()
                body = {"traj_id": live[int(payload["pick"] * len(live))]}
            else:
                body = dict(payload)
            # one closed-loop client: each request arrives once the last
            # one finished on the serving clock, spaced so the tenant's
            # token bucket has refilled
            req = Request(
                req_id=i, tenant="client", kind=kind, payload=body,
                arrival=serving.scheduler.makespan + spacing,
            )
            outcomes = p.timed(kind, serving.run, [req])
            if len(outcomes) != 1 or outcomes[0].status != "ok":
                status = outcomes[0].status if outcomes else "missing"
                p.fail(f"request {i} ({kind}) came back {status}")
                if outcomes and outcomes[0].status == "shed":
                    p.bump("serving.shed", 1)
                continue
            out = outcomes[0]
            if kind in ("search", "sql"):
                if kind == "search":
                    p.count_stats("search", out.stats)
                    got = {int(tid): float(d) for tid, d in out.result}
                else:
                    got = {}
                    for row in out.result:
                        cells = dict(row)
                        got[int(cells["trips.traj_id"])] = float(cells["distance"])
                p.bump(f"{kind}.results", len(got))
                p.bump(f"{kind}.cached", int(out.cached))
                if p.checking and i % CHECK_EVERY == 0 and not oracle.same_threshold_answer(
                    got, model.within(q.points, tau), tau
                ):
                    p.fail(f"request {i} ({kind}) disagrees with the brute-force scan")
                continue
            if kind == "append":
                model.add(body["traj_id"], body["points"])
                self.acked_appends.append(body["traj_id"])
                p.bump("append.acked", 1)
                p.bump("append.bytes", np.asarray(body["points"]).nbytes)
            elif kind == "remove":
                if out.result is not True:
                    p.fail(f"request {i} could not remove live row {body['traj_id']}")
                    continue
                model.remove(body["traj_id"])
                self.acked_removes.append(body["traj_id"])
            else:
                merges += 1
            merges += int(p.timed("maintain", self.maintain, engine, weight=0))
        self.live = model
        report = engine.cluster.report()
        p.sim_makespan_s, p.sim_load_ratio = report.makespan, report.load_ratio
        cache = serving.result_cache.stats
        for name in ("hits", "misses", "invalidations", "evictions", "stored"):
            p.bump(f"cache.{name}", getattr(cache, name))
        p.bump("generations.merges", merges)
        p.bump("engine.generation", engine.generation)
        p.bump("store.generation", engine.generations.generation)

    @staticmethod
    def maintain(engine: DITAEngine) -> bool:
        """What ``repro ingest`` does after every write."""
        engine.maybe_repartition()
        return engine.maybe_merge(prune=True)

    def finish_round(self, ready: Ready, p: Pass) -> None:
        """Final merge, reopen from disk, and account every acknowledged
        write: appends present with their points, removes absent."""
        engine = ready.engine
        engine.merge(prune=True)
        root_bytes = sum(f.stat().st_size for f in ready.root.rglob("*") if f.is_file())
        p.extra["store_bytes_per_user_byte"] = Metric(
            root_bytes / self.live.coord_bytes(), "ratio", "count",
            f"{root_bytes} bytes on disk after the final merge",
        )
        reopened = DITAEngine.from_generations(ready.root)
        on_disk: Dict[int, np.ndarray] = {}
        for pid in reopened.partition_pids():
            part = reopened.partition(pid)
            for row in part.alive_rows().tolist():
                on_disk[int(part.traj_ids[row])] = part.points(row)
        reopened.shutdown()
        for tid in self.acked_appends:
            if tid in self.live and (tid not in on_disk or not np.array_equal(on_disk[tid], self.live.points(tid))):
                p.fail(f"acknowledged append {tid} is missing or altered after reopening")
        for tid in self.acked_removes:
            if tid in on_disk:
                p.fail(f"acknowledged remove {tid} is still present after reopening")
        if set(on_disk) != set(self.live.live_ids()):
            p.fail(f"reopened store holds {len(on_disk)} rows, the model {len(self.live)}")

    def extras(self, folded: Pass) -> Dict[str, Metric]:
        out = {"append_p50_ms": p50_metric(folded, "append")}
        if len(folded.samples("append")) >= 20:
            out["append_tail_ms"] = tail_metric(folded, "append")
        out.update(folded.extra)
        return out


WORKLOADS = {w.name: w for w in (QueryCitywide, JoinCitywide, ServeStream)}


# ---------------------------------------------------------------------- #
# the traced pass
# ---------------------------------------------------------------------- #


@dataclass
class LayerTotals:
    """Whole-pass counter totals read off the layers' own stats objects."""

    filter: FilterStats = field(default_factory=FilterStats)
    verify: VerifyStats = field(default_factory=VerifyStats)
    relevant_partitions: int = 0
    flushes: int = 0
    merge_bytes: int = 0


def install_tracing(tracer: SpanTracer) -> LayerTotals:
    """Patch every traced layer; returns the totals the patches fill."""
    totals = LayerTotals()

    def count_filter(original):
        def counted(self, queries, taus, adapter, stats=None):
            own = [FilterStats() for _ in queries]
            out = original(self, queries, taus, adapter, own)
            for i, s in enumerate(own):
                totals.filter.merge(s)
                if stats is not None and stats[i] is not None:
                    stats[i].merge(s)
            return out

        return counted

    def count_verify(original):
        def counted(self, block, dataset, rows, q_points, tau, q_data, stats=None):
            own = VerifyStats()
            out = original(self, block, dataset, rows, q_points, tau, q_data, stats=own)
            totals.verify.merge(own)
            if stats is not None:
                stats.merge(own)
            return out

        return counted

    def on_prune(pids: List[int]) -> None:
        totals.relevant_partitions += len(pids)

    def on_flush(applied: int) -> None:
        totals.flushes += int(applied > 0)

    def on_commit(path: Path) -> None:
        if tracer.current_op() != "setup":
            totals.merge_bytes += sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())

    tracer.patch_with(TrieIndex, "filter_candidates_batch", count_filter)
    tracer.patch_with(Verifier, "verify_rows", count_verify)
    tracer.patch_span(trajectory_io, "load_csv_columnar", "io.load")
    tracer.patch_span(GlobalIndex, "__init__", "global_index.build")
    tracer.patch_span(GlobalIndex, "relevant_partitions", "global_index.prune", observe=on_prune)
    tracer.patch_span(TrieIndex, "__init__", "trie.build")
    tracer.patch_span(TrieIndex, "batch_block", "trie.batch_block")
    tracer.patch_span(TrieIndex, "filter_candidates_batch", "filter")
    tracer.patch_span(Verifier, "verify_rows", "verify")
    tracer.patch_tally(CellSet, "from_points", "cell.from_points", within="delta.flush")
    tracer.patch_span(Cluster, "run_local", "cluster.dispatch")
    tracer.patch_span(Cluster, "run_on_worker", "cluster.dispatch")
    tracer.patch_span(JoinExecutor, "plan", "join.plan")
    tracer.patch_span(JoinExecutor, "execute", "join.execute")
    for attr, name in (
        ("__init__", "engine.build"),
        ("search", "engine.search"),
        ("search_batch_rows", "engine.search_batch_rows"),
        ("join", "engine.join"),
        ("append_trajectory", "engine.append"),
        ("remove_trajectory", "engine.remove"),
        ("maybe_merge", "engine.maybe_merge"),
        ("maybe_repartition", "engine.maybe_repartition"),
    ):
        tracer.patch_span(DITAEngine, attr, name)
    tracer.patch_span(DITAEngine, "flush_deltas", "delta.flush", observe=on_flush)
    tracer.patch_span(DITAEngine, "merge", "generations.merge")
    tracer.patch_span(GenerationalStore, "commit", "generations.commit", observe=on_commit)
    tracer.patch_span(ServingLayer, "run", "serving")
    tracer.patch_span(DITASession, "sql", "sql.session")
    tracer.patch_span(DITASession, "plan", "sql.plan")
    tracer.patch_span(DITASession, "to_physical", "sql.plan")
    return totals


#: top-level operation kinds (the ``<op>.residual_s`` metrics)
OP_KINDS = ("setup", "search", "sql", "batch", "knn", "join", "append", "remove", "merge", "maintain")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: SpanTracer, totals: LayerTotals, traced: Pass, untraced: Tuple[Pass, ...]
) -> Dict[str, Metric]:
    """Every per-layer metric of the traced pass, by name."""
    t = tracer
    out: Dict[str, Metric] = {}

    def wall(name: str, value: float, note: str = "") -> None:
        out[name] = Metric(value, "s", "wall", note)

    def count(name: str, value: float, unit: str = "count") -> None:
        out[name] = Metric(value, unit, "count")

    wall("io.load_s", t.layer_total("io.load"))
    wall("global_index.build_s", t.layer_total("global_index.build"))
    wall("trie.build_s", t.layer_total("trie.build"))
    wall("trie.batch_block_s", t.layer_total("trie.batch_block"))
    cells = t.tallies.get("cell.from_points", [0, 0.0])
    count("cell.from_points_calls", cells[0])
    wall("global_index.prune_s", t.layer_total("global_index.prune"))
    count("global_index.relevant_partitions", totals.relevant_partitions)
    count("cluster.tasks", t.count("cluster.dispatch"))
    wall("cluster.dispatch_self_s", t.layer_self("cluster.dispatch"))
    f, v = totals.filter, totals.verify
    wall("filter.s", t.layer_total("filter"))
    count("filter.nodes_visited", f.nodes_visited)
    count("filter.candidates", f.candidates)
    count("filter.prune_ratio", _ratio(f.nodes_pruned, f.nodes_pruned + f.nodes_visited), "ratio")
    wall("verify.s", t.layer_total("verify"))
    count("verify.pairs", v.pairs)
    count("verify.exact_computed", v.exact_computed)
    count("verify.accept_ratio", _ratio(v.accepted, v.exact_computed), "ratio")
    count("verify.lb_prune_ratio", _ratio(v.pruned_by_mbr + v.pruned_by_cells, v.pairs), "ratio")
    n_knn = len(traced.samples("knn"))
    count("knn.rounds_per_query", _ratio(t.children_count("knn", "engine.search_batch_rows"), n_knn), "ratio")
    wall("join.plan_s", t.layer_total("join.plan"))
    wall("join.execute_s", t.layer_total("join.execute"))
    c = traced.counts
    count("join.candidate_pairs", c.get("join.candidate_pairs", 0))
    count("join.verified_pairs", c.get("join.verified_pairs", 0))
    count("join.useful_ratio", _ratio(c.get("join.result_pairs", 0), c.get("join.verified_pairs", 0)), "ratio")
    count("join.bytes_shipped", c.get("join.bytes_shipped", 0), "bytes")
    out["cluster.sim_makespan_s"] = Metric(traced.sim_makespan_s, "sim-s", "sim")
    out["cluster.sim_load_ratio"] = Metric(traced.sim_load_ratio, "ratio", "sim")
    wall("delta.flush_s", t.layer_total("delta.flush"))
    count("delta.flushes", totals.flushes)
    wall("delta.read_stall_s", t.layer_total("delta.flush", within="search") + t.layer_total("delta.flush", within="sql"))
    flush_cells = t.tallies.get("cell.from_points@delta.flush", [0, 0.0])[0]
    count("delta.reindexed_rows_per_append", _ratio(flush_cells, c.get("append.acked", 0)), "ratio")
    wall("generations.merge_s", t.layer_total("generations.merge", skip_op="setup"))
    count("generations.merges", c.get("generations.merges", 0))
    count("generations.write_amp", _ratio(totals.merge_bytes, c.get("append.bytes", 0)), "ratio")
    wall("serving.self_s", t.layer_self("serving"))
    hits, misses = c.get("cache.hits", 0), c.get("cache.misses", 0)
    count("serving.cache_hit_ratio", _ratio(hits, hits + misses), "ratio")
    count("serving.cache_invalidations", c.get("cache.invalidations", 0))
    count("serving.shed", c.get("serving.shed", 0))
    plan_s = t.layer_total("sql.plan")
    wall("sql.plan_s", plan_s)
    wall("sql.exec_s", t.layer_total("sql.session") - t.layer_total("sql.plan", within="sql.session"))
    table = t.breakdown()
    for kind in OP_KINDS:
        wall(f"{kind}.residual_s", table.get(kind, {}).get("residual", 0.0))
    # per operation: its traced time over the mean of its untraced times;
    # the median over operations shrugs off the host's passing slowdowns
    ratios = [
        _ratio(spent, statistics.mean(p.lat[kind][label] for p in untraced))
        for kind, ops in traced.lat.items()
        for label, spent in ops.items()
    ]
    out["bench.trace_overhead_frac"] = Metric(
        statistics.median(ratios) - 1.0, "ratio", "wall",
        f"median of {len(ratios)} operations; busy time traced {traced.busy_s:.3f} s, untraced "
        + ", ".join(f"{p.busy_s:.3f}" for p in untraced),
    )
    return out
