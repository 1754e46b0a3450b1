"""Wall-clock benchmark of the DITA reproduction, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload query-citywide --seed 1 --seconds 10 --trace 0

Workloads: ``query-citywide``, ``join-citywide``, ``serve-stream`` (see
``perfbench/workloads.py`` for what each one runs and why).  The inputs
are generated from ``--seed`` and written under ``.perfbench_work/``
before anything is timed; the program under test is imported from
``src/`` next to this directory, with its default configuration (the
simulated backend, one process).

Every time below is *normalized* for the host's speed: each operation
is timed on the host clock between runs of a fixed probe kernel (and,
when it runs for longer than a tenth of a second, with probes while it
runs), and reported as the time it would have taken on a host whose
probe takes ``REF_S`` (see ``perfbench/hostspeed.py``).  On a 2-vCPU
VM of a shared host (2.1 GHz Xeon-class), whose speed swings by a third
or more for seconds at a time, a minute of back-to-back passes over the
same 200 searches gave pass medians that spread by 0.31 of their median
on the host clock and by 0.03 normalized.  The host's own wall times are
printed beside the normalized ones.

``--trace 0`` runs a workload's set-ups (four, or six where a set-up is
short or writes to disk).  The first warms the process up and is not
timed; ``setup_s`` is the median of the others.  Three of the set-ups,
the warm-up first, are each followed by one round over the workload's
plan on that fresh engine with tracing off; every round checks answers.
Each operation's latency is its best over the rounds.  It reports the
gated end-to-end metrics, which every workload measures: ``setup_s``,
``search_p50_ms``, ``sql_p50_ms``, ``ops_per_s`` (the best round's
answers per normalized second of busy time over the workload's paced
operation kinds) and ``peak_rss_mb``.  ``search_tail_ms`` (the highest
percentile with ten searches beyond it), workload-specific figures and
``failed_frac`` are printed above the result line but not gated.

``--trace 1`` runs the plan four times on the same seed: an untraced
warm-up round that also checks the answers, then an untraced, a traced
and another untraced round that do not (the checks disturb the host's
caches and heap, so the compared rounds go without them).  It asserts
that the four produced identical exact counts, prints the per-layer
table (self times plus residual equal each operation's wall time) and
reports the per-layer metrics, which are plain host wall times.
``bench.trace_overhead_frac`` is the median over operations of each
one's normalized traced time over the mean of its normalized times in
the untraced rounds either side of the traced one.

Every run checks a seeded sample of answers against brute-force scans;
a wrong or missing answer, an error or a shed request counts as failed.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: the default-config policy knobs recorded with every result
KNOBS = (
    "backend", "num_global_partitions", "delta_max_rows", "merge_trigger",
    "repartition_skew_ratio", "max_inflight", "tenant_rate", "tenant_burst",
    "serving_queue_depth", "result_cache_bytes",
)


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> None:
    """Put this checkout's ``src/`` first on the path; refuse to run
    against anything else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {SRC}/repro")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {SRC}")


def fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    import_program()
    import numpy as np

    from perfbench import workloads as wl
    from perfbench.tracing import SpanTracer
    from repro.cluster.clock import wall_clock

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        w = wl.WORKLOADS[args.workload](args.seed, args.seconds, workdir)
        w.generate()
        print(f"# workload {w.name}: {w.why}")
        print(
            f"# seed {args.seed}  seconds {args.seconds}  nproc {len(os.sched_getaffinity(0))}  "
            f"python {platform.python_version()}  numpy {np.__version__}"
        )
        print("# knobs " + "  ".join(f"{k}={getattr(w.config, k)!r}" for k in KNOBS))
        print("# load: one closed-loop client, one request or call at a time")
        if args.trace:
            return traced_run(w, wl, SpanTracer, wall_clock)
        return plain_run(w, wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        parent = workdir.parent
        if parent.is_dir() and not any(parent.iterdir()):
            parent.rmdir()


def plain_run(w, wl) -> int:
    """``w.setups`` set-ups, some followed by one round over the plan on
    that fresh engine, so set-ups and rounds are spread across the whole
    run."""
    setups: List[float] = []
    walls: List[float] = []
    rounds = []
    for r in range(w.setups):
        ready, wall, spent = wl.SPEED.measure(w.setup, f"r{r}", reps=wl.LONG_REPS)
        if r:
            setups.append(spent)
            walls.append(wall)
        if r in w.round_after:
            p = wl.Pass()
            w.run_round(ready, p)
            w.finish_round(ready, p)
            rounds.append(p)
        w.release(ready)
        ready = None
        gc.collect()
    ok = self_check([r.counts for r in rounds], f"{len(rounds)} rounds")
    folded = wl.fold(rounds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = end_to_end(wl, folded, rounds, setups, walls, rss_mb, w.paced_kinds)
    probes = wl.SPEED.taken
    report(
        metrics,
        f"end-to-end (tracing off; per operation the best of {len(rounds)} rounds; times "
        f"normalized to a probe of {fmt(1e3 * wl.REF_S)} ms, which took {fmt(1e3 * min(probes))}"
        f"..{fmt(1e3 * max(probes))} ms, median {fmt(1e3 * statistics.median(probes))} ms, over "
        f"{len(probes)} probes in this run)",
    )
    ungated = {"search_tail_ms": wl.tail_metric(folded, "search")}
    ungated.update(w.extras(folded))
    report(ungated, "printed, not gated")
    print_counts(folded)
    return finish(folded, metrics, ok)


def self_check(counts: List[Dict[str, int]], what: str) -> bool:
    """The exact counts must repeat exactly across passes over one seed."""
    first = counts[0]
    diff = sorted({k for c in counts[1:] for k in set(c) | set(first) if c.get(k) != first.get(k)})
    if diff:
        print(f"# SELF-CHECK FAILED: exact counts differ between {what}: {diff}")
        return False
    print(f"# self-check: {len(first)} exact counts identical across {what}")
    return True


def end_to_end(
    wl, p, rounds, setups: List[float], walls: List[float], rss_mb: float, paced
) -> Dict[str, "wl.Metric"]:
    m: Dict[str, wl.Metric] = {}
    m["setup_s"] = wl.Metric(
        statistics.median(setups), "s", "wall",
        f"median of {len(setups)}: " + ", ".join(fmt(s) for s in setups)
        + "; host wall " + ", ".join(fmt(s) for s in walls),
    )
    m["search_p50_ms"] = wl.p50_metric(p, "search")
    m["sql_p50_ms"] = wl.p50_metric(p, "sql")
    rates = [r.throughput(paced) for r in rounds]
    ops, busy = max(rates, key=lambda ab: ab[0] / ab[1])
    m["ops_per_s"] = wl.Metric(
        ops / busy, "1/s", "wall",
        f"best of {len(rates)} rounds: {ops} answers in {busy:.3f} s; rounds "
        + ", ".join(fmt(a / b) for a, b in rates),
    )
    m["peak_rss_mb"] = wl.Metric(rss_mb, "MB", "count", "fresh process, whole run")
    return m


def traced_run(w, wl, SpanTracer, clock) -> int:
    """An untraced warm-up round, an untraced round, the same plan
    traced, and one more untraced round; each on a fresh engine from the
    same inputs."""

    def untraced(tag: str) -> "wl.Pass":
        ready = w.setup(tag)
        p = wl.Pass(checking=tag == "warm-up")
        w.run_round(ready, p)
        w.finish_round(ready, p)
        w.release(ready)
        ready = None
        gc.collect()
        return p

    warmup = untraced("warm-up")
    before = untraced("before")
    tracer = SpanTracer(clock)
    totals = wl.install_tracing(tracer)
    try:
        with tracer.op("setup"):
            ready = w.setup("traced")
        traced = wl.Pass(tracer=tracer, checking=False)
        w.run_round(ready, traced)
    finally:
        tracer.restore()
    w.finish_round(ready, traced)
    w.release(ready)
    ready = None
    gc.collect()
    after = untraced("after")
    every = (warmup, before, traced, after)
    ok = self_check([p.counts for p in every], "the three untraced rounds and the traced one")
    print_table(tracer)
    metrics = wl.layer_metrics(tracer, totals, traced, (before, after))
    report(metrics, "per layer (traced pass)")
    report(w.extras(traced), "workload-specific, traced pass, not gated")
    print_counts(traced)
    total = wl.Pass(attempted=sum(p.attempted for p in every), failures=[f for p in every for f in p.failures])
    return finish(total, metrics, ok)


def print_table(tracer) -> None:
    """One column per operation kind: layer self times, the residual and
    the operation total, in milliseconds; the sum row must equal total."""
    table = tracer.breakdown()
    kinds = list(table)
    layers = sorted({name for row in table.values() for name in row} - {"total", "residual"})
    width = max([len(n) for n in layers] + [24])
    print("# per-layer self time (ms, wall) by operation")
    print("# " + "layer".ljust(width) + "".join(k.rjust(12) for k in kinds))
    for name in layers:
        cells = "".join(fmt(1e3 * table[k].get(name, 0.0)).rjust(12) for k in kinds)
        print("# " + name.ljust(width) + cells)
    for name in ("residual", "total"):
        print("# " + name.ljust(width) + "".join(fmt(1e3 * table[k][name]).rjust(12) for k in kinds))
    sums = [sum(v for n, v in table[k].items() if n != "total") for k in kinds]
    print("# " + "layers+residual".ljust(width) + "".join(fmt(1e3 * s).rjust(12) for s in sums))
    for name, (calls, spent) in sorted(tracer.tallies.items()):
        print(f"# hot call {name}: {calls} calls, {fmt(1e3 * spent)} ms (inside its callers' self time)")


def report(metrics, title: str) -> None:
    print(f"# {title}")
    for name, m in metrics.items():
        note = f"  ({m.note})" if m.note else ""
        print(f"#   {name:<36} {fmt(m.value):>14} {m.unit:<6} [{m.clock}]{note}")


def print_counts(p) -> None:
    print("# exact counts " + json.dumps(p.counts, sort_keys=True))


def finish(p, metrics, ok: bool) -> int:
    """Print ``failed_frac`` and every failure, then the result line."""
    failed_frac = len(p.failures) / p.attempted if p.attempted else 0.0
    print(f"#   {'failed_frac':<36} {fmt(failed_frac):>14} {'ratio':<6} [count]  ({len(p.failures)} of {p.attempted})")
    for what in p.failures:
        print(f"# FAILED: {what}")
    result = {
        "correct": bool(ok and not p.failures),
        "attempted": int(p.attempted),
        "failed": len(p.failures),
        "metrics": {name: {"value": m.value, "unit": m.unit} for name, m in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
