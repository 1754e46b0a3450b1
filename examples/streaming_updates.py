"""Live index maintenance: streaming appends, expiry, checkpoint/restore.

A dispatch service keeps a rolling window of recent trips in the DITA
index: new trips are appended as they complete, trips older than the
window are removed, and the index is checkpointed to a generational
store on disk.  Search results stay exact throughout (asserted against
brute force).

Run with::

    python examples/streaming_updates.py
"""

import tempfile
from pathlib import Path

from repro import DITAConfig, DITAEngine
from repro.datagen import citywide_dataset
from repro.distances import get_distance


def main() -> None:
    history = list(citywide_dataset(400, seed=70, duplication=4))
    warmup, stream = history[:200], history[200:]
    config = DITAConfig(num_global_partitions=3, trie_fanout=6, num_pivots=4)
    engine = DITAEngine(warmup, config)
    window = {t.traj_id: t for t in warmup}
    d = get_distance("dtw")
    tau = 0.003

    print(f"warm index: {len(engine)} trips")
    evicted = appended = 0
    for step, trip in enumerate(stream):
        engine.append_trajectory(trip.traj_id, trip.points)
        window[trip.traj_id] = trip
        appended += 1
        # rolling window of 220 trips: expire the oldest beyond it
        if len(window) > 220:
            oldest = min(window)
            engine.remove_trajectory(oldest)
            del window[oldest]
            evicted += 1
        if step % 50 == 49:
            # spot-check exactness against a brute-force scan of the window
            probe = trip
            got = engine.search_ids(probe, tau)
            want = sorted(
                t.traj_id for t in window.values()
                if d.compute(t.points, probe.points) <= tau
            )
            assert got == want, "live index diverged from truth"
            print(
                f"  step {step + 1:>3}: {len(engine)} trips indexed, "
                f"{appended} appended, {evicted} expired — "
                f"probe found {len(got)} matches (verified exact)"
            )

    # checkpoint (merge into a generational store) and restore; the
    # config and distance are handed back in, tries rebuild from blocks
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "fleet_index"
        engine.attach_generations(root)
        engine.merge()
        size_kb = sum(f.stat().st_size for f in root.rglob("*") if f.is_file()) / 1024
        restored = DITAEngine.from_generations(root, config=config, distance="dtw")
        probe = stream[-1]
        want = sorted(
            t.traj_id for t in window.values() if d.compute(t.points, probe.points) <= tau
        )
        assert restored.search_ids(probe, tau) == engine.search_ids(probe, tau) == want
        print(
            f"\ncheckpoint: {size_kb:.1f} KB on disk; restored engine answers "
            f"identically ({len(restored)} trips)"
        )


if __name__ == "__main__":
    main()
