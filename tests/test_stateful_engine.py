"""Hypothesis stateful test: the live engine tracks a model under a random
sequence of streamed appends, extends, removes, flushes and searches."""

import numpy as np
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule
from hypothesis import strategies as st

from repro import DITAConfig, DITAEngine
from repro.datagen import citywide_dataset
from repro.distances import get_distance
from repro.trajectory import Trajectory

coords = st.floats(0, 0.2, allow_nan=False, allow_infinity=False)
point_lists = st.lists(st.tuples(coords, coords), min_size=1, max_size=6)


class EngineMachine(RuleBasedStateMachine):
    """Model-based test: a dict of trajectories mirrors the engine."""

    @initialize()
    def setup(self):
        base = list(citywide_dataset(12, seed=99))
        cfg = DITAConfig(
            num_global_partitions=2,
            trie_fanout=2,
            num_pivots=2,
            trie_leaf_capacity=2,
            cell_size=0.01,
            delta_max_rows=3,
        )
        self.engine = DITAEngine(base, cfg)
        self.model = {t.traj_id: t for t in base}
        self.next_id = 1_000_000
        self.distance = get_distance("dtw")

    @rule(points=point_lists)
    def append(self, points):
        t = Trajectory(self.next_id, np.asarray(points))
        self.next_id += 1
        self.engine.append_trajectory(t.traj_id, t.points)
        self.model[t.traj_id] = t

    @rule(pick=st.integers(0, 10_000), points=point_lists)
    def extend(self, pick, points):
        tid = sorted(self.model)[pick % len(self.model)]
        self.engine.extend_trajectory(tid, np.asarray(points))
        full = np.concatenate([self.model[tid].points, np.asarray(points)], axis=0)
        self.model[tid] = Trajectory(tid, full)

    @precondition(lambda self: len(self.model) > 3)
    @rule(pick=st.integers(0, 10_000))
    def remove(self, pick):
        tid = sorted(self.model)[pick % len(self.model)]
        assert self.engine.remove_trajectory(tid)
        del self.model[tid]

    @rule()
    def flush(self):
        self.engine.flush_deltas()
        assert self.engine.n_pending == 0

    @rule(pick=st.integers(0, 10_000), tau=st.floats(0.0, 0.05))
    def search_matches_model(self, pick, tau):
        tid = sorted(self.model)[pick % len(self.model)]
        q = self.model[tid]
        got = self.engine.search_ids(q, tau)
        want = sorted(
            t for t, traj in self.model.items()
            if self.distance.compute(traj.points, q.points) <= tau
        )
        assert got == want

    @invariant()
    def sizes_agree(self):
        if hasattr(self, "engine"):
            assert len(self.engine) == len(self.model)


EngineMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=12, deadline=None
)
TestEngineStateful = EngineMachine.TestCase
