"""Brute-force answers the benchmark checks the program against.

Nothing here touches the program's index, filters or distance kernels.
Each scan runs over the same logical rows the engine should hold: a
vectorized endpoint lower bound over every row (DTW aligns first with
first and last with last, so ``|f_t - f_q| + |l_t - l_q|`` never exceeds
the distance when either side has two or more points), then a plain
dynamic-programming DTW on the rows the bound cannot rule out.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: relative slack for float comparisons between two DTW implementations
#: that sum the same terms in different orders
REL_TOL = 1e-9


def dtw(a: np.ndarray, b: np.ndarray) -> float:
    """Dynamic-time-warping distance with Euclidean point cost."""
    cost = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)).tolist()
    m = len(cost[0])
    inf = math.inf
    prev = [inf] * m
    for i, row in enumerate(cost):
        cur = [0.0] * m
        left = inf
        for j in range(m):
            if i == 0 and j == 0:
                best = 0.0
            else:
                best = min(prev[j], left, prev[j - 1] if j else inf)
            left = row[j] + best
            cur[j] = left
        prev = cur
    return prev[-1]


class RowModel:
    """The benchmark's own copy of the live rows: ids, points and the
    endpoint arrays the lower bound scans."""

    def __init__(self, ids: Sequence[int], points: Sequence[np.ndarray]) -> None:
        self._points: Dict[int, np.ndarray] = {}
        self._slot: Dict[int, int] = {}
        self._ids: List[int] = []
        self._firsts: List[np.ndarray] = []
        self._lasts: List[np.ndarray] = []
        self._alive: List[bool] = []
        self._cache: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = None
        for tid, pts in zip(ids, points):
            self.add(int(tid), pts)

    def __len__(self) -> int:
        return len(self._points)

    def __contains__(self, tid: int) -> bool:
        return tid in self._points

    def live_ids(self) -> List[int]:
        return sorted(self._points)

    def points(self, tid: int) -> np.ndarray:
        return self._points[tid]

    def add(self, tid: int, pts: np.ndarray) -> None:
        if tid in self._points:
            raise ValueError(f"row {tid} already in the model")
        pts = np.asarray(pts, dtype=np.float64)
        self._points[tid] = pts
        self._slot[tid] = len(self._ids)
        self._ids.append(tid)
        self._firsts.append(pts[0])
        self._lasts.append(pts[-1])
        self._alive.append(True)
        self._cache = None

    def remove(self, tid: int) -> None:
        del self._points[tid]
        self._alive[self._slot.pop(tid)] = False
        self._cache = None

    def coord_bytes(self) -> int:
        return sum(int(p.nbytes) for p in self._points.values())

    def _arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        if self._cache is None:
            self._cache = (
                np.asarray(self._ids, dtype=np.int64),
                np.asarray(self._firsts),
                np.asarray(self._lasts),
                np.asarray(self._alive, dtype=bool),
            )
        return self._cache

    def endpoint_bounds(self, q: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(ids, lower bounds)`` over every live row."""
        ids, firsts, lasts, alive = self._arrays()
        lb = np.sqrt(((firsts - q[0]) ** 2).sum(axis=1)) + np.sqrt(
            ((lasts - q[-1]) ** 2).sum(axis=1)
        )
        return ids[alive], lb[alive]

    def within(self, q: np.ndarray, tau: float) -> Dict[int, float]:
        """``{id: distance}`` of every live row within ``tau`` of ``q``."""
        ids, lb = self.endpoint_bounds(q)
        hits: Dict[int, float] = {}
        for tid in ids[lb <= tau * (1 + REL_TOL)].tolist():
            d = dtw(self._points[tid], q)
            if d <= tau * (1 + REL_TOL):
                hits[tid] = d
        return hits

    def nearest(self, q: np.ndarray, k: int) -> List[Tuple[float, int]]:
        """The ``k`` nearest live rows as ``(distance, id)``, ascending."""
        ids, lb = self.endpoint_bounds(q)
        order = np.argsort(lb, kind="stable")
        best: List[Tuple[float, int]] = []
        for i in order.tolist():
            if len(best) >= k and lb[i] > best[-1][0] * (1 + REL_TOL):
                break
            tid = int(ids[i])
            best.append((dtw(self._points[tid], q), tid))
            best.sort()
            del best[k:]
        return best


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def same_threshold_answer(
    got: Dict[int, float], want: Dict[int, float], tau: float
) -> bool:
    """Whether an engine answer matches the brute-force one.  A row whose
    true distance lies within float slack of ``tau`` may fall either way."""
    edge = tau * REL_TOL
    for tid, d in want.items():
        if tid not in got:
            if d < tau - edge:
                return False
        elif not close(got[tid], d):
            return False
    for tid in got:
        if tid not in want:
            return False
    return True


def same_nearest(got: List[Tuple[int, float]], want: List[Tuple[float, int]]) -> bool:
    """kNN answers agree when the distances match pairwise and every id
    whose distance is not tied at the k-th place matches too."""
    if len(got) != len(want):
        return False
    if not all(close(g[1], w[0]) for g, w in zip(got, want)):
        return False
    if not want:
        return True
    kth = want[-1][0]
    strict_got = {tid for tid, d in got if not close(d, kth)}
    strict_want = {tid for d, tid in want if not close(d, kth)}
    return strict_got == strict_want
