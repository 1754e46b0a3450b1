"""Outside-in span tracing for the traced benchmark pass.

The benchmark never edits the program to time it.  Instead it patches
the public callables of each layer where their callers look them up
(class attributes, or the module attribute the benchmark itself calls)
with a wrapper that reads the host clock on entry and exit.  Coarse
calls become spans — ``[name, start, end, parent index, op id]`` kept in
memory until the pass ends; hot, tiny calls only bump a count and a
total.  Every patch is undone by :meth:`SpanTracer.restore`.

Spans recorded while no operation is open (the answer checks, say) are
kept out of every figure.  A span's *self time* is its duration minus the durations of its direct
children.  Spans nest strictly (one thread, every wrapper closes in a
``finally``), so for every top-level operation the self times of the
spans under it plus the operation's own self time (its *residual*) add
up to the operation's wall time exactly.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: span record fields, by index
NAME, START, END, PARENT, OP = range(5)


class SpanTracer:
    """Span recorder plus the patch bookkeeping that feeds it."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.spans: List[list] = []
        self.op_kinds: List[str] = []
        #: hot-call tallies: name -> [calls, total seconds]
        self.tallies: Dict[str, List[float]] = {}
        self._stack: List[int] = []
        self._open: Dict[str, int] = {}
        self._op = -1
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #

    def _enter(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, self.clock(), 0.0, parent, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        self._open[name] = self._open.get(name, 0) + 1
        return rec

    def _exit(self, rec: list) -> None:
        rec[END] = self.clock()
        self._stack.pop()
        self._open[rec[NAME]] -= 1

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open right now."""
        return self._open.get(name, 0) > 0

    @contextmanager
    def op(self, kind: str) -> Iterator[None]:
        """One top-level operation: a root span every layer span under it
        is charged to."""
        if self._stack:
            raise RuntimeError(f"operation {kind!r} opened inside another span")
        self._op = len(self.op_kinds)
        self.op_kinds.append(kind)
        rec = self._enter(kind)
        try:
            yield
        finally:
            self._exit(rec)
            self._op = -1

    # ------------------------------------------------------------------ #
    # patching
    # ------------------------------------------------------------------ #

    def current_op(self) -> str:
        """The kind of the operation open right now ("" between ops)."""
        return self.op_kinds[self._op] if self._op >= 0 else ""

    def patch_with(self, owner: Any, attr: str, wrap: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` with ``wrap(original)``.  A classmethod
        is unwrapped first and re-wrapped after, so ``wrap`` always sees
        the plain function."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(wrap(raw.__func__))
        else:
            replacement = wrap(raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def patch_span(
        self,
        owner: Any,
        attr: str,
        name: str,
        observe: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Record one span per call of ``owner.attr``; ``observe`` sees
        each call's return value after the span has closed."""
        tracer = self

        def wrap(original: Callable[..., Any]) -> Callable[..., Any]:
            def traced(*args: Any, **kwargs: Any) -> Any:
                rec = tracer._enter(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._exit(rec)
                if observe is not None:
                    observe(result)
                return result

            return traced

        self.patch_with(owner, attr, wrap)

    def patch_tally(self, owner: Any, attr: str, name: str, within: str = "") -> None:
        """Count calls of ``owner.attr`` and total their time, without a
        span; calls made while a ``within`` span is open are also tallied
        under ``name@within``."""
        tracer = self
        clock = self.clock

        def wrap(original: Callable[..., Any]) -> Callable[..., Any]:
            def tallied(*args: Any, **kwargs: Any) -> Any:
                start = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    spent = clock() - start
                    tracer._tally(name, spent)
                    if within and tracer.inside(within):
                        tracer._tally(f"{name}@{within}", spent)

            return tallied

        self.patch_with(owner, attr, wrap)

    def _tally(self, name: str, spent: float) -> None:
        t = self.tallies.setdefault(name, [0, 0.0])
        t[0] += 1
        t[1] += spent

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # analysis
    # ------------------------------------------------------------------ #

    def self_times(self) -> List[float]:
        """Each span's duration minus its direct children's durations."""
        out = [rec[END] - rec[START] for rec in self.spans]
        for rec in self.spans:
            if rec[PARENT] >= 0:
                out[rec[PARENT]] -= rec[END] - rec[START]
        return out

    def breakdown(self) -> Dict[str, Dict[str, float]]:
        """``{op kind: {layer name: self seconds}}``; the op kind's own
        self time is filed under ``"residual"`` and ``"total"`` holds the
        op's wall time, so the layer entries plus the residual equal the
        total."""
        selfs = self.self_times()
        table: Dict[str, Dict[str, float]] = {}
        for i, rec in enumerate(self.spans):
            if rec[OP] < 0:
                continue
            kind = self.op_kinds[rec[OP]]
            row = table.setdefault(kind, {"total": 0.0, "residual": 0.0})
            if rec[PARENT] < 0:
                row["total"] += rec[END] - rec[START]
                row["residual"] += selfs[i]
            else:
                row[rec[NAME]] = row.get(rec[NAME], 0.0) + selfs[i]
        return table

    def layer_self(self, name: str) -> float:
        """Total self time of every span called ``name``."""
        selfs = self.self_times()
        return sum(
            s for rec, s in zip(self.spans, selfs) if rec[NAME] == name and rec[OP] >= 0
        )

    def layer_total(self, name: str, within: str = "", skip_op: str = "") -> float:
        """Total duration of the outermost spans called ``name`` (nested
        re-entries are not double counted); with ``within``, only spans
        that run under an open ``within`` span; with ``skip_op``, none
        under an operation of that kind."""
        total = 0.0
        for rec in self.spans:
            if rec[NAME] != name or rec[OP] < 0 or self._has_ancestor(rec, name):
                continue
            if skip_op and self.op_kinds[rec[OP]] == skip_op:
                continue
            if within and not self._has_ancestor(rec, within):
                continue
            total += rec[END] - rec[START]
        return total

    def count(self, name: str) -> int:
        return sum(1 for rec in self.spans if rec[NAME] == name and rec[OP] >= 0)

    def _has_ancestor(self, rec: list, name: str) -> bool:
        parent = rec[PARENT]
        while parent >= 0:
            up = self.spans[parent]
            if up[NAME] == name:
                return True
            parent = up[PARENT]
        return False

    def children_count(self, parent_name: str, child_name: str) -> int:
        """Spans called ``child_name`` with an ancestor ``parent_name``."""
        return sum(
            1
            for rec in self.spans
            if rec[NAME] == child_name
            and rec[OP] >= 0
            and self._has_ancestor(rec, parent_name)
        )
