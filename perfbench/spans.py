"""Layer spans recorded from outside the program, for the traced run.

The traced run rebinds each layer's entry point where its caller looks
it up, so a span opens and closes around every call without touching
the package's source.  The binding site matters: ``runner`` imports
``assess_scheme`` by name and ``shard`` imports ``merge_trace_files``
and ``make_policy`` by name, so rebinding them in their defining modules
would time nothing.  Spans stay in memory and are written when the run
ends.
"""

from __future__ import annotations

import contextlib
import json
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

import cells
import repro.experiments.parallel as parallel
import repro.experiments.runner as runner
import repro.experiments.shard as shard
from repro.disk.array import DiskArray
from repro.press.model import PRESSModel
from repro.sim.engine import Simulator
from repro.workload.stream import SyntheticStream


class Tracer:
    """Nested wall-clock spans plus the rebinding that records them."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index]``; parent -1 is a root.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index][2] = perf_counter()

    # ------------------------------------------------------------------
    # rebinding
    # ------------------------------------------------------------------
    def _rebind(self, owner: object, attr: str, replacement: object) -> None:
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else None
        setattr(owner, attr, replacement)
        if had_own:
            self._undo.append(lambda: setattr(owner, attr, original))
        else:
            self._undo.append(lambda: delattr(owner, attr))

    def wrap_call(self, owner: object, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``."""
        original = getattr(owner, attr)
        tracer = self

        def timed(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)

        self._rebind(owner, attr, timed)

    def wrap_iter(self, owner: type, attr: str, name: str) -> None:
        """Time each step of the iterator ``owner.attr`` returns."""
        original = getattr(owner, attr)
        tracer = self

        def timed(*args, **kwargs):
            it = original(*args, **kwargs)
            while True:
                with tracer.span(name):
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                yield item

        self._rebind(owner, attr, timed)

    def wrap_policy_factory(self, owner: object, attr: str, name: str) -> None:
        """Time ``initial_layout`` of every policy ``owner.attr`` builds."""
        original = getattr(owner, attr)
        tracer = self

        def make(*args, **kwargs):
            policy = original(*args, **kwargs)
            layout = policy.initial_layout

            def timed_layout(*a, **k):
                with tracer.span(name):
                    return layout(*a, **k)

            policy.initial_layout = timed_layout
            return policy

        self._rebind(owner, attr, make)

    def install(self) -> None:
        """Rebind every layer entry point the benchmark attributes time to."""
        self.wrap_call(Simulator, "run_until_drained", "sim.drain")
        self.wrap_call(DiskArray, "finalize", "disk.finalize")
        self.wrap_call(PRESSModel, "evaluate_array", "press.evaluate")
        self.wrap_call(PRESSModel, "factors_of", "press.evaluate")
        self.wrap_call(PRESSModel, "disk_afr_batch", "press.evaluate")
        self.wrap_call(runner, "assess_scheme", "redundancy.ctmc")
        self.wrap_call(parallel, "run_cell", "shard.cell")
        self.wrap_call(shard, "merge_shard_results", "shard.merge")
        self.wrap_call(shard, "merge_trace_files", "obs.trace_merge")
        self.wrap_iter(SyntheticStream, "chunks", "workload.stream")
        self.wrap_policy_factory(cells, "make_policy", "policies.layout")
        self.wrap_policy_factory(shard, "make_policy", "policies.layout")

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def subtree(self, root: int) -> list[int]:
        """Indices of ``root`` and every span nested under it."""
        inside = {root}
        for i in range(root + 1, len(self.spans)):
            if self.spans[i][3] in inside:
                inside.add(i)
        return sorted(inside)

    def totals(self, root: int) -> dict[str, float]:
        """Summed duration per span name under ``root`` (root excluded).

        A span nested in one of the same name (``evaluate_array`` calls
        ``disk_afr_batch``) is already inside its ancestor's duration
        and is not counted again.
        """
        out: dict[str, float] = {}
        for i in self.subtree(root)[1:]:
            name, start, end, parent = self.spans[i]
            if not self._inside(parent, name):
                out[name] = out.get(name, 0.0) + (end - start)
        return out

    def _inside(self, index: int, name: str) -> bool:
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False

    def durations(self, root: int, name: str) -> list[float]:
        """Duration of each span called ``name`` under ``root``."""
        spans = [self.spans[i] for i in self.subtree(root)]
        return [end - start for span_name, start, end, _ in spans if span_name == name]

    def self_time(self, index: int) -> float:
        """A span's duration minus the time its direct children cover."""
        _, start, end, _ = self.spans[index]
        children = sum(s[2] - s[1] for s in self.spans[index + 1:]
                       if s[3] == index)
        return (end - start) - children

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (times relative to the first)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with path.open("w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                     "start_s": start - t0, "end_s": end - t0}))
                fh.write("\n")
