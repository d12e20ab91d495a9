"""In-memory spans around calls into the package's layers.

``Patches`` swaps a module or class attribute for a wrapper and puts the
original back on ``restore``. Wrappers are installed at the names the
package calls through (``bergeham.process.decide_hamiltonian``, not
``bergeham.engine.decide_hamiltonian``), so they see exactly the calls
the timed operation makes.

A span is ``(id, name, start_ns, end_ns, parent_id, op_id)``. A layer's
self time is its span's duration minus the durations of its direct
children.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Patches:
    def __init__(self):
        self._saved = []

    def set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self.op_id = 0
        self._stack: list = []
        self._next_id = 1

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recording one span per call; ``on_result(counts, result)``
        adds the call's counts."""
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else 0
            self._stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.spans.append((span_id, name, start, end, parent, self.op_id))
            if on_result is not None:
                on_result(self.counts, result)
            return result

        return traced

    def self_times_ns(self) -> dict:
        """Total self time per span name."""
        child_ns: dict = defaultdict(int)
        for _, _, start, end, parent, _ in self.spans:
            if parent:
                child_ns[parent] += end - start
        totals: dict = defaultdict(int)
        for span_id, name, start, end, _, _ in self.spans:
            totals[name] += end - start - child_ns.get(span_id, 0)
        return totals

    def total_ns(self, name: str) -> int:
        return sum(end - start for _, n, start, end, _, _ in self.spans if n == name)

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[1] == name)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tname\tstart_ns\tend_ns\tparent\top\n")
            for span in self.spans:
                out.write("\t".join(map(str, span)) + "\n")
