"""In-memory span recorder that times calls into the library from outside.

`Tracer.wrap` replaces a name in a module (or a method on a class) with a
timing wrapper, so it catches exactly the calls that look the name up there,
such as ``generate_group`` inside ``cubegroups.sweep``.  Spans are kept in
flat arrays (name id, parent id, start, end in ns) and written out after the
measured pass.  Hot methods that would drown the pass in spans get a bare
counter instead (`Tracer.count`).  `Tracer.restore` undoes every patch.
"""

from __future__ import annotations

from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patches = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self.open(self._name_id(name))
        try:
            yield
        finally:
            self.close(i)

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Record a span named `name` around every call of ``owner.attr``.

        `on_result(counts, result)` may add exact counters from the result.
        """
        fn = getattr(owner, attr)
        nid = self._name_id(name)
        counts, key = self.counts, name + ".calls"
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            i = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
            counts[key] += 1
            if on_result is not None:
                on_result(counts, result)
            return result

        self._patch(owner, attr, traced)

    def wrap_generator(self, owner, attr: str, name: str) -> None:
        """Record one span per item a generator function produces."""
        fn = getattr(owner, attr)
        nid = self._name_id(name)
        counts, key = self.counts, name + ".calls"
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                i = open_(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    close(i)
                counts[key] += 1
                yield item

        self._patch(owner, attr, traced)

    def count(self, owner, attrs, key: str) -> None:
        """Count calls of one or more aliases of a method, without spans."""
        counts = self.counts
        fn = getattr(owner, attrs[0])

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        for attr in attrs:
            self._patch(owner, attr, counted)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def check_nesting(self) -> list[str]:
        """Problems with the span tree: each span must lie inside its parent
        and siblings must not overlap.  Empty when the tree is sound."""
        problems = []
        last_child_end = {}
        for i in range(len(self.start)):
            p = self.parent[i]
            if self.end[i] < self.start[i]:
                problems.append(f"span {i} ends before it starts")
            if p < 0:
                continue
            if self.start[i] < self.start[p] or self.end[i] > self.end[p]:
                problems.append(f"span {i} lies outside its parent {p}")
            if self.start[i] < last_child_end.get(p, self.start[p]):
                problems.append(f"span {i} overlaps an earlier sibling")
            last_child_end[p] = self.end[i]
        return problems

    def self_ns(self) -> list[int]:
        """Each span's duration minus the durations of its children."""
        out = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def write(self, path) -> None:
        """Spans as tab-separated rows: id, parent, name, start_ns, end_ns."""
        t0 = self.start[0] if self.start else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                         f"{self.start[i] - t0}\t{self.end[i] - t0}\n")

