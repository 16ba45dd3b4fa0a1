"""Spans recorded from outside the program, around calls into each layer.

The benchmark wraps public functions of the repro layers (class methods
and module-level names) with a recorder while a traced pass runs, and
puts them back afterwards.  Every wrapped call becomes one span:
``[name, parent index, unit id, start, end]``.  Spans stay in memory
and are written out when the run ends.

A span's self time is its duration minus the time its child spans
cover and minus the wrapper's own cost of each child call
(:func:`wrapper_call_cost`), which would otherwise be charged to the
caller.  The self times of all spans under one root plus that wrapper
cost add up to exactly the root's duration.
"""

import gzip
import json
import time
from collections import defaultdict
from statistics import median


def _empty(_receiver):
    pass


def wrapper_call_cost(calls=50_000, rounds=5):
    """Seconds a wrapped call adds to its caller outside the span's own
    clock reads, measured on an empty one-argument function, as a method
    call has its receiver (median of ``rounds``).

    Slightly low: the bare loop it subtracts also pays the empty call,
    which the span covers."""
    tracer = Tracer()
    traced = tracer.wrap("calibrate", _empty)
    clock = time.perf_counter
    costs = []
    for _ in range(rounds):
        tracer.spans.clear()
        start = clock()
        for _ in range(calls):
            traced(None)
        wrapped = clock() - start
        inside = sum(end - begin for *_, begin, end in tracer.spans)
        start = clock()
        for _ in range(calls):
            _empty(None)
        bare = clock() - start
        costs.append((wrapped - inside - bare) / calls)
    return max(0.0, median(costs))


class Tracer:
    """In-memory span recorder plus the wrapped-function bookkeeping."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []
        #: Id shared by every span of the current verdict unit.
        self.unit = None

    # -- spans ---------------------------------------------------------

    def open(self, name):
        stack = self._stack
        span = [name, stack[-1] if stack else -1, self.unit,
                time.perf_counter(), 0.0]
        self.spans.append(span)
        stack.append(len(self.spans) - 1)
        return span

    def close(self, span):
        span[4] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, after=None):
        """``fn`` with a span around each call; ``after(args, result)``
        sees every call that returned."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        # open/close inlined: this runs once per wrapped call, some
        # 100000 times in a traced explore_3r pass.
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self.unit, clock(), 0.0]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------

    def patch(self, owner, attr, name, after=None):
        """Replace ``owner.attr`` (a class or module) by a traced wrapper."""
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else None
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), after))
        self._patched.append((owner, attr, own, original))

    def restore(self):
        """Put back every patched function, newest first."""
        while self._patched:
            owner, attr, own, original = self._patched.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- analysis ------------------------------------------------------

    def self_times(self, call_cost=0.0):
        """Per span name: (calls, summed self seconds), each child call
        taking ``call_cost`` seconds of wrapper time off its parent."""
        covered = [0.0] * len(self.spans)
        for _name, parent, _unit, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start + call_cost
        totals = defaultdict(lambda: [0, 0.0])
        for index, (name, _parent, _unit, start, end) in enumerate(
                self.spans):
            entry = totals[name]
            entry[0] += 1
            entry[1] += (end - start) - covered[index]
        return {name: tuple(value) for name, value in totals.items()}

    def root_wall(self):
        """Summed duration of the root spans (one per verdict unit)."""
        return sum(end - start for _name, parent, _unit, start, end
                   in self.spans if parent < 0)

    def child_calls(self):
        """Number of spans that have a parent (wrapped calls in a unit)."""
        return sum(1 for span in self.spans if span[1] >= 0)

    def dump(self, path):
        """Write the spans as gzip'd JSON lines, one span per line."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for index, (name, parent, unit, start, end) in enumerate(
                    self.spans):
                out.write(json.dumps({
                    "id": index, "parent": parent, "unit": unit,
                    "name": name, "start": start, "end": end,
                }) + "\n")
