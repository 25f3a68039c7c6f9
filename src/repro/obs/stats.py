"""gem5-style hierarchical statistics.

A :class:`StatGroup` is a named tree node holding scalar statistics
(:class:`Counter`, :class:`Gauge`) and distributions (:class:`Histogram`)
plus child groups.  Components register their observation points into a
group (``group.counter("hits")``) or publish a snapshot of internal state
(``cache.export_stats(group)``); the pipeline threads one root group
through every stage via :class:`~repro.pipeline.context.SimContext`.

The tree serialises to JSON (``paraverser run --stats-json``) and to a
gem5-style ``name  value`` text dump; statistics are observation-only and
never feed back into simulated timing.
"""

from __future__ import annotations

import json
import math
import threading
import time
from typing import Iterator, Union

#: Guards child creation in :meth:`StatGroup._child`.  The stage-graph
#: executor runs pipeline stages on threads that register into disjoint
#: subtrees of one shared tree, so only the get-or-create miss path needs
#: serialising; reads and updates of existing stats stay lock-free.
_CHILD_LOCK = threading.Lock()


class Stat:
    """Base class: a named, described leaf statistic."""

    __slots__ = ("name", "desc")

    def __init__(self, name: str, desc: str = "") -> None:
        self.name = name
        self.desc = desc

    def to_value(self):
        """The JSON-serialisable value of this statistic."""
        raise NotImplementedError


class Counter(Stat):
    """A monotonically increasing event count."""

    __slots__ = ("value",)

    def __init__(self, name: str, desc: str = "", value: int = 0) -> None:
        super().__init__(name, desc)
        self.value = value

    def inc(self, n: int = 1) -> None:
        self.value += n

    def to_value(self):
        return self.value

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge(Stat):
    """A point-in-time scalar (utilisation, wall time, a ratio)."""

    __slots__ = ("value",)

    def __init__(self, name: str, desc: str = "",
                 value: float = 0.0) -> None:
        super().__init__(name, desc)
        self.value = value

    def set(self, value: float) -> None:
        self.value = value

    def to_value(self):
        return self.value

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Histogram(Stat):
    """A bucketed distribution with running count/sum/min/max.

    ``bins`` is a sorted list of inclusive lower bucket edges; a sample
    lands in the right-most bucket whose edge does not exceed it (values
    below the first edge land in the first bucket).  Without explicit
    bins, powers of two starting at 1 are used, gem5-style.
    """

    __slots__ = ("bins", "bucket_counts", "count", "total", "min", "max")

    #: Default power-of-two edges: 0, 1, 2, 4, ... 4096+.
    DEFAULT_BINS = [0] + [1 << i for i in range(13)]

    def __init__(self, name: str, desc: str = "",
                 bins: list[float] | None = None) -> None:
        super().__init__(name, desc)
        self.bins = sorted(bins) if bins else list(self.DEFAULT_BINS)
        self.bucket_counts = [0] * len(self.bins)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def reset(self) -> None:
        """Clear all samples (an exporter republishing a snapshot)."""
        self.bucket_counts = [0] * len(self.bins)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def record(self, value: float, n: int = 1) -> None:
        self.count += n
        self.total += value * n
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        idx = 0
        for i, edge in enumerate(self.bins):
            if value < edge:
                break
            idx = i
        self.bucket_counts[idx] += n

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_value(self):
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "buckets": {
                f">={edge:g}": n
                for edge, n in zip(self.bins, self.bucket_counts) if n
            },
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.count}, mean={self.mean:g})"


Node = Union[Stat, "StatGroup"]


class StatGroup:
    """A named node in the statistics tree.

    Children (stats and sub-groups) are created on first use and keep
    insertion order; ``group.counter("x")`` called twice returns the same
    object, so independent code paths can contribute to shared counters.
    """

    __slots__ = ("name", "desc", "_children")

    def __init__(self, name: str = "", desc: str = "") -> None:
        self.name = name
        self.desc = desc
        self._children: dict[str, Node] = {}

    # -- construction ------------------------------------------------------

    def _child(self, name: str, factory, kind) -> Node:
        node = self._children.get(name)
        if node is None:
            with _CHILD_LOCK:
                node = self._children.get(name)
                if node is None:
                    node = factory()
                    self._children[name] = node
        if not isinstance(node, kind):
            raise TypeError(
                f"stat {name!r} in group {self.name!r} already exists "
                f"as {type(node).__name__}"
            )
        return node

    def group(self, name: str, desc: str = "") -> "StatGroup":
        """Get-or-create a child group."""
        return self._child(name, lambda: StatGroup(name, desc), StatGroup)

    def counter(self, name: str, desc: str = "") -> Counter:
        return self._child(name, lambda: Counter(name, desc), Counter)

    def gauge(self, name: str, desc: str = "") -> Gauge:
        return self._child(name, lambda: Gauge(name, desc), Gauge)

    def histogram(self, name: str, desc: str = "",
                  bins: list[float] | None = None) -> Histogram:
        return self._child(name, lambda: Histogram(name, desc, bins),
                           Histogram)

    def scalar(self, name: str, value: float, desc: str = "") -> Gauge:
        """Convenience: set-and-return a gauge in one call."""
        gauge = self.gauge(name, desc)
        gauge.set(value)
        return gauge

    def count(self, name: str, value: int, desc: str = "") -> Counter:
        """Convenience: publish a pre-accumulated event count."""
        counter = self.counter(name, desc)
        counter.value = value
        return counter

    def merge(self, other: "StatGroup") -> None:
        """Copy ``other``'s sub-groups, counters and gauges into this one."""
        for name, node in other.items():
            if isinstance(node, StatGroup):
                self.group(name, node.desc).merge(node)
            elif isinstance(node, Counter):
                self.count(name, node.value, node.desc)
            else:
                self.scalar(name, node.value, node.desc)

    # -- access ------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._children

    def __getitem__(self, name: str) -> Node:
        return self._children[name]

    def get(self, name: str, default=None) -> Node | None:
        return self._children.get(name, default)

    def items(self) -> Iterator[tuple[str, Node]]:
        return iter(self._children.items())

    def __iter__(self) -> Iterator[str]:
        return iter(self._children)

    def __len__(self) -> int:
        return len(self._children)

    # -- export ------------------------------------------------------------

    def to_dict(self) -> dict:
        """Nested plain-value tree (groups -> dicts, stats -> values)."""
        out: dict = {}
        for name, node in self._children.items():
            if isinstance(node, StatGroup):
                out[name] = node.to_dict()
            else:
                out[name] = node.to_value()
        return out

    def flatten(self, prefix: str = "") -> dict[str, object]:
        """Dotted-name -> value map over the whole subtree."""
        flat: dict[str, object] = {}
        for name, node in self._children.items():
            dotted = f"{prefix}{name}"
            if isinstance(node, StatGroup):
                flat.update(node.flatten(dotted + "."))
            else:
                flat[dotted] = node.to_value()
        return flat

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def format_tree(self) -> str:
        """gem5-style ``name  value`` dump, one line per leaf."""
        lines = []
        for dotted, value in self.flatten().items():
            if isinstance(value, dict):  # histogram summary
                value = (f"n={value['count']} mean={value['mean']:.4g} "
                         f"min={value['min']} max={value['max']}")
            elif isinstance(value, float):
                value = f"{value:.6g}"
            lines.append(f"{dotted:40s} {value}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"StatGroup({self.name!r}, {len(self._children)} children)"


class StageTimer:
    """Context manager recording a stage's wall time into a gauge (ms)."""

    __slots__ = ("_gauge", "_start")

    def __init__(self, gauge: Gauge) -> None:
        self._gauge = gauge
        self._start = 0.0

    def __enter__(self) -> "StageTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        # Accumulate: a stage run twice (e.g. the cluster's schedule with
        # and without LSL traffic) reports its total wall time.
        self._gauge.value += (time.perf_counter() - self._start) * 1e3
