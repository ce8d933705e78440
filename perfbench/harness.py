"""Measurement helpers shared by the benchmark workloads.

Nothing here imports the library or numpy at module level, so the
workload's own import can be timed as part of its set-up.

- :func:`tail_percentile` reports a tail only when at least
  ``min_beyond`` samples lie beyond it;
- :class:`Tracer` keeps a stack of open spans and charges every span's
  duration minus the time of the spans nested inside it (its *self*
  time) to its layer, so the layers of one traced region never count
  the same second twice;
- :class:`Patches` installs timing wrappers around public functions and
  methods and puts the originals back afterwards;
- :class:`HostProbe` times a fixed loop that follows the host's speed;
  :class:`Region` probes it between ops and scales every time it
  records by the probe time around it (host-normalized time).
"""

from __future__ import annotations

import asyncio
import functools
import gc
import hashlib
import inspect
import math
import os
import resource
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

clock = time.perf_counter


def derive_seed(seed: int, *labels) -> int:
    """A 31-bit seed for one input, derived from the benchmark seed."""
    text = ":".join([str(seed), *map(str, labels)])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def median_ms(samples: Sequence[float]) -> Optional[float]:
    """Median of samples in seconds, in milliseconds (None if empty)."""
    return statistics.median(samples) * 1000.0 if samples else None


def tail_percentile(
    samples: Sequence[float], q: float, min_beyond: int = 10
) -> Optional[float]:
    """Nearest-rank ``q``-th percentile, or None when fewer than
    ``min_beyond`` samples lie beyond it (the tail would be a guess)."""
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < min_beyond:
        return None
    return sorted(samples)[rank - 1]


def peak_rss_mb() -> float:
    """This process's peak resident set size, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tree_bytes(root: Path) -> int:
    """Total size of the regular files under ``root``."""
    total = 0
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


#: The probe time a host-normalized figure is scaled to: every measured
#: time is multiplied by ``PROBE_NOMINAL_S`` over the probe time around it.
PROBE_NOMINAL_S = 0.003
#: Shortest stretch of a timed region between two probes.
PROBE_EVERY_S = 0.5


class HostProbe:
    """A fixed loop timed between ops to follow the host's speed:
    pure-Python dict work plus a numpy random gather into a
    preallocated buffer, about 3 ms on a 2 GHz Xeon core.

    Identical work every time, with the collector off, so a change in
    :meth:`measure` is the host, not the program. On a shared host the
    speed of one core swings by up to 2x for minutes at a time; times
    scaled by the probe around them swing less, by how much depending on
    how alike the workload and the probe are (see README).
    The arrays (8.5 MiB, counted in the run's peak RSS) are allocated
    once, so a measurement does not depend on how the program left the
    heap.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._data = rng.random(1 << 20)
        self._index = rng.integers(0, len(self._data), size=1 << 15)
        self._gathered = np.empty(len(self._index))

    def _loop(self) -> float:
        start = clock()
        table: Dict[int, int] = {}
        for i in range(4_000):
            key = (i * 2654435761) & 1023
            table[key] = table.get(key, 0) + i
        for _ in range(8):
            self._np.take(self._data, self._index, out=self._gathered)
        elapsed = clock() - start
        if len(table) != 1024:
            raise RuntimeError("host probe loop computed a wrong result")
        return elapsed

    def measure(self, repeats: int = 3) -> float:
        """Median of ``repeats`` timings of the loop, in seconds."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            return statistics.median(self._loop() for _ in range(repeats))
        finally:
            if enabled:
                gc.enable()


class Tracer:
    """Per-layer busy time from nested spans.

    ``busy[layer]`` is self time: a span's duration minus the duration
    of spans opened inside it. ``inclusive[layer]`` is the plain
    duration. ``calls[layer]`` counts spans. The sum of ``busy`` over all
    layers never exceeds the wall time the spans cover.
    """

    def __init__(self):
        self.busy: Dict[str, float] = defaultdict(float)
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self._stack: List[list] = []

    def enter(self, layer: str) -> None:
        self._stack.append([layer, clock(), 0.0])

    def exit(self, count: bool = True) -> None:
        layer, start, nested = self._stack.pop()
        duration = clock() - start
        self.inclusive[layer] += duration
        self.busy[layer] += duration - nested
        if count:
            self.calls[layer] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def total_busy(self) -> float:
        return sum(self.busy.values())


def bits_equal(a, b) -> bool:
    """True when two arrays have the same dtype, shape and bytes."""
    import numpy as np

    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class Patches:
    """Timing wrappers around public callables, restored on :meth:`restore`.

    ``wrap(owner, name, layer)`` replaces ``owner.name`` — a module
    function, a plain or async method, a generator function, or a
    classmethod — with a wrapper that opens a ``layer`` span around each
    call (around each resumption, for a generator). Functions imported
    by name into another module must be wrapped where they are looked
    up.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: List[tuple] = []

    def wrap(self, owner, name: str, layer: str, count: bool = True) -> None:
        original = (
            owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        )
        self._saved.append((owner, name, original))
        if isinstance(original, classmethod):
            replacement = classmethod(self._timed(original.__func__, layer, count))
        else:
            replacement = self._timed(original, layer, count)
        setattr(owner, name, replacement)

    def _timed(self, fn: Callable, layer: str, count: bool) -> Callable:
        tracer = self.tracer
        if asyncio.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                tracer.enter(layer)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer.exit(count)

            return async_wrapper

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                if count:
                    tracer.calls[layer] += 1
                inner = fn(*args, **kwargs)
                while True:
                    tracer.enter(layer)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.exit(count=False)
                    yield item

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(count)

        return wrapper

    def targets(self) -> List[tuple]:
        """``(owner, name, original)`` for every wrapper installed."""
        return list(self._saved)

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


class Region:
    """What one timed region did: op and read latencies, items completed,
    operations attempted and failed, and its wall time.

    Workloads report each op and read through :meth:`add_op` and
    :meth:`add_read`. At the first of those calls that ends a stretch of
    at least ``PROBE_EVERY_S``, the region times the host probe and
    scales the stretch, and every op and read in it, by
    ``PROBE_NOMINAL_S`` over the mean of the probes at its two ends.
    ``ops``/``reads``/``wall`` hold measured seconds, ``norm_*`` the
    host-normalized ones; probe time is in neither.
    """

    def __init__(self, probe: HostProbe):
        self.probe = probe
        self.ops: List[float] = []
        self.reads: List[float] = []
        self.norm_ops: List[float] = []
        self.norm_reads: List[float] = []
        self.probes: List[float] = []
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.wall = 0.0
        self.norm_wall = 0.0
        #: Workload-specific counts gathered while the region ran.
        self.counts: Dict[str, float] = defaultdict(float)
        self._pending: List[tuple] = []

    def start(self) -> None:
        self.probes.append(self.probe.measure())
        self._stretch_start = clock()

    def add_op(self, seconds: float) -> None:
        self.ops.append(seconds)
        self._pending.append((self.norm_ops, seconds))
        self._checkpoint(force=False)

    def add_read(self, seconds: float) -> None:
        self.reads.append(seconds)
        self._pending.append((self.norm_reads, seconds))
        self._checkpoint(force=False)

    def stop(self) -> None:
        self._checkpoint(force=True)

    def _checkpoint(self, force: bool) -> None:
        stretch = clock() - self._stretch_start
        if stretch < PROBE_EVERY_S and not force:
            return
        probe_s = self.probe.measure()
        scale = PROBE_NOMINAL_S / ((self.probes[-1] + probe_s) / 2.0)
        self.probes.append(probe_s)
        self.wall += stretch
        self.norm_wall += stretch * scale
        for samples, seconds in self._pending:
            samples.append(seconds * scale)
        self._pending.clear()
        self._stretch_start = clock()

    @property
    def items_per_s(self) -> float:
        """Host-normalized items per second."""
        return self.items / self.norm_wall

    @property
    def raw_items_per_s(self) -> float:
        return self.items / self.wall
