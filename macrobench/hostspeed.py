"""The reference kernel: how fast is the host running Python right now?

The machines this benchmark runs on are small VMs on shared hosts.  With
nothing else running in the VM, the same code slows down by a third for
minutes at a time and recovers (README.md, *Sizing evidence*), which is more
than any bound in ``BENCHMARK.json`` and longer than a run.  No statistic
over one run's samples removes that, so the benchmark measures it: before
every ~10 ms slice of a timed segment (and between the steps of every timed
set-up) it runs ``HostSpeed.sample``, a fixed piece of pure-Python work that
imports nothing from ``repro``, and divides every time it reports by how long
that work took relative to ``REFERENCE_NS``.  A reported time is therefore
"at reference host speed": what the program under test does moves it, what
the neighbours do moves it about a third as much as it moves the raw time.

The kernel is made to resemble the program's own instruction mix — the
interpreter loop, integer arithmetic, a function call, tuple unpacking, and
random probes into a dict too large for the per-core caches — because
interference that slows memory and interference that slows the core do not
slow every kind of code alike.  It allocates no container, so it never
triggers a collection of the program's heap.
"""

from __future__ import annotations

import random
import statistics
from array import array
from time import perf_counter, perf_counter_ns
from typing import Callable, TypeVar

T = TypeVar("T")

#: Nanoseconds one ``sample()`` takes between two slices of a workload or
#: after a set-up — the caches hold the program's data then, not the
#: kernel's; back to back it takes half as long — on the quiet
#: 2-vCPU VM (2.1 GHz Xeon, CPython 3.11) the benchmark was sized on.  Only
#: a scale: every run of every commit is divided by the same constant.
REFERENCE_NS = 575_000

_TABLE_ROWS = 60_000
_PROBES = 800
#: Probes around a slice whose median is that slice's host factor.
_WINDOW = 4
#: Probes between two steps of a set-up.
_STEP_PROBES = 3
#: Set-up steps shorter than this are timed together with the next.
_STEP_SECONDS = 0.005


def _mix(total: int, a: int, b: int) -> int:
    return (total + a if a > b else total ^ b) & 0xFFFFFF


class HostSpeed:
    def __init__(self) -> None:
        self._table = {
            key: (key * 7 % 251, key * 13 % 241, key & 255)
            for key in range(_TABLE_ROWS)
        }
        self._scratch = [0] * 256
        #: Every key once, in a fixed random order; a sample walks the next
        #: ``_PROBES`` of them, so successive samples touch the whole table.
        order = list(range(_TABLE_ROWS))
        random.Random(0).shuffle(order)
        self._order = array("I", order)
        self._at = 0
        for _ in range(10):  # page the table in
            self.sample()

    def sample(self) -> int:
        """Run the kernel once; its duration in nanoseconds."""
        table, scratch, mix = self._table, self._scratch, _mix
        if self._at + _PROBES > _TABLE_ROWS:
            self._at = 0
        keys = self._order[self._at:self._at + _PROBES]
        self._at += _PROBES
        total = 0
        started = perf_counter_ns()
        for key in keys:
            a, b, c = table[key]
            total = mix(total, a, b)
            total = mix(total, scratch[b], c)
            scratch[c] = mix(scratch[a], total, key)
        return perf_counter_ns() - started

    def slice_factors(self, probes: list[int]) -> list[float]:
        """Host factor of each slice, from one probe before each slice and
        one after the last: the median of the ``_WINDOW`` nearest probes
        over ``REFERENCE_NS``."""
        factors = []
        for i in range(len(probes) - 1):
            low = max(0, min(i + 1 - _WINDOW // 2, len(probes) - _WINDOW))
            factors.append(statistics.median(probes[low:low + _WINDOW]) / REFERENCE_NS)
        return factors


class SetupClock:
    """Times a set-up step by step, each step at reference host speed.

    A set-up is a second of work and the host's speed changes within 20 to
    100 ms, so probes before and after the whole would see two moments of
    it.  With ``meter`` ``None`` the steps are timed as measured.
    """

    def __init__(self, meter: HostSpeed | None) -> None:
        self._meter = meter
        self._seconds = 0.0
        self._pending = 0.0  # raw seconds of the steps since the last probes
        self._before = self._probe()

    def _probe(self) -> list[int]:
        if self._meter is None:
            return [REFERENCE_NS]
        return [self._meter.sample() for _ in range(_STEP_PROBES)]

    def step(self, action: Callable[[], T]) -> T:
        started = perf_counter()
        result = action()
        self._pending += perf_counter() - started
        if self._pending >= _STEP_SECONDS:
            self._settle()
        return result

    def _settle(self) -> None:
        after = self._probe()
        factor = statistics.median(self._before + after) / REFERENCE_NS
        self._seconds += self._pending / factor
        self._pending = 0.0
        self._before = after

    def seconds(self) -> float:
        """The steps so far, in seconds."""
        if self._pending:
            self._settle()
        return self._seconds
