"""Layer attribution of host time, from outside the simulator.

The layers are the ``repro`` packages of the paper's stack.  A component
belongs to the layer of the package its class is defined in; a class from
any other package (``repro.sweep`` shard links, ``repro.bus``, user code)
raises :class:`UnmappedComponentError` instead of landing in an "other"
bucket, so every traced nanosecond is attributed to a named layer.

:class:`LayerTracer` replaces each component instance's ``tick`` with a
``perf_counter_ns`` span, wraps each protocol master's ``traffic.poll`` as
a nested ``ip`` span, and patches the kernel's queue commits at class
level (``SimQueue`` has ``__slots__``, so an instance wrap is impossible;
any other committed channel's commits stay in the kernel's own time).
Spans nest on one stack: a layer's self time is its span time minus the
spans opened inside it, and the kernel's own time is the run's wall time
minus every top-level span.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List

from repro.sim.queue import SimQueue

#: The kernel first, then the paper's stack from transaction to wire.
LAYERS = ("sim", "niu", "protocols", "transport", "phys", "ip")

#: Package of a component's (or traffic source's) class -> layer.
LAYER_OF_PACKAGE = {
    "repro.niu": "niu",
    "repro.protocols": "protocols",
    "repro.transport": "transport",
    "repro.phys": "phys",
    "repro.ip": "ip",
    "repro.workloads": "ip",
}

class UnmappedComponentError(LookupError):
    """A simulated object's class lives outside every mapped package."""


class NegativeSelfTimeError(ArithmeticError):
    """A layer's self time came out below zero: spans were double-counted."""


def layer_of(obj) -> str:
    """Layer of ``obj``'s class, by the longest mapped package prefix."""
    cls = type(obj)
    package = cls.__module__
    while package:
        layer = LAYER_OF_PACKAGE.get(package)
        if layer is not None:
            return layer
        package = package.rpartition(".")[0]
    raise UnmappedComponentError(
        f"{cls.__module__}.{cls.__qualname__} is in no mapped package "
        f"({', '.join(sorted(LAYER_OF_PACKAGE))}); add its package to "
        f"LAYER_OF_PACKAGE before benchmarking it"
    )


class LayerTracer:
    """Per-layer self time and call counts of one traced run.

    ``cells[layer]`` is ``[self_ns, ticks]``; ``commit`` is the same pair
    for queue commits (kernel time) and ``poll`` for traffic polls (``ip``
    time); ``poll_hits`` counts the polls that returned a transaction.
    """

    def __init__(self) -> None:
        self.cells: Dict[str, List[int]] = {layer: [0, 0] for layer in LAYERS}
        self.commit = [0, 0]
        self.poll = [0, 0]
        self.poll_hits = 0
        self._stack = [0]
        self.wall_ns = 0

    def _span(self, cell: List[int], fn):
        clock = time.perf_counter_ns
        stack = self._stack

        def traced(*args):
            stack.append(0)
            start = clock()
            result = fn(*args)
            elapsed = clock() - start
            cell[0] += elapsed - stack.pop()
            cell[1] += 1
            stack[-1] += elapsed
            return result

        return traced

    def _poll_span(self, fn):
        def counted(cycle):
            txn = fn(cycle)
            if txn is not None:
                self.poll_hits += 1
            return txn

        return self._span(self.poll, counted)

    def instrument(self, soc) -> None:
        """Wrap every component's ``tick`` and every master's poll.

        The wrapped SoC is meant to be run once and thrown away: the
        instance attributes are not removed afterwards.
        """
        for component in soc.sim._components:
            component.tick = self._span(
                self.cells[layer_of(component)], component.tick
            )
        for master in soc.masters.values():
            traffic = master.traffic
            if layer_of(traffic) != "ip":
                raise UnmappedComponentError(
                    f"traffic source {type(traffic).__qualname__} of "
                    f"{master.name} is not in the ip layer"
                )
            traffic.poll = self._poll_span(traffic.poll)

    @contextmanager
    def commits_traced(self):
        """Patch ``SimQueue.commit`` for the duration."""
        commit = SimQueue.commit
        SimQueue.commit = self._span(self.commit, commit)
        try:
            yield
        finally:
            SimQueue.commit = commit

    def run(self, soc, cycles: int) -> None:
        """Run ``soc`` for ``cycles`` under tracing (after instrument)."""
        with self.commits_traced():
            start = time.perf_counter_ns()
            soc.run(cycles)
            self.wall_ns = time.perf_counter_ns() - start
        self.check()

    def self_ns(self) -> Dict[str, int]:
        """Self time per layer; ``sim`` is the kernel plus commits."""
        out = {layer: cell[0] for layer, cell in self.cells.items()}
        out["sim"] += self.wall_ns - self._stack[0] + self.commit[0]
        out["ip"] += self.poll[0]
        return out

    def check(self) -> None:
        if len(self._stack) != 1:
            raise NegativeSelfTimeError(
                f"span stack left {len(self._stack) - 1} spans open"
            )
        negative = {k: v for k, v in self.self_ns().items() if v < 0}
        if negative:
            raise NegativeSelfTimeError(
                f"negative self time {negative}: nested spans were counted "
                f"twice"
            )

    @property
    def ticks(self) -> int:
        """Component ticks, over every layer."""
        return sum(cell[1] for cell in self.cells.values())
