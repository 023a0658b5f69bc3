"""The seed substrate: one binary heap and one scheduler event per tree node.

``repro.runtime`` schedules zero-delay events on a FIFO run queue merged
with a timed heap, and its nodes interpret process trees as batched
worklists.  This is the substrate those replaced: every event goes
through a single binary heap, and every process-tree node (a nil
continuation included) is interpreted on a scheduler event of its own.
The differential tests and the E19 bench (``bench_runtime_scaling.py``)
require both to deliver the same run on race-free programs, with the
same thread accounting.  It is test-only: nothing in ``src/`` imports it.

:func:`seed_substrate` installs it by substituting the classes
:class:`~repro.runtime.runtime.DistributedRuntime` builds its simulator
and nodes from; runtimes (and inline shards) constructed and deployed
inside the ``with`` body run on it.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from typing import Callable, Iterator

import repro.runtime.runtime as runtime_module
from repro.core.errors import SimulationError
from repro.core.process import Process
from repro.runtime.node import Node
from repro.runtime.simulator import Simulator, _Scheduled


class HeapSimulator(Simulator):
    """The seed's single-heap scheduler: no run queue, O(log n) per event."""

    def schedule(self, delay: float, callback: Callable[[], None]) -> _Scheduled:
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self._push(self.now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> _Scheduled:
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before now={self.now}"
            )
        return self._push(time, callback)

    def _push(self, time: float, callback: Callable[[], None]) -> _Scheduled:
        event = _Scheduled(time, self._next_sequence(), callback)
        self._live += 1
        heapq.heappush(self._queue, event)
        return event


class PerNodeInterpreter(Node):
    """The seed's interpreter: one scheduler event per process-tree node.

    Nil is scheduled like any other node, so a fired input whose
    continuation is ``0`` still pays its no-op event — the accounting
    ``test_batched_deploy_uses_fewer_scheduler_events`` compares against.
    """

    def spawn(self, process: Process) -> None:
        self.threads_spawned += 1
        self.middleware.simulator.schedule(
            0.0, lambda: self._interpret(process, self.spawn)
        )

    def spawn_group(self, processes: list[Process]) -> None:
        for process in processes:
            self.spawn(process)


@contextmanager
def seed_substrate() -> Iterator[None]:
    """Build runtimes on :class:`HeapSimulator` and :class:`PerNodeInterpreter`."""

    saved = runtime_module.Simulator, runtime_module.Node
    runtime_module.Simulator = HeapSimulator
    runtime_module.Node = PerNodeInterpreter
    try:
        yield
    finally:
        runtime_module.Simulator, runtime_module.Node = saved
