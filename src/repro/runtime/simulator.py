"""Discrete-event simulation core.

The runtime package implements the deployment the paper's footnote 1
envisages — provenance tracking performed by a trusted middleware beneath
application code — on a *simulated* distributed substrate (the paper has
no implementation and we have no cluster; the simulation exercises the
same code paths: serialize, route, vet, deliver).

This module is the clock.  Determinism is a design requirement — the
clock draws nothing random (latency jitter is a keyed draw, see
:class:`~repro.runtime.network.KeyedLatencySampler`), and simultaneous
events tie-break on a monotone sequence number, so every run is exactly
reproducible.

Scheduling is two-tier:

* a FIFO **run queue** holds zero-delay events — the overwhelming
  majority under heavy traffic: every process-tree continuation a node
  spawns and every zero-latency hop.  Append and pop are O(1).
* a binary **heap** holds genuinely timed events (network latency,
  reorder delays) and pays the classic O(log n).

The two tiers drain as one totally ordered stream.  Every event carries
the key ``(time, sequence)``; the run queue only ever receives events
stamped at the *current* clock reading, and both the clock and the
sequence counter are monotone, so the run queue is itself sorted by that
key and a single front-vs-top comparison per pop suffices to merge the
tiers in exact heap order.  The same ``schedule()`` call sequence
therefore replays the same callbacks in the same order as a single
binary heap would.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.errors import SimulationError

__all__ = ["SequenceSource", "Simulator"]

_HEAP = 0
_RUNQ = 1


class SequenceSource:
    """A monotone event-sequence counter shareable across simulators.

    The sharded runtime's *inline* mode runs several :class:`Simulator`
    instances in lockstep under one conductor; handing them one shared
    source makes every event's ``(time, sequence)`` key globally unique
    and totally ordered exactly as a single simulator would have stamped
    it — the invariant the bit-for-bit trace differential rests on.
    """

    __slots__ = ("count",)

    def __init__(self, start: int = 0) -> None:
        self.count = start

    def next(self) -> int:
        self.count += 1
        return self.count


@dataclass(order=True)
class _Scheduled:
    time: float
    sequence: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(compare=False, default=False)
    tier: int = field(compare=False, default=_HEAP)


class Simulator:
    """A deterministic discrete-event loop.

    ``schedule(delay, callback)`` enqueues work ``delay`` time units in
    the future; :meth:`run` drains the queue in time order.  Callbacks may
    schedule further events.
    """

    def __init__(self, sequence_source: Optional[SequenceSource] = None) -> None:
        self.now: float = 0.0
        self._queue: list[_Scheduled] = []
        self._runq: deque[_Scheduled] = deque()
        self._sequence = 0
        self._seq_source = sequence_source
        self._live = 0
        self._queue_cancelled = 0
        self._runq_cancelled = 0
        self.events_processed = 0

    def _next_sequence(self) -> int:
        source = self._seq_source
        if source is None:
            self._sequence += 1
            return self._sequence
        return source.next()

    def schedule(
        self, delay: float, callback: Callable[[], None]
    ) -> _Scheduled:
        """Enqueue ``callback`` to run at ``now + delay``."""

        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        sequence = self._next_sequence()
        self._live += 1
        if delay == 0.0:
            event = _Scheduled(self.now, sequence, callback, tier=_RUNQ)
            self._runq.append(event)
        else:
            event = _Scheduled(self.now + delay, sequence, callback)
            heapq.heappush(self._queue, event)
        return event

    def schedule_at(
        self, time: float, callback: Callable[[], None]
    ) -> _Scheduled:
        """Enqueue ``callback`` at an *absolute* simulated time.

        The cross-shard router stamps arrivals with the sender-side
        send time plus link latency; scheduling them by absolute time
        keeps the arrival instant independent of the receiving shard's
        clock reading at injection.  ``time`` must not lie in the past.
        """

        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before now={self.now}"
            )
        sequence = self._next_sequence()
        self._live += 1
        if time == self.now:
            event = _Scheduled(time, sequence, callback, tier=_RUNQ)
            self._runq.append(event)
        else:
            event = _Scheduled(time, sequence, callback)
            heapq.heappush(self._queue, event)
        return event

    def next_event_key(self) -> Optional[tuple[float, int]]:
        """``(time, sequence)`` of the next live event, or ``None``.

        The inline shard conductor peeks every shard and runs the
        globally least key; the process-mode barrier uses the time half
        to pick the next conservative window.
        """

        event = self._next_event()
        if event is None:
            return None
        return (event.time, event.sequence)

    def sync_clock(self, now: float) -> None:
        """Advance (never rewind) the clock to ``now``.

        Safe whenever every pending event's time is ``>= now`` — the
        conductor calls this with the global minimum event time before
        each step, so callbacks that schedule onto *other* simulators
        (cross-shard continuations) stamp work at the current instant
        rather than at a stale shard-local reading.
        """

        if now > self.now:
            self.now = now

    def cancel(self, event: _Scheduled) -> None:
        """Mark a scheduled event as dead (it will be skipped).

        The entry stays in its queue until the drain loop (or a
        compaction) reaches it, but it no longer counts as pending, and
        whenever corpses outnumber live entries in a tier the tier is
        compacted — a cancel-heavy workload cannot grow either queue
        beyond twice its live population.  Cancelling twice, or
        cancelling an event that already ran, is a no-op.
        """

        if event.cancelled:
            return
        event.cancelled = True
        self._live -= 1
        if event.tier == _RUNQ:
            self._runq_cancelled += 1
            if self._runq_cancelled * 2 > len(self._runq):
                self._runq = deque(e for e in self._runq if not e.cancelled)
                self._runq_cancelled = 0
        else:
            self._queue_cancelled += 1
            if self._queue_cancelled * 2 > len(self._queue):
                self._queue = [e for e in self._queue if not e.cancelled]
                heapq.heapify(self._queue)
                self._queue_cancelled = 0

    @property
    def pending(self) -> int:
        """Number of not-yet-run live (non-cancelled) events."""

        return self._live

    def _next_event(self) -> Optional[_Scheduled]:
        """The live event with the least ``(time, sequence)``, not popped.

        Cancelled fronts are shed on the way, so the caller may pop the
        returned event from its tier's front in O(1)/O(log n).
        """

        runq, queue = self._runq, self._queue
        while runq and runq[0].cancelled:
            runq.popleft()
            self._runq_cancelled -= 1
        while queue and queue[0].cancelled:
            heapq.heappop(queue)
            self._queue_cancelled -= 1
        if not runq:
            return queue[0] if queue else None
        if not queue:
            return runq[0]
        front, top = runq[0], queue[0]
        if (front.time, front.sequence) <= (top.time, top.sequence):
            return front
        return top

    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 1_000_000,
    ) -> int:
        """Process events in time order; returns how many ran.

        Stops when the queue is empty, simulated time passes ``until``, or
        ``max_events`` callbacks have run (a divergence guard for
        replicated senders).  On a windowed run (``until`` given) the
        clock always advances to ``min(until, next event time)`` before
        returning, so back-to-back windows compose exactly like one full
        run — work scheduled between windows is stamped at the window
        boundary, not at whatever instant the previous window's last
        event happened to occupy.
        """

        processed = 0
        heappop = heapq.heappop
        # the front containers are re-read every iteration: a cancel()
        # inside a callback may compact (replace) either one
        while processed < max_events:
            runq, queue = self._runq, self._queue
            while runq and runq[0].cancelled:
                runq.popleft()
                self._runq_cancelled -= 1
            while queue and queue[0].cancelled:
                heappop(queue)
                self._queue_cancelled -= 1
            if runq:
                event = runq[0]
                if queue:
                    top = queue[0]
                    if (top.time, top.sequence) < (event.time, event.sequence):
                        event = top
            elif queue:
                event = queue[0]
            else:
                break
            if until is not None and event.time > until:
                break
            if event.tier == _RUNQ:
                runq.popleft()
            else:
                heappop(queue)
            self._live -= 1
            # a popped event is no longer pending: flagging it makes a
            # late cancel() a no-op instead of a live-count corruption
            event.cancelled = True
            if event.time > self.now:
                self.now = event.time
            event.callback()
            processed += 1
            self.events_processed += 1
        if until is not None:
            horizon = until
            upcoming = self._next_event()
            if upcoming is not None and upcoming.time < horizon:
                horizon = upcoming.time
            if horizon > self.now:
                self.now = horizon
        return processed
