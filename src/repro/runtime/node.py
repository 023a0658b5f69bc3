"""Nodes: executing calculus processes on the simulated substrate.

A :class:`Node` hosts the code of one principal and interprets process
terms directly against the middleware — this is the application tier of
the two-tier architecture.  Application code never touches provenance:
outputs hand plain annotated values to :meth:`Middleware.send` (which
stamps them), inputs register patterns and get stamped values back.

Replication is interpreted with a *budget*: ``∗P`` spawns
``replication_budget`` concurrent copies.  An unbounded ``∗P`` cannot be
executed on finite hardware; the budget is the standard prefork
approximation and is configurable per runtime.  (The calculus-level
engine in :mod:`repro.core` remains exact — lazily unfolding — so nothing
about the formal results depends on this bound.)

Interpretation is **iterative and batched**: one spawned scheduler
event drains an explicit FIFO worklist of process-tree nodes, so
deploying a wide parallel composition costs one event rather than one
heap push per tree node.  The worklist is breadth-first, the order in
which a one-event-per-node interpreter would run the same tree, and
every interpreted node still counts as one spawned thread
(``threads_spawned`` / ``blocked_threads``).  A batch yields back to the
scheduler every :data:`DEFAULT_BATCH_LIMIT` nodes (the remaining
worklist is rescheduled as one zero-delay event), keeping
``max_events`` a meaningful divergence guard.  With a positive
``processing_delay`` every tree node pays the delay on its own event
(batching only ever fuses zero-delay hops).

Semantics caveat: batching interprets a thread's whole subtree before
other events scheduled in between, so when *concurrently enabled*
rendezvous race for the same message at the same instant (several
receivers on one channel becoming ready in the same zero-latency
window), the race can resolve differently than under a per-node
interpreter — both outcomes are valid reductions of the calculus, and
the run is deterministic per seed, but delivered-trace identity with a
per-node interpreter is only guaranteed for race-free programs
(receivers registered before senders fire, or distinct channels).
Per-principal program order and per-channel FIFO pairing are preserved
unconditionally.
"""

from __future__ import annotations

import weakref
from collections import deque
from typing import Callable

from repro.core.errors import OpenTermError, SimulationError
from repro.core.names import Principal
from repro.core.process import (
    Inaction,
    InputSum,
    Match,
    Output,
    Parallel,
    Process,
    Replication,
    Restriction,
)
from repro.core.substitution import rename_free_channel, substitute
from repro.core.values import AnnotatedValue
from repro.runtime.middleware import Middleware, ReceiveBranch

__all__ = ["Node"]

DEFAULT_BATCH_LIMIT = 4096
"""Worklist nodes one scheduler event may interpret before yielding."""


def _values_equal(left: AnnotatedValue, right: AnnotatedValue) -> bool:
    """The Match rule's value test — the single source of truth.

    Both guard paths (the batched worklist's inlined test and
    :meth:`Node._match_choose`) decide then/else through this predicate,
    so they cannot drift apart.  Identity short-circuits cover the
    self-comparison and shared-channel cases before any structural
    ``__eq__``.
    """

    return (
        left is right
        or left.value is right.value
        or left.value == right.value
    )


class Node:
    """One principal's execution container."""

    def __init__(
        self,
        principal: Principal,
        middleware: Middleware,
        replication_budget: int = 4,
        processing_delay: float = 0.0,
    ) -> None:
        self.principal = principal
        self.middleware = middleware
        self.replication_budget = replication_budget
        self.processing_delay = processing_delay
        self.threads_spawned = 0
        self.blocked_threads = 0

    def spawn(self, process: Process) -> None:
        """Schedule ``process`` for execution on this node."""

        self.threads_spawned += 1
        if isinstance(process, Inaction):
            return  # nil needs no thread: nothing to run, nothing to wait on
        self.middleware.simulator.schedule(
            self.processing_delay, lambda: self._execute(process)
        )

    def spawn_group(self, processes: list[Process]) -> None:
        """Schedule a run of processes as one batched event.

        The deployment layer hands over each principal's consecutive
        normal-form components in one call, so placing a 100k-component
        parallel composition costs one scheduler event rather than one
        heap push per component.  Under a positive processing delay this
        degrades to one :meth:`spawn` per component, so every component
        pays the delay on its own event.
        """

        if self.processing_delay > 0.0:
            for process in processes:
                self.spawn(process)
            return
        worklist: deque[Process] = deque()
        for process in processes:
            self.threads_spawned += 1
            if not isinstance(process, Inaction):
                worklist.append(process)
        if worklist:
            self.middleware.simulator.schedule(
                0.0, lambda: self._drain(worklist)
            )

    def _execute(self, process: Process) -> None:
        if self.processing_delay > 0.0:
            # every tree node pays the delay on its own event; batching
            # would fuse the per-node processing cost away
            self._interpret(process, self.spawn)
            return
        self._drain(deque((process,)))

    def _drain(self, worklist: deque[Process]) -> None:
        """Interpret worklist nodes breadth-first, up to one batch."""

        def emit(child: Process) -> None:
            self.threads_spawned += 1
            if type(child) is not Inaction:
                worklist.append(child)

        budget = DEFAULT_BATCH_LIMIT
        while worklist:
            if budget <= 0:
                self.middleware.simulator.schedule(
                    0.0, lambda: self._drain(worklist)
                )
                return
            budget -= 1
            process = worklist.popleft()
            if type(process) is Match:
                # inlined: guards are the most frequent interior node
                # and pay neither the dispatch nor the emit closure
                left, right = process.left, process.right
                if type(left) is AnnotatedValue and type(right) is AnnotatedValue:
                    chosen = (
                        process.then_branch
                        if _values_equal(left, right)
                        else process.else_branch
                    )
                else:
                    chosen = self._match_choose(process)
                self.threads_spawned += 1
                if type(chosen) is not Inaction:
                    worklist.append(chosen)
                continue
            self._interpret(process, emit)

    def _interpret(
        self, process: Process, emit: Callable[[Process], None]
    ) -> None:
        """Run one process-tree node; hand continuations to ``emit``.

        Dispatch is on the exact term class: process terms are final
        frozen dataclasses, and ``type(p) is Output`` skips the ABC
        ``__instancecheck__`` an ``isinstance`` chain would pay on every
        interpreted node (isinstance remains the fallback, so a hybrid
        term still gets a diagnostic rather than a misdispatch).
        """

        kind = type(process)
        if kind is Inaction:
            return
        if kind is Match:
            self._execute_match(process, emit)
            return
        if kind is Output:
            self._execute_output(process)
            return
        if kind is InputSum:
            self._execute_input(process)
            return
        if kind is Parallel:
            for part in process.parts:
                emit(part)
            return
        if kind is Restriction:
            fresh = self.middleware.supply.fresh_channel(process.channel)
            emit(rename_free_channel(process.body, process.channel, fresh))
            return
        if kind is Replication:
            for _ in range(self.replication_budget):
                emit(process.body)
            return
        self._interpret_slow(process, emit)

    def _interpret_slow(
        self, process: Process, emit: Callable[[Process], None]
    ) -> None:
        if isinstance(process, Inaction):
            return
        if isinstance(process, Parallel):
            for part in process.parts:
                emit(part)
            return
        if isinstance(process, Restriction):
            fresh = self.middleware.supply.fresh_channel(process.channel)
            emit(rename_free_channel(process.body, process.channel, fresh))
            return
        if isinstance(process, Replication):
            for _ in range(self.replication_budget):
                emit(process.body)
            return
        if isinstance(process, Output):
            self._execute_output(process)
            return
        if isinstance(process, InputSum):
            self._execute_input(process)
            return
        if isinstance(process, Match):
            self._execute_match(process, emit)
            return
        raise SimulationError(f"cannot execute {process!r}")

    def _execute_output(self, process: Output) -> None:
        channel = process.channel
        if not isinstance(channel, AnnotatedValue):
            raise OpenTermError({channel}, f"output at {self.principal}")
        payload = []
        for component in process.payload:
            if not isinstance(component, AnnotatedValue):
                raise OpenTermError({component}, f"output at {self.principal}")
            payload.append(component)
        self.middleware.send(self.principal, channel, tuple(payload))

    def _match_choose(self, process: Match) -> Process:
        left, right = process.left, process.right
        if type(left) is not AnnotatedValue and not isinstance(
            left, AnnotatedValue
        ):
            raise OpenTermError({left, right}, f"match at {self.principal}")
        if type(right) is not AnnotatedValue and not isinstance(
            right, AnnotatedValue
        ):
            raise OpenTermError({left, right}, f"match at {self.principal}")
        if _values_equal(left, right):
            return process.then_branch
        return process.else_branch

    def _execute_match(
        self, process: Match, emit: Callable[[Process], None]
    ) -> None:
        emit(self._match_choose(process))

    def _execute_input(self, input_sum: InputSum) -> None:
        channel = input_sum.channel
        if not isinstance(channel, AnnotatedValue):
            raise OpenTermError({channel}, f"input at {self.principal}")
        self.blocked_threads += 1
        # the middleware holds waiting receivers, and this node holds the
        # middleware: the callbacks reach the node weakly, or every
        # receiver still waiting when the run ends would close a cycle
        node = weakref.ref(self)
        branches = []
        for branch in input_sum.branches:
            nil_continuation = isinstance(branch.continuation, Inaction)

            def fire(
                branch_index: int,
                values: tuple[AnnotatedValue, ...],
                *,
                _branch=branch,
                _nil=nil_continuation,
            ) -> None:
                owner = node()
                owner.blocked_threads -= 1
                if _nil:
                    # substituting into 0 yields 0: spawn() counts the
                    # thread and schedules nothing
                    owner.spawn(_branch.continuation)
                    return
                mapping = dict(zip(_branch.binders, values))
                owner.spawn(substitute(_branch.continuation, mapping))

            branches.append(ReceiveBranch(branch.patterns, fire))
        self.middleware.receive(self.principal, channel, tuple(branches))
