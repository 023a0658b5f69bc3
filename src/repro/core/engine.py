"""Execution engine: strategies, traces, and multi-step reduction.

The reduction relation is non-deterministic; an :class:`Engine` resolves
the choice with a pluggable :class:`Strategy` and records the run as a
:class:`Trace`.  All strategies are deterministic given their inputs (the
random strategy takes an explicit seed), so every run in the test-suite and
benchmarks is reproducible.

Incremental architecture
------------------------

``Engine.run`` hands the run to a
:class:`repro.core.incremental.IncrementalReducer`, which keeps the
system in a persistent normal form with channel-keyed indices (pending
messages by channel, enabled receivers by channel, cached send/match
redexes) so that after a fired step only the components it created or
consumed are re-indexed — O(affected) maintenance per step.  It shares
the per-component redex enumeration
(:func:`repro.core.semantics.component_redexes`) with the stateless
:meth:`Engine.steps`/:meth:`Engine.step`, which re-normalize and
re-enumerate every redex; the test suite pins that a run built from
those stateless steps is *trace-identical* (same labels, same
intermediate systems, fresh names included, same statuses) under every
strategy.  Strategies see lazily materialized step sequences, so a
strategy that only inspects the head (e.g. :class:`FirstStrategy`)
never forces the full redex list.
"""

from __future__ import annotations

import abc
import enum
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

from repro.core.semantics import (
    ReductionStep,
    SemanticsMode,
    StepLabel,
    enumerate_steps,
)
from repro.core.system import System

__all__ = [
    "Strategy",
    "FirstStrategy",
    "LastStrategy",
    "RandomStrategy",
    "PriorityStrategy",
    "ProgressStrategy",
    "RunStatus",
    "TraceEntry",
    "Trace",
    "Engine",
    "run",
]


class Strategy(abc.ABC):
    """Chooses which of the enabled redexes to fire."""

    @abc.abstractmethod
    def choose(self, steps: Sequence[ReductionStep], step_number: int) -> int:
        """Return the index of the chosen step (``0 ≤ index < len(steps)``)."""


class FirstStrategy(Strategy):
    """Always fire the first redex in enumeration order (deterministic)."""

    def choose(self, steps: Sequence[ReductionStep], step_number: int) -> int:
        return 0


class LastStrategy(Strategy):
    """Always fire the last redex — a cheap adversarial scheduler."""

    def choose(self, steps: Sequence[ReductionStep], step_number: int) -> int:
        return len(steps) - 1


class RandomStrategy(Strategy):
    """Uniformly random choice from a seeded generator."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def choose(self, steps: Sequence[ReductionStep], step_number: int) -> int:
        return self._rng.randrange(len(steps))


class PriorityStrategy(Strategy):
    """Prefer steps whose label satisfies a predicate; fall back to first.

    Useful in tests to drive a system down a particular schedule, e.g.
    "deliver every message before firing any if".
    """

    def __init__(self, prefer: Callable[[StepLabel], bool]) -> None:
        self._prefer = prefer

    def choose(self, steps: Sequence[ReductionStep], step_number: int) -> int:
        for index, step in enumerate(steps):
            if self._prefer(step.label):
                return index
        return 0


class ProgressStrategy(Strategy):
    """A fair scheduler for systems with replicated senders.

    Preference order: (1) any receive — messages in flight get consumed;
    (2) steps from ordinary (non-replicated) threads, rotating among them;
    (3) anything, rotating.  The rotation prevents an always-enabled
    replicated output (e.g. the competition's ``∗pub⟨y,z⟩`` publishers)
    from starving every other thread, which is exactly what happens with
    :class:`FirstStrategy` on such systems.
    """

    def __init__(self) -> None:
        self._rotation = 0

    def choose(self, steps: Sequence[ReductionStep], step_number: int) -> int:
        from repro.core.semantics import ReceiveLabel

        for index, step in enumerate(steps):
            if isinstance(step.label, ReceiveLabel):
                return index
        ordinary = [
            index for index, step in enumerate(steps) if not step.from_replication
        ]
        pool = ordinary if ordinary else list(range(len(steps)))
        self._rotation += 1
        return pool[self._rotation % len(pool)]


class RunStatus(enum.Enum):
    """How a run ended."""

    QUIESCENT = "quiescent"
    """No redex was enabled — the system terminated (or deadlocked)."""

    MAX_STEPS = "max-steps"
    """The step budget ran out while redexes were still enabled."""

    STOPPED = "stopped"
    """A ``stop_when`` predicate ended the run early."""


@dataclass(frozen=True, slots=True)
class TraceEntry:
    """One fired reduction: its label and the system it produced."""

    label: StepLabel
    system: System


@dataclass(frozen=True, slots=True)
class Trace:
    """A complete run: the initial system and every fired step."""

    initial: System
    entries: tuple[TraceEntry, ...]
    status: RunStatus

    @property
    def final(self) -> System:
        """The last system of the run."""

        if self.entries:
            return self.entries[-1].system
        return self.initial

    @property
    def labels(self) -> tuple[StepLabel, ...]:
        return tuple(entry.label for entry in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[TraceEntry]:
        return iter(self.entries)

    def __str__(self) -> str:
        lines = [f"initial: {self.initial}"]
        for index, entry in enumerate(self.entries):
            lines.append(f"  {index + 1}. --{entry.label}-->")
        lines.append(f"status: {self.status.value}")
        return "\n".join(lines)


class Engine:
    """Drives multi-step reduction under a mode and strategy.

    Parameters
    ----------
    mode:
        ``TRACKED`` (the paper's semantics, default) or ``ERASED`` (the
        plain asynchronous pi baseline).
    strategy:
        Redex-choice policy; defaults to :class:`FirstStrategy`.
    max_steps:
        Step budget for :meth:`run`; prevents divergent systems (e.g.
        replicated senders) from looping forever.
    observer:
        Optional callback invoked after every fired step with the chosen
        :class:`ReductionStep`; the monitored semantics and the metrics
        collectors hook in here.

    :meth:`run` uses the incremental reducer; :meth:`steps` and
    :meth:`step` are stateless and enumerate from scratch.
    """

    def __init__(
        self,
        mode: SemanticsMode = SemanticsMode.TRACKED,
        strategy: Strategy | None = None,
        max_steps: int = 10_000,
        observer: Callable[[ReductionStep], None] | None = None,
    ) -> None:
        self.mode = mode
        self.strategy = strategy or FirstStrategy()
        self.max_steps = max_steps
        self.observer = observer

    def steps(self, system: System) -> list[ReductionStep]:
        """Enumerate the redexes of ``system`` under the engine's mode."""

        return enumerate_steps(system, self.mode)

    def step(self, system: System, step_number: int = 0) -> Optional[ReductionStep]:
        """Fire one step chosen by the strategy; ``None`` if quiescent."""

        steps = self.steps(system)
        if not steps:
            return None
        chosen = steps[self.strategy.choose(steps, step_number)]
        if self.observer is not None:
            self.observer(chosen)
        return chosen

    def run(
        self,
        system: System,
        max_steps: int | None = None,
        stop_when: Callable[[System], bool] | None = None,
    ) -> Trace:
        """Reduce until quiescence or until the step budget is exhausted.

        ``stop_when`` ends the run early once the predicate holds of the
        current system — the idiom for systems that never quiesce (e.g.
        replicated publishers): run until every consumer has received.
        A run stopped by the predicate reports :data:`RunStatus.QUIESCENT`
        only if no redex remains; otherwise :data:`RunStatus.STOPPED`.
        """

        from repro.core.incremental import IncrementalReducer

        budget = self.max_steps if max_steps is None else max_steps
        reducer = IncrementalReducer(system, self.mode)
        entries: list[TraceEntry] = []
        if stop_when is not None and stop_when(system):
            status = (
                RunStatus.QUIESCENT
                if reducer.is_quiescent()
                else RunStatus.STOPPED
            )
            return Trace(system, tuple(entries), status)
        for step_number in range(budget):
            pending = reducer.redexes()
            if pending.is_empty():
                return Trace(system, tuple(entries), RunStatus.QUIESCENT)
            chosen = pending[self.strategy.choose(pending, step_number)]
            fired = reducer.fire(chosen)
            if self.observer is not None:
                self.observer(fired)
            entries.append(TraceEntry(fired.label, fired.target))
            if stop_when is not None and stop_when(fired.target):
                status = (
                    RunStatus.QUIESCENT
                    if reducer.is_quiescent()
                    else RunStatus.STOPPED
                )
                return Trace(system, tuple(entries), status)
        return Trace(system, tuple(entries), RunStatus.MAX_STEPS)


def run(
    system: System,
    *,
    mode: SemanticsMode = SemanticsMode.TRACKED,
    strategy: Strategy | None = None,
    max_steps: int = 10_000,
) -> Trace:
    """One-shot convenience wrapper around :class:`Engine`."""

    return Engine(mode=mode, strategy=strategy, max_steps=max_steps).run(system)
