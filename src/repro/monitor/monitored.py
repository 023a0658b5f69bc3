"""Monitored systems: the global-log semantics of Table 4.

A monitored system ``M = φ ▷ S`` pairs a system with a *global log* that
records every action as it happens.  The log is a proof artefact: no
principal can read it, it exists so that correctness and completeness of
provenance can be stated against a ground-truth record (§3.3).

Representation.  The paper's syntax allows restrictions outside the log
(``(νn)M``) so that channel scopes can extrude over it; those extruded
names appear *by name* in the log, while channels restricted inside ``S``
(still guarded, hence never yet used) do not.  Our reduction engine hoists
every active restriction to the top level of the system — structurally
congruent, by the ``≡m`` laws, to hoisting them over the log — so a
:class:`MonitoredSystem` is simply a log plus a system, and log actions
always record the actual (hoisted, renamed-apart) channel names.

Reduction ``→m`` (rules MR-Send, MR-Recv, MR-IFt, MR-IFf) performs exactly
the untracked reduction and additionally prepends the corresponding action
to the log; :func:`erase` forgets the log.  Proposition 2 — the two
semantics simulate each other through erasure — is checked property-style
in the test-suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from repro.core.engine import RunStatus, Strategy, FirstStrategy
from repro.core.semantics import (
    MatchLabel,
    ReceiveLabel,
    SemanticsMode,
    SendLabel,
    StepLabel,
    enumerate_steps,
)
from repro.core.system import System
from repro.logs.ast import Action, ActionKind, EMPTY_LOG, Log, LogAction

__all__ = [
    "MonitoredSystem",
    "MonitoredStep",
    "monitored_steps",
    "MonitoredTrace",
    "MonitoredEngine",
    "action_of_label",
    "erase",
]


@dataclass(frozen=True, slots=True)
class MonitoredSystem:
    """``φ ▷ S`` — a system observed by a global log."""

    log: Log
    system: System

    @staticmethod
    def start(system: System) -> "MonitoredSystem":
        """Begin monitoring with the empty log ``∅ ▷ S``."""

        return MonitoredSystem(EMPTY_LOG, system)

    def __str__(self) -> str:
        return f"{self.log} |> {self.system}"


@dataclass(frozen=True, slots=True)
class MonitoredStep:
    """One ``→m`` reduction: its recorded actions, label and target."""

    actions: tuple[Action, ...]
    label: StepLabel
    target: MonitoredSystem

    @property
    def action(self) -> Action:
        """The most recent of the recorded actions (convenience)."""

        return self.actions[0]


def actions_of_label(label: StepLabel) -> tuple[Action, ...]:
    """The global-log actions recorded for a reduction label.

    The paper's log actions are monadic — ``a.snd(V, V')`` speaks about
    one transmitted value.  A *polyadic* communication is therefore
    recorded as an atomic batch of monadic actions, one per payload
    component (their relative order inside the batch carries no
    information); the monadic case is a singleton batch, exactly MR-Send /
    MR-Recv.  An empty-payload send still records the bare channel use.
    MR-IFt/MR-IFf record ``a.ift(u, v)`` / ``a.iff(u, v)``.  Operands are
    the *plain* values — the log sees through annotations.
    """

    if isinstance(label, SendLabel):
        kind = ActionKind.SND
    elif isinstance(label, ReceiveLabel):
        kind = ActionKind.RCV
    elif isinstance(label, MatchLabel):
        match_kind = ActionKind.IFT if label.result else ActionKind.IFF
        return (Action(match_kind, label.principal, (label.left, label.right)),)
    else:
        raise TypeError(f"not a reduction label: {label!r}")
    if not label.values:
        return (Action(kind, label.principal, (label.channel,)),)
    return tuple(
        Action(kind, label.principal, (label.channel, value))
        for value in label.values
    )


def action_of_label(label: StepLabel) -> Action:
    """The first recorded action of a label (monadic convenience)."""

    return actions_of_label(label)[0]


def monitored_steps(
    monitored: MonitoredSystem,
    mode: SemanticsMode = SemanticsMode.TRACKED,
) -> list[MonitoredStep]:
    """All ``→m`` reductions of a monitored system.

    Each is an untracked reduction of the system part, with the matching
    actions prepended to the global log (the new actions become the root
    of the log tree: they are the most recent things that happened).
    """

    steps: list[MonitoredStep] = []
    for step in enumerate_steps(monitored.system, mode):
        actions = actions_of_label(step.label)
        log = monitored.log
        for action in reversed(actions):
            log = LogAction(action, log)
        target = MonitoredSystem(log, step.target)
        steps.append(MonitoredStep(actions, step.label, target))
    return steps


def erase(monitored: MonitoredSystem) -> System:
    """The log-erasure ``|M|`` (the paper's erasure function)."""

    return monitored.system


@dataclass(frozen=True, slots=True)
class MonitoredTrace:
    """A monitored run: initial state, fired steps, final status."""

    initial: MonitoredSystem
    entries: tuple[MonitoredStep, ...]
    status: RunStatus

    @property
    def final(self) -> MonitoredSystem:
        if self.entries:
            return self.entries[-1].target
        return self.initial

    def states(self) -> Iterator[MonitoredSystem]:
        """The initial state followed by every intermediate state."""

        yield self.initial
        for entry in self.entries:
            yield entry.target

    def __len__(self) -> int:
        return len(self.entries)


StateObserver = Callable[[MonitoredSystem, "Sequence[System] | None"], None]
"""Per-state hook of :meth:`MonitoredEngine.run`.

Called with the initial state and with every state a fired step produces.
The second argument is the state's normal-form components straight from
the reducer (no re-normalization needed — this is what the online
monitor feeds on); a caller without them at hand passes ``None`` and the
observer derives what it needs from the state itself.
"""


class MonitoredEngine:
    """Multi-step ``→m`` reduction under a strategy (cf. core ``Engine``).

    Like the core :class:`~repro.core.engine.Engine`, the run loop hands
    the system part to a :class:`~repro.core.incremental.IncrementalReducer`
    (persistent normal form, O(affected) redex maintenance) and conses
    the recorded actions onto the global log as steps fire.  The test
    suite pins it trace-identical to a run built from the stateless
    :func:`monitored_steps`.
    """

    def __init__(
        self,
        mode: SemanticsMode = SemanticsMode.TRACKED,
        strategy: Strategy | None = None,
        max_steps: int = 10_000,
    ) -> None:
        self.mode = mode
        self.strategy = strategy or FirstStrategy()
        self.max_steps = max_steps

    def run(
        self,
        monitored: MonitoredSystem,
        max_steps: int | None = None,
        state_observer: StateObserver | None = None,
    ) -> MonitoredTrace:
        from repro.core.incremental import IncrementalReducer

        budget = self.max_steps if max_steps is None else max_steps
        reducer = IncrementalReducer(monitored.system, self.mode)
        if state_observer is not None:
            state_observer(monitored, reducer.components())
        log = monitored.log
        entries: list[MonitoredStep] = []
        for step_number in range(budget):
            pending = reducer.redexes()
            if pending.is_empty():
                return MonitoredTrace(
                    monitored, tuple(entries), RunStatus.QUIESCENT
                )
            chosen = pending[self.strategy.choose(pending, step_number)]
            fired = reducer.fire(chosen)
            actions = actions_of_label(fired.label)
            for action in reversed(actions):
                log = LogAction(action, log)
            target = MonitoredSystem(log, fired.target)
            entries.append(MonitoredStep(actions, fired.label, target))
            if state_observer is not None:
                state_observer(target, reducer.components())
        return MonitoredTrace(monitored, tuple(entries), RunStatus.MAX_STEPS)
