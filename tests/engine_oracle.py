"""From-scratch run loops: the reference for the incremental engines.

:meth:`Engine.run <repro.core.engine.Engine.run>` and
:meth:`MonitoredEngine.run <repro.monitor.monitored.MonitoredEngine.run>`
keep the system in an :class:`~repro.core.incremental.IncrementalReducer`
and re-index only what a fired step touched.  These loops are the
reading they replaced: re-normalize and re-enumerate every redex at
every step, through the stateless :meth:`Engine.step` and
:func:`~repro.monitor.monitored.monitored_steps`.  The differential tests
and the engine-scaling bench require identical traces (labels,
intermediate systems with their fresh names, statuses) under every
strategy.  It is test-only: nothing in ``src/`` imports it.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.engine import Engine, RunStatus, Trace, TraceEntry
from repro.core.semantics import ReductionStep
from repro.core.system import System
from repro.monitor.monitored import (
    MonitoredEngine,
    MonitoredStep,
    MonitoredSystem,
    MonitoredTrace,
    StateObserver,
    monitored_steps,
)


def from_scratch_run(
    engine: Engine,
    system: System,
    max_steps: Optional[int] = None,
    stop_when: Optional[Callable[[System], bool]] = None,
) -> Trace:
    """``engine.run(system, max_steps, stop_when)``, one full enumeration per step."""

    budget = engine.max_steps if max_steps is None else max_steps
    entries: list[TraceEntry] = []

    def stopped(current: System) -> Trace:
        status = RunStatus.STOPPED if engine.steps(current) else RunStatus.QUIESCENT
        return Trace(system, tuple(entries), status)

    current = system
    if stop_when is not None and stop_when(current):
        return stopped(current)
    for step_number in range(budget):
        chosen = engine.step(current, step_number)
        if chosen is None:
            return Trace(system, tuple(entries), RunStatus.QUIESCENT)
        entries.append(TraceEntry(chosen.label, chosen.target))
        current = chosen.target
        if stop_when is not None and stop_when(current):
            return stopped(current)
    return Trace(system, tuple(entries), RunStatus.MAX_STEPS)


def from_scratch_monitored_run(
    engine: MonitoredEngine,
    monitored: MonitoredSystem,
    max_steps: Optional[int] = None,
    state_observer: Optional[StateObserver] = None,
) -> MonitoredTrace:
    """``engine.run(...)`` via :func:`monitored_steps` at every step.

    The observer gets ``None`` for the components: this loop holds no
    normal form to hand over.
    """

    budget = engine.max_steps if max_steps is None else max_steps
    if state_observer is not None:
        state_observer(monitored, None)
    entries: list[MonitoredStep] = []
    current = monitored
    for step_number in range(budget):
        steps = monitored_steps(current, engine.mode)
        if not steps:
            return MonitoredTrace(monitored, tuple(entries), RunStatus.QUIESCENT)
        chosen = steps[
            engine.strategy.choose(
                [ReductionStep(s.label, s.target.system) for s in steps],
                step_number,
            )
        ]
        entries.append(chosen)
        current = chosen.target
        if state_observer is not None:
            state_observer(current, None)
    return MonitoredTrace(monitored, tuple(entries), RunStatus.MAX_STEPS)


def run_path(
    engine: Engine, system: System, incremental: bool, **kwargs
) -> Trace:
    """``engine.run`` when ``incremental``, else :func:`from_scratch_run`."""

    if incremental:
        return engine.run(system, **kwargs)
    return from_scratch_run(engine, system, **kwargs)
