"""Online monitoring: incremental correctness/completeness checking.

Theorem 1 makes ``⟦V : κ⟧ ⪯ log(M)`` the invariant a monitor must decide
at *every* state of a ``→m`` run — and a batch :func:`check_correctness`
at every state restates everything from scratch: it re-normalizes the
system, re-collects ``values(M)``, re-denotes every provenance and re-runs
every ``⪯`` search, even though a step changes at most two components and
only ever *prepends* to the global log.  :class:`OnlineChecker` is the
incremental version.  Three observations make it sound:

* **⪯ is monotone under log growth** (LEQ-Pre2 plus transitivity): once
  ``⟦V : κ⟧ ⪯ φ`` holds it holds for every extension ``α; φ`` — so a
  *positive* correctness verdict, cached under the value's
  interned-provenance identity (O(1) per PR 2), never needs re-checking
  while the same log lineage keeps growing.  Only new values and previous
  failures are re-searched.
* **Completeness is the mirror image** (the Proposition 3 caveat): a run
  that keeps reducing keeps *adding* facts the provenance of an untouched
  value cannot mention, so ``log(M) ⪯ ⟦V : κ⟧`` can flip from true to
  false as the log grows — positive verdicts are unstable and must be
  re-checked each step.  What *is* stable is failure: ``φ ⪯̸ δ`` implies
  ``α; φ ⪯̸ δ`` (``φ ⪯ α; φ`` would otherwise contradict transitivity),
  so in completeness mode the checker caches *negative* verdicts instead.
* **The state only changes where the step fired**: fed from the
  incremental reducer's persistent normal form, value collection reuses
  per-component caches — identity-stable for every component a step did
  not touch — instead of a full ``normalize`` + ``monitored_values``
  re-traversal.

The global log is indexed once by a :class:`~repro.logs.order.LogIndex`
and extended in O(new actions) per step; denotations are canonical per
``(value, provenance)`` pair and cached, entering the search pre-
freshened.  If a caller hands states from an unrelated log lineage (the
new log is not an extension of the last one seen), the verdict caches are
invalidated wholesale — correctness over arbitrary state sequences,
incrementality only along genuine runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.core.congruence import normal_form_of
from repro.core.system import System
from repro.logs.ast import Log, chain_prefix
from repro.logs.denotation import canonical_denotation
from repro.logs.order import LogIndex, freshen_log
from repro.monitor.checker import CheckReport, ValueCheck, component_values
from repro.monitor.monitored import (
    MonitoredEngine,
    MonitoredSystem,
    MonitoredTrace,
)

__all__ = ["OnlineChecker", "OnlineRunReport", "run_checked"]

CORRECTNESS = "correctness"
COMPLETENESS = "completeness"


class OnlineChecker:
    """Incrementally re-decides Definition 3 (or 4) along a monitored run.

    Call :meth:`check` on successive states of a run; each call returns a
    :class:`CheckReport` equal — verdicts, order, denotations — to what
    the batch checker would produce for that state, at the cost of only
    the step's delta.  A fresh instance is stateless-equivalent to the
    batch checker on any single state.
    """

    def __init__(self, definition: str = CORRECTNESS) -> None:
        if definition not in (CORRECTNESS, COMPLETENESS):
            raise ValueError(
                f"definition must be {CORRECTNESS!r} or {COMPLETENESS!r}, "
                f"got {definition!r}"
            )
        self.definition = definition
        self._log_index: LogIndex | None = None
        self._last_log: Log | None = None
        # Monotone verdicts, cached as finished ValueChecks: holds=True
        # keys for correctness (LEQ-Pre2 stability), holds=False keys for
        # completeness (its dual).
        self._settled_checks: dict[tuple, ValueCheck] = {}
        self._denotations: dict[tuple, Log] = {}
        self._denotation_indexes: dict[tuple, LogIndex] = {}
        # id(component) → [component, pairs, settled ValueChecks|None,
        # generation] — the per-component collection *and* finished checks
        # survive for every component a step leaves untouched.
        self._components: dict[int, list] = {}
        self._generation = 0
        self.leq_queries = 0
        """⪯ searches actually performed (cache misses) — the
        deterministic work measure the E11 gate reports alongside wall
        clock: the batch checker performs one per value per state."""

    def reset(self) -> None:
        """Forget everything (new run, new lineage)."""

        self._log_index = None
        self._last_log = None
        self._settled_checks.clear()
        self._denotations.clear()
        self._denotation_indexes.clear()
        self._components.clear()
        self._generation += 1

    # -- value collection ---------------------------------------------------

    def _component_entries(
        self,
        monitored: MonitoredSystem,
        components: Sequence[System] | None,
    ) -> Iterator[list]:
        """Per-component cache entries, in component order.

        Collection is cached per component *object*: fed from the
        incremental engine, a step invalidates only the entries of the
        components it consumed or produced.  The cache holds strong
        references (so ``id`` cannot be recycled under it) and is pruned
        to the live component set every call.
        """

        if components is None:
            components = normal_form_of(monitored.system).components
        previous = self._components
        current: dict[int, list] = {}
        for component in components:
            key = id(component)
            entry = previous.get(key)
            if entry is None or entry[0] is not component:
                entry = [component, tuple(component_values(component)), None, -1]
            current[key] = entry
            yield entry
        self._components = current

    # -- checking -----------------------------------------------------------

    def check(
        self,
        monitored: MonitoredSystem,
        components: Sequence[System] | None = None,
    ) -> CheckReport:
        """The state's full report, computed from the run's delta.

        ``components`` — the state's normal-form components if the caller
        already has them (:class:`MonitoredEngine` hands them to its
        ``state_observer`` on the incremental path); otherwise they are
        recovered from the system, free of charge when it is already in
        normal form.
        """

        if self.definition == CORRECTNESS:
            return self._check_correctness(monitored, components)
        return self._check_completeness(monitored, components)

    def _denotation_of(self, key: tuple) -> Log:
        denotation = self._denotations.get(key)
        if denotation is None:
            denotation = canonical_denotation(*key)
            self._denotations[key] = denotation
        return denotation

    def _check_correctness(
        self,
        monitored: MonitoredSystem,
        components: Sequence[System] | None,
    ) -> CheckReport:
        index = self._log_index
        if index is None or not index.try_extend(monitored.log):
            index = LogIndex(monitored.log)
            self._log_index = index
            self._settled_checks.clear()  # new lineage: monotonicity void
            self._generation += 1

        def decide(pair: tuple) -> tuple[Log, bool]:
            denotation = self._denotation_of(pair)
            self.leq_queries += 1
            return denotation, index.leq(denotation, assume_fresh=True)

        # Positive verdicts are the stable ones (LEQ-Pre2).
        return self._run_checks(monitored, components, decide, settle_on=True)

    def _check_completeness(
        self,
        monitored: MonitoredSystem,
        components: Sequence[System] | None,
    ) -> CheckReport:
        log = monitored.log
        if self._last_log is None or chain_prefix(log, self._last_log) is None:
            self._settled_checks.clear()
            self._generation += 1
        self._last_log = log
        # The left side of every query this state: freshened on first
        # use only — once all verdicts are settled-False no query runs,
        # and the O(log) freshening would dominate the fast path.
        fresh_log: Log | None = None

        def decide(pair: tuple) -> tuple[Log, bool]:
            nonlocal fresh_log
            denotation = self._denotation_of(pair)
            denotation_index = self._denotation_indexes.get(pair)
            if denotation_index is None:
                denotation_index = LogIndex(denotation)
                self._denotation_indexes[pair] = denotation_index
            if fresh_log is None:
                fresh_log = freshen_log(log, "_l")
            self.leq_queries += 1
            return denotation, denotation_index.leq(fresh_log, assume_fresh=True)

        # Refutations are the stable ones (the Proposition 3 dual).
        return self._run_checks(monitored, components, decide, settle_on=False)

    def _run_checks(
        self,
        monitored: MonitoredSystem,
        components: Sequence[System] | None,
        decide,
        settle_on: bool,
    ) -> CheckReport:
        """The shared caching protocol around one verdict per pair.

        ``decide(pair)`` performs the actual ⪯ query; a verdict equal to
        ``settle_on`` is monotone along the current lineage and is cached
        as a finished :class:`ValueCheck`, and a component whose pairs
        all settled reuses its whole check tuple until the lineage
        breaks (``self._generation`` moves).
        """

        settled_checks = self._settled_checks
        generation = self._generation
        checks: list[ValueCheck] = []
        for entry in self._component_entries(monitored, components):
            if entry[3] == generation:
                checks.extend(entry[2])
                continue
            group: list[ValueCheck] = []
            stable = True
            for pair in entry[1]:
                check = settled_checks.get(pair)
                if check is None:
                    denotation, holds = decide(pair)
                    check = ValueCheck(pair[0], pair[1], denotation, holds)
                    if holds == settle_on:
                        settled_checks[pair] = check
                    else:
                        stable = False  # unstable verdicts re-check next state
                group.append(check)
            if stable:
                entry[2] = tuple(group)
                entry[3] = generation
            checks.extend(group)
        return CheckReport(tuple(checks))


@dataclass(frozen=True, slots=True)
class OnlineRunReport:
    """A whole monitored run, checked at every state."""

    trace: MonitoredTrace
    reports: tuple[CheckReport, ...]
    """One report per state: the initial state, then one per fired step."""

    @property
    def holds(self) -> bool:
        """Did the checked definition hold at every state of the run?"""

        return all(report.holds for report in self.reports)

    def first_failure(self) -> tuple[int, CheckReport] | None:
        """The earliest failing state's index and report, if any."""

        for state_number, report in enumerate(self.reports):
            if not report.holds:
                return state_number, report
        return None


def run_checked(
    monitored: MonitoredSystem,
    engine: MonitoredEngine | None = None,
    checker: OnlineChecker | None = None,
    max_steps: int | None = None,
) -> OnlineRunReport:
    """Run ``→m`` to quiescence, checking every state online.

    The whole-run equivalent of calling the batch checker on every state
    of a finished trace — same verdicts (property-tested), one order of
    magnitude cheaper (benchmark E11's online gate): the engine reduces
    incrementally, the checker extends its log index per step and
    re-decides ``⪯`` only for values the step changed.
    """

    engine = engine or MonitoredEngine()
    checker = checker or OnlineChecker()
    reports: list[CheckReport] = []

    def observe(state: MonitoredSystem, components) -> None:
        reports.append(checker.check(state, components))

    trace = engine.run(monitored, max_steps=max_steps, state_observer=observe)
    return OnlineRunReport(trace, tuple(reports))
