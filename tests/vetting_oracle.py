"""Per-message NFA vetting: the reference for the lazy-DFA policy bank.

The middleware vets sample patterns through a
:class:`~repro.patterns.dfa.PolicyEngine`, whose channel banks extend a
cached run by one transition per new spine event.  :class:`NFAPolicy`
is the reading that replaced: every vet re-simulates the pattern's
Thompson NFA over the whole spine (:class:`~repro.patterns.nfa.NFAMatcher`,
memoized per ``(provenance, pattern)``).  The differential tests and the
E18 bench (``bench_patterns_incremental.py``) require both to admit and
refuse the same messages.  It is test-only: nothing in ``src/`` imports it.

:func:`nfa_vetting` installs it by substituting the engine class the
middleware instantiates; middlewares (and inline shards) constructed
inside the ``with`` body vet through it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator

import repro.runtime.middleware as middleware_module
from repro.core.provenance import Provenance
from repro.patterns.ast import Pattern, SamplePattern
from repro.patterns.nfa import NFAMatcher


class NFAPolicy:
    """A :class:`PolicyEngine` stand-in that re-simulates an NFA per vet.

    Its "bank" for any pattern set is itself: there is no shared state
    vector to fuse.  ``transitions_taken`` counts spine events consumed
    by subset simulation (``NFAMatcher.events_stepped``), so the
    middleware's ``metrics.vet_transitions`` measures the same unit as
    on the bank path: one event consumed by one automaton.
    """

    def __init__(self) -> None:
        self.matcher = NFAMatcher()
        self.decisions = 0
        """Sample-pattern vets decided (memo hits included)."""

    @property
    def transitions_taken(self) -> int:
        return self.matcher.events_stepped

    @property
    def run_cache_hits(self) -> int:
        return self.matcher.decided_hits

    def matches(self, provenance: Provenance, pattern: SamplePattern) -> bool:
        self.decisions += 1
        return self.matcher.matches(provenance, pattern)

    admits = matches

    def bank(self, patterns: Iterable[Pattern]) -> "NFAPolicy":
        return self

    def discard_bank(self, patterns: Iterable[Pattern]) -> None:
        pass

    def stats(self) -> dict[str, int]:
        compiled, decided = self.matcher.cache_sizes()
        return {
            "transitions_taken": self.transitions_taken,
            "run_cache_hits": self.run_cache_hits,
            "patterns_compiled": compiled,
            "cached_runs": decided,
        }


@contextmanager
def nfa_vetting() -> Iterator[None]:
    """Build middlewares whose policy engine is an :class:`NFAPolicy`."""

    saved = middleware_module.PolicyEngine
    middleware_module.PolicyEngine = NFAPolicy
    try:
        yield
    finally:
        middleware_module.PolicyEngine = saved
