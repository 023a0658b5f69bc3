"""The pattern-language parameter of the calculus (Definition 1).

The paper deliberately leaves the pattern language abstract: a *pattern
matching language* is any pair ``(Π, ⊨)`` of a set of patterns and a
satisfaction relation between provenance sequences and patterns.  The
calculus — syntax, reduction semantics, meta-theory — is parametric in this
choice.

We realize the parameter as an abstract base class :class:`Pattern` whose
instances decide their own satisfaction.  The sample language of Table 3
lives in :mod:`repro.patterns` and is the default used by the concrete
syntax; its patterns decide through the lazy-DFA
:class:`~repro.patterns.dfa.PolicyEngine`, whose ``admits`` is the one
dispatch the runtime and the query layers use for any pattern.  The
reduction engine only ever calls :meth:`Pattern.matches`, so swapping
languages requires no engine changes.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.core.provenance import Provenance

__all__ = [
    "Pattern",
    "MatchAll",
    "MatchNone",
]


class Pattern(abc.ABC):
    """A pattern ``π ∈ Π``; subclasses must be immutable and hashable.

    Immutability matters because patterns are embedded in process ASTs,
    which are frozen and shared across reduction steps.
    """

    @abc.abstractmethod
    def matches(self, provenance: Provenance) -> bool:
        """Decide ``κ ⊨ π`` for this pattern."""

    def __call__(self, provenance: Provenance) -> bool:
        return self.matches(provenance)


@dataclass(frozen=True, slots=True)
class MatchAll(Pattern):
    """The trivially satisfied pattern.

    Using ``MatchAll`` in every input recovers the plain asynchronous
    pi-calculus with explicit identities: provenance is still tracked but
    never vetted.  The erased-baseline benchmarks rely on this.
    """

    def matches(self, provenance: Provenance) -> bool:
        return True

    def __str__(self) -> str:
        return "any"


@dataclass(frozen=True, slots=True)
class MatchNone(Pattern):
    """The unsatisfiable pattern — useful for tests and dead branches."""

    def matches(self, provenance: Provenance) -> bool:
        return False

    def __str__(self) -> str:
        return "none"
