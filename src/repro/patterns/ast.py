"""AST of the sample pattern matching language (Table 3).

The grammar::

    π ::= ε  |  α  |  π;π  |  π ∨ π  |  π*  |  Any
    α ::= G!π  |  G?π
    G ::= a  |  ∼  |  G + G  |  G − G

Patterns are regular expressions whose alphabet letters are *event tests*:
an event ``a!κ`` matches ``G!π`` when ``a ∈ ⟦G⟧`` and, recursively, the
channel provenance ``κ`` matches ``π``.  Group expressions denote sets of
principals: ``∼`` is the set of *all* principals (co-finite sets arise via
``G − G``), so groups expose a membership test rather than a materialized
set.

Every node implements the core :class:`~repro.core.patterns.Pattern`
interface; :meth:`matches` asks the process-wide lazy-DFA engine
(:func:`repro.patterns.dfa.default_engine`), the one decision procedure
for ``κ ⊨ π``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.core.names import Principal
from repro.core.patterns import Pattern
from repro.core.provenance import Provenance

__all__ = [
    "Group",
    "GroupSingle",
    "GroupAll",
    "GroupUnion",
    "GroupDifference",
    "SamplePattern",
    "Empty",
    "AnyPattern",
    "EventPattern",
    "Sequence",
    "Alternation",
    "Repetition",
    "seq",
    "alt",
    "sent_by",
    "received_by",
]


class Group(abc.ABC):
    """A group expression ``G`` denoting a set of principals."""

    __slots__ = ()

    @abc.abstractmethod
    def contains(self, principal: Principal) -> bool:
        """Membership test ``a ∈ ⟦G⟧``."""

    @abc.abstractmethod
    def mentioned(self) -> frozenset[Principal]:
        """The principals named syntactically in the expression.

        Together with :meth:`contains` this suffices to reason about a
        group exactly: ``⟦G⟧`` is determined by membership of the
        mentioned principals plus the membership of any one fresh
        principal (all unmentioned principals behave alike).
        """


@dataclass(frozen=True, slots=True)
class GroupSingle(Group):
    """``a`` — the singleton group."""

    principal: Principal

    def contains(self, principal: Principal) -> bool:
        return principal == self.principal

    def mentioned(self) -> frozenset[Principal]:
        return frozenset((self.principal,))

    def __str__(self) -> str:
        return self.principal.name


@dataclass(frozen=True, slots=True)
class GroupAll(Group):
    """``∼`` — all principals."""

    def contains(self, principal: Principal) -> bool:
        return True

    def mentioned(self) -> frozenset[Principal]:
        return frozenset()

    def __str__(self) -> str:
        return "~"


@dataclass(frozen=True, slots=True)
class GroupUnion(Group):
    """``G + G'`` — union."""

    left: Group
    right: Group

    def contains(self, principal: Principal) -> bool:
        return self.left.contains(principal) or self.right.contains(principal)

    def mentioned(self) -> frozenset[Principal]:
        return self.left.mentioned() | self.right.mentioned()

    def __str__(self) -> str:
        return f"({self.left}+{self.right})"


@dataclass(frozen=True, slots=True)
class GroupDifference(Group):
    """``G − G'`` — difference (enables co-finite groups like ``∼ − a``)."""

    left: Group
    right: Group

    def contains(self, principal: Principal) -> bool:
        return self.left.contains(principal) and not self.right.contains(
            principal
        )

    def mentioned(self) -> frozenset[Principal]:
        return self.left.mentioned() | self.right.mentioned()

    def __str__(self) -> str:
        return f"({self.left}-{self.right})"


class SamplePattern(Pattern):
    """Base class of Table 3 patterns."""

    __slots__ = ()

    def matches(self, provenance: Provenance) -> bool:
        from repro.patterns.dfa import default_engine

        return default_engine().matches(provenance, self)

    def mentioned_principals(self) -> frozenset[Principal]:
        """Principals named anywhere in the pattern (for analyses)."""

        return frozenset()


@dataclass(frozen=True, slots=True)
class Empty(SamplePattern):
    """``ε`` — matches only the empty provenance."""

    def __str__(self) -> str:
        return "eps"


@dataclass(frozen=True, slots=True)
class AnyPattern(SamplePattern):
    """``Any`` — matches every provenance."""

    def __str__(self) -> str:
        return "any"


@dataclass(frozen=True, slots=True)
class EventPattern(SamplePattern):
    """``G!π`` (``direction='!'``) or ``G?π`` (``direction='?'``).

    Matches a *single* event whose principal is in ``⟦G⟧`` and whose
    channel provenance matches the nested ``channel_pattern``.
    """

    direction: str
    group: Group
    channel_pattern: SamplePattern

    def __post_init__(self) -> None:
        if self.direction not in ("!", "?"):
            raise ValueError(f"direction must be '!' or '?', got {self.direction!r}")

    def mentioned_principals(self) -> frozenset[Principal]:
        return self.group.mentioned() | self.channel_pattern.mentioned_principals()

    def __str__(self) -> str:
        inner = str(self.channel_pattern)
        if isinstance(self.channel_pattern, (Empty, AnyPattern, EventPattern)):
            return f"{self.group}{self.direction}{inner}"
        return f"{self.group}{self.direction}({inner})"


@dataclass(frozen=True, slots=True)
class Sequence(SamplePattern):
    """``π;π'`` — some split of the provenance matches the two parts."""

    left: SamplePattern
    right: SamplePattern

    def mentioned_principals(self) -> frozenset[Principal]:
        return (
            self.left.mentioned_principals()
            | self.right.mentioned_principals()
        )

    def __str__(self) -> str:
        return f"{self.left};{self.right}"


@dataclass(frozen=True, slots=True)
class Alternation(SamplePattern):
    """``π ∨ π'`` — either part matches the whole provenance."""

    left: SamplePattern
    right: SamplePattern

    def mentioned_principals(self) -> frozenset[Principal]:
        return (
            self.left.mentioned_principals()
            | self.right.mentioned_principals()
        )

    def __str__(self) -> str:
        return f"({self.left}|{self.right})"


@dataclass(frozen=True, slots=True)
class Repetition(SamplePattern):
    """``π*`` — zero or more consecutive chunks, each matching ``π``."""

    body: SamplePattern

    def mentioned_principals(self) -> frozenset[Principal]:
        return self.body.mentioned_principals()

    def __str__(self) -> str:
        if isinstance(self.body, (Empty, AnyPattern)):
            return f"{self.body}*"
        return f"({self.body})*"


def seq(*patterns: SamplePattern) -> SamplePattern:
    """Right-nested sequence of one or more patterns."""

    if not patterns:
        return Empty()
    result = patterns[-1]
    for pattern in reversed(patterns[:-1]):
        result = Sequence(pattern, result)
    return result


def alt(*patterns: SamplePattern) -> SamplePattern:
    """Right-nested alternation of one or more patterns."""

    if not patterns:
        raise ValueError("alternation of zero patterns")
    result = patterns[-1]
    for pattern in reversed(patterns[:-1]):
        result = Alternation(pattern, result)
    return result


def sent_by(group: Group | Principal, channel: SamplePattern | None = None) -> EventPattern:
    """Convenience: ``G!π`` with ``π`` defaulting to ``Any``."""

    if isinstance(group, Principal):
        group = GroupSingle(group)
    return EventPattern("!", group, channel or AnyPattern())


def received_by(
    group: Group | Principal, channel: SamplePattern | None = None
) -> EventPattern:
    """Convenience: ``G?π`` with ``π`` defaulting to ``Any``."""

    if isinstance(group, Principal):
        group = GroupSingle(group)
    return EventPattern("?", group, channel or AnyPattern())
