"""Provenance-based trust (§5, "adequacy" direction).

The paper's future-work section proposes using "information about the
role each principal played in getting a piece of data to its current
form … as a measure of how trustworthy a piece of data is likely to be".
This module implements that measure: a :class:`TrustModel` assigns each
principal a trust score in ``[0, 1]``; the trust of a value is the
aggregation of the scores of every principal its provenance implicates.

Aggregators:

* ``MIN``     — a chain is as trustworthy as its weakest link (default);
* ``PRODUCT`` — independent per-hop corruption probabilities;
* ``MEAN``    — a soft average, useful for ranking rather than gating.

:func:`trusted_group` bridges back into the calculus: it builds a Table 3
group expression covering exactly the sufficiently-trusted principals, so
a process can *enforce* a trust threshold with an input pattern.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.core.names import Principal
from repro.core.provenance import Provenance
from repro.core.values import AnnotatedValue
from repro.patterns.ast import Group, GroupSingle, GroupUnion

__all__ = ["Aggregation", "TrustModel", "trusted_group"]


class Aggregation(enum.Enum):
    """How per-principal scores combine into a value score."""

    MIN = "min"
    PRODUCT = "product"
    MEAN = "mean"


@dataclass(frozen=True, slots=True)
class TrustModel:
    """Per-principal trust scores with a default for strangers."""

    scores: Mapping[Principal, float] = field(default_factory=dict)
    default: float = 0.5
    aggregation: Aggregation = Aggregation.MIN
    include_channel_provenance: bool = True
    """Whether principals appearing only in nested channel provenances
    (they handled the *channel*, not the value) also count."""

    def __post_init__(self) -> None:
        for principal, score in self.scores.items():
            if not 0.0 <= score <= 1.0:
                raise ValueError(f"trust of {principal} out of range: {score}")
        if not 0.0 <= self.default <= 1.0:
            raise ValueError(f"default trust out of range: {self.default}")

    def trust_of(self, principal: Principal) -> float:
        return self.scores.get(principal, self.default)

    def _implicated(self, provenance: Provenance) -> frozenset[Principal]:
        if self.include_channel_provenance:
            # Memoized on the interned node once asked — O(1) per re-score.
            return provenance.principals()
        spine = frozenset(event.principal for event in provenance)
        return spine

    def score(self, provenance: Provenance) -> float:
        """The trust of a value with this provenance.

        The empty provenance scores 1.0: the value was created locally and
        no foreign principal has touched it — there is nobody to distrust.
        """

        principals = self._implicated(provenance)
        if not principals:
            return 1.0
        scores = [self.trust_of(principal) for principal in principals]
        if self.aggregation is Aggregation.MIN:
            return min(scores)
        if self.aggregation is Aggregation.PRODUCT:
            return math.prod(scores)
        return sum(scores) / len(scores)

    def value_score(self, value: AnnotatedValue) -> float:
        return self.score(value.provenance)

    def trusted(self, value: AnnotatedValue, threshold: float) -> bool:
        """Gate: does the value clear the trust threshold?"""

        return self.value_score(value) >= threshold

    def rank(
        self, values: Iterable[AnnotatedValue]
    ) -> list[tuple[AnnotatedValue, float]]:
        """Values sorted most-trusted first (stable on ties)."""

        scored = [(value, self.value_score(value)) for value in values]
        scored.sort(key=lambda pair: -pair[1])
        return scored


def trusted_group(
    model: TrustModel, principals: Iterable[Principal], threshold: float
) -> Group | None:
    """A group expression covering the principals clearing ``threshold``.

    Returns ``None`` when nobody qualifies (no Table 3 group denotes the
    empty set without naming a principal).  Feed the result into
    ``EventPattern("!", group, AnyPattern())`` to *enforce* the threshold
    in an input prefix.
    """

    qualifying = sorted(
        (p for p in principals if model.trust_of(p) >= threshold),
        key=lambda p: p.name,
    )
    if not qualifying:
        return None
    group: Group = GroupSingle(qualifying[0])
    for principal in qualifying[1:]:
        group = GroupUnion(group, GroupSingle(principal))
    return group
