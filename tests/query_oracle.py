"""Reference answers for the query index's why-queries.

:class:`~repro.query.index.ProvenanceIndex` answers happens-before and
the all-kinds cone of influence from per-delivery vector clocks, and
the minimal witness from a per-pattern memo over the spine.  This
module keeps the direct readings they are differentially tested
against:

* :func:`happens_before` — a backward walk over the labelled
  happens-before edges from ``later``, looking for ``earlier``;
* :func:`cone_of_influence` — the backward closure over the edges of
  the given kinds;
* :func:`minimal_witness` — one longest-first sweep over every suffix
  of the spine, keeping the last suffix the engine admits.

They read only the index's public graph (``predecessors``) and
``PolicyEngine.admits``.  ``tests/test_query_index.py`` and the E24
bench (``bench_query_layer.py``) compare against them.  It is
test-only: nothing in ``src/`` imports it.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.patterns import Pattern
from repro.core.provenance import Provenance
from repro.patterns.dfa import PolicyEngine
from repro.query.index import EDGE_KINDS


def happens_before(index, earlier: int, later: int) -> bool:
    """Is there a happens-before path ``earlier → … → later``?"""

    if earlier == later:
        return False
    seen = {later}
    frontier = [later]
    while frontier:
        current = frontier.pop()
        for _, source in index.predecessors(current):
            if source == earlier:
                return True
            if source not in seen:
                seen.add(source)
                frontier.append(source)
    return False


def cone_of_influence(
    index, ordinal: int, kinds: Tuple[str, ...] = EDGE_KINDS
) -> Tuple[int, ...]:
    """Every delivery with a path of ``kinds`` edges into ``ordinal``."""

    wanted = frozenset(kinds)
    seen = {ordinal}
    frontier = [ordinal]
    while frontier:
        current = frontier.pop()
        for kind, source in index.predecessors(current):
            if kind in wanted and source not in seen:
                seen.add(source)
                frontier.append(source)
    seen.discard(ordinal)
    return tuple(sorted(seen))


def minimal_witness(
    provenance: Provenance,
    pattern: Pattern,
    engine: Optional[PolicyEngine] = None,
) -> Optional[Provenance]:
    """The shortest suffix satisfying ``pattern``, or ``None``."""

    admits = (engine if engine is not None else PolicyEngine()).admits
    witness: Optional[Provenance] = None
    for suffix in provenance.suffixes():
        if admits(suffix, pattern):
            witness = suffix
    return witness
