"""The sample pattern matching language of Table 3."""

from repro.patterns.ast import (
    Alternation,
    AnyPattern,
    Empty,
    EventPattern,
    Group,
    GroupAll,
    GroupDifference,
    GroupSingle,
    GroupUnion,
    Repetition,
    SamplePattern,
    Sequence,
    alt,
    received_by,
    sent_by,
    seq,
)
from repro.patterns.algebra import (
    AlgebraBudgetError,
    PatternAlgebra,
    default_algebra,
)
from repro.patterns.dfa import (
    LazyDFA,
    PolicyBank,
    PolicyEngine,
    default_engine,
)
from repro.patterns.nfa import NFA, compile_pattern, edge_accepts
from repro.patterns.parse import parse_group, parse_pattern

__all__ = [name for name in dir() if not name.startswith("_")]
