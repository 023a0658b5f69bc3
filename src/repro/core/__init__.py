"""Kernel of the provenance calculus.

Re-exports the types and functions a typical user needs; the individual
modules remain importable for the long tail.
"""

from repro.core.builder import (
    av,
    branch,
    ch,
    choice,
    inp,
    located,
    match,
    msg,
    new,
    nil,
    out,
    par,
    pr,
    rep,
    sys_new,
    sys_par,
    var,
)
from repro.core.congruence import (
    NormalForm,
    alpha_equivalent,
    canonical,
    normalize,
    to_system,
)
from repro.core.engine import (
    Engine,
    FirstStrategy,
    LastStrategy,
    PriorityStrategy,
    ProgressStrategy,
    RandomStrategy,
    RunStatus,
    Strategy,
    Trace,
    TraceEntry,
    run,
)
from repro.core.errors import (
    IllFormedTermError,
    OpenTermError,
    ParseError,
    PatternArityError,
    ReductionError,
    ReproError,
)
from repro.core.explore import LTS, Transition, explore, reachable_systems
from repro.core.names import Channel, NameSupply, Principal, Variable, freshen
from repro.core.patterns import MatchAll, MatchNone, Pattern
from repro.core.process import (
    Inaction,
    InputBranch,
    InputSum,
    Match,
    Output,
    Parallel,
    Process,
    Replication,
    Restriction,
    annotated_values,
    free_channels,
    free_variables,
    parallel,
    process_size,
)
from repro.core.provenance import EMPTY, Event, InputEvent, OutputEvent, Provenance
from repro.core.semantics import (
    MatchLabel,
    ReceiveLabel,
    ReductionStep,
    SemanticsMode,
    SendLabel,
    StepLabel,
    enumerate_steps,
)
from repro.core.substitution import substitute
from repro.core.system import (
    Located,
    Message,
    SysParallel,
    SysRestriction,
    System,
    system_annotated_values,
    system_free_channels,
    system_free_variables,
    system_parallel,
    system_principals,
    system_size,
)
from repro.core.values import AnnotatedValue, Identifier, annotate, plain

__all__ = [name for name in dir() if not name.startswith("_")]
