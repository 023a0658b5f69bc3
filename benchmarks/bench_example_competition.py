"""E8 (§2.3.2 photography competition): the full workflow, scaled.

Runs the competition to all-served for growing casts and re-derives the
paper's κ'ei for every contestant.  Expected shape: steps scale linearly
in contestants (each adds a fixed routing/judging/publishing pipeline);
the provenance formulas hold at every scale.
"""

import pytest

from repro.core import Engine, ProgressStrategy
from repro.core.process import annotated_values
from repro.core.system import located_components
from repro.workloads import (
    all_contestants_served,
    competition,
    received_entry_provenance,
)

from conftest import record_row

CASTS = [(3, 2), (6, 3), (12, 4)]


def run_to_served(workload):
    engine = Engine(strategy=ProgressStrategy(), max_steps=50_000)
    return engine.run(workload.system, stop_when=all_contestants_served(workload))


@pytest.mark.parametrize("cast", CASTS, ids=lambda c: f"{c[0]}c{c[1]}j")
def test_competition_run(benchmark, cast):
    n_contestants, n_judges = cast

    def build_and_run():
        workload = competition(n_contestants, n_judges)
        return workload, run_to_served(workload)

    workload, trace = benchmark(build_and_run)
    record_row(
        "E8-competition",
        f"{n_contestants:2d} contestants / {n_judges} judges: "
        f"{len(trace):4d} reductions to all-served",
    )

    # paper formulas hold at every scale
    held = {}
    for component in located_components(trace.final):
        if component.principal in workload.contestants:
            for value in annotated_values(component.process):
                held.setdefault(component.principal, []).append(value)
    for index, contestant in enumerate(workload.contestants):
        expected = received_entry_provenance(
            contestant, workload.judge_of(index), workload.organiser
        )
        assert any(
            value.provenance == expected for value in held[contestant]
        ), f"{contestant} κ'ei mismatch at scale {cast}"


def test_routing_pattern_evaluation(benchmark):
    """The organiser's routing patterns across a full 12-contestant run
    (how much of the run is spent in ⊨ queries)."""

    workload = competition(12, 4)
    from repro.patterns.dfa import default_engine

    def queries() -> int:
        stats = default_engine().stats()
        return stats["run_cache_hits"] + stats["run_cache_misses"]

    def routed_run():
        return run_to_served(workload)

    before = queries()
    trace = benchmark(routed_run)
    assert trace.status.value == "stopped"
    # the run's ⊨ queries are decided by the process-wide policy engine
    assert queries() > before
