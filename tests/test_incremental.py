"""Differential tests: the incremental engine vs the from-scratch oracle.

The incremental reducer promises to be *indistinguishable* from driving
``enumerate_steps`` at every state: same redexes, same order, same labels,
byte-identical target systems (fresh names included).  These tests check
that promise per-step over seeded random systems — replication,
restrictions, patterns, both semantics modes — and trace-for-trace over
every workload scenario under every strategy.
"""

import random

import pytest

from repro.core.engine import (
    Engine,
    FirstStrategy,
    LastStrategy,
    ProgressStrategy,
    RandomStrategy,
    RunStatus,
)
from repro.core.errors import OpenTermError, ReductionError
from repro.core.incremental import IncrementalReducer
from repro.core.semantics import SemanticsMode, enumerate_steps
from repro.lang import parse_system
from repro.workloads import (
    GeneratorConfig,
    competition,
    fan_in_fan_out,
    fan_out,
    market,
    random_system,
    relay_chain,
)
from repro.patterns.parse import parse_pattern
from tests.engine_oracle import from_scratch_run, run_path

CONFIGS = [
    GeneratorConfig(),
    GeneratorConfig(
        p_replication=0.25, p_restriction=0.3, n_components=6, n_messages=3
    ),
    GeneratorConfig(p_pattern=0.8, max_arity=3, n_messages=4),
]

SCENARIOS = {
    "relay-chain": lambda: relay_chain(6).system,
    "market": lambda: market(4, 3).system,
    "vetted-market": lambda: market(4, 3, parse_pattern("a1!any")).system,
    "fan-out": lambda: fan_out(6),
    "fan-in-fan-out": lambda: fan_in_fan_out(5).system,
    "competition": lambda: competition(2, 2).system,
    "replicated-publisher": lambda: parse_system(
        "a[*(pub<j>)] || b[m<v>] || c[m(x).0]"
    ),
    "replicated-restriction": lambda: parse_system(
        "a[*((new r)(m<r> | r(x).0))] || b[m(y).n<y>] || c[n(z).0]"
    ),
}

STRATEGIES = {
    "first": FirstStrategy,
    "last": LastStrategy,
    "random": lambda: RandomStrategy(17),
    "progress": ProgressStrategy,
}


def assert_step_lists_equal(pending, steps, context):
    incremental = [(p.label, p.from_replication, p.target) for p in pending]
    reference = [(s.label, s.from_replication, s.target) for s in steps]
    assert len(incremental) == len(reference), context
    for index, (got, want) in enumerate(zip(incremental, reference)):
        assert got[0] == want[0], f"{context}: label #{index}"
        assert got[1] == want[1], f"{context}: from_replication #{index}"
        assert got[2] == want[2], f"{context}: target #{index}"


class TestPerStepDifferential:
    """Same redex set as ``enumerate_steps`` after *every* step."""

    @pytest.mark.parametrize("config_index", range(len(CONFIGS)))
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize(
        "mode", [SemanticsMode.TRACKED, SemanticsMode.ERASED]
    )
    def test_random_runs(self, config_index, seed, mode):
        config = CONFIGS[config_index]
        system = random_system(seed + config_index * 1000, config)
        reducer = IncrementalReducer(system, mode)
        rng = random.Random(seed * 7 + 1)
        current = system
        for step in range(30):
            reference = enumerate_steps(current, mode)
            pending = reducer.redexes()
            assert_step_lists_equal(
                pending, reference, f"seed={seed} step={step}"
            )
            if not reference:
                break
            choice = rng.randrange(len(reference))
            fired = reducer.fire(pending[choice])
            assert fired.target == reference[choice].target
            assert fired.label == reference[choice].label
            current = fired.target

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_workload_scenarios(self, name):
        system = SCENARIOS[name]()
        reducer = IncrementalReducer(system)
        current = system
        for step in range(25):
            reference = enumerate_steps(current)
            pending = reducer.redexes()
            assert_step_lists_equal(pending, reference, f"{name} step={step}")
            if not reference:
                break
            fired = reducer.fire(pending[0])
            assert fired.target == reference[0].target
            current = fired.target


class TestTraceDifferential:
    """Identical traces (labels, systems, status) under every strategy."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    def test_workloads_all_strategies(self, name, strategy):
        system = SCENARIOS[name]()
        fast = Engine(strategy=STRATEGIES[strategy]()).run(
            system, max_steps=60
        )
        slow = from_scratch_run(
            Engine(strategy=STRATEGIES[strategy]()), system, max_steps=60
        )
        assert fast.status is slow.status
        assert fast.labels == slow.labels
        assert tuple(e.system for e in fast.entries) == tuple(
            e.system for e in slow.entries
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_random_systems_erased_mode(self, seed):
        system = random_system(seed, CONFIGS[1])
        fast = Engine(
            mode=SemanticsMode.ERASED, strategy=RandomStrategy(seed)
        ).run(system, max_steps=40)
        slow = from_scratch_run(
            Engine(mode=SemanticsMode.ERASED, strategy=RandomStrategy(seed)),
            system,
            max_steps=40,
        )
        assert fast.labels == slow.labels
        assert fast.final == slow.final
        assert fast.status is slow.status


class TestReducerBehaviour:
    def test_open_system_rejected_at_construction(self):
        from repro.core.builder import av, ch, located, pr, var
        from repro.core.process import Output

        open_system = located(pr("a"), Output(av(ch("m")), (var("x"),)))
        with pytest.raises(OpenTermError):
            IncrementalReducer(open_system)

    def test_stale_pending_step_rejected(self):
        reducer = IncrementalReducer(parse_system("a[m<v>] || b[m(x).0]"))
        first = reducer.redexes()[0]
        reducer.fire(first)
        with pytest.raises(ReductionError):
            reducer.fire(first)

    def test_view_is_lazy_and_sequence_like(self):
        reducer = IncrementalReducer(fan_out(5))
        view = reducer.redexes()
        assert view  # __bool__ materializes only the head
        assert len(view._buffer) == 1
        assert len(view) == 5  # the producer's five independent sends
        labels = [p.label for p in view]
        assert len(labels) == len(view)
        assert view[-1].label == labels[-1]

    def test_current_system_tracks_the_run(self):
        system = parse_system("a[m<v>] || b[m(x).n<x>] || a[n(y).0]")
        reducer = IncrementalReducer(system)
        fired = 0
        while True:
            view = reducer.redexes()
            if view.is_empty():
                break
            reducer.fire(view[0])
            fired += 1
        assert fired == 4
        assert reducer.steps_fired == 4
        assert not enumerate_steps(reducer.current_system())

    def test_observer_and_monitor_parity(self):
        seen_fast, seen_slow = [], []
        system = relay_chain(3).system
        Engine(observer=seen_fast.append).run(system)
        from_scratch_run(Engine(observer=seen_slow.append), system)
        assert [s.label for s in seen_fast] == [s.label for s in seen_slow]
        assert [s.target for s in seen_fast] == [s.target for s in seen_slow]


class TestStopWhenStatus:
    """Regression: ``stop_when`` must report QUIESCENT when nothing remains."""

    @pytest.mark.parametrize("incremental", [True, False])
    def test_predicate_at_quiescence_reports_quiescent(self, incremental):
        from repro.core.system import messages_of

        system = parse_system("a[m<v>] || b[m(x).0]")
        trace = run_path(
            Engine(),
            system,
            incremental,
            stop_when=lambda s: not list(messages_of(s))
            and "m<" not in str(s),
        )
        # the predicate fires on the final (quiescent) system
        assert trace.status is RunStatus.QUIESCENT

    @pytest.mark.parametrize("incremental", [True, False])
    def test_predicate_mid_run_reports_stopped(self, incremental):
        from repro.core.system import messages_of

        system = parse_system("a[m<v>] || b[m(x).0]")
        trace = run_path(
            Engine(),
            system,
            incremental,
            stop_when=lambda s: bool(list(messages_of(s))),
        )
        assert trace.status is RunStatus.STOPPED
        assert len(trace) == 1

    @pytest.mark.parametrize("incremental", [True, False])
    def test_immediately_true_predicate_on_quiescent_system(self, incremental):
        system = parse_system("a[0]")
        trace = run_path(
            Engine(), system, incremental, stop_when=lambda s: True
        )
        assert trace.status is RunStatus.QUIESCENT
        assert len(trace) == 0

    @pytest.mark.parametrize("incremental", [True, False])
    def test_immediately_true_predicate_on_live_system(self, incremental):
        system = parse_system("a[m<v>]")
        trace = run_path(
            Engine(), system, incremental, stop_when=lambda s: True
        )
        assert trace.status is RunStatus.STOPPED
        assert len(trace) == 0
