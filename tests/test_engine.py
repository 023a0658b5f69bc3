"""Tests for strategies, traces and multi-step execution."""

import pytest

from repro.core.builder import ch, inp, located, out, par, pr, rep, sys_par, var
from repro.core.engine import (
    Engine,
    FirstStrategy,
    LastStrategy,
    PriorityStrategy,
    ProgressStrategy,
    RandomStrategy,
    RunStatus,
    run,
)
from repro.core.semantics import ReceiveLabel, SemanticsMode, SendLabel
from repro.lang import parse_system
from tests.engine_oracle import run_path

A, B = pr("a"), pr("b")
M, N, V, W = ch("m"), ch("n"), ch("v"), ch("w")
X = var("x")


def ping_pong():
    return parse_system("a[m<v>] || b[m(x).n<x>] || a[n(y).0]")


class TestRun:
    def test_runs_to_quiescence(self):
        trace = run(ping_pong())
        assert trace.status is RunStatus.QUIESCENT
        assert len(trace) == 4  # send, recv, send, recv

    def test_trace_records_labels_in_order(self):
        trace = run(ping_pong())
        kinds = [type(label).__name__ for label in trace.labels]
        assert kinds == ["SendLabel", "ReceiveLabel", "SendLabel", "ReceiveLabel"]

    def test_final_of_empty_trace_is_initial(self):
        blocked = located(B, inp(M, X))
        trace = run(blocked)
        assert trace.final == blocked
        assert len(trace) == 0

    def test_max_steps_reported(self):
        diverging = located(A, rep(out(M, V)))
        trace = run(diverging, max_steps=7)
        assert trace.status is RunStatus.MAX_STEPS
        assert len(trace) == 7

    def test_stop_when_predicate(self):
        from repro.core.system import messages_of

        diverging = located(A, rep(out(M, V)))
        engine = Engine()
        trace = engine.run(
            diverging,
            stop_when=lambda s: len(list(messages_of(s))) >= 3,
        )
        assert trace.status is RunStatus.STOPPED
        assert len(trace) == 3

    @pytest.mark.parametrize("incremental", [True, False])
    def test_stop_when_at_quiescence_reports_quiescent(self, incremental):
        # Regression: the docstring promises QUIESCENT when the predicate
        # fires with no redex remaining; the code used to report STOPPED
        # unconditionally.
        # an always-true predicate fires before the first step, while the
        # system still reduces
        trace = run_path(
            Engine(), ping_pong(), incremental, stop_when=lambda s: True
        )
        assert trace.status is RunStatus.STOPPED

        consumed = lambda s: "m<v>" not in str(s) and "m<<" not in str(s)
        trace = run_path(
            Engine(),
            parse_system("a[m<v>] || b[m(x).0]"),
            incremental,
            stop_when=consumed,
        )
        assert trace.status is RunStatus.QUIESCENT
        assert len(trace) == 2

    def test_observer_sees_every_step(self):
        seen = []
        engine = Engine(observer=seen.append)
        engine.run(ping_pong())
        assert len(seen) == 4


class TestStrategies:
    def wide(self):
        return sys_par(located(A, out(M, V)), located(B, out(N, W)))

    def test_first_and_last_differ_on_wide_systems(self):
        first = Engine(strategy=FirstStrategy()).step(self.wide())
        last = Engine(strategy=LastStrategy()).step(self.wide())
        assert first.label != last.label

    def test_random_is_seed_deterministic(self):
        t1 = Engine(strategy=RandomStrategy(99)).run(ping_pong())
        t2 = Engine(strategy=RandomStrategy(99)).run(ping_pong())
        assert t1.labels == t2.labels

    def test_priority_strategy_prefers_predicate(self):
        s = sys_par(
            located(A, out(M, V)),
            located(B, inp(N, X)),
            parse_system("c[n<w>]"),
        )
        engine = Engine(
            strategy=PriorityStrategy(lambda l: isinstance(l, SendLabel)
                                      and l.channel == N)
        )
        step = engine.step(s)
        assert step.label.channel == N

    def test_progress_strategy_prefers_receives(self):
        s = parse_system("a[m<v>] || a[k<u>] || b[m(x).0]")
        engine = Engine(strategy=ProgressStrategy())
        trace = engine.run(s)
        assert trace.status is RunStatus.QUIESCENT
        # the m-message must have been consumed
        assert "m<<" not in str(trace.final)

    def test_progress_strategy_does_not_starve(self):
        # a replicated publisher plus an ordinary sender: the ordinary
        # send must fire within a few steps.
        s = parse_system("a[*(pub<junk>)] || b[m<v>] || c[m(x).0]")
        engine = Engine(strategy=ProgressStrategy())
        trace = engine.run(s, max_steps=10)
        assert any(
            isinstance(label, ReceiveLabel) and label.channel == M
            for label in trace.labels
        )


class TestModes:
    def test_erased_mode_run_reaches_quiescence(self):
        trace = run(ping_pong(), mode=SemanticsMode.ERASED)
        assert trace.status is RunStatus.QUIESCENT

    def test_tracked_and_erased_agree_on_step_counts_for_any_patterns(self):
        tracked = run(ping_pong(), mode=SemanticsMode.TRACKED)
        erased = run(ping_pong(), mode=SemanticsMode.ERASED)
        assert len(tracked) == len(erased)
