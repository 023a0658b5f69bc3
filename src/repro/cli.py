"""Command-line interface: run, explore, check and analyse systems.

Usage (``python -m repro <command> …``; reads the system from a file, or
stdin when the path is ``-``)::

    python -m repro run system.pi --max-steps 200 --strategy progress
    python -m repro explore system.pi --max-states 5000
    python -m repro check system.pi          # monitored run + Theorem 1
    python -m repro check system.pi --online # every state, incrementally
    python -m repro sim system.pi            # simulated cluster + metrics
    python -m repro analyse system.pi        # static flow verdicts
    python -m repro lint system.pi           # static policy gate (+--json)
    python -m repro fmt system.pi            # parse and pretty-print
    python -m repro query store/ --taint a   # provenance queries over a
                                             # durable store's record

The input syntax is the concrete syntax of `repro.lang` (see README);
``--principal NAME`` declares data-only principals the pre-scan cannot
infer.
"""

from __future__ import annotations

import argparse
import sys
from time import perf_counter

from repro.analysis.static_flow import analyse_flow
from repro.core.engine import (
    Engine,
    FirstStrategy,
    ProgressStrategy,
    RandomStrategy,
)
from repro.core.explore import explore
from repro.core.semantics import SemanticsMode
from repro.lang import parse_system, pretty_system
from repro.monitor import MonitoredSystem, OnlineChecker, check_correctness
from repro.monitor.monitored import MonitoredEngine

__all__ = ["main", "build_parser"]


def _read_system(args) -> "System":  # noqa: F821 - doc only
    if args.path == "-":
        source = sys.stdin.read()
    else:
        with open(args.path, "r", encoding="utf-8") as handle:
            source = handle.read()
    return parse_system(source, principals=set(args.principal))


def _print_timings(**phases: float) -> None:
    rendered = " ".join(
        f"{name}={seconds * 1000:.1f}ms" for name, seconds in phases.items()
    )
    print(f"timings: {rendered}")


def _write_stats_json(path: str, payload: dict) -> None:
    """Dump a metrics summary (or merged+per-shard bundle) as JSON."""

    import json

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")
    print(f"stats written to {path}")


def _strategy(name: str, seed: int):
    if name == "first":
        return FirstStrategy()
    if name == "progress":
        return ProgressStrategy()
    return RandomStrategy(seed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="the provenance calculus, on the command line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("path", help="system file ('-' for stdin)")
        p.add_argument(
            "--principal",
            action="append",
            default=[],
            help="declare a data-only principal name (repeatable)",
        )

    run_p = sub.add_parser("run", help="reduce a system and show the trace")
    common(run_p)
    run_p.add_argument("--max-steps", type=int, default=1000)
    run_p.add_argument(
        "--strategy", choices=["first", "progress", "random"], default="first"
    )
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument(
        "--erased", action="store_true",
        help="use the plain asynchronous-pi baseline semantics",
    )

    explore_p = sub.add_parser("explore", help="exhaustive state space")
    common(explore_p)
    explore_p.add_argument("--max-states", type=int, default=10_000)

    check_p = sub.add_parser(
        "check", help="monitored run + correctness/completeness verdicts"
    )
    common(check_p)
    check_p.add_argument("--max-steps", type=int, default=1000)
    check_p.add_argument(
        "--online",
        action="store_true",
        help="check every state of the run with the incremental online "
        "monitor (default: batch-check only the final state)",
    )

    sim_p = sub.add_parser(
        "sim", help="deploy on the simulated distributed runtime"
    )
    common(sim_p)
    sim_p.add_argument("--seed", type=int, default=0)
    sim_p.add_argument("--max-events", type=int, default=1_000_000)
    sim_p.add_argument(
        "--erased", action="store_true",
        help="run the untracked baseline semantics",
    )
    sim_p.add_argument(
        "--metrics-retention",
        type=int,
        default=None,
        metavar="N",
        help="keep only the last N delivered records in the metrics "
        "(aggregates are streamed either way; default keeps everything)",
    )
    sim_p.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="partition principals over N shards (default 1: the "
        "plain single-simulator runtime)",
    )
    sim_p.add_argument(
        "--shard-mode",
        choices=["inline", "process"],
        default="inline",
        help="inline (default): all shards in-process, conductor-"
        "driven, bit-identical to --shards 1 for any system; process: "
        "one OS process per shard under a conservative window barrier "
        "(receivers must be co-located with their channels' homes)",
    )
    sim_p.add_argument(
        "--lookahead",
        type=float,
        default=None,
        metavar="T",
        help="lower bound on cross-shard link latency (process mode "
        "barrier width; defaults to the base latency)",
    )
    sim_p.add_argument(
        "--adversary",
        choices=[
            "collude",
            "forge",
            "garble",
            "mix",
            "replay",
            "splice",
            "truncate",
        ],
        default=None,
        metavar="MIX",
        help="after the run, drive the named attack mix against the "
        "middleware and report detection (forge, replay, truncate, "
        "splice, collude, garble, or mix for all)",
    )
    sim_p.add_argument(
        "--faults",
        type=str,
        default=None,
        metavar="SPEC",
        help="inject link faults, e.g. 'drop=0.01,dup=0.02,corrupt=0.005'"
        " (keys: drop, dup, reorder, corrupt, delay; seeded, "
        "deterministic per link)",
    )
    sim_p.add_argument(
        "--verify-deliveries",
        action="store_true",
        help="cryptographically re-verify every payload's provenance "
        "chain at its rendezvous (paranoid integrity mode)",
    )
    sim_p.add_argument(
        "--durable",
        type=str,
        default=None,
        metavar="DIR",
        help="journal deliveries and attestations to a crash-"
        "recoverable segment store at DIR (per shard-N subdirectory "
        "when sharded); see 'repro recover'",
    )
    sim_p.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="with --durable: seal the journal's generation with a "
        "checkpoint every N events (N barrier windows with "
        "--shard-mode process; inline shards refuse it)",
    )
    sim_p.add_argument(
        "--stats-json",
        type=str,
        default=None,
        metavar="PATH",
        help="also dump the metrics summary as JSON to PATH "
        "(sharded runs include the merged summary and every "
        "per-shard summary)",
    )

    recover_p = sub.add_parser(
        "recover",
        help="load a durable store, report its record, and verify it "
        "replays bit-identically",
        description="Load a durable store, report its record, and "
        "verify the record replays bit-identically from the manifest. "
        "Exit status: 0 = record loads and replay verification passed "
        "(or was skipped); 1 = replay verification FAILED — the "
        "diagnostic names the first divergent generation; 2 = the "
        "store is missing, unreadable, or has no manifest.",
    )
    recover_p.add_argument("dir", help="store directory from --durable")
    recover_p.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the deterministic replay differential (just report "
        "what the store holds)",
    )
    recover_p.add_argument("--max-events", type=int, default=10_000_000)

    query_p = sub.add_parser(
        "query",
        help="where/why provenance queries over a durable store's record",
        description="Build the provenance query index from a durable "
        "store's journal, one generation per checkpoint (a sharded "
        "store's merged record is one generation), and answer where/why "
        "queries against it.  With no query flags, prints the index "
        "summary.",
    )
    query_p.add_argument("dir", help="store directory from --durable")
    query_p.add_argument(
        "--derived-from",
        metavar="PRINCIPAL",
        default=None,
        help="deliveries whose payload provenance contains a send by "
        "PRINCIPAL (dataflow: 'where did this principal's data end up?')",
    )
    query_p.add_argument(
        "--taint",
        metavar="PRINCIPAL",
        default=None,
        help="forward closure over dataflow edges from every delivery "
        "PRINCIPAL touched ('what could this principal have influenced?')",
    )
    query_p.add_argument(
        "--cone",
        type=int,
        metavar="ORDINAL",
        default=None,
        help="cone of influence: every delivery the given one "
        "(transitively) happens-after",
    )
    query_p.add_argument(
        "--witness",
        metavar="PATTERN",
        default=None,
        help="minimal witness suffix satisfying PATTERN (concrete "
        "pattern syntax, e.g. '~!any;(~?any;~!any)*') on a delivered "
        "value's provenance (see --ordinal)",
    )
    query_p.add_argument(
        "--ordinal",
        type=int,
        default=None,
        metavar="N",
        help="delivery the --witness query inspects (default: the "
        "newest provenance-carrying delivery)",
    )
    query_p.add_argument(
        "--receiver",
        metavar="PRINCIPAL",
        default=None,
        help="planned where-query: deliveries received by PRINCIPAL "
        "(prints the chosen access path)",
    )
    query_p.add_argument(
        "--channel",
        metavar="NAME",
        default=None,
        help="planned where-query: deliveries on channel NAME "
        "(combines with --receiver)",
    )
    query_p.add_argument(
        "--export-prov",
        metavar="PATH",
        default=None,
        help="export the dataflow graph as W3C PROV-JSON to PATH",
    )
    query_p.add_argument(
        "--export-dot",
        metavar="PATH",
        default=None,
        help="export the happens-before graph as graphviz DOT to PATH",
    )
    query_p.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="cap exports at the first N deliveries",
    )

    analyse_p = sub.add_parser("analyse", help="static provenance-flow verdicts")
    common(analyse_p)
    analyse_p.add_argument("--depth", type=int, default=4, dest="k")

    lint_p = sub.add_parser(
        "lint",
        help="static policy gate: algebra lint + flow verdicts + certificate",
    )
    common(lint_p)
    lint_p.add_argument("--depth", type=int, default=4, dest="k")
    lint_p.add_argument(
        "--json", action="store_true", help="emit the full report as JSON"
    )
    lint_p.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings as findings (nonzero exit)",
    )

    fmt_p = sub.add_parser("fmt", help="parse and pretty-print")
    common(fmt_p)

    return parser


def _print_recovered_state(state, indent: str = "") -> None:
    print(
        f"{indent}delivered={len(state.entries)} "
        f"notes={len(state.notes)} "
        f"checkpoint_generation={state.checkpoint_generation}"
    )
    print(f"{indent}trace_digest={state.trace_digest.hex()}")
    if state.quarantined:
        print(f"{indent}quarantined={sorted(state.quarantined)}")
    if state.revoked:
        print(f"{indent}certificate: revoked")
    if state.tampered:
        print(f"{indent}tamper_notes={state.tampered}")
    if state.torn:
        print(f"{indent}torn_segments={state.torn} (truncated to last valid record)")


def _cmd_recover(args) -> int:
    """Load a durable store, report its record, optionally verify replay.

    Exit status: 0 = clean (or verification skipped); 1 = replay
    verification failed — one-line diagnostic names the first divergent
    generation; 2 = store missing/unreadable/no manifest.
    """

    from repro.core.errors import StorageError
    from repro.storage import DurableStore, load_state, verify_replay

    store = DurableStore(args.dir)
    try:
        manifest = store.read_manifest()
        if manifest is None:
            print(f"error: no manifest in {args.dir}", file=sys.stderr)
            return 2
        if manifest.get("sharded"):
            shard_dirs = store.shard_dirs()
            print(
                f"sharded store: shards={manifest.get('shards')} "
                f"mode={manifest.get('shard_mode')} "
                f"seed={manifest.get('seed')}"
            )
            for shard_path in shard_dirs:
                shard_state = load_state(DurableStore(shard_path))
                print(f"  {shard_path.name}:")
                _print_recovered_state(shard_state, indent="    ")
            return 0
        state = load_state(store)
        _print_recovered_state(state)
        if args.no_verify:
            return 0
        if manifest.get("system") is None:
            print("verify: skipped (manifest carries no system source)")
            return 0
        report = verify_replay(store, state, max_events=args.max_events)
        if report.ok:
            print(
                f"verify: ok — {report.persisted} persisted deliveries "
                f"replayed bit-identically ({report.replayed} replayed)"
            )
            return 0
        # one line, naming the first generation whose persisted
        # deliveries the replay contradicts — that journal generation
        # is where recovery should look
        where = ""
        if report.divergence_index is not None:
            generation = state.generation_of(report.divergence_index)
            if generation is not None:
                where = (
                    f" (first divergence in generation {generation}, "
                    f"delivery #{report.divergence_index})"
                )
            else:
                where = f" (first divergence at delivery #{report.divergence_index})"
        print(f"verify: FAILED{where} — {report.detail}", file=sys.stderr)
        return 1
    except StorageError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _cmd_query(args) -> int:
    """Answer where/why queries over a durable store's record."""

    from repro.core.errors import StorageError
    from repro.core.names import Principal
    from repro.query import (
        ProvenanceIndex,
        resume_index,
        to_dot,
        write_prov_json,
    )
    from repro.storage import DurableStore, load_state

    store = DurableStore(args.dir)
    try:
        manifest = store.read_manifest()
        if manifest is None:
            print(f"error: no manifest in {args.dir}", file=sys.stderr)
            return 2
        if manifest.get("sharded"):
            # per-shard records merge canonically into one generation,
            # exactly as ShardedRuntime.delivered_trace() merges them
            from repro.runtime.shards import merge_delivered

            index = ProvenanceIndex()
            index.extend_trace(
                merge_delivered(
                    load_state(DurableStore(path)).entries
                    for path in store.shard_dirs()
                )
            )
        else:
            index, _ = resume_index(store)
        summary = index.summary()
        print(
            "index: built from the journal ({delivered} deliveries, "
            "{generation} generations)".format(**summary)
        )
        print(
            "deliveries={delivered} spine_nodes={spine_nodes} "
            "hb_edges={hb_edges} generations={generation}".format(**summary)
        )
        print(
            "edges: "
            + " ".join(
                f"{kind}={count}"
                for kind, count in summary["edge_counts"].items()
            )
        )

        def show(title, ordinals):
            print(f"{title}: {len(ordinals)} deliver(y/ies)")
            for ordinal in ordinals:
                delivery = index.delivery(ordinal)
                print(
                    f"  #{ordinal} t={delivery.time:.2f} "
                    f"{delivery.principal.name}?{delivery.channel.name}"
                )

        if args.derived_from is not None:
            show(
                f"derived from sends by {args.derived_from}",
                index.derived_from_sends(Principal(args.derived_from)),
            )
        if args.taint is not None:
            show(
                f"tainted by {args.taint}",
                index.taint(Principal(args.taint)),
            )
        if args.cone is not None:
            if not 0 <= args.cone < summary["delivered"]:
                print(
                    f"error: --cone {args.cone} out of range "
                    f"(0..{summary['delivered'] - 1})",
                    file=sys.stderr,
                )
                return 2
            show(
                f"cone of influence of #{args.cone}",
                index.cone_of_influence(args.cone),
            )
        if args.receiver is not None or args.channel is not None:
            from repro.core.names import Channel
            from repro.query import run_where

            ordinals, plan = run_where(
                index,
                receiver=(
                    Principal(args.receiver) if args.receiver else None
                ),
                channel=Channel(args.channel) if args.channel else None,
            )
            print(f"plan: {plan.describe()}")
            show("where", ordinals)
        if args.witness is not None:
            from repro.patterns.parse import parse_pattern

            pattern = parse_pattern(args.witness)
            target = _witness_target(index, args.ordinal)
            if target is None:
                print(
                    "error: no provenance-carrying delivery to inspect",
                    file=sys.stderr,
                )
                return 2
            ordinal, provenance = target
            witness = index.minimal_witness(provenance, pattern)
            matches = index.matching_suffixes(provenance, pattern)
            if witness is None:
                print(
                    f"witness: no suffix of delivery #{ordinal}'s "
                    f"provenance satisfies the pattern"
                )
            else:
                print(
                    f"witness: delivery #{ordinal}, minimal suffix of "
                    f"{len(witness)} event(s) "
                    f"({len(matches)}/{len(provenance) + 1} "
                    f"suffixes match)"
                )
        if args.export_prov is not None:
            write_prov_json(index, args.export_prov, limit=args.limit)
            print(f"wrote PROV-JSON to {args.export_prov}")
        if args.export_dot is not None:
            with open(args.export_dot, "w", encoding="utf-8") as handle:
                handle.write(to_dot(index, limit=args.limit))
            print(f"wrote DOT to {args.export_dot}")
        return 0
    except StorageError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _witness_target(index, ordinal):
    """The (ordinal, provenance) the --witness query inspects."""

    candidates = (
        [ordinal]
        if ordinal is not None
        else range(index.delivered - 1, -1, -1)
    )
    for candidate in candidates:
        if not 0 <= candidate < index.delivered:
            return None
        for value in index.delivery(candidate).values:
            if len(value.provenance):
                return candidate, value.provenance
        if ordinal is not None:
            return None
    return None


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "recover":
        # no system file to read — the store's manifest is the input
        return _cmd_recover(args)
    if args.command == "query":
        return _cmd_query(args)
    parse_start = perf_counter()
    try:
        system = _read_system(args)
    except Exception as error:  # surface parse errors cleanly
        print(f"error: {error}", file=sys.stderr)
        return 2
    parse_seconds = perf_counter() - parse_start

    if args.command == "fmt":
        print(pretty_system(system))
        return 0

    if args.command == "run":
        mode = SemanticsMode.ERASED if args.erased else SemanticsMode.TRACKED
        engine = Engine(
            mode=mode,
            strategy=_strategy(args.strategy, args.seed),
            max_steps=args.max_steps,
        )
        trace = engine.run(system)
        for index, entry in enumerate(trace):
            print(f"{index + 1:4d}. {entry.label}")
        print(f"-- {trace.status.value} after {len(trace)} steps")
        print(pretty_system(trace.final))
        return 0

    if args.command == "explore":
        lts = explore(system, max_states=args.max_states)
        terminals = lts.terminal_states()
        print(
            f"states={len(lts)} transitions={len(lts.transitions)} "
            f"terminal={len(terminals)} complete={lts.complete}"
        )
        for index in terminals:
            print(f"  terminal #{index}: {pretty_system(lts.states[index])}")
        return 0

    if args.command == "check":
        engine = MonitoredEngine(max_steps=args.max_steps)
        if args.online:
            checker = OnlineChecker()
            reports = []
            check_seconds = 0.0

            def observe(state, components):
                nonlocal check_seconds
                start = perf_counter()
                reports.append(checker.check(state, components))
                check_seconds += perf_counter() - start

            run_start = perf_counter()
            trace = engine.run(
                MonitoredSystem.start(system), state_observer=observe
            )
            reduce_seconds = perf_counter() - run_start - check_seconds
            holds = all(report.holds for report in reports)
            final = trace.final
            print(f"steps={len(trace)} log={final.log}")
            print(
                f"correct provenance: {holds} "
                f"({sum(len(r) for r in reports)} value checks over "
                f"{len(reports)} states, online)"
            )
            for state_number, report in enumerate(reports):
                if not report.holds:
                    for failure in report.failures:
                        print(f"  FAIL at state {state_number}: {failure}")
                    break
            _print_timings(
                parse=parse_seconds, reduce=reduce_seconds, check=check_seconds
            )
            return 0 if holds else 1
        run_start = perf_counter()
        trace = engine.run(MonitoredSystem.start(system))
        reduce_seconds = perf_counter() - run_start
        final = trace.final
        check_start = perf_counter()
        report = check_correctness(final)
        check_seconds = perf_counter() - check_start
        print(f"steps={len(trace)} log={final.log}")
        print(
            f"correct provenance: {report.holds} "
            f"({len(report)} values checked)"
        )
        for failure in report.failures:
            print(f"  FAIL {failure}")
        _print_timings(
            parse=parse_seconds, reduce=reduce_seconds, check=check_seconds
        )
        return 0 if report.holds else 1

    if args.command == "sim":
        from repro.runtime import DistributedRuntime, FaultPlan

        mode = SemanticsMode.ERASED if args.erased else SemanticsMode.TRACKED
        fault_plan = None
        if args.faults:
            try:
                fault_plan = FaultPlan.parse(args.faults)
            except ValueError as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
        if args.shards > 1:
            from repro.runtime import ShardedRuntime

            if args.adversary:
                print(
                    "error: --adversary needs the single-runtime "
                    "middleware; use --shards 1",
                    file=sys.stderr,
                )
                return 2
            try:
                runtime = ShardedRuntime(
                    shards=args.shards,
                    shard_mode=args.shard_mode,
                    seed=args.seed,
                    lookahead=args.lookahead,
                    mode=mode,
                    metrics_retention=args.metrics_retention,
                    verify_deliveries=args.verify_deliveries,
                    fault_plan=fault_plan,
                    durable_dir=args.durable,
                    checkpoint_every=args.checkpoint_every,
                )
            except ValueError as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
            from repro.core.errors import SimulationError

            deploy_start = perf_counter()
            try:
                runtime.deploy(system)
                events = runtime.run(max_events=args.max_events)
            except SimulationError as error:
                # process-mode placement/lookahead constraints
                print(f"error: {error}", file=sys.stderr)
                return 2
            finally:
                runtime.close()
            run_seconds = perf_counter() - deploy_start
            summary = runtime.metrics_summary()
            if args.stats_json:
                _write_stats_json(
                    args.stats_json,
                    {
                        "merged": summary,
                        "shards": list(runtime.shard_summaries()),
                    },
                )
            print(
                f"events={events} time={runtime.now:.2f} "
                f"blocked={runtime.blocked_threads()} "
                f"shards={args.shards} mode={args.shard_mode}"
            )
            for key in (
                "messages_sent",
                "deliveries",
                "bytes_total",
                "bytes_provenance",
                "pattern_checks",
                "pattern_rejections",
            ):
                print(f"  {key} = {summary[key]}")
            if args.verify_deliveries or fault_plan is not None:
                for key in (
                    "verify_calls",
                    "verify_nodes_checked",
                    "tamper_detected",
                    "replays_blocked",
                    "faults_dropped",
                    "faults_duplicated",
                    "faults_reordered",
                    "faults_corrupted",
                ):
                    print(f"  {key} = {summary[key]}")
            for pattern_text, count in summary[
                "rejections_by_pattern"
            ].items():
                print(f"  rejected by {pattern_text}: {count}")
            for stat in runtime.shard_stats():
                print(
                    "  shard {shard}: events={events} "
                    "deliveries={deliveries} "
                    "cross_sent={cross_shard_sent} "
                    "cross_recv={cross_shard_received} "
                    "barrier_stall={barrier_stall_seconds:.3f}s".format(
                        **stat
                    )
                )
            _print_timings(parse=parse_seconds, simulate=run_seconds)
            return 0
        runtime = DistributedRuntime(
            seed=args.seed,
            mode=mode,
            metrics_retention=args.metrics_retention,
            verify_deliveries=args.verify_deliveries,
            fault_plan=fault_plan,
            durable=args.durable,
            checkpoint_every=args.checkpoint_every,
            durable_wipe=args.durable is not None,
        )
        deploy_start = perf_counter()
        runtime.deploy(system)
        events = runtime.run(max_events=args.max_events)
        run_seconds = perf_counter() - deploy_start
        if args.adversary:
            from repro.runtime import ATTACK_MIXES, run_threat_suite

            outcomes = run_threat_suite(
                runtime.middleware, attacks=ATTACK_MIXES[args.adversary]
            )
            runtime.run(max_events=args.max_events)  # drain accepted posts
            detected = sum(1 for o in outcomes if o.detected)
            print(f"adversary[{args.adversary}]: {len(outcomes)} attack(s)")
            for o in outcomes:
                verdict = (
                    "detected"
                    if o.detected
                    else ("ACCEPTED" if o.accepted else "blocked")
                )
                print(f"  {o.attack:10s} {verdict}")
            print(f"  detection: {detected}/{len(outcomes)}")
        if args.durable:
            # seal the last generation, so a clean exit leaves every
            # journal checked against a seal
            runtime.checkpoint()
            runtime.close()
        summary = runtime.metrics.summary()
        if args.stats_json:
            _write_stats_json(args.stats_json, summary)
        print(
            f"events={events} time={runtime.now:.2f} "
            f"blocked={runtime.blocked_threads()}"
        )
        for key in (
            "messages_sent",
            "deliveries",
            "bytes_total",
            "bytes_provenance",
            "pattern_checks",
            "pattern_rejections",
            "vet_transitions",
            "vet_cache_hits",
        ):
            print(f"  {key} = {summary[key]}")
        if args.verify_deliveries or args.adversary or fault_plan is not None:
            for key in (
                "verify_calls",
                "verify_nodes_checked",
                "tamper_detected",
                "replays_blocked",
                "principals_quarantined",
                "faults_dropped",
                "faults_duplicated",
                "faults_reordered",
                "faults_corrupted",
            ):
                print(f"  {key} = {summary[key]}")
        for pattern_text, count in summary["rejections_by_pattern"].items():
            print(f"  rejected by {pattern_text}: {count}")
        stats = runtime.middleware.vetting_stats()
        print(
            "vetting: "
            + " ".join(f"{k}={v}" for k, v in sorted(stats.items()))
        )
        _print_timings(parse=parse_seconds, simulate=run_seconds)
        return 0

    if args.command == "analyse":
        report = analyse_flow(system, k=args.k)
        print(
            "sites={sites} redundant={redundant} dead={dead} "
            "needed={needed}".format(**report.summary())
        )
        for site in report.sites.values():
            print(f"  [{site.verdict.value:9s}] {site.key}")
        return 0

    if args.command == "lint":
        import json as _json

        from repro.analysis.lint import lint_system
        from repro.core.names import Principal
        from repro.core.system import system_principals

        universe = system_principals(system) | {
            Principal(name) for name in args.principal
        }
        lint_report = lint_system(system, principals=universe)
        flow_report = analyse_flow(system, k=args.k)
        certificate = flow_report.certificate()
        failed = bool(lint_report.errors) or (
            args.strict and bool(lint_report.warnings)
        )
        if args.json:
            payload = lint_report.to_json()
            payload["flow"] = {
                "summary": flow_report.summary(),
                "complete": flow_report.complete,
                "principals": flow_report.principal_summary(),
                "sites": {
                    str(site.key): site.verdict.value
                    for site in flow_report.sites.values()
                },
            }
            payload["certificate"] = certificate.to_json()
            payload["ok"] = not failed
            print(_json.dumps(payload, indent=2, sort_keys=True))
        else:
            for finding in lint_report.findings:
                print(
                    f"{finding.severity}: [{finding.code}] "
                    f"{finding.principal}@{finding.channel}"
                    f"#{finding.branch_index}: {finding.message}"
                )
            summary = flow_report.summary()
            print(
                f"lint: {len(lint_report.errors)} error(s), "
                f"{len(lint_report.warnings)} warning(s); "
                f"flow: {summary['redundant']} redundant, "
                f"{summary['dead']} dead, {summary['needed']} needed "
                f"across {summary['sites']} site(s)"
                + ("" if flow_report.complete else " (incomplete)")
            )
            if certificate.elidable_channels:
                print(
                    "certificate elides vetting on: "
                    + ", ".join(sorted(certificate.elidable_channels))
                )
        return 1 if failed else 0

    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
