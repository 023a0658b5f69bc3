"""Full-stack benchmark: the cost of a delivered message with every layer
on, and the cost of reading the record back.

One workload for a fixed time, as the command in ``BENCHMARK.json``
runs it::

    python3 benchmarks/full_stack/bench.py --workload relay_full \\
        --seed 1 --seconds 20 --trace 0

prints, as its last line, ``{"correct", "attempted", "failed",
"metrics"}``: every end-to-end metric with ``--trace 0``, every
per-layer metric with ``--trace 1``.  The whole suite, every workload
round-robin, then one traced sample each::

    python3 benchmarks/full_stack/bench.py --seed 1 --repeats 5 \\
        --out full_stack.json [--trace-out spans.jsonl]

and two suite results side by side::

    python3 benchmarks/full_stack/bench.py --compare BASE.json HEAD.json

Every measured sample is a fresh process (intern tables and DFA caches
are process-global, and peak memory needs a clean process), started one
at a time.  The program under test is imported from ``src/`` of the
checkout this file sits in, never from anywhere else; without it the
benchmark exits with status 2.  Scratch stores live under
``.bench_build/full_stack/`` and are removed after each sample.
See README.md beside this file for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "full_stack"

END_TO_END = {
    "deliveries_per_s": "deliveries/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "stored_bytes_per_delivery": "B",
    "query_p50_us": "us",
}
MIN_SAMPLES = 3
SAMPLE_TIMEOUT_S = 60


class BenchError(Exception):
    """A sample could not run; the benchmark prints no result."""


# -- the program under test ----------------------------------------------


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` or exit with 2."""

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program at {SRC}/repro", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"error: repro imported from {repro.__file__}", file=sys.stderr)
        raise SystemExit(2)


# -- one sample, in this process -----------------------------------------


def workloads(toy: bool) -> dict:
    from scenarios import TOY_WORKLOADS, WORKLOADS

    return TOY_WORKLOADS if toy else WORKLOADS


def sample_main(args) -> int:
    from scenarios import run_sample

    workload = workloads(args.toy)[args.sample]
    with open(args.ref, encoding="utf-8") as handle:
        ref = json.load(handle)
    tracer = None
    if args.traced:
        from tracer import Tracer, install

        tracer = install(Tracer(keep_spans=bool(args.spans)))
    result = run_sample(
        workload, args.seed, args.phase, Path(args.store), ref, tracer
    )
    if tracer is not None:
        restored = tracer.restore()
        result["restored"] = all(
            owner.__dict__[attr] is original
            for owner, attr, original in restored
        )
        result["wrapped"] = len(restored)
        if args.spans:
            with open(args.spans, "a", encoding="utf-8") as handle:
                for span_id, parent, name, start, end in tracer.spans:
                    handle.write(json.dumps({
                        "workload": args.sample, "id": span_id,
                        "parent": parent, "name": name,
                        "start": start, "end": end,
                    }) + "\n")
    print(json.dumps(result))
    return 0


def reference_main(args) -> int:
    from scenarios import reference

    workload = workloads(args.toy)[args.reference]
    print(json.dumps(reference(workload, args.seed)))
    return 0


# -- orchestration -------------------------------------------------------


def spawn(arguments: list[str]) -> dict:
    """Run this file in a fresh process; returns its last JSON line."""

    # a fixed string hash makes counts (and collector timing) repeat
    # exactly; compiled modules are cached under WORK so later samples
    # start faster, and imports are never inside a timed region
    env = dict(
        os.environ,
        PYTHONHASHSEED="0",
        PYTHONPYCACHEPREFIX=str(WORK / "pycache"),
    )
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    process = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), *arguments],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
        env=env,
        start_new_session=True,
        text=True,
    )
    try:
        out, err = process.communicate(timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise BenchError(f"sample {arguments} timed out") from None
    if process.returncode != 0:
        raise BenchError(
            f"sample {arguments} exited {process.returncode}:\n{err[-4000:]}"
        )
    return json.loads(out.strip().splitlines()[-1])


class Runner:
    """Runs samples of one seed, each in a fresh process, one at a time."""

    def __init__(self, seed: int, spans: str = "", toy: bool = False):
        self.seed = seed
        self.spans = spans
        """Where traced samples append their spans (JSON lines), if set."""
        self.scale = ["--toy"] if toy else []
        self.count = 0
        self.work = WORK / str(os.getpid())

    def reference(self, workload: str) -> Path:
        """The reference run's digest and query answers, as a file."""

        path = self.work / f"{workload}.ref.json"
        if not path.exists():
            self.work.mkdir(parents=True, exist_ok=True)
            ref = spawn(
                ["--reference", workload, "--seed", str(self.seed), *self.scale]
            )
            path.write_text(json.dumps(ref), encoding="utf-8")
        return path

    def sample(self, workload: str, traced: bool = False) -> dict:
        ref = self.reference(workload)
        self.count += 1
        store = self.work / f"{workload}-{self.count}"
        base = [
            "--sample", workload, "--seed", str(self.seed),
            "--store", str(store), "--ref", str(ref), *self.scale,
        ]
        traced_args = ["--traced"]
        if self.spans:
            traced_args += ["--spans", self.spans]
        try:
            if workload == "audit_read":
                capture = spawn(base + ["--phase", "capture"])
                read = spawn(
                    base + ["--phase", "read"] + (traced_args if traced else [])
                )
                result = merge_phases(capture, read)
            else:
                result = spawn(
                    base + ["--phase", "run"] + (traced_args if traced else [])
                )
        finally:
            shutil.rmtree(store, ignore_errors=True)
        result["traced"] = traced
        return result

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def merge_phases(capture: dict, read: dict) -> dict:
    """``audit_read``: set-up and store from the capture, the rest read."""

    merged = dict(read)
    for key in ("setup_s", "stored_bytes", "deliveries", "digest"):
        merged[key] = capture[key]
    merged["attempted"] = capture["attempted"] + read["attempted"]
    merged["failed"] = capture["failed"] + read["failed"]
    merged["problems"] = capture["problems"] + read["problems"]
    return merged


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 1])."""

    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(sample: dict) -> dict:
    """One sample's end-to-end values."""

    return {
        "deliveries_per_s": sample["work"] / sample["region_s"],
        "setup_s": sample["setup_s"],
        "peak_rss_mb": sample["peak_rss_mb"],
        "stored_bytes_per_delivery": sample["stored_bytes"] / sample["deliveries"],
        "query_p50_us": percentile(sample["query_us"], 0.50),
    }


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(samples: list, traced: list) -> dict:
    """Per metric: its value, the per-sample values and their quartiles.

    End-to-end values are medians over the untraced samples, per-layer
    ones over the traced samples.  Two per-layer values span samples:
    ``trace.overhead_ratio`` (traced region over the untraced median)
    and ``query.p99_us``, the 99th percentile over every query of every
    traced sample together, since one sample asks too few queries for a
    steady p99.  Also correctness and failure counts.
    """

    from tracer import PER_LAYER_UNITS

    per_sample = [end_to_end(sample) for sample in samples]
    metrics = {
        name: {"unit": unit, "values": [row[name] for row in per_sample]}
        for name, unit in END_TO_END.items()
    }

    layers: dict = {}
    for sample in traced:
        for name, value in sample["layers"].items():
            layers.setdefault(
                name, {"unit": PER_LAYER_UNITS[name], "values": []}
            )
            layers[name]["values"].append(value)
    if traced:
        untraced = statistics.median(s["region_s"] for s in samples)
        layers["trace.overhead_ratio"] = {
            "unit": "ratio",
            "values": [s["region_s"] / untraced for s in traced],
        }
        layers["query.p99_us"] = {
            "unit": "us",
            "values": [percentile(s["query_us"], 0.99) for s in traced],
        }
    for table in (metrics, layers):
        for entry in table.values():
            entry["q1"], entry["median"], entry["q3"] = quartiles(entry["values"])
            entry["value"] = entry["median"]
            entry["n"] = len(entry["values"])
    if traced:
        pooled = [t for sample in traced for t in sample["query_us"]]
        layers["query.p99_us"].update(
            value=percentile(pooled, 0.99), queries=len(pooled)
        )
    everything = samples + traced
    digests = {sample["digest"] for sample in everything}
    attempted = sum(sample["attempted"] for sample in everything)
    failed = sum(sample["failed"] for sample in everything)
    problems = [p for sample in everything for p in sample["problems"]]
    if len(digests) > 1:
        problems.append(f"samples disagree on the trace digest: {digests}")
    return {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "layers": layers,
    }


def skip_reason(workload: str) -> str | None:
    if workload != "relay_sharded":
        return None
    from scenarios import fork_skip_reason

    return fork_skip_reason()


def workload_main(args) -> int:
    """One workload for ``--seconds``; prints one JSON result line."""

    if args.workload not in workloads(args.toy):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    reason = skip_reason(args.workload)
    if reason:
        print(f"SKIP {args.workload}: {reason}", file=sys.stderr)
        return 3
    runner = Runner(args.seed, toy=args.toy)
    samples, traced = [], []
    try:
        runner.reference(args.workload)
        start = perf_counter()
        durations = []
        while True:
            want_traced = bool(args.trace) and len(traced) < len(samples)
            began = perf_counter()
            sample = runner.sample(args.workload, traced=want_traced)
            durations.append(perf_counter() - began)
            (traced if want_traced else samples).append(sample)
            enough = len(samples) >= MIN_SAMPLES and (
                not args.trace or len(traced) >= MIN_SAMPLES
            )
            # stop when the next sample would likely end past --seconds
            finish = perf_counter() - start + statistics.median(durations)
            if enough and finish > args.seconds:
                break
    finally:
        runner.close()
    summary = summarize(samples, traced)
    print(f"{args.workload}: {len(samples)} samples, {len(traced)} traced",
          file=sys.stderr)
    for problem in summary["problems"]:
        print(f"FAILED {args.workload}: {problem}", file=sys.stderr)
    table = summary["layers"] if args.trace else summary["metrics"]
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in table.items()
        },
    }))
    return 0 if summary["correct"] else 1


# -- the suite -----------------------------------------------------------


def host() -> dict:
    """What the numbers were measured on."""

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit,
    }


def suite_main(args) -> int:
    """Every workload ``--repeats`` times round-robin, then one traced
    sample each; writes everything measured to ``--out``."""

    chosen = workloads(args.toy)
    if args.trace_out:
        open(args.trace_out, "w", encoding="utf-8").close()
    spans = str(Path(args.trace_out).resolve()) if args.trace_out else ""
    runner = Runner(args.seed, spans=spans, toy=args.toy)
    names = list(chosen)
    skipped = {name: skip_reason(name) for name in names}
    active = [name for name in names if not skipped[name]]
    samples: dict = {name: [] for name in active}
    traced: dict = {name: [] for name in active}
    try:
        for repeat in range(args.repeats):
            for name in active:
                samples[name].append(runner.sample(name))
                print(f"repeat {repeat + 1}/{args.repeats} {name}", flush=True)
        for name in active:
            traced[name].append(runner.sample(name, traced=True))
    finally:
        runner.close()
    report = {
        "benchmark": "full_stack",
        "host": host(),
        "seed": args.seed,
        "repeats": args.repeats,
        "workloads": {},
    }
    for name in names:
        entry: dict = {"sizes": chosen[name].sizes(), "skipped": skipped[name]}
        if skipped[name]:
            print(f"SKIP {name}: {skipped[name]}")
        else:
            entry.update(summarize(samples[name], traced[name]))
            entry["deliveries"] = samples[name][0]["deliveries"]
            entry["runs"] = samples[name] + traced[name]
            for run in entry["runs"]:
                run.pop("query_us")
            print_workload(name, entry)
        report["workloads"][name] = entry
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
    failed = any(
        not entry.get("correct", True) for entry in report["workloads"].values()
    )
    return 1 if failed else 0


def print_workload(name: str, entry: dict) -> None:
    print(f"\n{name}: {entry['deliveries']} deliveries, "
          f"correct={entry['correct']} failed={entry['failed']}/"
          f"{entry['attempted']}")
    for problem in entry["problems"]:
        print(f"  FAILED: {problem}")
    for title, table in (("end to end", entry["metrics"]),
                         ("per layer (traced)", entry["layers"])):
        print(f"  {title}:")
        for metric, row in table.items():
            print(f"    {metric:48s} {row['value']:>14.6g} {row['unit']:<13s}"
                  f" [{row['q1']:.6g}, {row['q3']:.6g}] n={row['n']}")


# -- compare -------------------------------------------------------------


def verdict(
    base: list, head: list, better: str, bound: float, ratio: float = 0.0
) -> str:
    """better / worse / same / unresolved for one (workload, metric).

    ``base`` and ``head`` are per-run values; ``ratio`` is head over
    base of the reported values (by default of the medians).
    Unresolved when either side's run-to-run spread (interquartile range
    over median) exceeds the bound, unless every head run beats every
    base run.  Better also needs the change to exceed that spread.
    """

    sign = 1.0 if better == "higher" else -1.0
    if min(sign * v for v in head) > max(sign * v for v in base):
        return "better"
    spread = max(iqr_share(base), iqr_share(head))
    if spread > bound:
        return "unresolved"
    ratio = ratio or statistics.median(head) / statistics.median(base)
    change = sign * (ratio - 1.0)
    if change < -bound:
        return "worse"
    if change > spread:
        return "better"
    return "same"


def iqr_share(values: list) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def compare_main(args) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = {m["name"]: m for m in json.load(handle)["end_to_end"]}
    reports = []
    for path in args.compare:
        with open(path, encoding="utf-8") as handle:
            reports.append(json.load(handle))
    base, head = reports
    worse = False
    for name in sorted(set(base["workloads"]) | set(head["workloads"])):
        b = base["workloads"].get(name, {})
        h = head["workloads"].get(name, {})
        if "metrics" not in b or "metrics" not in h:
            print(f"{name}: skipped ({b.get('skipped') or h.get('skipped')})")
            continue
        print(f"{name}:")
        for metric, rule in spec.items():
            bm, hm = b["metrics"][metric], h["metrics"][metric]
            ratio = hm["value"] / bm["value"]
            result = verdict(
                bm["values"], hm["values"], rule["better"], rule["bound"], ratio
            )
            worse |= result == "worse"
            print(
                f"  {metric:28s} base {bm['value']:.6g} [{bm['q1']:.6g}, "
                f"{bm['q3']:.6g}] n={bm['n']}  head {hm['value']:.6g} "
                f"[{hm['q1']:.6g}, {hm['q3']:.6g}] n={hm['n']}  head/base "
                f"{ratio:.3f} (base {bm['value']:.6g} {rule['unit']})  "
                f"bound {rule['bound']:.0%}  -> {result}"
            )
        bf = b["failed"] / b["attempted"]
        hf = h["failed"] / h["attempted"]
        failed = "worse" if hf > bf else "same"
        worse |= failed == "worse"
        print(f"  {'failed share':28s} base {bf:.6g} ({b['failed']}/"
              f"{b['attempted']})  head {hf:.6g} ({h['failed']}/"
              f"{h['attempted']})  -> {failed}")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", help="run one workload for --seconds")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", help="suite mode: write the results here")
    parser.add_argument("--trace-out", help="suite mode: spans as JSON lines")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"))
    parser.add_argument("--sample", help=argparse.SUPPRESS)
    parser.add_argument("--reference", help=argparse.SUPPRESS)
    parser.add_argument("--phase", default="run", help=argparse.SUPPRESS)
    parser.add_argument("--store", help=argparse.SUPPRESS)
    parser.add_argument("--ref", help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spans", help=argparse.SUPPRESS)
    parser.add_argument("--toy", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare_main(args)
    import_program()
    try:
        if args.sample:
            return sample_main(args)
        if args.reference:
            return reference_main(args)
        if args.workload:
            return workload_main(args)
        if args.out:
            return suite_main(args)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    parser.error("give --workload, --out or --compare")
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
