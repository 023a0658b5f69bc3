"""Smoke test of the full-stack benchmark at toy sizes.

Runs every workload through the same fresh-process samples the
benchmark measures (``--toy`` shrinks the inputs) and checks what the
benchmark itself relies on: no operation fails, tracing leaves the
delivered trace alone, stage self times add up to the traced region,
the wrappers come off again, counts repeat exactly, and every metric
``BENCHMARK.json`` names is emitted.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402

bench.import_program()

from scenarios import WORKLOADS, fork_skip_reason  # noqa: E402
from tracer import PER_LAYER_UNITS  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def runs():
    """Per workload: one untraced sample and two traced ones, seed 1."""

    runner = bench.Runner(seed=1, toy=True)
    results = {}
    try:
        for name in WORKLOADS:
            if name == "relay_sharded" and fork_skip_reason():
                continue
            plain = runner.sample(name)
            traced = [runner.sample(name, traced=True) for _ in range(2)]
            results[name] = (plain, traced)
    finally:
        runner.close()
    return results


def test_no_operation_fails(runs):
    assert runs
    for name, (plain, traced) in runs.items():
        for sample in [plain, *traced]:
            assert sample["attempted"] > 0, name
            assert sample["failed"] == 0, (name, sample["problems"])


def test_tracing_leaves_the_delivered_trace_alone(runs):
    for name, (plain, traced) in runs.items():
        assert {s["digest"] for s in traced} == {plain["digest"]}, name


def test_stage_self_times_add_up_to_the_region(runs):
    for name, (_, traced) in runs.items():
        for sample in traced:
            region = sample["region_traced_s"]
            assert abs(sample["stage_sum_s"] - region) <= 0.01 * region, name


def test_wrappers_are_restored(runs):
    for name, (_, traced) in runs.items():
        for sample in traced:
            assert sample["wrapped"] > 0 and sample["restored"], name


def test_shard_workers_report_their_stages(runs):
    if "relay_sharded" not in runs:
        pytest.skip(fork_skip_reason())
    for sample in runs["relay_sharded"][1]:
        assert sample["workers_traced"] == 2
        assert sample["layers"]["runtime.wire.ingest_self_frac"] > 0


def test_counts_repeat_exactly(runs):
    for name, (plain, traced) in runs.items():
        first, second = (sample["layers"] for sample in traced)
        for metric, unit in PER_LAYER_UNITS.items():
            if unit in ("count", "B") and metric in first:
                assert first[metric] == second[metric], (name, metric)
        stored = {
            bench.end_to_end(s)["stored_bytes_per_delivery"]
            for s in [plain, *traced]
        }
        assert len(stored) == 1, (name, stored)


def test_every_named_metric_is_emitted(runs):
    for name, (plain, traced) in runs.items():
        summary = bench.summarize([plain], traced)
        for table, specs in (
            (summary["metrics"], SPEC["end_to_end"]),
            (summary["layers"], SPEC["per_layer"]),
        ):
            assert set(table) == {m["name"] for m in specs}, name
            for metric in specs:
                assert table[metric["name"]]["unit"] == metric["unit"], name
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_without_the_program_it_exits_nonzero(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "full_stack",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "relay_full",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


@pytest.mark.parametrize(
    "base, head, verdict",
    [
        ([100, 101, 99, 100, 100], [80, 81, 79, 80, 80], "worse"),
        ([100, 101, 99, 100, 100], [120, 121, 119, 120, 120], "better"),
        ([100, 101, 99, 100, 100], [100, 99, 101, 100, 100], "same"),
        ([100, 60, 140, 100, 80], [90, 50, 130, 95, 70], "unresolved"),
    ],
)
def test_compare_verdicts(base, head, verdict):
    assert bench.verdict(base, head, "higher", 0.10) == verdict
