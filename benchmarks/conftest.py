"""Shared helpers for the benchmark harness.

Each ``bench_*`` module regenerates one experiment from DESIGN.md's index
(E1–E15).  pytest-benchmark provides the timing table; benches that also
produce *result* series (provenance lengths, byte overheads, verdicts —
the "rows the paper reports") attach them via :func:`record_row`, and a
session-finish hook prints the collected experiment rows after the timing
table, so a single ``pytest benchmarks/ --benchmark-only`` run yields
everything EXPERIMENTS.md records.
"""

from __future__ import annotations

import importlib
import json
import os
import platform
import sys
from collections import defaultdict
from pathlib import Path

_ROWS: dict[str, list[str]] = defaultdict(list)

_REPO_ROOT = Path(__file__).resolve().parent.parent


def write_snapshot(
    experiment: str, payload: dict, skipped: str | None = None
) -> Path:
    """Persist one experiment's headline numbers as ``BENCH_<id>.json``.

    The gated benchmarks (E11/E17/E18/E19/E20/E21) call this from their
    CI ``main(--smoke)`` entry points, so every green run leaves a
    perf-trajectory snapshot at the repo root — the ROADMAP's
    regression-tracking bookkeeping.  Snapshots are plain flat JSON so
    diffing two commits' numbers is ``diff``, not tooling.

    ``skipped`` marks a run whose environment cannot execute the
    experiment at all (e.g. E21's process shards on a host without
    working ``multiprocessing``): the reason lands both on stdout and in
    the snapshot under ``"skipped"``, so the run stays green and the
    perf trajectory shows *why* there is no number rather than silently
    losing the data point.

    Every snapshot also records the host it was measured on
    (:func:`host_fingerprint`) under ``"host"``: a ratio means little
    without the CPU count and interpreter behind it.
    """

    payload = {**payload, "host": host_fingerprint()}
    if skipped is not None:
        payload["skipped"] = skipped
        print(f"SKIP {experiment}: {skipped}")
    path = _REPO_ROOT / f"BENCH_{experiment}.json"
    # write-temp + rename: a crash mid-write must never leave a torn
    # snapshot where a previous commit's good numbers used to be
    temp = path.with_suffix(".json.tmp")
    temp.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    temp.replace(path)
    return path


def host_fingerprint() -> dict:
    """CPU count, Python version and platform of the measuring host."""

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def load_oracle(name: str):
    """The test-only reference module ``tests/<name>.py``.

    The gated A/B benches (E18, E19, engine scaling) measure the runtime
    against reference paths that live under ``tests/`` as oracles, not
    in ``src/``.  Oracle modules import only ``repro`` and the stdlib,
    so loading one needs nothing beyond the repository root on the path.
    """

    root = str(_REPO_ROOT)
    if root not in sys.path:
        sys.path.insert(0, root)
    return importlib.import_module(f"tests.{name}")


def record_row(experiment: str, row: str) -> None:
    """Attach a result row to an experiment's report."""

    _ROWS[experiment].append(row)


def record_sharing(experiment: str, label: str, tree: int, dag: int) -> None:
    """Record a provenance tree-size vs DAG-size ratio.

    Timings alone miss the memory half of structural sharing: a run can
    stay fast while its semantic trees balloon.  Benches that build
    provenance at scale report both sizes so the perf trajectory captures
    how much of the tree the hash-consed representation actually shares.
    """

    ratio = tree / dag if dag else 1.0
    record_row(
        experiment,
        f"{label}: tree={tree} events, dag={dag} unique, "
        f"sharing={ratio:.1f}x",
    )


def pytest_sessionfinish(session, exitstatus):
    if not _ROWS:
        return
    lines = ["", "=" * 72, "EXPERIMENT RESULT ROWS (paper-shape outputs)", "=" * 72]
    for experiment in sorted(_ROWS):
        lines.append(f"\n--- {experiment} ---")
        lines.extend(_ROWS[experiment])
    print("\n".join(lines))
