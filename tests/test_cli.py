"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from tests.vetting_oracle import nfa_vetting

AUDIT = "a[m<v>] || s[m(x).n1<x>] || c[n1(x).keep<x>]"


@pytest.fixture
def system_file(tmp_path):
    path = tmp_path / "system.pi"
    path.write_text(AUDIT)
    return str(path)


class TestRun:
    def test_run_prints_trace_and_final(self, system_file, capsys):
        assert main(["run", system_file]) == 0
        out = capsys.readouterr().out
        assert "quiescent" in out
        assert "keep<<v:" in out

    def test_run_erased_mode(self, system_file, capsys):
        assert main(["run", system_file, "--erased"]) == 0
        out = capsys.readouterr().out
        assert "keep<<v>>" in out  # no provenance annotation

    def test_strategy_and_budget_flags(self, system_file, capsys):
        assert main(
            ["run", system_file, "--strategy", "random", "--seed", "3",
             "--max-steps", "2"]
        ) == 0
        assert "max-steps" in capsys.readouterr().out


class TestExplore:
    def test_reports_state_counts(self, system_file, capsys):
        assert main(["explore", system_file]) == 0
        out = capsys.readouterr().out
        assert "states=" in out and "terminal=" in out


class TestCheck:
    def test_correct_system_exits_zero(self, system_file, capsys):
        assert main(["check", system_file]) == 0
        out = capsys.readouterr().out
        assert "correct provenance: True" in out
        assert "timings:" in out

    def test_forged_system_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "forged.pi"
        path.write_text("m<<v:{b!{}}>>")
        assert main(["check", str(path), "--principal", "b"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_online_checks_every_state(self, system_file, capsys):
        assert main(["check", system_file, "--online"]) == 0
        out = capsys.readouterr().out
        assert "correct provenance: True" in out
        assert "states, online" in out
        assert "timings:" in out and "check=" in out

    def test_online_flags_forged_initial_state(self, tmp_path, capsys):
        path = tmp_path / "forged.pi"
        path.write_text("m<<v:{b!{}}>>")
        assert main(["check", str(path), "--online", "--principal", "b"]) == 1
        assert "FAIL at state 0" in capsys.readouterr().out


class TestAnalyse:
    def test_verdicts_printed(self, tmp_path, capsys):
        path = tmp_path / "auth.pi"
        path.write_text("a[m(c!any;any as x).0] || c[m<v1>] || e[m<v2>]")
        assert main(["analyse", str(path)]) == 0
        out = capsys.readouterr().out
        assert "needed" in out


class TestFmt:
    def test_round_trips(self, system_file, capsys):
        assert main(["fmt", system_file]) == 0
        out = capsys.readouterr().out.strip()
        from repro.lang import parse_system

        assert parse_system(out) == parse_system(AUDIT)

    def test_parse_error_is_clean(self, tmp_path, capsys):
        path = tmp_path / "bad.pi"
        path.write_text("a[<<]")
        assert main(["fmt", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestSim:
    def test_sim_reports_metrics(self, system_file, capsys):
        assert main(["sim", system_file]) == 0
        out = capsys.readouterr().out
        assert "deliveries = 2" in out
        assert "vet_transitions" in out
        assert "vetting: " in out

    def test_sim_nfa_reference_agrees(self, system_file, capsys):
        assert main(["sim", system_file]) == 0
        bank = capsys.readouterr().out.splitlines()
        with nfa_vetting():
            assert main(["sim", system_file]) == 0
        nfa = capsys.readouterr().out.splitlines()
        assert "  deliveries = 2" in nfa
        for key in ("deliveries", "pattern_checks", "pattern_rejections"):
            line = next(l for l in bank if l.startswith(f"  {key} = "))
            assert line in nfa

    def test_sim_erased_mode(self, system_file, capsys):
        assert main(["sim", system_file, "--erased"]) == 0
        out = capsys.readouterr().out
        assert "pattern_checks = 0" in out

    def test_sim_sharded_reports_per_shard_stats(self, system_file, capsys):
        assert main(["sim", system_file, "--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "shards=2 mode=inline" in out
        assert "deliveries = 2" in out
        assert "shard 0:" in out and "shard 1:" in out
        assert "barrier_stall=" in out

    def test_sim_sharded_matches_unsharded_counts(self, system_file, capsys):
        assert main(["sim", system_file, "--shards", "3", "--seed", "5"]) == 0
        sharded = capsys.readouterr().out
        assert main(["sim", system_file, "--seed", "5"]) == 0
        plain = capsys.readouterr().out
        for line in ("messages_sent = 3", "deliveries = 2"):
            assert line in sharded and line in plain

    def test_sim_inline_shards_end_on_the_bare_clock(self, tmp_path, capsys):
        # two senders on m, racing receivers, a relay onto k: jittered
        # arrivals decide the run's last instant
        path = tmp_path / "race.pi"
        path.write_text(
            "a[m<v1>] || a[m<v2>] || b[n<w>] || c[m(x).k<x>] || "
            "c[m(y).k<y>] || d[n(z).0] || e[k(q).0] || e[k(r).0]"
        )
        heads = []
        for shards in ("1", "2"):
            assert main(["sim", str(path), "--shards", shards]) == 0
            first = capsys.readouterr().out.splitlines()[0].split()
            heads.append(first[:2])
        assert heads[0] == heads[1] == ["events=12", "time=2.72"]


class TestLint:
    CLEAN = "a[m<v>] || b[m(a!any;any as x).0]"
    SHADOWED = (
        "c[m<v>] || a[m(any as x).keep<x> + m(c!any;any as y).keep2<y>]"
        " || d[keep(any as z).0]"
    )
    VACUOUS = "c[m<v>] || a[m(any|a!any as x).0]"

    def _write(self, tmp_path, source):
        path = tmp_path / "lint.pi"
        path.write_text(source)
        return str(path)

    def test_clean_system_exits_zero(self, tmp_path, capsys):
        assert main(["lint", self._write(tmp_path, self.CLEAN)]) == 0
        out = capsys.readouterr().out
        assert "0 error(s), 0 warning(s)" in out
        assert "certificate elides vetting on: m" in out

    def test_shadowed_branch_exits_nonzero(self, tmp_path, capsys):
        assert main(["lint", self._write(tmp_path, self.SHADOWED)]) == 1
        out = capsys.readouterr().out
        assert "shadowed-branch" in out
        assert "a@m#1" in out

    def test_fixture_is_flagged(self, capsys):
        from pathlib import Path

        fixture = Path(__file__).parent / "fixtures" / "lint_subsumed.pi"
        assert main(["lint", str(fixture)]) == 1
        assert "shadowed-branch" in capsys.readouterr().out

    def test_warnings_pass_without_strict(self, tmp_path, capsys):
        path = self._write(tmp_path, self.VACUOUS)
        assert main(["lint", path]) == 0
        assert main(["lint", path, "--strict"]) == 1

    def test_json_payload_shape(self, tmp_path, capsys):
        import json

        assert main(["lint", self._write(tmp_path, self.CLEAN), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["errors"] == 0
        assert payload["flow"]["complete"] is True
        assert payload["certificate"]["elidable_channels"] == ["m"]

    def test_declared_principal_widens_the_universe(self, tmp_path, capsys):
        source = "c[m<v>] || a[m(b!any;any as x).0]"
        path = self._write(tmp_path, source)
        assert main(["lint", path]) == 1
        capsys.readouterr()
        assert main(["lint", path, "--principal", "b"]) == 0


class TestStatsJson:
    def test_single_runtime_summary_is_dumped(self, system_file, tmp_path, capsys):
        import json

        stats = tmp_path / "stats.json"
        assert main(["sim", system_file, "--stats-json", str(stats)]) == 0
        assert "stats written to" in capsys.readouterr().out
        payload = json.loads(stats.read_text())
        assert payload["deliveries"] == 2
        assert payload["messages_sent"] == 3

    def test_sharded_dump_has_merged_and_per_shard(
        self, system_file, tmp_path, capsys
    ):
        import json

        stats = tmp_path / "stats.json"
        assert (
            main(
                [
                    "sim",
                    system_file,
                    "--shards",
                    "2",
                    "--stats-json",
                    str(stats),
                ]
            )
            == 0
        )
        payload = json.loads(stats.read_text())
        assert payload["merged"]["deliveries"] == 2
        assert len(payload["shards"]) == 2
        assert sum(s["deliveries"] for s in payload["shards"]) == 2


class TestQueryCommand:
    def captured(self, system_file, tmp_path):
        store = tmp_path / "store"
        assert main(["sim", system_file, "--durable", str(store)]) == 0
        return str(store)

    def test_summary_builds_the_index_from_the_journal(
        self, system_file, tmp_path, capsys
    ):
        store = self.captured(system_file, tmp_path)
        capsys.readouterr()
        assert main(["query", store]) == 0
        out = capsys.readouterr().out
        assert (
            "index: built from the journal (2 deliveries, 1 generations)"
            in out
        )
        assert "deliveries=2" in out

    def test_where_and_why_queries(self, system_file, tmp_path, capsys):
        store = self.captured(system_file, tmp_path)
        capsys.readouterr()
        assert (
            main(
                [
                    "query",
                    store,
                    "--derived-from",
                    "a",
                    "--taint",
                    "a",
                    "--cone",
                    "1",
                    "--receiver",
                    "c",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "derived from sends by a: 2" in out
        assert "tainted by a: 2" in out
        assert "cone of influence of #1: 1" in out
        assert "plan: received-by" in out

    def test_witness_query(self, system_file, tmp_path, capsys):
        store = self.captured(system_file, tmp_path)
        capsys.readouterr()
        assert main(["query", store, "--witness", "s!any;any"]) == 0
        out = capsys.readouterr().out
        assert "witness: delivery #1" in out

    def test_exports_write_files(self, system_file, tmp_path, capsys):
        import json

        store = self.captured(system_file, tmp_path)
        capsys.readouterr()
        prov = tmp_path / "prov.json"
        dot = tmp_path / "hb.dot"
        assert (
            main(
                [
                    "query",
                    store,
                    "--export-prov",
                    str(prov),
                    "--export-dot",
                    str(dot),
                ]
            )
            == 0
        )
        assert json.loads(prov.read_text())["activity"]
        assert dot.read_text().startswith("digraph")

    def test_sharded_store_merges_canonically(
        self, system_file, tmp_path, capsys
    ):
        store = tmp_path / "shstore"
        assert (
            main(
                [
                    "sim",
                    system_file,
                    "--shards",
                    "2",
                    "--durable",
                    str(store),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["query", str(store), "--taint", "a"]) == 0
        out = capsys.readouterr().out
        assert "built from the journal (2 deliveries, 1 generations)" in out
        assert "tainted by a: 2" in out

    def test_missing_store_exits_two(self, tmp_path, capsys):
        assert main(["query", str(tmp_path / "absent")]) == 2
        assert "error" in capsys.readouterr().err

    def test_cone_out_of_range_exits_two(self, system_file, tmp_path, capsys):
        store = self.captured(system_file, tmp_path)
        capsys.readouterr()
        assert main(["query", store, "--cone", "99"]) == 2
        assert "out of range" in capsys.readouterr().err


class TestRecoverExitCodes:
    def test_clean_store_exits_zero(self, system_file, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(["sim", system_file, "--durable", str(store)]) == 0
        capsys.readouterr()
        assert main(["recover", str(store)]) == 0
        assert "verify: ok" in capsys.readouterr().out

    def test_format_2_store_exits_two(self, system_file, tmp_path, capsys):
        import json

        # format 2 recorded stream-drawn latencies: replaying it under
        # keyed draws would report a false divergence, so it is refused
        store = tmp_path / "store"
        assert main(["sim", system_file, "--durable", str(store)]) == 0
        capsys.readouterr()
        manifest = store / "MANIFEST.json"
        payload = json.loads(manifest.read_text())
        payload["format"] = 2
        manifest.write_text(json.dumps(payload))
        assert main(["recover", str(store)]) == 2
        assert "record format 2" in capsys.readouterr().err

    def test_missing_manifest_exits_two(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["recover", str(empty)]) == 2
        assert "no manifest" in capsys.readouterr().err

    def test_failed_verify_exits_one_and_names_the_generation(
        self, system_file, tmp_path, capsys
    ):
        import json

        store = tmp_path / "store"
        assert main(["sim", system_file, "--durable", str(store)]) == 0
        capsys.readouterr()
        manifest = store / "MANIFEST.json"
        payload = json.loads(manifest.read_text())
        payload["system"] = payload["system"].replace("m<v>", "m<w>")
        manifest.write_text(json.dumps(payload))
        assert main(["recover", str(store)]) == 1
        err = capsys.readouterr().err
        assert "verify: FAILED" in err
        assert "first divergence in generation 1" in err
