"""CLI surface."""

import functools

import pytest

import repro.cli as cli
from repro.cli import build_parser, build_run_parser, main, make_app
from repro.cluster import ClusterSpec
from repro.experiments.coallocation import coallocation_spec


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["-n", "8"])
        assert args.n == 8 and args.r == 1 and args.alloc == "spread"
        assert args.prog == "hostname"

    def test_paper_invocation(self):
        args = build_parser().parse_args(
            ["-n", "100", "-r", "2", "-a", "concentrate", "ep"])
        assert (args.n, args.r, args.alloc, args.prog) == (
            100, 2, "concentrate", "ep")

    def test_experiment_flag(self):
        args = build_run_parser().parse_args(["table1"])
        assert args.experiment == "table1"


class TestMakeApp:
    @pytest.mark.parametrize("name", ["hostname", "ep", "is", "cg"])
    def test_known_programs(self, name):
        assert make_app(name) is not None

    def test_unknown_program(self):
        with pytest.raises(ValueError):
            make_app("quake")


class TestMain:
    def test_missing_n_errors(self, capsys):
        assert main([]) == 2
        assert "-n is mandatory" in capsys.readouterr().err

    def test_single_run(self, capsys):
        code = main(["-n", "8", "-a", "concentrate", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "success" in out and "nancy" in out

    def test_table1(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "grelon" in out and "sol" in out and "17.167" in out


class TestEngineFlags:
    def test_parser_defaults(self):
        args = build_run_parser().parse_args(["fig2"])
        assert args.jobs == 1 and args.out is None and not args.force

    def test_campaign_choice(self):
        args = build_run_parser().parse_args(
            ["all", "--jobs", "4", "--out", "/tmp/r", "--force"])
        assert args.experiment == "all"
        assert (args.jobs, args.out, args.force) == (4, "/tmp/r", True)

    @pytest.fixture
    def fast_fig2(self, monkeypatch):
        """Shrink fig2 to a 2-cell sweep on the small testbed."""
        import repro.experiments.coallocation as coallocation_mod

        monkeypatch.setattr(
            coallocation_mod, "coallocation_spec", functools.partial(
                coallocation_spec, demands=(4, 8),
                cluster_spec=ClusterSpec(kind="small")))

    def test_fig2_runs_stores_and_caches(self, fast_fig2, tmp_path, capsys):
        argv = ["run", "fig2", "--jobs", "2",
                "--out", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "[engine] sweep fig2: 2 cells (2 executed, 0 cached)" in first
        assert "concentrate:cores" in first

        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "(0 executed, 2 cached)" in second

        assert main(argv + ["--force"]) == 0
        third = capsys.readouterr().out
        assert "(2 executed, 0 cached)" in third

    def test_fig2_without_store(self, fast_fig2, capsys):
        assert main(["run", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "[engine] sweep fig2" in out and ".jsonl" not in out


class TestGridOverrides:
    def test_coallocation_small_grid(self, tmp_path, capsys):
        argv = ["run", "coallocation", "--cluster", "small",
                "--demands", "4,8", "--jobs", "2", "--out", str(tmp_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "coallocation: 4 cells (4 executed" in out
        assert "concentrate:hosts" in out and "spread:hosts" in out
        stored = list(tmp_path.glob("coallocation-*.jsonl"))
        assert len(stored) == 1 and stored[0].stat().st_size > 0

    def test_bad_demands_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "coallocation", "--demands", "4,x"])

    def test_commaware_small_report(self, capsys):
        argv = ["run", "commaware", "--cluster", "small",
                "--demands", "4,8"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        # All six strategies, and only deterministic report text (the
        # acceptance criterion diffs --jobs 1 against --jobs 2 runs).
        for strategy in ("concentrate", "spread", "block",
                         "bandwidth_spread", "diameter_concentrate",
                         "topo_block"):
            assert strategy in out
        assert " s " not in out.splitlines()[0]

    def test_commaware_byte_identical_across_jobs(self, capsys):
        argv = ["run", "commaware", "--cluster", "small",
                "--demands", "4,8"]
        assert main(argv + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel


class TestShardedCampaign:
    """--shard K/N plus the merge/aggregate verbs, end to end."""

    def shard_argv(self, k, n, out):
        return ["run", "coallocation", "--cluster", "small",
                "--demands", "4,8", "--shard", f"{k}/{n}", "--out", out]

    def test_parser_accepts_shard(self):
        args = build_run_parser().parse_args(
            ["commaware", "--shard", "2/3", "--out", "/x"])
        assert args.shard == (2, 3)

    def test_bad_shard_rejected(self):
        with pytest.raises(SystemExit):
            build_run_parser().parse_args(["fig2", "--shard", "0/3"])
        with pytest.raises(SystemExit):
            build_run_parser().parse_args(["fig2", "--shard", "nope"])

    def test_shard_requires_experiment_and_out(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["-n", "4", "--shard", "1/2", "--out", str(tmp_path)])
        with pytest.raises(SystemExit):
            main(["run", "coallocation", "--shard", "1/2"])
        with pytest.raises(SystemExit):
            main(["run", "table1", "--shard", "1/2",
                  "--out", str(tmp_path)])

    def test_shard_with_force_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["run", "coallocation", "--shard", "1/2",
                  "--out", str(tmp_path), "--force"])

    def test_fully_cached_shard_reports_no_checkpoint(self, tmp_path,
                                                      capsys):
        out = str(tmp_path)
        assert main(["run", "coallocation", "--cluster", "small",
                     "--demands", "4,8", "--out", out]) == 0
        capsys.readouterr()
        assert main(self.shard_argv(1, 2, out)) == 0
        text = capsys.readouterr().out
        assert "no checkpoint written" in text
        assert ".partial" not in text

    def test_shard_merge_reproduces_unsharded_store(self, tmp_path, capsys):
        ref = tmp_path / "ref"
        assert main(["run", "coallocation", "--cluster", "small",
                     "--demands", "4,8", "--out", str(ref)]) == 0
        capsys.readouterr()
        for k in (1, 2):
            out = tmp_path / f"shard{k}"
            assert main(self.shard_argv(k, 2, str(out))) == 0
            text = capsys.readouterr().out
            assert f"[shard {k}/2]" in text
            # Shard mode prints the engine line only — no report tables.
            assert "concentrate:hosts" not in text
            assert ".jsonl.partial" in text
        partials = sorted(tmp_path.glob("shard*/coallocation-*.partial"))
        assert len(partials) == 2
        assert not list(tmp_path.glob("shard*/coallocation-*[!l].jsonl"))
        merged = tmp_path / "merged"
        argv = ["merge"] + [str(p) for p in partials] + [
            "--out", str(merged), "--require-complete"]
        assert main(argv) == 0
        assert "[merge]" in capsys.readouterr().out
        reference = next(ref.glob("coallocation-*.jsonl"))
        produced = next(merged.glob("coallocation-*.jsonl"))
        assert produced.read_bytes() == reference.read_bytes()

        assert main(["aggregate", str(merged)]) == 0
        report = capsys.readouterr().out
        assert "campaign aggregate: 1 sweep(s)" in report
        assert "coallocation" in report and "complete" in report

    def test_merge_conflict_exits_nonzero(self, tmp_path, capsys):
        import json

        ref = tmp_path / "ref"
        assert main(["run", "coallocation", "--cluster", "small",
                     "--demands", "4,8", "--out", str(ref)]) == 0
        capsys.readouterr()
        original = next(ref.glob("coallocation-*.jsonl"))
        tampered = tmp_path / "tampered.jsonl"
        lines = original.read_text().splitlines()
        rec = json.loads(lines[1])
        rec["value"]["total_hosts"] = 9999
        lines[1] = json.dumps(rec, sort_keys=True)
        tampered.write_text("\n".join(lines) + "\n")
        code = main(["merge", str(original), str(tampered),
                     "--out", str(tmp_path / "merged")])
        err = capsys.readouterr().err
        assert code == 1
        assert "merge conflict" in err and "divergent" in err

    def test_merge_of_a_directory_is_a_usage_error(self, tmp_path, capsys):
        """A store directory (or a missing path) given where store files
        belong exits 2 with argparse's usage error before any merge,
        never as a conflict."""
        ref = tmp_path / "ref"
        assert main(["run", "coallocation", "--cluster", "small",
                     "--demands", "4,8", "--out", str(ref)]) == 0
        canonical = next(ref.glob("coallocation-*.jsonl"))
        capsys.readouterr()
        merged = tmp_path / "merged"
        missing = tmp_path / "missing.jsonl"
        for stores, bad in (([ref], ref), ([canonical, ref], ref),
                            ([missing, canonical], missing)):
            with pytest.raises(SystemExit) as exit_info:
                main(["merge"] + [str(s) for s in stores]
                     + ["--out", str(merged)])
            assert exit_info.value.code == 2
            err = capsys.readouterr().err
            assert "usage: p2pmpirun merge" in err
            assert f"not a store file: {bad};" in err
            assert ".jsonl.partial" in err
            assert "merge conflict" not in err
        assert not merged.exists()
        # The files inside it merge as before.
        assert main(["merge", str(canonical), "--out", str(merged)]) == 0

    def test_merge_incomplete_without_flag_writes_partial(self, tmp_path,
                                                          capsys):
        out = tmp_path / "shard1"
        assert main(self.shard_argv(1, 2, str(out))) == 0
        partial = next(out.glob("coallocation-*.partial"))
        merged = tmp_path / "merged"
        assert main(["merge", str(partial), "--out", str(merged)]) == 0
        assert list(merged.glob("*.jsonl.partial"))
        assert main(["merge", str(partial), "--out", str(merged),
                     "--require-complete"]) == 1
        assert "incomplete" in capsys.readouterr().err

    def test_merge_destination_conflict_exits_nonzero(self, tmp_path,
                                                      capsys):
        import json

        out = tmp_path / "shard1"
        assert main(self.shard_argv(1, 2, str(out))) == 0
        capsys.readouterr()
        partial = next(out.glob("coallocation-*.partial"))
        dest = tmp_path / "dest"
        assert main(["merge", str(partial), "--out", str(dest)]) == 0
        capsys.readouterr()
        lurking = next(dest.glob("*.partial"))
        lines = lurking.read_text().splitlines()
        rec = json.loads(lines[1])
        rec["value"]["total_hosts"] = 777
        lines[1] = json.dumps(rec, sort_keys=True)
        lurking.write_text("\n".join(lines) + "\n")
        assert main(["merge", str(partial), "--out", str(dest)]) == 1
        assert "merge conflict" in capsys.readouterr().err

    def test_aggregate_missing_dir_errors(self, tmp_path, capsys):
        assert main(["aggregate", str(tmp_path / "no-such-dir")]) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_aggregate_conflicted_store_exits_nonzero(self, tmp_path,
                                                      capsys):
        import json

        ref = tmp_path / "ref"
        assert main(["run", "coallocation", "--cluster", "small",
                     "--demands", "4,8", "--out", str(ref)]) == 0
        capsys.readouterr()
        canonical = next(ref.glob("coallocation-*.jsonl"))
        divergent = canonical.with_suffix(".jsonl.partial")
        lines = canonical.read_text().splitlines()
        rec = json.loads(lines[1])
        rec["value"]["total_hosts"] = 123456
        divergent.write_text(
            "\n".join([lines[0], json.dumps(rec, sort_keys=True)]) + "\n")
        assert main(["aggregate", str(ref)]) == 1
        captured = capsys.readouterr()
        assert "CONFLICTED" in captured.out
        assert "conflicting store files" in captured.err


class TestJobsFlag:
    def test_negative_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "coallocation", "--jobs", "-1"])

    def test_zero_auto_sizes(self, tmp_path, monkeypatch, capsys):
        import repro.experiments.coallocation as coallocation_mod

        seen = {}
        real = coallocation_mod.run_sweep

        def spy(*args, **kwargs):
            seen["jobs"] = kwargs.get("jobs")
            return real(*args, **kwargs)

        monkeypatch.setattr(coallocation_mod, "run_sweep", spy)
        monkeypatch.setattr("os.cpu_count", lambda: 3)
        assert main(["run", "coallocation", "--cluster", "small",
                     "--demands", "4", "--jobs", "0"]) == 0
        assert seen["jobs"] == 3


class TestChurnload:
    SMOKE = ["run", "churnload", "--cluster", "small",
             "--users", "2", "--horizon", "120", "--failures", "0.006"]

    def test_parser_flags(self):
        args = build_run_parser().parse_args(
            ["churnload", "--users", "3",
             "--horizon", "90", "--failures", "0,0.01"])
        assert args.experiment == "churnload"
        assert (args.users, args.horizon, args.failures) == (3, 90.0, "0,0.01")

    def test_bad_failures_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "churnload", "--failures", "0.1,x"])
        with pytest.raises(SystemExit):
            main(["run", "churnload", "--failures", "-0.1"])

    def test_bad_horizon_and_users_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "churnload", "--horizon", "0"])
        with pytest.raises(SystemExit):
            main(["run", "churnload", "--users", "0"])

    def test_smoke_report_byte_identical_across_jobs(self, capsys):
        assert main(self.SMOKE + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(self.SMOKE + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel
        assert "== churn under load:" in serial
        for strategy in ("spread", "concentrate", "bandwidth_spread"):
            assert strategy in serial

    def test_smoke_stores_and_caches(self, tmp_path, capsys):
        argv = self.SMOKE + ["--jobs", "2", "--out", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        stored = list(tmp_path.glob("churnload-*.jsonl"))
        assert len(stored) == 1 and stored[0].stat().st_size > 0
        assert main(argv) == 0  # cache replay renders identical text
        assert capsys.readouterr().out == first


class TestApplatency:
    SMOKE = ["run", "applatency", "--demands", "32",
             "--ratios", "1,1000"]

    def test_parser_flags(self):
        args = build_run_parser().parse_args(
            ["applatency", "--ratios", "1,121.6"])
        assert args.experiment == "applatency"
        assert args.ratios == "1,121.6"

    def test_bad_ratios_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "applatency", "--ratios", "1,x"])
        with pytest.raises(SystemExit):
            main(["run", "applatency", "--ratios", "0"])
        with pytest.raises(SystemExit):
            main(["run", "applatency", "--ratios", ""])
        with pytest.raises(SystemExit):
            main(["run", "applatency", "--demands", ""])
        with pytest.raises(SystemExit):
            main(["run", "applatency", "--demands", "0"])

    def test_smoke_report_byte_identical_across_jobs(self, capsys):
        assert main(self.SMOKE + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(self.SMOKE + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel
        assert "applatency: IS.B wall-clock" in serial
        assert "fig4 crossover calibration" in serial
        for strategy in ("spread", "concentrate", "bandwidth_spread",
                         "topo_block"):
            assert strategy in serial

    def test_shard_slice_writes_partial_only(self, tmp_path, capsys):
        argv = self.SMOKE + ["--shard", "1/2", "--jobs", "2",
                             "--out", str(tmp_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "[shard 1/2]" in out
        partials = sorted(p.name for p in tmp_path.glob("*.partial"))
        assert len(partials) == 2  # one checkpoint per application panel
        assert not list(tmp_path.glob("applatency-*.jsonl"))


class TestProfile:
    def test_parser_flag(self):
        args = build_run_parser().parse_args(["coallocation", "--profile"])
        assert args.profile is True
        assert build_run_parser().parse_args(["coallocation"]).profile \
            is False

    def test_profile_requires_experiment(self):
        with pytest.raises(SystemExit):
            main(["-n", "4", "--profile"])
        with pytest.raises(SystemExit):
            main(["run", "table1", "--profile"])

    def test_profile_dumps_pstats_next_to_store(self, tmp_path, capsys):
        argv = ["run", "coallocation", "--cluster", "small",
                "--demands", "4", "--profile", "--out", str(tmp_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        dump = tmp_path / "profile-coallocation.pstats"
        assert dump.exists() and dump.stat().st_size > 0
        assert str(dump) in out
        assert "cumulative" in out  # top-20 pstats table printed

        import pstats
        stats = pstats.Stats(str(dump))
        assert stats.total_calls > 0


class TestSubcommands:
    """The verb CLI: ``run`` validations, and the removed spellings."""

    def test_removed_spellings_are_usage_errors(self, capsys):
        """``--experiment`` and sweep flags such as ``--jobs`` are not
        job-form flags: both exit with argparse's usage error."""
        for argv in (["--experiment", "table1"], ["--experiment=table1"],
                     ["-n", "4", "--jobs", "2", "hostname"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "usage: p2pmpirun" in capsys.readouterr().err

    ARGS = ["run", "coallocation", "--cluster", "small",
            "--demands", "4,8"]

    def test_run_store_and_report_identical_across_jobs(self, tmp_path,
                                                        capsys):
        serial_out = tmp_path / "serial"
        pooled_out = tmp_path / "pooled"
        assert main(self.ARGS + ["--jobs", "1",
                                 "--out", str(serial_out)]) == 0
        serial = capsys.readouterr()
        assert main(self.ARGS + ["--jobs", "2",
                                 "--out", str(pooled_out)]) == 0
        pooled = capsys.readouterr()
        assert serial.err == "" and pooled.err == ""

        def report_lines(text):
            # the [engine] line carries wall-clock timing; the report
            # tables below it are the deterministic part
            return [line for line in text.splitlines()
                    if not line.startswith("[engine]")]

        assert report_lines(serial.out) == report_lines(pooled.out)
        reference = next(serial_out.glob("coallocation-*.jsonl"))
        produced = next(pooled_out.glob("coallocation-*.jsonl"))
        assert produced.name == reference.name
        assert produced.read_bytes() == reference.read_bytes()

    def test_rerun_into_same_store_is_pure_cache_hit(self, tmp_path,
                                                     capsys):
        out = str(tmp_path)
        assert main(self.ARGS + ["--out", out]) == 0
        assert "(4 executed, 0 cached)" in capsys.readouterr().out
        assert main(self.ARGS + ["--jobs", "2", "--out", out]) == 0
        assert "(0 executed, 4 cached)" in capsys.readouterr().out

    def test_job_parser_rejects_sweep_flags(self, capsys):
        """The job form reads only ``-n -r -a --block --group --class
        --seed prog``; campaign flags belong to ``run``."""
        for flag in (["--out", "/x"], ["--force"], ["--cluster", "small"],
                     ["--profile"]):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(["-n", "4", *flag])
            assert exc.value.code == 2
        capsys.readouterr()

    def test_run_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["run", "quake"])

    def test_run_parser_validations(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["run", "coallocation", "--shard", "1/2"])  # no --out
        with pytest.raises(SystemExit):
            main(["run", "table1", "--shard", "1/2", "--out",
                  str(tmp_path)])
        with pytest.raises(SystemExit):
            main(["run", "coallocation", "--jobs", "-1"])
        with pytest.raises(SystemExit):
            main(["run", "table1", "--profile"])


class TestMergeCleanup:
    """Promoting merges remove the shard checkpoints that fed them."""

    def shard_argv(self, k, n, out):
        return ["run", "coallocation", "--cluster", "small",
                "--demands", "4,8", "--shard", f"{k}/{n}", "--out", out]

    def _partials(self, tmp_path, capsys):
        for k in (1, 2):
            assert main(self.shard_argv(
                k, 2, str(tmp_path / f"shard{k}"))) == 0
        capsys.readouterr()
        return sorted(tmp_path.glob("shard*/coallocation-*.partial"))

    def test_promoting_merge_removes_inputs(self, tmp_path, capsys):
        partials = self._partials(tmp_path, capsys)
        assert len(partials) == 2
        merged = tmp_path / "merged"
        assert main(["merge"] + [str(p) for p in partials]
                    + ["--out", str(merged)]) == 0
        out = capsys.readouterr().out
        assert "removed 2 superseded .partial input(s)" in out
        assert not any(p.exists() for p in partials)
        assert list(merged.glob("coallocation-*.jsonl"))

    def test_keep_partial_retains_inputs(self, tmp_path, capsys):
        partials = self._partials(tmp_path, capsys)
        merged = tmp_path / "merged"
        assert main(["merge"] + [str(p) for p in partials]
                    + ["--out", str(merged), "--keep-partial"]) == 0
        assert "removed" not in capsys.readouterr().out
        assert all(p.exists() for p in partials)

    def test_incomplete_merge_keeps_inputs(self, tmp_path, capsys):
        partials = self._partials(tmp_path, capsys)
        merged = tmp_path / "merged"
        assert main(["merge", str(partials[0]),
                     "--out", str(merged)]) == 0
        assert partials[0].exists()
        assert list(merged.glob("*.jsonl.partial"))


class TestOrchestrateParser:
    def test_requires_out(self):
        with pytest.raises(SystemExit):
            main(["orchestrate", "coallocation"])

    def test_rejects_unshardable(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["orchestrate", "table1", "--out", str(tmp_path)])
        with pytest.raises(SystemExit):
            main(["orchestrate", "ablations", "--out", str(tmp_path)])

    def test_rejects_bad_knobs(self, tmp_path):
        out = ["--out", str(tmp_path)]
        with pytest.raises(SystemExit):
            main(["orchestrate", "coallocation", "--workers", "0"] + out)
        with pytest.raises(SystemExit):
            main(["orchestrate", "coallocation", "--shards", "0"] + out)
        with pytest.raises(SystemExit):
            main(["orchestrate", "coallocation", "--retries", "-1"] + out)
        with pytest.raises(SystemExit):
            main(["orchestrate", "coallocation", "--inject-kill", "0"]
                 + out)

    def test_defaults(self):
        from repro.cli import build_orchestrate_parser

        args = build_orchestrate_parser().parse_args(
            ["commaware", "--out", "/tmp/x"])
        assert args.workers == 2 and args.shards is None
        assert args.retries == 2 and args.stall_timeout == 300.0
        assert not args.keep_partial and args.inject_kill is None
