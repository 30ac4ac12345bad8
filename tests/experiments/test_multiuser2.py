"""The multiuser2 control-plane campaign: spec, determinism, report."""

import hashlib

import pytest

from repro.cli import build_run_parser, main
from repro.cluster import ClusterSpec
from repro.experiments import registry
from repro.experiments.engine import (ResultStore, encode_store_line,
                                      run_sweep)
from repro.experiments.multiuser2 import multiuser2_report, multiuser2_spec
from repro.experiments.orchestrator import worker_flags


def tiny_spec(seed=0, **overrides):
    kwargs = dict(tenants=(4, 16), rates=(0.05,),
                  cluster_spec=ClusterSpec(kind="small"), seed=seed)
    kwargs.update(overrides)
    return multiuser2_spec(**kwargs)


def run_args(*argv):
    return build_run_parser().parse_args(list(argv))


class TestSpec:
    def test_axes_and_cell_count(self):
        axes = dict(tiny_spec().axes)
        assert axes["tenants"] == (4, 16)
        assert axes["rate"] == (0.05,)
        assert axes["strategy"] == ("spread", "bandwidth_spread")
        assert tiny_spec().cell_count() == 4

    def test_content_hash_tracks_shape(self):
        assert (tiny_spec().content_hash()
                == tiny_spec().content_hash())
        assert (tiny_spec().content_hash()
                != tiny_spec(seed=1).content_hash())
        assert (tiny_spec().content_hash()
                != tiny_spec(tenants=(4,)).content_hash())


class TestSweepDeterminism:
    def test_serial_and_pool_runs_are_byte_identical(self, tmp_path):
        serial = run_sweep(tiny_spec(), jobs=1)
        store = ResultStore(tmp_path)
        pooled = run_sweep(tiny_spec(), jobs=2, store=store)
        assert ([c.value for c in serial.cells]
                == [c.value for c in pooled.cells])
        assert multiuser2_report(serial) == multiuser2_report(pooled)

    def test_cached_replay_is_identical(self, tmp_path):
        store = ResultStore(tmp_path)
        first = run_sweep(tiny_spec(), store=store)
        replay = run_sweep(tiny_spec(), store=store)
        assert replay.executed == 0
        assert replay.cached == first.spec.cell_count()
        assert multiuser2_report(first) == multiuser2_report(replay)


def cell_lines_sha256(spec):
    cells = "".join(encode_store_line(c.record()) + "\n"
                    for c in run_sweep(spec, jobs=1).cells)
    return hashlib.sha256(cells.encode()).hexdigest()


class TestStorePins:
    """The rounds' bytes, pinned: they change only with a deliberate
    seed or model change, which must re-pin them and say so in
    CHANGES.md.  A control-plane speed-up must leave both untouched."""

    def test_tiny_spec_cells_pinned(self):
        assert cell_lines_sha256(tiny_spec()) == (
            "c1cb3e1e6a7224af44547dea4328f846a54284650b0674bf47eb06a316269fb7")

    def test_grid5000_cell_pinned(self):
        spec = multiuser2_spec(tenants=(40,), rates=(0.5,),
                               strategies=("spread",),
                               cluster_spec=ClusterSpec(kind="grid5000"))
        assert cell_lines_sha256(spec) == (
            "4d935e97bf0ae2e386e3a4d4a70bd384542bd61171d08af7dcecbbb5ddfb20f8")


class TestFairnessGap:
    """The headline result: under load, `spread` holds more hosts per
    job than the communication-aware placement keeps, so tenants see
    more refusals — a real fairness gap between the strategies."""

    @pytest.fixture(scope="class")
    def loaded_sweep(self):
        return run_sweep(multiuser2_spec(
            tenants=(50,), rates=(0.02,),
            cluster_spec=ClusterSpec(kind="small"), seed=42))

    def test_saturation_gap_is_pinned(self, loaded_sweep):
        sat = {
            s: loaded_sweep.select(strategy=s)[0].value["saturation"]
            for s in ("spread", "bandwidth_spread")
        }
        assert sat["spread"] > sat["bandwidth_spread"] > 0

    def test_fairness_ledger_reconciles(self, loaded_sweep):
        for cell in loaded_sweep.cells:
            v = cell.value
            assert v["admitted"] + v["refused"] == v["arrivals"]
            assert v["leaked_holds"] == 0
            assert v["stuck_in_flight"] == {}
            assert v["proposals_committed"] == v["admitted"]

    def test_report_renders_gap_line(self, loaded_sweep):
        text = multiuser2_report(loaded_sweep)
        assert "== multi-tenant control plane:" in text
        assert "saturation@tenants" in text
        assert "slowdown-spread@tenants" in text
        assert "fairness gap @ rate=0.02, tenants=50:" in text
        # delta = spread - bandwidth_spread saturation must be positive
        delta = float(text.rsplit("delta=", 1)[1])
        assert delta > 0


class TestCliWiring:
    def test_registry_resolves_driver(self):
        exp = registry.get("multiuser2")
        assert exp.name == "multiuser2"
        assert exp.cli_axes == ("cluster", "controlplane")

    def test_spec_builder_honours_flags(self):
        args = run_args("multiuser2", "--cluster", "small",
                        "--tenants", "3,9", "--rates", "0.1")
        (spec,) = registry.get("multiuser2").specs(args)
        axes = dict(spec.axes)
        assert axes["tenants"] == (3, 9)
        assert axes["rate"] == (0.1,)

    def test_worker_flags_forward_controlplane_axes(self):
        args = run_args("multiuser2", "--cluster", "small",
                        "--tenants", "3,9", "--rates", "0.1")
        flags = worker_flags("multiuser2", args)
        assert ("--tenants", "3,9") == flags[flags.index("--tenants"):
                                             flags.index("--tenants") + 2]
        assert ("--rates", "0.1") == flags[flags.index("--rates"):
                                           flags.index("--rates") + 2]
        assert "--cluster" in flags
        # unset control-plane flags are not forwarded
        bare = worker_flags("multiuser2",
                            run_args("multiuser2", "--cluster", "small"))
        assert "--tenants" not in bare and "--rates" not in bare

    def test_cli_run_prints_deterministic_report(self, capsys):
        argv = ["run", "multiuser2", "--cluster", "small",
                "--tenants", "4", "--rates", "0.05", "--seed", "3"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "fairness gap" in first
