"""The experiment registry: manifest, lazy resolution, spec builders."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments import registry


def run_args(*argv):
    """Parsed `run` args for spec builders (defaults unless overridden)."""
    from repro.cli import build_run_parser

    return build_run_parser().parse_args(list(argv))


class TestManifest:
    def test_names_order_matches_legacy_choices(self):
        assert registry.names() == (
            "fig2", "fig3", "fig4", "table1", "ablations", "scaling",
            "multiuser", "coallocation", "commaware", "churnload",
            "applatency", "multiuser2", "topozoo", "migration", "all")

    def test_shardable_flags(self):
        assert not registry.is_shardable("table1")
        assert not registry.is_shardable("ablations")
        shardable = registry.shardable_names()
        assert "table1" not in shardable and "ablations" not in shardable
        assert set(shardable) | {"table1", "ablations"} == set(
            registry.names())

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            registry.get("quake")

    def test_register_rejects_unknown_name(self):
        with pytest.raises(ValueError):
            registry.register(registry.Experiment(
                name="quake", cli_run=lambda args, store: None))

    def test_register_rejects_shardable_mismatch(self):
        with pytest.raises(ValueError):
            registry.register(registry.Experiment(
                name="table1", cli_run=lambda args, store: None,
                shardable=True))


class TestLaziness:
    def test_registry_import_pulls_no_drivers(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        code = (
            "import sys\n"
            "from repro.experiments import registry\n"
            "extra = [m for m in sys.modules"
            " if m.startswith('repro.experiments.')"
            " and m != 'repro.experiments.registry']\n"
            "assert extra == [], extra\n"
            "registry.names(); registry.shardable_names()\n"
            "assert 'numpy' not in sys.modules\n")
        env = dict(os.environ)
        prior = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src + (os.pathsep + prior if prior else "")
        subprocess.run([sys.executable, "-c", code], check=True, env=env)

    def test_cli_import_is_numpy_free(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        code = ("import sys, repro.cli\n"
                "assert 'numpy' not in sys.modules\n")
        env = dict(os.environ)
        prior = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src + (os.pathsep + prior if prior else "")
        subprocess.run([sys.executable, "-c", code], check=True, env=env)


class TestExports:
    """A name deleted from a driver must leave the lazy export table too."""

    def test_package_exports_resolve(self):
        import repro.experiments as experiments

        for name in experiments.__all__:
            assert getattr(experiments, name) is not None, name

    def test_module_all_names_exist(self):
        import importlib
        import pkgutil

        import repro.experiments as experiments

        for info in pkgutil.iter_modules(experiments.__path__):
            module = importlib.import_module(
                f"repro.experiments.{info.name}")
            for name in getattr(module, "__all__", ()):
                assert hasattr(module, name), f"{info.name}.{name}"


class TestGet:
    def test_roundtrip_registers_driver(self):
        experiment = registry.get("coallocation")
        assert experiment.name == "coallocation"
        assert experiment.shardable
        assert experiment.specs is not None
        assert "demands" in experiment.cli_axes

    def test_every_shardable_name_has_a_spec_builder(self):
        for name in registry.shardable_names():
            assert registry.get(name).specs is not None, name

    def test_unshardable_entries_have_no_spec_builder(self):
        assert registry.get("table1").specs is None
        assert registry.get("ablations").specs is None

    def test_spec_builder_matches_cli_grid(self):
        args = run_args("coallocation", "--cluster", "small",
                        "--demands", "4,8")
        specs = registry.get("coallocation").specs(args)
        assert [spec.name for spec in specs] == ["coallocation"]
        assert specs[0].cell_count() == 4  # 2 strategies x 2 demands

    def test_all_composite_concatenates_parts(self):
        args = run_args("all", "--cluster", "small", "--demands", "4")
        whole = registry.get("all").specs(args)
        parts = []
        for name in ("fig2", "fig3", "fig4", "scaling", "multiuser"):
            parts.extend(registry.get(name).specs(args))
        assert ([(s.name, s.content_hash()) for s in whole]
                == [(s.name, s.content_hash()) for s in parts])

    def test_spec_builder_hash_matches_cli_store(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["run", "coallocation", "--cluster", "small",
                     "--demands", "4", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        args = run_args("coallocation", "--cluster", "small",
                        "--demands", "4")
        spec = registry.get("coallocation").specs(args)[0]
        stored = next(tmp_path.glob("coallocation-*.jsonl"))
        assert spec.content_hash()[:12] in stored.name
