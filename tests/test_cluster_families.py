"""The TopologyFamily registry: schema validation and builders.

The api_redesign contract (DESIGN.md §14): cluster recipes are
declarative families with a parameter schema, a misspelled parameter
fails at *spec-construction* time with the accepted names in the
message, and generated families build deterministically from
``topo_seed``.
"""

import pytest

import repro.cluster
from repro.cluster import (ClusterSpec, FamilyParam, TopologyFamily,
                           build_fat_sites_cluster,
                           build_scale_free_cluster,
                           build_small_world_cluster, family_names,
                           get_family, register_family)
from repro.net.families import GENERATED_FAMILIES


class TestRegistry:
    def test_builtin_families_registered(self):
        names = family_names()
        for kind in ("grid5000", "grid5000-latratio", "small",
                     "scale_free", "small_world", "fat_sites"):
            assert kind in names

    def test_family_declares_schema(self):
        family = get_family("scale_free")
        assert set(family.param_names()) == {
            "sites", "m", "hosts_per_site", "cores_per_host", "topo_seed"}
        assert family.defaults()["sites"] == 20

    def test_unknown_family_lookup(self):
        with pytest.raises(KeyError):
            get_family("quake")


class TestRegisterFamily:
    """A family registered at run time behaves like a built-in one."""

    @pytest.fixture(autouse=True)
    def isolated_registry(self, monkeypatch):
        monkeypatch.setattr(repro.cluster, "_FAMILIES",
                            dict(repro.cluster._FAMILIES))

    @staticmethod
    def _family(seen, name="test-kind", default=1):
        def builder(seed=0, config=None, boot=True, **params):
            seen.append(params)
            return ClusterSpec(kind="small", boot=False).build(seed=seed)

        return TopologyFamily(name=name, builder=builder,
                              params=(FamilyParam("width", default),))

    def test_registered_family_reaches_spec_build(self):
        seen = []
        register_family(self._family(seen))
        assert "test-kind" in family_names()
        ClusterSpec(kind="test-kind", params=(("width", 3),)).build(seed=0)
        assert seen == [{"width": 3}]

    def test_registered_family_validates_spec_params(self):
        register_family(self._family([]))
        with pytest.raises(ValueError, match="test-kind.*accepted"):
            ClusterSpec(kind="test-kind", params=(("whatever", 3),))

    def test_reregistering_replaces_family(self):
        register_family(self._family([], default=1))
        register_family(self._family([], default=2))
        assert get_family("test-kind").defaults() == {"width": 2}
        assert family_names().count("test-kind") == 1


class TestSpecValidation:
    def test_unknown_param_fails_at_construction(self):
        with pytest.raises(ValueError, match="rewire"):
            ClusterSpec(kind="scale_free", params=(("rewire_p", 0.1),))

    def test_error_names_family_and_accepted_params(self):
        with pytest.raises(ValueError, match="scale_free.*accepted"):
            ClusterSpec(kind="scale_free", params=(("bogus", 1),))

    def test_unknown_family_fails_at_construction(self):
        with pytest.raises(ValueError, match="unknown topology family"):
            ClusterSpec(kind="quake")

    def test_valid_generated_spec_builds(self):
        spec = ClusterSpec(kind="small_world", boot=False,
                           params=(("sites", 6),))
        cluster = spec.build(seed=1)
        assert len(cluster.topology.sites) == 6

    def test_with_params_revalidates(self):
        spec = ClusterSpec(kind="fat_sites", boot=False)
        with pytest.raises(ValueError, match="fat_sites"):
            spec.with_params(m=3)


class TestGeneratedBuilders:
    @pytest.mark.parametrize("family", GENERATED_FAMILIES)
    def test_spec_build_deterministic(self, family):
        spec = ClusterSpec(kind=family, boot=False,
                           params=(("sites", 8), ("topo_seed", 4)))
        a, b = spec.build(seed=0), spec.build(seed=0)
        assert sorted(a.topology.sites) == sorted(b.topology.sites)
        assert (sorted(a.topology._links)
                == sorted(b.topology._links))

    def test_builders_route_and_boot(self):
        cluster = build_scale_free_cluster(sites=6, topo_seed=1)
        assert cluster.topology.routed
        assert cluster._booted
        assert len(cluster.mpds) == cluster.topology.n_hosts
        small = build_small_world_cluster(sites=6, boot=False)
        assert not small._booted
        fat = build_fat_sites_cluster(sites=6, router_groups=2,
                                      boot=False)
        assert fat.topology.transit

    def test_topo_seed_changes_topology_not_simulation_seed(self):
        a = build_scale_free_cluster(sites=10, topo_seed=0, boot=False)
        b = build_scale_free_cluster(sites=10, topo_seed=1, boot=False,
                                     seed=99)
        c = build_scale_free_cluster(sites=10, topo_seed=0, boot=False,
                                     seed=99)
        assert sorted(a.topology._links) != sorted(b.topology._links)
        assert sorted(a.topology._links) == sorted(c.topology._links)


class TestFamilyDataclass:
    def test_validate_accepts_declared(self):
        family = TopologyFamily(
            name="t", builder=lambda **kw: None,
            params=(FamilyParam("x", 1),))
        family.validate({"x": 2})
        with pytest.raises(ValueError, match="accepted"):
            family.validate({"y": 2})

    def test_default_schema_is_empty(self):
        family = TopologyFamily(name="t", builder=lambda **kw: None)
        assert family.params == ()
        assert family.defaults() == {}
        with pytest.raises(ValueError, match="accepted: \\[\\]"):
            family.validate({"x": 1})

    def test_build_passes_through(self):
        seen = {}

        def builder(seed=0, config=None, boot=True, **params):
            seen.update(seed=seed, boot=boot, **params)
            return "cluster"

        family = TopologyFamily(name="t", builder=builder,
                                params=(FamilyParam("x", 1),))
        assert family.build(seed=5, boot=False, x=9) == "cluster"
        assert seen == {"seed": 5, "boot": False, "x": 9}
