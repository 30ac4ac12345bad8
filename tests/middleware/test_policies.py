"""Owner preferences, gatekeeper and key factory."""

import pytest

from repro.middleware.config import MiddlewareConfig, OwnerPrefs
from repro.middleware.gatekeeper import AdmissionError, Gatekeeper
from repro.middleware.keys import KeyFactory


class TestOwnerPrefs:
    def test_defaults(self):
        prefs = OwnerPrefs()
        assert prefs.j_limit == 1 and prefs.p_limit == 1

    def test_for_cores(self):
        prefs = OwnerPrefs.for_cores(4)
        assert prefs.p_limit == 4

    def test_denied(self):
        prefs = OwnerPrefs(denied=frozenset({"evil.host"}))
        assert not prefs.allows("evil.host")
        assert prefs.allows("good.host")

    @pytest.mark.parametrize("j,p", [(0, 1), (1, 0)])
    def test_invalid_limits(self, j, p):
        with pytest.raises(ValueError):
            OwnerPrefs(j_limit=j, p_limit=p)

    def test_paper_examples(self):
        """J=2,P=1: two users one process each; J=1,P=2: dual-core."""
        two_users = OwnerPrefs(j_limit=2, p_limit=1)
        dual_core = OwnerPrefs(j_limit=1, p_limit=2)
        assert two_users.j_limit == 2
        assert dual_core.p_limit == 2


class TestMiddlewareConfig:
    def test_booking_target_overbooks(self):
        config = MiddlewareConfig(overbook_factor=1.2, overbook_extra=5)
        assert config.booking_target(100) == 120
        assert config.booking_target(10) == 15  # extra dominates

    def test_no_overbooking_configurable(self):
        config = MiddlewareConfig(overbook_factor=1.0, overbook_extra=0)
        assert config.booking_target(50) == 50

    @pytest.mark.parametrize("kwargs", [
        {"overbook_factor": 0.5},
        {"overbook_extra": -1},
        {"rs_timeout_s": 0},
        {"ping_samples": 0},
    ])
    def test_invalid_config(self, kwargs):
        with pytest.raises(ValueError):
            MiddlewareConfig(**kwargs)


class TestGatekeeper:
    def make(self, j=1, p=4):
        return Gatekeeper("h.s", OwnerPrefs(j_limit=j, p_limit=p))

    def test_accept_within_j(self):
        gk = self.make(j=2)
        assert gk.try_admit("k1", "x")
        assert gk.try_admit("k2", "x")
        assert not gk.try_admit("k3", "x")

    def test_denied_submitter(self):
        gk = Gatekeeper("h.s", OwnerPrefs(denied=frozenset({"bad"})))
        assert not gk.try_admit("k", "bad")
        assert gk.refused == 1

    def test_running_counts_against_j(self):
        gk = self.make(j=1)
        gk.try_admit("k", "x")
        gk.start_application("k", "job1", 2)
        assert not gk.try_admit("k2", "x")
        gk.end_application("job1")
        assert gk.try_admit("k3", "x")

    def test_start_without_hold_raises(self):
        gk = self.make()
        with pytest.raises(AdmissionError):
            gk.start_application("nokey", "job", 1)

    def test_start_beyond_p_raises(self):
        gk = self.make(p=2)
        gk.try_admit("k", "x")
        with pytest.raises(AdmissionError):
            gk.start_application("k", "job", 3)

    def test_double_start_same_job_raises(self):
        gk = self.make(j=2)
        gk.try_admit("k1", "x")
        gk.start_application("k1", "job", 1)
        gk.try_admit("k2", "x")
        with pytest.raises(AdmissionError):
            gk.start_application("k2", "job", 1)

    def test_end_unknown_job_raises(self):
        with pytest.raises(AdmissionError):
            self.make().end_application("ghost")

    def test_release_hold(self):
        gk = self.make()
        gk.try_admit("k", "x")
        assert gk.release_hold("k")
        assert not gk.release_hold("k")
        assert gk.try_admit("k2", "x")

    def test_busy_processes(self):
        gk = self.make(j=2, p=4)
        gk.try_admit("k1", "x")
        gk.start_application("k1", "j1", 3)
        assert gk.busy_processes == 3


class TestKeyFactory:
    def test_unique_keys(self):
        factory = KeyFactory("h.s", seed=1)
        k1 = factory.new_key("job1")
        k2 = factory.new_key("job1")
        assert k1.value != k2.value

    def test_deterministic_across_factories(self):
        a = KeyFactory("h.s", seed=1).new_key("job1")
        b = KeyFactory("h.s", seed=1).new_key("job1")
        assert a.value == b.value

    def test_submitter_recorded(self):
        key = KeyFactory("h.s").new_key("j")
        assert key.submitter == "h.s"
        assert key.job_id == "j"

    def test_seed_changes_keys(self):
        a = KeyFactory("h.s", seed=1).new_key("job1")
        b = KeyFactory("h.s", seed=2).new_key("job1")
        assert a.value != b.value
