"""Property tests of the plan-dependent WAN contention model.

The four ISSUE-mandated properties:

* the pair score is symmetric in pair order;
* it is monotonically non-increasing in the crossing-pair count;
* a plan crossing no backbone link reduces to the NIC-clamped
  path bandwidth;
* with exactly 16 crossing pairs it agrees with the deprecated
  fixed-16 score.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alloc.commaware import contended_pair_bw_bps
from repro.grid5000.builder import build_topology
from repro.net.contention import (WAN_CONTENTION_FACTOR, ContentionModel,
                                  PlanContention)

TOPO = build_topology()
HOSTS = TOPO.all_hosts()
MODEL = ContentionModel(TOPO)


@st.composite
def plans(draw, min_size=2, max_size=40):
    """A random plan: host indices with repetition (co-located copies)."""
    idx = draw(st.lists(st.integers(0, len(HOSTS) - 1),
                        min_size=min_size, max_size=max_size))
    return [HOSTS[i] for i in idx]


class TestCountingRule:
    def test_site_counts_count_copies(self):
        nancy = TOPO.hosts_in_site("nancy")[:2]
        lyon = TOPO.hosts_in_site("lyon")[0]
        plan = [nancy[0], nancy[0], nancy[1], lyon]
        assert MODEL.plan(plan).counts() == {"nancy": 3, "lyon": 1}

    def test_crossing_pairs_is_concurrency_bound(self):
        nancy = TOPO.hosts_in_site("nancy")
        lyon = TOPO.hosts_in_site("lyon")
        plan = [h for h in nancy[:4]] + [h for h in lyon[:2]]
        crossing = MODEL.plan(plan).crossing_pairs()
        # min(4, 2): a pairwise round keeps each copy in one flow.
        assert crossing[("lyon", "nancy")] == 2

    def test_link_contention_reports_backbone(self):
        nancy = TOPO.hosts_in_site("nancy")[:16]
        bordeaux = TOPO.hosts_in_site("bordeaux")[:16]
        links = MODEL.plan(nancy + bordeaux).links()
        assert len(links) == 1
        (link,) = links
        assert link.link == ("bordeaux", "nancy")
        assert link.backbone_bps == 1.0e9  # the paper's slow link
        assert link.crossing_pairs == 16
        assert link.per_pair_bps == pytest.approx(1.0e9 / 16)

    def test_plan_snapshot_roundtrip(self):
        plan = MODEL.plan([TOPO.hosts_in_site("nancy")[0],
                           TOPO.hosts_in_site("lyon")[0]])
        assert isinstance(plan, PlanContention)
        assert plan.counts() == {"nancy": 1, "lyon": 1}
        assert plan.max_crossing_pairs() == 1
        assert MODEL.plan([HOSTS[0]]).max_crossing_pairs() == 0


class TestPairScoreProperties:
    @given(plan=plans())
    @settings(max_examples=60, deadline=None)
    def test_symmetric_in_pair_order(self, plan):
        snap = MODEL.plan(plan)
        a, b = plan[0], plan[-1]
        assert snap.pair_bw_bps(a, b) == snap.pair_bw_bps(b, a)

    @given(plan=plans(), extra=st.integers(1, 24))
    @settings(max_examples=60, deadline=None)
    def test_monotone_nonincreasing_in_crossing_count(self, plan, extra):
        """Growing the plan (more crossing pairs on every link) never
        raises any pair's contended bandwidth."""
        grown = plan + (HOSTS * ((extra // len(HOSTS)) + 1))[:extra]
        small, big = MODEL.plan(plan), MODEL.plan(grown)
        for link, pairs in small.crossing_pairs().items():
            assert big.crossing_pairs()[link] >= pairs
        a, b = plan[0], plan[-1]
        assert big.pair_bw_bps(a, b) <= small.pair_bw_bps(a, b)

    @given(idx=st.lists(st.integers(0, 59), min_size=2, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_no_crossing_reduces_to_nic_clamp(self, idx):
        """A single-site plan crosses no backbone: every pair keeps
        the NIC-clamped path bandwidth."""
        nancy = TOPO.hosts_in_site("nancy")
        plan = [nancy[i] for i in idx]
        snap = MODEL.plan(plan)
        assert snap.max_crossing_pairs() == 0
        a, b = plan[0], plan[-1]
        assert snap.pair_bw_bps(a, b) == TOPO.bandwidth_bps(a, b)

    def test_single_crossing_flow_stays_nic_bound(self):
        """One lone crossing pair gets the whole backbone — i.e. the
        NIC-clamped path rate, same as an idle link."""
        a = TOPO.hosts_in_site("nancy")[0]
        b = TOPO.hosts_in_site("lyon")[0]
        assert MODEL.plan([a, b]).pair_bw_bps(a, b) == \
            TOPO.bandwidth_bps(a, b)

    def test_sixteen_crossing_pairs_agree_with_fixed_score(self):
        """The deprecated constant is the special case the calibration
        generalises: exactly 16 crossing pairs -> identical score."""
        nancy = TOPO.hosts_in_site("nancy")[:16]
        lyon = TOPO.hosts_in_site("lyon")[:16]
        plan = nancy + lyon
        a, b = nancy[0], lyon[0]
        plan_score = MODEL.plan(plan).pair_bw_bps(a, b)
        fixed_score = contended_pair_bw_bps(TOPO, a, b)
        assert plan_score == pytest.approx(fixed_score)
        assert plan_score == pytest.approx(
            TOPO.backbone_bandwidth_bps(a, b) / WAN_CONTENTION_FACTOR)

    def test_fixed_fallback_unchanged_without_plan(self):
        """Scoring before a plan exists keeps the legacy behaviour."""
        a = TOPO.hosts_in_site("nancy")[0]
        b = TOPO.hosts_in_site("bordeaux")[0]
        assert contended_pair_bw_bps(TOPO, a, b) == pytest.approx(
            1.0e9 / WAN_CONTENTION_FACTOR)
        same = TOPO.hosts_in_site("nancy")[:2]
        assert contended_pair_bw_bps(TOPO, *same) == TOPO.lan_bw_bps
        assert contended_pair_bw_bps(TOPO, a, a) == float("inf")
