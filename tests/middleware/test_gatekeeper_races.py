"""Admission atomicity under concurrent submitters.

A check-then-act admission (policy check, suspension point, slot pin)
lets two interleaved submitters both pass the check before either
acts, exceeding the owner's ``J`` limit.  These tests prove
:meth:`Gatekeeper.try_admit` admits exactly one under that
interleaving, pin its idempotency per key, and run a seeded property
test of the ledger invariants under arbitrary interleavings.
"""

import asyncio
import random

import pytest

from repro.middleware.config import OwnerPrefs
from repro.middleware.controlplane import run_virtual
from repro.middleware.gatekeeper import AdmissionError, Gatekeeper


def make_gk(j=1, p=4, denied=()):
    return Gatekeeper(host_name="h0",
                      prefs=OwnerPrefs(j_limit=j, p_limit=p,
                                       denied=frozenset(denied)))


class TestCheckThenActRace:
    """Interleaved submitters never push try_admit past J."""

    @staticmethod
    async def _submit_atomic(gk, key):
        await asyncio.sleep(0)
        return gk.try_admit(key, "user")

    def test_try_admit_closes_the_race(self):
        """Two interleaved submitters with J=1: exactly one wins."""
        gk = make_gk(j=1)

        async def race():
            return await asyncio.gather(
                self._submit_atomic(gk, "job-a"),
                self._submit_atomic(gk, "job-b"))

        outcomes = run_virtual(race())
        assert sorted(outcomes) == [False, True]
        assert gk.applications_in_flight == 1
        assert gk.admitted == 1 and gk.refused == 1

    def test_try_admit_race_admits_exactly_j(self):
        """Five interleaved submitters against J=3: three win, the rest
        are refused and counted."""
        gk = make_gk(j=3)

        async def race():
            return await asyncio.gather(
                *(self._submit_atomic(gk, f"job-{i}") for i in range(5)))

        outcomes = run_virtual(race())
        assert outcomes.count(True) == 3
        assert gk.applications_in_flight == 3 == gk.prefs.j_limit
        assert gk.admitted == 3 and gk.refused == 2

    def test_try_admit_respects_denied_list(self):
        gk = make_gk(j=4, denied=["mallory"])
        assert not gk.try_admit("k1", "mallory")
        assert gk.refused == 1 and not gk.held
        assert gk.try_admit("k2", "alice")

    def test_try_admit_is_idempotent_per_key(self):
        """Re-admitting a held key is a no-op success: the J slot stays
        pinned once and no counter moves."""
        gk = make_gk(j=1)
        assert gk.try_admit("k", "user")
        assert gk.try_admit("k", "user")  # duplicate RESERVE delivery
        assert gk.applications_in_flight == 1
        assert gk.admitted == 1 and gk.refused == 0


class TestAdmissionLifecycle:
    """How a pinned ``J`` slot is given back, and what that counts."""

    def test_readmit_after_release_counts_again(self):
        """Only a held key is idempotent: once released, the same key
        is a new admission and ``admitted`` moves again."""
        gk = make_gk(j=2)
        assert gk.try_admit("k", "user")
        assert gk.release_hold("k")
        assert not gk.release_hold("k")  # already released
        assert gk.try_admit("k", "user")
        assert gk.admitted == 2
        assert gk.applications_in_flight == 1

    def test_release_hold_frees_the_slot(self):
        gk = make_gk(j=1)
        assert gk.try_admit("a", "user")
        assert not gk.try_admit("b", "user")
        assert gk.release_hold("a")
        assert gk.try_admit("b", "user")
        assert gk.admitted == 2 and gk.refused == 1

    def test_running_application_keeps_its_slot(self):
        """Starting converts the hold into a running app without
        freeing ``J``; only ending the application does."""
        gk = make_gk(j=1)
        assert gk.try_admit("a", "user")
        gk.start_application("a", "job-a", 2)
        assert not gk.held and gk.busy_processes == 2
        assert not gk.try_admit("b", "user")
        gk.end_application("job-a")
        assert gk.try_admit("b", "user")
        assert gk.admitted == 2 and gk.refused == 1


class TestAdmissionPropertyInvariants:
    """Seeded random interleavings of try_admit/start/end never break
    the ledger: in_flight <= J and admitted - refused reconciles."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 99])
    def test_interleaved_lifecycle_invariants(self, seed):
        rng = random.Random(seed)
        j, p = rng.randint(1, 4), rng.randint(1, 6)
        gk = make_gk(j=j, p=p)
        held, running = [], []
        admitted_ok = refused = released = 0
        started = ended = 0
        for step in range(400):
            op = rng.random()
            if op < 0.45:
                key = f"k{step}"
                if gk.try_admit(key, "user"):
                    admitted_ok += 1
                    held.append(key)
                else:
                    refused += 1
            elif op < 0.65 and held:
                key = held.pop(rng.randrange(len(held)))
                n = rng.randint(1, p)
                gk.start_application(key, f"job-{key}", n)
                running.append(f"job-{key}")
                started += 1
            elif op < 0.8 and held:
                key = held.pop(rng.randrange(len(held)))
                assert gk.release_hold(key)
                released += 1
            elif running:
                job = running.pop(rng.randrange(len(running)))
                gk.end_application(job)
                ended += 1
            # The invariant under every prefix of every interleaving:
            assert gk.applications_in_flight <= j
            # Ledger reconciliation: every admission is either still
            # held, released, or became a started application.
            assert gk.admitted == admitted_ok
            assert gk.refused == refused
            assert gk.admitted - released - started == len(gk.held)
            assert started - ended == len(gk.running)

    def test_start_without_hold_still_raises(self):
        gk = make_gk()
        with pytest.raises(AdmissionError):
            gk.start_application("ghost", "job", 1)
