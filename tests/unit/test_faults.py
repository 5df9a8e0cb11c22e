"""Fault plane units: plans, faulty links, health monitor, injector hooks."""

import math

import pytest

from repro.cluster.interconnect import LinkSpec
from repro.cluster.kernel import SimKernel
from repro.faults import (
    CrashSpec,
    FaultInjector,
    FaultPlan,
    FaultyLink,
    HealthMonitor,
    LinkFault,
    StragglerSpec,
)
from repro.metrics.collectors import RunStats
from repro.util.units import Gbps


# -- plan validation ---------------------------------------------------------


def test_plan_rejects_bad_values():
    with pytest.raises(ValueError):
        LinkFault(0, 0, loss_rate=0.1)  # loopback
    with pytest.raises(ValueError):
        LinkFault(0, 1, loss_rate=1.0)  # certain loss never recovers
    with pytest.raises(ValueError):
        LinkFault(0, 1, jitter=-0.1)
    with pytest.raises(ValueError):
        LinkFault(0, 1, start=2.0, end=1.0)
    with pytest.raises(ValueError):
        StragglerSpec(1, factor=0.5)  # speedups are not faults
    with pytest.raises(ValueError):
        CrashSpec(1, at=-1.0)
    with pytest.raises(ValueError):
        CrashSpec(1, at=0.0, restart_delay=0.0)
    with pytest.raises(ValueError):
        FaultPlan(rto=0.0)
    with pytest.raises(ValueError):
        FaultPlan(health_lo=3.0, health_hi=1.0)


def test_plan_emptiness_and_reliability_need():
    assert FaultPlan().is_empty()
    assert not FaultPlan().needs_reliable()
    lossy = FaultPlan(link_faults=(LinkFault(0, 1, loss_rate=0.1),))
    assert not lossy.is_empty() and lossy.needs_reliable()
    slow = FaultPlan(stragglers=(StragglerSpec(1, factor=2.0),))
    # A pure straggler plan slows stages but loses nothing: no ack layer.
    assert not slow.is_empty() and not slow.needs_reliable()
    crashy = FaultPlan(crashes=(CrashSpec(1, at=1.0),))
    assert crashy.needs_reliable()


def test_validate_for_checks_ranks_and_head():
    plan = FaultPlan(link_faults=(LinkFault(2, 3, loss_rate=0.1),))
    with pytest.raises(ValueError):
        plan.validate_for(3)
    plan.validate_for(4)  # fine
    crash_head = FaultPlan(crashes=(CrashSpec(0, at=1.0),))
    crash_head.validate_for(4)  # head unknown yet: allowed
    with pytest.raises(ValueError, match="head"):
        crash_head.validate_for(4, head_rank=0)


# -- FaultyLink --------------------------------------------------------------


SPEC = LinkSpec("t", latency=1e-4, bandwidth=Gbps(1), eager_threshold=1024)


def _faulty(kernel, faults, seed=7):
    return FaultyLink(kernel, SPEC, tuple(faults), seed, 0, 1)


def test_loss_draws_are_deterministic():
    def run_once():
        k = SimKernel()
        link = _faulty(k, [LinkFault(0, 1, loss_rate=0.5)])
        arrivals = [link.transmit(8, lambda: None) for _ in range(64)]
        k.run()
        return link.n_lost, arrivals

    lost_a, arr_a = run_once()
    lost_b, arr_b = run_once()
    assert lost_a == lost_b and arr_a == arr_b
    assert 0 < lost_a < 64  # the draw actually splits both ways


def test_lost_message_never_delivers_but_occupies_the_wire():
    k = SimKernel()
    link = _faulty(k, [LinkFault(0, 1, outage=True)])
    delivered = []
    # Bulk-lane message: swallowed by the outage, yet its wire time must
    # still advance the bulk lane (loss happens past the serializer).
    link.transmit(1_000_000, lambda: delivered.append("bulk"))
    assert link._bulk_free_at > 0.0
    k.run()
    assert delivered == [] and link.n_lost == 1


def test_eager_lane_survives_bulk_outage():
    """Control markers pass a saturated link unless outage_all_lanes."""
    k = SimKernel()
    link = _faulty(k, [LinkFault(0, 1, outage=True)])
    delivered = []
    link.transmit(1_000_000, lambda: delivered.append("bulk"))
    link.transmit(8, lambda: delivered.append("ctl"), eager_hint=True)
    k.run()
    assert delivered == ["ctl"] and link.n_lost == 1

    k2 = SimKernel()
    hard = _faulty(k2, [LinkFault(0, 1, outage=True, outage_all_lanes=True)])
    gone = []
    hard.transmit(8, lambda: gone.append("ctl"), eager_hint=True)
    k2.run()
    assert gone == [] and hard.n_lost == 1


def test_fault_windows_bound_in_time():
    k = SimKernel()
    link = _faulty(k, [LinkFault(0, 1, outage=True, start=1.0, end=2.0)])
    delivered = []
    big = 10_000  # past the eager threshold: rides the (faulted) bulk lane
    link.transmit(big, lambda: delivered.append("before"))  # t=0: clean
    k.call_at(1.5, lambda: link.transmit(big, lambda: delivered.append("in")))
    k.call_at(2.5, lambda: link.transmit(big, lambda: delivered.append("after")))
    k.run()
    assert delivered == ["before", "after"] and link.n_lost == 1


def test_jitter_delays_and_still_coalesces():
    """Same-instant arrivals share one pending slot and one drain event;
    jitter splits them apart but every message still lands exactly once."""
    k = SimKernel()
    clean = _faulty(k, [LinkFault(0, 1, jitter=0.0, loss_rate=0.0)])
    hits = []
    base = clean.transmit(8, lambda: hits.append(0), eager_hint=True)
    assert clean.transmit(8, lambda: hits.append(1), eager_hint=True) == base
    assert len(clean._pending) == 1  # coalesced into one arrival instant
    k.run()
    assert hits == [0, 1]
    assert clean.n_delivery_events == 1

    k2 = SimKernel()
    jittery = _faulty(k2, [LinkFault(0, 1, jitter=0.01)])
    hits2 = []
    t0 = jittery.transmit(8, lambda: hits2.append(0), eager_hint=True)
    t1 = jittery.transmit(8, lambda: hits2.append(1), eager_hint=True)
    assert t0 != t1  # per-message jitter draws split the instant
    assert t0 >= base and t1 >= base  # jitter only ever delays
    k2.run()
    assert sorted(hits2) == [0, 1]


def test_jittered_equal_arrivals_share_one_pending_slot():
    """If two jittered arrivals do land at the same instant, they coalesce."""
    k = SimKernel()
    link = _faulty(k, [LinkFault(0, 1, jitter=0.01)])
    hits = []
    arrival = link.transmit(8, lambda: hits.append(0), eager_hint=True)
    # Force the second draw to the same instant by replaying the same
    # counter state: drop into the pending map directly via transmit of a
    # message whose jitter window has closed (clean), at matched time.
    link._pending.setdefault(arrival, []).append(lambda: hits.append(1))
    k.run()
    assert hits == [0, 1]  # one drain delivered both, transmit order kept


# -- injector hooks ----------------------------------------------------------


def test_stage_time_factor_composes_windows():
    plan = FaultPlan(
        stragglers=(
            StragglerSpec(2, factor=2.0, start=0.0, end=10.0),
            StragglerSpec(2, factor=3.0, start=5.0, end=10.0),
            StragglerSpec(1, factor=7.0),
        )
    )
    inj = FaultInjector(plan)
    inj.kernel = SimKernel()
    assert inj.stage_time_factor(0) == 1.0
    assert inj.stage_time_factor(2) == 2.0  # only the first window at t=0
    inj.kernel.now = 6.0
    assert inj.stage_time_factor(2) == 6.0  # overlapping windows multiply
    inj.kernel.now = 11.0
    assert inj.stage_time_factor(2) == 1.0


# -- health monitor ----------------------------------------------------------


def test_health_hysteresis_and_window_count():
    k = SimKernel()
    stats = RunStats()
    h = HealthMonitor(k, stats, tau=1.0, hi=1.5, lo=0.5)
    assert not h.degraded(0.0)
    h.record_fault(0.0, rank=1)  # score 1 < hi
    assert not h.degraded(0.0)
    h.record_fault(0.1, rank=1)  # score ~1.9 >= hi -> degraded
    assert h.degraded(0.1)
    assert h.degraded(0.2)  # still inside the same window
    assert stats.degraded_windows == 1  # one continuous window, one count
    # tau=1.0: the score needs ~ln(1.9/0.5)=1.34s to decay below lo.
    assert h.degraded(1.0)
    assert not h.degraded(5.0)  # decayed past lo: healthy again
    h.record_fault(6.0, rank=1)
    h.record_fault(6.0, rank=1)
    assert h.degraded(6.0)
    assert stats.degraded_windows == 2


def test_health_recovery_instant_is_the_decay_crossing():
    k = SimKernel()
    h = HealthMonitor(k, RunStats(), tau=0.25, hi=3.0, lo=0.5)
    assert h.recovery_time(0.0) is None
    h.record_fault(1.0, rank=2, weight=2.0)
    h.record_fault(1.5, rank=2, weight=2.0)
    v = 2.0 * math.exp(-0.5 / 0.25) + 2.0
    assert v < 3.0 and h.recovery_time(1.5) is None  # not hot yet
    h.record_fault(1.5, rank=2, weight=1.0)  # crosses hi
    v += 1.0
    t = h.recovery_time(1.5)
    assert t == 1.5 + 0.25 * math.log(v / 0.5)
    # The exponentially decayed score reaches ``lo`` exactly there.
    assert math.isclose(v * math.exp(-(t - 1.5) / 0.25), 0.5, rel_tol=1e-12)


def test_health_recovers_exactly_at_the_recovery_instant():
    k = SimKernel()
    h = HealthMonitor(k, RunStats(), tau=1.0, hi=1.5, lo=0.5)
    h.record_fault(0.0, rank=1, weight=2.0)
    t = h.recovery_time(0.0)
    assert h.degraded(math.nextafter(t, -math.inf))  # one ulp earlier
    assert not h.degraded(t)
    assert h.recovery_time(t) is None


def test_health_counts_windows_nobody_observes():
    """Windows open and close while the head is parked (no ``degraded``
    call in between): each is still counted, where it opens."""
    k = SimKernel()
    stats = RunStats()
    h = HealthMonitor(k, stats, tau=0.1, hi=1.5, lo=0.5)
    for at in (1.0, 1.0, 5.0, 5.0):  # two fault bursts, far apart
        k.call_at(at, lambda at=at: h.record_fault(at, rank=3))
    k.call_at(8.0, lambda: h.force(2, True))  # a straggler window
    k.call_at(9.0, lambda: h.force(2, False))
    k.run()
    assert stats.degraded_windows == 3
    # A fault inside a live window extends it; it does not open another.
    h.record_fault(20.0, rank=3, weight=2.0)
    h.record_fault(20.01, rank=1, weight=2.0)
    h.force(4, True)
    assert stats.degraded_windows == 4


def test_health_force_is_refcounted():
    k = SimKernel()
    h = HealthMonitor(k, RunStats())
    h.force(3, True)
    h.force(3, True)  # overlapping straggler windows
    assert h.degraded(0.0)
    h.force(3, False)
    assert h.degraded(0.0)  # still one window active
    h.force(3, False)
    assert not h.degraded(0.0)
