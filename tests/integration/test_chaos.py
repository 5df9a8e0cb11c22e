"""Chaos suite: seeded faults must never change what gets served.

The acceptance bar for the fault plane, asserted across multiple plan
seeds:

- under WAN loss + jitter + a mid-stream worker crash, every request
  still completes and every request's tokens are identical to the
  fault-free run (recovery is transparent, not approximate);
- the recovery machinery demonstrably fired: retransmissions, a worker
  restart, and re-prefilled tokens all appear in the ServingReport;
- an *empty* fault plan is byte-identical to running with no fault plane
  at all (the differential guarantee: the injector costs nothing when
  idle, and installing nothing changes nothing);
- a faulty run replays byte-identically from the same plan seed (the
  determinism contract extends to faults).
"""

import pytest

from repro import (
    EngineConfig,
    FaultPlan,
    GenerationJob,
    OracleBackend,
    PipeInferEngine,
    Workload,
    cluster_c,
    get_pair,
    run_serving,
)
from repro.faults import LinkFault, StragglerSpec
from repro.workloads import (
    SharedPrefixTemplate,
    cloud_edge_arrivals,
    cloud_edge_cluster,
    cloud_edge_fault_plan,
    cloud_edge_prompts,
)

N_CLOUD, N_EDGE = 2, 2
N_REQ = 4


@pytest.fixture(scope="module")
def pair():
    return get_pair("dolphin+tinyllama")


@pytest.fixture(scope="module")
def workload(pair):
    jobs = tuple(
        GenerationJob(prompt=p, n_generate=16)
        for p in cloud_edge_prompts(N_REQ, pair.target_arch.vocab, length=32)
    )
    return Workload(jobs=jobs, arrivals=cloud_edge_arrivals(N_REQ, seed=21))


def serve(pair, workload, plan=None, cfg=None):
    backend = OracleBackend(pair, head_node=cloud_edge_cluster().nodes[0])
    return run_serving(
        PipeInferEngine,
        backend,
        cloud_edge_cluster(N_CLOUD, N_EDGE),
        workload,
        cfg,
        fault_plan=plan,
    )


@pytest.fixture(scope="module")
def baseline(pair, workload):
    """The fault-free run every chaos variant must reproduce exactly."""
    return serve(pair, workload)


def crash_plan(seed):
    """Loss + jitter on every WAN hop, one edge worker dying mid-stream."""
    return cloud_edge_fault_plan(
        seed=seed,
        n_cloud=N_CLOUD,
        n_edge=N_EDGE,
        loss_rate=0.05,
        crash_rank=N_CLOUD,  # first edge stage
        crash_at=1.0,
    )


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_loss_jitter_crash_transparent_across_seeds(pair, workload, baseline, seed):
    rep = serve(pair, workload, crash_plan(seed))
    assert rep.outputs() == baseline.outputs(), "faults changed served tokens"
    assert rep.token_counts() == baseline.token_counts()  # all completed
    s = rep.stats
    assert s.retransmits > 0, "5% WAN loss should have forced retransmits"
    assert s.worker_restarts >= 1
    assert s.reprefilled_tokens > 0, "restart must rebuild KV by re-prefill"


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_faulty_idle_head_parks_instead_of_polling(pair, workload, seed):
    """The fault plane's work scales with faults, not with simulated time:
    24-32 kernel events per generated token here (18 fault-free), against
    ~37-39k when the idle head polled the health monitor every 0.2 ms."""
    rep = serve(pair, workload, crash_plan(seed))
    assert rep.n_events < 100 * sum(rep.token_counts().values())


def test_empty_plan_is_byte_identical_to_no_injector(pair, workload, baseline):
    rep = serve(pair, workload, FaultPlan())
    assert rep.outputs() == baseline.outputs()
    assert rep.makespan == baseline.makespan  # simulated time, exact
    assert [r.ttft for r in rep.requests] == [r.ttft for r in baseline.requests]
    assert [r.finish_time for r in rep.requests] == [
        r.finish_time for r in baseline.requests
    ]
    s = rep.stats
    assert (s.retransmits, s.timeouts, s.worker_restarts) == (0, 0, 0)
    assert (s.reprefilled_tokens, s.degraded_windows) == (0, 0)


def test_faulty_run_replays_byte_identically(pair, workload):
    a = serve(pair, workload, crash_plan(seed=2))
    b = serve(pair, workload, crash_plan(seed=2))
    assert a.outputs() == b.outputs()
    assert a.makespan == b.makespan
    assert (a.stats.retransmits, a.stats.reprefilled_tokens) == (
        b.stats.retransmits,
        b.stats.reprefilled_tokens,
    )


def test_straggler_window_degrades_and_recovers(pair, workload, baseline):
    """A straggling stage slows the run and gates speculation (degraded
    windows are counted), but tokens never change."""
    plan = FaultPlan(
        stragglers=(StragglerSpec(rank=1, factor=4.0, start=0.5, end=40.0),)
    )
    rep = serve(pair, workload, plan)
    assert rep.outputs() == baseline.outputs()
    assert rep.stats.degraded_windows >= 1
    assert rep.makespan > baseline.makespan  # the slowdown is real


def test_warm_recovery_through_prefix_cache(pair):
    """Crash recovery with the prefix cache on: shared-prefix requests may
    re-materialize cached prompt KV instead of cold re-prefilling, and the
    served tokens still match the fault-free cache-on run."""
    template = SharedPrefixTemplate(
        shared_len=48, unique_len=12, share_fraction=1.0, seed=5
    )
    jobs = tuple(
        GenerationJob(prompt=p, n_generate=12)
        for p in template.prompts(6, pair.target_arch.vocab)
    )
    workload = Workload(jobs=jobs, max_active=2)
    cfg = EngineConfig(n_seq_partitions=24, prefix_cache=True)
    clean = serve(pair, workload, cfg=cfg)
    plan = cloud_edge_fault_plan(
        seed=4, n_cloud=N_CLOUD, n_edge=N_EDGE, loss_rate=0.02,
        crash_rank=N_CLOUD + 1, crash_at=5.0,
    )
    faulty = serve(pair, workload, plan, cfg=cfg)
    assert faulty.outputs() == clean.outputs()
    assert faulty.stats.worker_restarts == 1
    assert faulty.stats.reprefilled_tokens > 0
    assert faulty.prefix_cache_stats.get("hit_tokens", 0) > 0


def test_functional_backend_under_loss(tiny_target, tiny_draft):
    """Real tiny-transformer math over a lossy link: retransmission is
    invisible to the numerics — served tokens match the clean run."""
    from repro import FunctionalBackend
    from repro.spec.draft import DraftParams

    cfg = EngineConfig(
        draft=DraftParams(max_tokens=4, cutoff=0.02),
        cutoff_recovery=0.01,
        cutoff_decay=0.01,
    )
    jobs = tuple(
        GenerationJob(prompt=tuple(5 + p + i for p in range(8)), n_generate=10)
        for i in range(3)
    )
    workload = Workload(jobs=jobs)

    def run(plan):
        backend = FunctionalBackend(tiny_target, tiny_draft, n_cells=2048)
        return run_serving(
            PipeInferEngine, backend, cluster_c(3), workload, cfg,
            fault_plan=plan,
        )

    clean = run(None)
    plan = FaultPlan(
        seed=9,
        link_faults=(
            LinkFault(1, 2, loss_rate=0.1),
            LinkFault(2, 0, loss_rate=0.1),
        ),
        rto=0.05,
    )
    faulty = run(plan)
    assert faulty.outputs() == clean.outputs()
    assert faulty.stats.retransmits > 0
