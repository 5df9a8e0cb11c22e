"""Multi-replica cluster serving: identity, affinity, and backpressure.

The acceptance bar for the cluster layer:

- a cluster of one is *byte-identical* to direct ``run_serving`` — same
  tokens, same report numbers — because ``run_serving`` is literally a
  K=1 replica now;
- routed outputs never depend on placement: every routing policy yields
  the same per-request tokens (replicas multiplex timing, never output);
- session affinity pins all turns of a session to one replica, routing
  is deterministic for a fixed seed, and backpressure spillover never
  drops a request.
"""

import pytest

from repro import (
    ClusterConfig,
    EngineConfig,
    GenerationJob,
    OracleBackend,
    PipeInferEngine,
    Workload,
    cluster_c,
    get_pair,
    run_cluster,
    run_serving,
)
from repro.cluster.kernel import StuckSimulationError
from repro.serve import EngineCluster
from repro.workloads import (
    MultiTurnTemplate,
    closed_loop_arrivals,
    multiturn_arrivals,
)

N_REPLICAS = 3


@pytest.fixture(scope="module")
def pair():
    return get_pair("dolphin+tinyllama")


def make_parts(pair, k):
    """K distinct (backend, cluster) bundles plus one spare for baselines."""
    clusters = [cluster_c(4) for _ in range(k)]
    backends = [
        OracleBackend(pair, head_node=c.nodes[0]) for c in clusters
    ]
    return backends, clusters


@pytest.fixture(scope="module")
def multiturn_workload(pair):
    tmpl = MultiTurnTemplate(n_turns=3, seed=5)
    n_sessions = 4
    prompts = tmpl.prompts(n_sessions, pair.target_arch.vocab)
    return Workload(
        jobs=tuple(GenerationJob(prompt=p, n_generate=12) for p in prompts),
        arrivals=multiturn_arrivals(
            n_sessions, 3, turn_gap=40.0, session_rate=0.5, seed=9
        ),
        sessions=tmpl.sessions(n_sessions),
    )


@pytest.fixture(scope="module")
def baseline_report(pair, multiturn_workload):
    backends, clusters = make_parts(pair, 1)
    return run_serving(
        PipeInferEngine,
        backends[0],
        clusters[0],
        multiturn_workload,
        config=EngineConfig(prefix_cache=True),
    )


class TestClusterOfOneIdentity:
    @pytest.fixture(scope="class")
    def k1_report(self, pair, multiturn_workload):
        backends, clusters = make_parts(pair, 1)
        return run_cluster(
            PipeInferEngine,
            backends,
            clusters,
            multiturn_workload,
            cluster_config=ClusterConfig(n_replicas=1),
            config=EngineConfig(prefix_cache=True),
        )

    def test_tokens_byte_identical(self, baseline_report, k1_report):
        assert k1_report.outputs() == baseline_report.outputs()

    def test_report_numbers_identical(self, baseline_report, k1_report):
        merged = k1_report.merged
        for f in (
            "makespan", "throughput", "utilization",
            "ttft_p50", "ttft_p95", "ttft_p99",
            "itl_p50", "itl_p95", "itl_p99",
            "queue_wait_p50", "queue_wait_p95", "queue_wait_p99",
            "ttft_mean", "ttft_mean_hit", "ttft_mean_miss",
            "prefix_hit_tokens", "prefix_hit_rate",
            "n_resumes", "n_delivered", "n_events",
        ):
            assert getattr(merged, f) == getattr(baseline_report, f), f

    def test_histograms_and_cache_stats_identical(
        self, baseline_report, k1_report
    ):
        assert k1_report.merged.fusion_width == baseline_report.fusion_width
        assert (
            k1_report.merged.draft_batch_width
            == baseline_report.draft_batch_width
        )
        assert (
            k1_report.merged.prefix_cache_stats
            == baseline_report.prefix_cache_stats
        )

    def test_per_replica_breakdown_present(self, k1_report):
        assert k1_report.n_replicas == 1
        assert len(k1_report.per_replica) == 1
        assert k1_report.per_replica[0] is not None
        assert k1_report.routed == [k1_report.merged.n_requests]


class TestRoutedOutputInvariance:
    @pytest.mark.parametrize(
        "routing,affinity",
        [
            ("random", "none"),
            ("round_robin", "none"),
            ("prompt_hash", "session"),
            ("least_loaded", "none"),
            ("prefix_affinity", "session"),
        ],
    )
    def test_policy_does_not_change_tokens(
        self, pair, multiturn_workload, baseline_report, routing, affinity
    ):
        backends, clusters = make_parts(pair, N_REPLICAS)
        report = run_cluster(
            PipeInferEngine,
            backends,
            clusters,
            multiturn_workload,
            cluster_config=ClusterConfig(
                n_replicas=N_REPLICAS, routing=routing, affinity=affinity,
                queue_cap=8,
            ),
            config=EngineConfig(prefix_cache=True),
        )
        assert report.outputs() == baseline_report.outputs()
        assert sum(report.routed) == baseline_report.n_requests


class TestSessionAffinity:
    @pytest.fixture(scope="class")
    def affinity_report(self, pair, multiturn_workload):
        backends, clusters = make_parts(pair, N_REPLICAS)
        return run_cluster(
            PipeInferEngine,
            backends,
            clusters,
            multiturn_workload,
            cluster_config=ClusterConfig(
                n_replicas=N_REPLICAS,
                routing="prefix_affinity",
                affinity="session",
            ),
            config=EngineConfig(prefix_cache=True),
        )

    def test_sessions_pinned_to_one_replica(
        self, multiturn_workload, affinity_report
    ):
        sessions = multiturn_workload.sessions
        by_session = {}
        for req_id, replica in affinity_report.assignments.items():
            by_session.setdefault(sessions[req_id], set()).add(replica)
        assert by_session  # tagged traffic reached the router
        for session, replicas in by_session.items():
            assert len(replicas) == 1, f"session {session} split: {replicas}"

    def test_affinity_hits_counted(self, multiturn_workload, affinity_report):
        n_sessions = len(set(multiturn_workload.sessions))
        n_requests = len(multiturn_workload.jobs)
        # Every turn after a session's first lands on the pin.
        assert affinity_report.session_affinity_hits == n_requests - n_sessions


class TestDeterminism:
    def test_same_seed_same_assignments(self, pair, multiturn_workload):
        def run_once():
            backends, clusters = make_parts(pair, N_REPLICAS)
            return run_cluster(
                PipeInferEngine,
                backends,
                clusters,
                multiturn_workload,
                cluster_config=ClusterConfig(
                    n_replicas=N_REPLICAS, routing="random", affinity="none",
                    seed=11,
                ),
                config=EngineConfig(prefix_cache=True),
            )

        a, b = run_once(), run_once()
        assert a.assignments == b.assignments
        assert a.outputs() == b.outputs()
        assert a.merged.ttft_mean == b.merged.ttft_mean


class TestBackpressure:
    def test_spillover_never_drops_requests(self, pair):
        # A burst at t=0 against a cap of 1 forces spills on a static
        # policy (prompt_hash sends everything to one replica).
        prompt = tuple(range(40, 72))
        jobs = tuple(
            GenerationJob(prompt=prompt, n_generate=8) for _ in range(6)
        )
        wl = Workload(jobs=jobs, arrivals=closed_loop_arrivals(len(jobs)))
        backends, clusters = make_parts(pair, N_REPLICAS)
        report = run_cluster(
            PipeInferEngine,
            backends,
            clusters,
            wl,
            cluster_config=ClusterConfig(
                n_replicas=N_REPLICAS,
                routing="prompt_hash",
                affinity="none",
                queue_cap=1,
            ),
            config=EngineConfig(),
        )
        assert report.merged.n_requests == len(jobs)
        assert all(r.n_tokens == 8 for r in report.merged.requests)
        assert report.spills > 0
        assert sum(report.routed) == len(jobs)

    def test_migration_drains_deep_queue(self, pair):
        # Identical prompts hash to one replica; the deep queue is
        # rebalanced at later arrival sync points and counted.
        prompt = tuple(range(80, 112))
        jobs = tuple(
            GenerationJob(prompt=prompt, n_generate=8) for _ in range(6)
        )
        arrivals = tuple(0.5 * i for i in range(6))
        wl = Workload(jobs=jobs, arrivals=arrivals)
        backends, clusters = make_parts(pair, N_REPLICAS)
        report = run_cluster(
            PipeInferEngine,
            backends,
            clusters,
            wl,
            cluster_config=ClusterConfig(
                n_replicas=N_REPLICAS,
                routing="prompt_hash",
                affinity="none",
                queue_cap=1,
                migration=True,
            ),
            config=EngineConfig(),
        )
        assert report.merged.n_requests == len(jobs)
        assert all(r.n_tokens == 8 for r in report.merged.requests)
        assert report.migrations >= 0  # counted on the report
        assert sum(report.routed) == len(jobs)


class TestSparseReplicaRegression:
    def test_single_request_replica_completes(self, pair):
        """Regression: a replica serving one lone request must not hang.

        The head's draft round could finish with no proposals exactly
        while the round's logits were being delivered; parking for the
        next arrival notification then slept forever because the
        delivery had already fired.  Sparse per-replica queues (the
        normal cluster regime) hit this constantly.
        """
        tmpl = MultiTurnTemplate(n_turns=3, seed=5)
        prompts = tmpl.prompts(4, pair.target_arch.vocab)
        # prompts[10] is a known-stuck instance before the fix.
        wl = Workload(
            jobs=(GenerationJob(prompt=prompts[10], n_generate=16),)
        )
        backends, clusters = make_parts(pair, 1)
        try:
            report = run_serving(
                PipeInferEngine, backends[0], clusters[0], wl,
                config=EngineConfig(prefix_cache=True),
            )
        except StuckSimulationError:  # pragma: no cover - the regression
            pytest.fail("lone-request serving deadlocked")
        assert report.token_counts() == {0: 16}


class TestThroughputScaling:
    def test_cluster_beats_single_replica(self, pair):
        jobs = tuple(
            GenerationJob(
                prompt=tuple(range(100 + i, 132 + i)), n_generate=12
            )
            for i in range(9)
        )
        wl = Workload(jobs=jobs, arrivals=closed_loop_arrivals(len(jobs)))
        cfg = EngineConfig()
        backends, clusters = make_parts(pair, 1)
        one = run_serving(PipeInferEngine, backends[0], clusters[0], wl, config=cfg)
        backends, clusters = make_parts(pair, N_REPLICAS)
        many = run_cluster(
            PipeInferEngine,
            backends,
            clusters,
            wl,
            cluster_config=ClusterConfig(
                n_replicas=N_REPLICAS, routing="round_robin", affinity="none"
            ),
            config=cfg,
        )
        assert many.outputs() == one.outputs()
        # Replicas overlap in simulated time: real scaling, not a sum.
        assert many.throughput > 1.5 * one.throughput


class TestEngineClusterSurface:
    def test_serve_populates_replica_list(self, pair, multiturn_workload):
        clusters = [cluster_c(4) for _ in range(2)]
        backends = [OracleBackend(pair, head_node=c.nodes[0]) for c in clusters]
        ec = EngineCluster(
            PipeInferEngine,
            backends,
            clusters,
            cluster_config=ClusterConfig(n_replicas=2, routing="round_robin", affinity="none"),
            config=EngineConfig(prefix_cache=True),
        )
        report = ec.serve(multiturn_workload)
        assert report.n_replicas == 2
        assert sum(report.routed) == len(multiturn_workload.jobs)
        assert [rep is not None for rep in ec.replicas] == [True, True]
