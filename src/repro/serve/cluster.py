"""Multi-replica serving: K independent pipelines behind a router.

One PipeInfer pipeline saturates around a fixed token rate; serving more
traffic means running several pipelines side by side and deciding, per
request, which one gets it.  This module provides that layer:

- :class:`Replica` — one complete serving pipeline (its own
  :class:`~repro.cluster.kernel.SimKernel`, network, engine, backend,
  KV pool, prefix cache, and fault plan) with a uniform
  ``admit`` / ``advance_to`` / ``drain`` / ``report`` surface.
  ``run_serving`` is a thin K=1 wrapper over it.
- :class:`Router` — deterministic request→replica assignment with
  pluggable policies (:class:`RoutingPolicy`), an optional session
  overlay that pins every turn of a conversation to one replica, a
  queue-depth backpressure spill, and tail-stealing migration.
- :class:`EngineCluster` — instantiates K replicas, routes a
  :class:`~repro.serve.scheduler.Workload`'s FCFS stream across them,
  and merges the results into a :class:`~repro.metrics.ClusterReport`.

Replica kernels are independent simulations sharing one *absolute*
timeline.  Static policies (random, round-robin, prompt-hash — with no
queue cap) never consult live replica state, so the cluster partitions
the stream up front and runs each replica to completion on its own; the
K=1 degenerate case is exactly the old single-pipeline ``run_serving``
path, byte for byte.  Dynamic policies (least-loaded, prefix-affinity,
any queue cap, migration) need live queue depths and radix trees at
each arrival, so the cluster runs replicas in lockstep: every kernel is
advanced to the arrival instant, the router inspects the replicas, and
the request is pushed into the winner's :class:`ReplicaFeed`.
Everything the router consults is deterministic, so routed placements —
and therefore generated tokens — are reproducible for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.cluster.kernel import SimKernel, run_to_completion
from repro.cluster.topology import Cluster
from repro.comm.mpi_sim import Network
from repro.engines.backend import Backend
from repro.engines.base import EngineConfig
from repro.metrics.collectors import MetricsCollector, RunStats
from repro.metrics.report import ClusterReport, ServingReport
from repro.serve.scheduler import (
    ReplicaFeed,
    Request,
    RequestScheduler,
    Workload,
)
from repro.util.rng import hash_tokens, unit_float

#: Domain-separation salts for the router's hash draws (arbitrary, fixed).
_RANDOM_SALT = 211
_PROMPT_SALT = 223


class RoutingPolicy(str, Enum):
    """How the router picks a replica for each request.

    ``RANDOM``, ``ROUND_ROBIN``, and ``PROMPT_HASH`` are *static*: the
    choice depends only on the request and the seed.  ``LEAST_LOADED``
    and ``PREFIX_AFFINITY`` are *dynamic*: they consult live replica
    state (queue depths, radix trees) at the arrival instant.
    """

    RANDOM = "random"
    ROUND_ROBIN = "round_robin"
    PROMPT_HASH = "prompt_hash"
    LEAST_LOADED = "least_loaded"
    PREFIX_AFFINITY = "prefix_affinity"


#: Policies that consult live replica state and force the lockstep path.
_DYNAMIC_POLICIES = frozenset(
    {RoutingPolicy.LEAST_LOADED, RoutingPolicy.PREFIX_AFFINITY}
)


@dataclass(frozen=True)
class ClusterConfig:
    """Cluster shape and routing knobs (validated on construction).

    Attributes:
        n_replicas: number of independent serving pipelines.
        routing: request→replica policy; accepts a
            :class:`RoutingPolicy` or its string value.
        affinity: ``"session"`` pins every turn of a tagged session to
            the replica its first turn landed on (warm radix tree);
            ``"none"`` routes each request independently.
        queue_cap: per-replica admission backpressure — when the
            policy's first choice already holds this many requests
            (queued or active), the request spills to the least-loaded
            replica instead.  Requests are never dropped: if every
            replica is at the cap, the least-loaded one still takes it.
            None disables backpressure.
        migration: steal queued (never admitted) requests from a
            replica whose waiting queue exceeds ``queue_cap`` and hand
            them to the least-loaded replica.  Requires ``queue_cap``.
        seed: hash seed for the deterministic routing draws.
        deadline_service_est: rough per-queued-request service-time
            estimate (seconds) for deadline-aware spill.  When set, a
            backpressure spill of a request carrying a ``ttft_slo``
            prefers replicas whose queue depth times this estimate still
            fits the deadline, instead of plain least-loaded.  None
            (default) keeps the historical spill byte-identical.
    """

    n_replicas: int = 1
    routing: Union[RoutingPolicy, str] = RoutingPolicy.LEAST_LOADED
    affinity: str = "session"
    queue_cap: Optional[int] = None
    migration: bool = False
    seed: int = 0
    deadline_service_est: Optional[float] = None

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "routing", RoutingPolicy(self.routing))
        except ValueError:
            raise ValueError(
                f"unknown routing policy {self.routing!r}; choose from "
                f"{[p.value for p in RoutingPolicy]}"
            ) from None
        if self.n_replicas < 1:
            raise ValueError(
                f"n_replicas must be positive, got {self.n_replicas}"
            )
        if self.affinity not in ("none", "session"):
            raise ValueError(
                f"affinity must be 'none' or 'session', got {self.affinity!r}"
            )
        if self.queue_cap is not None and self.queue_cap < 1:
            raise ValueError(
                f"queue_cap must be positive, got {self.queue_cap}"
            )
        if self.migration and self.queue_cap is None:
            raise ValueError(
                "migration needs queue_cap: the cap is the depth "
                "threshold that triggers stealing"
            )
        if self.deadline_service_est is not None and self.deadline_service_est <= 0:
            raise ValueError(
                f"deadline_service_est must be positive, got "
                f"{self.deadline_service_est}"
            )

    @property
    def dynamic(self) -> bool:
        """Whether routing must observe live replica state (lockstep)."""
        return (
            self.routing in _DYNAMIC_POLICIES
            or self.queue_cap is not None
            or self.migration
        )


class Replica:
    """One complete serving pipeline with a uniform cluster surface.

    Owns a fresh :class:`SimKernel`, :class:`Network` (binding its own
    :class:`Cluster`), metrics collector, optional fault injector, and
    the engine itself — construction order matches the historical
    ``run_serving`` body exactly, so a single replica fed the whole
    workload reproduces it byte for byte.
    """

    def __init__(
        self,
        replica_id: int,
        engine_factory,
        backend: Backend,
        cluster: Cluster,
        config: Optional[EngineConfig] = None,
        fault_plan=None,
        trace: Optional[list] = None,
    ) -> None:
        self.replica_id = replica_id
        self.config = config or EngineConfig()
        self.cluster = cluster
        self.backend = backend
        self.kernel = SimKernel()
        self.network = Network(self.kernel, cluster)
        if trace is not None:
            self.network.trace = trace
        self.metrics = MetricsCollector()
        self.injector = None
        if fault_plan is not None and not fault_plan.is_empty():
            from repro.faults import FaultInjector  # cycle avoidance

            self.injector = FaultInjector(fault_plan)
            self.injector.install(self.kernel, self.network, self.metrics)
        self.engine = engine_factory(
            backend, self.network, self.config, self.metrics
        )
        if self.injector is not None:
            self.engine.injector = self.injector
        self.scheduler: Optional[RequestScheduler] = None
        self._procs: list = []

    def start(self, scheduler: RequestScheduler) -> None:
        """Spawn the serving head + workers against ``scheduler``."""
        if self.scheduler is not None:
            raise RuntimeError(f"replica {self.replica_id} already started")
        self.scheduler = scheduler
        self._procs = self.engine.spawn_serving(self.kernel, scheduler)
        if self.injector is not None:
            self.injector.attach_engine(self.engine)

    # -- lockstep surface --------------------------------------------------

    @property
    def feed(self) -> ReplicaFeed:
        if not isinstance(self.scheduler, ReplicaFeed):
            raise TypeError(
                f"replica {self.replica_id} runs a static scheduler"
            )
        return self.scheduler

    def admit(self, req: Request, migrated: bool = False) -> None:
        """Route ``req`` here: enqueue it and wake a parked head."""
        self.feed.push(req, migrated=migrated)
        # Heads idling on an empty open stream park on the endpoint's
        # arrival watchers (the same futures message delivery resolves);
        # resolve them so the head re-checks the queue.
        self.engine.ep()._notify_watchers()

    def advance_to(self, t: float) -> None:
        """Run this replica's simulation up to absolute time ``t``."""
        self.kernel.run(until=t)

    def drain(self) -> None:
        """Close an open feed and run the pipeline to completion."""
        if isinstance(self.scheduler, ReplicaFeed) and not self.scheduler.closed:
            self.scheduler.close()
            self.engine.ep()._notify_watchers()
        run_to_completion(self.kernel, self._procs)

    # -- router load/affinity signals --------------------------------------

    @property
    def depth(self) -> int:
        """Requests in the system (queued or active, not completed)."""
        return self.feed.depth

    @property
    def n_waiting(self) -> int:
        """Requests routed here but not yet admitted."""
        return self.feed.n_waiting

    def prefix_match_tokens(self, prompt: Sequence[int]) -> int:
        """Longest warm radix-tree prefix of ``prompt`` on this replica.

        0 when the engine has no prefix cache (baseline heads, or
        ``prefix_cache=False``).  Pure probe — no cache state changes.
        """
        cache = getattr(self.engine, "prefix_cache", None)
        if cache is None:
            return 0
        return cache.match(list(prompt)).length

    # -- results -----------------------------------------------------------

    def report(self) -> Optional[ServingReport]:
        """This replica's own serving report (None if it served nothing)."""
        requests = self.engine.request_reports
        if not requests:
            return None
        report = ServingReport.from_requests(
            self.engine.name,
            self.cluster.size,
            requests,
            extra_stats=self.metrics.stats,
        )
        # Busy fractions over the serving makespan (head + workers).
        report.utilization = self.metrics.utilization(total_time=report.makespan)
        # Event-core efficiency: process resumes executed vs messages made
        # available to receivers — the batched-inbox hand-off drives this
        # ratio toward one resume per delivery event (< 1 message-wise).
        report.n_resumes = self.kernel.n_resumes
        report.n_delivered = self.network.n_delivered
        report.n_events = self.kernel.n_events
        report.fusion_width = self.metrics.fusion_width_hist()
        report.draft_batch_width = dict(self.metrics.draft_batch_width)
        # Prefix-cache lifecycle counters (empty dict when the cache is off
        # or the head is a baseline without one).
        report.prefix_cache_stats = dict(
            getattr(self.engine, "prefix_cache_stats", {})
        )
        return report


class _ColdReplica:
    """Stand-in the static routing path hands the router: a replica that
    is never loaded and never warm, so static policies (which must not
    consult state anyway) route identically whether replicas exist yet."""

    depth = 0
    n_waiting = 0

    @staticmethod
    def prefix_match_tokens(prompt) -> int:
        return 0


class Router:
    """Deterministic request→replica assignment.

    All randomness is hash-derived from ``(seed, req_id)`` or the prompt
    (SplitMix64 — see :mod:`repro.util.rng`), never from stateful RNG,
    so a fixed seed yields the same placements on every run.  Load ties
    break toward the lowest replica id.
    """

    def __init__(self, cfg: ClusterConfig) -> None:
        self.cfg = cfg
        self._rr = 0
        #: session id -> replica its first turn landed on.
        self.session_home: Dict[int, int] = {}
        #: req_id -> final replica choice.
        self.assignments: Dict[int, int] = {}
        self.spills = 0
        self.migrations = 0
        self.session_affinity_hits = 0

    def route(self, req: Request, replicas: Sequence) -> int:
        """Pick the replica for ``req``; records counters en route."""
        pinned = None
        if self.cfg.affinity == "session" and req.session is not None:
            pinned = self.session_home.get(req.session)
        choice = pinned if pinned is not None else self._policy_choice(req, replicas)
        final = self._backpressure(req, choice, replicas)
        if final != choice:
            self.spills += 1
        elif pinned is not None:
            self.session_affinity_hits += 1
        if (
            self.cfg.affinity == "session"
            and req.session is not None
            and req.session not in self.session_home
        ):
            # Pin where the first turn actually landed (post-spill) —
            # that is where its KV prefix will be donated.
            self.session_home[req.session] = final
        self.assignments[req.req_id] = final
        return final

    def _policy_choice(self, req: Request, replicas: Sequence) -> int:
        k = len(replicas)
        policy = self.cfg.routing
        if policy is RoutingPolicy.RANDOM:
            draw = unit_float(
                hash_tokens(self.cfg.seed, (req.req_id,), salt=_RANDOM_SALT)
            )
            return min(int(draw * k), k - 1)
        if policy is RoutingPolicy.ROUND_ROBIN:
            choice = self._rr % k
            self._rr += 1
            return choice
        if policy is RoutingPolicy.PROMPT_HASH:
            return hash_tokens(self.cfg.seed, req.job.prompt, salt=_PROMPT_SALT) % k
        if policy is RoutingPolicy.LEAST_LOADED:
            return min(range(k), key=lambda i: (replicas[i].depth, i))
        # PREFIX_AFFINITY: deepest warm radix match wins; ties fall back
        # to the session home, then least-loaded, then lowest id.
        matches = [
            replicas[i].prefix_match_tokens(req.job.prompt) for i in range(k)
        ]
        best = max(matches)
        tied = [i for i in range(k) if matches[i] == best]
        if len(tied) > 1 and req.session is not None:
            home = self.session_home.get(req.session)
            if home in tied:
                return home
        return min(tied, key=lambda i: (replicas[i].depth, i))

    def _backpressure(self, req: Request, choice: int, replicas: Sequence) -> int:
        cap = self.cfg.queue_cap
        if cap is None or replicas[choice].depth < cap:
            return choice
        est = self.cfg.deadline_service_est
        if est is not None and req.ttft_slo is not None:
            # Deadline-aware spill: prefer the least-loaded replica whose
            # queue, at ~est seconds per queued request, still fits the
            # TTFT deadline.  Falls through to plain least-loaded when no
            # replica can make it (never drop).
            fits = [
                i
                for i in range(len(replicas))
                if replicas[i].depth * est <= req.ttft_slo
            ]
            if fits:
                return min(fits, key=lambda i: (replicas[i].depth, i))
        # Spill to the least-loaded replica; never drop — when every
        # replica is at the cap the least-loaded one still takes it.
        return min(range(len(replicas)), key=lambda i: (replicas[i].depth, i))

    def rebalance(self, replicas: Sequence[Replica]) -> None:
        """Steal queued tail requests from over-deep replicas.

        Runs at each arrival sync point (lockstep path only).  Moves the
        most recently routed, not-yet-admitted request from the replica
        whose *waiting* queue exceeds the cap to the least-loaded
        replica, while the latter has headroom.  Deterministic: deepest
        donor first, ties toward the lowest id; each move strictly
        shrinks the donor's queue, so the loop terminates.
        """
        cap = self.cfg.queue_cap
        assert cap is not None  # enforced by ClusterConfig
        while True:
            donor = max(
                (r for r in replicas if r.n_waiting > cap),
                key=lambda r: (r.n_waiting, -r.replica_id),
                default=None,
            )
            if donor is None:
                return
            taker = min(
                replicas, key=lambda r: (r.depth, r.replica_id)
            )
            if taker is donor or taker.depth >= cap:
                return
            req = donor.feed.steal_tail()
            if req is None:
                return
            taker.admit(req, migrated=True)
            self.migrations += 1
            self.assignments[req.req_id] = taker.replica_id
            if (
                self.cfg.affinity == "session"
                and req.session is not None
                and self.session_home.get(req.session) == donor.replica_id
            ):
                # The session's warm state follows its requests.
                self.session_home[req.session] = taker.replica_id


def _materialize(spec, k: int, what: str) -> list:
    """Resolve a factory-or-sequence spec into K distinct instances.

    Replicas are independent simulations: a shared backend or cluster
    instance would leak KV and link state across them, so sequences are
    checked for object distinctness.
    """
    if callable(spec):
        items = [spec() for _ in range(k)]
    else:
        items = list(spec)
    if len(items) != k:
        raise ValueError(
            f"need {k} {what} (one per replica), got {len(items)}"
        )
    if len({id(item) for item in items}) != k:
        raise ValueError(
            f"replicas must not share {what}: pass a factory or {k} "
            f"distinct instances"
        )
    return items


class EngineCluster:
    """K independent serving pipelines behind a :class:`Router`.

    Args:
        engine_factory: engine class (or callable) taking
            (backend, network, config, metrics) — same contract as
            ``run_serving``.
        backends: a zero-argument factory called once per replica, or a
            sequence of K distinct :class:`Backend` instances.
        clusters: likewise for the testbed :class:`Cluster` (each
            replica binds its own copy to its own kernel).
        cluster_config: cluster shape + routing knobs.
        config: per-replica :class:`EngineConfig` (shared value; the
            dataclass is frozen so sharing is safe).
        fault_plans: optional sequence of K fault plans (None entries
            leave that replica fault-free).
    """

    def __init__(
        self,
        engine_factory,
        backends: Union[Callable[[], Backend], Sequence[Backend]],
        clusters: Union[Callable[[], Cluster], Sequence[Cluster]],
        cluster_config: Optional[ClusterConfig] = None,
        config: Optional[EngineConfig] = None,
        fault_plans: Optional[Sequence] = None,
    ) -> None:
        self.cluster_config = cluster_config or ClusterConfig()
        self.config = config or EngineConfig()
        k = self.cluster_config.n_replicas
        if (
            self.cluster_config.routing is RoutingPolicy.PREFIX_AFFINITY
            and not self.config.prefix_cache
        ):
            raise ValueError(
                "prefix_affinity routing needs prefix_cache=True: with "
                "the cache off no replica ever has a warm prefix to win"
            )
        self._engine_factory = engine_factory
        self._backends = _materialize(backends, k, "backends")
        self._clusters = _materialize(clusters, k, "clusters")
        if fault_plans is None:
            self._fault_plans: List = [None] * k
        else:
            if len(fault_plans) != k:
                raise ValueError(
                    f"need {k} fault plans (one per replica, None for "
                    f"fault-free), got {len(fault_plans)}"
                )
            self._fault_plans = list(fault_plans)
        self.router = Router(self.cluster_config)
        self.replicas: List[Optional[Replica]] = [None] * k

    def _new_replica(self, i: int) -> Replica:
        rep = Replica(
            i,
            self._engine_factory,
            self._backends[i],
            self._clusters[i],
            self.config,
            fault_plan=self._fault_plans[i],
        )
        self.replicas[i] = rep
        return rep

    def serve(self, workload: Workload) -> ClusterReport:
        """Route the workload across the replicas and serve it all."""
        requests = workload.requests()
        if self.cluster_config.dynamic and self.cluster_config.n_replicas > 1:
            self._serve_lockstep(workload, requests)
        else:
            self._serve_static(workload, requests)
        return self._build_report()

    # -- static path: partition up front, run replicas independently -------

    def _serve_static(
        self, workload: Workload, requests: List[Request]
    ) -> None:
        k = self.cluster_config.n_replicas
        cold = [_ColdReplica()] * k
        buckets: List[List[Request]] = [[] for _ in range(k)]
        for req in requests:
            buckets[self.router.route(req, cold)].append(req)
        for i, bucket in enumerate(buckets):
            if not bucket:
                continue
            rep = self._new_replica(i)
            rep.start(
                RequestScheduler.from_requests(
                    bucket, max_active=workload.max_active
                )
            )
            rep.drain()

    # -- incremental (push-mode) surface ------------------------------------
    # The lockstep serve path and the streaming front-end
    # (:class:`repro.api.session.ServingSession`) share these four calls:
    # open K fed replicas, submit requests one at a time (the cluster
    # co-simulates to each arrival and routes on live state), then close
    # the feeds and drain.  ``serve()`` composed of them is byte-identical
    # to the historical lockstep body.

    def open(self, max_active: Optional[int] = None) -> List[Replica]:
        """Create all K replicas in push mode (open :class:`ReplicaFeed`)."""
        if any(rep is not None for rep in self.replicas):
            raise RuntimeError("cluster already opened")
        k = self.cluster_config.n_replicas
        replicas = [self._new_replica(i) for i in range(k)]
        for rep in replicas:
            rep.start(ReplicaFeed(max_active=max_active))
        return replicas

    def _live(self) -> List[Replica]:
        live = [rep for rep in self.replicas if rep is not None]
        if not live:
            raise RuntimeError("cluster not opened")
        return live

    def submit(self, req: Request) -> int:
        """Advance to ``req.arrival``, route on live state, enqueue.

        Returns the chosen replica index.  Requests must be submitted in
        arrival order (the feeds enforce it).
        """
        replicas = self._live()
        # Advance every kernel to the arrival instant so queue depths
        # and radix trees reflect the true state at t.
        for rep in replicas:
            rep.advance_to(req.arrival)
        if self.cluster_config.migration:
            self.router.rebalance(replicas)
        target = self.router.route(req, replicas)
        replicas[target].admit(req)
        return target

    def advance_to(self, t: float) -> None:
        """Run every replica's simulation up to absolute time ``t``."""
        for rep in self._live():
            rep.advance_to(t)

    def close_and_drain(self) -> None:
        """Close every feed and run all replicas to completion."""
        for rep in self._live():
            rep.drain()

    def report(self) -> ClusterReport:
        """Aggregate the (drained) replicas into a :class:`ClusterReport`."""
        return self._build_report()

    # -- lockstep path: co-simulate, route on live state --------------------

    def _serve_lockstep(
        self, workload: Workload, requests: List[Request]
    ) -> None:
        self.open(max_active=workload.max_active)
        for req in requests:
            self.submit(req)
        self.close_and_drain()

    # -- aggregation ---------------------------------------------------------

    def _build_report(self) -> ClusterReport:
        per_replica = [
            rep.report() if rep is not None else None for rep in self.replicas
        ]
        live = [rep for rep in self.replicas if rep is not None]
        all_requests = [
            r for rep in live for r in rep.engine.request_reports
        ]
        if not all_requests:
            raise ValueError("cluster served no requests")
        extra = RunStats.merged([rep.metrics.stats for rep in live])
        merged = ServingReport.from_requests(
            live[0].engine.name,
            sum(rep.cluster.size for rep in live),
            all_requests,
            extra_stats=extra,
        )
        # Node-weighted busy fraction over the cluster-wide makespan.
        total_nodes = sum(rep.cluster.size for rep in live)
        merged.utilization = (
            sum(
                rep.metrics.utilization(total_time=merged.makespan)
                * rep.cluster.size
                for rep in live
            )
            / total_nodes
            if total_nodes
            else 0.0
        )
        merged.n_resumes = sum(rep.kernel.n_resumes for rep in live)
        merged.n_delivered = sum(rep.network.n_delivered for rep in live)
        merged.n_events = sum(rep.kernel.n_events for rep in live)
        for rep in live:
            for width, count in rep.metrics.fusion_width_hist().items():
                merged.fusion_width[width] = (
                    merged.fusion_width.get(width, 0) + count
                )
            for width, count in rep.metrics.draft_batch_width.items():
                merged.draft_batch_width[width] = (
                    merged.draft_batch_width.get(width, 0) + count
                )
            for key, val in getattr(rep.engine, "prefix_cache_stats", {}).items():
                merged.prefix_cache_stats[key] = (
                    merged.prefix_cache_stats.get(key, 0) + val
                )
        routed = [0] * self.cluster_config.n_replicas
        for rid in self.router.assignments.values():
            routed[rid] += 1
        return ClusterReport(
            merged=merged,
            per_replica=per_replica,
            routing=self.cluster_config.routing.value,
            affinity=self.cluster_config.affinity,
            n_replicas=self.cluster_config.n_replicas,
            assignments=dict(self.router.assignments),
            routed=routed,
            spills=self.router.spills,
            migrations=self.router.migrations,
            session_affinity_hits=self.router.session_affinity_hits,
        )


def run_cluster(
    engine_factory,
    backends: Union[Callable[[], Backend], Sequence[Backend]],
    clusters: Union[Callable[[], Cluster], Sequence[Cluster]],
    workload: Workload,
    cluster_config: Optional[ClusterConfig] = None,
    config: Optional[EngineConfig] = None,
    fault_plans: Optional[Sequence] = None,
) -> ClusterReport:
    """Build an :class:`EngineCluster`, serve ``workload``, return the report."""
    cluster = EngineCluster(
        engine_factory,
        backends,
        clusters,
        cluster_config=cluster_config,
        config=config,
        fault_plans=fault_plans,
    )
    return cluster.serve(workload)
