"""Per-run reports, repetition aggregation, and serving-level reports."""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import mean
from typing import Dict, List, Optional, Sequence

from repro.metrics.collectors import MetricsCollector, RunStats
from repro.metrics.percentiles import p50, p95, p99


@dataclass
class EngineReport:
    """One generation run's headline numbers."""

    strategy: str
    n_nodes: int
    tokens: List[int]
    generation_speed: float
    ttft: float
    itl: float
    acceptance_rate: float
    utilization: float
    mean_node_memory: float
    max_node_memory: float
    stats: RunStats
    #: Fusion-width histogram (width -> stage-window count, all ranks).
    fusion_width: Dict[int, int] = field(default_factory=dict)
    #: Draft-batch-width histogram (chains per head draft pass -> count).
    draft_batch_width: Dict[int, int] = field(default_factory=dict)
    #: Kernel events executed over the run (resumes, callbacks and
    #: deliveries): the host-independent work counter an idle poll storm
    #: shows up in.
    n_events: int = 0

    @classmethod
    def from_collector(
        cls,
        strategy: str,
        n_nodes: int,
        tokens: Sequence[int],
        metrics: MetricsCollector,
    ) -> "EngineReport":
        return cls(
            strategy=strategy,
            n_nodes=n_nodes,
            tokens=list(tokens),
            generation_speed=metrics.generation_speed(),
            ttft=metrics.ttft(),
            itl=metrics.itl(),
            acceptance_rate=metrics.stats.acceptance_rate,
            utilization=metrics.utilization(),
            mean_node_memory=metrics.mean_node_memory(),
            max_node_memory=metrics.max_node_memory(),
            stats=metrics.stats,
            fusion_width=metrics.fusion_width_hist(),
            draft_batch_width=dict(metrics.draft_batch_width),
        )

    def speed_per_gb(self) -> float:
        """Figure 7a's memory-efficiency metric: tokens/s per mean GB."""
        gb = self.mean_node_memory / 1e9
        return self.generation_speed / gb if gb > 0 else 0.0


@dataclass
class RequestReport:
    """One served request's timeline and output.

    Times are absolute simulated timestamps; latencies derive from them:

    - ``queue_wait`` — arrival to admission (prefill dispatch);
    - ``ttft`` — arrival to the first output token (sampled when the
      prompt's prefill logits return), the serving-level definition that
      *includes* queue wait;
    - ``itl_samples`` — individual gaps between accepted tokens.

    ``cached_tokens`` counts prompt tokens materialized from the
    cross-request prefix cache (metadata copies) instead of prefilled;
    ``prompt_tokens`` is the full prompt length, so
    ``cached_tokens / prompt_tokens`` is the request's prefix hit rate.

    SLO tags ride along from the :class:`~repro.serve.scheduler.Request`:
    ``ttft_slo`` judges the first token, ``itl_slo`` judges each
    inter-token gap; ``good_tokens`` counts tokens delivered within their
    deadline (all of them when no SLO is set).  ``cancelled`` marks a
    mid-flight client disconnect — ``tokens`` holds whatever was verified
    before the cancel (empty when it never left the queue).
    """

    req_id: int
    tokens: List[int]
    arrival: float
    admitted_at: float
    prefill_end: float
    finish_time: float
    itl_samples: List[float]
    stats: RunStats
    prompt_tokens: int = 0
    cached_tokens: int = 0
    priority: int = 0
    ttft_slo: Optional[float] = None
    itl_slo: Optional[float] = None
    cancelled: bool = False

    @property
    def n_tokens(self) -> int:
        return len(self.tokens)

    @property
    def queue_wait(self) -> float:
        return self.admitted_at - self.arrival

    @property
    def ttft(self) -> float:
        return self.prefill_end - self.arrival

    @property
    def itl(self) -> float:
        if not self.itl_samples:
            return float("inf")
        return sum(self.itl_samples) / len(self.itl_samples)

    @property
    def good_tokens(self) -> int:
        """Tokens delivered within their SLO (the goodput numerator).

        The first output token is judged against ``ttft_slo``; each
        later token against ``itl_slo`` via its inter-token gap.  Unset
        SLOs always pass.  The hop from the prefill-sampled first token
        to the first verified token is not a recorded gap, so one token
        per request can lack a gap sample — it passes (benefit of the
        doubt, deterministic either way).
        """
        n = len(self.tokens)
        if n == 0:
            return 0
        good = 1 if (self.ttft_slo is None or self.ttft <= self.ttft_slo) else 0
        rest = n - 1
        if self.itl_slo is None:
            return good + rest
        gaps = self.itl_samples[:rest]
        good += sum(1 for g in gaps if g <= self.itl_slo)
        return good + (rest - len(gaps))

    @property
    def slo_attainment(self) -> float:
        """Fraction of delivered tokens within SLO (0.0 if none delivered)."""
        n = len(self.tokens)
        return self.good_tokens / n if n else 0.0


@dataclass
class ServingReport:
    """Aggregate metrics over a served request stream.

    Percentiles are computed over the request population (TTFT,
    queue-wait) or over every inter-token gap of every request (ITL).
    Throughput counts generated tokens only, over the makespan from the
    first arrival to the last completion.
    """

    strategy: str
    n_nodes: int
    requests: List[RequestReport]
    makespan: float
    throughput: float
    ttft_p50: float
    ttft_p95: float
    ttft_p99: float
    itl_p50: float
    itl_p95: float
    itl_p99: float
    queue_wait_p50: float
    queue_wait_p95: float
    queue_wait_p99: float
    utilization: float
    stats: RunStats
    #: Fusion-width histogram (width -> stage-window count, all ranks).
    fusion_width: Dict[int, int] = field(default_factory=dict)
    #: Draft-batch-width histogram (chains per head draft pass -> count).
    draft_batch_width: Dict[int, int] = field(default_factory=dict)
    #: Prompt tokens served from the cross-request prefix cache.
    prefix_hit_tokens: int = 0
    #: ``prefix_hit_tokens`` over the stream's total prompt tokens.
    prefix_hit_rate: float = 0.0
    #: Mean TTFT over all requests, and split by prefix-cache outcome
    #: (0.0 when the corresponding population is empty) — the cache's
    #: TTFT effect read directly off one report.
    ttft_mean: float = 0.0
    ttft_mean_hit: float = 0.0
    ttft_mean_miss: float = 0.0
    #: Prefix-cache lifecycle counters (hits, donations, evictions,
    #: retained cells) from the serving head's manager; empty when off.
    prefix_cache_stats: Dict[str, int] = field(default_factory=dict)
    #: Event-core efficiency counters: generator resumes executed by the
    #: kernel vs messages made available to receivers over the run.  The
    #: batched inbox hand-off drives ``n_resumes / n_delivered`` toward
    #: one resume per delivery *event* (well below one per message).
    n_resumes: int = 0
    n_delivered: int = 0
    #: Kernel events executed over the run (see ``EngineReport.n_events``).
    n_events: int = 0
    #: Goodput: tokens delivered within their SLO over the makespan.
    #: Equals ``throughput`` when no request carries an SLO tag.
    goodput: float = 0.0
    #: Aggregate SLO attainment: good tokens over delivered tokens
    #: (1.0 when nothing was delivered — vacuously attained).
    slo_attainment: float = 1.0
    #: Per-request SLO-attainment floors over requests that delivered at
    #: least one token (1.0 when none did): ``slo_attainment_p95`` is the
    #: attainment that 95% of requests meet or beat — the lower tail,
    #: since high attainment is good.
    slo_attainment_p50: float = 1.0
    slo_attainment_p95: float = 1.0
    slo_attainment_p99: float = 1.0
    #: Requests cancelled mid-flight (client disconnects).
    n_cancelled: int = 0

    @property
    def resumes_per_message(self) -> float:
        """Process resumes per delivered message (lower is better)."""
        if self.n_delivered <= 0:
            return 0.0
        return self.n_resumes / self.n_delivered

    @classmethod
    def from_requests(
        cls,
        strategy: str,
        n_nodes: int,
        requests: Sequence[RequestReport],
        utilization: float = 0.0,
        extra_stats: Optional[RunStats] = None,
    ) -> "ServingReport":
        if not requests:
            raise ValueError("serving report needs at least one request")
        reqs = sorted(requests, key=lambda r: r.req_id)
        start = min(r.arrival for r in reqs)
        end = max(r.finish_time for r in reqs)
        makespan = max(end - start, 0.0)
        n_tokens = sum(r.n_tokens for r in reqs)
        # Latency percentiles describe served traffic: requests cancelled
        # before delivering anything carry synthetic timestamps (stamped
        # at cancel processing) and are excluded — unless the whole
        # stream was cancelled, in which case they are all we have.
        served = [r for r in reqs if not (r.cancelled and r.n_tokens == 0)]
        if not served:
            served = list(reqs)
        ttfts = [r.ttft for r in served]
        waits = [r.queue_wait for r in served]
        gaps = [g for r in reqs for g in r.itl_samples]
        if not gaps:
            gaps = [float("inf")]
        stats = RunStats.merged(
            [r.stats for r in reqs] + ([extra_stats] if extra_stats else [])
        )
        hit_tokens = sum(r.cached_tokens for r in reqs)
        prompt_tokens = sum(r.prompt_tokens for r in reqs)
        hit = [r.ttft for r in served if r.cached_tokens > 0]
        miss = [r.ttft for r in served if r.cached_tokens == 0]
        good_tokens = sum(r.good_tokens for r in reqs)
        attainments = [r.slo_attainment for r in reqs if r.n_tokens > 0]
        if not attainments:
            attainments = [1.0]
        return cls(
            strategy=strategy,
            n_nodes=n_nodes,
            requests=list(reqs),
            makespan=makespan,
            throughput=n_tokens / makespan if makespan > 0 else 0.0,
            ttft_p50=p50(ttfts),
            ttft_p95=p95(ttfts),
            ttft_p99=p99(ttfts),
            itl_p50=p50(gaps),
            itl_p95=p95(gaps),
            itl_p99=p99(gaps),
            queue_wait_p50=p50(waits),
            queue_wait_p95=p95(waits),
            queue_wait_p99=p99(waits),
            utilization=utilization,
            stats=stats,
            prefix_hit_tokens=hit_tokens,
            prefix_hit_rate=hit_tokens / prompt_tokens if prompt_tokens else 0.0,
            ttft_mean=mean(ttfts),
            ttft_mean_hit=mean(hit) if hit else 0.0,
            ttft_mean_miss=mean(miss) if miss else 0.0,
            goodput=good_tokens / makespan if makespan > 0 else 0.0,
            slo_attainment=good_tokens / n_tokens if n_tokens else 1.0,
            # Negate to read the lower tail off upper-tail percentile
            # helpers; the leading 0.0 normalizes -0.0 back to 0.0.
            slo_attainment_p50=0.0 - p50([-a for a in attainments]),
            slo_attainment_p95=0.0 - p95([-a for a in attainments]),
            slo_attainment_p99=0.0 - p99([-a for a in attainments]),
            n_cancelled=sum(1 for r in reqs if r.cancelled),
        )

    @property
    def n_requests(self) -> int:
        return len(self.requests)

    def token_counts(self) -> Dict[int, int]:
        """Generated-token count per request id."""
        return {r.req_id: r.n_tokens for r in self.requests}

    def outputs(self) -> Dict[int, List[int]]:
        """Generated tokens per request id."""
        return {r.req_id: list(r.tokens) for r in self.requests}


@dataclass
class ClusterReport:
    """Aggregate view of one :class:`repro.serve.EngineCluster` run.

    ``merged`` treats the whole cluster as a single serving system: its
    percentiles, throughput, and ``prefix_hit_rate`` are computed over
    the union of every replica's requests on the shared absolute
    timeline (so cluster throughput reflects wall-clock overlap, not a
    sum of per-replica rates).  ``per_replica`` keeps each replica's own
    :class:`ServingReport` for breakdowns — ``None`` for replicas the
    router never sent a request to.

    The routing counters record what the router actually did:
    ``assignments`` maps every req_id to the replica that served it,
    ``spills`` counts backpressure diversions off the policy's first
    choice, ``migrations`` counts queued requests stolen to a cooler
    replica, and ``session_affinity_hits`` counts follow-up turns that
    landed on their session's pinned replica.
    """

    merged: ServingReport
    per_replica: List[Optional[ServingReport]]
    routing: str
    affinity: str
    n_replicas: int
    #: req_id -> replica index that finally served it.
    assignments: Dict[int, int] = field(default_factory=dict)
    #: Requests routed to each replica (post-spill, post-migration).
    routed: List[int] = field(default_factory=list)
    spills: int = 0
    migrations: int = 0
    session_affinity_hits: int = 0

    @property
    def throughput(self) -> float:
        return self.merged.throughput

    @property
    def goodput(self) -> float:
        return self.merged.goodput

    @property
    def slo_attainment(self) -> float:
        return self.merged.slo_attainment

    @property
    def n_cancelled(self) -> int:
        return self.merged.n_cancelled

    @property
    def prefix_hit_rate(self) -> float:
        return self.merged.prefix_hit_rate

    @property
    def ttft_mean(self) -> float:
        return self.merged.ttft_mean

    @property
    def makespan(self) -> float:
        return self.merged.makespan

    @property
    def n_requests(self) -> int:
        return self.merged.n_requests

    def outputs(self) -> Dict[int, List[int]]:
        """Generated tokens per request id, cluster-wide."""
        return self.merged.outputs()

    def token_counts(self) -> Dict[int, int]:
        """Generated-token count per request id, cluster-wide."""
        return self.merged.token_counts()

    def replica_throughputs(self) -> List[float]:
        """Per-replica throughput (0.0 for replicas that served nothing)."""
        return [r.throughput if r is not None else 0.0 for r in self.per_replica]


def aggregate(reports: Sequence[EngineReport]) -> EngineReport:
    """Average repeated runs of the same configuration (paper: 10 reps)."""
    if not reports:
        raise ValueError("nothing to aggregate")
    first = reports[0]
    if any(r.strategy != first.strategy or r.n_nodes != first.n_nodes for r in reports):
        raise ValueError("aggregate() expects runs of one configuration")
    return EngineReport(
        strategy=first.strategy,
        n_nodes=first.n_nodes,
        tokens=first.tokens,
        generation_speed=mean(r.generation_speed for r in reports),
        ttft=mean(r.ttft for r in reports),
        itl=mean(r.itl for r in reports),
        acceptance_rate=mean(r.acceptance_rate for r in reports),
        utilization=mean(r.utilization for r in reports),
        mean_node_memory=mean(r.mean_node_memory for r in reports),
        max_node_memory=mean(r.max_node_memory for r in reports),
        stats=first.stats,
    )
