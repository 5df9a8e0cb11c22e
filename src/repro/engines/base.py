"""Shared engine machinery: configuration, wiring, dispatch helpers.

An *engine* is one inference strategy.  Engines share the pipeline worker
(:mod:`repro.engines.worker`) and differ in their head-node process.  A
:class:`BaseEngine` handles the common wiring: rank layout, layer
partitioning, worker state, transaction dispatch, prompt prefill, and
shutdown.  :func:`run_engine` builds a fresh simulation, runs one
generation job to completion, and returns an :class:`EngineReport`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from typing import Generator, List, Optional, Sequence, Tuple

from repro.cluster.kernel import SimKernel, run_to_completion
from repro.cluster.topology import Cluster
from repro.comm.mpi_sim import Endpoint, Network
from repro.comm.payloads import (
    Activations,
    CacheOp,
    DecodeMeta,
    FusedRun,
    ShutdownMsg,
)
from repro.comm.pool import TransactionPool
from repro.comm.transactions import TransactionType, send_transaction
from repro.engines.backend import Backend
from repro.metrics.collectors import MetricsCollector
from repro.metrics.report import EngineReport
from repro.pipeline.partition import partition_for
from repro.spec.draft import DraftParams

#: Wire size of a cache-op command.
CACHE_OP_NBYTES = 32.0


@dataclass(frozen=True)
class EngineConfig:
    """Algorithm knobs shared by all engines.

    PipeInfer-specific fields (Section IV): micro-batch size, the number
    of KV sequence partitions, the reactive-cutoff factors, and the
    ablation switches for Figure 8.
    """

    draft: DraftParams = field(default_factory=DraftParams)
    #: KV-cache sequence partitions available to speculative runs (IV-C).
    n_seq_partitions: int = 8
    #: Continuous-speculation micro-batch size, 1-4 in the paper (IV-B1).
    microbatch_size: int = 4
    #: Maximum drafted-but-unverified chain length before drafting pauses.
    lookahead_cap: int = 16
    #: Confidence-cutoff recovery factor (IV-B2): added per successful
    #: continuous-speculation iteration, reset on run acceptance.
    cutoff_recovery: float = 0.06
    #: Confidence-cutoff decay factor (IV-B2): subtracted when speculation
    #: halts and no logits are waiting.
    cutoff_decay: float = 0.03
    #: Figure 8 ablation switches.
    enable_cancellation: bool = True
    enable_continuous: bool = True
    #: Retry interval of the two head waits no event announces: the
    #: single-job head's retry after the draft cutoff halts speculation
    #: (time-driven, part of the IV-B2 cutoff decay), and the serving
    #: head's admission retry while worker cell counts are stale.  Every
    #: other idle wait parks on message arrivals.
    idle_poll: float = 2e-4
    #: KV cells per worker shard (functional mode sizing).
    n_cells: int = 2048
    #: Cap on decode runs a pipeline stage fuses into one cross-run batch
    #: (1 disables multi-run batching; ablation / differential testing).
    max_fused_runs: int = 8
    #: Cap on request chains the serving head drafts per batched draft
    #: round (1 restores sequential one-request-at-a-time drafting; the
    #: differential suite pins both to identical served tokens).
    max_draft_batch: int = 8
    #: Coalesce the head's run dispatches (cache ops + decodes) into one
    #: FUSED transaction burst per hop so worker fusion windows see a
    #: whole round at once.  False restores singleton CACHE_OP + DECODE
    #: transactions per run (ablation / differential testing).
    burst_dispatch: bool = True
    #: Serving admission policy: when True, admit against the workers'
    #: *live* cells-in-use (``KVCache.n_used``, O(1)) instead of the sum
    #: of every active request's static worst-case demand.  Optimistic:
    #: admits far earlier once requests have released or not yet grown
    #: into their worst case, at the cost of the hard no-overflow
    #: guarantee (see :meth:`repro.core.multibuffer.CellBudget.fits_live`).
    admission_live_cells: bool = False
    #: Cross-request KV prefix caching (serving mode): completed requests
    #: donate their verified prompt KV into a radix tree of retained pool
    #: sequences; later requests materialize matching prefixes by
    #: pipelined ``seq_cp``/``seq_broadcast`` transactions and prefill
    #: only the unmatched tail (see :mod:`repro.cache.prefix`).
    prefix_cache: bool = False
    #: Retained-cell budget for the prefix cache; LRU leaf eviction keeps
    #: the tree at or below it (and always yields to admission pressure).
    prefix_cache_cells: int = 1024
    #: Shortest prefix match (and donated span) worth a cache-op
    #: transaction; shorter matches prefill from scratch.
    min_match_tokens: int = 8
    #: Second-hit promotion: donate a prompt's span into the radix tree
    #: only after the same full prompt has been *seen twice*, keeping the
    #: tree lean under one-shot traffic.  Off by default; turning it on
    #: never changes served tokens (donation affects timing/placement
    #: only — greedy decoding is cache-invariant).
    prefix_promote_on_second_hit: bool = False
    #: Batched inbox hand-off: coalesced link drains hand each same-instant
    #: delivery run to the destination endpoint in one call, scheduling at
    #: most one resume per parked receiver.  False restores per-message
    #: delivery closures (the ablation baseline); per-message acceptance
    #: semantics are identical in both modes.
    batched_inbox: bool = True

    def __post_init__(self) -> None:
        if self.microbatch_size < 1:
            raise ValueError(
                f"microbatch_size must be positive, got {self.microbatch_size}"
            )
        if self.n_seq_partitions < 1:
            raise ValueError(
                f"n_seq_partitions must be positive, got {self.n_seq_partitions}"
            )
        if self.lookahead_cap < 1:
            raise ValueError(
                f"lookahead_cap must be positive, got {self.lookahead_cap}"
            )
        if self.cutoff_recovery < 0:
            raise ValueError(
                f"cutoff_recovery must be non-negative, got {self.cutoff_recovery}"
            )
        if self.cutoff_decay < 0:
            raise ValueError(
                f"cutoff_decay must be non-negative, got {self.cutoff_decay}"
            )
        if self.idle_poll <= 0:
            raise ValueError(f"idle_poll must be positive, got {self.idle_poll}")
        if self.n_cells < 1:
            raise ValueError(f"n_cells must be positive, got {self.n_cells}")
        if self.max_fused_runs < 1:
            raise ValueError(
                f"max_fused_runs must be positive, got {self.max_fused_runs}"
            )
        if self.max_draft_batch < 1:
            raise ValueError(
                f"max_draft_batch must be positive, got {self.max_draft_batch}"
            )
        if self.prefix_cache_cells < 1:
            raise ValueError(
                f"prefix_cache_cells must be positive, got {self.prefix_cache_cells}"
            )
        if self.min_match_tokens < 1:
            raise ValueError(
                f"min_match_tokens must be positive, got {self.min_match_tokens}"
            )

    def ablated(self, **changes) -> "EngineConfig":
        """A copy with the given fields replaced (ablation studies)."""
        return replace(self, **changes)


@dataclass(frozen=True)
class GenerationJob:
    """One generation request."""

    prompt: Tuple[int, ...]
    n_generate: int = 256

    def __post_init__(self) -> None:
        if not self.prompt:
            raise ValueError("prompt must not be empty")
        if self.n_generate < 1:
            raise ValueError("must generate at least one token")


class BaseEngine(ABC):
    """Common wiring for pipeline engines."""

    name = "base"

    def __init__(
        self,
        backend: Backend,
        network: Network,
        config: EngineConfig,
        metrics: MetricsCollector,
    ) -> None:
        self.backend = backend
        self.net = network
        self.cluster = network.cluster
        self.config = config
        network.batched_inbox = config.batched_inbox
        self.metrics = metrics
        self.generated_tokens: List[int] = []
        #: Per-request reports, populated by the serving heads.
        self.request_reports: List = []
        self._next_run_id = 0
        #: Fault plumbing — populated only by :mod:`repro.faults` runs.
        #: ``injector`` stays None on fault-free simulations.  The injector
        #: appends worker restarts awaiting recovery to ``_fault_events``
        #: and wakes the head, which drains the list with a single falsy
        #: check per loop iteration.
        self.injector = None
        self._fault_events: List[Tuple[str, int]] = []
        #: Mid-flight cancellation inbox: request ids whose clients
        #: disconnected.  The serving head drains it each step; unknown
        #: ids are ignored, so a cluster front-end may broadcast a cancel
        #: to every replica without tracking placement.
        self._cancel_requests: List[int] = []
        #: Streaming hook — a :class:`repro.api.stream.StreamHub` when a
        #: front-end wants per-request token streams, else None.  A pure
        #: observer: the simulation never reads it.
        self.stream_hub = None
        self._worker_procs: dict = {}
        self._procs: List = []
        #: Free lists for the transaction plane's per-message records,
        #: shared by the head and every worker of this engine (payloads
        #: travel by reference, so one host-level pool is correct).
        self.pool = TransactionPool()

    # -- rank layout (overridden by PipeInfer) --------------------------------

    def target_ranks(self) -> List[int]:
        """Ranks evaluating target-model layers, pipeline order."""
        return list(range(self.cluster.size))

    def head_rank(self) -> int:
        return 0

    def hosts_draft(self) -> bool:
        """Whether the head node holds the draft model."""
        return False

    def partition(self) -> List[Tuple[int, int]]:
        """Layer ranges per target rank (bandwidth-weighted)."""
        ranks = self.target_ranks()
        nodes = [self.cluster.nodes[r] for r in ranks]
        return partition_for(self.backend.n_target_layers, nodes)

    def layer_range_of(self, rank: int) -> Optional[Tuple[int, int]]:
        ranks = self.target_ranks()
        if rank not in ranks:
            return None
        return self.partition()[ranks.index(rank)]

    # -- spawn -------------------------------------------------------------------

    def _spawn_workers(self, kernel: SimKernel):
        """Spawn the pipeline worker processes (everything but the head)."""
        ranks = self.target_ranks()
        parts = self.partition()
        procs = []
        self._kernel = kernel
        self._worker_states = {}
        self._worker_procs = {}
        for i, rank in enumerate(ranks):
            first = i == 0
            last = i == len(ranks) - 1
            ws = self.backend.make_worker_state(rank, parts[i], first, last)
            self._worker_states[rank] = ws
            if rank == self.head_rank():
                continue  # the head drives its own stage inline
            proc = self._spawn_worker_proc(kernel, i, rank, ws)
            self._worker_procs[rank] = proc
            procs.append(proc)
        return procs

    def _spawn_worker_proc(self, kernel: SimKernel, i: int, rank: int, ws):
        """Spawn one pipeline-worker process for stage index ``i``."""
        from repro.engines.worker import pipeline_worker  # cycle avoidance

        ranks = self.target_ranks()
        upstream = ranks[i - 1] if i > 0 else self.head_rank()
        downstream = ranks[i + 1] if i + 1 < len(ranks) else None
        return kernel.spawn(
            pipeline_worker(
                net=self.net,
                rank=rank,
                upstream=upstream,
                downstream=downstream,
                head_rank=self.head_rank(),
                backend=self.backend,
                ws=ws,
                node=self.cluster.nodes[rank],
                metrics=self.metrics,
                max_fuse=self.config.max_fused_runs,
                pool=self.pool,
                injector=self.injector,
            ),
            name=f"worker-{rank}",
        )

    def respawn_worker(self, rank: int):
        """Bring a crashed worker back with a fresh process and empty KV.

        The stage's worker state is rebuilt from scratch (the crash lost the
        in-memory KV shard), the replacement process joins the liveness set
        tracked by ``run_to_completion``, and the serving head is expected
        to re-prefill every live request's verified tokens afterwards.
        """
        ranks = self.target_ranks()
        i = ranks.index(rank)
        parts = self.partition()
        first = i == 0
        last = i == len(ranks) - 1
        ws = self.backend.make_worker_state(rank, parts[i], first, last)
        self._worker_states[rank] = ws
        proc = self._spawn_worker_proc(self._kernel, i, rank, ws)
        self._worker_procs[rank] = proc
        self._procs.append(proc)
        return proc

    def spawn(self, kernel: SimKernel, job: GenerationJob):
        """Spawn head and worker processes; returns them for liveness checks."""
        procs = self._spawn_workers(kernel)
        procs.append(kernel.spawn(self._head(job), name="head"))
        self._procs = procs
        self._record_memory()
        return procs

    def spawn_serving(self, kernel: SimKernel, scheduler):
        """Spawn the workers plus a long-lived request-serving head.

        ``scheduler`` is a :class:`repro.serve.scheduler.RequestScheduler`
        feeding a stream of jobs; the pipeline stays up until every request
        completes.
        """
        procs = self._spawn_workers(kernel)
        procs.append(kernel.spawn(self._serve_head(scheduler), name="serve-head"))
        self._procs = procs
        self._record_memory()
        return procs

    def _record_memory(self) -> None:
        ranks = self.target_ranks()
        parts = self.partition()
        for rank in range(self.cluster.size):
            layer_range = None
            first = last = False
            if rank in ranks:
                i = ranks.index(rank)
                layer_range = parts[i]
                first, last = i == 0, i == len(ranks) - 1
            hosts_draft = rank == self.head_rank() and self.hosts_draft()
            self.metrics.set_node_memory(
                rank,
                self.backend.node_memory(
                    layer_range, hosts_draft, self.config.n_cells, first, last
                ),
            )

    @abstractmethod
    def _head(self, job: GenerationJob) -> Generator:
        """The head node's process (single job, shuts the pipeline down)."""

    def _generate(self, job: GenerationJob) -> Generator:
        """One request's generation loop; returns the accepted stream.

        Engines implementing this (the sequential baselines) can be driven
        by the FCFS serving head, which runs many requests back-to-back on
        one long-lived pipeline.  PipeInfer overrides ``_serve_head``
        directly with a multiplexing loop instead.
        """
        raise NotImplementedError(f"{self.name} cannot serve request streams")

    def _serve_head(self, scheduler) -> Generator:
        """The head process for serving mode (default: sequential FCFS)."""
        from repro.serve.head import sequential_serving_head  # cycle avoidance

        return sequential_serving_head(self, scheduler)

    # -- dispatch helpers -----------------------------------------------------------

    def new_run_id(self) -> int:
        self._next_run_id += 1
        return self._next_run_id

    def worker_cells_used(self) -> int:
        """Largest live cells-in-use count across the worker KV shards.

        The serving head uses this as the real occupancy signal for
        live-cell admission (``EngineConfig.admission_live_cells``).
        Per shard, ``n_used`` is O(1) for the functional :class:`KVCache`
        and an O(active sequences) interval sum for the performance-mode
        :class:`RangeKVCache`; shards whose cache does not expose a usage
        count contribute nothing.
        """
        used = 0
        for ws in getattr(self, "_worker_states", {}).values():
            n = getattr(ws.cache, "n_used", None)
            if n is not None:
                used = max(used, int(n))
        return used

    def ep(self) -> Endpoint:
        return self.net.endpoint(self.head_rank())

    def cancel_request(self, req_id: int) -> None:
        """Signal a mid-flight client disconnect for ``req_id``.

        Queues the id for the serving head's next step and wakes a parked
        head.  Safe to call for requests this engine never saw (no-op) —
        front-ends broadcast cancels cluster-wide.
        """
        self._cancel_requests.append(req_id)
        self.ep()._notify_watchers()

    def send_decode(
        self, dest: int, meta: DecodeMeta, act: Activations
    ) -> None:
        meta.nbytes = self.backend.meta_nbytes(meta.n_tokens)
        send_transaction(
            self.ep(),
            dest,
            TransactionType.DECODE,
            [(meta, meta.nbytes), (act, act.nbytes)],
        )

    def send_burst(self, dest: int, items: Sequence) -> None:
        """Send one FUSED transaction coalescing several runs' dispatches.

        ``items`` is an ordered window of :class:`FusedRun` entries and
        plain ``List[CacheOp]`` batches — the same wire shape workers
        forward between stages — so a burst of a whole dispatch round
        reaches the first stage as a single transaction: its fusion
        window sees every run at once instead of one run per head-loop
        iteration.  Meta sizes are stamped here like :meth:`send_decode`.
        """
        if not items:
            return
        nbytes = 0.0
        for item in items:
            if isinstance(item, FusedRun):
                item.meta.nbytes = self.backend.meta_nbytes(item.meta.n_tokens)
                nbytes += item.meta.nbytes + item.act.nbytes
            else:
                nbytes += CACHE_OP_NBYTES * len(item)
        fb = self.pool.acquire_fused_batch()
        fb.items.extend(items)
        fb.nbytes = nbytes
        send_transaction(
            self.ep(), dest, TransactionType.FUSED, [(fb, fb.nbytes)]
        )

    def send_cache_ops(self, dest: int, ops: Sequence[CacheOp]) -> None:
        """Send one CACHE_OP transaction carrying a batch of commands.

        The batch travels as a single piece so the receiving handler
        consumes exactly one message per transaction regardless of the
        command count.
        """
        if not ops:
            return
        batch = list(ops)
        send_transaction(
            self.ep(),
            dest,
            TransactionType.CACHE_OP,
            [(batch, CACHE_OP_NBYTES * len(batch))],
            eager=True,
        )

    def send_shutdown(self, dest: int) -> None:
        send_transaction(
            self.ep(), dest, TransactionType.SHUTDOWN, [(ShutdownMsg(), 8.0)], eager=True
        )

    def finish(self, job: GenerationJob, accepted: Sequence[int]) -> None:
        """Record results and shut the pipeline down.

        A verification batch can accept several tokens at once and overshoot
        the budget; the result is clipped so every strategy reports exactly
        ``n_generate`` tokens (making outputs directly comparable).
        """
        self.generated_tokens = list(accepted[len(job.prompt):][: job.n_generate])
        self.metrics.mark_finish(self.net.kernel.now)
        self.shutdown_pipeline()

    def shutdown_pipeline(self) -> None:
        """Relay the shutdown transaction through the worker chain."""
        ranks = self.target_ranks()
        first_downstream = (
            ranks[0] if ranks and ranks[0] != self.head_rank() else
            (ranks[1] if len(ranks) > 1 else None)
        )
        if first_downstream is not None:
            self.send_shutdown(first_downstream)


def run_engine(
    engine_factory,
    backend: Backend,
    cluster: Cluster,
    job,
    config: Optional[EngineConfig] = None,
) -> EngineReport:
    """Build a fresh simulation, run one generation, return its report.

    Args:
        engine_factory: engine class (or callable) taking
            (backend, network, config, metrics).
        backend: functional or oracle backend.
        cluster: the testbed (bound to a fresh kernel here).
        job: prompt and token budget — a single :class:`GenerationJob`
            (returns an :class:`EngineReport`, the historical behaviour),
            or a :class:`repro.serve.scheduler.Workload` of many jobs
            (returns a :class:`repro.metrics.report.ServingReport`).
        config: algorithm knobs; defaults to :class:`EngineConfig`.
    """
    if not isinstance(job, GenerationJob):
        from repro.serve.run import run_serving  # cycle avoidance

        return run_serving(engine_factory, backend, cluster, job, config)
    config = config or EngineConfig()
    kernel = SimKernel()
    network = Network(kernel, cluster)
    metrics = MetricsCollector()
    engine = engine_factory(backend, network, config, metrics)
    procs = engine.spawn(kernel, GenerationJob(tuple(job.prompt), job.n_generate))
    run_to_completion(kernel, procs)
    report = EngineReport.from_collector(
        engine.name, cluster.size, engine.generated_tokens, metrics
    )
    report.n_events = kernel.n_events
    return report
