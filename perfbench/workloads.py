"""The benchmark's four workloads.

Each workload class turns a seed into concrete inputs (prompts, arrival
times, a fault plan) in its constructor, using its own ``random.Random``;
the simulator only ever sees the generated inputs.  ``run_pass`` serves
every input once on fresh simulations through the library's public entry
points and returns a :class:`PassResult`.  ``reference`` computes what
each request must produce (a non-speculative ``IterativeEngine`` decode;
for ``chaos_edge`` also the fault-free run) and is never timed.

Why each workload exists, and which layers it stresses, is written in
``perfbench/README.md``.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import (
    ClusterConfig,
    EngineCluster,
    EngineConfig,
    FunctionalBackend,
    GenerationJob,
    IterativeEngine,
    OracleBackend,
    PipeInferEngine,
    RequestReport,
    ServingSession,
    TinyTransformer,
    TransformerConfig,
    cluster_c,
    get_pair,
    make_workload,
    run_engine,
    run_serving,
)
from repro.models.transformer import perturbed_copy
from repro.spec import DraftParams
from repro.workloads import cloud_edge_cluster, cloud_edge_fault_plan

#: Oracle model pair of the paper's Figure 4 CPU study.
PAIR_NAME = "dolphin+tinyllama"


@dataclass
class PassResult:
    """One pass over a workload's inputs.

    ``requests`` maps a request key, whose first element is the timed
    unit, to its report.  ``gen_seconds`` is the simulated time
    ``sim_tokens_per_s`` divides by (prefill excluded on ``paper_single``,
    as in the paper's generation speed); ``sim_seconds`` is the one
    goodput and the SLO request rate divide by.  ``reports`` keeps the
    library's own reports for the traced per-layer metrics.
    """

    requests: Dict[tuple, RequestReport]
    sim_seconds: float
    gen_seconds: float
    reports: list = field(default_factory=list)
    #: ``sim_max_slo_rate`` when the workload measures it directly (the
    #: open-loop ladder); otherwise derived from ``requests``.
    max_slo_rate: Optional[float] = None
    #: Printed, not reported as metrics (for example the ladder table).
    notes: List[str] = field(default_factory=list)

    def outputs(self) -> Dict[tuple, List[int]]:
        return {k: list(r.tokens) for k, r in self.requests.items()}

    @property
    def n_tokens(self) -> int:
        return sum(r.n_tokens for r in self.requests.values())


def itl(r: RequestReport) -> float:
    """A request's inter-token latency: first to last output token over
    the gaps between them (the paper's per-request ITL).  Unlike a single
    gap, this includes the hop from the prefill-sampled first token to
    the first verified one, so it is not quantized to one pipeline
    traversal."""
    return (r.finish_time - r.prefill_end) / (r.n_tokens - 1)


def meets_slo(r: RequestReport) -> bool:
    """A request meets its SLO when its TTFT and its ITL are within their
    limits (untagged limits always pass)."""
    ttft_ok = r.ttft_slo is None or r.ttft <= r.ttft_slo
    itl_ok = r.itl_slo is None or r.n_tokens < 2 or itl(r) <= r.itl_slo
    return ttft_ok and itl_ok and not r.cancelled


def _tokens(rng: random.Random, vocab: int, n: int, pool=None) -> Tuple[int, ...]:
    """``n`` prompt token ids, avoiding the reserved low id range."""
    if pool is not None:
        return tuple(rng.choice(pool) for _ in range(n))
    lo = min(100, vocab // 4)
    return tuple(rng.randrange(lo, vocab) for _ in range(n))


def _iterative(backend, cluster, job: GenerationJob) -> List[int]:
    return list(run_engine(IterativeEngine, backend, cluster, job).tokens)


class PaperSingle:
    """One request at a time on ``cluster_c(8)``: the paper's Figure 4."""

    name = "paper_single"
    n_requests = 6
    #: The paper's prompts are 128 tokens; the length varies by a few
    #: tokens per seed so that TTFT (prefill time) is not one constant.
    prompt_len = (120, 136)
    n_generate = 256
    ttft_slo = 40.0
    itl_slo = 1.0

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.pair = get_pair(PAIR_NAME)
        vocab = self.pair.target_arch.vocab
        self.jobs = [
            GenerationJob(
                prompt=_tokens(rng, vocab, rng.randint(*self.prompt_len)),
                n_generate=self.n_generate,
            )
            for _ in range(self.n_requests)
        ]
        self.cluster = cluster_c(8)

    def _backend(self) -> OracleBackend:
        return OracleBackend(self.pair, head_node=self.cluster.nodes[0])

    def run_pass(self, scope=nullcontext) -> PassResult:
        requests = {}
        reports = []
        sim = gen = 0.0
        for i, job in enumerate(self.jobs):
            collectors = []

            def factory(backend, network, config, metrics):
                collectors.append(metrics)
                return PipeInferEngine(backend, network, config, metrics)

            with scope((i,)):
                report = run_engine(factory, self._backend(), self.cluster, job)
            m = collectors[0]
            # run_engine starts the request at simulated time 0.
            requests[(i,)] = RequestReport(
                req_id=i,
                tokens=list(report.tokens),
                arrival=0.0,
                admitted_at=0.0,
                prefill_end=m.prefill_end,
                finish_time=m.finish_time,
                itl_samples=m.itl_samples(),
                stats=m.stats,
                prompt_tokens=len(job.prompt),
                ttft_slo=self.ttft_slo,
                itl_slo=self.itl_slo,
            )
            reports.append(report)
            sim += m.finish_time
            gen += m.finish_time - m.prefill_end
        return PassResult(requests, sim_seconds=sim, gen_seconds=gen, reports=reports)

    def reference(self) -> Dict[tuple, List[int]]:
        return {
            (i,): _iterative(self._backend(), self.cluster, job)
            for i, job in enumerate(self.jobs)
        }


#: Tiny real-math model shared by target and (perturbed) draft.
MODEL_CFG = TransformerConfig(
    vocab=128, d_model=32, n_layers=4, n_heads=4, n_kv_heads=2, d_ff=64, seed=7
)

#: Functional-mode engine knobs: the cutoff admits the tiny model's flat
#: confidences, and 24 sequence partitions let a closed batch hold
#: canonical plus speculative partitions for many requests at once.
FUNCTIONAL_CFG = EngineConfig(
    draft=DraftParams(max_tokens=4, cutoff=0.02),
    cutoff_recovery=0.01,
    cutoff_decay=0.01,
    n_seq_partitions=24,
)


class FunctionalBatch:
    """Closed batches of unshared prompts on real-math models."""

    name = "functional_batch"
    #: Independent batches, each one timed unit; together they give the
    #: latency percentiles about 200 requests.
    n_batches = 4
    n_requests = 50
    n_generate = 48
    #: Concurrent requests: later prompts queue behind earlier ones, so
    #: their TTFT includes the (acceptance-dependent) service of others.
    max_active = 4
    #: Prompt kinds: (length range, token pool size or None for the whole
    #: vocabulary).  A small pool makes a repetitive, code-like prompt.
    kinds = (
        ((16, 32), None),
        ((48, 64), None),
        ((32, 48), 8),
    )
    #: Limits above this workload's normal latencies (one pipeline
    #: traversal is 1.2 ms here): they flag stalls, not ordinary queueing.
    ttft_slo = 0.3
    itl_slo = 0.0013
    #: Draft = target plus Gaussian weight noise of this scale.
    draft_noise = 0.08
    n_cells = 4096

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        vocab = MODEL_CFG.vocab
        self.batches: List[List[GenerationJob]] = []
        for _ in range(self.n_batches):
            jobs = []
            for i in range(self.n_requests):
                (lo, hi), pool_size = self.kinds[i % len(self.kinds)]
                pool = None
                if pool_size is not None:
                    pool = [rng.randrange(vocab // 4, vocab) for _ in range(pool_size)]
                jobs.append(
                    GenerationJob(
                        prompt=_tokens(rng, vocab, rng.randint(lo, hi), pool),
                        n_generate=self.n_generate,
                    )
                )
            self.batches.append(jobs)
        self.workloads = [
            make_workload(
                jobs,
                max_active=self.max_active,
                ttft_slos=[self.ttft_slo] * len(jobs),
                itl_slos=[self.itl_slo] * len(jobs),
            )
            for jobs in self.batches
        ]
        self.target = TinyTransformer(MODEL_CFG)
        self.draft = perturbed_copy(self.target, noise=self.draft_noise, seed=9)
        self.cluster = cluster_c(4)

    def _backend(self) -> FunctionalBackend:
        return FunctionalBackend(self.target, self.draft, n_cells=self.n_cells)

    def run_pass(self, scope=nullcontext) -> PassResult:
        requests = {}
        reports = []
        span = 0.0
        for b, workload in enumerate(self.workloads):
            with scope((b,)):
                report = run_serving(
                    PipeInferEngine, self._backend(), self.cluster, workload,
                    FUNCTIONAL_CFG,
                )
            requests.update(((b, r.req_id), r) for r in report.requests)
            reports.append(report)
            span += report.makespan
        return PassResult(requests, sim_seconds=span, gen_seconds=span, reports=reports)

    def reference(self) -> Dict[tuple, List[int]]:
        return {
            (b, i): _iterative(self._backend(), self.cluster, job)
            for b, jobs in enumerate(self.batches)
            for i, job in enumerate(jobs)
        }


class OpenLoopCluster:
    """Multi-turn sessions arriving open-loop at a ladder of rates, served
    by four prefix-affinity-routed replicas through ``ServingSession``."""

    name = "open_loop_cluster"
    n_replicas = 4
    n_sessions = 68
    n_turns = 3
    system_len = 96
    #: Per-session opener and per-turn addition lengths, and per-request
    #: output lengths, vary with the seed so that latencies are not a few
    #: repeated constants.
    opener_len = (12, 20)
    turn_len = (4, 12)
    n_generate = (12, 24)
    turn_gap = 40.0
    #: Session starts per simulated second, one serving run per rung.
    ladder = (0.02, 0.04, 0.08, 0.16)
    #: The rung whose requests give the TTFT/ITL/goodput metrics: the
    #: lowest, where queueing does not yet depend on the seed.
    reference_rung = 0
    ttft_slo = 30.0
    itl_slo = 1.5
    queue_cap = 6
    #: Per-replica concurrency cap: the top rung queues at the scheduler,
    #: and the lower rungs, which the cap barely touches, pass clearly.
    max_active = 4

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.pair = get_pair(PAIR_NAME)
        vocab = self.pair.target_arch.vocab
        system = _tokens(rng, vocab, self.system_len)
        # Session-major jobs: each turn extends the session's previous
        # turn, and every session starts with the shared system prompt.
        self.sessions: List[List[GenerationJob]] = []
        for _ in range(self.n_sessions):
            prompt = system + _tokens(rng, vocab, rng.randint(*self.opener_len))
            turns = []
            for _ in range(self.n_turns):
                turns.append(
                    GenerationJob(prompt=prompt, n_generate=rng.randint(*self.n_generate))
                )
                prompt = prompt + _tokens(rng, vocab, rng.randint(*self.turn_len))
            self.sessions.append(turns)
        # Jittered-grid session starts: open-loop at each rung's rate with
        # the same relative offsets, so rungs differ only in the rate.
        self.offsets = [s + rng.random() for s in range(self.n_sessions)]
        self.config = EngineConfig(n_seq_partitions=24, prefix_cache=True)
        self.cluster_config = ClusterConfig(
            n_replicas=self.n_replicas,
            routing="prefix_affinity",
            affinity="session",
            queue_cap=self.queue_cap,
        )
        self.head_node = cluster_c(4).nodes[0]

    def arrivals(self, rate: float):
        """``(arrival, session, turn)`` in arrival order for one rung."""
        out = [
            (self.offsets[s] / rate + t * self.turn_gap, s, t)
            for s in range(self.n_sessions)
            for t in range(self.n_turns)
        ]
        out.sort()
        return out

    def _backend(self) -> OracleBackend:
        return OracleBackend(self.pair, head_node=self.head_node)

    def serve_rung(self, rate: float):
        """Serve one rung; returns ``(ClusterReport, streamed outputs,
        req_id -> (session, turn))``."""
        cluster = EngineCluster(
            PipeInferEngine,
            self._backend,
            lambda: cluster_c(4),
            cluster_config=self.cluster_config,
            config=self.config,
        )
        session = ServingSession(cluster, max_active=self.max_active)
        keys = {}
        for t, s, turn in self.arrivals(rate):
            session.advance_until(t)
            # Simulated arrivals are never late: the generator advances
            # the co-simulation exactly to each due time before submitting.
            assert session.now() <= t, f"arrival at {t} submitted late"
            stream = session.submit(
                self.sessions[s][turn],
                arrival=t,
                ttft_slo=self.ttft_slo,
                itl_slo=self.itl_slo,
                session=s,
            )
            keys[stream.req_id] = (s, turn)
        report = session.report()
        return report, session.outputs(), keys

    def rung_ok(self, report) -> bool:
        """>= 90% of requests meet both limits and the backlog does not
        grow: the last quarter of arrivals waits, at the median, no longer
        than the TTFT limit."""
        reqs = sorted(report.merged.requests, key=lambda r: r.arrival)
        met = sum(1 for r in reqs if meets_slo(r))
        tail = [r.queue_wait for r in reqs[-max(1, len(reqs) // 4):]]
        tail.sort()
        return met >= 0.9 * len(reqs) and tail[len(tail) // 2] <= self.ttft_slo

    def run_pass(self, scope=nullcontext) -> PassResult:
        requests = {}
        reports = []
        notes = []
        best = 0.0
        ref_span = 0.0
        for i, rate in enumerate(self.ladder):
            with scope((i,)):
                report, streamed, keys = self.serve_rung(rate)
            reports.append(report)
            outputs = report.outputs()
            for rid, r in ((r.req_id, r) for r in report.merged.requests):
                # Streams observe the heads: they must carry the report's tokens.
                assert streamed[rid] == outputs[rid], f"stream {rid} diverged"
                requests[(i,) + keys[rid]] = r
            arrivals = [a for a, _, _ in self.arrivals(rate)]
            offered = (len(arrivals) - 1) / (arrivals[-1] - arrivals[0])
            ok = self.rung_ok(report)
            if ok:
                best = max(best, offered)
            if i == self.reference_rung:
                ref_span = report.makespan
            merged = report.merged
            notes.append(
                f"rung {rate:g} sessions/s: offered {offered:.4f} req/s, "
                f"ttft_p95 {merged.ttft_p95:.3f} s, slo_attainment "
                f"{merged.slo_attainment:.4f}, ok={ok}"
            )
        return PassResult(
            requests,
            sim_seconds=ref_span,
            gen_seconds=ref_span,
            reports=reports,
            # The lowest rung is sized to pass, so 0 means a regression.
            max_slo_rate=best,
            notes=notes,
        )

    def reference_requests(self, result: PassResult) -> Dict[tuple, RequestReport]:
        """Requests of the rung that gives the latency metrics."""
        return {
            k: r for k, r in result.requests.items() if k[0] == self.reference_rung
        }

    def queue_requests(self, result: PassResult) -> Dict[tuple, RequestReport]:
        """Requests of the top rung, the one loaded enough to queue: the
        scheduler's queue-wait metrics come from it."""
        top = len(self.ladder) - 1
        return {k: r for k, r in result.requests.items() if k[0] == top}

    def reference(self) -> Dict[tuple, List[int]]:
        cluster = cluster_c(4)
        ref = {}
        for s, turns in enumerate(self.sessions):
            for t, job in enumerate(turns):
                tokens = _iterative(self._backend(), cluster, job)
                for i in range(len(self.ladder)):
                    ref[(i, s, t)] = tokens
        return ref


class ChaosEdge:
    """A cloud-edge pipeline over a lossy, jittery WAN with one crash."""

    name = "chaos_edge"
    n_cloud = 2
    n_edge = 2
    #: Independent faulty runs per pass, each one timed unit with its own
    #: fault-plan draws; their requests pool into the latency metrics.
    n_runs = 2
    n_requests = 3
    n_generate = 8
    prompt_len = (16, 20)
    arrival_gap = 0.5
    loss_rate = 0.01
    crash_rank = 2
    crash_at = 1.0
    ttft_slo = 120.0
    itl_slo = 10.0

    def __init__(self, seed: int) -> None:
        self.pair = get_pair(PAIR_NAME)
        vocab = self.pair.target_arch.vocab
        # The requests and their arrival times are one fixed set; the seed
        # draws what this workload is about, the fault plans' loss and
        # jitter draws.  (Seeded prompts and arrivals moved its latency
        # metrics by 15-40% between seeds with only a few requests.)
        fixed = random.Random(self.name)
        jobs = [
            GenerationJob(
                prompt=_tokens(fixed, vocab, fixed.randint(*self.prompt_len)),
                n_generate=self.n_generate,
            )
            for _ in range(self.n_requests)
        ]
        arrivals = [i * self.arrival_gap for i in range(self.n_requests)]
        self.jobs = jobs
        self.workload = make_workload(
            jobs,
            arrivals=arrivals,
            ttft_slos=[self.ttft_slo] * len(jobs),
            itl_slos=[self.itl_slo] * len(jobs),
        )
        rng = random.Random(seed)
        self.plans = [
            cloud_edge_fault_plan(
                seed=rng.randrange(1 << 30),
                n_cloud=self.n_cloud,
                n_edge=self.n_edge,
                loss_rate=self.loss_rate,
                crash_rank=self.crash_rank,
                crash_at=self.crash_at,
            )
            for _ in range(self.n_runs)
        ]
        self.config = EngineConfig(n_seq_partitions=24)
        self.cluster = cloud_edge_cluster(self.n_cloud, self.n_edge)

    def _serve(self, fault_plan):
        backend = OracleBackend(self.pair, head_node=self.cluster.nodes[0])
        return run_serving(
            PipeInferEngine, backend, self.cluster, self.workload, self.config,
            fault_plan=fault_plan,
        )

    def run_pass(self, scope=nullcontext) -> PassResult:
        requests = {}
        reports = []
        span = 0.0
        for k, plan in enumerate(self.plans):
            with scope((k,)):
                report = self._serve(plan)
            requests.update(((k, r.req_id), r) for r in report.requests)
            reports.append(report)
            span += report.makespan
        return PassResult(requests, sim_seconds=span, gen_seconds=span, reports=reports)

    def reference(self) -> Dict[tuple, List[int]]:
        clean = self._serve(None).outputs()
        ref = {}
        for i, job in enumerate(self.jobs):
            backend = OracleBackend(self.pair, head_node=self.cluster.nodes[0])
            tokens = _iterative(backend, self.cluster, job)
            # The fault-free run must already match the plain decode; a
            # mismatch here fails that request in every faulty run too.
            for k in range(self.n_runs):
                ref[(k, i)] = tokens if clean[i] == tokens else None
        return ref


WORKLOADS = {
    cls.name: cls for cls in (PaperSingle, FunctionalBatch, OpenLoopCluster, ChaosEdge)
}


def build(name: str, seed: int):
    """Set-up: generate one workload's inputs and models from ``seed``."""
    return WORKLOADS[name](seed)
