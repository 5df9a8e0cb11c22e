#!/usr/bin/env python
"""Hot-path microbenchmark: wall-clock speed of the functional inner loop.

Unlike the ``bench_fig*`` suite (which reports *simulated* time from the
discrete-event kernel), this benchmark times the *host* wall-clock of the
functional simulator — the Python/NumPy hot path that PR 2 vectorizes:
KV-cache metadata ops, attention-visibility masks, and the per-layer
attention kernel.  Three scenarios:

- ``metadata``:  a synthetic mix of cache ops (allocate / seq_cp /
  seq_rm / visibility queries) on a 2048-cell cache, in ops/sec;
- ``single_job``: one PipeInfer generation on a 4-node functional
  pipeline, in generated tokens per wall-second, plus its kernel events
  per generated token (under a ceiling);
- ``serving``: a steady-state closed-loop serving workload (8 requests
  queued at t=0, multiplexed through one pipeline), in generated tokens
  per wall-second — the regime where the head's cross-request draft
  batching and burst dispatch (PR 4) have material to work with;
- ``serving_prefix``: a shared-system-prompt serving workload run twice
  — prefix cache off, then on — asserting byte-identical per-request
  outputs and a >= 25% mean-TTFT cut (simulated time, so deterministic
  across hosts), and reporting the cache-on wall throughput plus the
  prefix hit-token count (PR 5's cross-request KV prefix cache);
- ``serving_faulty``: a cloud-edge serving workload under a seeded fault
  plan (WAN loss + jitter + one mid-stream worker crash), asserting the
  faulty run's outputs byte-match the fault-free run and that recovery
  actually fired (retransmits, a restart, re-prefilled tokens), and
  reporting the faulty run's wall throughput (gated like the no-fault
  paths) and its kernel events per generated token (under a ceiling);
- ``serving_cluster``: a multi-turn conversation stream served by a K=4
  ``EngineCluster`` under three routing policies (random, least-loaded,
  prefix-affinity), asserting byte-identical outputs across policies
  and that prefix-affinity beats random placement on cluster-wide
  prefix hit rate and mean TTFT (simulated time: deterministic), and
  reporting the affinity run's wall throughput as
  ``cluster_tokens_per_sec``;
- ``serving_stream``: an SLO-tagged open-loop workload served through
  the streaming front-end (``stream_serving``), asserting the streamed
  run is byte-identical to the batch path and reporting good tokens
  (within TTFT/ITL SLO) per wall-second as
  ``stream_goodput_tokens_per_sec``, with the deterministic
  ``stream_slo_attainment`` fraction floored under ``--gate``.

Results are written to ``BENCH_hotpath.json`` next to the repo root,
together with the recorded pre-PR baseline, so the perf trajectory is
tracked per PR.  Committed-record protocol (containers share noisy
hosts): re-record with ``--repeat 5`` — the full-run ``current`` section
then keeps the best run (noise is one-sided: neighbors only ever slow a
run down), while ``smoke_reference`` keeps per-metric medians so the CI
regression gate is not trigger-happy.  Run modes:

    python benchmarks/bench_hotpath.py            # full run, prints speedups
    python benchmarks/bench_hotpath.py --smoke    # tiny sizes for CI
    python benchmarks/bench_hotpath.py --update-baseline   # re-record baseline
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro import (  # noqa: E402
    ClusterConfig,
    EngineConfig,
    FunctionalBackend,
    GenerationJob,
    OracleBackend,
    PipeInferEngine,
    TinyTransformer,
    TransformerConfig,
    Workload,
    cluster_c,
    get_pair,
    run_cluster,
    run_engine,
    run_serving,
)
from repro.cluster.interconnect import Link, LinkSpec  # noqa: E402
from repro.cluster.kernel import (  # noqa: E402
    Delay,
    ReferenceSimKernel,
    SimKernel,
)
from repro.models.kv_cache import KVCache  # noqa: E402
from repro.models.transformer import perturbed_copy  # noqa: E402
from repro.util.units import Gbps, KiB  # noqa: E402
from repro.spec.draft import DraftParams  # noqa: E402
from repro.workloads import (  # noqa: E402
    MultiTurnTemplate,
    SharedPrefixTemplate,
    cloud_edge_arrivals,
    cloud_edge_cluster,
    cloud_edge_fault_plan,
    cloud_edge_prompts,
    make_prompt,
    multiturn_arrivals,
)

#: Pre-PR baseline, measured at the PR-2 parent commit (6460791) on the
#: reference container.  ``--update-baseline`` refreshes these numbers from
#: a checkout of the old code; CI compares informationally only (machines
#: differ), the gating comparison is run on one machine at PR time.
BASELINE = {
    "metadata_ops_per_sec": 7917.7,
    "single_job_tokens_per_sec": 2.454,
    "serving_tokens_per_sec": 10.014,
}

MODEL_CFG = TransformerConfig(
    vocab=128, d_model=32, n_layers=4, n_heads=4, n_kv_heads=2, d_ff=64, seed=7
)

#: Functional-mode engine defaults (the cutoff admits the tiny model's
#: flat confidences; everything else is the library default).
ENGINE_CFG = EngineConfig(
    draft=DraftParams(max_tokens=4, cutoff=0.02),
    cutoff_recovery=0.01,
    cutoff_decay=0.01,
)


def _backend(n_cells: int) -> FunctionalBackend:
    target = TinyTransformer(MODEL_CFG)
    draft = perturbed_copy(target, noise=0.15, seed=9)
    return FunctionalBackend(target, draft, n_cells=n_cells)


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


def bench_calibration() -> float:
    """Host-speed probe: a fixed NumPy + Python workload, in ops/sec.

    Containers share noisy hosts, and wall-clock throughput swings with
    neighbor load by 2x or more — far past any regression tolerance.  The
    probe's mix (small matmuls, softmax-style reductions, dict/list
    traffic) mirrors the simulator's hot path, so its slowdown tracks the
    benchmark's: ``check_against`` scales the committed reference by the
    ratio of current to recorded calibration speed, cancelling uniform
    host noise while code regressions still trip the gate.
    """
    rng = np.random.default_rng(0)
    a = rng.normal(size=(32, 32))
    b = rng.normal(size=(32, 32))
    book: dict = {}
    t0 = time.perf_counter()
    n = 0
    while n < 4000:
        c = a @ b
        c = np.exp(c - c.max(axis=1, keepdims=True))
        c /= c.sum(axis=1, keepdims=True)
        book[n % 97] = [float(c[0, 0])] * 4
        n += 1
    return n / (time.perf_counter() - t0)


def bench_kernel_events(smoke: bool):
    """Raw event throughput of the simulation core, new stack vs pre-PR.

    N sender processes broadcast bursts over links to receivers parked on
    futures — the engines' dominant event mix (same-instant FUSED-burst
    arrivals, blocking receives resumed at-now, serialized bulk tensors).
    The identical program runs on both stacks in the same process:

    - **new**: ``SimKernel`` (at-now FIFO + calendar queue) with the
      coalescing ``Link`` (one kernel event drains all same-instant
      arrivals);
    - **reference**: ``ReferenceSimKernel`` (the pre-PR single-heap kernel,
      retained verbatim) with a per-message ``call_at`` link replicating
      the pre-PR delivery discipline.

    Both stacks must produce the same simulated outcome (delivered counts
    and final simulated clock are asserted equal), so the wall-clock ratio
    isolates scheduler + delivery cost.  Because the two sides run
    back-to-back on the same host, the speedup needs no calibration; the
    absolute events/sec is additionally tracked host-calibrated in the CI
    gate like every other metric.

    The receivers consume with each stack's native discipline: the new
    stack drains its whole inbox in one generator step per wakeup (the
    ``Endpoint.recv_many`` batched hand-off — one resume per delivery
    event), while the reference replays the pre-PR per-message recv (one
    at-now kernel resume per message).

    Returns ``(events_per_sec, speedup_vs_reference, coalescing)`` where
    events/sec counts logical deliveries plus process wakeups on the new
    stack, and coalescing is the deterministic messages-per-delivery-event
    ratio of the coalesced link path.
    """
    n_senders = 2 if smoke else 4
    rounds = 150 if smoke else 1500
    burst = 12 if smoke else 16
    spec = LinkSpec("bench", latency=5e-6, bandwidth=Gbps(1))

    class PerMessageLink:
        """Pre-PR ``Link``: one ``call_at`` kernel event per message."""

        def __init__(self, kernel, spec):
            self._kernel = kernel
            self.spec = spec
            self._bulk_free_at = 0.0

        def transmit(self, nbytes, on_delivered, eager_hint=False):
            now = self._kernel.now
            spec = self.spec
            wire = nbytes / spec.bandwidth
            if eager_hint or nbytes <= spec.eager_threshold:
                arrival = now + spec.latency + wire
            else:
                start = max(now, self._bulk_free_at)
                self._bulk_free_at = start + wire
                arrival = self._bulk_free_at + spec.latency
            self._kernel.call_at(arrival, on_delivered)
            return arrival

    def run_stack(kernel, links, batched):
        state = {"delivered": 0, "wakeups": 0}

        def receiver(idx):
            inbox = []
            signal = [None]

            def on_delivered():
                inbox.append(None)
                sig = signal[0]
                if sig is not None:
                    signal[0] = None
                    sig.resolve(None)

            links[idx]._on_delivered = on_delivered
            total = rounds * burst
            got = 0
            while got < total:
                if not inbox:
                    signal[0] = kernel.future(f"rx{idx}")
                    yield signal[0]
                    state["wakeups"] += 1
                if batched:
                    # recv_many(): the coalesced drain parked the whole
                    # same-instant batch before this resume, so one
                    # generator step consumes it all — zero extra yields.
                    n = len(inbox)
                    del inbox[:]
                    got += n
                    state["delivered"] += n
                    continue
                # One recv() per message, like the pre-PR MPI layer: the
                # queue is non-empty so the future resolves immediately
                # and the yield costs exactly one at-now kernel resume.
                ready = kernel.future()
                ready.resolve(None)
                yield ready
                inbox.pop()
                got += 1
                state["delivered"] += 1

        def sender(idx):
            link = links[idx]
            for r in range(rounds):
                for i in range(burst):
                    # Mixed traffic: mostly eager control/draft messages,
                    # every 8th a bulk activation tensor that serializes.
                    nbytes = 64 * KiB if i % 8 == 7 else 1 * KiB
                    link.transmit(nbytes, link._on_delivered)
                yield Delay(1e-4)

        procs = [kernel.spawn(receiver(i), f"rx{i}") for i in range(n_senders)]
        procs.extend(
            kernel.spawn(sender(i), f"tx{i}") for i in range(n_senders)
        )
        t0 = time.perf_counter()
        kernel.run()
        wall = time.perf_counter() - t0
        assert not any(p.alive for p in procs), "kernel bench deadlocked"
        return state["delivered"], state["wakeups"], kernel.now, wall

    new_kernel = SimKernel()
    new_links = [Link(new_kernel, spec) for _ in range(n_senders)]
    delivered, wakeups, now_new, wall_new = run_stack(
        new_kernel, new_links, batched=True
    )

    ref_kernel = ReferenceSimKernel()
    ref_links = [PerMessageLink(ref_kernel, spec) for _ in range(n_senders)]
    delivered_ref, _, now_ref, wall_ref = run_stack(
        ref_kernel, ref_links, batched=False
    )

    assert delivered == delivered_ref == n_senders * rounds * burst
    assert now_new == now_ref, (
        f"stacks diverged in simulated time: {now_new} vs {now_ref}"
    )
    n_delivery_events = sum(l.n_delivery_events for l in new_links)
    coalescing = delivered / n_delivery_events
    events = delivered + wakeups
    return events / wall_new, wall_ref / wall_new, coalescing


def bench_metadata(smoke: bool) -> float:
    """Ops/sec over a synthetic cache-op mix mirroring the engines' stream."""
    n_cells = 512 if smoke else 2048
    rounds = 2 if smoke else 10
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    n_ops = 0
    for _ in range(rounds):
        cache = KVCache(n_cells)
        n_seqs = 8
        # Fill 3/4 of the cache with single-seq cells, round-robin seqs.
        fill = (n_cells * 3) // 4
        for pos in range(fill):
            cache.allocate([(pos, {int(pos) % n_seqs})])
            n_ops += 1
        # Sequence traffic: copies, visibility queries, removals.
        for i in range(fill):
            src = int(rng.integers(0, n_seqs))
            dst = int(rng.integers(0, n_seqs))
            p0 = int(rng.integers(0, fill))
            cache.seq_cp(src, dst, p0, p0 + 16)
            cache.visible_cells(src, p0)
            cache.seq_max_pos(dst)
            cache.has_entry(dst, p0)
            if i % 8 == 0:
                cache.seq_rm(dst, p0, p0 + 8)
            n_ops += 5
    return n_ops / (time.perf_counter() - t0)


def bench_single_job(smoke: bool):
    """Generated tokens per wall-second: PipeInfer on a 4-node pipeline.

    Returns ``(tokens_per_sec, events_per_token)``: the second is kernel
    events over generated tokens — deterministic, and gated by a ceiling
    so an idle poll storm in the single-job head cannot come back unseen.
    """
    n_generate = 12 if smoke else 64
    prompt_len = 16 if smoke else 96
    backend = _backend(n_cells=2048)
    prompt = make_prompt("wikitext", length=prompt_len, vocab=MODEL_CFG.vocab)
    job = GenerationJob(prompt=prompt, n_generate=n_generate)
    t0 = time.perf_counter()
    report = run_engine(PipeInferEngine, backend, cluster_c(4), job, ENGINE_CFG)
    wall = time.perf_counter() - t0
    assert len(report.tokens) == n_generate
    return n_generate / wall, report.n_events / n_generate


#: Serving-scenario engine config: partitions sized so a steady-state
#: closed-loop request population can hold canonical plus speculative
#: partitions concurrently (the drafting side shares the lookahead budget
#: across requests, so per-request depth tapers as width grows).
SERVING_CFG = ENGINE_CFG.ablated(n_seq_partitions=24)


def bench_serving(smoke: bool):
    """Generated tokens per wall-second under steady serving load.

    The workload is closed-loop (every request queued at t=0): the
    steady-state saturation regime where the head's draft scheduler has
    cross-request material — the regime PR 4 targets.  Returns
    (tokens_per_sec, max_fusion_width, max_draft_batch_width,
    resumes_per_message); the widths are asserted (> 2 fused runs per
    window, > 1 chains per draft pass) so this benchmark — including the
    CI smoke run — always exercises the batched draft plane and the
    burst-widened fusion path.  ``resumes_per_message`` is the kernel's
    process-resume count over delivered messages — deterministic, and
    gated below 0.35 (one resume per delivery *event*, not per message).
    """
    n_requests = 3 if smoke else 8
    n_generate = 8 if smoke else 24
    prompt_len = 16 if smoke else 64
    kinds = ("wikitext", "code", "explain", "paper", "roleplay")
    backend = _backend(n_cells=4096)
    jobs = tuple(
        GenerationJob(
            prompt=make_prompt(kinds[i % len(kinds)], length=prompt_len,
                               vocab=MODEL_CFG.vocab),
            n_generate=n_generate,
        )
        for i in range(n_requests)
    )
    workload = Workload(jobs=jobs)
    # Untimed warm-up pass (same protocol as profile_smoke): the timed
    # pass then measures steady state — allocator arenas and ufunc caches
    # sized to this workload — instead of whatever heap shape the
    # previously run benchmark left behind, which costs ~5% and varies.
    run_serving(PipeInferEngine, backend, cluster_c(4), workload, SERVING_CFG)
    backend = _backend(n_cells=4096)
    t0 = time.perf_counter()
    report = run_serving(PipeInferEngine, backend, cluster_c(4), workload,
                         SERVING_CFG)
    wall = time.perf_counter() - t0
    total = sum(report.token_counts().values())
    assert total == n_requests * n_generate
    max_width = max(report.fusion_width, default=0)
    assert max_width > 2, (
        f"serving load failed to widen fusion windows past 2: "
        f"{report.fusion_width}"
    )
    max_draft = max(report.draft_batch_width, default=0)
    assert max_draft > 1, (
        f"serving load produced no cross-request draft batches: "
        f"{report.draft_batch_width}"
    )
    return total / wall, max_width, max_draft, report.resumes_per_message


def bench_serving_prefix(smoke: bool):
    """Shared-prefix serving: the cross-request KV prefix cache's scenario.

    A shared-system-prompt workload (every prompt = one shared prefix
    plus a unique suffix) served closed-loop at ``max_active=2`` so
    completions interleave with admissions — donations from finished
    requests are matchable by queued ones, the cache's steady state.
    Runs the identical workload with the prefix cache off and on
    (oracle backend: prefill time scales with token count, so the
    TTFT effect is visible in *simulated* time and identical on every
    host) and asserts the acceptance bar inline: byte-identical
    per-request outputs and a >= 25% mean-TTFT reduction.  Returns
    ``(tokens_per_sec, hit_tokens, ttft_cut)`` where ``tokens_per_sec``
    is the cache-on run's generated tokens per *wall* second (the
    radix/match/donate machinery is host code on the serving hot path).
    """
    n_requests = 6 if smoke else 12
    n_generate = 8 if smoke else 16
    template = SharedPrefixTemplate(
        shared_len=48 if smoke else 96,
        unique_len=12 if smoke else 24,
        seed=5,
    )
    pair = get_pair("dolphin+tinyllama")
    cluster = cluster_c(4)
    jobs = tuple(
        GenerationJob(prompt=p, n_generate=n_generate)
        for p in template.prompts(n_requests, pair.target_arch.vocab)
    )
    workload = Workload(jobs=jobs, max_active=2)

    def run_once(prefix_on: bool):
        backend = OracleBackend(pair, head_node=cluster.nodes[0])
        cfg = EngineConfig(n_seq_partitions=24, prefix_cache=prefix_on)
        t0 = time.perf_counter()
        report = run_serving(PipeInferEngine, backend, cluster, workload, cfg)
        return report, time.perf_counter() - t0

    off, _ = run_once(False)
    on, wall = run_once(True)
    assert on.outputs() == off.outputs(), (
        "prefix cache changed served tokens — must be a pure metadata win"
    )
    assert on.prefix_hit_tokens > 0, (
        f"shared-prefix workload produced no cache hits: {on.prefix_cache_stats}"
    )
    ttft_cut = 1.0 - on.ttft_mean / off.ttft_mean
    assert ttft_cut >= 0.25, (
        f"prefix cache cut mean TTFT by only {ttft_cut:.1%} "
        f"({off.ttft_mean:.2f}s -> {on.ttft_mean:.2f}s); >= 25% required"
    )
    total = sum(on.token_counts().values())
    return total / wall, on.prefix_hit_tokens, ttft_cut


def bench_serving_faulty(smoke: bool):
    """Chaos serving: cloud-edge pipeline under WAN loss and a worker crash.

    The same request stream runs fault-free and under a seeded fault plan
    (5% loss + jitter on every WAN hop, one edge worker crashing
    mid-stream).  Correctness is asserted inline — byte-identical
    per-request outputs, and the recovery machinery must actually fire
    (retransmits, a worker restart, re-prefilled tokens) — while the
    returned throughput is the *faulty* run's generated tokens per wall
    second: the retransmit timers, health EWMA, and re-prefill path are
    host code whose cost this metric tracks.  Returns
    ``(tokens_per_sec, retransmits, reprefilled_tokens, events_per_token)``;
    the last is the faulty run's kernel events over generated tokens —
    deterministic, and gated by a ceiling so the fault plane's idle head
    cannot fall back to polling unseen.
    """
    n_requests = 3 if smoke else 4
    n_generate = 8 if smoke else 16
    prompt_len = 16 if smoke else 48
    pair = get_pair("dolphin+tinyllama")
    jobs = tuple(
        GenerationJob(prompt=p, n_generate=n_generate)
        for p in cloud_edge_prompts(
            n_requests, pair.target_arch.vocab, length=prompt_len
        )
    )
    workload = Workload(
        jobs=jobs, arrivals=cloud_edge_arrivals(n_requests, seed=3)
    )
    plan = cloud_edge_fault_plan(
        seed=11, n_cloud=2, n_edge=2, loss_rate=0.05,
        crash_rank=2, crash_at=1.0,
    )
    cfg = EngineConfig(n_seq_partitions=24)

    def run_once(fault_plan):
        backend = OracleBackend(pair, head_node=cloud_edge_cluster().nodes[0])
        t0 = time.perf_counter()
        report = run_serving(
            PipeInferEngine, backend, cloud_edge_cluster(2, 2), workload,
            cfg, fault_plan=fault_plan,
        )
        return report, time.perf_counter() - t0

    clean, _ = run_once(None)
    faulty, wall = run_once(plan)
    assert faulty.outputs() == clean.outputs(), (
        "fault recovery changed served tokens — must be transparent"
    )
    s = faulty.stats
    assert s.retransmits > 0, "fault plan produced no retransmits"
    assert s.worker_restarts >= 1, "crash plan produced no restart"
    assert s.reprefilled_tokens > 0, "restart recovery re-prefilled nothing"
    total = sum(faulty.token_counts().values())
    return (total / wall, s.retransmits, s.reprefilled_tokens,
            faulty.n_events / total)


def bench_serving_cluster(smoke: bool):
    """Multi-replica cluster serving: the router ablation's scenario.

    A multi-turn conversation stream (every session's turn N+1 prompt
    extends turn N) served by a K=4 :class:`repro.serve.EngineCluster`
    under three routing policies — random, least-loaded, and
    prefix-affinity.  Affinity routing sends a session's follow-up turns
    to the replica whose radix tree holds the previous turn's KV, so its
    cluster-wide ``prefix_hit_rate`` must beat random placement (which
    scatters turns across replicas whose caches never saw the prefix)
    and its mean TTFT must drop with it.  Both are simulated-time /
    cache-bookkeeping numbers: deterministic on any host.  Asserted
    inline here; the affinity hit rate is additionally floored in
    ``WIDTH_FLOORS`` so the record tracks it per PR.

    Returns ``(tokens_per_sec, affinity_hit, random_hit, least_hit,
    affinity_ttft, random_ttft)`` where ``tokens_per_sec`` is the
    affinity run's generated tokens per *wall* second — the router,
    lockstep co-simulation, and per-replica feeds are host code on the
    cluster hot path.
    """
    n_sessions = 4 if smoke else 8
    n_turns = 3 if smoke else 4
    n_generate = 8 if smoke else 16
    k = 4
    pair = get_pair("dolphin+tinyllama")
    template = MultiTurnTemplate(n_turns=n_turns, seed=5)
    workload = Workload(
        jobs=tuple(
            GenerationJob(prompt=p, n_generate=n_generate)
            for p in template.prompts(n_sessions, pair.target_arch.vocab)
        ),
        arrivals=multiturn_arrivals(
            n_sessions, n_turns, turn_gap=45.0, session_rate=0.5, seed=9
        ),
        sessions=template.sessions(n_sessions),
    )
    cfg = EngineConfig(n_seq_partitions=24, prefix_cache=True)

    def run_once(routing: str, affinity: str):
        clusters = [cluster_c(4) for _ in range(k)]
        backends = [OracleBackend(pair, head_node=c.nodes[0]) for c in clusters]
        t0 = time.perf_counter()
        report = run_cluster(
            PipeInferEngine, backends, clusters, workload,
            cluster_config=ClusterConfig(
                n_replicas=k, routing=routing, affinity=affinity
            ),
            config=cfg,
        )
        return report, time.perf_counter() - t0

    rand, _ = run_once("random", "none")
    least, _ = run_once("least_loaded", "none")
    aff, wall = run_once("prefix_affinity", "session")
    assert aff.outputs() == rand.outputs() == least.outputs(), (
        "routing policy changed served tokens — placement must be "
        "timing-only"
    )
    assert aff.prefix_hit_rate > rand.prefix_hit_rate, (
        f"prefix-affinity routing must beat random placement on cluster "
        f"hit rate: {aff.prefix_hit_rate:.3f} vs {rand.prefix_hit_rate:.3f}"
    )
    assert aff.ttft_mean < rand.ttft_mean, (
        f"prefix-affinity routing must beat random placement on mean "
        f"TTFT: {aff.ttft_mean:.2f}s vs {rand.ttft_mean:.2f}s"
    )
    total = sum(aff.token_counts().values())
    return (
        total / wall,
        aff.prefix_hit_rate,
        rand.prefix_hit_rate,
        least.prefix_hit_rate,
        aff.ttft_mean,
        rand.ttft_mean,
    )


def bench_serving_stream(smoke: bool):
    """Streaming front-end overhead + goodput (PR 9's token streams).

    Runs an SLO-tagged open-loop workload through ``stream_serving`` —
    the batch serving path with a :class:`repro.api.StreamHub` observing
    every acceptance — and asserts the streamed run is *byte-identical*
    to a plain ``run_serving`` of the same workload (same outputs, same
    goodput: streams observe, they never steer).  Reports the wall-clock
    rate of *good* tokens (delivered within their TTFT/ITL SLO) as
    ``stream_goodput_tokens_per_sec``: the streaming layer's bookkeeping
    (per-token pushes, budget clipping, hub version bumps) sits on the
    verification hot path, so its overhead lands directly in this
    number.  ``stream_slo_attainment`` is the deterministic good-token
    fraction (simulated time, identical on any host) and is floored in
    ``WIDTH_FLOORS`` so an SLO-accounting or scheduler regression fails
    the gate rather than drifting silently.
    """
    from repro.api import stream_serving
    from repro.serve.run import make_workload
    from repro.workloads import poisson_arrivals

    n_requests = 4 if smoke else 8
    n_generate = 8 if smoke else 16
    pair = get_pair("dolphin+tinyllama")
    jobs = [
        GenerationJob(
            prompt=make_prompt(
                "wikitext", length=32 + 8 * i, vocab=pair.target_arch.vocab
            ),
            n_generate=n_generate,
        )
        for i in range(n_requests)
    ]
    workload = make_workload(
        jobs,
        arrivals=poisson_arrivals(0.4, n_requests, seed=7),
        ttft_slos=[60.0] * n_requests,
        itl_slos=[2.5] * n_requests,
    )

    def parts():
        cluster = cluster_c(4)
        return OracleBackend(pair, head_node=cluster.nodes[0]), cluster

    backend, cluster = parts()
    batch = run_serving(PipeInferEngine, backend, cluster, workload)
    backend, cluster = parts()
    t0 = time.perf_counter()
    report, hub = stream_serving(PipeInferEngine, backend, cluster, workload)
    wall = time.perf_counter() - t0
    assert hub.outputs() == batch.outputs() == report.outputs(), (
        "streamed tokens diverged from the batch serving path — streams "
        "must be pure observers"
    )
    assert report.goodput == batch.goodput and (
        report.slo_attainment == batch.slo_attainment
    ), "attaching streams changed SLO accounting"
    good_tokens = sum(r.good_tokens for r in report.requests)
    assert 0.0 < report.slo_attainment <= 1.0
    return good_tokens / wall, report.slo_attainment


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


#: Metrics compared by ``--check-against`` (higher is better).  A tracked
#: metric missing from either side of the comparison is an *error*, never
#: a silent skip — a renamed metric must not dodge the regression gate.
#: ``serving_faulty_tokens_per_sec`` was promoted from a non-gating
#: warning once PR 7's record was committed: recovery wall cost is now
#: held to the same >25% gate as the no-fault path.
TRACKED_METRICS = (
    "kernel_events_per_sec",
    "metadata_ops_per_sec",
    "single_job_tokens_per_sec",
    "serving_tokens_per_sec",
    "serving_prefix_tokens_per_sec",
    "serving_faulty_tokens_per_sec",
    "cluster_tokens_per_sec",
    "stream_goodput_tokens_per_sec",
)

#: Deterministic count metrics compared *without* host-speed scaling
#: (they come from simulated time / cache bookkeeping, identical on any
#: host): missing always errors, and under ``--gate`` a value below the
#: committed record fails — fewer cache hits is a behavior regression,
#: not noise.
TRACKED_COUNTS = ("serving_prefix_hit_tokens",)

#: Relative drop that triggers a regression warning (informational runs).
REGRESSION_TOLERANCE = 0.20

#: Relative drop that fails the run under ``--gate`` (the CI bench job).
GATE_TOLERANCE = 0.25

#: Structural floors the gate enforces on the current results: the
#: serving scenario must exercise multi-run fusion wider than 2 and
#: cross-request draft batches wider than 1 (value must *exceed* floor).
#: Keys are namespaced per scale — smoke thresholds differ where the
#: tiny workload amortizes fixed costs over fewer events (the kernel
#: bench's 150-round smoke run pays its setup over 1/10th the messages,
#: so its honest speedup is lower than the full run's).
WIDTH_FLOORS = {
    "serving_max_fusion_width": 2,
    "smoke_serving_max_fusion_width": 2,
    "serving_max_draft_batch_width": 1,
    "smoke_serving_max_draft_batch_width": 1,
    # The shared-prefix scenario must actually hit the prefix cache.
    "serving_prefix_hit_tokens": 0,
    "smoke_serving_prefix_hit_tokens": 0,
    # The new event stack must beat the retained pre-PR stack on the same
    # host in the same process (no calibration involved), and the
    # coalesced link path must actually batch same-instant arrivals.
    # PR 8's batched inbox hand-off raised the honest full-run speedup
    # floor from 1.2 (PR 6's scheduler-only win) to 3.0.
    "kernel_events_speedup_vs_reference": 3.0,
    "smoke_kernel_events_speedup_vs_reference": 1.4,
    "kernel_event_coalescing": 4,
    "smoke_kernel_event_coalescing": 4,
    # Prefix-affinity routing's cluster-wide hit rate must stay above
    # what random placement measures on the same stream (0.431 full,
    # 0.354 smoke) — deterministic simulated-time bookkeeping, so the
    # floor sits well above random and below the measured affinity
    # rates (0.667 full, 0.583 smoke).
    "cluster_affinity_hit_rate": 0.5,
    "smoke_cluster_affinity_hit_rate": 0.45,
    # The streaming scenario's SLO attainment is deterministic
    # (simulated-time TTFT/ITL against fixed SLO tags); the floors sit
    # just below the measured values (see bench_serving_stream) so an
    # SLO-accounting or admission regression trips the gate.
    # Measured 0.953 full / 0.875 smoke.
    "stream_slo_attainment": 0.9,
    "smoke_stream_slo_attainment": 0.8,
}

#: Deterministic ceilings the gate enforces (value must stay *below*):
#: the batched inbox hand-off plus the flattened resume path must keep
#: process resumes per delivered message under 0.35 in the serving
#: scenario (one resume per delivery event, ~1.0 per message pre-PR-8).
#: The ratio derives from kernel counters over a deterministic simulated
#: run — no host scaling applies.  The smoke scenario's ceiling is
#: looser: per-process spawn and shutdown resumes amortize over ~10x
#: fewer delivered messages (measured 0.41 vs the full run's 0.27).
#:
#: Kernel events per generated token cap the idle heads: a head that
#: polls on a timer instead of parking on arrivals pays thousands of
#: events per token (the faulty scenario measured 59,366 full / 46,022
#: smoke while its idle head polled the health monitor every 0.2 ms).
#: Parked, they measure 68.25 / 23.92 (single job) and 28.06 / 26.96
#: (faulty serving); the ceilings leave ~10% for honest schedule changes.
CEILINGS = {
    "serving_resumes_per_message": 0.35,
    "smoke_serving_resumes_per_message": 0.5,
    "single_job_events_per_token": 75.0,
    "smoke_single_job_events_per_token": 27.0,
    "serving_faulty_events_per_token": 31.0,
    "smoke_serving_faulty_events_per_token": 30.0,
}


def run(smoke: bool) -> dict:
    results = {}
    results["calibration_ops_per_sec"] = bench_calibration()
    events, kernel_speedup, coalescing = bench_kernel_events(smoke)
    results["kernel_events_per_sec"] = events
    results["kernel_events_speedup_vs_reference"] = kernel_speedup
    results["kernel_event_coalescing"] = coalescing
    results["metadata_ops_per_sec"] = bench_metadata(smoke)
    single, single_events = bench_single_job(smoke)
    results["single_job_tokens_per_sec"] = single
    results["single_job_events_per_token"] = single_events
    serving, max_width, max_draft, resumes_per_msg = bench_serving(smoke)
    results["serving_tokens_per_sec"] = serving
    results["serving_max_fusion_width"] = max_width
    results["serving_max_draft_batch_width"] = max_draft
    results["serving_resumes_per_message"] = resumes_per_msg
    prefix, hit_tokens, ttft_cut = bench_serving_prefix(smoke)
    results["serving_prefix_tokens_per_sec"] = prefix
    results["serving_prefix_hit_tokens"] = hit_tokens
    results["serving_prefix_ttft_cut"] = ttft_cut
    faulty, retx, reprefilled, faulty_events = bench_serving_faulty(smoke)
    results["serving_faulty_tokens_per_sec"] = faulty
    results["serving_faulty_retransmits"] = retx
    results["serving_faulty_reprefilled_tokens"] = reprefilled
    results["serving_faulty_events_per_token"] = faulty_events
    (cluster, aff_hit, rand_hit, least_hit,
     aff_ttft, rand_ttft) = bench_serving_cluster(smoke)
    results["cluster_tokens_per_sec"] = cluster
    results["cluster_affinity_hit_rate"] = aff_hit
    results["cluster_random_hit_rate"] = rand_hit
    results["cluster_least_loaded_hit_rate"] = least_hit
    results["cluster_affinity_ttft_mean"] = aff_ttft
    results["cluster_random_ttft_mean"] = rand_ttft
    goodput, attainment = bench_serving_stream(smoke)
    results["stream_goodput_tokens_per_sec"] = goodput
    results["stream_slo_attainment"] = attainment
    return results


def run_repeated(smoke: bool, repeat: int) -> dict:
    """``repeat`` samples reduced per the committed-record protocol.

    Full runs keep the per-metric best: noisy-neighbor interference only
    ever slows a run down, so for every rate/speedup the fastest sample
    is the closest to the machine's true speed — and each metric is its
    own back-to-back measurement, so taking the max per metric (rather
    than one whole "best" sample) stops one bench's noise from polluting
    another's record.  Deterministic counts (widths, coalescing, resume
    ratio, hit tokens) are identical across samples, so max is a no-op
    for them.  Smoke runs keep per-metric medians — the reference the CI
    warning compares against should be a typical run, not a lucky one.
    """
    samples = [run(smoke) for _ in range(repeat)]
    if len(samples) == 1:
        return samples[0]
    if not smoke:
        return {key: max(s[key] for s in samples) for key in samples[0]}
    import statistics

    return {
        key: (max(s[key] for s in samples) if key in WIDTH_FLOORS
              else statistics.median(s[key] for s in samples))
        for key in samples[0]
    }


def namespaced(results: dict, smoke: bool) -> dict:
    """Prefix smoke metrics with ``smoke_`` so a smoke number and a
    full-run number can never collide under one key.

    Smoke and full runs use different workload sizes, so their absolute
    values are incomparable; namespacing at record time means a
    ``--check-against`` lookup across scales finds *no* key at all and
    fails loudly (missing tracked metric) instead of quietly comparing
    apples to oranges.
    """
    if not smoke:
        return results
    return {f"smoke_{key}": value for key, value in results.items()}


def _print_profile_regressions(record_path: str) -> None:
    """Function-level triage for a metric regression.

    Profiles the serving smoke workload fresh, compares it against the
    committed ``profile_smoke.json`` next to the bench record, and prints
    the five functions whose share of cumulative time grew the most —
    pointing at *where* the regression lives instead of just that one
    exists.
    """
    committed = Path(record_path).resolve().parent / "profile_smoke.json"
    if not committed.exists():
        print("bench-smoke: no committed profile_smoke.json next to the "
              "record; skipping function-level triage")
        return
    try:
        import profile_smoke

        entries = profile_smoke.profile_entries(smoke=True)
    except Exception as exc:  # profiling must never mask the real failure
        print(f"bench-smoke: function-level triage unavailable ({exc!r})")
        return
    base = {
        e["func"]: e
        for e in json.loads(committed.read_text()).get("entries", [])
    }
    deltas = []
    for entry in entries:
        recorded = base.get(entry["func"])
        if recorded is None:
            continue
        deltas.append((entry["pct"] - recorded["pct"], entry, recorded))
    if not deltas:
        print("bench-smoke: committed profile shares no functions with the "
              "current one; skipping function-level triage")
        return
    deltas.sort(key=lambda d: d[0], reverse=True)
    print("top regressed functions (% of cumulative serving-smoke time, "
          "recorded -> current):")
    for delta, entry, recorded in deltas[:5]:
        print(f"  {entry['func']}: {recorded['pct']:.1f}% -> "
              f"{entry['pct']:.1f}% ({delta:+.1f} pts)")


def _write_step_summary(rows) -> None:
    """Append the delta table to the GitHub step summary, when present."""
    import os

    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    lines = [
        "### bench smoke deltas",
        "",
        "| metric | recorded | host-adjusted | current | ratio | status |",
        "|---|---:|---:|---:|---:|---|",
    ]
    for key, base, adjusted, cur, ratio, status in rows:
        base_s = f"{base:.1f}" if base is not None else "—"
        adj_s = f"{adjusted:.1f}" if adjusted is not None else "—"
        cur_s = f"{cur:.1f}" if cur is not None else "—"
        ratio_s = f"{ratio:.2f}x" if ratio is not None else "—"
        lines.append(
            f"| `{key}` | {base_s} | {adj_s} | {cur_s} | {ratio_s} | {status} |"
        )
    with open(path, "a") as fh:
        fh.write("\n".join(lines) + "\n")


def check_against(current: dict, path: str, smoke: bool, gate: bool = False) -> int:
    """Compare against a committed record; gate or warn on regression.

    Smoke runs compare against the committed record's ``smoke_reference``
    section (same tiny sizes, ``smoke_``-prefixed keys); full runs
    compare against its ``current``.  Without ``--gate`` a >20% drop
    emits a GitHub-Actions ``::warning::`` annotation; under ``--gate``
    (the CI bench job) a >25% drop on any tracked metric is an
    ``::error`` that fails the run, and the structural floors (fusion /
    draft-batch widths, kernel speedup) and ceilings (resumes per
    delivered message, kernel events per generated token) are enforced
    too.

    A tracked metric missing from the committed record *or* from the
    current results always fails — comparing only metrics present in both
    would let a renamed metric silently dodge the gate.  Because keys are
    namespaced per scale, pointing a smoke run at a full-run section (or
    vice versa) is exactly such a hard failure, never a cross-scale
    comparison.  When any tracked metric regresses, the committed
    ``profile_smoke.json`` is compared against a fresh profile and the
    top regressed functions are printed for triage, and the full delta
    table goes to the GitHub step summary when running in Actions.
    """
    doc = json.loads(Path(path).read_text())
    section = "smoke_reference" if smoke else "current"
    pfx = "smoke_" if smoke else ""
    ref = doc.get(section)
    tol = GATE_TOLERANCE if gate else REGRESSION_TOLERANCE
    sev = "error" if gate else "warning"
    if not ref:
        print(f"::error::bench-smoke: no {section!r} section in {path}; "
              "nothing to compare against")
        return 1
    # Host-speed normalization: scale the committed reference by the
    # calibration ratio so a uniformly slow (or fast) machine moves the
    # bar with it; only a *relative* slowdown of the simulator is a
    # regression.  Falls back to raw comparison for old records.
    cal_key = pfx + "calibration_ops_per_sec"
    scale = 1.0
    if ref.get(cal_key) and current.get(cal_key):
        scale = current[cal_key] / ref[cal_key]
        print(f"host calibration: {scale:.2f}x of the recorded reference host")
    n_bad = 0
    n_missing = 0
    n_compared = 0
    regressed = False
    summary_rows = []
    for name in TRACKED_METRICS:
        key = pfx + name
        base, cur = ref.get(key), current.get(key)
        if not base or not cur:
            n_bad += 1
            n_missing += 1
            summary_rows.append((key, base, None, cur, None, "missing ❌"))
            print(f"::error::bench-smoke: tracked metric {key} missing from "
                  f"{'the committed record' if not base else 'current results'}"
                  " — a renamed metric cannot dodge the regression gate")
            continue
        n_compared += 1
        adjusted = base * scale
        ratio = cur / adjusted
        if cur < (1.0 - tol) * adjusted:
            n_bad += 1
            regressed = True
            summary_rows.append((key, base, adjusted, cur, ratio, "regressed ❌"))
            print(f"::{sev}::bench-smoke: {key} regressed to {cur:.1f} "
                  f"from host-adjusted reference {adjusted:.1f} "
                  f"({ratio:.2f}x, tolerance {1 - tol:.2f}x)")
        else:
            summary_rows.append((key, base, adjusted, cur, ratio, "ok ✅"))
    for name in TRACKED_COUNTS:
        key = pfx + name
        base, cur = ref.get(key), current.get(key)
        if base is None or cur is None:
            n_bad += 1
            n_missing += 1
            summary_rows.append((key, base, None, cur, None, "missing ❌"))
            print(f"::error::bench-smoke: tracked count {key} missing from "
                  f"{'the committed record' if base is None else 'current results'}"
                  " — a renamed metric cannot dodge the regression gate")
            continue
        n_compared += 1
        # Deterministic counts: no host scaling, no tolerance.
        ratio = cur / base if base else None
        if cur < base:
            n_bad += 1
            regressed = True
            summary_rows.append((key, base, base, cur, ratio, "dropped ❌"))
            print(f"::{sev}::bench-smoke: {key} dropped to {cur} from the "
                  f"committed {base} — a behavior regression, not host noise")
        else:
            summary_rows.append((key, base, base, cur, ratio, "ok ✅"))
    if gate:
        # Floors/ceilings are keyed per scale: apply only the entries
        # whose namespace matches this run.
        for key, floor in WIDTH_FLOORS.items():
            if key.startswith("smoke_") != smoke:
                continue
            cur = current.get(key)
            if cur is None or cur <= floor:
                n_bad += 1
                print(f"::error::bench-smoke: {key}={cur} must exceed {floor} "
                      "under the serving workload")
        for key, ceiling in CEILINGS.items():
            if key.startswith("smoke_") != smoke:
                continue
            cur = current.get(key)
            if cur is None or cur >= ceiling:
                n_bad += 1
                print(f"::error::bench-smoke: {key}={cur} must stay below "
                      f"{ceiling} — a deterministic work counter grew "
                      "(resumes per delivery event, or events per token)")
    _write_step_summary(summary_rows)
    if regressed:
        _print_profile_regressions(path)
    if not n_bad:
        print(f"check-against {path}: all {n_compared} tracked "
              "metrics within tolerance"
              + (" and structural floors/ceilings met" if gate else ""))
        return 0
    # Missing tracked metrics fail even informational runs; plain
    # regressions fail only under --gate.
    return 1 if gate or n_missing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for CI; skips speedup checks")
    parser.add_argument("--update-baseline", action="store_true",
                        help="print results formatted as the BASELINE dict")
    parser.add_argument("--check-against", default=None, metavar="JSON",
                        help="compare results against a committed record "
                             "(e.g. BENCH_hotpath.json): ::warning:: lines on "
                             ">20%% regression, or hard failures under --gate")
    parser.add_argument("--gate", action="store_true",
                        help="gating mode for --check-against: fail (exit 1) "
                             "on >25%% regression of any tracked metric, on a "
                             "missing tracked metric, or on unmet serving "
                             "width floors (fusion > 2, draft batch > 1)")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="samples per scenario: full runs keep the best, "
                             "smoke runs the per-metric median (use 5 when "
                             "re-recording the committed JSON)")
    parser.add_argument("--out", default=None,
                        help="output JSON path (default: BENCH_hotpath.json, "
                             "or BENCH_hotpath_smoke.json under --smoke so "
                             "the committed full-run record is never "
                             "clobbered by a smoke run)")
    args = parser.parse_args(argv)
    if args.out is None:
        name = "BENCH_hotpath_smoke.json" if args.smoke else "BENCH_hotpath.json"
        args.out = str(REPO_ROOT / name)

    current = namespaced(run_repeated(args.smoke, max(args.repeat, 1)),
                         args.smoke)

    if args.update_baseline:
        print(json.dumps(current, indent=2))
        return 0

    # Smoke sizes differ from the recorded baseline's: no speedup claims.
    speedup = {}
    if not args.smoke:
        for key, base in BASELINE.items():
            if base and current.get(key):
                speedup[key.replace("_per_sec", "_speedup")] = current[key] / base

    payload = {
        "smoke": args.smoke,
        "baseline": BASELINE,
        "current": current,
        "speedup": speedup,
    }
    if not args.smoke:
        # Record the smoke-scale numbers too (namespaced ``smoke_*``):
        # the CI bench-smoke job compares its like-for-like run against
        # this section and can never read a full-run key from it.
        payload["smoke_reference"] = namespaced(
            run_repeated(smoke=True, repeat=max(args.repeat, 1)), smoke=True
        )

    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")

    width = max(len(k) for k in current)
    for key in current:
        base = BASELINE.get(key)
        line = f"{key:<{width}}  current={current[key]:>12.1f}"
        if base and not args.smoke:
            line += f"  baseline={base:>12.1f}  speedup={current[key] / base:.2f}x"
        print(line)
    print(f"wrote {args.out}")
    if args.check_against:
        return check_against(current, args.check_against, args.smoke,
                             gate=args.gate)
    return 0


if __name__ == "__main__":
    sys.exit(main())
