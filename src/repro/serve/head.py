"""Serving-head processes: request streams through one long-lived pipeline.

Two head loops implement serving:

- :func:`pipeinfer_serving_head` — the PipeInfer head generalized from
  one job to many: it multiplexes canonical and speculative runs of every
  *active* request through the pipeline, filling bubbles left by one
  request's cancelled or exhausted speculation with another request's
  work (the composition PipeSpec observes falls out of asynchronous
  speculation naturally).  Per-request state lives in
  :class:`~repro.core.run_state.RequestContext`; KV sequence slots are
  partitioned across requests by a shared
  :class:`~repro.util.fifo.SequencePool` — each request owns a canonical
  partition for its lifetime and returns it (plus any speculative
  partitions) on completion.  With ``EngineConfig.prefix_cache`` on, the
  pool additionally backs a cross-request prefix cache
  (:mod:`repro.cache.prefix`): admissions materialize cached prompt
  prefixes by pipelined ``seq_cp``/``seq_broadcast`` transactions and
  prefill only the unmatched tail; completions donate their verified
  prompt KV back instead of releasing it.

- :func:`sequential_serving_head` — FCFS, one request at a time, for the
  synchronous baselines (iterative, speculative, single-node) whose head
  blocks on the pipeline.  The pipeline stays up between requests; KV
  state is cleared with a pipelined ``SEQ_RM`` after each one.

Both record a :class:`~repro.metrics.report.RequestReport` per request and
leave the list on ``engine.request_reports``.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Generator, List

from repro.cluster.kernel import Delay
from repro.comm.message import Tag
from repro.comm.payloads import CacheOp, CacheOpKind
from repro.core.head import (
    canonical_entry,
    dispatch_burst,
    dispatch_prefill,
    dispatch_reprefill,
    dispatch_spec_burst,
    new_request_context,
    cancel_run,
    process_prefill_logits,
    send_cancels,
    spec_allowed_serving,
    start_draft_round,
    verify_run_logits,
)
from repro.cache.prefix import PrefixCacheManager, PrefixMatch
from repro.core.multibuffer import SEQ_END, CellBudget, acquire_canonical
from repro.core.run_state import RequestContext, RunKind
from repro.engines.backend import apply_cache_op
from repro.metrics.collectors import MetricsCollector, RunStats
from repro.metrics.report import RequestReport
from repro.serve.scheduler import (
    RequestScheduler,
    post_match_cell_demand,
    spec_dispatch_headroom,
    unmaterialized_demand,
)
from repro.util.fifo import SequencePool


def _report_for(ctx: RequestContext) -> RequestReport:
    """Freeze a completed context into its report."""
    m = ctx.metrics
    finish = m.finish_time if m.finish_time is not None else ctx.finished_at
    return RequestReport(
        req_id=ctx.req_id,
        tokens=ctx.output_tokens(),
        arrival=ctx.arrival,
        admitted_at=ctx.admitted_at if ctx.admitted_at is not None else ctx.arrival,
        prefill_end=m.prefill_end if m.prefill_end is not None else ctx.arrival,
        finish_time=finish if finish is not None else ctx.arrival,
        itl_samples=m.itl_samples(),
        stats=m.stats,
        prompt_tokens=ctx.n_prompt,
        cached_tokens=ctx.cached_tokens,
        priority=ctx.priority,
        ttft_slo=ctx.ttft_slo,
        itl_slo=ctx.itl_slo,
        cancelled=ctx.cancelled,
    )


# ---------------------------------------------------------------------------
# PipeInfer: multiplexed continuous speculation across requests.
# ---------------------------------------------------------------------------


def pipeinfer_serving_head(engine, scheduler: RequestScheduler) -> Generator:
    """Head process serving a request stream with asynchronous speculation.

    The single-job loop's four priorities (sample waiting logits, keep the
    tip covered, speculate, idle) generalize per iteration to: admit
    arrived requests, sample the oldest waiting logits (the global
    dispatch FIFO identifies the owning request), dispatch canonical runs
    for every request whose tip is uncovered, then run a *batched draft
    round*: all requests that may speculate draft together (their
    one-token draft decodes evaluate as one cross-request batch) and
    their speculative runs leave as one transaction burst — the draft
    scheduler keeping the pipeline's fusion windows wide in steady state.
    """
    cfg = engine.config
    ep = engine.ep()
    kernel = engine.net.kernel
    last_target = engine.target_ranks()[-1]
    first_target = engine.target_ranks()[0]

    pool = SequencePool(cfg.n_seq_partitions)
    budget = CellBudget(engine.backend.worker_cell_capacity())
    active: Dict[int, RequestContext] = {}
    #: Request ids in decode-dispatch order — MPI non-overtaking returns
    #: logits in exactly this order, so the front names the owner of any
    #: arriving logits message.
    order: Deque[int] = deque()
    #: Round-robin rotation for drafting fairness.
    rotation: Deque[int] = deque()
    reports: List[RequestReport] = []

    cache = (
        PrefixCacheManager(
            pool,
            cfg.prefix_cache_cells,
            cfg.min_match_tokens,
            promote_on_second_hit=cfg.prefix_promote_on_second_hit,
        )
        if cfg.prefix_cache
        else None
    )
    # Exposed so the cluster router's prefix-affinity policy can probe this
    # replica's radix tree (a pure match, no pins) at routing time.
    engine.prefix_cache = cache

    injector = engine.injector
    #: Run ids flushed by crash recovery: their logits (if a surviving
    #: downstream stage still returns them) are discarded on arrival
    #: instead of being matched against the rebuilt dispatch order.
    flushed: set = set()

    def ensure_pool_seq() -> bool:
        """A canonical partition is available, evicting cached prefixes
        if the pool ran dry — retained sequences yield to admission."""
        if pool.available():
            return True
        if cache is None:
            return False
        ok, ops = cache.ops_for_pool_seq()
        if ops:
            engine.send_cache_ops(first_target, ops)
        budget.retained = cache.retained_cells
        return ok

    def fits_with_reclaim(demand: int) -> bool:
        """Admission cell check; LRU-evicts cached prefixes to make room.

        Eviction ``seq_rm`` ops are pipelined *before* the admitted
        request's materialization and prefill transactions, so by the
        time its allocations execute on a worker the freed cells are
        really free — reclaimable means reclaimable, on both policies.
        Under the live policy the freed count is credited against the
        (stale, in-flight) ``n_used`` reading for this sweep only.

        Two guards keep the eviction honest: nothing is evicted when
        even reclaiming *every* evictable cell could not close the gap
        (the pressure comes from active requests, and wiping the tree
        would only forfeit future hits for no room gained); and a
        request that would run alone is admitted after the drain
        regardless — the surfaced-overflow escape hatch an oversized
        single job has always had — even when its own pinned match
        keeps ``budget.retained`` above zero.
        """
        freed = 0

        def ok(slack: int = 0) -> bool:
            if not cfg.admission_live_cells:
                if slack and budget.capacity is not None:
                    return (
                        budget.committed + budget.retained - slack + demand
                        <= budget.capacity
                    )
                return budget.fits(demand)
            pending = unmaterialized_demand(active.values(), cfg)
            return budget.fits_live(
                engine.worker_cells_used() + pending - freed - slack, demand
            )

        fit = ok()
        if fit or cache is None:
            return fit
        if active and not ok(slack=cache.evictable_cells()):
            return False
        while not ok():
            got, ops = cache.evict_lru_leaf()
            if not got:
                break
            freed += got
            budget.retained = cache.retained_cells
            engine.send_cache_ops(first_target, ops)
        return ok() or not active

    def admit_ready() -> None:
        # Bounded caches (functional mode) cannot evict mid-flight, so
        # admission waits for cell room.  The static budget check is O(1):
        # the committed total is maintained on admit/release rather than
        # re-summed over active requests or scanned from cache cells.
        # With the prefix cache on, the cost model charges the *post-match*
        # demand — matched positions are metadata copies, not new cells —
        # and the whole sweep's materializations coalesce per cached node
        # (one seq_broadcast per node shared by several admissions).
        admitted: List = []
        while scheduler.ready(kernel.now) and scheduler.may_admit(len(active)):
            req = scheduler.peek_ready(kernel.now)
            match = cache.match(req.job.prompt) if cache else PrefixMatch()
            if match:
                # Pin the matched path before any eviction this admission
                # itself triggers can touch it.
                cache.acquire(req.req_id, match, kernel.now)
            demand = post_match_cell_demand(req.job, cfg, match.length)
            # Cell demand first, canonical-partition second: the pool
            # check may evict a cached sequence, which must not happen
            # for an admission the cell check is about to reject anyway.
            if not (fits_with_reclaim(demand) and ensure_pool_seq()):
                if match:
                    cache.release(req.req_id)
                break
            scheduler.pop_ready(kernel.now)
            if cache is not None:
                cache.note_admitted(match)
            ctx = new_request_context(
                engine,
                req.job,
                kv=acquire_canonical(pool),
                metrics=MetricsCollector(),
                req_id=req.req_id,
                arrival=req.arrival,
            )
            ctx.admitted_at = kernel.now
            ctx.cached_tokens = match.length
            ctx.metrics.stats.cached_prompt_tokens += match.length
            ctx.priority = req.priority
            ctx.ttft_slo = req.ttft_slo
            ctx.itl_slo = req.itl_slo
            if engine.stream_hub is not None:
                ctx.stream = engine.stream_hub.attach(ctx)
            budget.admit(req.req_id, demand)
            active[ctx.req_id] = ctx
            rotation.append(ctx.req_id)
            admitted.append((ctx, match))
        if not admitted:
            return
        if cache is not None:
            ops = cache.ops_for_materialize(
                [(m, ctx.kv.canonical) for ctx, m in admitted if m]
            )
            if ops:
                engine.send_cache_ops(first_target, ops)
        for ctx, match in admitted:
            dispatch_prefill(engine, ctx, start_pos=match.length)
            order.append(ctx.req_id)

    def mark_done(ctx: RequestContext, cancels=None) -> None:
        """Token budget met: stop sampling, flush in-flight speculation."""
        ctx.done = True
        ctx.metrics.mark_finish(kernel.now)
        if ctx.stream is not None:
            # No-op when the stream was already cancel-closed.
            ctx.stream.finish(kernel.now)
        for rec in ctx.fifo.mark_all_cancelled():
            cancel_run(engine, ctx, rec, invalid=False, cancels=cancels)

    def finalize(ctx: RequestContext) -> None:
        """All in-flight runs drained: release the request's partitions.

        With the prefix cache on, the request first *donates* its
        verified prompt KV: the uncached prompt suffix is copied into a
        retained tree sequence, ordered before the canonical partition's
        release in the same transaction batch, so the cells outlive the
        request and the next matching prompt skips their prefill.

        A cancelled request donates its whole *verified* stream instead
        (minus the newest accepted token, whose cell is not resident —
        see ``ops_for_acceptance``): a retried conversation re-submitting
        prompt + partial output skips all of its prefill.
        """
        ops = []
        if cache is not None:
            donated = ctx.job.prompt
            if ctx.cancelled and len(ctx.accepted) - 1 > len(donated):
                donated = ctx.accepted[:-1]
            ops += cache.ops_for_donate(donated, ctx.kv.canonical, kernel.now)
            cache.release(ctx.req_id)
            budget.retained = cache.retained_cells
        ops += ctx.kv.ops_for_request_release()
        engine.send_cache_ops(first_target, ops)
        ctx.kv.release_canonical()
        engine.backend.release_chain(ctx.chain)
        ctx.finished_at = kernel.now
        budget.release(ctx.req_id)
        del active[ctx.req_id]
        rotation.remove(ctx.req_id)
        reports.append(_report_for(ctx))
        scheduler.on_completed(ctx.req_id, kernel.now)

    def process_cancels() -> None:
        """Drain the engine's disconnect inbox (mid-flight cancellation).

        Active requests flip to ``done`` draining mode: every in-flight
        speculative run gets a cancel signal, sampling stops, and the
        request finalizes (KV release + verified-prefix donation) once
        its FIFO empties — exactly the completion path, so cancellation
        can never strand a partition or park the head.  Queued requests
        are removed before admission and reported with zero tokens.
        Unknown ids are ignored (cluster front-ends broadcast cancels to
        every replica without tracking placement).
        """
        if not engine._cancel_requests:
            return
        rids, engine._cancel_requests = engine._cancel_requests, []
        cancels: List = []
        for rid in rids:
            ctx = active.get(rid)
            if ctx is not None:
                if ctx.done:
                    continue
                ctx.cancelled = True
                if ctx.stream is not None:
                    ctx.stream.cancel(kernel.now)
                mark_done(ctx, cancels)
                if not ctx.fifo:
                    finalize(ctx)
                continue
            req = scheduler.cancel_queued(rid)
            if req is None:
                continue
            if engine.stream_hub is not None:
                stream = engine.stream_hub.get(rid)
                if stream is not None:
                    stream.cancel(kernel.now)
            reports.append(
                RequestReport(
                    req_id=rid,
                    tokens=[],
                    arrival=req.arrival,
                    admitted_at=kernel.now,
                    prefill_end=kernel.now,
                    finish_time=kernel.now,
                    itl_samples=[],
                    stats=RunStats(),
                    prompt_tokens=len(req.job.prompt),
                    priority=req.priority,
                    ttft_slo=req.ttft_slo,
                    itl_slo=req.itl_slo,
                    cancelled=True,
                )
            )
        if cancels:
            send_cancels(engine, cancels)

    def recover_from_restart() -> None:
        """Rebuild pipeline state after a worker crash/restart.

        The restarted worker lost its KV shard and every in-flight message
        addressed to it, so the global logits-arrival FIFO no longer
        predicts what will come back.  Recovery flushes *all* in-flight
        runs (their run ids go to ``flushed`` so surviving stages' logits
        are discarded on arrival), releases their partitions, wipes each
        live request's canonical KV across every stage, and re-prefills the
        verified token stream — warm via the prefix cache when the backend's
        worker KV is metadata-only, cold otherwise.  Greedy decoding makes
        the re-prefilled continuation token-identical to the lost one.
        """
        order.clear()
        warm = cache is not None and engine.backend.kv_is_metadata
        for ctx in list(active.values()):
            mb = ctx.kv
            ops = []
            while ctx.fifo:
                rec = ctx.fifo.pop()
                flushed.add(rec.run_id)
                ops += mb.ops_for_release(rec)
                mb.on_run_complete(rec)
            ctx.n_spec_inflight = 0
            mb.on_chain_reset()
            ctx.chain.reconcile(ctx.accepted)
            for p in [p for p in ctx.drafted if p >= len(ctx.accepted)]:
                del ctx.drafted[p]
            if ctx.done:
                # Budget already met; the flush drained everything.
                if ops:
                    engine.send_cache_ops(first_target, ops)
                finalize(ctx)
                continue
            # Wipe the canonical partition on every stage, then rebuild it
            # from the verified stream (ordering per-link FIFO guarantees
            # the wipe lands after any stale in-flight writes and before
            # the re-prefill executes).
            ops.append(CacheOp(CacheOpKind.SEQ_RM, ctx.kv.canonical, ctx.kv.canonical, 0, SEQ_END))
            start = 0
            if warm:
                match = cache.match(ctx.accepted)
                if match:
                    ops += cache.ops_for_materialize([(match, ctx.kv.canonical)])
                    start = match.length
            engine.send_cache_ops(first_target, ops)
            ctx.prefilled = False
            dispatch_reprefill(engine, ctx, start_pos=start)
            order.append(ctx.req_id)
            ctx.metrics.stats.reprefilled_tokens += len(ctx.accepted) - start

    # The head runs as an event-driven state machine: every wait the
    # historical generator loop expressed as a yield (the cumulative
    # sampling delay, the per-round draft future, the idle arrival watch)
    # is a kernel event chaining back into ``step``, at exactly the same
    # simulated instants.  The head *process* parks once, on the ``done``
    # future, so its contribution to the kernel's resume count is constant
    # rather than per-iteration.
    done = kernel.future("serving-done")

    def arrival_step(until) -> None:
        """Re-enter ``step`` on the next delivery, or at instant ``until``.

        The watcher may resolve mid-delivery-batch, so the re-entry is
        deferred with an at-now event — the loop resumes only after the
        current delivery event has made its whole batch available, just
        as a parked process resume would.
        """
        fut = kernel.future(f"arrival@{ep.rank}")
        fut.detail = f"wait_for_arrival at rank {ep.rank}"
        fut.set_callback(lambda _v: kernel.call_at(kernel.now, step))
        ep._arrival_watchers.append(fut)
        if until is not None:

            def timeout() -> None:
                if not fut.resolved:
                    fut.resolve(False)

            kernel.call_at(until, timeout)

    def after_draft(ready: List[RequestContext], proposed) -> None:
        dispatches = [
            (ctx, proposed[ctx.req_id])
            for ctx in ready
            if proposed[ctx.req_id]
        ]
        progressed = False
        if dispatches:
            order.extend(dispatch_spec_burst(engine, dispatches))
            progressed = True
        for ctx in ready:
            if not proposed[ctx.req_id]:
                # Draft confidence halted this request's speculation.
                ctx.cutoff.on_failed_idle()
        if progressed or ep.iprobe(last_target, Tag.LOGITS) or engine._cancel_requests:
            # Re-enter the loop when the round dispatched — or when
            # logits landed *while the draft round computed*: their
            # delivery notified the arrival watchers before idle() could
            # park one, so parking now would sleep through input that is
            # already in the mailbox (a deadlock once no further traffic
            # arrives to re-wake the head).
            step()
        else:
            idle()

    def idle() -> None:
        # ---- priority 4: idle ---------------------------------------------
        if active:
            # Every active request has work in flight (priority 2
            # guarantees tip coverage), so a message is certain to arrive:
            # park for it.  A worker restart and a straggler window's end
            # wake the head too; the two instants no message announces —
            # the next request arrival and the health monitor's recovery
            # (speculation resumes there) — get one timer at the earlier.
            wake = scheduler.next_arrival()
            if wake is not None and wake <= kernel.now:
                wake = None
            if injector is not None:
                recover = injector.health.recovery_time(kernel.now)
                if recover is not None and (wake is None or recover < wake):
                    wake = recover
            arrival_step(wake)
            return
        nxt = scheduler.next_arrival()
        if nxt is not None and nxt > kernel.now:
            kernel.call_at(nxt, step)
        elif nxt is None and scheduler.stream_open():
            # Push-mode feed (cluster serving) with nothing queued yet:
            # park until the router pushes a request (it notifies this
            # endpoint's arrival watchers) instead of burning idle polls.
            arrival_step(None)
        else:
            # A ready request failed admission with nothing active: under
            # ``admission_live_cells`` the workers' cell counts are stale
            # while the last request's release ops are still in flight, and
            # nothing notifies the head when a worker applies them.  This
            # is the one timed retry left here.
            kernel.call_after(cfg.idle_poll, step)

    def step() -> None:
        while active or scheduler.has_pending() or scheduler.stream_open():
            if engine._fault_events:
                engine._fault_events.clear()
                recover_from_restart()
            process_cancels()
            admit_ready()

            # ---- priority 1: sample/verify waiting logits -----------------
            # Fused stage windows return several runs' logits back-to-back,
            # and the batched inbox hand-off makes them all available at
            # once: drain the whole batch in one pass, verifying each run
            # with :func:`verify_run_logits` (plain function), then charge
            # one cumulative sampling delay and flush the accumulated cache
            # ops as a single transaction.  Tokens are stamped at the
            # instant the historical per-message loop would have recorded
            # them.
            msgs = ep.recv_ready(last_target, Tag.LOGITS)
            if msgs:
                cum = 0.0
                pending_ops: List = []
                pending_cancels: List = []
                for msg in msgs:
                    payload = msg.payload
                    if flushed and payload.run_id in flushed:
                        # A stage past the crashed worker still returned
                        # this flushed run; its partition was already
                        # released.
                        flushed.discard(payload.run_id)
                        engine.pool.release_logits(payload)
                        continue
                    ctx = active[order.popleft()]
                    if ctx.fifo.peek().kind is RunKind.PREFILL:
                        rec = ctx.fifo.pop()
                        if rec.run_id != payload.run_id:
                            raise RuntimeError(
                                f"FIFO desync: expected run {rec.run_id}, "
                                f"got {payload.run_id}"
                            )
                        ctx.metrics.stats.completed += 1
                        if not ctx.done:
                            # A cancelled (or otherwise done) request's
                            # prefill still drains through the pipeline —
                            # its cells are written and released with the
                            # partition — but nothing is sampled.
                            process_prefill_logits(engine, ctx, payload)
                    else:
                        cum += verify_run_logits(
                            engine, ctx, payload, pending_ops,
                            pending_cancels, time_base=cum,
                        )
                    engine.pool.release_logits(payload)
                    if not ctx.done and ctx.target_reached():
                        mark_done(ctx, pending_cancels)
                    if ctx.done and not ctx.fifo:
                        # finalize() pipelines donate/release ops that must
                        # land after this request's run-release ops: flush
                        # first.
                        if pending_ops:
                            engine.send_cache_ops(first_target, pending_ops)
                            pending_ops = []
                        finalize(ctx)
                if cum:
                    # The op/cancel flush happens *after* the sampling
                    # delay — nothing a verification decided may hit the
                    # wire before its compute time is paid.
                    engine.metrics.add_busy(0, cum)

                    def after_sample(
                        pending_ops=pending_ops,
                        pending_cancels=pending_cancels,
                    ) -> None:
                        if pending_ops:
                            engine.send_cache_ops(first_target, pending_ops)
                        if pending_cancels:
                            send_cancels(engine, pending_cancels)
                        step()

                    kernel.call_after(cum, after_sample)
                    return
                if pending_ops:
                    engine.send_cache_ops(first_target, pending_ops)
                if pending_cancels:
                    send_cancels(engine, pending_cancels)
                continue

            # ---- priority 2: guaranteed forward progress ------------------
            # Every request with an uncovered tip gets its canonical run,
            # all of them coalesced into one burst transaction (dispatch
            # takes no simulated time, so batching them never delays
            # sampling).
            entries = []
            for rid in list(rotation):
                ctx = active[rid]
                if not ctx.prefilled or ctx.done:
                    continue
                if not ctx.fifo.covers_tip(ctx.accepted):
                    rec, states = canonical_entry(engine, ctx)
                    entries.append((ctx, rec, states, []))
            if entries:
                order.extend(dispatch_burst(engine, entries))
                continue

            # ---- priority 3: continuous speculation, batched across -------
            # requests.  The draft scheduler: collect every request whose
            # chain wants a proposal step (rotation order for fairness,
            # capped by the knob and by free KV partitions — each dispatch
            # takes one), run their one-token draft decodes as lockstep
            # batched passes, then send the resulting speculative runs as
            # one transaction burst so the workers' fusion windows see the
            # whole round at once.
            ready: List[RequestContext] = []
            limit = min(cfg.max_draft_batch, pool.n_free)
            if injector is not None and injector.health.degraded(kernel.now):
                # Graceful degradation: a flapping link, straggling stage,
                # or recent crash gates speculation depth to 0 — canonical
                # runs (priority 2) keep every request progressing, and
                # drafting resumes once the health EWMA decays through its
                # low water mark (the stable window).
                limit = 0
            headroom = spec_dispatch_headroom(engine, active.values(), cfg)
            if headroom is not None:
                limit = min(limit, headroom)
            # The depth budget is shared over requests that can actually
            # draft — done-but-draining and un-prefilled requests must not
            # dilute a lone live request below its full historical depth.
            n_draftable = sum(
                1 for c in active.values() if c.prefilled and not c.done
            )
            for rid in list(rotation):
                if len(ready) >= limit:
                    break
                ctx = active[rid]
                if not ctx.prefilled or ctx.done:
                    continue
                if not spec_allowed_serving(engine, ctx, n_draftable):
                    continue
                ready.append(ctx)
            if ready:
                rotation.rotate(-1)
                start_draft_round(
                    engine, ready,
                    lambda proposed, ready=ready: after_draft(ready, proposed),
                )
                return

            idle()
            return

        engine.request_reports = reports
        engine.prefix_cache_stats = (
            cache.stats_dict() if cache is not None else {}
        )
        engine.metrics.mark_finish(kernel.now)
        engine.shutdown_pipeline()
        done.resolve(None)

    step()
    if not done.resolved:
        yield done



# ---------------------------------------------------------------------------
# Baselines: FCFS, one request at a time.
# ---------------------------------------------------------------------------


def sequential_serving_head(engine, scheduler: RequestScheduler) -> Generator:
    """FCFS serving for synchronous engines: run requests back-to-back.

    Per-request metrics come from swapping a fresh collector onto the
    engine for the duration of ``_generate`` (workers hold the aggregate
    collector captured at spawn, so their busy time keeps accumulating
    globally; the head's own busy time is merged back afterwards).
    """
    kernel = engine.net.kernel
    base_metrics = engine.metrics
    reports: List[RequestReport] = []

    while scheduler.has_pending() or scheduler.stream_open():
        if not scheduler.has_pending():
            # Push-mode feed (cluster serving): park until the router
            # pushes the next request or closes the stream — both notify
            # this endpoint's arrival watchers.
            fut = kernel.future(f"feed-wait@{engine.head_rank()}")
            fut.detail = "wait_for_routed_request"
            engine.ep()._arrival_watchers.append(fut)
            yield fut
            continue
        nxt = scheduler.peek_next()
        if nxt.arrival > kernel.now:
            yield Delay(nxt.arrival - kernel.now)
        req = scheduler.pop_ready(kernel.now)
        admitted_at = kernel.now
        per = MetricsCollector()
        engine.metrics = per
        try:
            accepted = yield from engine._generate(req.job)
        finally:
            engine.metrics = base_metrics
        for rank, seconds in per.busy_time.items():
            base_metrics.add_busy(rank, seconds)
        finish = kernel.now
        reports.append(
            RequestReport(
                req_id=req.req_id,
                tokens=list(accepted[len(req.job.prompt):][: req.job.n_generate]),
                arrival=req.arrival,
                admitted_at=admitted_at,
                prefill_end=per.prefill_end if per.prefill_end is not None else admitted_at,
                finish_time=finish,
                itl_samples=per.itl_samples(),
                stats=per.stats,
                prompt_tokens=len(req.job.prompt),
                priority=req.priority,
                ttft_slo=req.ttft_slo,
                itl_slo=req.itl_slo,
            )
        )
        scheduler.on_completed(req.req_id, finish)

        # Clear the finished request's KV cells on every stage so the next
        # request's positions start clean.
        ops = [CacheOp(CacheOpKind.SEQ_RM, 0, 0, 0, SEQ_END)]
        ranks = engine.target_ranks()
        if engine.head_rank() in engine._worker_states:
            apply_cache_op(engine._worker_states[engine.head_rank()].cache, ops[0])
        if len(ranks) > 1:
            engine.send_cache_ops(ranks[1], ops)

    engine.request_reports = reports
    base_metrics.mark_finish(kernel.now)
    engine.shutdown_pipeline()
