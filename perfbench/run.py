#!/usr/bin/env python3
"""PipeInfer reproduction benchmark: one workload, one seed, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_single --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up time (the median of
several fresh-process set-ups), then passes over the workload's inputs
for ``--seconds`` of host time, then the correctness check.  ``--trace 1``
runs one untraced and one traced pass instead and reports the per-layer
metrics plus the tracing overhead.  Every metric is printed with its unit
and clock; the last line of standard output is the JSON result.  See
``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Fresh-process set-ups per run; their median is ``setup_s``.
SETUP_PROBES = 11

#: The high latency percentile, reported only when at least MIN_TAIL
#: samples lie beyond it (200 samples for p95).
HIGH_PCT = 95
MIN_TAIL = 10

#: name -> (unit, clock).  ``wall`` and ``host`` metrics are measured on
#: the machine running the benchmark; ``sim`` metrics are outputs of the
#: modelled cluster; ``count`` metrics are exact work counters.
END_TO_END = {
    "wall_tokens_per_s": ("tok/s", "wall"),
    "setup_s": ("s", "wall"),
    "peak_rss_mb": ("MB", "host"),
    "sim_tokens_per_s": ("tok/s", "sim"),
    "sim_ttft_p50_s": ("s", "sim"),
    "sim_ttft_p95_s": ("s", "sim"),
    "sim_itl_p50_s": ("s", "sim"),
    "sim_itl_p95_s": ("s", "sim"),
    "sim_goodput_tokens_per_s": ("tok/s", "sim"),
    "sim_slo_attainment": ("share", "sim"),
    "sim_max_slo_rate": ("req/s", "sim"),
}

PER_LAYER = {
    "engines.backend.self_s_per_token": ("s", "wall"),
    "engines.backend.calls_per_token": ("count", "count"),
    "models.kv.ops_per_token": ("count", "count"),
    "models.kv.self_s_per_token": ("s", "wall"),
    "engines.fusion_width_mean": ("runs", "sim"),
    "engines.draft_batch_width_mean": ("chains", "sim"),
    "engines.utilization": ("share", "sim"),
    "cluster.kernel.events_per_token": ("count", "count"),
    "cluster.kernel.timers_per_token": ("count", "count"),
    "cluster.kernel.self_s_per_token": ("s", "wall"),
    "comm.sends_per_token": ("count", "count"),
    "comm.resumes_per_message": ("count", "count"),
    "spec.acceptance_rate": ("share", "sim"),
    "spec.dispatch_efficiency": ("share", "sim"),
    "spec.runs_per_token": ("count", "count"),
    "spec.cancelled_share": ("share", "sim"),
    "spec.layer_evals_skipped_per_token": ("count", "count"),
    "faults.health_checks_per_token": ("count", "count"),
    "faults.retransmits": ("count", "count"),
    "faults.timeouts": ("count", "count"),
    "faults.reprefilled_tokens": ("count", "count"),
    "serve.scheduler.queue_wait_p50_s": ("s", "sim"),
    "serve.scheduler.queue_wait_p95_s": ("s", "sim"),
    "serve.router.self_s_per_request": ("s", "wall"),
    "serve.router.spills": ("count", "count"),
    "cache.prefix_hit_rate": ("share", "sim"),
    "cache.prefix.self_s_per_request": ("s", "wall"),
    "api.stream.self_s_per_token": ("s", "wall"),
    "metrics.report_s": ("s", "wall"),
    "trace.overhead": ("share", "wall"),
}


def percentile(values, p):
    from repro.metrics.percentiles import percentile as pct

    return pct(list(values), p)


def supports_high(n: int) -> bool:
    return n * (100 - HIGH_PCT) / 100 >= MIN_TAIL


def high_percentile(values) -> float:
    """The ``HIGH_PCT`` percentile when the sample count supports it, else
    the maximum: with fewer samples an interpolated p95 would fall between
    the two largest values, with nothing beyond it."""
    if supports_high(len(values)):
        return percentile(values, HIGH_PCT)
    return max(values)


def describe_samples(label: str, n: int) -> str:
    if supports_high(n):
        return f"{label} {n} (p{HIGH_PCT})"
    need = MIN_TAIL * 100 // (100 - HIGH_PCT)
    return f"{label} {n} (p{HIGH_PCT} needs {need}: *_p{HIGH_PCT}_s report the max)"


# ---------------------------------------------------------------------------
# Host-speed normalization
# ---------------------------------------------------------------------------

#: Every SAMPLE_PERIOD_S of real time while a timed unit runs, a SIGALRM
#: handler runs SAMPLE_ITERS iterations of a fixed calibration loop and
#: records how long they took.  On the reference host (a quiet core of the
#: 2-vCPU VM the benchmark was sized on) one such sample takes SAMPLE_REF_S.
SAMPLE_PERIOD_S = 0.1
SAMPLE_ITERS = 300
SAMPLE_REF_S = 0.003


def calibration_chunk() -> float:
    """Seconds for a fixed pure-Python loop of arithmetic, dict and list
    traffic.

    It runs none of the program's code, so a change to the program cannot
    move it, and it imports nothing, so set-up probes can sample with it
    before the library (and NumPy) load.
    """
    t0 = time.perf_counter()
    book = {}
    acc = 0
    for n in range(SAMPLE_ITERS):
        book[n % 97] = [float(n)] * 4
        for i in range(120):
            acc += i * i
        table = {j: j for j in range(20)}
        acc += sum(table.values())
    return time.perf_counter() - t0


class HostSpeed:
    """Samples host speed while the block runs (a context manager).

    Co-tenants on a shared host slow every process on it: on the reference
    VM the calibration loop alone ranged over 1.7x within a minute, and
    ``process_time`` moved with wall time, so CPU time does not help.
    Sampling the loop during the measured interval tracks that.
    """

    def __init__(self, period: float = SAMPLE_PERIOD_S) -> None:
        self.period = period
        self.samples: list = []
        self.spent = 0.0
        self.wall = 0.0

    def _sample(self, *_args) -> None:
        t0 = time.perf_counter()
        self.samples.append(calibration_chunk())
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "HostSpeed":
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        t1 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        if not self.samples:
            self._sample()
            t1 += self.spent
        self.wall = t1 - self._t0 - self.spent

    def normalize(self, seconds: float) -> float:
        """Scale seconds measured in the block to the reference host."""
        return seconds * SAMPLE_REF_S / (sum(self.samples) / len(self.samples))


class UnitClock:
    """Times each unit of a pass: raw seconds (sampling time excluded) and
    seconds normalized to the reference host.  Units are the workload's
    natural sub-runs, a few seconds each, so that host speed is sampled
    over the same interval it is applied to."""

    def __init__(self) -> None:
        self.raw = 0.0
        self.normalized = 0.0

    @contextmanager
    def __call__(self, _key):
        with HostSpeed() as speed:
            yield
        self.raw += speed.wall
        self.normalized += speed.normalize(speed.wall)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def probe_setup(name: str, seed: int) -> None:
    """Child-process body: time importing the library and building inputs.

    Prints raw and normalized seconds, host-speed sampling excluded.
    """
    # A probe lasts about 0.3 s: sample more often than a timed unit does.
    with HostSpeed(period=SAMPLE_PERIOD_S / 2) as speed:
        import workloads

        workloads.build(name, seed)
    print(repr(speed.wall), repr(speed.normalize(speed.wall)))


def measure_setup(name: str, seed: int) -> tuple:
    """Set-up seconds of ``SETUP_PROBES`` fresh processes, run one by one:
    ``(raw, normalized)`` lists.  Each probe samples host speed itself.

    The caller has already imported the library once, so bytecode is
    compiled and cached and the probes time only the import and build.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(HERE / "run.py"), "--probe-setup",
           "--workload", name, "--seed", str(seed)]
    raw, norm = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        r, n = proc.stdout.split()[-2:]
        raw.append(float(r))
        norm.append(float(n))
    return raw, norm


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


def check(result, reference) -> tuple:
    """(attempted, failed) for one pass against the reference outputs.

    A request fails when it is missing, incomplete, or its tokens differ
    from the reference (zero deviation).
    """
    outputs = result.outputs()
    failed = sum(
        1 for key, want in reference.items()
        if want is None or outputs.get(key) != want
    )
    return len(reference), failed


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def latency_requests(wl, result) -> list:
    """The requests the latency percentiles are taken over: all of them,
    or, on the open-loop ladder, those of its reference rung."""
    pick = getattr(wl, "reference_requests", None)
    return list((pick(result) if pick else result.requests).values())


def end_to_end_sim(wl, result) -> dict:
    """The simulated-clock end-to-end metrics of one pass."""
    from workloads import itl, meets_slo

    reqs = latency_requests(wl, result)
    tokens = sum(r.n_tokens for r in reqs)
    ttfts = [r.ttft for r in reqs]
    itls = [itl(r) for r in reqs if r.n_tokens > 1]
    good = sum(r.good_tokens for r in reqs)
    rate = result.max_slo_rate
    if rate is None:
        rate = sum(1 for r in reqs if meets_slo(r)) / result.sim_seconds
    return {
        "sim_tokens_per_s": tokens / result.gen_seconds,
        "sim_ttft_p50_s": percentile(ttfts, 50),
        "sim_ttft_p95_s": high_percentile(ttfts),
        "sim_itl_p50_s": percentile(itls, 50),
        "sim_itl_p95_s": high_percentile(itls),
        "sim_goodput_tokens_per_s": good / result.sim_seconds,
        "sim_slo_attainment": good / tokens,
        "sim_max_slo_rate": rate,
    }, {"ttft": len(ttfts), "itl": len(itls)}


def _stats(report):
    return getattr(report, "merged", report).stats


def _mean_width(hist: dict) -> float:
    n = sum(hist.values())
    return sum(w * c for w, c in hist.items()) / n if n else 0.0


def per_layer(wl, result, tracer, overhead: float) -> dict:
    """Per-layer metrics of one traced pass."""
    from repro.cluster.kernel import SimKernel
    from repro.comm.mpi_sim import Network
    from repro.metrics.collectors import RunStats

    tokens = result.n_tokens
    reports = result.reports
    merged = [getattr(r, "merged", r) for r in reports]
    stats = RunStats.merged(_stats(r) for r in reports)
    fusion, drafts = {}, {}
    for m in merged:
        for w, c in m.fusion_width.items():
            fusion[w] = fusion.get(w, 0) + c
        for w, c in m.draft_batch_width.items():
            drafts[w] = drafts.get(w, 0) + c
    kernels = tracer.instances[SimKernel]
    networks = tracer.instances[Network]
    delivered = sum(n.n_delivered for n in networks)
    reqs = list(result.requests.values())
    pick = getattr(wl, "queue_requests", None)
    waits = [r.queue_wait for r in (pick(result).values() if pick else reqs)]
    print("  samples: " + describe_samples("queue_wait", len(waits)))
    prompt_tokens = sum(r.prompt_tokens for r in reqs)
    routed = tracer.calls.get("serve.router.route", 0)
    backend_methods = ("compute_stage", "compute_stage_multi", "propose",
                       "propose_multi", "finalize_logits")
    return {
        "engines.backend.self_s_per_token":
            tracer.layer_self("engines.backend", backend_methods) / tokens,
        "engines.backend.calls_per_token":
            tracer.layer_calls("engines.backend") / tokens,
        "models.kv.ops_per_token": tracer.layer_calls("models.kv") / tokens,
        "models.kv.self_s_per_token": tracer.layer_self("models.kv") / tokens,
        "engines.fusion_width_mean": _mean_width(fusion),
        "engines.draft_batch_width_mean": _mean_width(drafts),
        "engines.utilization": sum(m.utilization for m in merged) / len(merged),
        "cluster.kernel.events_per_token":
            sum(k.n_events for k in kernels) / tokens,
        "cluster.kernel.timers_per_token":
            tracer.counts["cluster.kernel.timers"] / tokens,
        "cluster.kernel.self_s_per_token":
            tracer.layer_self("cluster.kernel") / tokens,
        "comm.sends_per_token": tracer.counts["comm.sends"] / tokens,
        "comm.resumes_per_message":
            sum(k.n_resumes for k in kernels) / delivered if delivered else 0.0,
        "spec.acceptance_rate": stats.acceptance_rate,
        "spec.dispatch_efficiency": stats.dispatch_efficiency,
        "spec.runs_per_token": stats.dispatched / tokens,
        "spec.cancelled_share": (
            (stats.cancelled_invalid + stats.cancelled_superfluous)
            / stats.dispatched if stats.dispatched else 0.0
        ),
        "spec.layer_evals_skipped_per_token":
            stats.worker_layer_evals_skipped / tokens,
        "faults.health_checks_per_token":
            tracer.counts["faults.health_checks"] / tokens,
        "faults.retransmits": stats.retransmits,
        "faults.timeouts": stats.timeouts,
        "faults.reprefilled_tokens": stats.reprefilled_tokens,
        "serve.scheduler.queue_wait_p50_s": percentile(waits, 50),
        "serve.scheduler.queue_wait_p95_s": high_percentile(waits),
        "serve.router.self_s_per_request":
            tracer.layer_self("serve.router") / routed if routed else 0.0,
        "serve.router.spills": sum(getattr(r, "spills", 0) for r in reports),
        "cache.prefix_hit_rate":
            sum(r.cached_tokens for r in reqs) / prompt_tokens,
        "cache.prefix.self_s_per_request":
            tracer.layer_self("cache.prefix") / len(reqs),
        "api.stream.self_s_per_token": tracer.layer_self("api.stream") / tokens,
        "metrics.report_s": tracer.layer_self("metrics.report"),
        "trace.overhead": overhead,
    }


# ---------------------------------------------------------------------------
# Running a workload
# ---------------------------------------------------------------------------


def timed_passes(wl, seconds: float) -> tuple:
    """Whole passes until the next one would overrun ``seconds``.

    Returns ``([(result, UnitClock)], peak RSS MB)``; at least one pass
    runs.  Peak RSS is read after the first pass: the allocator's
    footprint creeps up over repeated passes, so later figures would
    depend on how many passes fit.
    """
    passes = []
    start = time.perf_counter()
    while True:
        clock = UnitClock()
        t0 = time.perf_counter()
        passes.append((wl.run_pass(scope=clock), clock))
        if len(passes) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if (time.perf_counter() - start) + (time.perf_counter() - t0) > seconds:
            return passes, peak_rss_mb


def emit(metrics: dict, table: dict) -> dict:
    out = {}
    for name, (unit, clock) in table.items():
        value = float(metrics[name])
        print(f"  {name:<40} {value:>16.6g} {unit:<6} [{clock}]")
        out[name] = {"value": value, "unit": unit}
    return out


def run(args) -> dict:
    import workloads

    name, seed = args.workload, args.seed
    print(f"workload {name}  seed {seed}  seconds {args.seconds}  trace {args.trace}")
    if args.trace:
        from tracing import Tracer

        wl = workloads.build(name, seed)
        with HostSpeed() as plain_speed:
            plain = wl.run_pass()
        tracer = Tracer()
        tracer.install()
        try:
            with HostSpeed() as traced_speed:
                traced = wl.run_pass(scope=tracer.request)
        finally:
            tracer.uninstall()
        results = [plain, traced]
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace_{name}_{seed}.json.gz"
        tracer.dump(trace_path)
        untraced = plain_speed.normalize(plain_speed.wall)
        traced_wall = traced_speed.normalize(traced_speed.wall)
        print(f"  {len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}; "
              f"normalized untraced pass {untraced:.3f} s, traced pass {traced_wall:.3f} s")
        metrics = per_layer(wl, traced, tracer, traced_wall / untraced - 1.0)
        table = PER_LAYER
    else:
        raw_setups, setups = measure_setup(name, seed)
        print("  setup probes, raw s: " + ", ".join(f"{s:.4f}" for s in raw_setups))
        print("  setup probes, normalized s: " + ", ".join(f"{s:.4f}" for s in setups))
        wl = workloads.build(name, seed)
        passes, peak_rss_mb = timed_passes(wl, args.seconds)
        results = [r for r, _ in passes]
        raw_rates = [r.n_tokens / c.raw for r, c in passes]
        rates = [r.n_tokens / c.normalized for r, c in passes]
        print(f"  {len(passes)} timed passes; raw tok/s: "
              + ", ".join(f"{x:.2f}" for x in raw_rates)
              + "; normalized tok/s: " + ", ".join(f"{x:.2f}" for x in rates))
        sim, counts = end_to_end_sim(wl, results[0])
        print("  samples: " + describe_samples("ttft", counts["ttft"]) + "; "
              + describe_samples("itl", counts["itl"]))
        for note in results[0].notes:
            print("  " + note)
        metrics = dict(
            sim,
            wall_tokens_per_s=median(rates),
            setup_s=median(setups),
            peak_rss_mb=peak_rss_mb,
        )
        table = END_TO_END
    reference = wl.reference()
    attempted = failed = 0
    for result in results:
        a, f = check(result, reference)
        attempted += a
        failed += f
    print(f"  requests: attempted {attempted}, succeeded {attempted - failed}, "
          f"failed {failed}, failed_share {failed / attempted:.4f}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": emit(metrics, table),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC}; run from a repository "
              f"checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result = run(args)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
