"""Serving benchmark: one workload, one fresh process, one JSON result.

    python3 perfbench/run.py --workload decode --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The run

1. prepares the workload's inputs from ``--seed`` (payload pool, and for
   the CNN its dataset and host fp32 training; not timed);
2. sets the server up and times it: model lowering, quantization and
   partition planning, server start, and one warm round whose responses
   compile and record every program the timed phase uses;
3. runs one fixed full batch outside any timing for the simulated cycle
   figures, on fresh hardware and a fresh cache;
4. drives the warm server in a closed loop for ``--seconds``, in
   ``BLOCKS`` blocks with ``SETUPS_PER_BLOCK`` more timed set-ups before
   each, and checks every output against the numpy int8 reference of
   ``reference.py``;
5. checks the structural counts that must repeat exactly on every run.

With ``--trace 1`` each block is split into an untraced and a traced
half, in alternating order, the traced half with spans around every
layer's public functions (``spans.py``), and the per-layer metrics are
printed instead of the end-to-end ones.

The last line of standard output is the result object.  Exit code 0
only when every output matched and every structural count held.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
#: the timed loop runs in this many blocks, each after its own set-ups
BLOCKS = 9
#: set-ups before each block; set-up time is the median of all of them
#: plus the first one, whose server the timed blocks load
SETUPS_PER_BLOCK = 2
#: the timed loop is cut into windows of --seconds / WINDOWS
WINDOWS = 60
#: throughput is this percentile of the window rates, and latency the
#: mirror percentile of the windows' median latencies.  The host runs at
#: two speeds and the share of fast time differs from run to run, so
#: whole-run medians move with it; what the server sustains through the
#: slow phases, which every run has, repeats (README.md, "Host noise")
SUSTAINED_PERCENTILE = 10
RESULT_TIMEOUT_S = 60.0


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


class Samples:
    """Per-request timings in a buffer allocated and written up front.

    The benchmark's own memory then stays the same however many requests
    a run completes, so ``peak_rss_mb`` does not grow with throughput.
    """

    def __init__(self, capacity: int = 1 << 19) -> None:
        self._values = np.full(capacity, np.nan)
        self.n = 0

    def append(self, value: float) -> None:
        if self.n == len(self._values):
            self._values = np.concatenate(
                [self._values, np.full(len(self._values), np.nan)]
            )
        self._values[self.n] = value
        self.n += 1

    @property
    def values(self) -> np.ndarray:
        return self._values[: self.n]


@dataclass
class LoopResult:
    seconds: float = 0.0
    requests: int = 0
    failed: int = 0
    #: failed requests whose output differed from the reference
    mismatches: int = 0
    latencies_s: Samples = field(default_factory=Samples)
    queue_s: Samples = field(default_factory=Samples)
    window_rps: list = field(default_factory=list)
    #: median latency of the requests each window completed
    window_p50_s: list = field(default_factory=list)
    cpu_s: float = 0.0
    errors: list = field(default_factory=list)

    @property
    def throughput_rps(self) -> float:
        """The rate the loop held in all but the slowest tenth of its
        windows (see ``SUSTAINED_PERCENTILE``)."""
        return float(np.percentile(self.window_rps, SUSTAINED_PERCENTILE))

    @property
    def latency_p50_s(self) -> float:
        """The window median latency held in all but the slowest tenth
        of the windows."""
        return float(np.percentile(
            self.window_p50_s, 100 - SUSTAINED_PERCENTILE
        ))


def submit_round(server, workload, payloads, start: int) -> list:
    sent = []
    for i in range(start, start + workload.round_size):
        model, p = workload.route(i)
        sent.append((model, p, server.submit(model, payloads[p])))
    return sent


def collect(sent, expected, loop: LoopResult) -> None:
    """Wait for one round; record latencies and check every output.

    A request's latency runs from ``submit`` to its batch completing
    (``RequestTiming.total_s``), so the order in which the client looks
    at a round's futures does not add to it.
    """
    for model, p, future in sent:
        loop.requests += 1
        try:
            result = future.result(timeout=RESULT_TIMEOUT_S)
        except Exception as error:  # a failed request is counted, not fatal
            loop.failed += 1
            loop.errors.append(f"{model}[{p}]: {error!r}")
            continue
        loop.latencies_s.append(result.timing.total_s)
        loop.queue_s.append(result.timing.queue_s)
        if not np.array_equal(result.output, expected[model][p]):
            loop.failed += 1
            loop.mismatches += 1
            loop.errors.append(f"{model}[{p}]: output differs from reference")


def closed_loop(server, workload, payloads, expected, seconds: float,
                window_s: float, first_request: int,
                loop: LoopResult) -> None:
    """Keep ``rounds_in_flight`` rounds outstanding for ``seconds``.

    Adds to ``loop``: the rounds still outstanding at the deadline are
    drained and counted, and each ``window_s`` of the loop adds one
    throughput sample.
    """
    pending: deque = deque()
    next_request = first_request
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    deadline = t0 + seconds
    window_start, window_requests = t0, 0
    window_first = loop.latencies_s.n
    for _ in range(workload.rounds_in_flight):
        pending.append(submit_round(server, workload, payloads, next_request))
        next_request += workload.round_size
    while pending:
        collect(pending.popleft(), expected, loop)
        now = time.perf_counter()
        window_requests += workload.round_size
        if now - window_start >= window_s:
            loop.window_rps.append(window_requests / (now - window_start))
            latencies = loop.latencies_s.values[window_first:]
            if len(latencies):
                loop.window_p50_s.append(float(np.median(latencies)))
            window_start, window_requests = now, 0
            window_first = loop.latencies_s.n
        if now < deadline:
            pending.append(
                submit_round(server, workload, payloads, next_request)
            )
            next_request += workload.round_size
    loop.seconds += time.perf_counter() - t0
    loop.cpu_s += time.process_time() - cpu0


def wait_observed(server, requests: int) -> None:
    """Block until the server has folded ``requests`` completions into
    its counters (futures resolve before the batch is observed)."""
    give_up = time.monotonic() + RESULT_TIMEOUT_S
    while True:
        counts = server.stats()["requests"]
        if counts["completed"] + counts["failed"] >= requests:
            return
        if time.monotonic() > give_up:
            fail("server never observed every completed request", 1)
        time.sleep(0.001)


def timed_segment(server, workload, payloads, expected, seconds: float,
                  window_s: float, loop: LoopResult, delta: dict,
                  served: int) -> int:
    """One closed-loop segment after ``served`` requests; adds the
    segment's counter deltas to ``delta`` and returns the new total of
    requests served."""
    before = counters(server)
    requests = loop.requests
    closed_loop(server, workload, payloads, expected, seconds, window_s,
                served, loop)
    served += loop.requests - requests
    wait_observed(server, served)
    for k, v in counters(server).items():
        delta[k] = delta.get(k, 0) + v - before[k]
    return served


# ----------------------------------------------------------------------
def set_up(workload, config, prepared):
    """One timed set-up; returns (server, models, warm outputs, seconds)."""
    from repro.serve import InferenceServer

    t0 = time.perf_counter()
    models = workload.build(config, prepared)
    server = InferenceServer(
        config, models, n_workers=1, n_chips=workload.n_chips,
        cache_capacity=workload.cache_capacity,
        default_policy=workload.policy,
    )
    sent = submit_round(server, workload, prepared.payloads, 0)
    warm = [
        (model, p, future.result(timeout=RESULT_TIMEOUT_S).output)
        for model, p, future in sent
    ]
    seconds = time.perf_counter() - t0
    return server, models, warm, seconds


def fixed_batch(workload, config, model, payloads, expected):
    """Simulated cycles of one full batch on fresh hardware and cache.

    The batch runs twice: cold (compile + record) and warm (the path the
    timed phase takes when programs are cached).  Returns the figures
    and the per-batch cache counts the structural checks expect.
    """
    from repro.nn.scaleout import execute_pipeline
    from repro.nn.tsp_inference import ChunkRunStats
    from repro.serve import ProgramCache
    from repro.sim import MultiChipSystem, TspChip

    n = workload.max_batch
    x = np.stack([payloads[p] for p in range(n)])
    cache = ProgramCache(capacity=64)
    if workload.n_chips > 1:
        hardware = MultiChipSystem.ring(config, workload.n_chips)
    else:
        hardware = TspChip(config)
    runs = []
    for _ in range(2):
        hardware.scrub()
        stats = ChunkRunStats()
        before = cache.snapshot()
        if workload.n_chips > 1:
            result = execute_pipeline(
                model.runner, x, workload.n_chips, system=hardware,
                cache=cache, stats=stats, plan=model.plan,
            )
            logits = result.logits
            stages = [
                ("+".join(s.layer_names), s.cycles, s.transfer_cycles)
                for s in result.executed.stages
            ]
        else:
            result = model.runner.forward(
                x, chip=hardware, cache=cache, stats=stats
            )
            logits = result.logits
            stages = [(name, c, 0) for name, c in result.layer_cycles.items()]
        after = cache.snapshot()
        if not np.array_equal(logits, expected[: len(x)]):
            fail("fixed batch differs from the numpy reference", 1)
        runs.append((stats, stages, {
            k: after[k] - before[k] for k in ("hits", "misses")
        }))
    (cold, _, cold_cache), (warm, stages, warm_cache) = runs
    if cold.cycles != warm.cycles:
        fail(f"cold and warm cycles differ: {cold.cycles} vs {warm.cycles}", 1)
    intervals = [c + t for _, c, t in stages]
    return {
        "batch": n,
        "cycles_per_batch": warm.cycles,
        "programs_per_batch": warm.programs,
        "cycles_per_req": warm.cycles / n,
        "interval_cycles_per_req": (
            max(intervals) / n if workload.n_chips > 1 else warm.cycles / n
        ),
        "layer_cycles_per_req": {name: c / n for name, c, _ in stages},
        "transfer_cycles_per_req": sum(t for _, _, t in stages) / n,
        "hops_per_batch": workload.n_chips - 1,
        "cold_cache": cold_cache,
        "warm_cache": warm_cache,
    }


def counters(server) -> dict:
    """Cache snapshot plus the summed per-model serve counters."""
    totals = server.registry.totals()
    keys = ("batches", "batched_requests", "chip_cycles")
    out = {
        k: sum(v.get(k, 0) for u, v in totals.items()
               if u.startswith("serve:"))
        for k in keys
    }
    snap = server.cache.snapshot()
    out.update({k: snap[k] for k in ("hits", "misses", "evictions")})
    return out


def structural_problems(workload, fixed, delta: dict, requests: int) -> list:
    """Counts that must repeat exactly; every drift is reported."""
    problems = []
    batches = delta["batches"]

    def expect(what, got, want):
        if got != want:
            problems.append(f"{what}: {got}, expected {want}")

    expect("batched requests", delta["batched_requests"], requests)
    expect("requests per batch (x batches)", delta["batched_requests"],
           batches * workload.max_batch)
    expect("chip cycles (x batches)", delta["chip_cycles"],
           batches * fixed["cycles_per_batch"])
    if workload.expect_hits:
        expect("timed cache misses", delta["misses"], 0)
        expect("timed cache hits (x batches)", delta["hits"],
               batches * fixed["warm_cache"]["hits"])
    else:
        expect("timed cache hits", delta["hits"], 0)
        expect("timed cache misses (x batches)", delta["misses"],
               batches * fixed["cold_cache"]["misses"])
        expect("timed cache evictions (x batches)", delta["evictions"],
               batches * fixed["cold_cache"]["misses"])
    return problems


def traced_problems(workload, fixed, totals: dict, batches: int) -> list:
    """Run counts of the traced phase that must repeat exactly."""
    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    replayed = calls("sim.replay") + totals.get(
        "sim.replay_batched", {}).get("units", 0)
    simulated = calls("sim.simulate")
    programs = batches * fixed["programs_per_batch"]
    want = {
        "replayed runs": programs if workload.expect_hits else 0,
        "simulated runs": 0 if workload.expect_hits else programs,
        "recorded plans": 0 if workload.expect_hits else programs,
        "transfer runs": batches * fixed["hops_per_batch"],
    }
    got = {
        "replayed runs": replayed,
        "simulated runs": simulated,
        "recorded plans": calls("sim.record_finish"),
        "transfer runs": calls("sim.transfer"),
    }
    return [
        f"{k}: {got[k]}, expected {want[k]}" for k in want if got[k] != want[k]
    ]


# ----------------------------------------------------------------------
def per_layer_metrics(fixed, loop, totals, cache_delta,
                      overhead_ratio) -> dict:
    def self_s(name):
        return totals.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def per(name, count, scale):
        return self_s(name) / count * scale if count else 0.0

    def per_call(name, scale):
        return per(name, calls(name), scale)

    n_req = loop.requests
    batches = calls("serve.pool")
    lookups = cache_delta["hits"] + cache_delta["misses"]
    layer_self = {
        layer: sum(
            v["self_s"] for k, v in totals.items()
            if k.startswith(layer + ".")
        )
        for layer in ("serve", "resil", "compiler", "sim", "nn")
    }
    simulate = totals.get("sim.simulate", {})
    batched = totals.get("sim.replay_batched", {})
    metrics = {
        "serve.queue_wait_ms": (
            float(np.median(loop.queue_s.values)) * 1e3, "ms"),
        "serve.batch_size": (n_req / batches, "req"),
        "serve.pool_self_ms_per_batch": (
            per("serve.pool", batches, 1e3), "ms"),
        "serve.cache_lookup_us": (per_call("serve.cache", 1e6), "us"),
        "serve.cache_hits_per_req": (cache_delta["hits"] / n_req, "count"),
        "serve.cache_misses_per_req": (
            cache_delta["misses"] / n_req, "count"),
        "serve.cache_hit_ratio": (
            cache_delta["hits"] / lookups if lookups else 0.0, "ratio"),
        "serve.observe_us_per_batch": (
            per("serve.observe", batches, 1e6), "us"),
        "serve.residual_ms_per_req": (per("worker", n_req, 1e3), "ms"),
        "resil.health_poll_us_per_batch": (
            per("resil.health_poll", batches, 1e6), "us"),
        "compiler.fingerprint_us_per_lookup": (
            per_call("compiler.fingerprint", 1e6), "us"),
        "compiler.graph_build_us_per_chunk": (
            per_call("compiler.graph_build", 1e6), "us"),
        "compiler.compile_ms_per_program": (
            per_call("compiler.compile", 1e3), "ms"),
        "compiler.load_us_per_run": (per_call("compiler.load", 1e6), "us"),
        "compiler.bind_us_per_run": (per_call("compiler.bind", 1e6), "us"),
        "compiler.fetch_us_per_run": (per_call("compiler.fetch", 1e6), "us"),
        "compiler.execute_glue_us_per_run": (
            per_call("compiler.execute", 1e6), "us"),
        "sim.scrub_us_per_batch": (per("sim.scrub", batches, 1e6), "us"),
        "sim.replay_us_per_run": (per_call("sim.replay", 1e6), "us"),
        "sim.replay_batched_us_per_input": (
            per("sim.replay_batched", batched.get("units", 0), 1e6), "us"),
        "sim.simulate_ms_per_run": (per_call("sim.simulate", 1e3), "ms"),
        "sim.simulated_cycles_per_host_s": (
            simulate.get("units", 0) / simulate["self_s"]
            if simulate.get("self_s") else 0.0, "cycles/s"),
        "sim.record_finish_ms_per_program": (
            per_call("sim.record_finish", 1e3), "ms"),
        "sim.transfer_ms_per_hop": (per_call("sim.transfer", 1e3), "ms"),
        "sim.replayed_runs_per_req": (
            (calls("sim.replay") + batched.get("units", 0)) / n_req, "count"),
        "sim.simulated_runs_per_req": (
            calls("sim.simulate") / n_req, "count"),
        "nn.im2col_us_per_req": (per("nn.im2col", n_req, 1e6), "us"),
        "nn.runner_self_us_per_req": (per("nn.runner", n_req, 1e6), "us"),
        "nn.transfer_cycles_per_req": (
            fixed["transfer_cycles_per_req"], "cycles"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
    for layer, seconds in layer_self.items():
        metrics[f"{layer}.self_ms_per_req"] = (seconds / n_req * 1e3, "ms")
    for name in LAYER_NAMES:
        metrics[f"nn.{name}.cycles"] = (
            fixed["layer_cycles_per_req"].get(name, 0.0), "cycles")
    return metrics


#: matrix layers of the three workloads' models, reported on every one
LAYER_NAMES = ("dense0", "dense1", "conv0", "conv1", "dense2")


def emit(correct, attempted, failed, metrics) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        fail(f"no repro package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import reference
    import spans
    from repro.config import small_test_chip
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {sorted(WORKLOADS)}")

    config = small_test_chip()
    prepared = workload.prepare(args.seed)
    gc.collect()
    server, models, warm, seconds = set_up(workload, config, prepared)
    setup_times, warm_rounds = [seconds], [warm]
    expected = {
        m.name: reference.reference_forward(m.runner, prepared.payloads)
        for m in models
    }
    first_model = models[0]
    fixed = fixed_batch(
        workload, config, first_model, prepared.payloads,
        expected[first_model.name],
    )
    print(f"fixed batch of {fixed['batch']}: {fixed['cycles_per_batch']} "
          f"cycles, {fixed['programs_per_batch']} programs, cold cache "
          f"{fixed['cold_cache']}, warm cache {fixed['warm_cache']}")

    # set-ups and timed blocks alternate, so both sample the host over
    # the whole run rather than set-up only its first seconds; traced and
    # untraced halves alternate within the blocks for the same reason
    segment_s = args.seconds / BLOCKS / (2 if args.trace else 1)
    window_s = args.seconds / WINDOWS
    loop, traced = LoopResult(), LoopResult()
    delta, traced_delta = {}, {}
    recorder = spans.SpanRecorder()
    served = workload.round_size
    wait_observed(server, served)
    for block in range(BLOCKS):
        for _ in range(SETUPS_PER_BLOCK):
            gc.collect()
            other, _, warm, seconds = set_up(workload, config, prepared)
            other.close()
            setup_times.append(seconds)
            warm_rounds.append(warm)
        halves = [False, True] if args.trace else [False]
        for tracing in halves[::-1] if block % 2 else halves:
            gc.collect()
            if tracing:
                spans.install_layer_spans(recorder, server)
            served = timed_segment(
                server, workload, prepared.payloads, expected, segment_s,
                window_s, traced if tracing else loop,
                traced_delta if tracing else delta, served,
            )
            recorder.uninstall()

    attempted = failed = mismatches = 0
    for warm in warm_rounds:
        for model, p, output in warm:
            attempted += 1
            if not np.array_equal(output, expected[model][p]):
                failed += 1
                mismatches += 1
    attempted += loop.requests
    failed += loop.failed
    mismatches += loop.mismatches
    problems = structural_problems(workload, fixed, delta, loop.requests)
    print(f"set-up s (x{len(setup_times)}): "
          + " ".join(f"{s:.3f}" for s in setup_times))
    print(f"timed loop: {loop.requests} requests in {loop.seconds:.3f} s, "
          f"{delta['batches']} batches")
    print("structural counts per batch (must repeat exactly): " + ", ".join(
        f"{k} {delta[k] / max(delta['batches'], 1):g}"
        for k in ("batched_requests", "chip_cycles", "hits", "misses",
                  "evictions")
    ))
    print(f"reference figures: latency p99 "
          f"{np.percentile(loop.latencies_s.values, 99) * 1e3:.3f} ms "
          f"over {loop.latencies_s.n} samples, cpu "
          f"{loop.cpu_s / loop.requests * 1e3:.4f} ms/req, mean "
          f"{loop.requests / loop.seconds:.1f} req/s")

    if args.trace:
        attempted += traced.requests
        failed += traced.failed
        mismatches += traced.mismatches
        totals = recorder.totals()
        problems += structural_problems(
            workload, fixed, traced_delta, traced.requests)
        problems += traced_problems(
            workload, fixed, totals, traced_delta["batches"])
        metrics = per_layer_metrics(
            fixed, traced, totals, traced_delta,
            loop.throughput_rps / traced.throughput_rps,
        )
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        out = out_dir / f"spans-{workload.name}-seed{args.seed}.json"
        recorder.write(out)
        print(f"{len(recorder.spans)} spans written to "
              f"{out.relative_to(ROOT)}")
        errors = loop.errors + traced.errors
    else:
        metrics = {
            "throughput_rps": (loop.throughput_rps, "req/s"),
            "latency_p50_ms": (loop.latency_p50_s * 1e3, "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MB"),
            "sim_cycles_per_req": (fixed["cycles_per_req"], "cycles"),
            "sim_interval_cycles_per_req": (
                fixed["interval_cycles_per_req"], "cycles"),
        }
        errors = loop.errors
    server.close()

    for error in errors[:10]:
        print(f"FAILED {error}", file=sys.stderr)
    for problem in problems:
        print(f"STRUCTURAL DRIFT {problem}", file=sys.stderr)
    correct = not problems and mismatches == 0
    emit(correct, attempted, failed, metrics)
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
