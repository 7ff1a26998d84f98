"""The repository benchmark: four workloads, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cha-dense --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrapper
installed.  ``--trace 1`` alternates untraced and traced episodes and
reports the per-layer metrics from the traced ones (spans written to
``perfbench/out/``), plus the tracing overhead between the two.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries
sample counts, digests and failure reasons.

Workloads, metric definitions and the layer -> end-to-end interactions
are documented in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("cha-dense", "cha-spread", "vi-mobile", "svc-open")

#: Fresh processes timed per run for ``setup_s`` (their median counts).
SETUP_PROBES = 5
#: Episodes per run at least, whatever ``--seconds`` says.  Three, so
#: the median never averages a process's slower first episode in.
MIN_EPISODES = 3
PROBE_TIMEOUT_S = 60.0

#: Metric names and units, as declared at the root of the checkout.
SPEC = ROOT / "BENCHMARK.json"


class BenchError(Exception):
    """The benchmark cannot run here; nothing is reported."""


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def check_environment() -> None:
    switches = sorted(name for name in os.environ
                      if name.startswith("REPRO_REFERENCE_")
                      or name == "REPRO_SHARDS")
    if switches:
        raise BenchError(
            f"refusing to run with {', '.join(switches)} set: the benchmark "
            f"measures the program's default engine")
    if not SPEC.is_file():
        raise BenchError(f"no {SPEC.name} at the root of the checkout")
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC / 'repro'}; run from "
                         f"the root of a full checkout")
    sys.path.insert(0, str(SRC))


# ----------------------------------------------------------------------
# setup_s: fresh processes, timed from spawn to "ready"
# ----------------------------------------------------------------------

def probe(workload: str, seed: int) -> None:
    """Child side: import, build the world, say ready, tear down."""
    if workload == "svc-open":
        import service_load

        async def serve() -> None:
            episode = service_load.Episode(seed)
            await episode.setup()
            print("ready", flush=True)
            await episode.close()

        asyncio.run(serve())
    else:
        import batch

        batch.ExperimentStepper(batch.PLANS[workload](seed).spec)
        print("ready", flush=True)


def time_setup(workload: str, seed: int) -> float:
    started = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
        child.stdout.read()
        child.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        child.stdout.close()
    if line.strip() != "ready" or child.returncode != 0:
        raise BenchError(f"setup probe for {workload} failed "
                         f"(exit {child.returncode})")
    return elapsed


# ----------------------------------------------------------------------
# Episodes
# ----------------------------------------------------------------------

def run_episode(workload: str, seed: int, tracer=None):
    if workload == "svc-open":
        import service_load

        async def serve():
            episode = service_load.Episode(seed, tracer=tracer)
            await episode.setup()
            return await episode.run()

        return asyncio.run(serve())
    import batch

    return batch.run_episode(lambda: batch.PLANS[workload](seed), tracer)


def decide_latencies(workload: str, episodes: list) -> list[float]:
    """svc-open: proposal -> decision read.  Batch: one decision step."""
    if workload == "svc-open":
        return [s for e in episodes for s in e.latencies_s]
    return [s for e in episodes for s in e.step_samples]


def rounds_per_s(workload: str, episodes: list) -> float:
    """Median over episodes.  svc-open: rounds of every world per wall
    second of service.  Batch: rounds per second inside ``step()``."""
    if workload == "svc-open":
        return statistics.median(e.rounds / e.window_s for e in episodes)
    return statistics.median(e.rounds / e.step_s for e in episodes)


def end_to_end(workload: str, episodes: list, setup: list[float]) -> dict:
    latencies = decide_latencies(workload, episodes)
    return {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(e.run_s for e in episodes),
        "rounds_per_s": rounds_per_s(workload, episodes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "decide_p50_ms": 1e3 * percentile(latencies, 0.50),
    }, {"episodes": len(episodes), "setup_probes": len(setup),
        "decide_samples": len(latencies)}


def per_layer(workload: str, traced: list, untraced: list, tracer,
              units: dict[str, str]) -> dict:
    from tracing import Summary

    summary = Summary(tracer.spans)
    count = len(traced)
    metrics = {name: 0.0 for name in units}
    # Gen-2 pauses set this tail, and their length drifts run to run by
    # more than an end-to-end bound allows, so it is reported here, from
    # the untraced episodes, without a bound.
    metrics["decide_p99_ms"] = 1e3 * percentile(
        decide_latencies(workload, untraced), 0.99)

    def busy(name: str) -> float:
        """Seconds inside ``name`` spans, per traced episode."""
        return summary.seconds(name) / count

    metrics.update({
        "analysis.finish_s": busy("analysis.finish"),
        "experiment.step_s": busy("experiment.step"),
        "net.channel_s": busy("net.channel"),
        "net.channel_calls": summary.calls("net.channel") / count,
        "contention.advise_s": busy("contention.advise"),
        "contention.feedback_s": busy("contention.feedback"),
        "runtime.gc_pause_s": busy("runtime.gc"),
        "runtime.gc_gen2_count": tracer.gen2_collections / count,
    })
    # Step self time: protocol core, history fold and engine dispatch
    # (channel, contention and GC pauses are child spans).
    self_s = summary.self_seconds("experiment.step") / count
    metrics["vi.self_s" if workload == "vi-mobile" else "core.self_s"] = self_s
    if workload == "svc-open":
        enqueued = sum(e.events_enqueued for e in traced)
        both = traced + untraced
        metrics.update({
            "service.tick_s": busy("service.tick"),
            "service.tick_p99_ms": 1e3 * percentile(
                summary.durations["service.tick"], 0.99),
            "service.step_s": busy("experiment.step"),
            "service.publish_s": busy("service.publish"),
            # Tick self time: harvest and its live agreement check.
            "service.harvest_s": summary.self_seconds("service.tick") / count,
            "service.events_enqueued": enqueued / count,
            "service.events_dropped": sum(e.events_dropped
                                          for e in traced) / count,
            "service.filter_pass_frac": enqueued / tracer.publish_offers,
            "service.loop_lag_p99_ms": 1e3 * percentile(
                [s for e in traced for s in e.loop_lag_s], 0.99),
            "service.tcp_decide_p50_ms": 1e3 * percentile(
                [s for e in both for s in e.tcp_latencies_s], 0.50),
            "loadgen.late_p99_ms": 1e3 * percentile(
                [s for e in both for s in e.late_s], 0.99),
        })
    metrics.update(traced[0].counts)
    # Throughput lost to the wrappers, traced against untraced episodes.
    metrics["trace.overhead_frac"] = 1.0 - (rounds_per_s(workload, traced)
                                            / rounds_per_s(workload, untraced))
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    setup: list[float] = []
    warmup, untraced, traced = [], [], []
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer(f"{workload}-{seed}")
        # The overhead compares traced with untraced episodes, so the
        # process's first episode belongs to neither side.
        warmup.append(run_episode(workload, seed))

    def run(traced_run: bool) -> None:
        # The host's speed drifts over seconds, so the setup probes are
        # spread across the window rather than bunched at its start.
        if (not trace and len(setup) < SETUP_PROBES
                and time.perf_counter() - started
                >= len(setup) * seconds / SETUP_PROBES):
            setup.append(time_setup(workload, seed))
        gc.collect()
        if traced_run:
            with tracer:
                traced.append(run_episode(workload, seed, tracer))
        else:
            untraced.append(run_episode(workload, seed))

    pairs = 0
    while (len(untraced) + len(traced) < MIN_EPISODES
           or time.perf_counter() < started + seconds):
        if tracer is None:
            run(False)
        else:
            # Alternate which side goes first, so drift cancels.
            for traced_run in ((False, True) if pairs % 2 == 0
                               else (True, False)):
                run(traced_run)
        pairs += 1
    while not trace and len(setup) < SETUP_PROBES:
        setup.append(time_setup(workload, seed))

    episodes = warmup + untraced + traced
    failures = [f for e in episodes for f in e.failures]
    digests = sorted({e.digest for e in episodes})
    if len(digests) > 1:
        failures.append(f"output digests differ across runs of seed {seed}: "
                        f"{digests}")
    attempted = sum(e.attempted for e in episodes)
    failed = sum(e.failed for e in episodes)
    declared = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if trace else "end_to_end"]}
    if trace:
        metrics = per_layer(workload, traced, untraced, tracer, units)
        tracer.write(OUT / f"trace-{workload}-{seed}.jsonl.gz")
        samples = {"traced_episodes": len(traced),
                   "untraced_episodes": len(untraced),
                   "spans": len(tracer.spans)}
    else:
        metrics, samples = end_to_end(workload, episodes, setup)
    if set(metrics) != set(units):
        raise BenchError(f"measured {sorted(set(metrics) ^ set(units))} do "
                         f"not match {SPEC.name}")
    print(json.dumps({"workload": workload, "seed": seed, "samples": samples,
                      "digests": digests, "failures": failures[:20]}))
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        help="measuring window (default: BENCHMARK.json's "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        check_environment()
        if args.setup_probe:
            probe(args.workload, args.seed)
            return 0
        seconds = args.seconds
        if seconds is None:
            seconds = json.loads(SPEC.read_text())["run_seconds"]
        report = measure(args.workload, args.seed, seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
