"""Every workload at a tiny size, on two seeds, with every check passing.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import batch  # noqa: E402
import service_load  # noqa: E402
from tracing import Summary, Tracer  # noqa: E402

TINY = {
    "cha-dense": lambda seed: batch.dense_plan(
        seed, batch.DenseSize(nodes=8, instances=15, rcf=9)),
    "cha-spread": lambda seed: batch.spread_plan(
        seed, batch.SpreadSize(nodes=300, instances=2, radius=4.0)),
    "vi-mobile": lambda seed: batch.mobile_plan(
        seed, batch.MobileSize(grid=2, mobile=3, virtual_rounds=6)),
}
TINY_SVC = service_load.SvcSize(worlds=2, sessions=8, tcp_writers=2,
                                rate=200.0, load_s=0.4, instances=600)


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("seed", [1, 2])
def test_batch_workload_passes_and_tracing_does_not_perturb(workload, seed):
    plain = batch.run_episode(lambda: TINY[workload](seed))
    again = batch.run_episode(lambda: TINY[workload](seed))
    tracer = Tracer("test")
    with tracer:
        traced = batch.run_episode(lambda: TINY[workload](seed), tracer)
    for episode in (plain, again, traced):
        assert episode.failures == [] and episode.failed == 0
    assert plain.digest == again.digest == traced.digest
    summary = Summary(tracer.spans)
    assert summary.calls("experiment.step") == len(traced.step_samples)
    assert summary.calls("analysis.finish") == 1
    assert summary.calls("net.channel") == traced.rounds
    assert 0 < summary.self_seconds("experiment.step") <= summary.seconds(
        "experiment.step")


def _serve(seed: int, tracer: Tracer | None = None):
    async def go():
        episode = service_load.Episode(seed, TINY_SVC, tracer=tracer)
        await episode.setup()
        return await episode.run()
    return asyncio.run(go())


@pytest.mark.parametrize("seed", [1, 2])
def test_svc_open_serves_every_proposal(seed):
    plain = _serve(seed)
    tracer = Tracer("test")
    with tracer:
        traced = _serve(seed, tracer)
    for episode in (plain, traced):
        assert episode.failures == [] and episode.failed == 0
        assert episode.attempted == len(service_load.schedule_for(
            seed, TINY_SVC, TINY_SVC.sessions // 2 + TINY_SVC.tcp_writers))
        assert episode.tcp_latencies_s and episode.latencies_s
        assert episode.events_dropped == 0
    assert plain.digest == traced.digest
    summary = Summary(tracer.spans)
    ticks = summary.calls("service.tick")
    assert ticks == summary.calls("experiment.step") > 0
    assert summary.calls("net.channel") == ticks * TINY_SVC.rounds_per_tick
    assert summary.calls("analysis.finish") == TINY_SVC.worlds
    assert traced.counts["core.decided_frac"] == 1.0
    assert traced.counts["net.broadcasts_per_round"] > 0
    assert traced.loop_lag_s


def _cli(*args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("switch", ["REPRO_SHARDS", "REPRO_REFERENCE_CHANNEL"])
def test_cli_refuses_program_switches(switch):
    env = dict(os.environ, **{switch: "1"})
    done = _cli("--workload", "cha-dense", "--seed", "1", env=env)
    assert done.returncode != 0 and done.stdout == ""
    assert switch in done.stderr


def test_cli_fails_without_the_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _cli("--workload", "cha-dense", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0 and done.stdout == ""


def test_cli_prints_the_contract_line():
    done = _cli("--workload", "vi-mobile", "--seed", "3", "--seconds", "1",
                "--trace", "0")
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] and report["failed"] == 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(report["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    assert all(m["value"] > 0 for m in report["metrics"].values())
