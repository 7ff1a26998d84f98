"""The three batch workloads: cha-dense, cha-spread and vi-mobile.

Every input is built from the seed through the public ``repro`` API
(:class:`repro.ExperimentSpec` and friends) and run with
:class:`repro.experiment.ExperimentStepper`, exactly as a researcher
would drive an experiment.  No reference switch, shard count or other
engine knob is set, so the program runs whichever engine it chooses by
default.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable

import repro
from repro.experiment import ExperimentStepper
from repro.geometry import Point
from repro.net import RandomLossAdversary, RandomWaypointMobility
from repro.vi import CounterProgram, ScriptedClient, VNSite

import checks
from tracing import Tracer, instrument_simulator

perf_counter = time.perf_counter


@dataclass(frozen=True)
class DenseSize:
    nodes: int = 200
    instances: int = 300
    #: Stabilisation round: loss and false collisions stop here.
    rcf: int = 90


@dataclass(frozen=True)
class SpreadSize:
    nodes: int = 10_000
    instances: int = 3
    #: Ring radius in units of R1: far beyond R2, so the ring spans
    #: many grid cells and every node hears only its neighbours.
    radius: float = 126.0


@dataclass(frozen=True)
class MobileSize:
    grid: int = 8  #: sites per side
    replicas: int = 4
    mobile: int = 32
    virtual_rounds: int = 60
    speed: float = 0.1  #: distance per real round


@dataclass
class Episode:
    """One verified run and what it measured."""

    run_s: float
    rounds: int
    step_s: float
    #: Host seconds per decision step (one instance, or one virtual round).
    step_samples: list[float]
    digest: str
    attempted: int
    failures: list[str]
    #: Exact per-layer counts (same value on every run of a seed).
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        """The run is one operation: it failed if any check did."""
        return 1 if self.failures else 0


@dataclass
class _Plan:
    spec: repro.ExperimentSpec
    ticks_per_step: int
    expected_invariants: tuple[str, ...]
    check: Callable[[object], list[str]]
    digest: Callable[[object], str]
    decisions: int


def _proposer(tag: str, seed: int) -> Callable[[int, int], str]:
    """Fixed-width seeded proposal values: ``proposed(node, k)``."""
    salt = random.Random(seed).getrandbits(24)

    def proposed(node: int, k: int) -> str:
        return f"{tag}{salt:06x}.{node:05d}.{k:05d}"
    return proposed


def _factory(proposed: Callable[[int, int], str]):
    def factory(node: int):
        return lambda k: proposed(node, k)
    return factory


def _cluster_plan(spec: repro.ExperimentSpec, instances: int,
                  proposed: Callable[[int, int], str]) -> _Plan:
    expected = spec.metrics.invariants
    return _Plan(
        spec=spec,
        ticks_per_step=repro.ROUNDS_PER_INSTANCE,
        expected_invariants=expected,
        check=lambda result: checks.cluster_failures(
            result.outputs, instances, proposed),
        digest=lambda result: checks.cluster_digest(result.outputs),
        decisions=spec.world.n * instances,
    )


def dense_plan(seed: int, size: DenseSize = DenseSize()) -> _Plan:
    """Section 3: CHAP on one cluster under seeded loss before ``rcf``."""
    rng = random.Random(seed)
    proposed = _proposer("d", rng.getrandbits(32))
    spec = repro.ExperimentSpec(
        protocol=repro.CHA(proposer_factory=_factory(proposed)),
        world=repro.ClusterWorld(n=size.nodes, rcf=size.rcf),
        environment=repro.EnvironmentSpec(adversary=RandomLossAdversary(
            p_drop=0.10, p_false=0.02, seed=rng.getrandbits(32))),
        workload=repro.WorkloadSpec(instances=size.instances),
        metrics=repro.MetricsSpec(
            metrics=("total_broadcasts", "mean_message_size",
                     "collision_flags"),
            invariants=("agreement", "validity", "liveness"),
            liveness_by=size.rcf // repro.ROUNDS_PER_INSTANCE + 5),
        keep_trace=False,
    )
    return _cluster_plan(spec, size.instances, proposed)


def spread_plan(seed: int, size: SpreadSize = SpreadSize()) -> _Plan:
    """A static multi-cell ring: liveness cannot hold across regions."""
    proposed = _proposer("s", random.Random(seed).getrandbits(32))
    spec = repro.ExperimentSpec(
        protocol=repro.CHA(proposer_factory=_factory(proposed)),
        world=repro.ClusterWorld(n=size.nodes, cluster_radius=size.radius),
        workload=repro.WorkloadSpec(instances=size.instances),
        metrics=repro.MetricsSpec(
            metrics=("total_broadcasts", "mean_message_size",
                     "collision_flags"),
            invariants=("agreement", "validity")),
        keep_trace=False,
    )
    return _cluster_plan(spec, size.instances, proposed)


def mobile_plan(seed: int, size: MobileSize = MobileSize()) -> _Plan:
    """Section 4: a grid of virtual nodes plus seeded moving clients."""
    rng = random.Random(seed)
    spacing = 6.0
    sites = [VNSite(i, Point((i % size.grid) * spacing,
                             (i // size.grid) * spacing))
             for i in range(size.grid * size.grid)]
    devices = []
    for site in sites:
        for j in range(size.replicas):
            angle = 2 * math.pi * j / size.replicas + 0.5
            devices.append(repro.DeviceSpec(mobility=Point(
                site.location.x + 0.12 * math.cos(angle),
                site.location.y + 0.12 * math.sin(angle))))
    side = (size.grid - 1) * spacing
    for m in range(size.mobile):
        start = Point(rng.uniform(0, side), rng.uniform(0, side))
        script = {vr: f"c{m:02d}.{vr:03d}.{rng.randrange(1000):03d}"
                  for vr in range(size.virtual_rounds) if rng.random() < 0.3}
        devices.append(repro.DeviceSpec(
            mobility=RandomWaypointMobility(
                start, arena=(0.0, 0.0, side, side), speed=size.speed,
                seed=rng.getrandbits(32)),
            client=ScriptedClient(script)))
    spec = repro.ExperimentSpec(
        protocol=repro.VIEmulation(
            programs={s.vn_id: CounterProgram() for s in sites}),
        world=repro.DeployedWorld(sites=tuple(sites), devices=tuple(devices)),
        workload=repro.WorkloadSpec(virtual_rounds=size.virtual_rounds),
        metrics=repro.MetricsSpec(
            metrics=("total_broadcasts", "mean_message_size",
                     "collision_flags", "availability",
                     "rounds_per_virtual_round"),
            invariants=("replica_consistency", "liveness"),
            liveness_by=3),
        keep_trace=False,
    )

    def check(result) -> list[str]:
        return [f"vn {vn}: {len(outcomes)} of {size.virtual_rounds} "
                f"virtual rounds recorded"
                for vn, outcomes in sorted(result.world.outcomes.items())
                if len(outcomes) != size.virtual_rounds]

    return _Plan(
        spec=spec,
        ticks_per_step=1,
        expected_invariants=spec.metrics.invariants,
        check=check,
        digest=lambda result: checks.vi_digest(result.world, result.clients),
        decisions=len(sites) * size.virtual_rounds,
    )


PLANS: dict[str, Callable[[int], _Plan]] = {
    "cha-dense": dense_plan,
    "cha-spread": spread_plan,
    "vi-mobile": mobile_plan,
}


def run_episode(make_plan: Callable[[], _Plan],
                tracer: Tracer | None = None) -> Episode:
    """Spec to verified result, timed from the benchmark's side."""
    started = perf_counter()
    plan = make_plan()
    stepper = ExperimentStepper(
        plan.spec,
        instrument=instrument_simulator(tracer) if tracer else None)
    step, finish = stepper.step, stepper.finish
    if tracer is not None:
        step = tracer.wrap("experiment.step", step)
        finish = tracer.wrap("analysis.finish", finish)
    samples = []
    while stepper.remaining:
        t0 = perf_counter()
        step(plan.ticks_per_step)
        samples.append(perf_counter() - t0)
    result = finish()
    run_s = perf_counter() - started

    failures = (checks.verdict_failures(result.invariants,
                                        plan.expected_invariants)
                + plan.check(result))
    metrics = result.metrics
    rounds = int(result.timings["rounds"])
    wire_bytes = metrics["total_broadcasts"] * metrics["mean_message_size"]
    counts = {
        "net.broadcasts_per_round": metrics["total_broadcasts"] / rounds,
        "net.wire_size_per_decision": wire_bytes / plan.decisions,
        "detectors.collision_flags": sum(metrics["collision_flags"].values()),
    }
    if result.outputs is not None:
        outputs = [out for log in result.outputs.values() for _, out in log]
        counts["core.decided_frac"] = (
            sum(out is not None for out in outputs) / len(outputs))
    else:
        availability = metrics["availability"]
        counts["vi.availability_mean"] = (
            sum(availability.values()) / len(availability))
        counts["vi.rounds_per_vround"] = metrics["rounds_per_virtual_round"]
    return Episode(
        run_s=run_s, rounds=rounds, step_s=sum(samples),
        step_samples=samples, digest=plan.digest(result), attempted=1,
        failures=failures, counts=counts)
