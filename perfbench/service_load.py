"""The svc-open workload: several served worlds under open-loop load.

One episode serves ``worlds`` 24-node CHAP worlds from one
:class:`repro.service.ConsensusService` on one asyncio loop, with three
kinds of in-process session (writers, prefix readers, instance
watchers) and two writers connected over NDJSON/TCP.  Proposals follow
a seeded Poisson schedule: users are independent, so the loop is open
and a stall delays every later proposal.  Each proposal is timed from
its *scheduled* send time to the moment its session reads the
``decision`` event of the instance it was acked into.

The worlds tick flat out (the loop never idles, so no tick waits on a
timer wake-up, whose latency on a shared host is noise) through a fixed
instance budget: every episode serves the same number of rounds, and
the worlds' memory does not depend on the host's speed.  The load
window ends well before the budget does, so every proposal lands in an
instance that runs; the episode ends once every world has completed and
every proposal is resolved.  Each world's outputs are then put through
the program's agreement checker, outside the timed window: the worlds'
own invariant checkers would add seconds of analysis to a service
episode.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import random
import time
from dataclasses import dataclass, field

import repro
from repro.service import ConsensusService, ServiceConfig, decode_event

import checks
from tracing import Tracer, instrument_driver, instrument_simulator

perf_counter = time.perf_counter


@dataclass(frozen=True)
class SvcSize:
    worlds: int = 4
    nodes: int = 24
    #: Flat out: each world yields to the loop between ticks, no timer.
    tick_interval: float = 0.0
    #: One round per tick: an instance spans three ticks.
    rounds_per_tick: int = 1
    #: In-process sessions; kinds cycle writer, writer, prefix, watcher.
    sessions: int = 400
    tcp_writers: int = 2
    #: Offered proposals per second, over all worlds.
    rate: float = 250.0
    #: Seconds of load from the clock release.
    load_s: float = 2.0
    #: Instances per world.  The worlds take about twice ``load_s`` to
    #: run them on a 2-core x86 host, so a host twice as fast still
    #: acks every proposal into an instance that runs.
    instances: int = 700
    queue_limit: int = 8192
    #: Bound on each wait after the load window: for the worlds to
    #: complete, then for outstanding decisions.
    drain_timeout_s: float = 60.0


WRITER, PREFIX, WATCHER = "writer", "prefix", "watcher"
KINDS = (WRITER, WRITER, PREFIX, WATCHER)
#: Watchers start within, and then step by, this many instances.
WATCH_STRIDE = 40


def spec_for(size: SvcSize) -> repro.ExperimentSpec:
    return repro.ExperimentSpec(
        protocol=repro.CHA(),
        world=repro.ClusterWorld(n=size.nodes),
        workload=repro.WorkloadSpec(instances=size.instances),
        metrics=repro.MetricsSpec(
            metrics=("total_broadcasts", "mean_message_size",
                     "collision_flags")),
        keep_trace=False,
    )


def schedule_for(seed: int, size: SvcSize,
                 writers: int) -> list[tuple[float, int, str]]:
    """``(offset_s, writer, value)`` rows of the seeded Poisson schedule."""
    rng = random.Random(seed)
    rows = []
    t = rng.expovariate(size.rate)
    while t < size.load_s:
        writer = rng.randrange(writers)
        rows.append((t, writer, f"p{writer:03d}.{len(rows):05d}"))
        t += rng.expovariate(size.rate)
    return rows


@dataclass
class EpisodeResult:
    run_s: float
    rounds: int
    window_s: float
    latencies_s: list[float]
    tcp_latencies_s: list[float]
    late_s: list[float]
    digest: str
    attempted: int
    failures: list[str]
    events_enqueued: int
    events_dropped: int
    loop_lag_s: list[float] = field(default_factory=list)
    #: Exact per-layer counts over the served worlds.
    counts: dict[str, float] = field(default_factory=dict)
    #: Proposals that failed (``failures`` may add read-model anomalies).
    failed: int = 0


class _TcpWriter:
    """One writer session over the NDJSON wire protocol."""

    def __init__(self, reader, writer, session: str, world: str) -> None:
        self.reader, self.writer = reader, writer
        self.session, self.world = session, world

    @classmethod
    async def open(cls, address, world: str, name: str) -> "_TcpWriter":
        reader, writer = await asyncio.open_connection(*address)
        writer.write(json.dumps({"op": "hello", "world": world,
                                 "client": name}).encode() + b"\n")
        welcome = decode_event(await reader.readline())
        return cls(reader, writer, welcome["session"], world)

    def propose(self, value: str, rid: str) -> None:
        self.writer.write(json.dumps({"op": "propose", "value": value,
                                      "id": rid}).encode() + b"\n")

    def bye(self) -> None:
        self.writer.write(b'{"op": "bye"}\n')

    async def next_event(self) -> dict:
        line = await self.reader.readline()
        if not line:
            return {"type": "shutdown"}
        return decode_event(line)

    async def close(self) -> None:
        self.writer.close()
        with contextlib.suppress(ConnectionError):
            await self.writer.wait_closed()


async def _writer_loop(source, session: str, book: checks.ProposalBook) -> None:
    while True:
        event = await source.next_event()
        kind = event["type"]
        if kind == "decision":
            book.decided(session, event, perf_counter())
        elif kind == "ack":
            book.acked(event["id"], event["instance"])
        elif kind == "error" and "id" in event:
            book.rejected(event["id"], event["reason"])
        elif kind in ("bye", "shutdown"):
            return


async def _prefix_loop(client, prefix: str, anomalies: list[str]) -> None:
    while True:
        event = await client.next_event()
        kind = event["type"]
        if kind == "decision" and not str(event["value"]).startswith(prefix):
            anomalies.append(f"prefix {prefix!r} reader got {event['value']!r}")
        elif kind == "shutdown":
            return


async def _watch_loop(client, requests: list[int], index: int,
                      anomalies: list[str]) -> None:
    """Follow watched instances; on each decision, watch one further on."""
    watched: set[int] = set()
    while True:
        event = await client.next_event()
        kind = event["type"]
        if kind == "watching":
            watched.add(event["instance"])
        elif kind == "instance-state":
            instance = event["instance"]
            if instance not in watched:
                anomalies.append(f"watcher got unwatched instance {instance}")
            elif event["state"] == "decided":
                watched.discard(instance)
                client.unwatch_instance(instance)
                client.watch_instance(instance + WATCH_STRIDE)
                requests[index] += 2
        elif kind == "shutdown":
            return


class Episode:
    """One served episode, split so the setup probe can stop at ready."""

    def __init__(self, seed: int, size: SvcSize = SvcSize(),
                 tracer: Tracer | None = None) -> None:
        self.seed, self.size, self.tracer = seed, size, tracer
        self.book = checks.ProposalBook()
        self.anomalies: list[str] = []
        self.tcp_tasks: list[asyncio.Task] = []

    async def setup(self) -> None:
        """Build the service, attach every session: ready to step."""
        size, tracer = self.size, self.tracer
        self.started = perf_counter()
        self.service = service = ConsensusService(
            spec_for(size),
            ServiceConfig(worlds=size.worlds,
                          tick_interval=size.tick_interval,
                          rounds_per_tick=size.rounds_per_tick,
                          queue_limit=size.queue_limit),
            instrument=instrument_simulator(tracer) if tracer else None)
        if tracer is not None:
            for entry in service.registry:
                instrument_driver(tracer, entry.driver)
        await service.serve_tcp()
        worlds = [f"w{i + 1}" for i in range(size.worlds)]
        rng = random.Random(self.seed ^ 0x5EED)
        self.clients, self.kinds, self.prefixes = [], [], []
        #: Requests each in-process session made (one reply event each).
        self.requests: list[int] = []
        for i in range(size.sessions):
            kind = KINDS[i % len(KINDS)]
            client = service.connect(client=f"bench-{i}",
                                     world=worlds[(i // len(KINDS)) % size.worlds])
            requests = 0
            prefix = f"p{rng.randrange(2)}"
            if kind == PREFIX:
                client.subscribe_prefix(prefix)
                requests += 1
            elif kind == WATCHER:
                for _ in range(2):
                    client.watch_instance(rng.randrange(1, WATCH_STRIDE))
                    requests += 1
            self.clients.append(client)
            self.kinds.append(kind)
            self.prefixes.append(prefix)
            self.requests.append(requests)
        self.tcp = [await _TcpWriter.open(service.tcp_address,
                                          worlds[j % size.worlds], f"tcp-{j}")
                    for j in range(size.tcp_writers)]
        for client in self.clients:
            client.next_event_nowait()  # the welcome snapshot

    async def run(self) -> EpisodeResult:
        size, book, service = self.size, self.book, self.service
        writers = ([("inproc", c) for c, k in zip(self.clients, self.kinds)
                    if k == WRITER]
                   + [("tcp", t) for t in self.tcp])
        schedule = schedule_for(self.seed, size, len(writers))
        tasks = [asyncio.ensure_future(_writer_loop(c, c.session_id, book))
                 for kind, c in writers if kind == "inproc"]
        self.tcp_tasks = [asyncio.ensure_future(_writer_loop(t, t.session, book))
                          for t in self.tcp]
        for index, (client, kind) in enumerate(zip(self.clients, self.kinds)):
            if kind == PREFIX:
                tasks.append(asyncio.ensure_future(_prefix_loop(
                    client, self.prefixes[index], self.anomalies)))
            elif kind == WATCHER:
                tasks.append(asyncio.ensure_future(_watch_loop(
                    client, self.requests, index, self.anomalies)))
        stop = asyncio.Event()
        lag: list[float] = []
        probe = (asyncio.ensure_future(_lag_probe(self.tracer, lag, stop))
                 if self.tracer is not None else None)

        released = perf_counter()
        service.start_world()
        late = await _generate(schedule, writers, book, released)
        deadline = perf_counter() + size.drain_timeout_s
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(service.run_worlds(), size.drain_timeout_s)
        while book.unresolved() and perf_counter() < deadline:
            await asyncio.sleep(0.001)
        finished = perf_counter()
        rounds = sum(entry.driver.current_round for entry in service.registry)
        stop.set()

        enqueued = dropped = 0
        for client, requests in zip(self.clients, self.requests):
            queue = client.session.queue
            # ``seq`` counts every enqueue: the welcome and one reply per
            # request did not come through publish.
            enqueued += queue.seq - 1 - requests
            dropped += queue.dropped
        for session in service.sessions.sessions():
            if session.queue.dropped:
                book.lossy_sessions.add(session.session_id)
        drivers = [entry.driver for entry in service.registry]
        await self.close()
        for driver in drivers:
            failure = checks.world_failure(driver)
            if failure is not None:
                book.world_failed(driver.name, failure)
        counts = _world_counts(drivers)
        done, pending = await asyncio.wait(tasks + self.tcp_tasks,
                                           timeout=size.drain_timeout_s)
        for task in pending:
            task.cancel()
        for task in tasks + self.tcp_tasks:
            with contextlib.suppress(asyncio.CancelledError):
                await task
        if probe is not None:
            await probe

        outcomes = book.outcomes()
        failures = [f"{rid}: {outcome}" for rid, outcome in outcomes.items()
                    if outcome != checks.OK]
        return EpisodeResult(
            run_s=finished - self.started, rounds=rounds,
            window_s=finished - released,
            latencies_s=book.latencies(outcomes, tcp=False),
            tcp_latencies_s=book.latencies(outcomes, tcp=True),
            late_s=late, digest=book.digest(outcomes),
            attempted=len(outcomes), failed=len(failures),
            failures=failures + self.anomalies,
            events_enqueued=enqueued, events_dropped=dropped,
            loop_lag_s=lag, counts=counts)

    async def close(self) -> None:
        """Say ``bye`` on every TCP session, then shut the service down."""
        for writer in self.tcp:
            writer.bye()
        if self.tcp_tasks:
            await asyncio.wait(self.tcp_tasks, timeout=self.size.drain_timeout_s)
        else:
            for writer in self.tcp:
                while (await writer.next_event())["type"] not in ("bye",
                                                                  "shutdown"):
                    pass
        await self.service.shutdown()
        for writer in self.tcp:
            await writer.close()


def _world_counts(drivers: list) -> dict[str, float]:
    """Exact counts over the served worlds' completed results."""
    outputs = [out for driver in drivers
               for proc in driver.stepper.processes.values()
               for _, out in proc.outputs]
    counts = {"core.decided_frac":
              sum(out is not None for out in outputs) / len(outputs)}
    metrics = [d.result.metrics for d in drivers if d.result is not None]
    if len(metrics) == len(drivers):
        broadcasts = sum(m["total_broadcasts"] for m in metrics)
        counts["net.broadcasts_per_round"] = broadcasts / sum(
            d.current_round for d in drivers)
        counts["net.wire_size_per_decision"] = sum(
            m["total_broadcasts"] * m["mean_message_size"]
            for m in metrics) / len(outputs)
        counts["detectors.collision_flags"] = sum(
            sum(m["collision_flags"].values()) for m in metrics)
    return counts


async def _generate(schedule, writers, book: checks.ProposalBook,
                    released: float) -> list[float]:
    """Send each proposal at its scheduled time; return how late each was."""
    late = []
    for index, (offset, writer, value) in enumerate(schedule):
        due = released + offset
        wait = due - perf_counter()
        if wait > 0:
            await asyncio.sleep(wait)
        kind, target = writers[writer]
        rid = f"r{index}"
        if kind == "inproc":
            book.sent(rid, session=target.session_id, world=target.world,
                      value=value, scheduled=due)
            target.propose(value, request_id=rid)
        else:
            book.sent(rid, session=target.session, world=target.world,
                      value=value, scheduled=due, tcp=True)
            target.propose(value, rid)
        late.append(perf_counter() - due)
    return late


async def _lag_probe(tracer: Tracer, lag: list[float],
                     stop: asyncio.Event, interval: float = 0.001) -> None:
    """Sleep ``interval`` at a time and record how late each wake-up is."""
    while not stop.is_set():
        due = perf_counter() + interval
        await asyncio.sleep(interval)
        woke = perf_counter()
        tracer.record("service.loop_lag", due, woke)
        lag.append(woke - due)
