"""Outside-in span recording for the traced benchmark run.

Every wrapper here sits *outside* the program: a delegating proxy in
place of ``sim.channel`` or of an entry of ``sim.cms`` (installed through
the public ``instrument`` hook), an instance attribute shadowing a
public method (``WorldDriver.tick``, ``stepper.step``, ``bus.publish``),
a ``gc.callbacks`` entry, or a span the benchmark opens around its own
call into a layer.  The adversary and the collision detector are never
wrapped: both engines take fast paths on their exact types
(``type(detector) is EventuallyAccurateDetector``), so a proxy there
would measure a different program.

Spans stay in memory as ``(span_id, parent_id, name, start, end)``
tuples and are written out (gzip JSONL) when the run ends.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import gc
import gzip
import json
import time
from pathlib import Path

perf_counter = time.perf_counter


class Tracer:
    """An in-memory span recorder for one run (``run_id``)."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[tuple[int, int, str, float, float]] = []
        #: Subscribers offered each event, summed over ``bus.publish`` calls.
        self.publish_offers = 0
        self.gen2_collections = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._gc_started: float | None = None

    # -- recording -----------------------------------------------------

    def _open(self) -> tuple[int, int]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        return span_id, parent

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        span_id, parent = self._open()
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, name, start, end))

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def record(self, name: str, start: float, end: float) -> None:
        """A span measured elsewhere, parented to the open span."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((span_id, parent, name, start, end))

    # -- gc.callbacks ----------------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = perf_counter()
        elif self._gc_started is not None:
            self.record("runtime.gc", self._gc_started, perf_counter())
            self._gc_started = None
            if info.get("generation") == 2:
                self.gen2_collections += 1

    def __enter__(self) -> "Tracer":
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)

    # -- read-out ------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span_id, parent, name, start, end in self.spans:
                out.write(json.dumps({
                    "run": self.run_id, "id": span_id, "parent": parent,
                    "name": name, "start": start, "end": end,
                }) + "\n")


class _Proxy:
    """Delegates everything to ``inner`` except the traced methods."""

    def __init__(self, inner, tracer: Tracer, methods: dict[str, str]) -> None:
        self._inner = inner
        for method, span in methods.items():
            setattr(self, method, tracer.wrap(span, getattr(inner, method)))

    def __getattr__(self, name):
        return getattr(self._inner, name)


def instrument_simulator(tracer: Tracer):
    """The ``instrument`` hook: proxy the channel and every CM."""
    def instrument(sim) -> None:
        sim.channel = _Proxy(sim.channel, tracer,
                             {"deliver": "net.channel",
                              "deliver_batch": "net.channel"})
        for name, cm in list(sim.cms.items()):
            sim.cms[name] = _Proxy(cm, tracer,
                                   {"advise": "contention.advise",
                                    "feedback": "contention.feedback"})
    return instrument


def instrument_driver(tracer: Tracer, driver) -> None:
    """Instance wrappers on one served world's public methods."""
    driver.tick = tracer.wrap("service.tick", driver.tick)
    stepper = driver.stepper
    stepper.step = tracer.wrap("experiment.step", stepper.step)
    stepper.finish = tracer.wrap("analysis.finish", stepper.finish)
    bus = driver.bus
    publish = bus.publish

    def traced_publish(event: dict) -> None:
        tracer.publish_offers += bus.subscribers
        tracer.call("service.publish", publish, event)

    bus.publish = traced_publish


class Summary:
    """Per-name totals, counts and self times over a tracer's spans."""

    def __init__(self, spans: list[tuple[int, int, str, float, float]]) -> None:
        self.total: dict[str, float] = {}
        self.count: dict[str, int] = {}
        self.self_time: dict[str, float] = {}
        self.durations: dict[str, list[float]] = {}
        child_time: dict[int, float] = {}
        for span_id, parent, name, start, end in spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        for span_id, parent, name, start, end in spans:
            duration = end - start
            self.total[name] = self.total.get(name, 0.0) + duration
            self.count[name] = self.count.get(name, 0) + 1
            self.self_time[name] = (self.self_time.get(name, 0.0) + duration
                                    - child_time.get(span_id, 0.0))
            self.durations.setdefault(name, []).append(duration)

    def seconds(self, name: str) -> float:
        return self.total.get(name, 0.0)

    def self_seconds(self, name: str) -> float:
        return self.self_time.get(name, 0.0)

    def calls(self, name: str) -> int:
        return self.count.get(name, 0)
