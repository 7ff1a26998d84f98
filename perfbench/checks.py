"""Correctness checks and output digests for every workload.

Each check returns a list of failure reasons (empty means the operation
succeeded), so a failure is always counted against the operations
attempted rather than raised and lost.

* Batch workloads: one operation is one verified run.  It fails when an
  invariant verdict is not ``ok``, when a node's output log does not
  cover the full instance budget, or when a decided value is not one
  the workload proposed for that instance.
* ``svc-open``: one operation is one proposal, tracked by
  :class:`ProposalBook` from send to decision.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

from repro import check_agreement
from repro.errors import SpecViolation

OK = "ok"


# ----------------------------------------------------------------------
# Batch runs
# ----------------------------------------------------------------------

def verdict_failures(invariants: dict[str, str],
                     expected: tuple[str, ...]) -> list[str]:
    """Every expected invariant was checked and held."""
    failures = [f"invariant {name} not checked" for name in expected
                if name not in invariants]
    failures += [f"invariant {name}: {verdict}"
                 for name, verdict in sorted(invariants.items())
                 if verdict != OK]
    return failures


def cluster_failures(outputs: dict, instances: int,
                     proposed: Callable[[int, int], str]) -> list[str]:
    """Coverage and validity of a cluster run's output logs.

    ``outputs`` maps node -> ``[(instance, History | None), ...]``;
    ``proposed(node, k)`` is the value the workload made ``node``
    propose for instance ``k``.
    """
    failures = []
    expected = list(range(1, instances + 1))
    nodes = sorted(outputs)
    proposals: dict[int, set] = {}
    for node in nodes:
        log = outputs[node]
        if [k for k, _ in log] != expected:
            failures.append(
                f"node {node}: output log covers {len(log)} of "
                f"{instances} instances")
            continue
        final = next((out for _, out in reversed(log) if out is not None),
                     None)
        if final is None:
            continue
        for k, value in final.items():
            if k not in proposals:
                proposals[k] = {proposed(other, k) for other in nodes}
            if value not in proposals[k]:
                failures.append(
                    f"node {node}: instance {k} decided {value!r}, which "
                    f"nobody proposed")
                break
    return failures


def cluster_digest(outputs: dict) -> str:
    """A digest of every node's outputs, cheap enough for 10k nodes.

    Per output: instance, bottom-or-not, history length, included
    count and last included instance; per node, the final history's
    entries in full.  Agreement makes the final histories share one
    interned spine, so this stays linear in the run.
    """
    sha = hashlib.sha256()
    for node in sorted(outputs):
        log = outputs[node]
        final = None
        for k, out in log:
            if out is None:
                sha.update(f"{node}:{k}:_;".encode())
            else:
                final = out
                sha.update(f"{node}:{k}:{out.length}:{len(out)}:"
                           f"{out.last_included()};".encode())
        if final is not None:
            sha.update(repr(tuple(final.items())).encode())
    return sha.hexdigest()


def vi_digest(world, clients: dict) -> str:
    """A digest of a deployment's virtual-node states and outcomes."""
    sha = hashlib.sha256()
    for site in world.sites:
        vn = site.vn_id
        states = world.vn_states(vn)
        sha.update(f"vn{vn}:{sorted(states.items())!r};".encode())
        for outcome in world.outcomes[vn]:
            sha.update(f"{outcome.virtual_round}:{outcome.live}:"
                       f"{sorted(outcome.colors.items())!r};".encode())
    for node in sorted(clients):
        sha.update(f"c{node}:{clients[node].heard!r};".encode())
    return sha.hexdigest()


# ----------------------------------------------------------------------
# svc-open: one operation per proposal
# ----------------------------------------------------------------------

def world_failure(driver) -> str | None:
    """Why a served world failed: it did not complete its instance
    budget, or the program's agreement checker rejects its outputs."""
    if driver.result is None:
        return "did not complete its instance budget"
    try:
        check_agreement({node: proc.outputs
                         for node, proc in driver.stepper.processes.items()})
    except SpecViolation as exc:
        return f"agreement: {exc}"
    return None


@dataclass
class _Proposal:
    session: str
    world: str
    value: str
    scheduled: float
    tcp: bool
    instance: int | None = None
    rejected: str | None = None
    decided_value: object = None
    agreement: str | None = None
    latency_s: float | None = None


@dataclass
class ProposalBook:
    """Every proposal of one served episode, from send to decision.

    A writer records a proposal when it sends it (:meth:`sent`), the
    instance it was acked into (:meth:`acked`) or its rejection, and the
    ``decision`` event it read for that instance (:meth:`decided`).
    :meth:`outcomes` then judges each proposal once every ack has been
    read: decided values are checked against every value acked into the
    same instance of the same world, whichever session proposed it.
    """

    proposals: dict[str, _Proposal] = field(default_factory=dict)
    #: Request ids awaiting a decision, per (session, world, instance).
    waiting: dict[tuple[str, str, int], list[str]] = field(default_factory=dict)
    #: Sessions whose queues dropped events (set by the episode).
    lossy_sessions: set[str] = field(default_factory=set)
    #: World -> why its outputs failed the final check (set by the episode).
    failed_worlds: dict[str, str] = field(default_factory=dict)

    def sent(self, rid: str, *, session: str, world: str, value: str,
             scheduled: float, tcp: bool = False) -> None:
        self.proposals[rid] = _Proposal(session, world, value, scheduled, tcp)

    def acked(self, rid: str, instance: int) -> None:
        proposal = self.proposals[rid]
        proposal.instance = instance
        key = (proposal.session, proposal.world, instance)
        self.waiting.setdefault(key, []).append(rid)

    def rejected(self, rid: str, reason: str) -> None:
        self.proposals[rid].rejected = reason

    def decided(self, session: str, event: dict, now: float) -> None:
        """``session`` read ``event``, a ``decision`` event, at ``now``."""
        key = (session, event["world"], event["instance"])
        for rid in self.waiting.pop(key, ()):
            proposal = self.proposals[rid]
            proposal.decided_value = event["value"]
            proposal.agreement = event["agreement"]
            proposal.latency_s = now - proposal.scheduled

    def world_failed(self, world: str, reason: str) -> None:
        """Fail every proposal of ``world``: its outputs did not verify."""
        self.failed_worlds.setdefault(world, reason)

    def unresolved(self) -> int:
        """Proposals still waiting for an ack or a decision."""
        return sum(p.rejected is None and p.latency_s is None
                   for p in self.proposals.values())

    def outcomes(self) -> dict[str, str]:
        """Request id -> ``"ok"`` or the reason the proposal failed."""
        acked_values: dict[tuple[str, int], set[str]] = {}
        for proposal in self.proposals.values():
            if proposal.instance is not None:
                acked_values.setdefault(
                    (proposal.world, proposal.instance), set()
                ).add(proposal.value)
        result = {}
        for rid, proposal in self.proposals.items():
            if proposal.rejected is not None:
                result[rid] = f"rejected: {proposal.rejected}"
            elif proposal.instance is None:
                result[rid] = "unserved: never acked"
            elif proposal.latency_s is None:
                result[rid] = ("decision dropped"
                               if proposal.session in self.lossy_sessions
                               else "timed out waiting for the decision")
            elif proposal.world in self.failed_worlds:
                result[rid] = (f"world {proposal.world}: "
                               f"{self.failed_worlds[proposal.world]}")
            elif proposal.agreement != OK:
                result[rid] = f"agreement: {proposal.agreement}"
            elif proposal.decided_value not in acked_values[
                    (proposal.world, proposal.instance)]:
                result[rid] = (f"decided {proposal.decided_value!r}, which "
                               f"nobody proposed for instance "
                               f"{proposal.instance}")
            else:
                result[rid] = OK
        return result

    def latencies(self, outcomes: dict[str, str], *, tcp: bool) -> list[float]:
        return [p.latency_s for rid, p in self.proposals.items()
                if outcomes[rid] == OK and p.tcp == tcp]

    def digest(self, outcomes: dict[str, str]) -> str:
        """Proposals and their outcome kinds; instance numbers depend on
        wall-clock timing and are left out."""
        rows = sorted((p.world, p.value, outcomes[rid].split(":")[0])
                      for rid, p in self.proposals.items())
        return hashlib.sha256(repr(rows).encode()).hexdigest()
