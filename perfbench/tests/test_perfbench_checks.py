"""The benchmark's checks check: tampered results count as failures.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

import batch  # noqa: E402
import checks  # noqa: E402
from repro import History  # noqa: E402

TINY_DENSE = batch.DenseSize(nodes=6, instances=12, rcf=9)


def _outputs():
    plan = batch.dense_plan(1, TINY_DENSE)
    result = batch.ExperimentStepper(plan.spec).finish()
    return plan, result


def _proposed(plan):
    factory = plan.spec.protocol.proposer_factory
    return lambda node, k: factory(node)(k)


def test_untampered_cluster_run_passes_every_check():
    plan, result = _outputs()
    assert checks.verdict_failures(result.invariants,
                                   plan.expected_invariants) == []
    assert plan.check(result) == []


def test_swapped_decision_value_fails_validity():
    plan, result = _outputs()
    outputs = {node: list(log) for node, log in result.outputs.items()}
    k, final = outputs[0][-1]
    entries = dict(final.items())
    swapped = next(iter(entries))
    entries[swapped] = "nobody-proposed-this"
    outputs[0][-1] = (k, History(final.length, entries))
    failures = checks.cluster_failures(outputs, TINY_DENSE.instances,
                                       _proposed(plan))
    assert len(failures) == 1 and "nobody proposed" in failures[0]


def test_dropped_decision_fails_coverage():
    plan, result = _outputs()
    outputs = {node: list(log) for node, log in result.outputs.items()}
    del outputs[3][5]
    failures = checks.cluster_failures(outputs, TINY_DENSE.instances,
                                       _proposed(plan))
    assert failures and "covers 11 of 12" in failures[0]


def test_forced_bad_verdict_fails():
    failures = checks.verdict_failures(
        {"agreement": "violated: forced", "validity": "ok"},
        ("agreement", "validity", "liveness"))
    assert failures == ["invariant liveness not checked",
                        "invariant agreement: violated: forced"]


def test_bad_verdict_from_the_program_counts_as_a_failed_run():
    # Liveness demanded from instance 1 while the adversary is still
    # active: the program's own checker reports the violation.
    plan = batch.dense_plan(2, TINY_DENSE)
    plan.spec = plan.spec.override(metrics__liveness_by=1)
    episode = batch.run_episode(lambda: plan)
    assert episode.attempted == 1 and episode.failed == 1
    assert any("liveness" in f for f in episode.failures)


def test_digest_sees_a_changed_output():
    plan, result = _outputs()
    outputs = {node: list(log) for node, log in result.outputs.items()}
    before = checks.cluster_digest(outputs)
    k, out = outputs[2][0]
    outputs[2][0] = (k, None if out is not None else History(k, {k: "x"}))
    assert checks.cluster_digest(outputs) != before


# ----------------------------------------------------------------------
# svc-open: one operation per proposal
# ----------------------------------------------------------------------

def _book() -> checks.ProposalBook:
    book = checks.ProposalBook()
    book.sent("r0", session="s1", world="w1", value="a", scheduled=0.0)
    book.sent("r1", session="s2", world="w1", value="b", scheduled=0.5)
    book.acked("r0", 7)
    book.acked("r1", 7)
    return book


def _decision(value, agreement="ok", instance=7):
    return {"type": "decision", "world": "w1", "instance": instance,
            "value": value, "agreement": agreement}


def test_proposals_decided_with_an_acked_value_pass():
    book = _book()
    # Last writer wins: both proposals see "b", which r1 proposed.
    book.decided("s1", _decision("b"), now=1.0)
    book.decided("s2", _decision("b"), now=1.0)
    outcomes = book.outcomes()
    assert outcomes == {"r0": "ok", "r1": "ok"}
    assert book.latencies(outcomes, tcp=False) == [1.0, 0.5]


def test_swapped_decision_value_fails_the_proposal():
    book = _book()
    book.decided("s1", _decision("zzz"), now=1.0)
    book.decided("s2", _decision("b"), now=1.0)
    outcomes = book.outcomes()
    assert "nobody proposed" in outcomes["r0"] and outcomes["r1"] == "ok"


def test_bad_agreement_verdict_fails_the_proposal():
    book = _book()
    book.decided("s1", _decision("a", agreement="violated: split"), now=1.0)
    book.decided("s2", _decision("a"), now=1.0)
    assert book.outcomes()["r0"].startswith("agreement: violated")


def test_dropped_decision_fails_the_proposal():
    book = _book()
    book.decided("s2", _decision("b"), now=1.0)
    assert book.outcomes()["r0"] == "timed out waiting for the decision"
    book.lossy_sessions.add("s1")
    assert book.outcomes()["r0"] == "decision dropped"


def test_rejected_unacked_and_failed_world_proposals_fail():
    book = _book()
    book.sent("r2", session="s1", world="w2", value="c", scheduled=0.0)
    book.sent("r3", session="s1", world="w2", value="d", scheduled=0.0)
    book.rejected("r2", "instance 3 is frozen")
    outcomes = book.outcomes()
    assert outcomes["r2"].startswith("rejected")
    assert outcomes["r3"].startswith("unserved")
    book.decided("s1", _decision("a"), now=1.0)
    book.world_failed("w1", "invariant agreement: violated: x")
    assert book.outcomes()["r0"].startswith("world w1")


def test_decision_for_another_instance_does_not_resolve():
    book = _book()
    book.decided("s1", _decision("a", instance=8), now=1.0)
    assert book.outcomes()["r0"] != "ok"
