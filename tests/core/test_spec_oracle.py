"""Differential suite: the link-walking spec checkers ≡ brute-force loops.

:mod:`repro.core.spec` and the Lemma 6 / Lemma 9 checkers of
:mod:`repro.analysis.invariants` walk the interned ``HistoryChain`` links
that outputs share, visiting each distinct link once.  The loops below
re-scan every entry of every output history instead; they are the
executable definition of each checker.  On generated executions both
must return the same value or raise the same exception, with the same
:class:`~repro.errors.SpecViolation` text and ``context``.

Generated executions mix chain-form and dict-form histories over forked,
shared spines, bottoms, missing instances, outputs whose length is not
their instance, instances logged twice, values nobody proposed (deep
inside shared spines too), cross-type-equal values (``1 == True``) and
an unhashable value.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.invariants import check_lemma6, check_lemma9
from repro.core import (
    History,
    check_agreement,
    check_validity,
    find_liveness_point,
)
from repro.core.history import ROOT_CHAIN, new_chain_generation
from repro.errors import SpecViolation
from repro.types import BOTTOM, Color

pytestmark = pytest.mark.fast

UNHASHABLE = ["l"]
VALUES = ["a", "b", "c", 1, True, 1.0, ("t", 1), UNHASHABLE]


# ----------------------------------------------------------------------
# The oracles: every entry of every output, every time
# ----------------------------------------------------------------------

def oracle_validity(outputs, proposals):
    proposed_at = {}
    for node_proposals in proposals.values():
        for k, v in node_proposals.items():
            proposed_at.setdefault(k, set()).add(v)
    for node, log in outputs.items():
        for k, out in log:
            if out is BOTTOM:
                continue
            for k_prime, value in out.items():
                if value not in proposed_at.get(k_prime, ()):
                    raise SpecViolation(
                        f"validity: node {node}'s output at instance {k} "
                        f"contains value {value!r} at instance {k_prime}, "
                        "which no node proposed",
                        context={"node": node, "instance": k,
                                 "at": k_prime, "value": value},
                    )


def oracle_agreement(outputs):
    histories = []
    for node, log in outputs.items():
        for k, out in log:
            if out is not BOTTOM:
                if out.length != k:
                    raise SpecViolation(
                        f"agreement: node {node} output a history of length "
                        f"{out.length} for instance {k}",
                        context={"node": node, "instance": k},
                    )
                histories.append((node, k, out))
    if not histories:
        return
    witness = max(histories, key=lambda item: item[1])
    for item in histories:
        if not item[2].agrees_with(witness[2]):
            (node_a, k_a, h_a), (node_b, k_b, h_b) = item, witness
            cut = min(k_a, k_b)
            diverging = [k for k in range(1, cut + 1) if h_a(k) != h_b(k)]
            raise SpecViolation(
                f"agreement: node {node_a}'s output at instance {k_a} and "
                f"node {node_b}'s output at instance {k_b} differ at "
                f"instances {diverging[:5]}",
                context={"a": (node_a, k_a), "b": (node_b, k_b),
                         "diverging": diverging},
            )


def oracle_liveness(outputs, *, alive=None):
    nodes = list(alive if alive is not None else outputs.keys())
    if not nodes:
        return None
    per_node = {node: dict(outputs[node]) for node in nodes}
    last = min((max(log) if (log := per_node[node]) else 0) for node in nodes)
    if last == 0:
        return None

    def works(kst):
        for node in nodes:
            for k in range(kst, last + 1):
                out = per_node[node].get(k, BOTTOM)
                if out is BOTTOM:
                    return False
                if any(not out.includes(k2) for k2 in range(kst, k + 1)):
                    return False
        return True

    for kst in range(1, last + 1):
        if works(kst):
            return kst
    return None


def oracle_lemma6(run):
    red_at = {k for k in range(1, run.instances + 1)
              if Color.RED in run.colors_at(k).values()}
    for node, log in run.outputs.items():
        for k_out, out in log:
            if out is BOTTOM:
                continue
            included_reds = red_at & set(out.included_instances)
            if included_reds:
                raise SpecViolation(
                    f"Lemma 6: node {node}'s output at {k_out} includes "
                    f"red instances {sorted(included_reds)}",
                    context={"node": node, "instance": k_out},
                )


def oracle_lemma9(run):
    greens = [k for k in range(1, run.instances + 1)
              if Color.GREEN in run.colors_at(k).values()]
    for node, log in run.outputs.items():
        for k_out, out in log:
            if out is BOTTOM:
                continue
            for g in greens:
                if g <= k_out and not out.includes(g):
                    raise SpecViolation(
                        f"Lemma 9: green instance {g} missing from node "
                        f"{node}'s output at instance {k_out}",
                        context={"node": node, "green": g, "at": k_out},
                    )


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------

def outcome(fn):
    """A checker call normalised to a comparable tuple."""
    try:
        return ("ok", fn())
    except SpecViolation as exc:
        return ("violation", str(exc), repr(exc.context), exc.context)
    except Exception as exc:  # the loops' own errors (KeyError, TypeError)
        return (type(exc).__name__, str(exc))


def chain_histories(outputs):
    return [out for log in outputs.values() for _, out in log
            if out is not BOTTOM and out.spine() is not None]


def assert_checkers_match(outputs, proposals, colors, *, alive=None):
    """Run the fast checkers, then the oracles, and compare outcomes."""
    instances = max(colors, default=0)
    run = SimpleNamespace(instances=instances, outputs=outputs,
                          colors_at=lambda k: colors.get(k, {}))
    checks = [
        ("liveness", lambda: find_liveness_point(outputs, alive=alive),
         lambda: oracle_liveness(outputs, alive=alive)),
        ("validity", lambda: check_validity(outputs, proposals),
         lambda: oracle_validity(outputs, proposals)),
        ("lemma6", lambda: check_lemma6(run), lambda: oracle_lemma6(run)),
        ("lemma9", lambda: check_lemma9(run), lambda: oracle_lemma9(run)),
    ]
    fast = {name: outcome(new) for name, new, _ in checks}
    # None of those four materialises a lookup dict on a chain history.
    assert all(h._lookup is None for h in chain_histories(outputs))
    fast["agreement"] = outcome(
        lambda: check_agreement(outputs, use_reference=False))
    checks.append(("agreement", None, lambda: oracle_agreement(outputs)))
    for name, _, old in checks:
        assert fast[name] == outcome(old), name
    return fast


@st.composite
def executions(draw):
    """Outputs over forked spines, proposals and per-instance colours."""
    new_chain_generation()
    n = draw(st.integers(0, 9), label="instances")
    # A tidy execution (few gaps, lengths equal to instances, few forks)
    # reaches the convergent and agreeing outcomes; an untidy one the
    # violations.
    tidy = draw(st.booleans(), label="tidy")
    gap = 15 if tidy else 3
    value = st.sampled_from(VALUES)
    spines = [ROOT_CHAIN]
    for _ in range(draw(st.integers(1, 2 if tidy else 4), label="spines")):
        # Fork an earlier spine below a random cut, then extend it: the
        # forks share every link below the cut.
        link = spines[draw(st.integers(0, len(spines) - 1))].prefix(
            draw(st.integers(0, n)))
        for k in range(link.anchor + 1, n + 1):
            if draw(st.integers(0, gap)):
                link = link.child(k, draw(value))
        spines.append(link)
    deltas = [0] if tidy else [0, 0, 0, 0, -1, 1, 2]
    kinds = (["out"] * 3 * gap + ["bottom", "missing", "twice"] if tidy
             else ["out", "out", "out", "bottom", "missing", "twice"])

    def history(k):
        length = max(0, k + draw(st.sampled_from(deltas)))
        link = draw(st.sampled_from(spines[1:])).prefix(length)
        if draw(st.booleans()):
            return History._from_chain(length, link)
        return History(length, dict(link.entries()))

    nodes = draw(st.integers(1, 4), label="nodes")
    outputs = {}
    for node in range(nodes):
        log = []
        for k in range(1, n + 1 + (not tidy)):
            kind = draw(st.sampled_from(kinds))
            if kind == "missing":
                continue
            log.append((k, BOTTOM if kind == "bottom" else history(k)))
            if kind == "twice":  # the later entry wins in dict(log)
                log.append((k, BOTTOM if draw(st.booleans()) else history(k)))
        outputs[node] = log

    # Proposals cover most spine values, so validity passes often
    # enough to reach the other checks.
    proposals = {node: {} for node in range(nodes)}
    for spine in spines:
        for k, v in spine.entries():
            if v is not UNHASHABLE and draw(st.integers(0, 7)):
                proposals[draw(st.integers(0, nodes - 1))][k] = v
    colors = {
        k: {node: draw(st.sampled_from(list(Color)))
            for node in range(draw(st.integers(0, nodes)))}
        for k in range(1, n + 1)
    }
    alive = draw(st.one_of(
        st.none(),
        st.lists(st.integers(0, nodes), max_size=nodes, unique=True)))
    return outputs, proposals, colors, alive


@settings(max_examples=400, deadline=None)
@given(executions())
def test_fast_checkers_match_the_loops(execution):
    outputs, proposals, colors, alive = execution
    assert_checkers_match(outputs, proposals, colors, alive=alive)


# ----------------------------------------------------------------------
# Pinned shapes the generator must not be trusted to hit
# ----------------------------------------------------------------------

def spine_of(entries):
    link = ROOT_CHAIN
    for k, v in entries:
        link = link.child(k, v)
    return link


def test_invalid_value_deep_in_a_shared_spine():
    new_chain_generation()
    spine = spine_of([(k, "ghost" if k == 2 else f"v{k}")
                      for k in range(1, 41)])
    outputs = {node: [(k, History._from_chain(k, spine.prefix(k)))
                      for k in range(1, 41)] for node in range(6)}
    proposals = {0: {k: f"v{k}" for k in range(1, 41)}}
    fast = assert_checkers_match(outputs, proposals, {})
    assert fast["validity"][0] == "violation"
    # The lowest offending entry of the first failing history.
    assert fast["validity"][3] == {"node": 0, "instance": 2, "at": 2,
                                   "value": "ghost"}


def test_non_monotone_need_profile():
    # need(k) is not monotone in k: a bottom at 3 blocks kst <= 3, and
    # the output at 5 lacks instance 4, so kst = 3 and kst = 4 fail
    # while kst = 5 works.
    new_chain_generation()
    spine = spine_of([(1, "a"), (2, "b"), (3, "c"), (5, "e"), (6, "f")])
    full = spine_of([(1, "a"), (2, "b"), (3, "c"), (4, "d")])
    outputs = {0: [
        (1, History._from_chain(1, spine.prefix(1))),
        (2, History._from_chain(2, spine.prefix(2))),
        (3, BOTTOM),
        (4, History._from_chain(4, full)),
        (5, History._from_chain(5, spine.prefix(5))),
        (6, History(6, dict(spine.entries()))),
    ]}
    fast = assert_checkers_match(outputs, {}, {})
    assert fast["liveness"] == ("ok", 5)


def test_instance_logged_twice_last_entry_wins():
    new_chain_generation()
    spine = spine_of([(1, "a"), (2, "b")])
    outputs = {0: [
        (1, History._from_chain(1, spine.prefix(1))),
        (2, History._from_chain(2, spine)),
        (2, BOTTOM),
    ]}
    assert assert_checkers_match(outputs, {}, {})["liveness"] == ("ok", None)


def test_length_mismatch_is_an_agreement_violation():
    new_chain_generation()
    spine = spine_of([(1, "a")])
    outputs = {0: [(2, History._from_chain(1, spine))]}
    fast = assert_checkers_match(outputs, {0: {1: "a"}}, {})
    assert fast["agreement"][3] == {"node": 0, "instance": 2}
