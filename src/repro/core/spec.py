"""Executable specification of Convergent History Agreement (Section 3.2).

Given the outputs and proposals of an execution, these checkers decide the
three CHA requirements:

* **Validity** — every value in every output history was proposed by some
  node for the corresponding instance.
* **Agreement** — every pair of non-bottom outputs agrees on the common
  prefix of instances.
* **Liveness** — some instance ``kst`` exists from which every node
  outputs a history that includes every instance in ``[kst, k]``.

Checkers raise :class:`~repro.errors.SpecViolation` with enough context to
reproduce a failure; the liveness checker instead *finds* the convergence
instance (or reports failure), since liveness over a finite prefix is a
measurement rather than a pass/fail property.

Cost model.  Outputs of one execution share the interned
:class:`~repro.core.history.HistoryChain` links they were folded from, so
the checkers walk links rather than re-scanning every entry of every
output, and memoise per link within one call:

* Validity proves each distinct link valid once and stops a walk at the
  first link already proven;
* Agreement resolves the witness's prefix link once per distinct cut and
  compares each history to it by identity;
* Liveness reads, per (node, instance), one past the largest instance the
  output lacks from the run of consecutive anchors ending at its top link.

That is O(nodes x instances + distinct links) per call, and no output
materialises a lookup dict.  Dict-form histories (the seed
representation, e.g. under ``REPRO_REFERENCE_HISTORY``) have no spine of
their own and are checked entry by entry.  Each fast verdict, message and
context equals the brute-force loop's; a failing history is re-scanned
by that loop so the error names the same entry
(``tests/core/test_spec_oracle.py`` keeps the loops as the oracle).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..errors import SpecViolation
from ..types import BOTTOM, Instance, NodeId, Value
from .history import History, HistoryChain, reference_history_forced

#: The per-node output sequence type: (instance, History or BOTTOM) pairs.
OutputLog = Sequence[tuple[Instance, History | None]]


def check_validity(outputs: Mapping[NodeId, OutputLog],
                   proposals: Mapping[NodeId, Mapping[Instance, Value]]) -> None:
    """Raise :class:`SpecViolation` on any non-proposed history value."""
    proposed_at: dict[Instance, set[Value]] = {}
    for node_proposals in proposals.values():
        for k, v in node_proposals.items():
            proposed_at.setdefault(k, set()).add(v)

    def link_valid(below_valid: bool, link: HistoryChain) -> bool:
        if not below_valid:
            return False
        try:
            return link.value in proposed_at.get(link.anchor, ())
        except TypeError:  # unhashable value: let the scan raise as it would
            return False

    proven: dict[HistoryChain, bool] = {}
    for node, log in outputs.items():
        for k, out in log:
            if out is BOTTOM:
                continue
            spine = out.spine()
            if spine is not None and (proven.get(spine)
                                      or spine.fold(proven, True, link_valid)):
                continue
            # Dict form, or an invalid link somewhere: the ascending scan
            # names the lowest offending entry.
            for k_prime, value in out.items():
                if value not in proposed_at.get(k_prime, ()):
                    raise SpecViolation(
                        f"validity: node {node}'s output at instance {k} "
                        f"contains value {value!r} at instance {k_prime}, "
                        "which no node proposed",
                        context={"node": node, "instance": k,
                                 "at": k_prime, "value": value},
                    )


def check_agreement(outputs: Mapping[NodeId, OutputLog], *,
                    exhaustive: bool = False,
                    use_reference: bool | None = None) -> None:
    """Raise :class:`SpecViolation` on any common-prefix disagreement.

    The default check compares every history against a maximal-instance
    witness, which is equivalent to the pairwise condition because the
    agreement relation is "equality on the shorter prefix" and every
    history is compared on *its own* full domain against the witness.
    ``exhaustive=True`` performs the O(m²) pairwise comparison (useful in
    unit tests of the checker itself).

    ``use_reference`` (default: the ``REPRO_REFERENCE_HISTORY``
    environment switch) pins the agreement relation to the seed
    prefix-rebuild derivation instead of the chain-identity short
    circuit — the two are pinned together by the differential suite.
    """
    if use_reference is None:
        use_reference = reference_history_forced()
    agrees = (History.agrees_with_reference if use_reference
              else History.agrees_with)
    histories: list[tuple[NodeId, Instance, History]] = []
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

    def _fail(a, b) -> None:
        (node_a, k_a, h_a), (node_b, k_b, h_b) = a, b
        cut = min(k_a, k_b)
        diverging = [
            k for k in range(1, cut + 1) if h_a(k) != h_b(k)
        ]
        raise SpecViolation(
            f"agreement: node {node_a}'s output at instance {k_a} and node "
            f"{node_b}'s output at instance {k_b} differ at instances "
            f"{diverging[:5]}",
            context={"a": (node_a, k_a), "b": (node_b, k_b),
                     "diverging": diverging},
        )

    if exhaustive:
        for i in range(len(histories)):
            for j in range(i + 1, len(histories)):
                if not agrees(histories[i][2], histories[j][2]):
                    _fail(histories[i], histories[j])
        return

    witness = max(histories, key=lambda item: item[1])
    if use_reference:
        for item in histories:
            if not agrees(item[2], witness[2]):
                _fail(item, witness)
        return

    # Fast branch: the witness's prefix link per distinct cut, in one
    # descending walk that goes no deeper than the smallest cut, so a
    # one-instance check stays O(1) however long the witness is.  Shared
    # links agree by identity; anything else takes ``agrees_with``.
    # (Dict-form histories intern their chains in the order the pairwise
    # ``agrees_with`` loop would: first history, then the witness.)
    w_hist = witness[2]
    histories[0][2]._as_chain()
    link = w_hist._as_chain()
    witness_at: dict[Instance, HistoryChain] = {}
    for cut in sorted({item[1] for item in histories}, reverse=True):
        while link.anchor > cut:
            link = link.parent
        witness_at[cut] = link
    for item in histories:
        h = item[2]
        # Lengths were checked above: the cut against the (longest)
        # witness is the history's own instance.
        if (h._as_chain().prefix(item[1]) is not witness_at[item[1]]
                and not agrees(h, w_hist)):
            _fail(item, witness)


def find_liveness_point(outputs: Mapping[NodeId, OutputLog],
                        *, alive: Sequence[NodeId] | None = None) -> Instance | None:
    """The smallest ``kst`` witnessing Liveness over this finite execution.

    Only nodes in ``alive`` (default: all nodes in ``outputs``) are
    required to satisfy the property — crashed nodes are exempt, per the
    problem statement's "non-failed node" qualifier.  Returns ``None``
    when no suffix of the execution satisfies Liveness.
    """
    nodes = list(alive if alive is not None else outputs.keys())
    if not nodes:
        return None
    per_node: dict[NodeId, dict[Instance, History | None]] = {
        node: dict(outputs[node]) for node in nodes
    }
    last_instance = min(
        (max(log) if (log := per_node[node]) else 0) for node in nodes
    )
    if last_instance == 0:
        return None

    # kst works iff for every k in [kst, last]: every node output a
    # non-bottom history at k that includes every instance in [kst, k].
    # Equivalently, need(node, k) <= kst for all of them, where need is
    # one past the largest instance in 1..k the output lacks (k + 1 for
    # bottom).  need is not monotone in k, so the answer is the smallest
    # kst whose suffix maximum of need (over k >= kst) is at most kst.
    run_start: dict[HistoryChain, Instance] = {}
    need_at = [0] * (last_instance + 1)
    for node in nodes:
        log = per_node[node]
        for k in range(1, last_instance + 1):
            out = log.get(k, BOTTOM)
            if out is BOTTOM:
                need = k + 1
            elif (spine := out.spine()) is not None:
                top = spine.prefix(k)
                if top.anchor != k:
                    need = k + 1
                else:
                    need = (run_start.get(top)
                            or top.fold(run_start, 1, _run_start))
            else:
                need = k
                while need and out.includes(need):
                    need -= 1
                need += 1
            if need > need_at[k]:
                need_at[k] = need
    found = None
    worst = 0
    for kst in range(last_instance, 0, -1):
        if need_at[kst] > worst:
            worst = need_at[kst]
        if worst <= kst:
            found = kst
    return found


def _run_start(below: Instance, link: HistoryChain) -> Instance:
    """One past the largest instance up to ``link.anchor`` its fold lacks:
    the lowest anchor of the run of consecutive anchors ending at
    ``link`` (the root folds to 1: no instance is missing below 1)."""
    return below if link.parent.anchor == link.anchor - 1 else link.anchor


def check_liveness(outputs: Mapping[NodeId, OutputLog],
                   *, by_instance: Instance,
                   alive: Sequence[NodeId] | None = None) -> Instance:
    """Assert that Liveness holds with ``kst <= by_instance``.

    Returns the discovered ``kst``.  Raises :class:`SpecViolation` if the
    execution never converges, or converges later than demanded.
    """
    kst = find_liveness_point(outputs, alive=alive)
    if kst is None:
        raise SpecViolation(
            "liveness: no convergence instance exists in this execution",
            context={"by_instance": by_instance},
        )
    if kst > by_instance:
        raise SpecViolation(
            f"liveness: convergence at instance {kst}, later than the "
            f"required {by_instance}",
            context={"kst": kst, "by_instance": by_instance},
        )
    return kst


def check_all(outputs: Mapping[NodeId, OutputLog],
              proposals: Mapping[NodeId, Mapping[Instance, Value]],
              *, liveness_by: Instance | None = None,
              alive: Sequence[NodeId] | None = None) -> Instance | None:
    """Run Validity + Agreement (+ Liveness when ``liveness_by`` given)."""
    check_validity(outputs, proposals)
    check_agreement(outputs)
    if liveness_by is not None:
        return check_liveness(outputs, by_instance=liveness_by, alive=alive)
    return None
