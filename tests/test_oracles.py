from itertools import combinations

import pytest

from karpkit.instances import (
    CnfFormula,
    DiGraph,
    IntegerList,
    Problem,
    SetFamily,
    SteinerInstance,
    TripleFamily,
    UGraph,
    verify_certificate,
)
from karpkit import oracles
from karpkit.oracles import BudgetExceededError, OracleSelfCheckError, solve


def test_hcp_k4_yes():
    edges = tuple(combinations(range(1, 5), 2))
    v = solve(Problem("hcp", UGraph(4, edges)))
    assert v.answer
    assert len(v.certificate.value) == 4


def test_clique_p3_no():
    v = solve(Problem("clique", UGraph(3, ((1, 2), (2, 3))), param=3))
    assert not v.answer and v.certificate is None


def test_partition_all_ones_no():
    v = solve(Problem("partition", IntegerList((1, 1, 1))))
    assert not v.answer


def test_witnesses_verify():
    cases = [
        Problem("sat", CnfFormula(3, ((1, -2), (2, 3)))),
        Problem("node_cover", UGraph(3, ((1, 2), (2, 3))), param=1),
        Problem("set_covering", SetFamily(3, ((1, 2), (3,))), param=2),
        Problem("exact_cover", SetFamily(3, ((1, 2), (3,), (1, 3)))),
        Problem("hitting_set", SetFamily(3, ((1, 2), (2, 3)))),
        Problem("three_dim_matching", TripleFamily(2, ((1, 1, 1), (2, 2, 2)))),
        Problem("knapsack", IntegerList((2, 3, 5), 8)),
        Problem("max_cut", UGraph(3, ((1, 2), (2, 3)), (1, 2)), param=3),
        Problem("chromatic_number", UGraph(3, ((1, 2), (2, 3))), param=2),
        Problem("clique_cover", UGraph(3, ((1, 2),)), param=2),
        Problem("feedback_node_set", DiGraph(3, ((1, 2), (2, 1), (2, 3))), param=1),
        Problem("feedback_arc_set", DiGraph(2, ((1, 2), (2, 1))), param=1),
        Problem(
            "steiner_tree",
            SteinerInstance(UGraph(3, ((1, 2), (2, 3)), (1, 1)), (1, 3), 2),
        ),
        Problem("dhcp", DiGraph(3, ((1, 2), (2, 3), (3, 1)))),
    ]
    for p in cases:
        v = solve(p)
        assert v.answer, p.kind
        assert verify_certificate(p, v.certificate), p.kind


def test_verdict_is_truthy():
    assert solve(Problem("partition", IntegerList((2, 2))))
    assert not solve(Problem("partition", IntegerList((1, 2))))


def test_budget_refusal_on_large_space():
    p = Problem("sat", CnfFormula(30, ((1, 2, 3),)))
    with pytest.raises(BudgetExceededError):
        solve(p, budget=1 << 10)


def test_budget_counts_search_leaves_not_space():
    # a sparse Hamiltonian search is prunable far below n! leaves
    n = 12
    edges = tuple((i, i + 1) for i in range(1, n)) + ((1, n),)
    v = solve(Problem("hcp", UGraph(n, edges)), budget=1 << 12)
    assert v.answer


def test_lexicographically_first_witness():
    p = Problem("knapsack", IntegerList((2, 2, 2), 2))
    v = solve(p)
    assert v.certificate.value == (1,)


def test_witness_self_check_is_not_an_assert(monkeypatch):
    # must raise under `python -O` too, where assert statements are dropped
    monkeypatch.setattr(oracles, "verify_certificate", lambda problem, cert: False)
    with pytest.raises(OracleSelfCheckError):
        solve(Problem("partition", IntegerList((2, 2))))


def test_explored_counter_monotone():
    p = Problem("partition", IntegerList((1, 2, 3, 4)))
    v = solve(p)
    assert v.explored >= 1
